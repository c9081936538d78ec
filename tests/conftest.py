"""Fixtures shared by the test modules."""

import sys

import pytest

import chainlab.cli  # noqa: F401  (loads every module that may hold smith_normal_form)
import chainlab.intmat


@pytest.fixture
def snf_calls(monkeypatch):
    """A list that grows by one on every call of ``intmat.smith_normal_form``.

    The function is replaced under every name a chainlab module imported it as.
    """
    calls = []
    real = chainlab.intmat.smith_normal_form

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "chainlab" and getattr(module, "smith_normal_form", None) is real:
            monkeypatch.setattr(module, "smith_normal_form", counting)
    return calls
