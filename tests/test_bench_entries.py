"""Every entry point the benchmark tracer wraps, and every name the
benchmark imports, still exists in the package.

``perfbench/tracer.py`` skips an entry point it cannot find, and that
entry's per-layer metrics then drop out of the traced result line without
any error, so a deleted or renamed function is caught here instead.  A
name that ``perfbench/`` imports from ``chainlab`` would fail only inside a
benchmark run, so it is checked here too.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("entry", tracer.ENTRIES, ids=lambda e: f"{e.module}.{e.attr}")
def test_traced_entry_point_exists(entry):
    assert tracer._resolve(entry.module, entry.attr) is not None


def bench_imports():
    """(module, name) for every ``from chainlab.<m> import <name>`` in perfbench/."""
    found = set()
    for path in sorted(TRACER.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("chainlab."):
                found.update((node.module, alias.name) for alias in node.names)
    return sorted(found)


@pytest.mark.parametrize("module, name", bench_imports(), ids=lambda v: v)
def test_benchmark_import_exists(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_tracer_reads_smith_normal_form_results(tmp_path):
    """The tracer's Smith normal form hook reads ``invariant_factors`` and the
    matrix's ``rows``, ``cols`` and ``data``; a change to either surfaces here."""
    from chainlab import cli

    data = Path(__file__).resolve().parent.parent / "data" / "Z2.json"
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(["homology", str(data), "--chain", "abelian:n=1..3", "--out", str(tmp_path)])
    finally:
        t.uninstall()
    assert code == 0
    assert t.counters["intmat.smith_normal_form.factors"] > 0
