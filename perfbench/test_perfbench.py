"""The benchmark's own tests: tiny workloads, oracles that reject wrong answers, tracing.

    python3 -m pytest -q perfbench

They run chainlab from this checkout's src/ in-process, at sizes far below the
benchmark's, so they take seconds.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import check, import_chainlab, run_items  # noqa: E402

import_chainlab()


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a few small items."""
    monkeypatch.setattr(wl, "WIDE_JOBS", (("Z2", "abelian:n=2,3"), ("S2", "abelian:n=2"),
                                          ("F2", "cyclic:n=3..5"), ("Z3", "abelian:n=2")))
    monkeypatch.setattr(wl, "TORSION_GROUPS", 2)
    monkeypatch.setattr(wl, "TORSION_SPEC", "cyclic:n=6,12")
    monkeypatch.setattr(wl, "RAAG_PER_STRATUM", 1)
    monkeypatch.setattr(wl, "COXETER_SLOTS", ((4, ((1,), (2,), (3,))), (5, ((1, 3), (2, 4)))))
    monkeypatch.setattr(wl, "FARBER_CHAINS", ((2, 6, (((1, 0), (2, 2)),)),))
    monkeypatch.setattr(wl, "REBUILD_SIZES", (4,))
    monkeypatch.setattr(wl, "CYCLE_SIZES", (4,))


def run_tiny(name: str, tmp_path: Path, seed: int = 5):
    workload = wl.build(name, seed, tmp_path / "inputs")
    latencies, produced, wall = run_items(workload.items, tmp_path / "out")
    failures, digests, _ = check(workload, produced, tmp_path / "out", deep=True)
    return workload, produced, failures, digests


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_every_workload_passes_its_oracles_at_tiny_size(tiny, tmp_path, name):
    workload, produced, failures, _ = run_tiny(name, tmp_path)
    assert workload.items
    assert failures == {}


def test_inputs_depend_only_on_the_seed(tiny, tmp_path):
    for name in ("homology_torsion", "raag_sweep", "coset_audit"):
        a = wl.build(name, 3, tmp_path / "a")
        b = wl.build(name, 3, tmp_path / "b")
        c = wl.build(name, 4, tmp_path / "c")
        inputs = lambda w: [(i.key, repr(i.sizes)) for i in w.items]  # noqa: E731
        assert inputs(a) == inputs(b)
        assert inputs(a) != inputs(c)


def _perturb(path: Path, stem: str, level: int = 0, delta: int = 1) -> None:
    report = json.loads((path / f"{stem}.json").read_text())
    report["points"][level]["value"] += delta
    (path / f"{stem}.json").write_text(json.dumps(report))


def test_wide_oracle_rejects_a_wrong_betti_number(tiny, tmp_path):
    workload = wl.build("homology_wide", 1, tmp_path / "inputs")
    item = workload.items[0]
    run_items([item], tmp_path / "out")
    out = tmp_path / "out" / "0"
    assert wl.check_item(item, out, 0, {}) == []
    _perturb(out, "betti_q")
    assert wl.check_item(item, out, 0, {})


def test_wide_oracle_rejects_a_mod_p_value_off_the_closed_form(tiny, tmp_path):
    workload = wl.build("homology_wide", 1, tmp_path / "inputs")
    item = workload.items[0]
    run_items([item], tmp_path / "out")
    _perturb(tmp_path / "out" / "0", "betti_fp_3")
    assert wl.check_item(item, tmp_path / "out" / "0", 0, {})


def test_torsion_oracle_checks_universal_coefficients(tiny, tmp_path):
    workload = wl.build("homology_torsion", 1, tmp_path / "inputs")
    run_items(workload.items, tmp_path / "out")
    out_dirs = {item.key: tmp_path / "out" / str(k) for k, item in enumerate(workload.items)}
    assert wl.deep_check_torsion(workload.items, out_dirs) == []
    _perturb(out_dirs[workload.items[0].key], "betti_fp_2", level=1)
    problems = wl.deep_check_torsion(workload.items, out_dirs)
    assert problems and problems[0][0] == workload.items[0].key


def test_torsion_relators_have_zero_exponent_sum_in_a():
    import random

    rng = random.Random(7)
    for _ in range(50):
        rel = wl.random_relator(rng)
        assert 8 <= len(rel) <= 12
        assert rel.count(1) == rel.count(-1)
        assert all(rel[i] != -rel[i + 1] for i in range(len(rel) - 1)) and rel[0] != -rel[-1]


def test_raag_oracle_rejects_a_flipped_verdict(tiny, tmp_path):
    workload = wl.build("raag_sweep", 2, tmp_path / "inputs")
    item = workload.items[0]
    ia, cc = item.call()
    assert wl.check_raag(item, (ia, cc)) == []
    flipped = dataclasses.replace(ia, inner_amenable=not ia.inner_amenable)
    assert wl.check_raag(item, (flipped, cc))


def test_exit_code_and_digest_oracles(tiny, tmp_path):
    pool = dict((item.key, item) for _, item in wl.coset_audit_pool(tmp_path / "inputs"))
    broken = pool["data:qnormal verify broken_chain.json"]
    rc = run_items([broken], tmp_path / "out")[1][0]
    out = tmp_path / "out" / "0"
    digests = wl.load_digests()
    assert rc == 4 and wl.check_item(broken, out, rc, digests) == []
    assert wl.check_item(broken, out, 0, digests)  # a flipped exit code fails
    report = out / "verify_report.json"
    report.write_text(report.read_text().replace("failed", "proven"))
    assert wl.check_item(broken, out, rc, digests)  # changed report bytes fail


def test_coxeter_oracle_counts_cosets(tiny, tmp_path):
    pool = [item for _, item in wl.coset_audit_pool(tmp_path / "inputs")]
    item = next(i for i in pool if i.key == "coxeter:S5:J=1,3")
    assert item.sizes["cosets"] == 120 // 4
    run_items([item], tmp_path / "out")
    out = tmp_path / "out" / "0"
    assert wl.check_item(item, out, 0, {}) == []
    graph = json.loads((out / "graph.json").read_text())
    graph["vertices"].pop()
    (out / "graph.json").write_text(json.dumps(graph))
    assert wl.check_item(item, out, 0, {})


def test_farber_oracle_rejects_a_wrong_ratio(tiny, tmp_path):
    pool = [item for _, item in wl.coset_audit_pool(tmp_path / "inputs")]
    item = next(i for i in pool if i.key.startswith("farber"))
    run_items([item], tmp_path / "out")
    out = tmp_path / "out" / "0"
    assert wl.check_item(item, out, 0, {}) == []
    report = json.loads((out / "farber.json").read_text())
    report["values"][0][1] = "1" if report["values"][0][1] == "0" else "0"
    (out / "farber.json").write_text(json.dumps(report))
    assert wl.check_item(item, out, 0, {})


def test_parabolic_order():
    assert wl.parabolic_order(()) == 1
    assert wl.parabolic_order((1, 2)) == 6
    assert wl.parabolic_order((1, 3, 5)) == 8
    assert wl.parabolic_order((2, 3, 4, 6)) == 24 * 2


def test_tracer_wraps_importing_modules_and_restores_them(tiny, tmp_path):
    import chainlab.homology
    import chainlab.intmat

    original = chainlab.intmat.smith_normal_form
    assert chainlab.homology.smith_normal_form is original
    tracer = Tracer()
    tracer.install()
    try:
        assert chainlab.homology.smith_normal_form is not original
        assert chainlab.homology.smith_normal_form is chainlab.intmat.smith_normal_form
        workload = wl.build("homology_wide", 1, tmp_path / "inputs")
        run_items(workload.items, tmp_path / "out", tracer)
    finally:
        tracer.uninstall()
    assert chainlab.homology.smith_normal_form is original
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == len(workload.items)
    assert metrics["intmat.smith_normal_form.calls"] > 0
    assert metrics["homology.d1_rank_known_frac"] == 1.0
    assert metrics["homology.summaries_per_level"] == 2 + len(wl.PRIMES)
    assert 0 <= metrics["trace.unattributed_frac"] < 0.5


def test_after_hook_time_is_charged_to_no_span():
    import time

    from tracer import Entry

    tracer = Tracer()
    slow_hook = Entry("t.child", "m", "child", after=lambda *args: time.sleep(0.05))
    child = tracer._span_wrapper(slow_hook, lambda: None)
    parent = tracer._span_wrapper(Entry("t.parent", "m", "parent"), lambda: child())
    tracer.start_root()
    parent()
    tracer.end_root()
    own, root_self = tracer.self_times()
    assert own[0] < 0.01  # the parent span, open while the child's hook ran
    assert root_self < 0.01


def test_missing_entry_point_is_absent_not_zero(monkeypatch):
    import chainlab.folner

    monkeypatch.delattr(chainlab.folner, "inner_folner_defect")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    tracer.start_root()
    tracer.end_root()
    metrics = tracer.metrics()
    assert "folner.inner_folner_defect.calls" not in metrics
    assert metrics["intmat.smith_normal_form.calls"] == 0


def test_percentile_interpolates():
    assert bench_run.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert bench_run.percentile([5.0], 0.99) == 5.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "raag_sweep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
