"""Steadiness check: run each workload repeatedly and compare the spread with the bounds.

    python3 perfbench/steady.py --runs 10 [--workloads raag_sweep,coset_audit] [--seed0 1]

Run k uses seed seed0 + k.  For every end-to-end metric the spread is the
distance between the first and third quartile of the runs' values
(``statistics.quantiles(values, n=4)``) as a share of their median.  The
bound comes from BENCHMARK.json.  A spread within a third of its bound is
"steady"; within the bound, "ok"; beyond it, "UNSTEADY".  Every run's result
is kept in .perfbench_out/steady-<time>.json, so two sets can be compared
with ``--compare FILE``.  Every run lasts BENCHMARK.json's run_seconds, the
length the bounds are meant for.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".perfbench_out"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    result["exit"] = proc.returncode
    return result


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--compare", default="", help="an earlier steady-*.json to compare medians with")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict = {}
    for workload in args.workloads.split(","):
        results[workload] = [run_once(workload, args.seed0 + k, spec["run_seconds"])
                             for k in range(args.runs)]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}

    bad = 0
    print(f"{'workload':<18} {'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for workload, runs in results.items():
        failed = [r for r in runs if r.get("exit") != 0 or not r.get("correct")]
        if failed:
            bad += 1
            print(f"{workload:<18} {len(failed)} of {len(runs)} runs failed or were incorrect")
            continue
        for name, bound in bounds.items():
            median, share = spread([r["metrics"][name]["value"] for r in runs])
            verdict = "steady" if share <= bound / 3 else "ok" if share <= bound else "UNSTEADY"
            bad += verdict == "UNSTEADY"
            line = f"{workload:<18} {name:<14} {median:>12.5g} {share:>8.3f} {bound:>6}  {verdict}"
            if workload in earlier:
                before = statistics.median(r["metrics"][name]["value"] for r in earlier[workload])
                drift = median / before - 1
                line += f"  vs earlier {drift:+.3f}" + ("  WORSE" if drift > bound else "")
                bad += drift > bound
            print(line)
    print(f"results: {path.relative_to(ROOT)}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
