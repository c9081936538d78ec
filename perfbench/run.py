"""chainlab's benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload homology_wide --seed 0 --seconds 30 --trace 0

Each pass starts a fresh interpreter (perfbench/worker.py) that imports
chainlab from this checkout's src/, builds the seeded inputs and runs every
item once, in order, on one thread: a closed loop with one client.  Passes
repeat, one at a time, until the time is spent.  Every item's output is
checked by an oracle after its pass's clock stops.

With ``--trace 0`` the last line holds the end-to-end metrics (medians over
passes); with ``--trace 1`` untraced and traced passes alternate and the last
line holds the per-layer metrics of the traced ones.  The full run record
(machine, versions, input sizes, every metric) is written under
.perfbench_out/.  Exit code 0 only if every output was correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"

MIN_PASSES = 3
HARD_STOP_S = 120.0  # no pass starts after this, so a run ends well inside 180 s

sys.path.insert(0, str(BENCH_DIR))
import workloads as wl  # noqa: E402


# ------------------------------------------------------------ run record


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _src_digest() -> str:
    """sha256 over src/ file names and bytes: names the code even without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _numpy_version() -> str:
    try:
        from importlib.metadata import version

        return version("numpy")
    except Exception:
        return "absent"


def machine_record() -> dict:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"nproc": usable, "cpu_count": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": _numpy_version(),
            "platform": platform.platform(), "git_commit": _git_commit(),
            "src_sha256": _src_digest()}


# ---------------------------------------------------------------- passes


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(args, pass_no: int, slice_no: int, trace: bool, deep: bool, spans: str = "") -> dict:
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}" / f"p{pass_no}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--slice", str(slice_no), "--trace", str(int(trace)),
           "--deep", str(int(deep)), "--work", str(work), "--result", str(result_path)]
    if spans:
        cmd += ["--spans", spans]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=HARD_STOP_S + 50)
    ended = time.monotonic()
    if proc.returncode != 0 or not result_path.exists():
        shutil.rmtree(work, ignore_errors=True)
        raise RuntimeError(f"pass {pass_no} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(work, ignore_errors=True)
    result["setup_s"] = result["ready"] - spawned
    result["pass_s"] = ended - spawned
    result["trace"] = trace
    return result


def run_passes(args) -> list:
    """Passes one after another until --seconds is spent (at least MIN_PASSES)."""
    start = time.monotonic()
    passes: list = []
    while True:
        elapsed = time.monotonic() - start
        if passes:
            typical = statistics.median(p["pass_s"] for p in passes)
            if elapsed > HARD_STOP_S or (len(passes) >= MIN_PASSES and elapsed + typical > args.seconds):
                break
        k = len(passes)
        if args.trace:  # untraced, traced, untraced, ... on one fixed input slice
            traced = k % 2 == 1
            spans = str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl") if k == 1 else ""
            passes.append(run_pass(args, k, 0, traced, deep=k == 0, spans=spans))
        else:
            passes.append(run_pass(args, k, k, False, deep=k == 0))
    return passes


# --------------------------------------------------------------- metrics


def percentile(values: list, q: float) -> float:
    """Linear interpolation between order statistics (the 'inclusive' method)."""
    ordered = sorted(values)
    h = (len(ordered) - 1) * q
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (h - lo)


def failures_of(passes: list) -> tuple:
    """(failed item count, problems): oracle failures plus reports that differ between passes."""
    problems, failed = [], 0
    for k, p in enumerate(passes):
        failed += len(p["failures"])
        for key, msgs in sorted(p["failures"].items()):
            problems.append(f"pass {k} {key}: {msgs[0].strip().splitlines()[-1]}")
    first: dict = {}
    for k, p in enumerate(passes):
        for key, digest in p["digests"].items():
            if first.setdefault(key, digest) != digest and key not in p["failures"]:
                failed += 1
                problems.append(f"pass {k} {key}: report bytes differ from an earlier pass")
    return failed, problems


def end_to_end(workload: str, passes: list) -> tuple:
    latencies = [x for p in passes for x in p["latencies_s"]]
    q = wl.TAIL_PERCENTILE[workload]
    by_key: dict = {}
    for p in passes:
        for key, x in zip(p["keys"], p["latencies_s"]):
            by_key.setdefault(key, []).append(x)
    item_ms = {key: round(statistics.median(xs) * 1e3, 3) for key, xs in by_key.items()
               if len(by_key) <= 100}  # per-item medians, for workloads with a short item list
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_ms": percentile(latencies, 0.5) * 1e3,
        "item_tail_ms": percentile(latencies, q / 100) * 1e3,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }, {"tail_percentile": q, "items_timed": len(latencies),
        "items_beyond_tail": round(len(latencies) * (1 - q / 100)), "item_median_ms": item_ms}


def per_layer(passes: list) -> dict:
    from tracer import median_metrics

    traced = [p for p in passes if p["trace"]]
    untraced = [p for p in passes if not p["trace"]]
    layers = median_metrics([p["layers"] for p in traced])
    layers["trace.overhead_frac"] = (statistics.median(p["wall_s"] for p in traced)
                                     / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in (SRC / "chainlab" / "__init__.py", wl.DATA) if not p.exists()]
    if missing:
        print(f"perfbench: this is not a chainlab checkout; missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    subprocess.run([sys.executable, "-c", "import chainlab.cli"], env=child_env(), cwd=ROOT,
                   check=True, timeout=60)  # compile bytecode once, unmeasured

    t0 = time.monotonic()
    try:
        passes = run_passes(args)
    finally:
        shutil.rmtree(WORK / f"{args.workload}-s{args.seed}-{os.getpid()}", ignore_errors=True)
        try:
            WORK.rmdir()  # only if no other run is using it
        except OSError:
            pass
    failed, problems = failures_of(passes)
    attempted = sum(p["attempted"] for p in passes)
    timed = [p for p in passes if not p["trace"]]
    e2e, timing = end_to_end(args.workload, timed)
    e2e["failed_frac"] = failed / attempted

    listed = json.loads(SPEC.read_text(encoding="utf-8"))["per_layer" if args.trace else "end_to_end"]
    values = per_layer(passes) if args.trace else e2e
    units = {"failed_frac": "ratio", **{m["name"]: m["unit"] for m in listed}}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in values}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(), "run_s": time.monotonic() - t0,
        "passes": len(passes), "traced_passes": sum(1 for p in passes if p["trace"]),
        "items_per_pass": passes[0]["attempted"], "input_sizes": passes[0]["sizes"],
        "torsion_factor_bits": passes[0]["item_sizes"], **timing,
        "attempted": attempted, "failed": failed, "problems": problems[:50],
        "end_to_end": e2e,
        "per_pass": [{k: p[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "trace", "latencies_s")}
                     for p in passes],
    }
    if args.trace:
        record["per_layer"] = values
    path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    print(f"perfbench {args.workload} seed={args.seed} passes={len(passes)} "
          f"items/pass={record['items_per_pass']} nproc={record['machine']['nproc']} "
          f"python={record['machine']['python']} numpy={record['machine']['numpy']}")
    for name in sorted(values):
        print(f"  {name:<48} {values[name]:>14.6g} {units.get(name, '')}")
    print(f"  tail percentile p{timing['tail_percentile']} over {timing['items_timed']} timed items "
          f"({timing['items_beyond_tail']} beyond it)")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
