"""One pass of one workload in a fresh interpreter; run.py starts it.

Set-up (import chainlab, build the seeded inputs) ends at the ``ready``
stamp.  The measured phase runs every item once, in order, on one thread.
The oracle runs after the clock stops.  The result is written as JSON to
the file named by ``--result``.

    python3 perfbench/worker.py --workload raag_sweep --seed 0 --slice 0 \
        --work .perfbench_work/x --result .perfbench_work/x/result.json
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def import_chainlab():
    """Import chainlab from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import chainlab
    import chainlab.cli  # noqa: F401  (the CLI workloads call it; users pay its import)

    if not Path(chainlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"chainlab imported from {chainlab.__file__}, not from {SRC}")
    return chainlab


def run_items(items, out_root: Path, tracer=None) -> tuple:
    """The measured phase: (per-item seconds, per-item exit code or value, wall seconds)."""
    import chainlab.cli as cli  # looked up per call, so a traced run sees its wrapper

    latencies, produced = [], []
    start = time.perf_counter()
    if tracer is not None:
        tracer.start_root()
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.begin_item()
        t0 = time.perf_counter()
        try:
            value = cli.main(item.argv + ["--out", str(out_root / str(k))]) if item.is_cli else item.call()
        except Exception:  # an uncaught error is a failed item, never a crashed pass
            value = traceback.format_exc(limit=3)
        latencies.append(time.perf_counter() - t0)
        produced.append(value)
    if tracer is not None:
        tracer.end_root()
    return latencies, produced, time.perf_counter() - start


def check(workload, produced, out_root: Path, deep: bool) -> tuple:
    """(failures {key: problems}, report digests {key: sha256}, report bytes)."""
    import workloads as wl

    digests = wl.load_digests()
    failures, seen, out_dirs = {}, {}, {}
    report_bytes = 0
    for k, (item, value) in enumerate(zip(workload.items, produced)):
        if isinstance(value, str):  # a traceback
            failures[item.key] = [value]
            continue
        if item.is_cli:
            out_dir = out_root / str(k)
            out_dirs[item.key] = out_dir
            report_bytes += sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.exists() else 0
            try:
                problems = wl.check_item(item, out_dir, value, digests)
                seen[item.key] = wl.report_digest(out_dir)
            except (OSError, KeyError, ValueError, TypeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
        else:
            problems = wl.check_item(item, value, None, digests)
        if problems:
            failures[item.key] = problems
    if deep and workload.deep_check is not None:
        clean = [it for it in workload.items if it.key not in failures]
        try:
            found = workload.deep_check(clean, out_dirs)
        except (OSError, KeyError, ValueError, TypeError) as exc:
            found = [(it.key, f"unreadable report: {exc!r}") for it in clean]
        for key, problem in found:
            failures.setdefault(key, []).append(problem)
    return failures, seen, report_bytes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--slice", type=int, default=0, help="which slice of a sliced sample to run")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--deep", type=int, default=0, help="also run the first-pass-only oracle")
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default="", help="write the traced spans here as JSON lines")
    args = ap.parse_args(argv)

    import_chainlab()
    import workloads as wl

    work = Path(args.work)
    workload = wl.build(args.workload, args.seed, work / "inputs", args.slice)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out_root = work / "out"
    try:
        latencies, produced, wall = run_items(workload.items, out_root, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, report_digests, report_bytes = check(workload, produced, out_root, bool(args.deep))
    result = {
        "ready": ready,
        "wall_s": wall,
        "latencies_s": latencies,
        "keys": [it.key for it in workload.items],
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(workload.items),
        "failures": failures,
        "digests": report_digests,
        "sizes": workload.sizes,
        "item_sizes": {it.key: it.sizes for it in workload.items if "max_factor_bits" in it.sizes},
    }
    if tracer is not None:
        layer = tracer.metrics()
        if "cli.main" in tracer.present:
            layer["cli.bytes_written"] = report_bytes
        result["layers"] = layer
        if args.spans:
            tracer.write_spans(args.spans)
    shutil.rmtree(out_root, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
