"""Record the report digests the oracles compare against (perfbench/digests.json).

    python3 perfbench/capture_digests.py

Runs every coset_audit pool item (all seeds draw from this finite pool, the
data/ jobs included) and the default-seed homology_torsion items once through
the benchmark's own loop (``worker.run_items``) and stores the sha256 of each
run's reports, manifest.json excluded.  Run it only on a commit whose reports
are the reference: the benchmark then holds every later commit to those bytes.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402
from worker import import_chainlab, run_items  # noqa: E402


def main() -> int:
    import_chainlab()
    work = BENCH_DIR.parent / ".perfbench_work" / "digests"
    shutil.rmtree(work, ignore_errors=True)
    try:
        items = [item for _, item in wl.coset_audit_pool(work / "inputs")]
        items += wl.build("homology_torsion", wl.DEFAULT_SEED, work / "inputs").items
        items = [item for item in items if item.is_cli]
        _, produced, _ = run_items(items, work / "out")
        digests = {}
        for k, (item, rc) in enumerate(zip(items, produced)):
            if rc != item.expect_rc:
                raise SystemExit(f"{item.key}: exit code {rc!r}, expected {item.expect_rc}")
            digests[item.key] = wl.report_digest(work / "out" / str(k))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wl.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(digests)} digests written to {wl.DIGESTS.relative_to(BENCH_DIR.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
