"""The command-line surface: reproducible runs over the shipped data corpus.

Every command reads JSON jobs from data/, writes reports plus a manifest
into an output directory, and exits 0/2/3/4 for success / bad input /
exhausted budget / failed verification.  Reports carry no timestamps (the
manifest does), so identical inputs give byte-identical report files —
diffable golden outputs.  This script drives the same entry point the
installed `chainlab` executable uses.
"""

import json
import sys
import tempfile
from pathlib import Path

from chainlab.cli import main

sys.stdout.reconfigure(line_buffering=True)  # keep CLI stderr interleaved in order

DATA = Path(__file__).resolve().parent.parent / "data"
with tempfile.TemporaryDirectory(prefix="chainlab_demo_") as tmp:
    work = Path(tmp)

    runs = [
        (["homology", str(DATA / "Z.json"), "--chain", "abelian:n=1..5",
          "--primes", "2", "--out", str(work / "homology")], "betti_q.csv"),
        (["qnormal", "verify", str(DATA / "golden_chain.json"),
          "--out", str(work / "verify")], "verify_report.json"),
        (["qnormal", "blowup", str(DATA / "plane_blowup_job.json"),
          "--out", str(work / "blowup")], "blowup.json"),
        (["raag", "analyze", str(DATA / "c4.json"), "--out", str(work / "raag")],
         "raag_report.json"),
        (["farber", str(DATA / "Z.json"), "--chain", "abelian:n=1..6",
          "--gammas", "a", "--eps", "0", "--out", str(work / "farber")], "farber.json"),
        (["rebuild", "check", str(DATA / "subdiv_circle_8.json"), "--T", "8",
          "--out", str(work / "rebuild")], "rebuild_report.json"),
    ]

    for argv, headline in runs:
        code = main(argv)
        out = Path(argv[argv.index("--out") + 1])
        print(f"$ chainlab {' '.join(argv[:-2])}")
        print(f"  exit {code}; wrote {sorted(p.name for p in out.iterdir())}")
        target = out / headline
        if headline.endswith(".json"):
            report = json.loads(target.read_text())
            keys = [k for k in report if k != "manifest"][:6]
            print(f"  {headline}: keys {keys}")
        else:
            print(f"  {headline}: {target.read_text().splitlines()[1]}")

    print("\nand the failure contract, on purpose:")
    code = main(["qnormal", "verify", str(DATA / "broken_chain.json"),
                 "--out", str(work / "broken")])
    print(f"  corrupted certificate -> exit {code} (report still written)")
    code = main(["rebuild", "check", str(DATA / "corrupt_rho.json"), "--T", "8",
                 "--out", str(work / "corrupt")])
    print(f"  corrupted homotopy    -> exit {code}")

    print(f"\nall artifacts under {work} (removed on exit)")
