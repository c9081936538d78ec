"""The benchmark's four workloads: seeded inputs, the measured items, oracles.

A workload builds, from a seed, a list of items.  An item is one unit of
user-visible work: one CLI job run in-process through ``chainlab.cli.main``,
or one graph analyzed by library calls.  Building the items (and writing the
job files they read) is set-up; running them is the measured phase; checking
them is the oracle, which runs after the clock stops.

Every oracle returns a list of problems; an empty list means the item passed.
Items carry a stable ``key``.  Keys drawn from finite pools (every coset_audit
item, every data/ job) and the default-seed homology_torsion items have report
digests captured at the parent commit in ``digests.json``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DATA = ROOT / "data"
DIGESTS = BENCH_DIR / "digests.json"
MANIFEST_NAME = "manifest.json"
DEFAULT_SEED = 0

WORKLOADS = ("homology_wide", "homology_torsion", "raag_sweep", "coset_audit")

# The tail percentile of item latency, fixed per workload.  For the CLI
# workloads it is the highest whole percentile with at least ten timed items
# beyond it in a 30 s run.  It is fixed rather than recomputed from the item
# count because a pass repeats the same few items, and a percentile that moved
# with the number of passes would jump between items.  raag_sweep uses p97
# (about 140 items beyond it): its top 1% is set by full garbage collections,
# about two per 600 graphs, and over ten seeds p99 spread 0.33 of its median
# from run to run where p97 spread 0.05.
TAIL_PERCENTILE = {"homology_wide": 86, "homology_torsion": 75, "raag_sweep": 97,
                   "coset_audit": 94}


@dataclass
class Item:
    """One measured unit of work.

    A CLI item has ``argv`` (without ``--out``) and an expected exit code; a
    library item has ``call``, which returns the value its oracle checks.
    ``check`` receives the item and what the run produced: the output
    directory for CLI items, the returned value for library items.
    """

    key: str
    check: Callable[["Item", object], list]
    argv: Optional[list] = None
    expect_rc: int = 0
    call: Optional[Callable[[], object]] = None
    sizes: dict = field(default_factory=dict)

    @property
    def is_cli(self) -> bool:
        return self.argv is not None


@dataclass
class Workload:
    items: list
    sizes: dict  # input sizes of the whole pass, for the run record
    # first-pass-only oracle: (items, {key: out dir}) -> [(key, problem)]
    deep_check: Optional[Callable[[list, dict], list]] = None


# ------------------------------------------------------------------ helpers


def report_digest(out_dir: Path) -> str:
    """sha256 over the report files of one CLI run, manifest.json excluded.

    A run that stopped before creating its output directory has no reports.
    """
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()) if out_dir.exists() else ():
        if path.name == MANIFEST_NAME or not path.is_file():
            continue
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def load_digests() -> dict:
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def _read(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text(encoding="utf-8"))


def _write_job(work: Path, name: str, payload: dict) -> str:
    path = work / name
    path.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _rotations(w: tuple) -> list:
    """Cyclic conjugates of w and of its inverse: same normal closure."""
    inv = tuple(-x for x in reversed(w))
    return [v[i:] + v[:i] for v in (w, inv) for i in range(len(v))]


def _betti_points(out_dir: Path, stem: str) -> list:
    return [(p["index"], p["value"]) for p in _read(out_dir, f"{stem}.json")["points"]]


# ----------------------------------------------------------- homology_wide

# (family, chain spec) per job; the index set is fixed so every seed measures
# the same matrix sizes.  The seed picks equivalent Z^2 and Z^3 relator words
# and the job order.  The genus-2 relator and the F2 cover generator stay
# fixed: they change the elimination's pivot order, and with it the cost of
# one job by up to 2.4x, which would make seeds incomparable.
WIDE_JOBS = (
    ("Z2", "abelian:n=2..6"),
    ("Z2", "abelian:n=7,8"),
    ("Z2", "abelian:n=9"),
    ("Z3", "abelian:n=2,3"),
    ("Z3", "abelian:n=4"),
    ("S2", "abelian:n=2"),
    ("S2", "abelian:n=3"),
    ("F2", "cyclic:n=10..30"),
    ("F2", "cyclic:n=40,50"),
    ("F2", "cyclic:n=60,90"),
    ("F2", "cyclic:n=150"),
)
PRIMES = (2, 3)


def _wide_presentation(family: str, rng: random.Random) -> dict:
    comm = lambda i, j: (i, j, -i, -j)  # noqa: E731
    if family == "Z2":
        return {"generators": ["x", "y"], "relators": [list(rng.choice(_rotations(comm(1, 2))))]}
    if family == "Z3":
        rels = [list(rng.choice(_rotations(comm(i, j)))) for i, j in ((1, 2), (1, 3), (2, 3))]
        rng.shuffle(rels)
        return {"generators": ["a", "b", "c"], "relators": rels}
    if family == "S2":  # genus-2 surface group [a,b][c,d]
        return {"generators": ["a", "b", "c", "d"], "relators": [list(comm(1, 2) + comm(3, 4))]}
    return {"generators": ["a", "b"], "relators": []}


def _closed_form_b1(family: str, index: int, n: int) -> int:
    if family == "Z2":
        return 2
    if family == "Z3":
        return 3
    if family == "S2":  # a degree-m cover of a genus-2 surface has genus m + 1
        return 2 * index + 2
    return n + 1  # F2: a degree-n cover of a rank-2 free group is free of rank n + 1


def _check_wide(item: Item, out_dir) -> list:
    family = item.sizes["family"]
    problems = []
    q = _betti_points(out_dir, "betti_q")
    for (index, value), n in zip(q, item.sizes["levels"]):
        want = _closed_form_b1(family, index, n)
        if value != want:
            problems.append(f"betti_q at index {index} is {value}, closed form gives {want}")
    if [i for i, _ in q] != item.sizes["indices"]:
        problems.append(f"cover indices {[i for i, _ in q]} != {item.sizes['indices']}")
    for p in PRIMES:
        if _betti_points(out_dir, f"betti_fp_{p}") != q:
            problems.append(f"mod-{p} Betti numbers differ from betti_q on a torsion-free series")
    if any(v != 0.0 for _, v in _betti_points(out_dir, "log_torsion")):
        problems.append("nonzero log torsion where H_1 is free")
    return problems


def _levels(spec: str) -> list:
    arg = spec.split("n=", 1)[1]
    if ".." in arg:
        lo, hi = arg.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(t) for t in arg.split(",")]


def _cover_index(family: str, n: int) -> int:
    rank = {"Z2": 2, "Z3": 3, "S2": 4, "F2": 1}[family]
    return n ** rank


def build_homology_wide(seed: int, work: Path) -> Workload:
    rng = random.Random(f"homology_wide:{seed}")
    items = []
    for k, (family, spec) in enumerate(WIDE_JOBS):
        pres = _wide_presentation(family, rng)
        levels = _levels(spec)
        group = _write_job(work, f"wide{k}.json", pres)
        items.append(Item(
            key=f"wide:{family}:{spec}",
            argv=["homology", group, "--chain", spec, "--primes", ",".join(map(str, PRIMES))],
            check=_check_wide,
            sizes={"family": family, "levels": levels,
                   "indices": [_cover_index(family, n) for n in levels]},
        ))
    rng.shuffle(items)
    indices = [i for it in items for i in it.sizes["indices"]]
    return Workload(items, {
        "jobs": len(items), "levels": len(indices), "max_cover_index": max(indices),
        "cover_indices": sorted(indices), "primes": list(PRIMES)})


# -------------------------------------------------------- homology_torsion

TORSION_GROUPS = 7
TORSION_SPEC = "cyclic:n=50,100"


def random_relator(rng: random.Random) -> tuple:
    """A cyclically reduced word in a, b of length 8-12 with a-exponent sum 0."""
    while True:
        length = rng.randint(8, 12)
        w = [rng.choice((1, -1, 2, -2)) for _ in range(length)]
        out: list = []
        for x in w:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        while len(out) > 1 and out[0] == -out[-1]:
            out = out[1:-1]
        if not 8 <= len(out) <= 12:
            continue
        if sum(1 if x == 1 else -1 if x == -1 else 0 for x in out) != 0:
            continue
        if 2 not in out and -2 not in out:
            continue
        return tuple(out)


def _check_torsion(item: Item, out_dir) -> list:
    problems = []
    q = _betti_points(out_dir, "betti_q")
    if [i for i, _ in q] != item.sizes["indices"]:
        problems.append(f"cover indices {[i for i, _ in q]} != {item.sizes['indices']}")
    for p in PRIMES:
        fp = _betti_points(out_dir, f"betti_fp_{p}")
        if any(b_p < b_q for (_, b_p), (_, b_q) in zip(fp, q)):
            problems.append(f"a mod-{p} Betti number is below betti_q")
    return problems


def deep_check_torsion(items: list, out_dirs: dict) -> list:
    """Universal coefficients: betti_fp[p] == betti_q + #{invariant factors divisible by p}.

    The factors come from the library's Smith normal form of d2, recomputed
    here outside the measured phase, so this cross-checks the SNF path against
    the mod-p elimination path the CLI used.  log_torsion must equal the sum of
    the factors' logarithms.
    """
    from chainlab.cli import load_json, presentation_from_dict
    from chainlab.coset import parse_chain_spec
    from chainlab.homology import homology_summary

    problems = []  # (item key, message)
    for item in items:
        out_dir = out_dirs[item.key]
        p = presentation_from_dict(load_json(item.argv[1]))
        chain = parse_chain_spec(item.argv[3], p)
        q = dict(_betti_points(out_dir, "betti_q"))
        fps = {pr: dict(_betti_points(out_dir, f"betti_fp_{pr}")) for pr in PRIMES}
        logs = dict(_betti_points(out_dir, "log_torsion"))
        for t in chain.levels:
            factors = homology_summary(p, t).invariant_factors_nontrivial
            for pr in PRIMES:
                want = q[t.index] + sum(1 for f in factors if f % pr == 0)
                if fps[pr][t.index] != want:
                    problems.append((item.key, f"index {t.index}: betti_fp[{pr}] = "
                                     f"{fps[pr][t.index]}, universal coefficients give {want}"))
            if not math.isclose(logs[t.index], sum(math.log(f) for f in factors),
                                rel_tol=1e-12, abs_tol=1e-9):
                problems.append((item.key, f"index {t.index}: log_torsion disagrees with the factors"))
            item.sizes.setdefault("max_factor_bits", {})[t.index] = max(
                (f.bit_length() for f in factors), default=0)
    return problems


def build_homology_torsion(seed: int, work: Path) -> Workload:
    rng = random.Random(f"homology_torsion:{seed}")
    items = []
    levels = _levels(TORSION_SPEC)
    for k in range(TORSION_GROUPS):
        rel = random_relator(rng)
        group = _write_job(work, f"torsion{k}.json",
                           {"generators": ["a", "b"], "relators": [list(rel)]})
        items.append(Item(
            key=f"torsion:seed{seed}:{'.'.join(map(str, rel))}",
            argv=["homology", group, "--chain", TORSION_SPEC,
                  "--primes", ",".join(map(str, PRIMES))],
            check=_check_torsion,
            sizes={"relator": list(rel), "levels": levels, "indices": levels},
        ))
    return Workload(items, {
        "jobs": len(items), "levels": len(items) * len(levels), "cover_indices": levels,
        "relators": [it.sizes["relator"] for it in items], "primes": list(PRIMES)},
        deep_check=deep_check_torsion)


# -------------------------------------------------------------- raag_sweep

RAAG_VERTICES = (6, 7, 8)
RAAG_DENSITIES = (0.2, 0.4, 0.6, 0.8)
RAAG_PER_STRATUM = 50  # per slice: 3 sizes x 4 densities x 50 = 600 graphs
RAAG_SLICES = 4        # the seeded sample is 2,400 graphs, one slice per pass


def random_connected_graph(rng: random.Random, n: int, density: float) -> tuple:
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    while True:
        edges = tuple(p for p in pairs if rng.random() < density)
        seen, stack = {1}, [1]
        while stack:
            u = stack.pop()
            for a, b in edges:
                v = b if a == u else a if b == u else None
                if v is not None and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == n:
            return edges


def raag_sample(seed: int) -> list:
    """The seeded sample: RAAG_SLICES slices, each stratified by size and density."""
    rng = random.Random(f"raag_sweep:{seed}")
    slices = []
    for _ in range(RAAG_SLICES):
        graphs = [(n, random_connected_graph(rng, n, d))
                  for n in RAAG_VERTICES for d in RAAG_DENSITIES for _ in range(RAAG_PER_STRATUM)]
        rng.shuffle(graphs)
        slices.append(graphs)
    return slices


def check_raag(item: Item, result) -> list:
    """Own cone-vertex test on the edge set; the chain must be proven, one step per extra vertex."""
    from chainlab.qnormal import QNormalStatus

    n, edges = item.sizes["vertices"], item.sizes["edges"]
    degree = [0] * (n + 1)
    for a, b in edges:
        degree[a] += 1
        degree[b] += 1
    cones = tuple(v for v in range(1, n + 1) if degree[v] == n - 1)
    ia, cc = result
    problems = []
    if ia.inner_amenable != bool(cones) or tuple(ia.cone_vertices) != cones:
        problems.append(f"inner amenability {ia.inner_amenable} {ia.cone_vertices}, cones {cones}")
    if cc.verification is None or cc.verification.status is not QNormalStatus.PROVEN:
        problems.append("chain certificate not proven on a connected graph")
    elif cc.certificate is None or len(cc.certificate.steps) != n - 1:
        problems.append("certificate does not have one step per vertex after the first")
    return problems


def build_raag_sweep(seed: int, work: Path, pass_no: int = 0) -> Workload:
    import chainlab.raag as raag  # looked up per call, so a traced run sees its wrappers
    from chainlab.words import RaagGraph

    slices = raag_sample(seed)
    graphs = slices[pass_no % len(slices)]
    items = []
    for k, (n, edges) in enumerate(graphs):
        def call(n=n, edges=edges):
            g = RaagGraph(n, frozenset(edges))
            return raag.is_inner_amenable_raag(g), raag.chain_commuting_report(g)
        items.append(Item(key=f"raag:{pass_no % len(slices)}:{k}", call=call, check=check_raag,
                          sizes={"vertices": n, "edges": edges}))
    return Workload(items, {
        "graphs_sampled": sum(len(s) for s in slices), "graphs_per_pass": len(graphs),
        "slice": pass_no % len(slices), "vertices": list(RAAG_VERTICES),
        "densities": list(RAAG_DENSITIES),
        "edges_total": sum(len(e) for _, e in graphs)})


# ------------------------------------------------------------- coset_audit

COXETER_BUDGET = 20_000
BALL_BUDGET = 400
BALL_RADIUS = 3


def coxeter_symmetric(n: int) -> dict:
    """Coxeter presentation of S_n on the simple transpositions s1..s(n-1)."""
    rels = []
    for i in range(1, n):
        rels.append([i, i])
        for j in range(i + 1, n):
            rels.append([i, j] * (3 if j == i + 1 else 2))
    return {"generators": [f"s{i}" for i in range(1, n)], "relators": rels}


def parabolic_order(parabolic: tuple) -> int:
    """|W_J| for simple reflections J of S_n: a product of factorials of runs."""
    order, run, prev = 1, 0, None
    for j in sorted(parabolic):
        run = run + 1 if prev is not None and j == prev + 1 else 1
        order *= run + 1
        prev = j
    return order


# slot -> (n, candidate parabolics); each slot has one coset count.
COXETER_SLOTS = (
    (6, tuple((i,) for i in range(1, 6))),                                   # 360 cosets
    (6, tuple(c for c in itertools.combinations(range(1, 6), 2) if c[1] - c[0] > 1)),  # 180
    (7, tuple((i, i + 1) for i in range(1, 6))),                             # 840
    (7, tuple(c for c in itertools.combinations(range(1, 7), 3)
              if c[1] - c[0] > 1 and c[2] - c[1] > 1)),                      # 630
    (7, tuple((i,) for i in range(1, 7))),                                   # 2520
    (7, tuple(c for c in itertools.combinations(range(1, 7), 2) if c[1] - c[0] > 1)),  # 1260
)


def _check_coxeter(item: Item, out_dir) -> list:
    graph = _read(out_dir, "graph.json")
    want = item.sizes["cosets"]
    problems = []
    if len(graph["vertices"]) != want:
        problems.append(f"{len(graph['vertices'])} vertices, |S_n|/|W_J| = {want}")
    if graph["completeness"] != "complete" or graph["is_connected"] is not True:
        problems.append("coset graph of a finite-index subgroup is not complete and connected")
    return problems


def _check_ball(item: Item, out_dir) -> list:
    name = "trim.json" if item.argv[1] == "trim" else "graph.json"
    report = _read(out_dir, name)
    graph = report["graph"] if name == "trim.json" else report
    problems = []
    if graph["completeness"] != f"ball({BALL_RADIUS})":
        problems.append(f"expected a radius-{BALL_RADIUS} ball, got {graph['completeness']}")
    if not graph["frontier"] or graph["vertices"][0] != []:
        problems.append("ball has no frontier or does not start at the base coset")
    if name == "trim.json" and report["kept_orbits"] != list(range(item.sizes["generators"])):
        problems.append(f"kept orbits {report['kept_orbits']}")
    if name == "graph.json" and report["is_connected"] is not True:
        problems.append("ball graph is not connected")
    return problems


def _check_farber(item: Item, out_dir) -> list:
    """Levels of the abelian chain are normal kernels of Z^k -> (Z/n)^k: fx is 1 or 0."""
    report = _read(out_dir, "farber.json")
    problems = []
    for gamma, row in zip(item.sizes["gammas"], report["values"]):
        want = ["1" if all(e % n == 0 for e in gamma) else "0" for n in item.sizes["levels"]]
        if row != want:
            problems.append(f"fixed-point ratios of {gamma} disagree with the kernel test")
    return problems


def _check_rebuild(item: Item, out_dir) -> list:
    report = _read(out_dir, "rebuild_report.json")
    problems = []
    if report["validation"]["all_pass"] is not True:
        problems.append("exact validation failed on a valid rebuilding")
    if "quality" in report and report["quality"]["overall"] is not True:
        problems.append("quality audit failed at a passing kappa")
    return problems


def _check_exit_only(item: Item, out_dir) -> list:
    return []


def _check_folner(item: Item, result) -> list:
    report, free_defect = result
    problems = []
    if not report.strictly_increasing or report.max_defect != 0:
        problems.append("central slices must grow strictly with defect 0")
    if free_defect != 2:
        problems.append(f"free-group singleton defect {free_defect} != 2")
    return problems


DATA_JOBS = (
    # (argv with data/ file names, expected exit code)
    (["homology", "Z.json", "--chain", "abelian:n=1..5", "--primes", "2,3"], 0),
    (["homology", "Z2.json", "--chain", "abelian:n=1..4", "--primes", "2"], 0),
    (["homology", "ZxF2.json", "--chain", "abelian:n=2,3,4"], 0),
    (["homology", "F2.json", "--chain", "cyclic:n=2..8", "--primes", "3"], 0),
    (["qnormal", "verify", "golden_chain.json"], 0),
    (["qnormal", "verify", "c4_chain.json"], 0),
    (["qnormal", "verify", "broken_chain.json"], 4),
    (["qnormal", "graph", "plane_graph_job.json"], 0),
    (["qnormal", "blowup", "plane_blowup_job.json"], 0),
    (["qnormal", "trim", "trim_job.json"], 0),
    (["raag", "analyze", "c4.json"], 0),
    (["raag", "analyze", "p3.json"], 0),
    (["raag", "analyze", "two_isolated.json"], 0),
    (["farber", "Z.json", "--chain", "abelian:n=1..10", "--gammas", "a", "--eps", "0"], 0),
    (["farber", "F2.json", "--chain", "cyclic:n=2..6", "--gammas", "a,b,ab", "--eps", "1/2"], 0),
    (["farber", "Z.json", "--chain", "abelian:n=1..3", "--gammas", "e"], 2),
    (["rebuild", "check", "identity.json", "--T", "1"], 0),
    (["rebuild", "check", "subdiv_circle_8.json", "--T", "8"], 0),
    (["rebuild", "check", "subdiv_circle_8.json", "--T", "8", "--kappa", "2"], 0),
    (["rebuild", "check", "corrupt_rho.json", "--T", "8"], 4),
)

# Farber tables along deep abelian chains of Z^2 and Z^3: (rank, levels, gamma sets).
FARBER_CHAINS = (
    (2, 24, (((1, 0), (0, 1), (1, 1)), ((2, 0), (0, 3), (6, 6)),
             ((4, 2), (3, 3), (12, 0)), ((1, -1), (5, 5), (0, 12)))),
    (3, 10, (((1, 0, 0), (0, 1, 1), (2, 2, 2)), ((3, 0, 6), (0, 4, 0), (1, 1, -1)),
             ((6, 6, 6), (2, 0, 4), (0, 5, 5)), ((4, 4, 0), (0, 0, 7), (1, 2, 3)))),
)
REBUILD_SIZES = (16, 24, 32)
CYCLE_SIZES = (5, 6)


def _gamma_token(exps: tuple) -> str:
    letters = []
    for g, e in enumerate(exps, start=1):
        letters += [g if e > 0 else -g] * abs(e)
    return ".".join(map(str, letters))


def coset_audit_pool(work: Path) -> list:
    """Every coset_audit item variant; a seed picks and orders a subset."""
    from chainlab.rebuilding import rebuilding_to_dict, subdivided_circle_rebuilding

    work.mkdir(parents=True, exist_ok=True)
    pool = []
    for slot, (n, candidates) in enumerate(COXETER_SLOTS):
        for J in candidates:
            key = f"coxeter:S{n}:J={','.join(map(str, J))}"
            job = {"group": coxeter_symmetric(n), "subgroup": [[j] for j in J],
                   "generating_set": [[i] for i in range(1, n)], "budget": COXETER_BUDGET}
            path = _write_job(work, key.replace(":", "_").replace("=", "").replace(",", "-") + ".json", job)
            pool.append((f"coxeter{slot}", Item(
                key=key, argv=["qnormal", "graph", path], check=_check_coxeter,
                sizes={"cosets": math.factorial(n) // parabolic_order(J)})))
    for k in CYCLE_SIZES:
        for v in range(1, k + 1):
            group = {"generators": [f"v{i}" for i in range(1, k + 1)],
                     "relators": [[i, i % k + 1, -i, -(i % k + 1)] for i in range(1, k + 1)]}
            job = {"group": group, "subgroup": [[v]], "generating_set": [[i] for i in range(1, k + 1)],
                   "generators": [[i] for i in range(1, k + 1)], "budget": BALL_BUDGET,
                   "radius": BALL_RADIUS}
            path = _write_job(work, f"ball_C{k}_v{v}.json", job)
            for verb in ("graph", "trim"):
                pool.append((f"ball-{verb}-C{k}", Item(
                    key=f"ball-{verb}:C{k}:v={v}", argv=["qnormal", verb, path],
                    check=_check_ball, sizes={"generators": k, "budget": BALL_BUDGET})))
    for rank, depth, gamma_sets in FARBER_CHAINS:
        names = ["a", "b", "c"][:rank]
        group = _write_job(work, f"farber_Z{rank}.json", {"generators": names, "relators": [
            [i, j, -i, -j] for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]})
        for gi, gammas in enumerate(gamma_sets):
            pool.append((f"farber-Z{rank}", Item(
                key=f"farber:Z{rank}:n=1..{depth}:{gi}",
                argv=["farber", group, "--chain", f"abelian:n=1..{depth}",
                      "--gammas", ",".join(_gamma_token(g) for g in gammas), "--eps", "0"],
                check=_check_farber,
                sizes={"gammas": gammas, "levels": list(range(1, depth + 1)),
                       "cosets": sum(n ** rank for n in range(1, depth + 1))})))
    for n in REBUILD_SIZES:
        path = _write_job(work, f"subdiv_circle_{n}.json", rebuilding_to_dict(subdivided_circle_rebuilding(n)))
        pool.append((f"rebuild{n}", Item(key=f"rebuild:circle{n}:T={n}",
                                         argv=["rebuild", "check", path, "--T", str(n)],
                                         check=_check_rebuild, sizes={"arcs": n})))
        pool.append((f"rebuild{n}", Item(key=f"rebuild:circle{n}:T={n}:kappa=2",
                                         argv=["rebuild", "check", path, "--T", str(n), "--kappa", "2"],
                                         check=_check_rebuild, sizes={"arcs": n})))
    for argv, rc in DATA_JOBS:
        pool.append(("data", Item(
            key="data:" + " ".join(argv),
            argv=[str(DATA / a) if a.endswith(".json") else a for a in argv],
            expect_rc=rc, check=_check_exit_only)))
    return pool


FOLNER_CONE_SIZES = (5, 6)
FOLNER_STAGES = 12


def _folner_item(k: int, cone: int) -> Item:
    def call():
        from chainlab.contexts import free_context, raag_context
        from chainlab.folner import folner_sequence_report, folner_set, inner_folner_defect
        from chainlab.words import power, raag_graph

        edges = [(min(cone, v), max(cone, v)) for v in range(1, k + 1) if v != cone]
        edges += [(v, v + 1) for v in range(1, k) if cone not in (v, v + 1)]
        ctx = raag_context(raag_graph(k, edges))
        sets = [folner_set([power((cone,), e) for e in range(n)], ctx)
                for n in range(1, FOLNER_STAGES + 1)]
        report = folner_sequence_report(sets, [(v,) for v in range(1, k + 1)], ctx)
        ctx2 = free_context(2)
        return report, inner_folner_defect(folner_set([(1,)], ctx2), (2,), ctx2)
    return Item(key=f"folner:cone{k}:c={cone}", call=call, check=_check_folner,
                sizes={"vertices": k, "stages": FOLNER_STAGES})


def build_coset_audit(seed: int, work: Path) -> Workload:
    rng = random.Random(f"coset_audit:{seed}")
    pool = coset_audit_pool(work)
    by_slot: dict = {}
    for slot, item in pool:
        by_slot.setdefault(slot, []).append(item)
    items = []
    for slot, members in by_slot.items():
        if slot == "data":
            items += members
        elif slot.startswith("rebuild"):
            items += members  # fixed sizes, both audits
        else:
            items.append(rng.choice(members))
    k = rng.choice(FOLNER_CONE_SIZES)
    items.append(_folner_item(k, rng.randint(1, k)))
    rng.shuffle(items)
    return Workload(items, {
        "items": len(items),
        "coxeter_cosets": sorted(it.sizes["cosets"] for it in items if it.key.startswith("coxeter")),
        "farber_cosets": sorted(it.sizes["cosets"] for it in items if it.key.startswith("farber")),
        "ball_radius": BALL_RADIUS, "ball_budget": BALL_BUDGET,
        "rebuild_arcs": list(REBUILD_SIZES), "data_jobs": len(DATA_JOBS)})


def build(name: str, seed: int, work: Path, pass_no: int = 0) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    if name == "homology_wide":
        return build_homology_wide(seed, work)
    if name == "homology_torsion":
        return build_homology_torsion(seed, work)
    if name == "raag_sweep":
        return build_raag_sweep(seed, work, pass_no)
    if name == "coset_audit":
        return build_coset_audit(seed, work)
    raise ValueError(f"unknown workload {name!r}")


def check_item(item: Item, produced, rc: Optional[int], digests: dict) -> list:
    """Exit code, then the item's oracle, then the parent-commit digest if one exists."""
    if item.is_cli:
        if rc != item.expect_rc:
            return [f"exit code {rc}, expected {item.expect_rc}"]
        problems = item.check(item, produced)
        want = digests.get(item.key)
        if want is not None and report_digest(produced) != want:
            problems.append("report bytes differ from the digest captured at the parent commit")
        return problems
    return item.check(item, produced)

