"""First homology of finite covers of a presentation complex, and gradients.

A presentation with g generators and r relators has a 2-complex with one
vertex, g edges and r two-cells.  A coset table of index m lifts it to a cover
with cell counts (m, g*m, r*m).  Boundary matrices are assembled through the
coset action:

* an edge (s, c) runs from vertex c to vertex c.s, so d1 has column
  e_{c.s} - e_c;
* a 2-cell (rho, c) contributes the Fox-derivative column of the relator rho
  walked from coset c: crossing letter s at coset u adds +(s, u), crossing
  s^{-1} at coset u adds -(s, u.s^{-1}).

Every relator walk must close up at its starting coset; applied to a d2
column, d1 telescopes to e_end - e_start, so this check is exactly d1 d2 = 0.

Homology comes from one Smith normal form.  Contracting a spanning tree of the
Schreier graph (the breadth-first tree of the coset table, whose existence
proves the cover connected) leaves one vertex, so H_1 is the cokernel of d2
restricted to the rows of the non-tree edges: the Betti number is the number
of those edges minus the rank, and the torsion is the invariant factors > 1.
Mod-p Betti numbers follow by universal coefficients (H_0 is free):
betti_fp[p] = betti_q + #{torsion factors divisible by p}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .coset import CosetTable, SubgroupChain
from .errors import BudgetExceededError, InputError
from .intmat import IntMatrix, smith_normal_form
from .words import Presentation


def check_primes(primes: Sequence[int]) -> tuple[int, ...]:
    """The primes as a tuple; InputError for a non-integer, non-prime or repeated entry."""
    out: list[int] = []
    for q in primes:
        if not isinstance(q, int) or isinstance(q, bool):
            raise InputError(f"prime {q!r} is not an integer")
        if not 2 <= q < 2**31 or any(q % d == 0 for d in range(2, math.isqrt(q) + 1)):
            raise InputError(f"{q} is not a prime below 2**31")
        if q in out:
            raise InputError(f"prime {q} is listed twice")
        out.append(q)
    return tuple(out)


# The most cells the dense d2 that ``_fox_d2`` allocates may hold.  The Smith
# normal form reads d2 into sparse rows and makes no dense copy of it, but d2
# itself grows with the square of the index: Z^3 at index 4096 has 1.5e8
# cells, an 8-byte list slot each, and far larger levels would exhaust memory
# while d2 is assembled.
D2_CELL_CAP = 200_000_000


def _fox_d2(p: Presentation, t: CosetTable) -> IntMatrix:
    if t.presentation != p:
        raise InputError("coset table was built over a different presentation")
    m = t.index
    cells = p.rank * m * len(p.relators) * m
    if cells > D2_CELL_CAP:
        raise BudgetExceededError(
            f"the index-{m} cover's dense boundary matrix d2 would hold {cells} cells, "
            f"above the cap of {D2_CELL_CAP} cells for a dense matrix"
        )
    columns = t.columns
    d2 = IntMatrix(p.rank * m, len(p.relators) * m)
    for ri, rel in enumerate(p.relators):
        for c in range(1, m + 1):
            col = ri * m + (c - 1)
            u = c
            for letter in rel:
                if letter > 0:
                    d2.data[(letter - 1) * m + (u - 1)][col] += 1
                    u = columns[letter][u]
                else:
                    u = columns[letter][u]
                    d2.data[(-letter - 1) * m + (u - 1)][col] -= 1
            if u != c:
                raise InputError(f"relator {rel} does not close up at coset {c}")
    return d2


def fox_boundary_matrices(p: Presentation, t: CosetTable) -> tuple[IntMatrix, IntMatrix]:
    """(d1, d2) for the cover of the presentation complex described by t."""
    d2 = _fox_d2(p, t)
    m = t.index
    d1 = IntMatrix(m, p.rank * m)
    for s in range(1, p.rank + 1):
        column = t.columns[s]
        for c in range(1, m + 1):
            col = (s - 1) * m + (c - 1)
            d1.data[column[c] - 1][col] += 1
            d1.data[c - 1][col] -= 1
    return d1, d2


@dataclass(frozen=True)
class HomologySummary:
    """Exact first-homology data of one finite cover."""

    index: int
    cell_counts: tuple[int, int, int]
    betti_q: int
    betti_fp: tuple[tuple[int, int], ...]  # (prime, dimension) pairs
    invariant_factors_nontrivial: tuple[int, ...]
    log_torsion: float

    def betti_mod(self, prime: int) -> int:
        for q, b in self.betti_fp:
            if q == prime:
                return b
        raise KeyError(f"prime {prime} was not computed")


def homology_summary(
    p: Presentation, t: CosetTable, primes: Sequence[int] = ()
) -> HomologySummary:
    """H_1 of the cover described by t, from one Smith normal form (see above)."""
    primes = check_primes(primes)
    m = t.index
    d2 = _fox_d2(p, t)
    # the step (c, x, d) crosses the edge (x, c) from c to c.x for x > 0,
    # and the edge (-x, d) from d to d.(-x) = c for x < 0
    tree = {(abs(x) - 1) * m + (c if x > 0 else d) - 1 for c, x, d in t.spanning_tree}
    rows = [row for e, row in enumerate(d2.data) if e not in tree]
    snf = smith_normal_form(IntMatrix(len(rows), d2.cols, rows))
    betti_q = len(rows) - snf.rank
    torsion = tuple(f for f in snf.invariant_factors if f > 1)
    return HomologySummary(
        index=m,
        cell_counts=(m, p.rank * m, len(p.relators) * m),
        betti_q=betti_q,
        betti_fp=tuple((q, betti_q + sum(1 for f in torsion if f % q == 0)) for q in primes),
        invariant_factors_nontrivial=torsion,
        log_torsion=float(sum(math.log(f) for f in torsion)),
    )


def chain_homology(chain: SubgroupChain, primes: Sequence[int] = ()) -> tuple[HomologySummary, ...]:
    return tuple(homology_summary(chain.presentation, t, primes) for t in chain.levels)


# ----------------------------------------------------------------- series


@dataclass(frozen=True)
class GradientPoint:
    label: str
    index: int
    value: Union[int, float]
    ratio: Union[Fraction, float]  # value / index, exact when value is an int


@dataclass(frozen=True)
class GradientSeries:
    kind: str  # "betti_q", "betti_fp[p]", "log_torsion"
    points: tuple[GradientPoint, ...]


def gradient_series(
    chain: SubgroupChain,
    kind: str = "betti_q",
    prime: Optional[int] = None,
    summaries: Optional[Sequence[HomologySummary]] = None,
) -> GradientSeries:
    """Per-level (index, value, value/index) for one homological invariant.

    kind is "betti_q", "betti_fp" (with a prime), or "log_torsion".  Ratios of
    integer invariants are exact fractions.
    """
    primes = check_primes(() if prime is None else (prime,))
    if kind == "betti_fp" and not primes:
        raise InputError("betti_fp needs a prime")
    if summaries is None:
        summaries = chain_homology(chain, primes)
    points = []
    for label, s in zip(chain.labels, summaries):
        if kind == "betti_q":
            value: Union[int, float] = s.betti_q
        elif kind == "betti_fp":
            value = s.betti_mod(prime)
        elif kind == "log_torsion":
            value = s.log_torsion
        else:
            raise InputError(f"unknown invariant kind {kind!r}")
        ratio: Union[Fraction, float]
        if isinstance(value, int):
            ratio = Fraction(value, s.index)
        else:
            ratio = value / s.index
        points.append(GradientPoint(label, s.index, value, ratio))
    name = f"betti_fp[{prime}]" if kind == "betti_fp" else kind
    return GradientSeries(name, tuple(points))


@dataclass(frozen=True)
class TrendReport:
    """Finite-evidence description of how the ratios behave along the chain.

    The least-squares fit regresses ratio against 1/index, so the intercept is
    the naive extrapolated limit; none of this is a statement about the actual
    limit, hence the evidence label.
    """

    kind: str
    last_ratio: float
    monotonicity: str
    slope_vs_inverse_index: float
    extrapolated_limit: float
    evidence: str = "finite-evidence"


def estimate_trend(series: GradientSeries) -> TrendReport:
    pts = series.points
    if len(pts) < 2:
        raise InputError("trend estimation needs at least two levels")
    ratios = [float(p.ratio) for p in pts]
    diffs = [b - a for a, b in zip(ratios, ratios[1:])]
    if all(d == 0 for d in diffs):
        mono = "constant"
    elif all(d < 0 for d in diffs):
        mono = "strictly-decreasing"
    elif all(d <= 0 for d in diffs):
        mono = "nonincreasing"
    elif all(d > 0 for d in diffs):
        mono = "strictly-increasing"
    elif all(d >= 0 for d in diffs):
        mono = "nondecreasing"
    else:
        mono = "mixed"
    # exact least-squares line through (1/index, ratio); floats only at the end
    n = len(pts)
    xs = [Fraction(1, p.index) for p in pts]
    ys = [Fraction(p.ratio) for p in pts]
    sx, sy = sum(xs), sum(ys)
    denom = n * sum(x * x for x in xs) - sx * sx
    if denom == 0:
        raise InputError("trend estimation needs at least two distinct indices")
    slope = (n * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / denom
    intercept = (sy - slope * sx) / n
    return TrendReport(
        kind=series.kind,
        last_ratio=ratios[-1],
        monotonicity=mono,
        slope_vs_inverse_index=float(slope),
        extrapolated_limit=float(intercept),
    )


# ------------------------------------------------------------ serialization


def series_to_csv(series: GradientSeries) -> str:
    lines = ["level,index,value,ratio"]
    for p in series.points:
        ratio = str(p.ratio) if isinstance(p.ratio, Fraction) else repr(p.ratio)
        value = str(p.value) if isinstance(p.value, int) else repr(p.value)
        lines.append(f"{p.label},{p.index},{value},{ratio}")
    return "\n".join(lines) + "\n"


def series_to_json_dict(series: GradientSeries) -> dict:
    return {
        "kind": series.kind,
        "points": [
            {
                "level": p.label,
                "index": p.index,
                "value": p.value,
                "ratio": str(p.ratio) if isinstance(p.ratio, Fraction) else p.ratio,
            }
            for p in series.points
        ],
    }
