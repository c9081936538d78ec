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

The composite d1 @ d2 is checked to vanish.  Betti numbers over Q and F_p come
from exact ranks; torsion comes from the Smith normal form of d2, whose
nontrivial invariant factors are exactly the torsion of ker d1 / im d2
(torsion classes of C_1 / im d2 automatically lie in ker d1 because C_0 is
free).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .coset import CosetTable, SubgroupChain
from .errors import InputError
from .intmat import IntMatrix, rank_mod_p, rank_over_q, smith_normal_form
from .words import Presentation


def fox_boundary_matrices(p: Presentation, t: CosetTable) -> tuple[IntMatrix, IntMatrix]:
    """(d1, d2) for the cover of the presentation complex described by t."""
    if t.presentation != p:
        raise InputError("coset table was built over a different presentation")
    m = t.index
    g = p.rank
    r = len(p.relators)
    d1 = IntMatrix(m, g * m)
    for s in range(1, g + 1):
        for c in range(1, m + 1):
            col = (s - 1) * m + (c - 1)
            d1.data[t.apply(c, s) - 1][col] += 1
            d1.data[c - 1][col] -= 1
    d2 = IntMatrix(g * m, r * m)
    for ri, rel in enumerate(p.relators):
        for c in range(1, m + 1):
            col = ri * m + (c - 1)
            u = c
            for letter in rel:
                s = abs(letter)
                if letter > 0:
                    d2.data[(s - 1) * m + (u - 1)][col] += 1
                    u = t.apply(u, letter)
                else:
                    u = t.apply(u, letter)
                    d2.data[(s - 1) * m + (u - 1)][col] -= 1
            if u != c:  # pragma: no cover - verified tables close relator loops
                raise InputError(f"relator {rel} does not close up at coset {c}")
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
    d1, d2 = fox_boundary_matrices(p, t)
    if not (d1 @ d2).is_zero():
        raise InputError("boundary composition d1 @ d2 is nonzero")
    edges = d1.cols
    rank_d1 = rank_over_q(d1)
    snf_d2 = smith_normal_form(d2)
    betti_q = (edges - rank_d1) - snf_d2.rank
    betti_fp = []
    for q in primes:
        bq = (edges - rank_mod_p(d1, q)) - rank_mod_p(d2, q)
        betti_fp.append((q, bq))
    torsion = tuple(f for f in snf_d2.invariant_factors if f > 1)
    log_torsion = float(sum(math.log(f) for f in torsion))
    return HomologySummary(
        index=t.index,
        cell_counts=(t.index, p.rank * t.index, len(p.relators) * t.index),
        betti_q=betti_q,
        betti_fp=tuple(betti_fp),
        invariant_factors_nontrivial=torsion,
        log_torsion=log_torsion,
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
    if kind == "betti_fp" and prime is None:
        raise InputError("betti_fp needs a prime")
    if summaries is None:
        summaries = chain_homology(chain, primes=(prime,) if prime else ())
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
