"""Exact validation and (T, kappa)-quality audit of chain-level rebuilding data.

A rebuilding replaces a chain complex Y (the expensive model) by a smaller
complex Y' together with chain maps g: C(Y) -> C(Y') and h: C(Y') -> C(Y)
and a chain homotopy rho from h.g to the identity of C(Y).  All identities
are checked by exact integer arithmetic; nothing is accepted approximately.

The audit side is quantitative: at scale T >= 1 and quality kappa >= 1, each
degree j must satisfy the cells bound |Y'_j| <= kappa * T^-1 * |Y_j| and the
norm bounds log||g_j||, log||h_j||, log||rho_{j-1}||, log||d'_j|| <=
kappa*(1 + log T), with natural logarithms and l2 operator norms throughout.
minimal_kappa inverts the finitely many inequalities to report the exact
threshold.

Rebuilding data is written as JSON here (``rebuilding_to_dict``) and read,
with every field checked as outside input, by ``cli.rebuilding_from_dict``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .errors import InputError, VerificationFailure
from .intmat import IntMatrix

POWER_ITERATION_CAP = 200
RAYLEIGH_TOLERANCE = 1e-12


# ------------------------------------------------------------- chain complexes


@dataclass(frozen=True)
class CWChainData:
    """Integer chain complex of a finite CW-style complex up to degree alpha.

    cell_counts[j] is the number of j-cells for j = 0..alpha; boundaries[j-1]
    is the matrix of d_j: C_j -> C_{j-1} (rows indexed by (j-1)-cells).
    """

    alpha: int
    cell_counts: tuple[int, ...]
    boundaries: tuple[IntMatrix, ...]

    def __post_init__(self):
        if self.alpha < 0:
            raise InputError("the degree bound must be nonnegative")
        if len(self.cell_counts) != self.alpha + 1:
            raise InputError("need one cell count per degree 0..alpha")
        if any(c < 0 for c in self.cell_counts):
            raise InputError("cell counts must be nonnegative")
        if len(self.boundaries) != self.alpha:
            raise InputError("need one boundary matrix per degree 1..alpha")
        for j in range(1, self.alpha + 1):
            d = self.boundaries[j - 1]
            if (d.rows, d.cols) != (self.cell_counts[j - 1], self.cell_counts[j]):
                raise InputError(
                    f"boundary in degree {j} has shape {d.rows}x{d.cols}, expected "
                    f"{self.cell_counts[j - 1]}x{self.cell_counts[j]}"
                )
        for j in range(1, self.alpha):
            prod = self.boundaries[j - 1] @ self.boundaries[j]
            if not prod.is_zero():
                raise InputError(f"boundary composition in degrees {j + 1},{j} is nonzero")

    def boundary(self, j: int) -> IntMatrix:
        """d_j for 1 <= j <= alpha; the zero map below degree 1."""
        if j < 1 or j > self.alpha:
            raise InputError(f"degree {j} has no boundary matrix (alpha = {self.alpha})")
        return self.boundaries[j - 1]


@dataclass(frozen=True)
class RebuildingData:
    """Chain maps and homotopy for a candidate rebuilding of Y by Yprime."""

    Y: CWChainData
    Yprime: CWChainData
    g_maps: tuple[IntMatrix, ...]  # g_j: C_j(Y) -> C_j(Y'), j = 0..alpha
    h_maps: tuple[IntMatrix, ...]  # h_j: C_j(Y') -> C_j(Y), j = 0..alpha
    rho_maps: tuple[IntMatrix, ...]  # rho_j: C_j(Y) -> C_{j+1}(Y), j = 0..alpha-1

    def __post_init__(self):
        if self.Y.alpha != self.Yprime.alpha:
            raise InputError("both complexes must carry the same degree bound")
        a = self.Y.alpha
        if len(self.g_maps) != a + 1 or len(self.h_maps) != a + 1:
            raise InputError("need one g and one h matrix per degree 0..alpha")
        if len(self.rho_maps) != a:
            raise InputError("need one homotopy matrix per degree 0..alpha-1")
        for j in range(a + 1):
            g, h = self.g_maps[j], self.h_maps[j]
            if (g.rows, g.cols) != (self.Yprime.cell_counts[j], self.Y.cell_counts[j]):
                raise InputError(f"g in degree {j} has the wrong shape")
            if (h.rows, h.cols) != (self.Y.cell_counts[j], self.Yprime.cell_counts[j]):
                raise InputError(f"h in degree {j} has the wrong shape")
        for j in range(a):
            r = self.rho_maps[j]
            if (r.rows, r.cols) != (self.Y.cell_counts[j + 1], self.Y.cell_counts[j]):
                raise InputError(f"rho in degree {j} has the wrong shape")

    @property
    def alpha(self) -> int:
        return self.Y.alpha


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[IdentityCheck, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.checks if not c.passed)


def validate_rebuilding(d: RebuildingData) -> ValidationReport:
    """Exact integer check of every chain-map and homotopy identity.

    Degrees 1..alpha: d'_j g_j = g_{j-1} d_j and d_j h_j = h_{j-1} d'_j.
    Degrees 0..alpha-1: id - h_j g_j = d_{j+1} rho_j + rho_{j-1} d_j, reading
    rho_{-1} as zero.  Shape errors raise; identity failures are reported.
    """
    a = d.alpha
    checks = []
    for j in range(1, a + 1):
        lhs = d.Yprime.boundary(j) @ d.g_maps[j]
        rhs = d.g_maps[j - 1] @ d.Y.boundary(j)
        checks.append(IdentityCheck(f"chain-map g degree {j}", lhs == rhs))
        lhs = d.Y.boundary(j) @ d.h_maps[j]
        rhs = d.h_maps[j - 1] @ d.Yprime.boundary(j)
        checks.append(IdentityCheck(f"chain-map h degree {j}", lhs == rhs))
    for j in range(a):
        lhs = IntMatrix.identity(d.Y.cell_counts[j]) - (d.h_maps[j] @ d.g_maps[j])
        rhs = d.Y.boundary(j + 1) @ d.rho_maps[j]
        if j >= 1:
            rhs = rhs + (d.rho_maps[j - 1] @ d.Y.boundary(j))
        checks.append(IdentityCheck(f"homotopy degree {j}", lhs == rhs))
    return ValidationReport(tuple(checks))


# ------------------------------------------------------------- operator norms


def _norm_2x2_exact(m: IntMatrix) -> float:
    """Largest singular value of a matrix with both dimensions <= 2.

    The Gram matrix is at most 2x2 with integer entries, so its largest
    eigenvalue is (p + sqrt(p^2 - 4q)) / 2 with p, q exact integers.
    """
    g = m.transpose() @ m
    if g.cols == 1:
        return math.sqrt(g.data[0][0])
    p = g.data[0][0] + g.data[1][1]
    q = g.data[0][0] * g.data[1][1] - g.data[0][1] * g.data[1][0]
    disc = p * p - 4 * q
    lam = (p + math.sqrt(disc)) / 2.0
    return math.sqrt(max(lam, 0.0))


def operator_norm(m: IntMatrix) -> float:
    """The l2 operator norm (largest singular value), deterministic.

    Power iteration on the Gram matrix m^T m, capped at 200 rounds with
    Rayleigh-quotient tolerance 1e-12; matrices with both dimensions at most 2
    use the exact closed form instead.  Two fixed start vectors are used (the
    all-ones vector, and (1, 2, ..., n) in case the first is orthogonal to the
    leading eigenspace) and the larger estimate wins; the computation is
    deterministic.
    """
    if m.rows == 0 or m.cols == 0:
        return 0.0
    if m.rows <= 2 and m.cols <= 2:
        return _norm_2x2_exact(m)
    if m.is_zero():
        return 0.0
    # (columns, entries) of the nonzeros of each Gram row, in column order:
    # dropping the zero terms of a float sum leaves every partial sum unchanged
    gram = []
    for row in (m.transpose() @ m).data:
        nonzero = [(k, g) for k, g in enumerate(row) if g]
        gram.append((tuple(k for k, _ in nonzero), tuple(g for _, g in nonzero)))
    n = len(gram)

    def times_gram(v: list[float]) -> list[float]:
        return [sum(map(mul, entries, map(v.__getitem__, cols)), 0.0) for cols, entries in gram]

    def iterate(v: list[float]) -> float:
        rayleigh = 0.0
        w = times_gram(v)
        for _ in range(POWER_ITERATION_CAP):
            norm_w = math.sqrt(sum(map(mul, w, w)))
            if norm_w == 0.0:
                return rayleigh
            v = [x / norm_w for x in w]
            w = times_gram(v)  # the Rayleigh quotient's product is the next step's
            new_rayleigh = sum(map(mul, v, w))
            if abs(new_rayleigh - rayleigh) <= RAYLEIGH_TOLERANCE * max(1.0, new_rayleigh):
                return new_rayleigh
            rayleigh = new_rayleigh
        return rayleigh

    top = max(iterate([1.0] * n), iterate([float(i + 1) for i in range(n)]))
    return math.sqrt(max(top, 0.0))


# ------------------------------------------------------------- quality audits


@dataclass(frozen=True)
class NormCheck:
    label: str
    log_norm: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.log_norm <= self.bound


@dataclass(frozen=True)
class DegreeQuality:
    degree: int
    cells_small: int
    cells_big: int
    cells_allowance: float  # kappa * T^-1 * |Y_j|
    cells_bound_ok: bool
    norm_checks: tuple[NormCheck, ...]

    @property
    def passed(self) -> bool:
        return self.cells_bound_ok and all(c.passed for c in self.norm_checks)


@dataclass(frozen=True)
class QualityReport:
    T: float
    kappa: float
    log_convention: str
    per_degree: tuple[DegreeQuality, ...]

    @property
    def overall(self) -> bool:
        return all(d.passed for d in self.per_degree)


def _log_norm(m: IntMatrix) -> float:
    """log ||m||, with the zero map contributing -inf (every bound holds)."""
    n = operator_norm(m)
    return math.log(n) if n > 0 else float("-inf")


def _norm_items(d: RebuildingData, j: int) -> list[tuple[str, IntMatrix]]:
    items = [(f"g_{j}", d.g_maps[j]), (f"h_{j}", d.h_maps[j])]
    if j >= 1:
        items.append((f"rho_{j - 1}", d.rho_maps[j - 1]))
        items.append((f"boundary'_{j}", d.Yprime.boundary(j)))
    return items


def quality_check(d: RebuildingData, T: float, kappa: float) -> QualityReport:
    """Audit the (T, kappa) bounds degree by degree; refuses invalid data.

    Degree j passes when |Y'_j| <= kappa * T^-1 * |Y_j| and each of
    log||g_j||, log||h_j||, log||rho_{j-1}||, log||d'_j|| (those that exist in
    degree j) is at most kappa * (1 + log T).
    """
    if T < 1 or kappa < 1:
        raise InputError("both T and kappa must be at least 1")
    report = validate_rebuilding(d)
    if not report.all_pass:
        raise VerificationFailure(
            "rebuilding data failed exact validation; quality is undefined for it: "
            + ", ".join(report.failures())
        )
    allowance_factor = kappa / T
    norm_budget = kappa * (1.0 + math.log(T))
    degrees = []
    for j in range(d.alpha + 1):
        small, big = d.Yprime.cell_counts[j], d.Y.cell_counts[j]
        allowance = allowance_factor * big
        norm_checks = tuple(
            NormCheck(label, _log_norm(mat), norm_budget) for label, mat in _norm_items(d, j)
        )
        degrees.append(
            DegreeQuality(
                degree=j,
                cells_small=small,
                cells_big=big,
                cells_allowance=allowance,
                cells_bound_ok=small <= allowance,
                norm_checks=norm_checks,
            )
        )
    return QualityReport(T=T, kappa=kappa, log_convention="natural", per_degree=tuple(degrees))


def minimal_kappa(d: RebuildingData, T: float) -> float:
    """The least kappa >= 1 passing every bound at scale T (closed form).

    The cells bound in degree j forces kappa >= T * |Y'_j| / |Y_j| and each
    norm bound forces kappa >= log||.|| / (1 + log T); the answer is the
    maximum of these finitely many lower bounds and 1.  Infinite when some
    degree has small cells but no big cells at all.
    """
    if T < 1:
        raise InputError("T must be at least 1")
    report = validate_rebuilding(d)
    if not report.all_pass:
        raise VerificationFailure(
            "rebuilding data failed exact validation: " + ", ".join(report.failures())
        )
    best = 1.0
    norm_divisor = 1.0 + math.log(T)
    for j in range(d.alpha + 1):
        small, big = d.Yprime.cell_counts[j], d.Y.cell_counts[j]
        if small > 0 and big == 0:
            return float("inf")
        if big > 0:
            best = max(best, T * small / big)
        for _, mat in _norm_items(d, j):
            log_norm = _log_norm(mat)
            if log_norm > 0:
                best = max(best, log_norm / norm_divisor)
    return best


# ------------------------------------------------------------------ fixtures


def identity_rebuilding(complex_: CWChainData) -> RebuildingData:
    """Y = Y', g = h = identity, rho = 0: the tautological rebuilding."""
    a = complex_.alpha
    eye = tuple(IntMatrix.identity(c) for c in complex_.cell_counts)
    rho = tuple(
        IntMatrix(complex_.cell_counts[j + 1], complex_.cell_counts[j]) for j in range(a)
    )
    return RebuildingData(Y=complex_, Yprime=complex_, g_maps=eye, h_maps=eye, rho_maps=rho)


def circle_complex() -> CWChainData:
    """One 0-cell, one 1-cell, zero boundary: the standard circle."""
    return CWChainData(alpha=1, cell_counts=(1, 1), boundaries=(IntMatrix(1, 1),))


def subdivided_circle_complex(n: int) -> CWChainData:
    """The circle subdivided into n arcs: d1(e_i) = v_{i+1} - v_i cyclically."""
    if n < 1:
        raise InputError("need at least one arc")
    d1 = IntMatrix(n, n)
    for i in range(n):
        d1.data[(i + 1) % n][i] += 1
        d1.data[i % n][i] -= 1
    return CWChainData(alpha=1, cell_counts=(n, n), boundaries=(d1,))


def subdivided_circle_rebuilding(n: int) -> RebuildingData:
    """Collapse the n-fold subdivided circle onto the standard circle.

    g sends every vertex to the basepoint and every arc to the single 1-cell;
    h includes the basepoint and sends the 1-cell to the sum of all arcs;
    rho_0 sends vertex k to the path of arcs leading back to the basepoint.
    """
    big = subdivided_circle_complex(n)
    small = circle_complex()
    g0 = IntMatrix(1, n, [[1] * n])
    g1 = IntMatrix(1, n, [[1] * n])
    h0 = IntMatrix(n, 1, [[1]] + [[0]] * (n - 1))
    h1 = IntMatrix(n, 1, [[1]] * n)
    rho0 = IntMatrix(n, n, [[1 if row < col else 0 for col in range(n)] for row in range(n)])
    return RebuildingData(
        Y=big, Yprime=small, g_maps=(g0, g1), h_maps=(h0, h1), rho_maps=(rho0,)
    )


# ------------------------------------------------------------- JSON writers


def _matrix_to_json(m: IntMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "entries": [list(r) for r in m.data]}


def complex_to_dict(c: CWChainData) -> dict:
    return {
        "alpha": c.alpha,
        "cell_counts": list(c.cell_counts),
        "boundaries": [_matrix_to_json(b) for b in c.boundaries],
    }


def rebuilding_to_dict(r: RebuildingData) -> dict:
    return {
        "big": complex_to_dict(r.Y),
        "small": complex_to_dict(r.Yprime),
        "g": [_matrix_to_json(m) for m in r.g_maps],
        "h": [_matrix_to_json(m) for m in r.h_maps],
        "rho": [_matrix_to_json(m) for m in r.rho_maps],
    }


def quality_report_to_dict(q: QualityReport) -> dict:
    return {
        "T": q.T,
        "kappa": q.kappa,
        "log_convention": q.log_convention,
        "overall": q.overall,
        "per_degree": [
            {
                "degree": deg.degree,
                "cells_small": deg.cells_small,
                "cells_big": deg.cells_big,
                "cells_allowance": deg.cells_allowance,
                "cells_bound_ok": deg.cells_bound_ok,
                "norms": [
                    {"label": c.label, "log_norm": c.log_norm, "bound": c.bound, "ok": c.passed}
                    for c in deg.norm_checks
                ],
            }
            for deg in q.per_degree
        ],
    }
