"""Exact integer matrices: Smith normal form, ``Lattice`` and rank oracles.

Everything here is arbitrary-precision (plain Python ints); floating point
is never used.  ``smith_normal_form`` gives invariant factors and, on
request, checked unimodular transforms.  ``Lattice`` answers the
integer-lattice questions (reduce / contains / in_saturation / solve) from
echelon rows with a coordinate transform, with no Smith normal form.
``rank_over_q`` (fraction-free Bareiss) and ``rank_mod_p`` are kept as test
oracles for the homology path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import prod
from typing import Iterable, Optional, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == a*x + b*y."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


class IntMatrix:
    """A dense integer matrix with explicit shape (rows may be zero-width)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[list[list[int]]] = None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix shape must be non-negative")
        self.rows = rows
        self.cols = cols
        if data is None:
            data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("data does not match declared shape")
        self.data = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        rows = [list(map(int, r)) for r in rows]
        if cols is None:
            if not rows:
                raise ValueError("column count required for a matrix with no rows")
            cols = len(rows[0])
        return cls(len(rows), cols, rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows, [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols})"

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.data for v in row)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        out = IntMatrix(self.rows, other.cols)
        od = out.data
        nonzero: list = [None] * other.rows  # (column, entry) pairs of a row of other, on first use
        for i, row in enumerate(self.data):
            orow = od[i]
            for k, a in enumerate(row):
                if a:
                    brow = nonzero[k]
                    if brow is None:
                        brow = nonzero[k] = [(j, b) for j, b in enumerate(other.data[k]) if b]
                    for j, b in brow:
                        orow[j] += a * b
        return out

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols,
                         [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._same_shape(other)
        return IntMatrix(self.rows, self.cols,
                         [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)])

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, [[-a for a in r] for r in self.data])

    def column(self, j: int) -> list[int]:
        return [row[j] for row in self.data]

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form data.

    invariant_factors: positive integers d_1 | d_2 | ... (including any 1s);
    rank is their count.  When transforms were requested, U (rows x rows) and
    V (cols x cols) are unimodular with U @ m @ V diagonal(invariant_factors),
    and transforms_checked records that this identity was re-multiplied and
    verified exactly.  U_inv is the inverse of U (used to pull basis vectors
    of the transformed side back to original coordinates).
    """

    invariant_factors: tuple[int, ...]
    rank: int
    U: Optional[IntMatrix] = None
    V: Optional[IntMatrix] = None
    U_inv: Optional[IntMatrix] = None
    transforms_checked: bool = False


def _row_op_add(m: list[list[int]], i: int, j: int, q: int) -> None:
    """row_i += q * row_j"""
    ri, rj = m[i], m[j]
    for k, v in enumerate(rj):
        if v:
            ri[k] += q * v


def _col_op_add(m: list[list[int]], i: int, j: int, q: int) -> None:
    """col_i += q * col_j"""
    for row in m:
        v = row[j]
        if v:
            row[i] += q * v


def smith_normal_form(m: IntMatrix, transforms: bool = False) -> SNFResult:
    """Diagonalize m over the integers with the divisibility chain d_1 | d_2 | ...

    Pivoting always selects a smallest-magnitude nonzero entry of the working
    submatrix and reduces rows/columns through extended-gcd combinations, which
    keeps intermediate entries small.  All operations are unimodular and, when
    requested, accumulated into U, V together with U's inverse.
    """
    a = [row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    track = transforms
    U = IntMatrix.identity(rows).data if track else None
    Ui = IntMatrix.identity(rows).data if track else None  # inverse of U
    V = IntMatrix.identity(cols).data if track else None

    def row_add(i: int, j: int, q: int) -> None:
        _row_op_add(a, i, j, q)
        if track:
            _row_op_add(U, i, j, q)  # U <- E U
            _col_op_add(Ui, j, i, -q)  # Ui <- Ui E^{-1}

    def row_swap(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        if track:
            U[i], U[j] = U[j], U[i]
            for r in Ui:
                r[i], r[j] = r[j], r[i]

    def row_negate(i: int) -> None:
        a[i] = [-v for v in a[i]]
        if track:
            U[i] = [-v for v in U[i]]
            for r in Ui:
                r[i] = -r[i]

    def col_add(i: int, j: int, q: int) -> None:
        _col_op_add(a, i, j, q)
        if track:
            _col_op_add(V, i, j, q)

    def col_swap(i: int, j: int) -> None:
        for r in a:
            r[i], r[j] = r[j], r[i]
        if track:
            for r in V:
                r[i], r[j] = r[j], r[i]

    def gen_row_op(i: int, j: int, x: int, y: int, u: int, v: int) -> None:
        """(row_i, row_j) <- (x row_i + y row_j, u row_i + v row_j), xv - yu = 1."""
        for k in range(cols):
            p, q = a[i][k], a[j][k]
            a[i][k] = x * p + y * q
            a[j][k] = u * p + v * q
        if track:
            for k in range(rows):
                p, q = U[i][k], U[j][k]
                U[i][k] = x * p + y * q
                U[j][k] = u * p + v * q
            # inverse of [[x, y], [u, v]] is [[v, -y], [-u, x]] acting on columns
            for r in Ui:
                p, q = r[i], r[j]
                r[i] = v * p - u * q
                r[j] = -y * p + x * q

    def gen_col_op(i: int, j: int, x: int, y: int, u: int, v: int) -> None:
        for r in a:
            p, q = r[i], r[j]
            r[i] = x * p + y * q
            r[j] = u * p + v * q
        if track:
            for r in V:
                p, q = r[i], r[j]
                r[i] = x * p + y * q
                r[j] = u * p + v * q

    def smallest_entry(t: int) -> Optional[tuple[int, int]]:
        best = None
        best_val = None
        for i in range(t, rows):
            ri = a[i]
            for j in range(t, cols):
                v = ri[j]
                if v:
                    av = abs(v)
                    if best_val is None or av < best_val:
                        best, best_val = (i, j), av
                        if av == 1:
                            return best
        return best

    t = 0
    limit = min(rows, cols)
    while t < limit:
        pos = smallest_entry(t)
        if pos is None:
            break
        i, j = pos
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        while True:
            # clear column t with gcd steps
            for k in range(t + 1, rows):
                v = a[k][t]
                if v == 0:
                    continue
                p = a[t][t]
                if v % p == 0:
                    row_add(k, t, -(v // p))
                else:
                    g, x, y = xgcd(p, v)
                    gen_row_op(t, k, x, y, -(v // g), p // g)
            # clear row t
            dirty = False
            for k in range(t + 1, cols):
                v = a[t][k]
                if v == 0:
                    continue
                p = a[t][t]
                if v % p == 0:
                    col_add(k, t, -(v // p))
                else:
                    g, x, y = xgcd(p, v)
                    gen_col_op(t, k, x, y, -(v // g), p // g)
                    dirty = True
            if not dirty and all(a[k][t] == 0 for k in range(t + 1, rows)):
                break
        if a[t][t] < 0:
            row_negate(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            p, q = a[i][i], a[i + 1][i + 1]
            if q % p != 0:
                changed = True
                # fold d_{i+1} into row i, then re-reduce the 2x2 block
                row_add(i, i + 1, 1)
                g, x, y = xgcd(p, q)
                gen_col_op(i, i + 1, x, y, -(q // g), p // g)
                # block is now [[g, 0], [u, lcm-ish]]; clear below the pivot
                v = a[i + 1][i]
                if v % g == 0:
                    row_add(i + 1, i, -(v // g))
                else:  # pragma: no cover - xgcd pivot already divides
                    raise AssertionError("pivot must divide after gcd step")
                if a[i][i] < 0:
                    row_negate(i)
                if a[i + 1][i + 1] < 0:
                    row_negate(i + 1)

    factors = tuple(a[i][i] for i in range(t) if a[i][i] != 0)
    checked = False
    Um = Vm = Uim = None
    if track:
        Um = IntMatrix(rows, rows, U)
        Vm = IntMatrix(cols, cols, V)
        Uim = IntMatrix(rows, rows, Ui)
        d = Um @ m @ Vm
        ok = True
        for i in range(rows):
            for j in range(cols):
                want = factors[i] if i == j and i < len(factors) else 0
                if d.data[i][j] != want:
                    ok = False
        ident = Um @ Uim
        ok = ok and ident == IntMatrix.identity(rows)
        checked = ok
        if not ok:  # pragma: no cover - defensive
            raise AssertionError("Smith normal form transform verification failed")
    return SNFResult(invariant_factors=factors, rank=len(factors),
                     U=Um, V=Vm, U_inv=Uim, transforms_checked=checked)


def rank_over_q(m: IntMatrix) -> int:
    """Rank over the rationals via fraction-free (Bareiss) elimination."""
    a = [row[:] for row in m.data]
    rows, cols = m.rows, m.cols
    rank = 0
    prev = 1
    row = 0
    for col in range(cols):
        piv = None
        for i in range(row, rows):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        p = a[row][col]
        for i in range(row + 1, rows):
            ai = a[i]
            ci = ai[col]
            ar = a[row]
            for j in range(col, cols):
                ai[j] = (ai[j] * p - ci * ar[j]) // prev
        prev = p
        row += 1
        rank += 1
        if row == rows:
            break
    return rank


def rank_mod_p(m: IntMatrix, p: int) -> int:
    """Rank of m over the prime field F_p."""
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    a = [[v % p for v in row] for row in m.data]
    rows, cols = m.rows, m.cols
    rank = 0
    row = 0
    for col in range(cols):
        piv = None
        for i in range(row, rows):
            if a[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(v * inv) % p for v in a[row]]
        for i in range(rows):
            if i != row and a[i][col]:
                c = a[i][col]
                ai = a[i]
                ar = a[row]
                for j in range(col, cols):
                    ai[j] = (ai[j] - c * ar[j]) % p
        row += 1
        rank += 1
        if row == rows:
            break
    return rank


class Lattice:
    """The integer lattice spanned by some vectors, kept as echelon rows.

    The vectors are inserted one by one with gcd row operations (Cohen, GTM
    138, section 2.4): ``rows`` are echelon rows with positive pivot entries
    at the columns ``pivots``, and ``coefficients[i]`` writes ``rows[i]`` as
    an integer combination of the input vectors.  Every query is one exact
    floor-division sweep down the rows.
    """

    def __init__(self, dim: int, vectors: Iterable[Sequence[int]]):
        vectors = [list(map(int, v)) for v in vectors]
        if any(len(v) != dim for v in vectors):
            raise ValueError("vector has wrong dimension")
        self.dim = dim
        self.generators = len(vectors)
        self.rows: list[list[int]] = []
        self.pivots: list[int] = []  # increasing
        self.coefficients: list[list[int]] = []
        for k, v in enumerate(vectors):
            t = [0] * len(vectors)
            t[k] = 1
            self._insert(v, t)
        self.rank = len(self.rows)
        # Back-substitution in the echelon rows only divides by pivot entries,
        # so a multiple of this product of a vector in the rational span is in the lattice.
        self.pivot_product = prod(row[j] for row, j in zip(self.rows, self.pivots))

    def _insert(self, v: list[int], t: list[int]) -> None:
        """Add v, which is t on the input vectors, keeping rows and coefficients in step."""
        while True:
            j = next((k for k, x in enumerate(v) if x), None)
            if j is None:
                return
            idx = bisect_left(self.pivots, j)
            if idx == len(self.pivots) or self.pivots[idx] != j:
                if v[j] < 0:
                    v, t = [-x for x in v], [-x for x in t]
                self.rows.insert(idx, v)
                self.pivots.insert(idx, j)
                self.coefficients.insert(idx, t)
                return
            row, rt = self.rows[idx], self.coefficients[idx]
            p, a = row[j], v[j]
            if a % p == 0:
                q = a // p
                v = [x - q * y for x, y in zip(v, row)]
                t = [x - q * y for x, y in zip(t, rt)]
            else:
                # (row, v) <- (x row + y v, (p/g) v - (a/g) row): unimodular, new pivot g > 0
                g, x, y = xgcd(p, a)
                pg, ag = p // g, a // g
                self.rows[idx] = [x * r + y * w for r, w in zip(row, v)]
                self.coefficients[idx] = [x * r + y * w for r, w in zip(rt, t)]
                v = [pg * w - ag * r for r, w in zip(row, v)]
                t = [pg * w - ag * r for r, w in zip(rt, t)]

    def _divide(self, vec: Sequence[int]) -> tuple[list[int], list[int]]:
        """(quotients, residue) with vec = sum of quotients[i] * rows[i] + residue."""
        v = list(map(int, vec))
        if len(v) != self.dim:
            raise ValueError("vector has wrong dimension")
        quotients = []
        for row, j in zip(self.rows, self.pivots):
            q = v[j] // row[j]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
            quotients.append(q)
        return quotients, v

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Canonical residue of vec: two vectors share it exactly when they differ by a lattice element."""
        return tuple(self._divide(vec)[1])

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self._divide(vec)[1])

    def in_saturation(self, vec: Sequence[int]) -> bool:
        """Does some positive multiple of vec lie in the lattice (vec is in its rational span)?"""
        return self.contains([self.pivot_product * x for x in vec])

    def solve(self, vec: Sequence[int]) -> Optional[list[int]]:
        """Integer coefficients u on the input vectors with sum u_k * vectors[k] = vec, or None."""
        quotients, residue = self._divide(vec)
        if any(residue):
            return None
        u = [0] * self.generators
        for q, t in zip(quotients, self.coefficients):
            if q:
                u = [x + q * y for x, y in zip(u, t)]
        return u
