"""Exact integer matrices: Smith normal form, ``Lattice`` and rank oracles.

Everything here is arbitrary-precision (plain Python ints); floating point
is never used.  ``smith_normal_form`` gives invariant factors only, in two
phases: a sparse phase over dict rows eliminates the pivots +-1, each of
which contributes a factor 1 and leaves the other factors unchanged, and a
dense gcd elimination reduces the block that is left.  A boundary matrix is
almost empty and almost all of its pivots are units, so the dense phase
usually gets a small block or none.
``Lattice`` answers the integer-lattice questions (reduce / contains /
in_saturation / solve) from echelon rows with a coordinate transform, with
no Smith normal form, and lists a basis of the integer relations among its
inputs.  ``rank_over_q`` (fraction-free Bareiss) and ``rank_mod_p`` are kept
as test oracles for the homology path.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import compress
from math import gcd, prod
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
    def identity(cls, n: int) -> "IntMatrix":
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

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

    def _same_shape(self, other: "IntMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")


@dataclass(frozen=True)
class SNFResult:
    """Smith normal form data.

    invariant_factors: positive integers d_1 | d_2 | ... (including any 1s);
    rank is their count.
    """

    invariant_factors: tuple[int, ...]
    rank: int


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


def smith_normal_form(m: IntMatrix) -> SNFResult:
    """The invariant factors d_1 | d_2 | ... of m over the integers, in two phases.

    The sparse phase eliminates unit pivots (Dumas, Heckenbach, Saunders and
    Welker 2003; Dumas, Saunders and Villard 2001).  It keeps the nonzero rows
    as dicts {column: value} with a column -> rows index and picks an entry
    +-1 Markowitz style: in a shortest row that has one, at the column with
    the fewest entries.  Adding multiples of the pivot row clears the pivot's
    column from the other rows (the index follows fill-in and cancellation);
    the pivot's other row entries would then be cleared by column operations
    that touch no other row.  Both are unimodular, so m is equivalent to
    diag(1, rest): the pivot contributes one invariant factor 1 and leaves
    those of the other rows unchanged, and its row and column are dropped.

    The dense phase packs the rows that are left, which hold no +-1, and the
    columns they still use into a dense block and runs the gcd elimination of
    ``_dense_invariant_factors`` on it.  The result is one factor 1 per unit
    pivot followed by the block's factors, still a divisibility chain.
    """
    rows = [{j: row[j] for j in compress(range(m.cols), row)} for row in m.data if any(row)]
    where: dict[int, set[int]] = {}  # column -> the rows with an entry there
    for i, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapify(heap)
    units = 0
    while heap:
        length, i = heappop(heap)
        row = rows[i]
        if length != len(row):
            continue  # dropped, or changed and pushed again with its new length
        pivots = [j for j, v in row.items() if v == 1 or v == -1]
        if not pivots:
            continue  # pushed again if an elimination changes it
        j = min(pivots, key=lambda c: (len(where[c]), c))
        u = row[j]
        for k in where.pop(j):
            if k == i:
                continue
            other = rows[k]
            f = other[j] * u  # other -= f * row clears column j, since u * u = 1
            for c, v in row.items():
                w = other.get(c, 0) - f * v
                if w:
                    if c not in other:
                        where[c].add(k)
                    other[c] = w
                else:
                    del other[c]
                    if c != j:
                        where[c].discard(k)
            if other:
                heappush(heap, (len(other), k))
        for c in row:
            if c != j:
                where[c].discard(i)
        rows[i] = {}
        units += 1
    left = [row for row in rows if row]
    position = {c: n for n, c in enumerate(sorted({c for row in left for c in row}))}
    block = [[0] * len(position) for _ in left]
    for dense, row in zip(block, left):
        for c, v in row.items():
            dense[position[c]] = v
    factors = (1,) * units + _dense_invariant_factors(block)
    return SNFResult(invariant_factors=factors, rank=len(factors))


def _dense_invariant_factors(a: list[list[int]]) -> tuple[int, ...]:
    """The invariant factors of the dense rows a, which are overwritten.

    Pivoting always selects a smallest-magnitude nonzero entry of the working
    submatrix and reduces rows/columns through extended-gcd combinations, which
    keeps intermediate entries small.  The diagonal this leaves is then put
    into divisibility order by gcd/lcm steps on adjacent magnitudes.
    """
    rows, cols = len(a), len(a[0]) if a else 0

    def gen_row_op(i: int, j: int, x: int, y: int, u: int, v: int) -> None:
        """(row_i, row_j) <- (x row_i + y row_j, u row_i + v row_j), xv - yu = 1."""
        for k in range(cols):
            p, q = a[i][k], a[j][k]
            a[i][k] = x * p + y * q
            a[j][k] = u * p + v * q

    def gen_col_op(i: int, j: int, x: int, y: int, u: int, v: int) -> None:
        for r in a:
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
            a[t], a[i] = a[i], a[t]
        if j != t:
            for r in a:
                r[t], r[j] = r[j], r[t]
        while True:
            # clear column t with gcd steps
            for k in range(t + 1, rows):
                v = a[k][t]
                if v == 0:
                    continue
                p = a[t][t]
                if v % p == 0:
                    _row_op_add(a, k, t, -(v // p))
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
                    _col_op_add(a, k, t, -(v // p))
                else:
                    g, x, y = xgcd(p, v)
                    gen_col_op(t, k, x, y, -(v // g), p // g)
                    dirty = True
            if not dirty and all(a[k][t] == 0 for k in range(t + 1, rows)):
                break
        t += 1

    # diag(p, q) and diag(gcd, lcm) have the same invariant factors
    d = [abs(a[i][i]) for i in range(t)]
    changed = True
    while changed:
        changed = False
        for i in range(t - 1):
            p, q = d[i], d[i + 1]
            if q % p:
                g = gcd(p, q)
                d[i], d[i + 1] = g, p // g * q
                changed = True
    return tuple(d)


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

    An input that reduces to zero (a zero input too) leaves its coefficient
    vector t in ``relations``: sum t_k * vectors[k] = 0.  Each insertion is
    unimodular, so ``coefficients`` and ``relations`` together are the rows
    of a unimodular matrix, and ``relations`` is a basis of all integer
    relations among the inputs.
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
        self.relations: list[list[int]] = []
        for k, v in enumerate(vectors):
            t = [0] * len(vectors)
            t[k] = 1
            self._insert(v, t)
        self.rank = len(self.rows)
        # Back-substitution in the echelon rows only divides by pivot entries,
        # so a multiple of this product of a vector in the rational span is in the lattice.
        self.pivot_product = prod(row[j] for row, j in zip(self.rows, self.pivots))

    def _insert(self, v: list[int], t: list[int]) -> None:
        """Add v, which is t on the input vectors, keeping rows and coefficients in step.

        If v reduces to zero, t is a relation among the inputs and is kept.
        """
        while True:
            j = next((k for k, x in enumerate(v) if x), None)
            if j is None:
                self.relations.append(t)
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
