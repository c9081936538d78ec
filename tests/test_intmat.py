import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chainlab.coset import cyclic_cover_chain
from chainlab.homology import fox_boundary_matrices
from chainlab.intmat import (
    IntMatrix,
    Lattice,
    _dense_invariant_factors,
    rank_mod_p,
    rank_over_q,
    smith_normal_form,
    xgcd,
)
from chainlab.words import free_reduce, presentation


def matrix(rows) -> IntMatrix:
    """The matrix with the given nonempty list of rows."""
    return IntMatrix(len(rows), len(rows[0]), [list(r) for r in rows])


def minors_gcd(m: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 when every minor vanishes) -- oracle."""
    g = 0
    for rows in combinations(range(m.rows), k):
        for cols in combinations(range(m.cols), k):
            sub = [[m.data[i][j] for j in cols] for i in rows]
            g = gcd(g, det_fraction(sub))
    return g


def det_fraction(a: list[list[int]]) -> int:
    """Exact determinant by expansion for tiny matrices."""
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        if a[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * det_fraction(minor)
    return total


def rank_oracle(m: IntMatrix) -> int:
    """Rational rank by Gaussian elimination over Fraction -- oracle."""
    a = [[Fraction(v) for v in row] for row in m.data]
    rank = 0
    row = 0
    for col in range(m.cols):
        piv = next((i for i in range(row, m.rows) if a[i][col]), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        for i in range(m.rows):
            if i != row and a[i][col]:
                c = a[i][col] / a[row][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[row])]
        row += 1
        rank += 1
    return rank


def check_against_minor_oracle(m: IntMatrix) -> None:
    factors = smith_normal_form(m).invariant_factors
    # divisibility chain
    for a, b in zip(factors, factors[1:]):
        assert b % a == 0
    assert all(f > 0 for f in factors)
    # product of first k factors equals the gcd of k x k minors
    prod = 1
    for k in range(1, min(m.rows, m.cols) + 1):
        dk = minors_gcd(m, k)
        if k <= len(factors):
            prod *= factors[k - 1]
            assert dk == prod, (m.data, factors)
        else:
            assert dk == 0


def test_snf_frozen_examples():
    assert smith_normal_form(matrix([[2, 0], [0, 3]])).invariant_factors == (1, 6)
    assert smith_normal_form(matrix([[2, 4], [6, 8]])).invariant_factors == (2, 4)
    assert smith_normal_form(IntMatrix(3, 2)).invariant_factors == ()
    assert smith_normal_form(matrix([[5]])).invariant_factors == (5,)
    assert smith_normal_form(matrix([[0, 1], [-1, 0]])).invariant_factors == (1, 1)


def test_snf_empty_shapes():
    assert smith_normal_form(IntMatrix(0, 4)).invariant_factors == ()
    assert smith_normal_form(IntMatrix(4, 0)).invariant_factors == ()
    assert smith_normal_form(IntMatrix(0, 0)).invariant_factors == ()


def test_snf_random_against_minor_oracle():
    rng = random.Random(20260825)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = matrix([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        check_against_minor_oracle(m)


def test_snf_negative_and_growth():
    m = matrix([[-4, 6, 2], [6, -9, -3], [10, 4, 18]])
    check_against_minor_oracle(m)
    assert smith_normal_form(matrix([[-6]])).invariant_factors == (6,)
    assert smith_normal_form(matrix([[-4, 0], [0, 6]])).invariant_factors == (2, 12)


# Mostly 0 and +-1, as in a boundary matrix, with a few non-unit entries.
SPARSE_ENTRY = st.sampled_from([0] * 12 + [1, -1] * 4 + [2, -2, 3, -3, 5, -5])


@st.composite
def sparse_matrices(draw):
    rows, cols = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    row = st.lists(SPARSE_ENTRY, min_size=cols, max_size=cols)
    return IntMatrix(rows, cols, draw(st.lists(row, min_size=rows, max_size=rows)))


@st.composite
def cyclic_cover_d2(draw):
    """The Fox d2 of the n-fold cyclic cover of a random one-relator group on a, b."""
    relator = free_reduce(draw(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=10)))
    assume(relator)
    p = presentation(("a", "b"), [relator])
    t = cyclic_cover_chain(p, [draw(st.integers(1, 20))]).levels[0]
    return fox_boundary_matrices(p, t)[1]


@settings(max_examples=300, deadline=None)
@given(st.one_of(sparse_matrices(), cyclic_cover_d2()))
def test_unit_pivot_elimination_matches_the_dense_loop(m):
    data = [row[:] for row in m.data]
    snf = smith_normal_form(m)
    assert m.data == data  # the input is left as it was
    assert snf.invariant_factors == _dense_invariant_factors(data)
    assert snf.rank == rank_over_q(m)
    for p in (2, 3, 5):
        assert rank_mod_p(m, p) == sum(1 for f in snf.invariant_factors if f % p)
    if m.rows <= 4 and m.cols <= 4:
        check_against_minor_oracle(m)


def test_rank_functions_agree():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = matrix([[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)])
        assert rank_over_q(m) == rank_oracle(m)
        assert rank_over_q(m) == smith_normal_form(m).rank


def test_rank_mod_p():
    m = matrix([[2, 4], [6, 8]])  # invariant factors (2, 4)
    assert rank_mod_p(m, 2) == 0
    assert rank_mod_p(m, 3) == 2
    assert rank_mod_p(matrix([[3, 0], [0, 5]]), 3) == 1
    assert rank_mod_p(matrix([[3, 0], [0, 5]]), 5) == 1
    with pytest.raises(ValueError):
        rank_mod_p(m, 1)


def test_matmul_and_shapes():
    a = matrix([[1, 2], [3, 4]])
    b = matrix([[0, 1], [1, 0]])
    assert (a @ b).data == [[2, 1], [4, 3]]
    assert (a @ IntMatrix.identity(2)) == a
    empty = IntMatrix(2, 0)
    assert (empty @ IntMatrix(0, 3)).data == [[0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError):
        a @ IntMatrix(3, 1)


def test_lattice_basis_membership_and_residue():
    lat = Lattice(2, [[2, 0], [0, 3]])
    assert lat.contains([2, 3])
    assert not lat.contains([1, 0])
    assert lat.reduce([5, 7]) == (1, 1)
    assert lat.reduce([3, 4]) == lat.reduce([5, 7])  # differ by (2, 3)
    # one-dimensional sublattice of Z^2: residue keeps the free coordinate
    line = Lattice(2, [[1, 0]])
    assert line.reduce([9, -4]) == (0, -4)


def test_lattice_basis_gcd_insertion():
    lat = Lattice(1, [[4], [6]])
    assert lat.contains([2]) and not lat.contains([1])
    assert lat.rank == 1
    assert lat.rows == [[2]] and lat.coefficients == [[-1, 1]]  # 2 = -4 + 6


def test_lattice_membership_and_saturation():
    def membership(vectors, dim, v):
        lat = Lattice(dim, vectors)
        return lat.contains(v), lat.in_saturation(v)

    # lattice spanned by (5,) in Z: 1 is not in it, but is in the saturation
    assert membership([[5]], 1, [5]) == (True, True)
    assert membership([[5]], 1, [1]) == (False, True)
    # zero lattice in Z^2
    assert membership([], 2, [0, 0]) == (True, True)
    assert membership([], 2, [1, 0]) == (False, False)
    # rank-1 lattice in Z^2: off-line vectors escape the saturation
    assert membership([[2, 2]], 2, [4, 4]) == (True, True)
    assert membership([[2, 2]], 2, [1, 1]) == (False, True)
    assert membership([[2, 2]], 2, [1, 0]) == (False, False)


def test_solve_integer():
    def solve(rows, v):
        return Lattice(len(rows), matrix(rows).transpose().data).solve(v)

    assert solve([[1, 0], [0, 2]], [3, 4]) == [3, 2]
    assert solve([[1, 0], [0, 2]], [3, 3]) is None
    # underdetermined: any valid solution is accepted
    u = solve([[2, 3]], [1])
    assert u is not None and 2 * u[0] + 3 * u[1] == 1
    # one lattice answers every right-hand side
    a = matrix([[2, 4, 0], [0, 6, 3]])
    lat = Lattice(2, a.transpose().data)
    for v in ([2, 3], [0, 0], [4, -9], [6, 6]):
        u = lat.solve(v)
        assert u is not None
        assert [sum(a.data[i][k] * u[k] for k in range(3)) for i in range(2)] == v
    assert lat.solve([1, 0]) is None  # the column lattice has even first coordinates
    with pytest.raises(ValueError):
        lat.solve([1, 2, 3])
    with pytest.raises(ValueError):
        Lattice(2, [[1, 2, 3]])  # a generator of the wrong dimension


# ----------------------------------------- the retired lattice code as oracles


class LatticeBasisOracle:
    """The echelon lattice that ``Lattice`` replaced, kept as an oracle for reduce."""

    def __init__(self, dim, vectors=()):
        self.dim = dim
        self.rows = []  # sorted by pivot column
        self.pivots = []
        for v in vectors:
            self.add(v)

    def add(self, vec):
        v = list(map(int, vec))
        while True:
            j = next((k for k, x in enumerate(v) if x), None)
            if j is None:
                return
            idx = None
            for r, p in enumerate(self.pivots):
                if p == j:
                    idx = r
                    break
                if p > j:
                    break
            if idx is None:
                if v[j] < 0:
                    v = [-x for x in v]
                pos = next((r for r, p in enumerate(self.pivots) if p > j), len(self.pivots))
                self.rows.insert(pos, v)
                self.pivots.insert(pos, j)
                return
            row = self.rows[idx]
            p = row[j]
            if v[j] % p == 0:
                q = v[j] // p
                v = [x - q * y for x, y in zip(v, row)]
            else:
                g, x, y = xgcd(p, v[j])
                new_row = [x * r0 + y * v0 for r0, v0 in zip(row, v)]
                v = [(p // g) * v0 - (v[j] // g) * r0 for r0, v0 in zip(row, v)]
                if new_row[j] < 0:
                    new_row = [-t for t in new_row]
                self.rows[idx] = new_row

    def reduce(self, vec):
        v = list(map(int, vec))
        for row, p in zip(self.rows, self.pivots):
            q = v[p] // row[p]
            if q:
                v = [x - q * y for x, y in zip(v, row)]
        return tuple(v)


def lattice_membership_oracle(span: IntMatrix, v):
    """(in the column lattice of span, in its saturation).

    Appending v as a column keeps the invariant factors exactly when v is in
    the lattice, and keeps the rank exactly when v is in its saturation.
    """
    before = smith_normal_form(span)
    after = smith_normal_form(IntMatrix(span.rows, span.cols + 1, [row + [x] for row, x in zip(span.data, v)]))
    return after.invariant_factors == before.invariant_factors, after.rank == before.rank


@st.composite
def lattices(draw):
    """A small lattice with zero, repeated and dependent generators, and a query vector."""
    dim = draw(st.integers(1, 5))
    entry = st.integers(-6, 6)
    vector = st.lists(entry, min_size=dim, max_size=dim)
    gens = draw(st.lists(vector, max_size=6))
    if gens and draw(st.booleans()):  # a dependent generator: a combination of two drawn ones
        a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
        x, y = draw(entry), draw(entry)
        gens.append([x * s + y * t for s, t in zip(a, b)])
    if gens and draw(st.booleans()):
        gens.append(list(draw(st.sampled_from(gens))))  # repeated
    if draw(st.booleans()):
        gens.append([0] * dim)
    gens = draw(st.permutations(gens))[:6]
    coeffs = draw(st.lists(entry, min_size=len(gens), max_size=len(gens)))
    element = [sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(dim)]
    scale = draw(st.integers(1, 6))
    # half the queries are a lattice element divided, where it can be, by a small scale
    if draw(st.booleans()) and all(x % scale == 0 for x in element):
        v = [x // scale for x in element]
    else:
        v = draw(vector)
    return dim, gens, element, v


@settings(max_examples=400, deadline=None)
@given(lattices())
def test_lattice_matches_the_retired_oracles(case):
    dim, gens, element, v = case
    lat = Lattice(dim, gens)
    span = IntMatrix(dim, len(gens), [[g[i] for g in gens] for i in range(dim)])
    in_lattice, in_saturation = lattice_membership_oracle(span, v)
    assert (lat.contains(v), lat.in_saturation(v)) == (in_lattice, in_saturation)
    assert lat.reduce(v) == LatticeBasisOracle(dim, gens).reduce(v)
    assert lat.reduce(v) == lat.reduce([x + y for x, y in zip(v, element)])
    assert lat.contains(element) and lat.solve(element) is not None
    u = lat.solve(v)
    assert (u is not None) == in_lattice
    if u is not None:
        assert [sum(c * g[i] for c, g in zip(u, gens)) for i in range(dim)] == v


def lattice_inserting_zero_vectors(dim, vectors):
    """``Lattice(dim, vectors)`` built by hand: every input, a zero one too,
    goes through ``_insert`` with its unit coefficient vector."""
    lat = Lattice.__new__(Lattice)
    vectors = [list(map(int, v)) for v in vectors]
    lat.dim, lat.generators = dim, len(vectors)
    lat.rows, lat.pivots, lat.coefficients, lat.relations = [], [], [], []
    for k, v in enumerate(vectors):
        t = [0] * len(vectors)
        t[k] = 1
        lat._insert(v, t)
    return lat


@settings(max_examples=200, deadline=None)
@given(lattices(), st.data())
def test_skipping_zero_vectors_keeps_the_echelon_rows(case, data):
    dim, gens, _, _ = case
    at = data.draw(st.integers(0, len(gens)))
    gens = gens[:at] + [[0] * dim] + gens[at:]
    lat, old = Lattice(dim, gens), lattice_inserting_zero_vectors(dim, gens)
    assert (lat.rows, lat.pivots, lat.coefficients) == (old.rows, old.pivots, old.coefficients)
    assert lat.relations == old.relations
    assert [0] * at + [1] + [0] * (len(gens) - at - 1) in lat.relations  # the zero input's relation
    assert lat.generators == len(gens)


@settings(max_examples=300, deadline=None)
@given(lattices())
def test_lattice_relations_complete_a_unimodular_matrix(case):
    dim, gens, _, _ = case
    lat = Lattice(dim, gens)
    for t in lat.relations:
        assert [sum(c * g[i] for c, g in zip(t, gens)) for i in range(dim)] == [0] * dim
    square = lat.coefficients + lat.relations
    assert len(square) == len(gens)
    assert abs(det_fraction(square)) == 1


def test_matmul_matches_schoolbook_product():
    rng = random.Random(11)
    for _ in range(200):
        r, k, c = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a = [[rng.choice([0, 0, 1, -2, 3]) for _ in range(k)] for _ in range(r)]
        b = [[rng.choice([0, 0, -1, 2, 5]) for _ in range(c)] for _ in range(k)]
        want = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(c)] for i in range(r)]
        assert (IntMatrix(r, k, a) @ IntMatrix(k, c, b)).data == want


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 0), (0, 7), (5, 0), (-3, -9)]:
        g, x, y = xgcd(a, b)
        assert g == gcd(a, b)
        assert a * x + b * y == g
