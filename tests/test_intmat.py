import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from chainlab.intmat import (
    IntMatrix,
    LatticeBasis,
    lattice_membership,
    rank_mod_p,
    rank_over_q,
    smith_normal_form,
    xgcd,
)


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
    res = smith_normal_form(m, transforms=True)
    assert res.transforms_checked
    factors = res.invariant_factors
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
    assert smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]])).invariant_factors == (1, 6)
    assert smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])).invariant_factors == (2, 4)
    assert smith_normal_form(IntMatrix.zeros(3, 2)).invariant_factors == ()
    assert smith_normal_form(IntMatrix.from_rows([[5]])).invariant_factors == (5,)
    assert smith_normal_form(IntMatrix.from_rows([[0, 1], [-1, 0]])).invariant_factors == (1, 1)


def test_snf_empty_shapes():
    assert smith_normal_form(IntMatrix.zeros(0, 4)).invariant_factors == ()
    assert smith_normal_form(IntMatrix.zeros(4, 0)).invariant_factors == ()
    res = smith_normal_form(IntMatrix.zeros(0, 0), transforms=True)
    assert res.invariant_factors == () and res.transforms_checked


def test_snf_random_against_minor_oracle():
    rng = random.Random(20260825)
    for _ in range(60):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        m = IntMatrix.from_rows([[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)])
        check_against_minor_oracle(m)


def test_snf_negative_and_growth():
    m = IntMatrix.from_rows([[-4, 6, 2], [6, -9, -3], [10, 4, 18]])
    res = smith_normal_form(m, transforms=True)
    assert res.transforms_checked
    check_against_minor_oracle(m)


def test_rank_functions_agree():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        m = IntMatrix.from_rows([[rng.randint(-6, 6) for _ in range(c)] for _ in range(r)])
        assert rank_over_q(m) == rank_oracle(m)
        assert rank_over_q(m) == smith_normal_form(m).rank


def test_rank_mod_p():
    m = IntMatrix.from_rows([[2, 4], [6, 8]])  # invariant factors (2, 4)
    assert rank_mod_p(m, 2) == 0
    assert rank_mod_p(m, 3) == 2
    assert rank_mod_p(IntMatrix.from_rows([[3, 0], [0, 5]]), 3) == 1
    assert rank_mod_p(IntMatrix.from_rows([[3, 0], [0, 5]]), 5) == 1
    with pytest.raises(ValueError):
        rank_mod_p(m, 1)


def test_matmul_and_shapes():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).data == [[2, 1], [4, 3]]
    assert (a @ IntMatrix.identity(2)) == a
    empty = IntMatrix.zeros(2, 0)
    assert (empty @ IntMatrix.zeros(0, 3)).data == [[0, 0, 0], [0, 0, 0]]
    with pytest.raises(ValueError):
        a @ IntMatrix.zeros(3, 1)


def test_lattice_basis_membership_and_residue():
    lat = LatticeBasis(2, [[2, 0], [0, 3]])
    assert [2, 3] in lat
    assert [1, 0] not in lat
    assert lat.reduce([5, 7]) == (1, 1)
    assert lat.reduce([3, 4]) == lat.reduce([5, 7])  # differ by (2, 3)
    # one-dimensional sublattice of Z^2: residue keeps the free coordinate
    line = LatticeBasis(2, [[1, 0]])
    assert line.reduce([9, -4]) == (0, -4)


def test_lattice_basis_gcd_insertion():
    lat = LatticeBasis(1, [[4]])
    lat.add([6])
    assert [2] in lat and [1] not in lat
    assert lat.rank() == 1


def test_lattice_membership_and_saturation():
    # lattice spanned by (5,) in Z: 1 is not in it, but is in the saturation
    span = IntMatrix.from_rows([[5]])
    assert lattice_membership(span, [5]) == (True, True)
    assert lattice_membership(span, [1]) == (False, True)
    # zero lattice in Z^2
    span0 = IntMatrix.zeros(2, 0)
    assert lattice_membership(span0, [0, 0]) == (True, True)
    assert lattice_membership(span0, [1, 0]) == (False, False)
    # rank-1 lattice in Z^2: off-line vectors escape the saturation
    span1 = IntMatrix.from_rows([[2], [2]])
    assert lattice_membership(span1, [4, 4]) == (True, True)
    assert lattice_membership(span1, [1, 1]) == (False, True)
    assert lattice_membership(span1, [1, 0]) == (False, False)


def test_solve_integer():
    def solve(rows, v):
        return smith_normal_form(IntMatrix.from_rows(rows), transforms=True).solve(v)

    assert solve([[1, 0], [0, 2]], [3, 4]) == [3, 2]
    assert solve([[1, 0], [0, 2]], [3, 3]) is None
    # underdetermined: any valid solution is accepted
    u = solve([[2, 3]], [1])
    assert u is not None and 2 * u[0] + 3 * u[1] == 1
    # one factorization answers every right-hand side
    a = IntMatrix.from_rows([[2, 4, 0], [0, 6, 3]])
    res = smith_normal_form(a, transforms=True)
    for v in ([2, 3], [0, 0], [4, -9], [6, 6]):
        u = res.solve(v)
        assert u is not None
        assert [sum(a.data[i][k] * u[k] for k in range(3)) for i in range(2)] == v
    assert res.solve([1, 0]) is None  # the column lattice has even first coordinates
    with pytest.raises(ValueError):
        res.solve([1, 2, 3])
    with pytest.raises(ValueError):
        smith_normal_form(a).solve([2, 3])  # no transforms


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
