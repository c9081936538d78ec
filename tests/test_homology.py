"""Homology of finite covers against groups whose H_1 is a textbook fact."""

import math
from fractions import Fraction

import pytest

from chainlab.coset import build_abelian_chain, cyclic_cover_chain, todd_coxeter
from chainlab.errors import InputError
from chainlab.homology import (
    chain_homology,
    estimate_trend,
    fox_boundary_matrices,
    gradient_series,
    homology_summary,
    series_to_csv,
    series_to_json_dict,
)
from chainlab.intmat import rank_over_q
from chainlab.words import commutator, free_presentation, presentation

Z = free_presentation(1)
F2 = free_presentation(2)
Z2 = presentation(("a", "b"), [commutator((1,), (2,))])
KLEIN = presentation(("a", "b"), [(1, 2, 1, -2)])
SURFACE2 = presentation(
    ("a", "b", "c", "d"),
    [commutator((1,), (2,)) + commutator((3,), (4,))],
)


def base_table(p):
    return todd_coxeter(p, [(g,) for g in range(1, p.rank + 1)])


# -------------------------------------------------------- frozen H_1 values


def test_h1_of_cyclic_group():
    p = presentation(("a",), [(1,) * 5])
    s = homology_summary(p, base_table(p), primes=(2, 5))
    assert s.cell_counts == (1, 1, 1)
    assert s.betti_q == 0
    assert s.invariant_factors_nontrivial == (5,)
    assert s.betti_mod(5) == 1
    assert s.betti_mod(2) == 0
    assert s.log_torsion == pytest.approx(math.log(5))


def test_h1_of_klein_bottle():
    s = homology_summary(KLEIN, base_table(KLEIN), primes=(2, 3))
    assert s.betti_q == 1
    assert s.invariant_factors_nontrivial == (2,)
    assert s.betti_mod(2) == 2
    assert s.betti_mod(3) == 1


def test_h1_of_torus_and_surface():
    s = homology_summary(Z2, base_table(Z2))
    assert (s.betti_q, s.invariant_factors_nontrivial) == (2, ())
    s2 = homology_summary(SURFACE2, base_table(SURFACE2))
    assert (s2.betti_q, s2.invariant_factors_nontrivial) == (4, ())


def test_h1_of_free_cover():
    # index-2 subgroup of F2 is free of rank 3 (Nielsen-Schreier)
    t = todd_coxeter(F2, [[1], [2, 1, -2], [2, 2]])
    s = homology_summary(F2, t, primes=(2,))
    assert s.cell_counts == (2, 4, 0)
    assert s.betti_q == 3
    assert s.betti_mod(2) == 3
    assert s.log_torsion == 0.0


def test_torus_covers_keep_betti_two():
    chain = build_abelian_chain(Z2, [1, 2, 3])
    for s in chain_homology(chain, primes=(2,)):
        assert s.betti_q == 2
        assert s.invariant_factors_nontrivial == ()
        assert s.betti_mod(2) == 2


# ---------------------------------------------------------- structure checks


def test_boundary_composition_and_connectivity():
    for p, t in [
        (Z2, base_table(Z2)),
        (KLEIN, base_table(KLEIN)),
        (F2, todd_coxeter(F2, [[1], [2, 1, -2], [2, 2]])),
        (Z2, build_abelian_chain(Z2, [3]).levels[0]),
    ]:
        d1, d2 = fox_boundary_matrices(p, t)
        assert (d1 @ d2).is_zero()
        assert d1.rows == t.index
        assert d1.cols == p.rank * t.index
        assert d2.cols == len(p.relators) * t.index
        # connected cover: rank d1 = vertices - 1
        assert rank_over_q(d1) == t.index - 1


def test_universal_coefficients_consistency():
    # dim H_1(X; F_p) = betti_q + #{invariant factors divisible by p}: the
    # mod-p ranks come from a different code path than the Smith form, so this
    # cross-checks both.
    p6 = presentation(("a",), [(1,) * 6])
    cases = [
        (p6, base_table(p6)),
        (KLEIN, base_table(KLEIN)),
        (Z2, build_abelian_chain(Z2, [2]).levels[0]),
        (presentation(("a", "b"), [(1,) * 4, (2, 2)]), None),
    ]
    for p, t in cases:
        if t is None:
            t = base_table(p)
        s = homology_summary(p, t, primes=(2, 3, 5))
        for q in (2, 3, 5):
            expected = s.betti_q + sum(1 for f in s.invariant_factors_nontrivial if f % q == 0)
            assert s.betti_mod(q) == expected


def test_wrong_presentation_is_rejected():
    t = base_table(Z2)
    with pytest.raises(InputError):
        fox_boundary_matrices(KLEIN, t)
    with pytest.raises(KeyError):
        homology_summary(Z2, t, primes=(2,)).betti_mod(7)


# ------------------------------------------------------------------- series


def test_z_chain_gradient_is_one_over_n():
    chain = build_abelian_chain(Z, list(range(1, 7)))
    series = gradient_series(chain, "betti_q")
    assert [p.value for p in series.points] == [1] * 6
    assert [p.ratio for p in series.points] == [Fraction(1, n) for n in range(1, 7)]
    trend = estimate_trend(series)
    assert trend.monotonicity == "strictly-decreasing"
    assert trend.slope_vs_inverse_index == pytest.approx(1.0, abs=1e-9)
    assert trend.extrapolated_limit == pytest.approx(0.0, abs=1e-9)


def test_f2_cyclic_covers_gradient():
    chain = cyclic_cover_chain(F2, [2, 3, 4, 5])
    series = gradient_series(chain, "betti_q")
    assert [p.value for p in series.points] == [3, 4, 5, 6]  # b_1 = n + 1
    assert [p.ratio for p in series.points] == [Fraction(n + 1, n) for n in (2, 3, 4, 5)]
    trend = estimate_trend(series)
    assert trend.monotonicity == "strictly-decreasing"
    assert trend.extrapolated_limit == pytest.approx(1.0, abs=1e-9)  # rank gradient of F2


def test_log_torsion_series_is_float():
    chain = build_abelian_chain(Z, [2, 4])
    series = gradient_series(chain, "log_torsion")
    assert all(isinstance(p.ratio, float) for p in series.points)
    assert all(p.value == 0.0 for p in series.points)


def test_betti_fp_series_needs_prime():
    chain = build_abelian_chain(Z, [2])
    with pytest.raises(InputError):
        gradient_series(chain, "betti_fp")
    series = gradient_series(chain, "betti_fp", prime=2)
    assert series.kind == "betti_fp[2]"
    assert series.points[0].value == 1
    with pytest.raises(InputError):
        gradient_series(chain, "euler")


def test_trend_needs_two_points():
    chain = build_abelian_chain(Z, [2])
    with pytest.raises(InputError):
        estimate_trend(gradient_series(chain, "betti_q"))


def test_trend_line_is_exact():
    # b_1 = 2 at index n^2, so ratio = 2 / index: slope 2 and limit 0 exactly.
    chain = build_abelian_chain(Z2, [1, 2, 3, 4])
    trend = estimate_trend(gradient_series(chain, "betti_q"))
    assert trend.slope_vs_inverse_index == 2.0
    assert trend.extrapolated_limit == 0.0


def test_trend_needs_distinct_indices():
    chain = build_abelian_chain(Z2, [2, 2, 2])
    assert [p.index for p in chain.levels] == [4, 4, 4]
    with pytest.raises(InputError):
        estimate_trend(gradient_series(chain, "betti_q"))


def test_series_serialization():
    chain = build_abelian_chain(Z, [1, 2])
    series = gradient_series(chain, "betti_q")
    csv = series_to_csv(series)
    assert csv == (
        "level,index,value,ratio\n"
        "abelian-n=1,1,1,1\n"
        "abelian-n=2,2,1,1/2\n"
    )
    d = series_to_json_dict(series)
    assert d["kind"] == "betti_q"
    assert d["points"][1] == {"level": "abelian-n=2", "index": 2, "value": 1, "ratio": "1/2"}
