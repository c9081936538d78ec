"""Acceptance gate: the headline checks the library must pass, with tolerances.

Each test class is one criterion.  Everything integer or rational is compared
exactly; the only floats are log-torsion values (compared to 0.0 exactly,
since the underlying torsion orders are exact integers equal to 1) and
operator norms inside the rebuilding audit (certified to 1e-9).
"""

import itertools
import math
import time
from fractions import Fraction

from chainlab.contexts import free_context, infinite_order_certificate, raag_context
from chainlab.coset import build_abelian_chain, cyclic_cover_chain, fx
from chainlab.folner import folner_sequence_report, folner_set, inner_folner_defect
from chainlab.fixtures import (
    golden_chain,
    plane_context,
    plane_line_ball,
    plane_outer_graph,
    plane_inner_ball,
    plane_connectors,
    plane_presentation,
    star_acd_graph,
)
from chainlab.homology import gradient_series
from chainlab.intmat import IntMatrix, smith_normal_form
from chainlab.qnormal import (
    QNormalStatus,
    blow_up,
    build_coset_graph,
    compare_blowup_with_direct,
    connectedness_path,
    trim_cocompact,
    verify_chain,
)
from chainlab.raag import chain_commuting_report, is_inner_amenable_raag
from chainlab.rebuilding import (
    RebuildingData,
    circle_complex,
    identity_rebuilding,
    minimal_kappa,
    subdivided_circle_complex,
    subdivided_circle_rebuilding,
    validate_rebuilding,
)
from chainlab.words import Presentation, RaagGraph, power, raag_graph


Z = Presentation(("a",), ())
F2 = Presentation(("a", "b"), ())
ZXF2 = Presentation(("a", "b", "c"), ((1, 2, -1, -2), (1, 3, -1, -3)))


class TestCriterion1IntegerGradient:
    """(nZ)_{n=1..20}: first Betti ratio 1/n exactly, no torsion, < 1 s."""

    def test_ratios_and_torsion(self):
        start = time.monotonic()
        chain = build_abelian_chain(Z, range(1, 21))
        betti = gradient_series(chain, kind="betti_q")
        torsion = gradient_series(chain, kind="log_torsion")
        elapsed = time.monotonic() - start
        assert [p.index for p in betti.points] == list(range(1, 21))
        for n, point in enumerate(betti.points, start=1):
            assert point.value == 1
            assert point.ratio == Fraction(1, n)
        assert all(p.value == 0.0 for p in torsion.points)
        assert elapsed < 1.0


class TestCriterion2ProductGradient:
    """Z x F2, abelian chain n = 2, 3, 4: exact ratios, strictly decreasing."""

    def test_ratios_decrease_and_torsion_vanishes(self):
        start = time.monotonic()
        chain = build_abelian_chain(ZXF2, [2, 3, 4])
        betti = gradient_series(chain, kind="betti_q")
        torsion = gradient_series(chain, kind="log_torsion")
        elapsed = time.monotonic() - start
        assert chain.indices == (8, 27, 64)
        ratios = [p.ratio for p in betti.points]
        assert ratios == [Fraction(6, 8), Fraction(11, 27), Fraction(18, 64)]
        # closed form (n^2 + 2) / n^3
        assert ratios == [Fraction(n * n + 2, n ** 3) for n in (2, 3, 4)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert all(p.value == 0.0 for p in torsion.points)
        assert elapsed < 30.0


class TestCriterion3FreeGroupControl:
    """F2 with cyclic covers n = 2..8: ratios (1+n)/n, staying away from 0."""

    def test_ratios_do_not_trend_to_zero(self):
        chain = cyclic_cover_chain(F2, range(2, 9))
        betti = gradient_series(chain, kind="betti_q")
        for n, point in enumerate(betti.points, start=2):
            assert point.index == n
            assert point.ratio == Fraction(1 + n, n)
            assert point.ratio - 1 == Fraction(1, n)


def _det(rows) -> int:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * _det(minor)
    return total


def _minor_gcd(m: IntMatrix, k: int) -> int:
    g = 0
    for rows in itertools.combinations(range(m.rows), k):
        for cols in itertools.combinations(range(m.cols), k):
            sub = [[m.data[r][c] for c in cols] for r in rows]
            g = math.gcd(g, abs(_det(sub)))
    return g


class TestCriterion4SmithNormalFormOracle:
    """200 random matrices <= 5x5: invariant factors match the minor-gcd oracle."""

    def test_invariant_factors_against_minor_gcds(self):
        import random

        rng = random.Random(20260825)
        for _ in range(200):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = IntMatrix(
                rows, cols, [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            )
            result = smith_normal_form(m)
            factors = result.invariant_factors
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0
            prod = 1
            for k, d in enumerate(factors, start=1):
                prod *= d
                assert prod == _minor_gcd(m, k)
            if len(factors) < min(rows, cols):
                assert _minor_gcd(m, len(factors) + 1) == 0


class TestCriterion5FixedPointDivisibility:
    """fx(a^k) on (nZ)_{n=1..10} follows the divisibility table for k in {1, 6}."""

    def test_divisibility_table(self):
        chain = build_abelian_chain(Z, range(1, 11))
        for k in (1, 6):
            gamma = power((1,), k)
            for n, level in zip(range(1, 11), chain.levels):
                expected = Fraction(1) if k % n == 0 else Fraction(0)
                assert fx(gamma, level) == expected


class TestCriterion6GoldenCertificate:
    """The shipped three-step chain certificate verifies PROVEN end to end."""

    def test_chain_proven(self):
        cert, contexts = golden_chain()
        report = verify_chain(cert, contexts)
        assert report.status is QNormalStatus.PROVEN
        assert report.failure_reasons == ()
        assert report.base_certificate.proven
        assert [sr.composable_with_previous for sr in report.step_reports] == [None, True, True]

    def test_second_generator_witnessed_by_third(self):
        # in the top step, the generator in position 2 is witnessed by the
        # element in position 3 of the ambient group (they commute)
        cert, contexts = golden_chain()
        top = cert.steps[-1]
        assert top.generating_set[1] == (2,)
        assert top.witnesses[1].w == (3,)
        report = verify_chain(cert, contexts)
        assert report.step_reports[-1].report.witness_reports[1].status is QNormalStatus.PROVEN

    def test_first_generator_central_in_bottom_group(self):
        # generator 1 commutes with everything in the bottom ambient group
        g = star_acd_graph()
        ctx = raag_context(g)
        for other in (2, 3):
            assert ctx.normal_form((1, other, -1, -other)) == ()

    def test_all_witnesses_carry_infinite_order_proofs(self):
        cert, contexts = golden_chain()
        report = verify_chain(cert, contexts)
        for sr in report.step_reports:
            for wr in sr.report.witness_reports:
                assert wr.order.proven


class TestCriterion7GraphGroupAnalyzer:
    """Verdicts on the named graphs plus the exhaustive five-vertex sweep."""

    def test_cycle_four(self):
        g = raag_graph(4, [(1, 2), (2, 3), (3, 4), (4, 1)])
        assert not is_inner_amenable_raag(g).inner_amenable
        report = chain_commuting_report(g)
        assert report.chain_commuting
        assert report.verification.status is QNormalStatus.PROVEN

    def test_path_three(self):
        g = raag_graph(3, [(1, 2), (2, 3)])
        verdict = is_inner_amenable_raag(g)
        assert verdict.inner_amenable
        assert verdict.cone_vertices == (2,)

    def test_two_isolated_vertices(self):
        g = raag_graph(2, [])
        assert not is_inner_amenable_raag(g).inner_amenable
        assert not chain_commuting_report(g).chain_commuting

    def test_exhaustive_sweep_up_to_five_vertices(self):
        total = 0
        for n in range(1, 6):
            pairs = list(itertools.combinations(range(1, n + 1), 2))
            for bits in range(2 ** len(pairs)):
                g = RaagGraph(n, frozenset(p for i, p in enumerate(pairs) if bits >> i & 1))
                if n > 1 and not g.is_connected():
                    continue
                report = chain_commuting_report(g)
                assert report.verification.status is QNormalStatus.PROVEN, sorted(g.edges)
                total += 1
        assert total == 1 + 1 + 4 + 38 + 728


class TestCriterion8CosetGraphs:
    """The plane/line ball, its paths, witnesses, blow-up, and trimming."""

    def test_ball_shape_and_orbits(self):
        ball = plane_line_ball()
        assert len(ball.vertices) == 7
        assert ball.edge_orbits() == (0, 1)
        loops = [(u, v) for u, v, label in ball.edges if label == 0]
        steps = [(u, v) for u, v, label in ball.edges if label == 1]
        assert all(u == v for u, v in loops)
        assert all(u != v for u, v in steps)

    def test_connectedness_paths(self):
        ball = plane_line_ball()
        ctx = plane_context()
        path = connectedness_path((2, 2, 2), ball, ctx)
        assert len(path.factorization) == 3
        assert path.vertices[0] == ()
        path = connectedness_path((1, 2), ball, ctx)
        assert path.factorization  # reaches the coset of xy
        assert all(path.edges_in_graph)

    def test_stabilizer_witnesses_conjugates_of_first_generator(self):
        ball = plane_line_ball()
        assert ball.witnesses == ((1,), (1,))
        assert all(ball.check_stabilizer_witnesses())
        ctx = plane_context()
        for w in ball.witnesses:
            assert infinite_order_certificate(w, ctx).proven

    def test_blow_up_reproduces_labeled_ball(self):
        blown = blow_up(plane_outer_graph(), plane_inner_ball(), plane_connectors(), [(1,)])
        direct = build_coset_graph(
            plane_presentation(), [(1,)], [(1,), (2, 2), (2,)], budget=3, radius=3
        )
        comparison = compare_blowup_with_direct(blown, direct)
        assert comparison.common_vertices == 13
        assert comparison.matches

    def test_trim_keeps_two_orbits(self):
        ball = plane_line_ball()
        trimmed, kept = trim_cocompact(ball, [(1,), (2,)], plane_context())
        assert kept == (0, 1)
        assert set(label for _, _, label in trimmed.edges) == {0, 1}


def _bump(m: IntMatrix, i: int, j: int) -> IntMatrix:
    data = [list(r) for r in m.data]
    data[i][j] += 1
    return IntMatrix(m.rows, m.cols, data)


class TestCriterion9RebuildingAudit:
    """Exact validation, bit-stable minimal kappa, and corruption detection."""

    def test_identity_minimal_kappa(self):
        assert minimal_kappa(identity_rebuilding(circle_complex()), T=1.0) == 1.0

    def test_subdivided_circle_validates_and_kappa_is_stable(self):
        d = subdivided_circle_rebuilding(8)
        assert validate_rebuilding(d).all_pass
        k1 = minimal_kappa(d, T=8.0)
        k2 = minimal_kappa(d, T=8.0)
        assert math.isfinite(k1)
        assert k1 == k2  # bit-identical across runs
        assert k1 == 1.0  # frozen value for this fixture

    def test_every_entry_corruption_flips_validation(self):
        # run the single-entry sweep on the tautological rebuilding of the
        # subdivided circle, where every entry of every map is load-bearing
        base = identity_rebuilding(subdivided_circle_complex(8))
        replacements = {
            "g0": lambda m: RebuildingData(base.Y, base.Yprime, (m, base.g_maps[1]), base.h_maps, base.rho_maps),
            "g1": lambda m: RebuildingData(base.Y, base.Yprime, (base.g_maps[0], m), base.h_maps, base.rho_maps),
            "h0": lambda m: RebuildingData(base.Y, base.Yprime, base.g_maps, (m, base.h_maps[1]), base.rho_maps),
            "h1": lambda m: RebuildingData(base.Y, base.Yprime, base.g_maps, (base.h_maps[0], m), base.rho_maps),
            "rho0": lambda m: RebuildingData(base.Y, base.Yprime, base.g_maps, base.h_maps, (m,)),
        }
        originals = {
            "g0": base.g_maps[0], "g1": base.g_maps[1],
            "h0": base.h_maps[0], "h1": base.h_maps[1],
            "rho0": base.rho_maps[0],
        }
        checked = 0
        for name, rebuild in replacements.items():
            m = originals[name]
            for i in range(m.rows):
                for j in range(m.cols):
                    assert not validate_rebuilding(rebuild(_bump(m, i, j))).all_pass, (
                        f"{name}[{i}][{j}] went undetected"
                    )
                    checked += 1
        assert checked == 5 * 64

    def test_collapse_fixture_detects_all_but_the_unconstrained_map(self):
        # in the circle-collapse data the identities pin g0, h0, h1 and rho0
        # entry by entry; the top chain map g1 is composed only with zero
        # boundaries, so no identity can see a change to it (documented
        # blind spot, asserted rather than hidden)
        d = subdivided_circle_rebuilding(8)
        for name, m, rebuild in [
            ("g0", d.g_maps[0], lambda m: RebuildingData(d.Y, d.Yprime, (m, d.g_maps[1]), d.h_maps, d.rho_maps)),
            ("h0", d.h_maps[0], lambda m: RebuildingData(d.Y, d.Yprime, d.g_maps, (m, d.h_maps[1]), d.rho_maps)),
            ("h1", d.h_maps[1], lambda m: RebuildingData(d.Y, d.Yprime, d.g_maps, (d.h_maps[0], m), d.rho_maps)),
            ("rho0", d.rho_maps[0], lambda m: RebuildingData(d.Y, d.Yprime, d.g_maps, d.h_maps, (m,))),
        ]:
            for i in range(m.rows):
                for j in range(m.cols):
                    assert not validate_rebuilding(rebuild(_bump(m, i, j))).all_pass, (
                        f"{name}[{i}][{j}] went undetected"
                    )
        g1 = d.g_maps[1]
        immune = RebuildingData(d.Y, d.Yprime, (d.g_maps[0], _bump(g1, 0, 3)), d.h_maps, d.rho_maps)
        assert validate_rebuilding(immune).all_pass


class TestCriterion10InnerFolnerDefects:
    """Central slices in the path-graph group and a free-group counterpoint."""

    def test_central_slices_have_zero_defect_and_grow(self):
        g = raag_graph(3, [(1, 2), (2, 3)])  # generator 2 is central
        ctx = raag_context(g)
        sets = [
            folner_set([power((2,), k) for k in range(n)], ctx) for n in range(1, 6)
        ]
        gammas = [(1,), (2,), (3,)]
        report = folner_sequence_report(sets, gammas, ctx)
        assert report.cardinalities == (1, 2, 3, 4, 5)
        assert report.strictly_increasing
        assert report.max_defect == 0
        assert all(d == 0 for row in report.defects for d in row)

    def test_free_group_singleton_defect(self):
        ctx = free_context(2, ("a", "b"))
        singleton = folner_set([(1,)], ctx)
        assert inner_folner_defect(singleton, (2,), ctx) == Fraction(2)
