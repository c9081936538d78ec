"""Exact validation and quantitative audits of chain-complex rebuildings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainlab.errors import InputError, VerificationFailure
from chainlab.intmat import IntMatrix
from chainlab.rebuilding import (
    CWChainData,
    RebuildingData,
    circle_complex,
    complex_from_dict,
    complex_to_dict,
    identity_rebuilding,
    minimal_kappa,
    operator_norm,
    quality_check,
    quality_report_to_dict,
    rebuilding_from_dict,
    rebuilding_to_dict,
    subdivided_circle_complex,
    subdivided_circle_rebuilding,
    validate_rebuilding,
)


def bumped(m: IntMatrix, i: int, j: int) -> IntMatrix:
    data = [list(r) for r in m.data]
    data[i][j] += 1
    return IntMatrix(m.rows, m.cols, data)


def dense_operator_norm(m: IntMatrix) -> float:
    """Power iteration with dense Gram products, two per round -- oracle."""
    if m.rows == 0 or m.cols == 0 or m.is_zero():
        return 0.0
    if m.rows <= 2 and m.cols <= 2:
        return operator_norm(m)
    gram = (m.transpose() @ m).data
    n = len(gram)

    def iterate(v):
        rayleigh = 0.0
        for _ in range(200):
            w = [sum(gram[i][k] * v[k] for k in range(n)) for i in range(n)]
            norm_w = math.sqrt(sum(x * x for x in w))
            if norm_w == 0.0:
                return rayleigh
            v = [x / norm_w for x in w]
            new = sum(v[i] * sum(gram[i][k] * v[k] for k in range(n)) for i in range(n))
            if abs(new - rayleigh) <= 1e-12 * max(1.0, new):
                return new
            rayleigh = new
        return rayleigh

    top = max(iterate([1.0] * n), iterate([float(i + 1) for i in range(n)]))
    return math.sqrt(max(top, 0.0))


class TestChainData:
    def test_boundary_accessor(self):
        c = subdivided_circle_complex(3)
        assert c.boundary(1).rows == 3
        with pytest.raises(InputError):
            c.boundary(0)
        with pytest.raises(InputError):
            c.boundary(2)

    def test_square_zero_enforced(self):
        d2 = IntMatrix(1, 1, [[1]])
        d1 = IntMatrix(1, 1, [[1]])
        with pytest.raises(InputError):
            CWChainData(alpha=2, cell_counts=(1, 1, 1), boundaries=(d1, d2))

    def test_torus_like_square_zero_accepted(self):
        # one 0-cell, two 1-cells, one 2-cell with zero attaching map
        c = CWChainData(
            alpha=2,
            cell_counts=(1, 2, 1),
            boundaries=(IntMatrix.zeros(1, 2), IntMatrix.zeros(2, 1)),
        )
        assert c.boundary(2).is_zero()

    def test_shape_validation(self):
        with pytest.raises(InputError):
            CWChainData(alpha=1, cell_counts=(2, 2), boundaries=(IntMatrix.zeros(3, 2),))
        with pytest.raises(InputError):
            CWChainData(alpha=1, cell_counts=(2,), boundaries=(IntMatrix.zeros(2, 2),))


class TestValidation:
    def test_identity_rebuilding_all_pass(self):
        rep = validate_rebuilding(identity_rebuilding(subdivided_circle_complex(5)))
        assert rep.all_pass
        assert rep.failures() == ()
        names = {c.name for c in rep.checks}
        assert names == {"chain-map g degree 1", "chain-map h degree 1", "homotopy degree 0"}

    def test_subdivided_circle_collapse_all_pass(self):
        rep = validate_rebuilding(subdivided_circle_rebuilding(8))
        assert rep.all_pass

    def test_corrupted_homotopy_fails_named_check(self):
        d = subdivided_circle_rebuilding(8)
        bad = RebuildingData(
            Y=d.Y,
            Yprime=d.Yprime,
            g_maps=d.g_maps,
            h_maps=d.h_maps,
            rho_maps=(bumped(d.rho_maps[0], 3, 1),),
        )
        rep = validate_rebuilding(bad)
        assert not rep.all_pass
        assert rep.failures() == ("homotopy degree 0",)

    def test_shape_errors_raise(self):
        d = subdivided_circle_rebuilding(4)
        with pytest.raises(InputError):
            RebuildingData(
                Y=d.Y,
                Yprime=d.Yprime,
                g_maps=(d.g_maps[0], IntMatrix.zeros(2, 4)),
                h_maps=d.h_maps,
                rho_maps=d.rho_maps,
            )
        with pytest.raises(InputError):
            RebuildingData(
                Y=d.Y, Yprime=d.Yprime, g_maps=d.g_maps, h_maps=d.h_maps, rho_maps=()
            )
        with pytest.raises(InputError):
            RebuildingData(
                Y=d.Y,
                Yprime=subdivided_circle_complex(2),
                g_maps=d.g_maps,
                h_maps=d.h_maps,
                rho_maps=d.rho_maps,
            )

    def test_corruption_sweep_every_entry_flips_validation(self):
        # in the tautological rebuilding of the 8-fold subdivided circle,
        # bumping any single entry of g0, g1, h0, h1 or rho0 breaks an identity
        base = identity_rebuilding(subdivided_circle_complex(8))
        fields = {
            "g0": lambda m: RebuildingData(base.Y, base.Yprime, (m, base.g_maps[1]), base.h_maps, base.rho_maps),
            "g1": lambda m: RebuildingData(base.Y, base.Yprime, (base.g_maps[0], m), base.h_maps, base.rho_maps),
            "h0": lambda m: RebuildingData(base.Y, base.Yprime, base.g_maps, (m, base.h_maps[1]), base.rho_maps),
            "h1": lambda m: RebuildingData(base.Y, base.Yprime, base.g_maps, (base.h_maps[0], m), base.rho_maps),
            "rho0": lambda m: RebuildingData(base.Y, base.Yprime, base.g_maps, base.h_maps, (m,)),
        }
        originals = {
            "g0": base.g_maps[0],
            "g1": base.g_maps[1],
            "h0": base.h_maps[0],
            "h1": base.h_maps[1],
            "rho0": base.rho_maps[0],
        }
        for name, rebuild in fields.items():
            m = originals[name]
            for i in range(m.rows):
                for j in range(m.cols):
                    rep = validate_rebuilding(rebuild(bumped(m, i, j)))
                    assert not rep.all_pass, f"{name}[{i}][{j}] went undetected"

    def test_collapse_g1_is_not_pinned_by_the_identities(self):
        # with one degree the homotopy identity stops at degree 0 and the
        # small complex has zero boundary, so the identities never see g1:
        # corrupting it must NOT flip validation (documented blind spot)
        d = subdivided_circle_rebuilding(8)
        bad = RebuildingData(
            Y=d.Y,
            Yprime=d.Yprime,
            g_maps=(d.g_maps[0], bumped(d.g_maps[1], 0, 5)),
            h_maps=d.h_maps,
            rho_maps=d.rho_maps,
        )
        assert validate_rebuilding(bad).all_pass


class TestOperatorNorm:
    def test_oracles(self):
        assert operator_norm(IntMatrix(2, 2, [[3, 4], [0, 0]])) == pytest.approx(5.0, abs=1e-9)
        assert operator_norm(IntMatrix.identity(4)) == pytest.approx(1.0, abs=1e-9)
        assert operator_norm(IntMatrix.zeros(3, 2)) == 0.0
        perm = IntMatrix(3, 3, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert operator_norm(perm) == pytest.approx(1.0, abs=1e-9)

    def test_transpose_invariance(self):
        m = IntMatrix(2, 3, [[1, 2, 3], [4, 5, 6]])
        mt = IntMatrix(3, 2, [[1, 4], [2, 5], [3, 6]])
        assert operator_norm(m) == pytest.approx(operator_norm(mt), rel=1e-9)

    def test_scaling_homogeneity(self):
        m = IntMatrix(2, 2, [[1, 2], [3, -1]])
        m3 = IntMatrix(2, 2, [[3, 6], [9, -3]])
        assert operator_norm(m3) == pytest.approx(3 * operator_norm(m), rel=1e-9)

    def test_orthogonal_start_trap(self):
        # top eigenvector (1,-1,0) is orthogonal to the all-ones vector;
        # a single deterministic power-iteration start would report 1.0
        m = IntMatrix(3, 3, [[1, -1, 0], [-1, 1, 0], [0, 0, 1]])
        assert operator_norm(m) == pytest.approx(2.0, abs=1e-9)

    def test_matches_numpy_on_random_matrices(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            r, c = rng.integers(1, 7, size=2)
            a = rng.integers(-9, 10, size=(r, c))
            m = IntMatrix(int(r), int(c), a.tolist())
            expected = float(np.linalg.norm(a, 2))
            assert operator_norm(m) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bit_identical_to_dense_power_iteration(self, data):
        # the sparse product drops only zero terms and reuses the Rayleigh
        # product as the next step, so every float must come out the same
        r = data.draw(st.integers(1, 8))
        c = data.draw(st.integers(1, 8))
        entry = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7])
        rows = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r))
        m = IntMatrix(r, c, rows)
        assert repr(operator_norm(m)) == repr(dense_operator_norm(m))

    def test_subdivided_circle_homotopy_norm(self):
        # strict upper-triangular ones on 8 cells = full triangular 7x7
        rho0 = subdivided_circle_rebuilding(8).rho_maps[0]
        expected = 1.0 / (2.0 * math.sin(math.pi / 30.0))
        assert operator_norm(rho0) == pytest.approx(expected, rel=1e-9)


class TestQuality:
    def test_identity_passes_at_unit_scale(self):
        rep = quality_check(identity_rebuilding(subdivided_circle_complex(4)), T=1.0, kappa=1.0)
        assert rep.overall
        assert rep.log_convention == "natural"
        assert all(deg.cells_bound_ok for deg in rep.per_degree)

    def test_identity_fails_cells_at_huge_scale(self):
        rep = quality_check(identity_rebuilding(subdivided_circle_complex(4)), T=1e6, kappa=1.0)
        assert not rep.overall
        assert all(not deg.cells_bound_ok for deg in rep.per_degree)
        # the norm budget is generous there; only the cell counts fail
        assert all(all(c.passed for c in deg.norm_checks) for deg in rep.per_degree)

    def test_invalid_data_refused(self):
        d = subdivided_circle_rebuilding(8)
        bad = RebuildingData(
            Y=d.Y,
            Yprime=d.Yprime,
            g_maps=d.g_maps,
            h_maps=d.h_maps,
            rho_maps=(bumped(d.rho_maps[0], 0, 3),),
        )
        with pytest.raises(VerificationFailure):
            quality_check(bad, T=8.0, kappa=2.0)
        with pytest.raises(VerificationFailure):
            minimal_kappa(bad, T=8.0)

    def test_parameter_domain(self):
        d = identity_rebuilding(circle_complex())
        with pytest.raises(InputError):
            quality_check(d, T=0.5, kappa=1.0)
        with pytest.raises(InputError):
            quality_check(d, T=1.0, kappa=0.0)
        with pytest.raises(InputError):
            minimal_kappa(d, T=0.9)

    def test_minimal_kappa_identity(self):
        assert minimal_kappa(identity_rebuilding(circle_complex()), T=1.0) == 1.0

    def test_minimal_kappa_subdivided_circle(self):
        # cells: T * 1/8 = 1; norms: all log-norms below 1 + ln 8
        k = minimal_kappa(subdivided_circle_rebuilding(8), T=8.0)
        assert k == 1.0
        assert k <= 4.0

    def test_minimal_kappa_threshold(self):
        # a fine subdivision at small T makes the homotopy norm the binding
        # constraint, so the minimal kappa exceeds 1 and is a sharp threshold
        d = subdivided_circle_rebuilding(64)
        k = minimal_kappa(d, T=2.0)
        assert k > 1.0
        assert quality_check(d, T=2.0, kappa=k + 1e-6).overall
        assert not quality_check(d, T=2.0, kappa=k - 1e-6).overall

    def test_quality_monotone_in_kappa(self):
        d = subdivided_circle_rebuilding(16)
        k = minimal_kappa(d, T=4.0)
        for extra in (0.0, 0.5, 2.0):
            assert quality_check(d, T=4.0, kappa=max(1.0, k) + 1e-9 + extra).overall

    def test_minimal_kappa_infinite_when_big_side_empty(self):
        # valid rebuilding whose big complex has no 1-cells while the small
        # one keeps its 1-cell: no kappa can satisfy the cell bound
        big = CWChainData(alpha=1, cell_counts=(1, 0), boundaries=(IntMatrix.zeros(1, 0),))
        d = RebuildingData(
            Y=big,
            Yprime=circle_complex(),
            g_maps=(IntMatrix.identity(1), IntMatrix.zeros(1, 0)),
            h_maps=(IntMatrix.identity(1), IntMatrix.zeros(0, 1)),
            rho_maps=(IntMatrix.zeros(0, 1),),
        )
        assert validate_rebuilding(d).all_pass
        assert minimal_kappa(d, T=2.0) == float("inf")


class TestJson:
    def test_complex_roundtrip(self):
        c = subdivided_circle_complex(5)
        again = complex_from_dict(complex_to_dict(c))
        assert again.cell_counts == c.cell_counts
        assert again.boundary(1) == c.boundary(1)

    def test_rebuilding_roundtrip(self):
        d = subdivided_circle_rebuilding(4)
        again = rebuilding_from_dict(rebuilding_to_dict(d))
        assert validate_rebuilding(again).all_pass
        assert again.g_maps == d.g_maps
        assert again.rho_maps == d.rho_maps

    def test_malformed_rejected(self):
        with pytest.raises(InputError):
            complex_from_dict({"alpha": 1})
        with pytest.raises(InputError):
            rebuilding_from_dict({"big": complex_to_dict(circle_complex())})

    def test_quality_report_shows_both_sides(self):
        rep = quality_check(subdivided_circle_rebuilding(8), T=8.0, kappa=2.0)
        d = quality_report_to_dict(rep)
        assert d["overall"] is True
        deg0 = d["per_degree"][0]
        assert deg0["cells_small"] == 1 and deg0["cells_big"] == 8
        assert deg0["cells_allowance"] == pytest.approx(2.0)
        for norm in d["per_degree"][1]["norms"]:
            assert set(norm) == {"label", "log_norm", "bound", "ok"}
            assert norm["bound"] == pytest.approx(2.0 * (1.0 + math.log(8.0)))
