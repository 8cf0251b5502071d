import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from eurkit.documents import builtin_state
from eurkit.entropy import binary_entropy, entropy_sum
from eurkit.family import (
    GRID_POINTS_DEFAULT,
    SWEEP_CHUNK,
    SweepRow,
    build_family,
    default_grid,
    entropy_total_closed_form,
    sweep,
)
from eurkit.linalg import ValidationError, ray_fidelity

CURVE_TOL = 1e-9


class TestBuildFamily:
    def test_labels_and_orthonormality(self):
        for a in (0.0, 0.25, 0.5, 1.0):
            m1, m2, m3 = build_family(a)
            assert (m1.label, m2.label, m3.label) == ("M1", "M2", "M3")
            for m in (m1, m2, m3):
                assert_allclose(m.basis.conj() @ m.basis.T, np.eye(3), atol=1e-12)

    def test_m3_at_half(self):
        m3 = build_family(0.5)[2]
        assert_allclose(m3.basis[0], np.array([1, 1, 0]) / np.sqrt(2.0), atol=1e-12)

    def test_endpoint_a1_m3_rays_coincide_with_m1(self):
        m1, _, m3 = build_family(1.0)
        for v3 in m3.basis:
            assert max(ray_fidelity(v3, v1) for v1 in m1.basis) > 1.0 - 1e-12

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValidationError):
            build_family(bad)

    def test_tolerates_representation_noise_at_endpoints(self):
        build_family(-1e-13)
        build_family(1.0 + 1e-13)


class TestReferenceStates:
    def test_labels_and_purity(self):
        assert [r.state_label for r in sweep([0.5])] == ["minus1", "zero"]
        for label in ("zero", "minus1"):
            rho = builtin_state(label)
            assert abs(rho.matrix.trace().real - 1.0) < 1e-12
            assert abs(rho.purity() - 1.0) < 1e-12

    def test_against_family_closed_forms(self):
        for a in (0.1, 0.4, 0.9):
            ms = build_family(a)
            for label in ("zero", "minus1"):
                total = entropy_sum(ms, builtin_state(label)).total
                assert abs(total - entropy_total_closed_form(a, label)) < CURVE_TOL


class TestClosedForm:
    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60, deadline=None)
    def test_forms_and_ordering(self, a):
        zero = entropy_total_closed_form(a, "zero")
        minus1 = entropy_total_closed_form(a, "minus1")
        assert abs(zero - (1.0 + binary_entropy(a))) < 1e-12
        assert abs(minus1 - binary_entropy(a)) < 1e-12
        assert minus1 <= zero  # the minus1 curve is the family minimum

    def test_symmetry_in_a(self):
        for a in (0.1, 0.3, 0.45):
            assert abs(
                entropy_total_closed_form(a, "minus1") - entropy_total_closed_form(1.0 - a, "minus1")
            ) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(ValidationError):
            entropy_total_closed_form(0.5, "plus1")


class TestSweep:
    def test_minus1_column_on_coarse_grid(self):
        rows = sweep([0.0, 0.5, 1.0])
        minus1 = [r for r in rows if r.state_label == "minus1"]
        assert_allclose([r.entropy_total for r in minus1], [0.0, 1.0, 0.0], atol=CURVE_TOL)

    def test_tightness_point(self):
        (row,) = [r for r in sweep([0.5]) if r.state_label == "minus1"]
        assert abs(row.entropy_total - 1.0) < CURVE_TOL
        assert abs(row.scb - 1.0) < CURVE_TOL

    def test_row_order_and_shape(self):
        rows = sweep([0.25, 0.75])
        assert [(r.a, r.state_label) for r in rows] == [
            (0.25, "minus1"),
            (0.25, "zero"),
            (0.75, "minus1"),
            (0.75, "zero"),
        ]
        assert all(isinstance(r, SweepRow) for r in rows)

    def test_default_grid(self):
        grid = default_grid()
        assert grid.size == GRID_POINTS_DEFAULT == 101
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_dominance_and_nonnegative_rpz(self):
        for r in sweep(np.linspace(0.0, 1.0, 11)):
            assert r.rpz >= 0.0
            assert r.entropy_total >= r.scb - CURVE_TOL
            assert r.entropy_total >= r.lmf - CURVE_TOL
            assert r.entropy_total >= r.rpz - CURVE_TOL

    def test_deterministic(self):
        grid = np.linspace(0.2, 0.8, 7)
        assert sweep(grid) == sweep(grid)

    def test_endpoint_rows_all_zero_for_minus1(self):
        for a in (0.0, 1.0):
            (row,) = [r for r in sweep([a]) if r.state_label == "minus1"]
            assert row.entropy_total == 0.0
            assert row.scb == 0.0
            assert row.lmf == 0.0
            assert row.rpz < CURVE_TOL

    def test_rejects_bad_grids(self):
        with pytest.raises(ValidationError):
            sweep([])
        with pytest.raises(ValidationError):
            sweep([0.2, 1.4])

    def test_chunk_boundary_rows_match_pointwise(self):
        grid = np.linspace(0.0, 1.0, SWEEP_CHUNK + 1)
        assert sweep(grid) == [row for a in grid for row in sweep([a])]

    def test_bad_point_in_later_chunk(self):
        grid = [*np.linspace(0.0, 1.0, SWEEP_CHUNK + 1), 1.4]
        with pytest.raises(ValidationError) as stacked:
            sweep(grid)
        with pytest.raises(ValidationError) as alone:
            build_family(1.4)
        assert str(stacked.value) == str(alone.value)
