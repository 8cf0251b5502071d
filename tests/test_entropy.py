import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from eurkit.documents import BUILTIN_STATES, builtin_state
from eurkit.entropy import (
    EntropyBreakdown,
    binary_entropy,
    entropy_sum,
    shannon_entropy,
    von_neumann_entropy,
)
from eurkit.family import build_family
from eurkit.linalg import DensityOperator, ValidationError, born_probabilities
from eurkit.sampling import random_basis, random_density

H_TOL = 1e-12

# Clamp-only entropy of the bundled experimental matrix (spectrum
# -0.0038, 0.0835, 0.9204; the negative eigenvalue is zeroed, no
# renormalization).  Frozen from the eigenvalue oracle.
REFERENCE_MATRIX_ENTROPY = 0.4092577106229124


class TestShannonEntropy:
    @pytest.mark.parametrize(
        "p, expected",
        [
            ((1.0, 0.0, 0.0), 0.0),
            ((1 / 3, 1 / 3, 1 / 3), math.log2(3.0)),
            ((0.5, 0.25, 0.25), 1.5),
            ((0.5, 0.5), 1.0),
        ],
    )
    def test_known_values(self, p, expected):
        assert abs(shannon_entropy(p) - expected) < H_TOL

    def test_deterministic_vector_returns_plain_zero(self):
        h = shannon_entropy((0.0, 1.0, 0.0))
        assert h == 0.0 and math.copysign(1.0, h) == 1.0

    def test_permutation_invariance(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            assert abs(shannon_entropy(p) - shannon_entropy(p[rng.permutation(4)])) < H_TOL

    def test_small_negative_entries_clamped(self):
        # output magnitude is bounded by the clamp tolerance, not exact zero
        assert abs(shannon_entropy((1.0 + 5e-10, -5e-10))) < 2e-9

    @pytest.mark.parametrize(
        "bad",
        [(0.5, 0.6), (0.5, -0.1, 0.6), (np.nan, 1.0), (), np.ones((2, 2)) / 4],
    )
    def test_rejects_invalid_distributions(self, bad):
        with pytest.raises(ValidationError):
            shannon_entropy(bad)


class TestBinaryEntropy:
    @pytest.mark.parametrize("a, expected", [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)])
    def test_endpoints_and_middle(self, a, expected):
        assert abs(binary_entropy(a) - expected) < H_TOL

    def test_cross_check_against_shannon(self):
        assert abs(binary_entropy(0.11) - shannon_entropy((0.11, 0.89))) < H_TOL

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_symmetry(self, a):
        assert abs(binary_entropy(a) - binary_entropy(1.0 - a)) < 1e-9

    @pytest.mark.parametrize("bad", [-0.01, 1.01, np.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValidationError):
            binary_entropy(bad)


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert abs(von_neumann_entropy(DensityOperator.from_ket([1, 0, 0]))) < H_TOL

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(DensityOperator(np.eye(3) / 3)) - math.log2(3.0)) < H_TOL

    def test_reference_matrix_clamp_only(self):
        from eurkit.tomography import REFERENCE_RECONSTRUCTION

        assert abs(von_neumann_entropy(REFERENCE_RECONSTRUCTION) - REFERENCE_MATRIX_ENTROPY) < 1e-12

    def test_spectrum_oracle(self, rng):
        for _ in range(15):
            rho = random_density(rng)
            lam = np.linalg.eigvalsh(rho.matrix)
            lam = lam[lam > 0]
            assert abs(von_neumann_entropy(rho) + np.sum(lam * np.log2(lam))) < 1e-9

    def test_never_exceeds_measured_entropy(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            m = random_basis(rng)
            assert von_neumann_entropy(rho) <= shannon_entropy(born_probabilities(m, rho)) + 1e-9

    def test_rejects_deep_negativity(self):
        with pytest.raises(ValidationError):
            von_neumann_entropy(np.diag([1.1, -0.1, 0.0]))

    def test_density_operator_is_not_diagonalized_again(self, rng, monkeypatch):
        rho = random_density(rng)
        expected = von_neumann_entropy(np.array(rho.matrix))

        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called after admission")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert von_neumann_entropy(rho) == expected


class TestEntropySum:
    def test_equals_the_checked_shannon_path(self, rng):
        cases = [(build_family(a), builtin_state(label)) for a in np.linspace(0.0, 1.0, 101) for label in BUILTIN_STATES]
        for d in (2, 3, 4):
            for _ in range(10):
                ms = [random_basis(rng, d, label=f"R{i}") for i in range(3)]
                cases.append((ms, random_density(rng, d, pure=bool(rng.integers(2)))))
        for ms, rho in cases:
            per = [shannon_entropy(born_probabilities(m, rho)) for m in ms]
            breakdown = entropy_sum(ms, rho)
            assert breakdown.values == tuple(per)
            assert breakdown.total == sum(per)

    def test_family_closed_forms(self):
        zero = DensityOperator.from_ket([1, 0, 0])
        minus1 = DensityOperator.from_ket([0, 1, 0])
        for a in (0.0, 0.17, 0.5, 0.83, 1.0):
            ms = build_family(a)
            assert abs(entropy_sum(ms, minus1).total - binary_entropy(a)) < 1e-9
            assert abs(entropy_sum(ms, zero).total - (1.0 + binary_entropy(a))) < 1e-9

    def test_repeated_eigenbasis_gives_zero(self):
        m1 = build_family(0.5)[0]
        zero = DensityOperator.from_ket([1, 0, 0])
        assert entropy_sum([m1, m1, m1], zero).total == 0.0

    def test_breakdown_shape(self):
        ms = build_family(0.5)
        bd = entropy_sum(ms, DensityOperator.from_ket([0, 1, 0]))
        assert isinstance(bd, EntropyBreakdown)
        assert bd.labels == ("M1", "M2", "M3")
        assert all(isinstance(label, str) and isinstance(h, float) for label, h in bd.per_measurement)
        assert abs(bd.total - sum(bd.values)) < H_TOL

    def test_total_dominates_state_entropy(self, rng, random_states):
        ms = [random_basis(rng, label=f"R{i}") for i in range(3)]
        for rho in random_states:
            total = entropy_sum(ms, rho).total
            assert total >= 3.0 * von_neumann_entropy(rho) - 1e-9

    def test_rejects_empty_and_mixed_dims(self, rng):
        rho = random_density(rng)
        with pytest.raises(ValidationError):
            entropy_sum([], rho)
        with pytest.raises(ValidationError):
            entropy_sum([random_basis(rng, dim=2), random_basis(rng, dim=3)], rho)
