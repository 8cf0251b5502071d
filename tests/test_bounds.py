import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import eurkit.bounds
from eurkit.bounds import (
    MAX_ORDERING_SEARCH,
    MAX_SCB_MEASUREMENTS,
    BoundReport,
    bound_report,
    lmf_bound,
    lmf_bound_best_ordering,
    lmf_chain_coefficient,
    mu_bound,
    rpz_bound,
    rpz_profile,
    scb_bound,
)
from eurkit.entropy import entropy_sum, von_neumann_entropy
from eurkit.family import build_family
from eurkit.linalg import (
    CapacityError,
    DensityOperator,
    ProjectiveMeasurement,
    ValidationError,
    born_probabilities,
)
from eurkit.sampling import random_basis, random_density

BOUND_TOL = 1e-9

# Frozen oracle values for the family at a = 0.5 (state |-1>), confirmed
# against closed forms: the lmf chain coefficient is exactly 3/4, and the
# rpz deltas are (sqrt5 - 1)/2 and (3 - sqrt5)/2.
LMF_AT_HALF = 0.4150374992788436
RPZ_AT_HALF = 0.9594187282227441
GOLDEN_SQ = (1.0 + math.sqrt(5.0)) / 2.0 + 1.0  # phi^2 = phi + 1

MINUS1 = DensityOperator.from_ket([0, 1, 0])
ZERO = DensityOperator.from_ket([1, 0, 0])


def squared_overlaps(m1, m2):
    return np.abs(m1.basis.conj() @ m2.basis.T) ** 2


def scb_oracle(ms, s):
    """Unclamped scb straight from the definition: every ordered chain."""
    n = len(ms)
    best = n * s
    for k in range(2, n + 1):
        for chain in itertools.permutations(range(n), k):
            prod = 1.0
            for t in range(k):
                c = float(np.max(squared_overlaps(ms[chain[t]], ms[chain[(t + 1) % k]])))
                prod *= min(c, 1.0)
            best = max(best, -0.5 * math.log2(prod) + (n - k / 2) * s)
    return best


def lmf_coefficient_oracle(ms):
    """The lmf coefficient b by exhaustive iteration over index tuples."""
    n, d = len(ms), ms[0].dim
    ov = [squared_overlaps(ms[m], ms[m + 1]) for m in range(n - 1)]
    first_max = ov[0].max(axis=0)  # max_{i1} c(u1_{i1}, u2_{i2})
    best = 0.0
    for i_last in range(d):
        total = 0.0
        for mid in itertools.product(range(d), repeat=n - 2):
            idx = (*mid, i_last)  # (i_2, ..., i_N)
            term = first_max[idx[0]]
            for m in range(1, n - 1):
                term *= ov[m][idx[m - 1], idx[m]]
            total += term
        best = max(best, total)
    return min(best, 1.0)


def random_set(rng, d, n):
    return [random_basis(rng, dim=d, label=f"R{i}") for i in range(n)]


FOURIER_QUTRIT = np.array(
    [[1, 1, 1], [1, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)], [1, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3)]]
) / np.sqrt(3.0)


class TestMuBound:
    def test_identical_bases(self, rng):
        m = random_basis(rng)
        assert mu_bound(m, m) == 0.0

    def test_computational_vs_fourier(self):
        comp = ProjectiveMeasurement(np.eye(3, dtype=complex), "C")
        four = ProjectiveMeasurement(FOURIER_QUTRIT, "F")
        assert abs(mu_bound(comp, four) - math.log2(3.0)) < BOUND_TOL

    def test_shared_eigenvector_forces_zero(self):
        m1, m2, _ = build_family(0.5)
        # M1 and M2 share |-1>, so c = 1 and the bound collapses
        assert mu_bound(m1, m2) == 0.0


class TestScbBound:
    def test_identical_pair_pure_state(self, rng):
        m = random_basis(rng)
        assert scb_bound([m, m], DensityOperator.from_ket([1, 0, 0])) == 0.0

    def test_family_at_half_any_pure_state(self, rng):
        ms = build_family(0.5)
        for rho in (ZERO, MINUS1, random_density(rng, pure=True)):
            assert abs(scb_bound(ms, rho) - 1.0) < BOUND_TOL

    def test_matches_exhaustive_chain_oracle(self, rng):
        for n in (2, 3, 4, 5):
            for d in (2, 3, 4):
                ms = random_set(rng, d, n)
                # a pure state leaves the longest chains to decide the bound
                for rho in (random_density(rng, d), random_density(rng, d, pure=True)):
                    expected = max(scb_oracle(ms, von_neumann_entropy(rho)), 0.0)
                    assert abs(scb_bound(ms, rho) - expected) < 1e-12

    def test_reduces_to_mu_for_pairs(self, rng):
        for _ in range(30):
            r, s = random_basis(rng), random_basis(rng)
            rho = random_density(rng, pure=True)
            assert abs(scb_bound([r, s], rho) - mu_bound(r, s)) < BOUND_TOL

    def test_permutation_invariance(self, rng):
        ms = [random_basis(rng, label=f"R{i}") for i in range(3)]
        rho = random_density(rng)
        base = scb_bound(ms, rho)
        for perm in itertools.permutations(ms):
            assert abs(scb_bound(list(perm), rho) - base) < 1e-12

    def test_rejects_single_measurement(self, rng):
        with pytest.raises(ValidationError):
            scb_bound([random_basis(rng)], MINUS1)

    def test_capacity_refused_before_work(self, rng, monkeypatch):
        def no_work(*args):
            raise AssertionError("scb started work past its cap")

        monkeypatch.setattr(eurkit.bounds, "overlap_c", no_work)
        monkeypatch.setattr(eurkit.bounds, "von_neumann_entropy", no_work)
        ms = [random_basis(rng, dim=2)] * (MAX_SCB_MEASUREMENTS + 1)
        with pytest.raises(CapacityError):
            scb_bound(ms, DensityOperator.from_ket([1, 0]))


class TestLmfBound:
    def test_reduces_to_mu_for_pairs(self, rng):
        for _ in range(30):
            r, s = random_basis(rng), random_basis(rng)
            rho = random_density(rng, pure=True)
            assert abs(lmf_bound([r, s], rho) - mu_bound(r, s)) < BOUND_TOL

    def test_identical_measurements_pure_state(self, rng):
        m = random_basis(rng)
        assert lmf_bound([m, m, m], DensityOperator.from_ket([1, 0, 0])) == 0.0

    def test_family_at_half_frozen_value(self):
        ms = build_family(0.5)
        assert abs(lmf_chain_coefficient(ms) - 0.75) < 1e-12
        assert abs(lmf_bound(ms, MINUS1) - LMF_AT_HALF) < 1e-12

    def test_chain_coefficient_matches_nested_loop_oracle(self, rng):
        for _ in range(40):
            d = int(rng.integers(2, 5))
            ms = random_set(rng, d, int(rng.integers(2, 7)))
            assert abs(lmf_chain_coefficient(ms) - lmf_coefficient_oracle(ms)) < 1e-12

    def test_chain_coefficient_range(self, rng):
        for _ in range(15):
            ms = [random_basis(rng, label=f"R{i}") for i in range(3)]
            b = lmf_chain_coefficient(ms)
            assert 1.0 / 3.0 - 1e-12 <= b <= 1.0

    def test_bound_at_least_state_entropy_term(self, rng):
        for _ in range(15):
            ms = [random_basis(rng, label=f"R{i}") for i in range(3)]
            rho = random_density(rng)
            assert lmf_bound(ms, rho) >= 2.0 * von_neumann_entropy(rho) - BOUND_TOL

    def test_best_ordering_dominates_given_ordering(self, rng):
        for _ in range(10):
            ms = [random_basis(rng, label=f"R{i}") for i in range(3)]
            rho = random_density(rng)
            assert lmf_bound_best_ordering(ms, rho) >= lmf_bound(ms, rho) - 1e-12

    def test_best_ordering_is_max_over_permutations(self, rng):
        for n in (2, 3, 4, 5):
            ms = random_set(rng, 3, n)
            rho = random_density(rng)
            expected = max(lmf_bound(list(perm), rho) for perm in itertools.permutations(ms))
            assert abs(lmf_bound_best_ordering(ms, rho) - expected) < 1e-12

    def test_best_ordering_at_half(self):
        assert abs(lmf_bound_best_ordering(build_family(0.5), MINUS1) - 1.0) < BOUND_TOL

    def test_best_ordering_capacity(self, rng):
        ms = [random_basis(rng, label=f"R{i}") for i in range(MAX_ORDERING_SEARCH + 1)]
        with pytest.raises(CapacityError):
            lmf_bound_best_ordering(ms, MINUS1)

    def test_rejects_single_measurement(self, rng):
        with pytest.raises(ValidationError):
            lmf_bound([random_basis(rng)], MINUS1)


class TestRpzProfile:
    def test_single_measurement_all_ones(self, rng):
        prof = rpz_profile([random_basis(rng)])
        assert_allclose(prof.s_coeffs, np.ones(3), atol=BOUND_TOL)
        assert_allclose(prof.deltas, np.zeros(2), atol=BOUND_TOL)
        # an orthonormal basis majorizes onto (1, 0, 0) up to eigensolver noise
        assert rpz_bound([random_basis(rng)]) < 1e-9

    def test_duplicate_measurement_pair(self, rng):
        m = random_basis(rng)
        prof = rpz_profile([m, m])
        assert abs(prof.s_coeffs[1] - 2.0) < BOUND_TOL

    def test_family_at_half_frozen_profile(self):
        prof = rpz_profile(build_family(0.5))
        expected = (1.0, 2.0, GOLDEN_SQ, 3.0, 3.0, 3.0, 3.0, 3.0, 3.0)
        assert_allclose(prof.s_coeffs, expected, atol=1e-9)
        assert len(prof.deltas) == 8
        assert abs(sum(prof.majorizing_vector()) - 3.0) < 1e-9

    def test_profile_monotone_and_bounded(self, rng):
        ms = [random_basis(rng, label=f"R{i}") for i in range(3)]
        prof = rpz_profile(ms)
        s = np.asarray(prof.s_coeffs)
        assert np.all(np.diff(s) >= 0.0)
        assert abs(s[0] - 1.0) < BOUND_TOL
        assert abs(s[-1] - 3.0) < BOUND_TOL  # frame bound of N complete bases
        assert all(d >= 0.0 for d in prof.deltas)

    def test_unitary_invariance(self, rng):
        ms = [random_basis(rng, label=f"R{i}") for i in range(2)]
        u = random_basis(rng).basis.conj().T
        rotated = [ProjectiveMeasurement(m.basis @ u.T, m.label) for m in ms]
        assert_allclose(rpz_profile(rotated).s_coeffs, rpz_profile(ms).s_coeffs, atol=1e-9)

    def test_capacity_limit(self, rng):
        ms = [random_basis(rng, label=f"R{i}") for i in range(9)]  # 27 > 24 pooled kets
        with pytest.raises(CapacityError):
            rpz_profile(ms)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            rpz_profile([])


class TestRpzBound:
    def test_family_at_half_golden_ratio_closed_form(self):
        d1 = (math.sqrt(5.0) - 1.0) / 2.0
        d2 = (3.0 - math.sqrt(5.0)) / 2.0
        expected = -(d1 * math.log2(d1) + d2 * math.log2(d2))
        assert abs(expected - RPZ_AT_HALF) < 1e-15
        assert abs(rpz_bound(build_family(0.5)) - RPZ_AT_HALF) < 1e-12

    def test_qubit_mub_pair_hand_oracle(self):
        comp = ProjectiveMeasurement(np.eye(2, dtype=complex), "Z")
        had = ProjectiveMeasurement(np.array([[1, 1], [1, -1]]) / np.sqrt(2.0), "X")
        prof = rpz_profile([comp, had])
        # hand-computed 4-vector pool: pair Gram [[1, g], [g, 1]] with
        # |g| = 1/sqrt2 peaks at 1 + 1/sqrt2; triples reach the frame
        # bound 2 (a complete basis plus one more ket)
        g = 1.0 / math.sqrt(2.0)
        assert_allclose(prof.s_coeffs, (1.0, 1.0 + g, 2.0, 2.0), atol=1e-9)
        expected = -(g * math.log2(g) + (1.0 - g) * math.log2(1.0 - g))
        assert abs(rpz_bound([comp, had]) - expected) < 1e-9

    def test_nonnegative_across_family(self):
        for a in np.linspace(0.0, 1.0, 21):
            assert rpz_bound(build_family(a)) >= 0.0


class TestDominanceAndMajorization:
    def test_dominance_sample(self, rng):
        for _ in range(60):
            a = rng.uniform()
            ms = build_family(a)
            rho = random_density(rng, pure=bool(rng.integers(2)))
            total = entropy_sum(ms, rho).total
            assert total >= scb_bound(ms, rho) - BOUND_TOL
            assert total >= lmf_bound(ms, rho) - BOUND_TOL
            assert total >= rpz_bound(ms) - BOUND_TOL

    def test_majorization_partial_sums(self, rng):
        for _ in range(40):
            ms = build_family(rng.uniform())
            rho = random_density(rng)
            pooled = np.concatenate([born_probabilities(m, rho) for m in ms])
            lhs = np.cumsum(np.sort(pooled)[::-1])
            rhs = np.cumsum(rpz_profile(ms).majorizing_vector())
            assert np.all(lhs <= rhs + BOUND_TOL)


class TestBoundReport:
    def test_tightness_point(self):
        report = bound_report(build_family(0.5), MINUS1)
        assert isinstance(report, BoundReport)
        assert abs(report.entropy_total - 1.0) < BOUND_TOL
        assert abs(report.scb - 1.0) < BOUND_TOL
        assert report.all_satisfied

    def test_degenerate_endpoint(self):
        report = bound_report(build_family(1.0), MINUS1)
        assert abs(report.entropy_total) < BOUND_TOL
        assert abs(report.scb) < BOUND_TOL
        assert abs(report.lmf) < BOUND_TOL
        assert report.rpz < BOUND_TOL
        assert report.all_satisfied

    def test_maximally_mixed_always_satisfied(self, rng):
        ms = [random_basis(rng, label=f"R{i}") for i in range(3)]
        report = bound_report(ms, DensityOperator(np.eye(3) / 3))
        assert abs(report.entropy_total - 3.0 * math.log2(3.0)) < BOUND_TOL
        assert report.all_satisfied

    def test_pairwise_keys_and_labels(self):
        report = bound_report(build_family(0.5), MINUS1)
        assert report.labels == ("M1", "M2", "M3")
        assert [pair for pair, _ in report.mu_pairwise] == ["M1|M2", "M1|M3", "M2|M3"]
        assert {"scb", "lmf", "rpz", "lmf_best_ordering", "mu:M1|M2", "mu:M1|M3", "mu:M2|M3"} == set(
            report.satisfied
        )

    def test_rejects_bad_slack(self):
        with pytest.raises(ValidationError):
            bound_report(build_family(0.5), MINUS1, slack=-1.0)
