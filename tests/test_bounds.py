import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import eurkit.bounds
from eurkit.bounds import (
    MAX_ORDERING_SEARCH,
    MAX_POOL_VECTORS,
    MAX_SCB_MEASUREMENTS,
    BoundReport,
    bound_report,
    lmf_bound,
    lmf_bound_best_ordering,
    lmf_chain_coefficient,
    mu_bound,
    rpz_bound,
    rpz_profile,
    rpz_profiles,
    scb_bound,
)
from eurkit.entropy import entropy_sum, von_neumann_entropy
from eurkit.family import build_family
from eurkit.linalg import (
    CapacityError,
    DensityOperator,
    MeasurementSet,
    ProjectiveMeasurement,
    ValidationError,
    born_probabilities,
    overlap_c,
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


def rpz_profile_oracle(ms):
    """The rpz profile (s_coeffs, deltas) by exhaustive Gram-block search:
    the largest eigenvalue of every k-subset's block of the pooled Gram
    matrix, for every k."""
    pool = np.concatenate([m.basis for m in ms], axis=0)
    n = pool.shape[0]
    gram = pool.conj() @ pool.T
    gram = 0.5 * (gram + gram.conj().T)
    s = np.empty(n)
    for size in range(1, n + 1):
        subsets = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(n), size)),
            dtype=np.intp,
        ).reshape(-1, size)
        blocks = gram[subsets[:, :, None], subsets[:, None, :]]
        s[size - 1] = float(np.max(np.linalg.eigvalsh(blocks)[:, -1]))
    s = np.maximum.accumulate(s)
    deltas = np.clip(np.diff(s), 0.0, None)
    return tuple(float(x) for x in s), tuple(float(x) for x in deltas)


def assert_profile_matches_oracle(ms):
    prof = rpz_profile(ms)
    assert (prof.s_coeffs, prof.deltas) == rpz_profile_oracle(ms)


def assert_stack_matches_oracle(sets):
    stacked = rpz_profiles(sets)
    assert stacked == [rpz_profile(ms) for ms in sets]
    assert [(p.s_coeffs, p.deltas) for p in stacked] == [rpz_profile_oracle(ms) for ms in sets]


def random_set(rng, d, n):
    return [random_basis(rng, dim=d, label=f"R{i}") for i in range(n)]


def near_orthonormal_set(rng, d):
    # kets with squared norm 1 + 0.99e-9 still pass the orthonormality
    # check, but the frame sum of N bases is off N * 1 by about N * 1e-9
    stretched = random_basis(rng, dim=d).basis * math.sqrt(1.0 + 0.99e-9)
    return ([ProjectiveMeasurement(stretched)] * 2 + random_set(rng, d, 12 // d - 2))[::-1]


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


    def test_capacity_refused_before_overlaps(self, rng):
        ms = MeasurementSet([random_basis(rng, dim=2)] * (MAX_SCB_MEASUREMENTS + 1))
        with pytest.raises(CapacityError):
            scb_bound(ms, DensityOperator.from_ket([1, 0]))
        assert "squared_overlaps" not in ms.__dict__

    def test_overlap_matrix_is_overlap_c_of_each_pair(self, rng, monkeypatch):
        # scb multiplies entries of its overlap matrix: record every product
        products = []

        class RecordingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def prod(self, factors):
                products.append(list(factors))
                return math.prod(products[-1])

        monkeypatch.setattr(eurkit.bounds, "math", RecordingMath())
        for d, n in ((2, 4), (3, 3), (3, 5), (4, 4)):
            ms = random_set(rng, d, n)
            ms[-1] = ms[0]  # a repeated basis has c = 1
            del products[:]
            scb_bound(ms, random_density(rng, d))
            # the k = 2 cycles come first: (i, j) then (j, i), for i < j
            pairs = list(itertools.combinations(range(n), 2))
            assert products[: len(pairs)] == [[overlap_c(ms[i], ms[j])] * 2 for i, j in pairs]


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

    def test_best_ordering_capacity_refused_before_overlaps(self, rng):
        ms = MeasurementSet([random_basis(rng, label=f"R{i}") for i in range(MAX_ORDERING_SEARCH + 1)])
        with pytest.raises(CapacityError):
            lmf_bound_best_ordering(ms, MINUS1)
        assert "squared_overlaps" not in ms.__dict__

    def test_matches_per_ordering_chain_code(self, rng):
        # the chain code before the overlaps moved onto the set: one
        # product per consecutive pair of every ordering
        def chain_coefficient(ms):
            overlaps = [np.abs(a.basis.conj() @ b.basis.T) ** 2 for a, b in zip(ms, ms[1:])]
            v = overlaps[0].max(axis=0)
            for o in overlaps[1:]:
                v = v @ o
            return float(min(v.max(), 1.0))

        for n in (2, 3, 4, 5):
            for _ in range(4):
                ms = random_set(rng, 3, n)
                rho = random_density(rng)
                b = min(chain_coefficient(list(perm)) for perm in itertools.permutations(ms))
                expected = max(0.0, (n - 1) * von_neumann_entropy(rho) - math.log2(b))
                assert lmf_bound_best_ordering(ms, rho) == expected
                assert lmf_chain_coefficient(ms) == chain_coefficient(ms)

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
        # a global unitary, with the kets of each basis and the bases reordered
        for d, n in ((2, 5), (3, 4), (4, 3)):
            ms = random_set(rng, d, n)
            u = random_basis(rng, dim=d).basis
            moved = [
                ProjectiveMeasurement(m.basis[rng.permutation(d)] @ u.T, m.label)
                for m in (ms[j] for j in rng.permutation(n))
            ]
            base, prof = rpz_profile(ms), rpz_profile(moved)
            assert_allclose(prof.s_coeffs, base.s_coeffs, rtol=0.0, atol=1e-12)
            assert_allclose(prof.deltas, base.deltas, rtol=0.0, atol=1e-12)

    def test_copies_of_one_basis_closed_form(self, rng):
        # a k-subset of N copies of one basis peaks at min(k, N) copies of one ket
        for d in (2, 3, 4):
            m = random_basis(rng, dim=d)
            for n in range(1, 12 // d + 1):
                expected = [min(k, n) for k in range(1, d * n + 1)]
                assert_allclose(rpz_profile([m] * n).s_coeffs, expected, rtol=0.0, atol=1e-12)

    def test_family_grid_matches_gram_block_oracle(self):
        for a in np.linspace(0.0, 1.0, 101):
            assert_profile_matches_oracle(build_family(a))

    def test_random_pools_match_gram_block_oracle(self, rng):
        # every third pool repeats a basis: the tie-heavy case for the screen
        for trial in range(36):
            d = (2, 3, 4)[trial % 3]
            ms = random_set(rng, d, int(rng.integers(1, 12 // d + 1)))
            if trial % 9 < 3 and len(ms) > 1:
                ms[-1] = ms[0]
            assert_profile_matches_oracle(ms)

    def test_near_orthonormal_pools_match_gram_block_oracle(self, rng):
        for d in (2, 3, 4):
            assert_profile_matches_oracle(near_orthonormal_set(rng, d))

    def test_capacity_limit(self, rng, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("rpz started work past its cap")

        ms = [random_basis(rng, label=f"R{i}") for i in range(9)]  # 27 pooled kets
        assert 27 > MAX_POOL_VECTORS
        monkeypatch.setattr(np.linalg, "eigvalsh", no_work)
        with pytest.raises(CapacityError):
            rpz_profile(ms)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            rpz_profile([])


class TestRpzProfiles:
    def test_family_grid_as_one_stack(self):
        assert_stack_matches_oracle([build_family(a) for a in np.linspace(0.0, 1.0, 101)])

    def test_random_stacks(self, rng):
        # about 30% of the sets repeat a basis: the tie-heavy case for the screen
        for trial in range(18):
            d = (2, 3, 4)[trial % 3]
            n_bases = int(rng.integers(1, 12 // d + 1))
            sets = [random_set(rng, d, n_bases) for _ in range(int(rng.integers(1, 5)))]
            for ms in sets:
                if n_bases > 1 and rng.random() < 0.3:
                    ms[-1] = ms[0]
            assert_stack_matches_oracle(sets)

    def test_each_set_keeps_its_own_margin(self, rng):
        # exact sets first and last, so a margin taken from the stack's
        # first or last set, or its smallest, misses the near-orthonormal maxima
        for d in (2, 3, 4):
            exact = random_set(rng, d, 12 // d)
            sets = [exact, near_orthonormal_set(rng, d), near_orthonormal_set(rng, d), exact]
            assert_stack_matches_oracle(sets)

    def test_screen_split_over_eigvalsh_calls(self, monkeypatch):
        # 2^15 frame operators per call hold 128 sets of 9 kets; 129 take two
        screen_calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a):
            if a.ndim == 4:
                screen_calls.append(a.shape[:2])
            return eigvalsh(a)

        sets = [build_family(a) for a in np.linspace(0.0, 1.0, 129)]
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        stacked = rpz_profiles(sets)
        monkeypatch.undo()
        assert screen_calls == [(128, 256), (1, 256)]
        assert stacked == [rpz_profile(ms) for ms in sets]
        assert [(p.s_coeffs, p.deltas) for p in stacked] == [rpz_profile_oracle(ms) for ms in sets]

    def test_empty_stack(self):
        assert rpz_profiles([]) == []

    def test_rejects_mixed_shapes(self, rng):
        for sets in (
            [random_set(rng, 3, 3), random_set(rng, 3, 2)],  # different N
            [random_set(rng, 2, 3), random_set(rng, 3, 2)],  # same pool size, different d
        ):
            with pytest.raises(ValidationError, match="share"):
                rpz_profiles(sets)

    def test_capacity_refused_before_work(self, rng, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("rpz started work past its cap")

        sets = [random_set(rng, 3, 9) for _ in range(2)]  # 27 pooled kets each
        monkeypatch.setattr(np.linalg, "eigvalsh", no_work)
        with pytest.raises(CapacityError):
            rpz_profiles(sets)


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
        assert_profile_matches_oracle([comp, had])
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

    def test_list_and_set_give_equal_values(self, rng):
        for d, n in ((2, 2), (3, 3), (2, 4), (3, 5)):
            ms = random_set(rng, d, n)
            rho = random_density(rng, d)
            as_set = MeasurementSet(ms)
            for _ in range(2):  # the second pass reads the set's cached overlaps
                assert bound_report(as_set, rho) == bound_report(ms, rho)
                for bound in (scb_bound, lmf_bound, lmf_bound_best_ordering):
                    assert bound(as_set, rho) == bound(ms, rho)
                assert lmf_chain_coefficient(as_set) == lmf_chain_coefficient(ms)
                assert rpz_bound(as_set) == rpz_bound(ms)
                assert entropy_sum(as_set, rho) == entropy_sum(ms, rho)
