import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import eurkit.bounds
from eurkit.bounds import (
    CERTIFIED_DELTA,
    CERTIFIED_KETS,
    CLOSED_FORM_BITS,
    CLOSED_FORM_EPS,
    CLOSED_FORM_KETS,
    MAX_ORDERING_SEARCH,
    MAX_POOL_VECTORS,
    MAX_SCB_MEASUREMENTS,
    MAX_SCREEN_WORK,
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
    ATOL,
    CapacityError,
    DataQualityError,
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


def scb_pieces_oracle(ms):
    """The scb pieces by enumerating the cycles of each length k: from the
    smallest index, in the direction whose second index is below the last,
    each product multiplied left to right by ``math.prod``."""
    n = len(ms)
    c = np.minimum(np.triu(MeasurementSet(ms).squared_overlaps.max(axis=(2, 3)), 1), 1.0)
    c = c + c.T
    pieces = [(0.0, float(n))]
    for k in range(2, n + 1):
        cycles = (
            (first, *rest)
            for first in range(n - k + 1)
            for rest in itertools.permutations(range(first + 1, n), k - 1)
            if rest[0] <= rest[-1]  # equal only for k = 2, whose cycle is its own reverse
        )
        prod_k = min(math.prod(c[cyc[t], cyc[(t + 1) % k]] for t in range(k)) for cyc in cycles)
        pieces.append((-0.5 * math.log2(prod_k), n - k / 2.0))
    return tuple(pieces)


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


def near_orthonormal_set(rng, d, n_bases=None):
    # kets with squared norm 1 + 0.99e-9 still pass the orthonormality
    # check, but the frame sum of N bases is off N * 1 by about N * 1e-9
    stretched = random_basis(rng, dim=d).basis * math.sqrt(1.0 + 0.99e-9)
    return ([ProjectiveMeasurement(stretched)] * 2 + random_set(rng, d, (n_bases or 12 // d) - 2))[::-1]


def screen_oracle(pools, n_bases):
    """``bounds._screen`` before the qutrit prefilter: eigvalsh of every
    frame operator, one call per value of the high bits."""
    n_sets, n, _ = pools.shape
    half = n - 1
    low = min(half, eurkit.bounds.SCREEN_BITS)
    low_frames, low_sizes = eurkit.bounds._subset_frames(pools[:, :low])
    high_frames, high_sizes = eurkit.bounds._subset_frames(pools[:, low:half])
    full = (1 << n) - 1
    lam = np.empty((n_sets, full + 1))
    for h in range(high_frames.shape[1]):
        w = np.linalg.eigvalsh(low_frames + high_frames[:, h, None] if h else low_frames)
        start, stop = h << low, (h + 1) << low
        lam[:, start:stop] = w[..., -1]
        lam[:, full - stop + 1 : full - start + 1] = n_bases - w[:, ::-1, 0]
    sizes = (high_sizes[:, None] + low_sizes[None, :]).ravel()
    return lam, np.concatenate([sizes, n - sizes[::-1]])


def pools_of(sets):
    return np.array([np.concatenate([m.basis for m in ms]) for ms in sets])


def screen_margins(pools, n_bases):
    """Each pool's confirmation margin, as ``_stack_profiles`` takes it."""
    frames = pools.transpose(0, 2, 1) @ pools.conj()
    return ATOL + 2.0 * np.max(np.abs(np.linalg.eigvalsh(frames) - n_bases), axis=1)


def confirmed(lam, sizes, margin):
    """Per size, the (set, mask) pairs the confirmation stage picks from a
    screen, with their screened values."""
    picked = []
    for size in range(1, int(sizes.max()) + 1):
        masks = np.flatnonzero(sizes == size)
        screened = lam[:, masks]
        owners, picks = np.nonzero(screened >= (screened.max(axis=1) - margin)[:, None])
        values = screened[owners, picks]
        picked.append(list(zip(owners.tolist(), masks[picks].tolist(), values.tolist())))
    return picked


def assert_screen_confirms_as_oracle(sets):
    pools = pools_of(sets)
    n_bases = len(sets[0])
    margin = screen_margins(pools, n_bases)
    lam, sizes = eurkit.bounds._screen(pools, n_bases, margin)
    oracle_lam, oracle_sizes = screen_oracle(pools, n_bases)
    assert np.array_equal(sizes, oracle_sizes)
    assert confirmed(lam, sizes, margin) == confirmed(oracle_lam, oracle_sizes, margin)


REFERENCE = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"


def reference_pool(n):
    """The bases of the benchmark's recorded rpz pool of n kets, and its recorded profile."""
    case = json.loads(REFERENCE.read_text(encoding="utf-8"))["pool"][f"bounds.rpz_profile.n{n}"]
    bases = [ProjectiveMeasurement([[complex(*z) for z in ket] for ket in b]) for b in case["bases"]]
    return bases, tuple(case["value"])


def every_frame(ms):
    """The frame operator of every subset of the pooled kets without the last."""
    pool = pools_of([ms])[0]
    return eurkit.bounds._subset_frames(pool[None, :-1])[0][0]


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

    def test_pieces_match_cycle_enumeration_on_family_grid(self):
        for a in np.linspace(0.0, 1.0, 101):
            ms = build_family(a)
            assert eurkit.bounds._scb_pieces(ms) == scb_pieces_oracle(ms)

    def test_pieces_match_cycle_enumeration_on_random_pools(self, rng):
        # every other pool repeats a basis, whose overlap c = 1 ties cycles
        for n in range(2, MAX_SCB_MEASUREMENTS + 1):
            for d in (2, 3, 4):
                ms = random_set(rng, d, n)
                if (n + d) % 2:
                    ms[-1] = ms[int(rng.integers(0, n - 1))]
                assert eurkit.bounds._scb_pieces(MeasurementSet(ms)) == scb_pieces_oracle(ms)

    def test_reduces_to_mu_for_pairs(self, rng):
        for _ in range(30):
            r, s = random_basis(rng), random_basis(rng)
            rho = random_density(rng, pure=True)
            assert abs(scb_bound([r, s], rho) - mu_bound(r, s)) < BOUND_TOL

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 6),
        d=st.integers(2, 4),
        pure=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_relabelling_and_global_unitary_invariance(self, seed, n, d, pure):
        rng = np.random.default_rng(seed)
        ms = random_set(rng, d, n)
        rho = random_density(rng, d, pure=pure)
        base = scb_bound(ms, rho)
        relabelled = [ms[i] for i in rng.permutation(n)]
        assert abs(scb_bound(relabelled, rho) - base) < 1e-12
        u = random_basis(rng, dim=d).basis  # its rows are orthonormal: a unitary
        turned = [ProjectiveMeasurement(m.basis @ u.T) for m in ms]
        turned_rho = DensityOperator(u @ rho.matrix @ u.conj().T)
        assert abs(scb_bound(turned, turned_rho) - base) < 1e-12

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


    def test_capacity_refused_before_overlaps(self, rng, monkeypatch):
        tables = []
        monkeypatch.setattr(eurkit.bounds, "_cycle_tables", tables.append)
        ms = MeasurementSet([random_basis(rng, dim=2)] * (MAX_SCB_MEASUREMENTS + 1))
        with pytest.raises(CapacityError):
            scb_bound(ms, DensityOperator.from_ket([1, 0]))
        assert "squared_overlaps" not in ms.__dict__
        assert tables == []

    def test_overlap_matrix_is_overlap_c_of_each_pair(self, rng, monkeypatch):
        # record the overlap matrix that the cycle search multiplies
        matrices = []

        def recording(c):
            matrices.append(c)
            return search(c)

        search = eurkit.bounds._smallest_cycle_products
        monkeypatch.setattr(eurkit.bounds, "_smallest_cycle_products", recording)
        for d, n in ((2, 4), (3, 3), (3, 5), (4, 4)):
            ms = random_set(rng, d, n)
            ms[-1] = ms[0]  # a repeated basis has c = 1
            del matrices[:]
            scb_bound(ms, random_density(rng, d))
            # the k = 2 cycles read (i, j) then (j, i), for i < j
            (c,) = matrices
            pairs = list(itertools.combinations(range(n), 2))
            assert [[c[i, j], c[j, i]] for i, j in pairs] == [[overlap_c(ms[i], ms[j])] * 2 for i, j in pairs]


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

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, MAX_ORDERING_SEARCH),
        d=st.integers(2, 4),
        pure=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_best_ordering_relabelling_and_global_unitary_invariance(self, seed, n, d, pure):
        rng = np.random.default_rng(seed)
        ms = random_set(rng, d, n)
        rho = random_density(rng, d, pure=pure)
        base = lmf_bound_best_ordering(ms, rho)
        relabelled = [ms[i] for i in rng.permutation(n)]
        assert abs(lmf_bound_best_ordering(relabelled, rho) - base) < 1e-12
        u = random_basis(rng, dim=d).basis  # its rows are orthonormal: a unitary
        turned = [ProjectiveMeasurement(m.basis @ u.T) for m in ms]
        turned_rho = DensityOperator(u @ rho.matrix @ u.conj().T)
        assert abs(lmf_bound_best_ordering(turned, turned_rho) - base) < 1e-12

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

    def test_screen_work_limit(self, rng, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("rpz started work past its cap")

        # one basis of d = 24 passes the ket cap, but not the screen's work
        ms = [random_basis(rng, dim=24)]
        assert (1 << 23) * 24**3 > MAX_SCREEN_WORK
        monkeypatch.setattr(np.linalg, "eigvalsh", no_work)
        with pytest.raises(CapacityError):
            rpz_profile(ms)

    def test_screen_work_limit_admits_the_largest_timed_pool(self, rng, monkeypatch):
        # six bases of d = 4, 24 kets: the worst pool whose time is stated
        stacked = []

        def no_profile(pools, n_bases):
            stacked.append(pools.shape)
            return []

        monkeypatch.setattr(eurkit.bounds, "_stack_profiles", no_profile)
        rpz_profiles([random_set(rng, 4, 6)])
        assert stacked == [(1, 24, 4)]

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


class TestQutritPrefilter:
    def test_closed_form_error_bound(self, rng):
        # spectra (c, c, c), (c, c + t, c + t) and (c, c, c + t) with spreads
        # t from 1e-16 to 1e-1 and scales c up to 8, in random eigenbases
        count = 100_000
        c = rng.uniform(0.0, 8.0, count)
        t = np.logspace(-16.0, -1.0, 61)[rng.integers(0, 61, count)] * np.maximum(c, 1e-3)
        kind = np.arange(count) % 3
        spectra = np.stack([c, c + t * (kind == 1), c + t * (kind > 0)], axis=1)
        u = np.array([random_basis(rng, dim=3).basis for _ in range(500)])[rng.integers(0, 500, count)]
        frames = (u.conj().transpose(0, 2, 1) * spectra[:, None, :]) @ u
        frames = [0.5 * (frames + frames.conj().transpose(0, 2, 1))]
        # exact degeneracies: c 1 (p = 0) and two orthogonal kets, whose
        # spectrum (1, 1, 0) gives r = -1 exactly
        frames.append(np.array([x * np.eye(3, dtype=complex) for x in (0.0, 0.1, 1.0, 1.0 / 3.0, 2.0, 8.0)]))
        pair = np.zeros((1, 3, 3), dtype=complex)
        pair[0, 0, 0] = pair[0, 1, 1] = 1.0
        kets = random_basis(rng, dim=3).basis[:2]
        frames += [pair, (kets[:, :, None] * kets.conj()[:, None, :]).sum(axis=0)[None]]
        for n in (12, 15, 18):
            frames.append(every_frame(reference_pool(n)[0]))
        frames = np.concatenate(frames)
        w = np.linalg.eigvalsh(frames)
        lo, hi = eurkit.bounds._qutrit_extremes(frames)
        # relative to the norm, which is at most N for a frame of N bases
        bound = CLOSED_FORM_EPS * np.abs(w).max(axis=1)
        assert np.all(np.abs(hi - w[:, -1]) <= bound)
        assert np.all(np.abs(lo - w[:, 0]) <= bound)

    def test_confirms_the_subsets_of_the_eigvalsh_screen(self, rng):
        for n_bases in (4, 4, 5, 5):
            assert_screen_confirms_as_oracle([random_set(rng, 3, n_bases)])
        assert_screen_confirms_as_oracle([random_set(rng, 3, 6)])

    def test_tie_heavy_pools(self, rng):
        # a repeated basis, and copies of one basis, tie many subsets at a maximum
        for n_bases in (4, 5):
            ms = random_set(rng, 3, n_bases)
            ms[-1] = ms[0]
            assert_screen_confirms_as_oracle([ms])
            assert_screen_confirms_as_oracle([[ms[1]] * n_bases])

    def test_near_orthonormal_pools_and_stacks(self, rng):
        exact = random_set(rng, 3, 4)
        repeated = random_set(rng, 3, 4)
        repeated[2] = repeated[1]
        assert_screen_confirms_as_oracle([near_orthonormal_set(rng, 3)])
        assert_screen_confirms_as_oracle([exact, near_orthonormal_set(rng, 3), repeated, exact])
        assert_screen_confirms_as_oracle([random_set(rng, 3, 4) for _ in range(16)])
        assert_screen_confirms_as_oracle([random_set(rng, 3, 5) for _ in range(3)])

    def test_twelve_ket_profiles_match_gram_block_oracle(self, rng):
        sets = [random_set(rng, 3, 4) for _ in range(4)] + [near_orthonormal_set(rng, 3)]
        sets[1][3] = sets[1][0]
        for ms in sets:
            assert_profile_matches_oracle(ms)
        assert_stack_matches_oracle(sets)

    def test_reference_pool_profiles_are_recorded(self):
        for n in (12, 15, 16, 18):
            bases, recorded = reference_pool(n)
            assert rpz_profile(bases).s_coeffs == recorded

    def test_eighteen_ket_pool_sends_few_frames_to_eigvalsh(self, monkeypatch):
        bases, _ = reference_pool(18)
        calls, chunks = [], []
        eigvalsh, extremes = np.linalg.eigvalsh, eurkit.bounds._qutrit_extremes

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        def chunked(f):
            chunks.append(f.shape)
            return extremes(f)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        monkeypatch.setattr(eurkit.bounds, "_qutrit_extremes", chunked)
        rpz_profile(bases)
        # the frame deviation, the one screen call, then the Gram blocks by size
        assert calls[0] == (1, 3, 3)
        assert len(calls[1]) == 3 and calls[1][1:] == (3, 3) and calls[1][0] <= 300
        assert [shape[-1] for shape in calls[2:]] == sorted(shape[-1] for shape in calls[2:])
        assert calls[2][-1] == 1
        assert all(math.prod(shape[:-2]) <= 1 << CLOSED_FORM_BITS for shape in chunks)
        assert sum(math.prod(shape[:-2]) for shape in chunks) == 1 << 17

    def test_other_pools_keep_the_eigvalsh_screen(self, rng, monkeypatch):
        def no_closed_form(f):
            raise AssertionError("closed form used below the crossover or off d = 3")

        monkeypatch.setattr(eurkit.bounds, "_qutrit_extremes", no_closed_form)
        cases = [[build_family(0.3)], [random_set(rng, 3, 3)] * 2, [random_set(rng, 2, 6)], [random_set(rng, 4, 3)]]
        assert CLOSED_FORM_KETS > 9
        for sets in cases:
            pools = pools_of(sets)
            lam, sizes = eurkit.bounds._screen(pools, len(sets[0]), screen_margins(pools, len(sets[0])))
            oracle_lam, oracle_sizes = screen_oracle(pools, len(sets[0]))
            assert np.array_equal(lam, oracle_lam) and np.array_equal(sizes, oracle_sizes)


def haar_unitaries(rng, d, count):
    z = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=1, axis2=2)
    return q * (phases / np.abs(phases))[:, None, :]


def clears_below(frames, tau, n_bases):
    """The screen's subset test: whether (tau - delta) 1 - F is certified positive definite."""
    parts = np.moveaxis(np.stack([-frames.real, -frames.imag]), 1, -1).copy()
    d = frames.shape[-1]
    parts[0, np.arange(d), np.arange(d)] += tau - CERTIFIED_DELTA * n_bases
    return eurkit.bounds._cholesky_completes(parts)


def clears_above(frames, sigma, n_bases):
    """The screen's complement test: whether F - (sigma + delta) 1 is certified positive definite."""
    parts = np.moveaxis(np.stack([frames.real, frames.imag]), 1, -1).copy()
    d = frames.shape[-1]
    parts[0, np.arange(d), np.arange(d)] -= sigma + CERTIFIED_DELTA * n_bases
    return eurkit.bounds._cholesky_completes(parts)


class TestCertifiedScreen:
    OFFSETS = (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-3, -1e-3)

    def spectra(self, rng, d, count):
        """Ascending spectra in [0, 8]: generic, with a double or triple top
        or bottom, rank-deficient, zero and c * 1."""
        lam = np.sort(rng.uniform(0.0, 8.0, (count, d)), axis=1)
        kind = np.arange(count) % 7
        lam[kind == 1, -2] = lam[kind == 1, -1]
        lam[kind == 2, -3:] = lam[kind == 2, -1:]
        lam[kind == 3, 1] = lam[kind == 3, 0]
        lam[kind == 4, : d // 2] = 0.0
        lam[kind == 5] = 0.0
        lam[kind == 6] = lam[kind == 6, :1]
        return lam

    def frames(self, rng, lam):
        u = haar_unitaries(rng, lam.shape[1], lam.shape[0])
        f = (u * lam[:, None, :]) @ u.conj().transpose(0, 2, 1)
        f = 0.5 * (f + f.conj().transpose(0, 2, 1))
        # c * 1 exactly, c = 0 included, besides the rotated ones
        exact = lam.shape[0] // 7
        f[:exact] = lam[:exact, :1, None] * np.eye(lam.shape[1])
        return f

    def test_certificate_is_sound_and_live(self, rng):
        total = 0
        for d in (2, 3, 4, 5, 6):
            count = 22_050
            lam = self.spectra(rng, d, count)
            f = self.frames(rng, lam)
            # rank-deficient frames of d - 1 random kets of a pool
            kets = np.array([random_basis(rng, dim=d).basis[: d - 1] for _ in range(count // 10)])
            f = np.concatenate([f, np.einsum("kai,kaj->kij", kets, kets.conj())])
            total += len(f)
            w = np.linalg.eigvalsh(f)
            offsets = np.array(self.OFFSETS)[rng.integers(0, len(self.OFFSETS), len(f))]
            n_bases = np.ceil(np.maximum(w[:, -1], 1.0))
            tau = w[:, -1] + offsets
            below = clears_below(f, tau, n_bases)
            assert not np.any(below & (w[:, -1] >= tau))
            assert np.all(below[w[:, -1] <= tau - 1e-6])
            sigma = w[:, 0] + offsets
            above = clears_above(f, sigma, n_bases)
            assert not np.any(above & (w[:, 0] <= sigma))
            assert np.all(above[w[:, 0] >= sigma + 1e-6])
            # the matrices exercise both outcomes of both tests
            assert below.any() and (~below).any() and above.any() and (~above).any()
        assert total >= 100_000

    def test_thresholds_inside_delta_are_never_cleared(self, rng):
        lam = self.spectra(rng, 4, 7000)
        f = self.frames(rng, lam)
        w = np.linalg.eigvalsh(f)
        # within delta of the threshold the certificate must fail even where
        # the exact matrix is definite
        assert not clears_below(f, w[:, -1] + 0.5 * CERTIFIED_DELTA, np.ones(len(f))).any()
        assert not clears_above(f, w[:, 0] - 0.5 * CERTIFIED_DELTA, np.ones(len(f))).any()

    def test_rayleigh_candidates_reach_each_size_exhaustive_bound(self, rng):
        def best_bounds(g, n_bases, owners, masks):
            """Per set and size, the largest Rayleigh bound over the (set, mask)
            frames: max_i q_i at |S|, N - min_i q_i at n - |S|."""
            n = g.shape[1]
            member = (masks[:, None] >> np.arange(n - 1)) & 1
            q = np.einsum("sij,sj->si", g[owners], member.astype(float))
            best = np.full((g.shape[0], n + 1), -np.inf)
            np.maximum.at(best, (owners, member.sum(axis=1)), q.max(axis=1))
            np.maximum.at(best, (owners, n - member.sum(axis=1)), n_bases - q.min(axis=1))
            return best

        cases = [[random_set(rng, d, n_bases)] for d, n_bases in ((2, 3), (2, 6), (2, 7), (3, 4), (4, 3), (5, 2))]
        ms = random_set(rng, 4, 3)
        cases += [[[ms[0]] * 3], [[ms[0], ms[1], ms[0]]], [random_set(rng, 2, 7), near_orthonormal_set(rng, 2, 7)]]
        for sets in cases:
            pools = pools_of(sets)
            n_sets, n, _ = pools.shape
            n_bases = len(sets[0])
            owners, masks = eurkit.bounds._rayleigh_candidates(pools, n_bases)
            assert np.all((masks >= 0) & (masks < 1 << (n - 1)))
            assert len(set(zip(owners.tolist(), masks.tolist()))) == owners.size
            g = np.abs(pools.conj() @ pools[:, :-1].transpose(0, 2, 1)) ** 2
            every = np.arange(1 << (n - 1))
            exhaustive = best_bounds(g, n_bases, np.repeat(np.arange(n_sets), every.size), np.tile(every, n_sets))
            assert np.all(np.isfinite(exhaustive))
            assert np.all(np.abs(best_bounds(g, n_bases, owners, masks) - exhaustive) <= 1e-12)

    def test_confirms_the_subsets_of_the_eigvalsh_screen(self, rng):
        # 18 kets split into 15 low and 2 high kets besides the last
        for d, n_bases in ((2, 7), (2, 8), (4, 4), (5, 3), (7, 2), (2, 9)):
            assert_screen_confirms_as_oracle([random_set(rng, d, n_bases)])

    def test_tie_heavy_pools(self, rng):
        # copies of one basis, and a repeated basis
        for d, n_bases in ((2, 7), (4, 4), (5, 3)):
            ms = random_set(rng, d, n_bases)
            assert_screen_confirms_as_oracle([[ms[0]] * n_bases])
            ms[-1] = ms[0]
            assert_screen_confirms_as_oracle([ms])

    def test_near_orthonormal_pools_and_stacks(self, rng):
        assert_screen_confirms_as_oracle([near_orthonormal_set(rng, 2, 8)])
        assert_screen_confirms_as_oracle([near_orthonormal_set(rng, 4, 4)])
        # 14 and 15 kets: stacks of 4 and 2 sets, one screen each, where
        # every set keeps its own margin and thresholds
        exact, repeated = random_set(rng, 2, 7), random_set(rng, 2, 7)
        repeated[3] = repeated[1]
        assert_screen_confirms_as_oracle([exact, near_orthonormal_set(rng, 2, 7), repeated, exact])
        assert_screen_confirms_as_oracle([near_orthonormal_set(rng, 2, 7), *[random_set(rng, 2, 7) for _ in range(3)]])
        assert_screen_confirms_as_oracle([near_orthonormal_set(rng, 5, 3), random_set(rng, 5, 3)])
        assert_screen_confirms_as_oracle([random_set(rng, 5, 3), near_orthonormal_set(rng, 5, 3)])

    def test_pools_of_one_or_two_bases_keep_the_eigvalsh_screen(self, rng, monkeypatch):
        # every subset of one basis ties at 1, and with two bases nearly every
        # frame ties at N on one side, so no certificate could clear them
        def no_certificate(a):
            raise AssertionError("certificate run on a pool that ties at nearly every frame")

        monkeypatch.setattr(eurkit.bounds, "_cholesky_completes", no_certificate)
        phases = [ProjectiveMeasurement([[np.exp(1j * t)]]) for t in rng.uniform(0.0, 2.0 * np.pi, 14)]
        for sets in ([random_set(rng, 13, 1)], [random_set(rng, 7, 2)], [phases]):
            pools = pools_of(sets)
            lam, sizes = eurkit.bounds._screen(pools, len(sets[0]), screen_margins(pools, len(sets[0])))
            oracle_lam, oracle_sizes = screen_oracle(pools, len(sets[0]))
            assert np.array_equal(lam, oracle_lam) and np.array_equal(sizes, oracle_sizes)

    def test_single_basis_of_dimension_thirteen(self, rng):
        assert_screen_confirms_as_oracle([random_set(rng, 13, 1)])
        assert_profile_matches_oracle(random_set(rng, 13, 1))

    def test_profiles_match_gram_block_oracle(self, rng):
        assert CERTIFIED_KETS <= 14
        sets = [random_set(rng, 2, 7), near_orthonormal_set(rng, 2, 7)]
        sets[0][6] = sets[0][2]
        for ms in sets:
            assert_profile_matches_oracle(ms)
        assert_stack_matches_oracle(sets)

    def test_reference_pool_profile_is_recorded(self):
        bases, recorded = reference_pool(16)
        assert rpz_profile(bases).s_coeffs == recorded

    def test_sixteen_ket_pool_sends_few_frames_to_eigvalsh(self, monkeypatch):
        bases, _ = reference_pool(16)
        calls, chunks = [], []
        eigvalsh, completes = np.linalg.eigvalsh, eurkit.bounds._cholesky_completes

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        def chunked(a):
            chunks.append(a.shape)
            return completes(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        monkeypatch.setattr(eurkit.bounds, "_cholesky_completes", chunked)
        rpz_profile(bases)
        # the frame deviation, the candidates, the uncleared frames, then the
        # Gram blocks by size from 1
        assert calls[0] == (1, 4, 4)
        first_block = next(i for i, shape in enumerate(calls) if shape[-1] == 1)
        screen = calls[1:first_block]
        assert len(screen) >= 2 and all(shape[1:] == (4, 4) for shape in screen)
        assert sum(shape[0] for shape in screen) <= 1000
        assert all(math.prod(shape[:-2]) < 1 << 15 for shape in calls)
        # (part, d, d, set, test, column): both tests of at most 2^12 frames
        assert all(shape[:3] == (2, 4, 4) and shape[4] == 2 for shape in chunks)
        assert all(shape[3] * shape[5] <= 1 << CLOSED_FORM_BITS for shape in chunks)
        assert sum(shape[3] * shape[5] for shape in chunks) == 1 << 15


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


def test_raw_array_state_is_diagonalized_once(rng, monkeypatch):
    # entropy_sum used to admit a raw array once per measurement, and each of
    # scb, lmf and lmf_best_ordering admitted and diagonalized it again: 9
    # eigvalsh of one matrix per report.  The values are those of the
    # DensityOperator of the same matrix.
    ms = build_family(0.3)
    for state in (np.eye(3) / 3, np.array(random_density(rng).matrix)):
        admitted = DensityOperator(state)
        expected = bound_report(ms, admitted)  # also computes the set's pieces and rpz
        expected_sum = entropy_sum(ms, admitted)
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(np.array(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        assert bound_report(ms, state) == expected
        assert len(calls) == 1 and np.array_equal(calls[0], admitted.matrix)
        calls.clear()
        assert entropy_sum(ms, state) == expected_sum
        assert len(calls) == 1
        monkeypatch.undo()


def test_raw_array_entropy_is_diagonalized_once(monkeypatch):
    # von_neumann_entropy used to admit a raw array and then diagonalize the
    # admitted matrix again: 2 eigvalsh per scb_bound on a warm set
    ms = build_family(0.3)
    state = np.eye(3) / 3
    expected = scb_bound(ms, DensityOperator(state))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(a)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    assert scb_bound(ms, state) == expected
    assert len(calls) == 1


@pytest.mark.parametrize(
    "state, message",
    [
        (np.diag([1.0 + 1e-6, -1e-6, 0.0]), r"rho has eigenvalue -1\.0000e-06 below the admission window -1e-09"),
        (np.diag([0.5, 0.6, -0.1]), r"rho has eigenvalue -1\.0000e-01 below the admission window -1e-09"),
        (np.array([[0.5, 1e-6], [0.0, 0.5]]), r"rho is not Hermitian within tolerance \(dev 1\.000e-06\)"),
        (np.eye(2) / 2, r"dimension mismatch: measurement dim 3, state dim 2"),
        (np.diag([0.5, 0.5, 0.1]), r"rho trace deviates from 1 by 1\.000e-01"),
    ],
)
@pytest.mark.parametrize("call", [bound_report, entropy_sum])
def test_raw_array_state_is_refused_as_by_born_probabilities(call, state, message):
    # the one admission keeps the strict window, order and messages of the
    # per-measurement admission in born_probabilities
    error = DataQualityError if "eigenvalue" in message else ValidationError
    with pytest.raises(error, match=f"^{message}$"):
        call(build_family(0.3), state)


@pytest.mark.parametrize("bound", [scb_bound, lmf_bound, lmf_bound_best_ordering])
@pytest.mark.parametrize("rho", [np.eye(4) / 4, DensityOperator(np.eye(2) / 2)])
def test_state_of_another_dimension_is_refused(bound, rho):
    # a 4 x 4 state once gave scb 6.0, above the largest entropy sum 3 log2 3
    with pytest.raises(ValidationError, match="^dimension mismatch: measurement dim 3, state dim "):
        bound(build_family(0.3), rho)


class TestPieceCache:
    def test_reused_set_gives_fresh_set_values(self, rng):
        for d, n in ((2, 2), (3, 3), (2, 4), (3, 5)):
            bases = random_set(rng, d, n)
            states = [random_density(rng, d), random_density(rng, d, pure=True)]
            reused = MeasurementSet(bases)
            for rho in (states[0], states[1], states[0]):
                for bound in (scb_bound, lmf_bound, lmf_bound_best_ordering):
                    assert bound(reused, rho) == bound(MeasurementSet(bases), rho)
                assert rpz_bound(reused) == rpz_bound(MeasurementSet(bases))
                assert bound_report(reused, rho) == bound_report(MeasurementSet(bases), rho)

    def test_pieces_are_computed_once_per_set(self, rng, monkeypatch):
        products, chains = [], []

        def counting_search(c):
            products.append(None)
            return search(c)

        def counting_chain(ms, order):
            chains.append(tuple(order))
            return chain_coefficient(ms, order)

        search, chain_coefficient = eurkit.bounds._smallest_cycle_products, eurkit.bounds._chain_coefficient
        monkeypatch.setattr(eurkit.bounds, "_smallest_cycle_products", counting_search)
        monkeypatch.setattr(eurkit.bounds, "_chain_coefficient", counting_chain)
        ms = MeasurementSet(random_set(rng, 3, 4))
        first = scb_bound(ms, random_density(rng)), lmf_bound(ms, random_density(rng))
        assert products and chains == [(0, 1, 2, 3)]
        del products[:], chains[:]
        second = scb_bound(ms, random_density(rng)), lmf_bound(ms, random_density(rng))
        assert products == [] and chains == []
        assert second != first

    def test_scb_and_lmf_compute_no_rpz_profile(self, rng, monkeypatch):
        def no_profile(*args):
            raise AssertionError("an rpz profile was computed")

        monkeypatch.setattr(eurkit.bounds, "_stack_profiles", no_profile)
        ms = build_family(0.3)
        rho = random_density(rng)
        scb_bound(ms, rho)
        lmf_bound(ms, rho)
        lmf_bound_best_ordering(ms, rho)
