import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import eurkit.bounds
import eurkit.entropy
import eurkit.linalg
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

    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 4),
        n=st.integers(1, 6),
        repeat=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_relabelling_and_global_unitary_invariance_property(self, seed, d, n, repeat):
        # Relabelling (the bases and the kets of each basis reordered) permutes
        # the pooled Gram matrix, and a global unitary moves it by rounding, so
        # the profile moves by eigensolver noise only: within 1e-12.  The bound
        # within 1e-10: its -delta log2 delta terms amplify the noise of the
        # flat tail's increments.
        n = min(n, 12 // d)
        rng = np.random.default_rng(seed)
        ms = random_set(rng, d, n)
        if repeat and n > 1:
            ms[-1] = ms[0]
        base = rpz_profile(ms)
        relabelled = [ProjectiveMeasurement(ms[j].basis[rng.permutation(d)], ms[j].label) for j in rng.permutation(n)]
        u = random_basis(rng, dim=d).basis  # its rows are orthonormal: a unitary
        turned = [ProjectiveMeasurement(m.basis @ u.T, m.label) for m in ms]
        for moved in (relabelled, turned):
            prof = rpz_profile(moved)
            assert_allclose(prof.s_coeffs, base.s_coeffs, rtol=0.0, atol=1e-12)
            assert_allclose(prof.deltas, base.deltas, rtol=0.0, atol=1e-12)
            assert abs(prof.entropy_bound() - base.entropy_bound()) < 1e-10


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


# The one-set kernels before they took a set axis, kept as the oracle of
# the stacked ones: a set's bits must not depend on the stack it came in.
def one_set_cycle_products(c):
    first, tables = eurkit.bounds._cycle_tables(len(c))
    flat = c.ravel()
    prods = flat[first]
    products = []
    for step, ends, closing in tables:
        if step is not None:
            pred, edge, starts = step
            prods = np.minimum.reduceat(prods[pred] * flat[edge], starts)
        products.append((prods[ends] * flat[closing]).min())
    return products


def one_set_scb_pieces(ms):
    n = len(ms)
    c = np.minimum(np.triu(ms.squared_overlaps.max(axis=(2, 3)), 1), 1.0)
    products = one_set_cycle_products(c + c.T)
    return ((0.0, float(n)), *((-0.5 * math.log2(p), n - k / 2.0) for k, p in enumerate(products, 2)))


def one_set_chain_coefficient(ms, order):
    o = ms.squared_overlaps
    v = o[order[0], order[1]].max(axis=0)
    for i, j in zip(order[1:], order[2:]):
        v = v @ o[i, j]
    return float(min(v.max(), 1.0))


def piece_bits(pieces):
    # float.hex tells -0.0 (the piece of a repeated basis) from 0.0
    return [tuple((c.hex(), a.hex()) for c, a in kept) for kept in pieces]


def random_stack(rng, d, n):
    """One to five sets of n bases; a quarter of them repeat a basis."""
    sets = [MeasurementSet(random_set(rng, d, n)) for _ in range(int(rng.integers(1, 6)))]
    for i, ms in enumerate(sets):
        if rng.random() < 0.25:
            sets[i] = MeasurementSet([*ms[:-1], ms[int(rng.integers(0, n - 1))]])
    return sets, np.array([ms.squared_overlaps for ms in sets])


class TestStackedKernels:
    def test_scb_pieces_match_one_set_search(self, rng):
        for n in range(2, MAX_SCB_MEASUREMENTS + 1):
            for d in (2, 3, 4):
                sets, o = random_stack(rng, d, n)
                expected = piece_bits(one_set_scb_pieces(ms) for ms in sets)
                assert piece_bits(eurkit.bounds._stacked_scb_pieces(o)) == expected
                assert piece_bits(eurkit.bounds._scb_pieces(ms) for ms in sets) == expected

    def test_lmf_chain_matches_one_set_chain(self, rng):
        for n in range(2, 17):
            for d in (2, 3, 4):
                sets, o = random_stack(rng, d, n)
                for order in (range(n), rng.permutation(n)):
                    stacked = eurkit.bounds._chain_coefficient(o, order).tolist()
                    assert stacked == [one_set_chain_coefficient(ms, order) for ms in sets]
            if n <= MAX_ORDERING_SEARCH:
                # every ordering of one set as a stack: the best-ordering chain
                orders = list(itertools.permutations(range(n)))
                stack = np.array([sets[0].squared_overlaps[np.ix_(order, order)] for order in orders])
                stacked = eurkit.bounds._chain_coefficient(stack, range(n)).tolist()
                assert stacked == [one_set_chain_coefficient(sets[0], order) for order in orders]

    def test_born_rows_match_one_basis_einsum(self, rng):
        # at d = 2 only a stack of one keeps the bits: einsum sums larger ones in another order
        for d, count in ((2, 1), (3, 1), (3, 48), (4, 17), (5, 5)):
            bases = [random_basis(rng, dim=d) for _ in range(count)]
            for rho in (random_density(rng, d), random_density(rng, d, pure=True)):
                kets = np.concatenate([m.basis for m in bases])
                rows = eurkit.linalg._born_probabilities(kets, rho.matrix).reshape(count, d)
                for m, row in zip(bases, rows):
                    expected = np.einsum("id,de,ie->i", m.basis.conj(), rho.matrix, m.basis).real
                    assert row.tobytes() == expected.tobytes() == born_probabilities(m, rho).tobytes()

    def test_row_entropies_match_entropy_of_clamped(self, rng):
        for k in range(1, 8):
            p = rng.dirichlet(np.ones(k), size=200)
            edges = rng.random(p.shape) < 0.2
            p[edges] = rng.choice([0.0, -0.0, -1e-12, 1.0, 1e-300], size=int(edges.sum()))
            rows = eurkit.entropy._row_entropies(p)
            assert [h.hex() for h in rows.tolist()] == [eurkit.entropy._entropy_of_clamped(v).hex() for v in p]

    def test_rayleigh_candidates_are_sorted_frames_each_once(self, rng):
        for d, n_bases in ((2, 7), (4, 4), (5, 3)):
            sets = [random_set(rng, d, n_bases) for _ in range(3)]
            sets[1][-1] = sets[1][0]
            owners, masks = eurkit.bounds._rayleigh_candidates(pools_of(sets), n_bases)
            keys = owners * (1 << (d * n_bases - 1)) + masks
            assert owners.tolist() == sorted(owners.tolist()) and set(owners.tolist()) == {0, 1, 2}
            assert np.all(np.diff(keys) > 0)


def popcounts_oracle(n):
    return np.array([bin(m).count("1") for m in range(1 << n)], dtype=np.uint8)


def picks_oracle(lam, sizes, margin):
    """The confirmation's (set, bitmask) picks as ``_stack_profiles`` made
    them before ``_picks``: per row of 2^(SCREEN_BITS + 1) bitmasks, one
    sort of the row's popcounts and one reduceat for the per-size maxima,
    then a comparison against thresholds gathered by each bitmask's size,
    and a stable sort of all picks by size."""
    n_sets = lam.shape[0]
    n = int(sizes[-1])
    cols = 1 << min(n, eurkit.bounds.SCREEN_BITS + 1)
    lam = lam.reshape(n_sets, -1, cols)
    order = np.argsort(sizes[:cols], kind="stable")
    runs = np.searchsorted(sizes[:cols][order], np.arange(int(sizes[cols - 1]) + 1))
    top = np.full((n_sets, n + 1), -np.inf)
    for r, b in enumerate(sizes[::cols]):
        k = b + np.arange(runs.size)
        top[:, k] = np.maximum(top[:, k], np.maximum.reduceat(lam[:, r, order], runs, axis=1))
    threshold = top - margin[:, None]
    picked = []
    for r, b in enumerate(sizes[::cols]):
        owner, col = np.nonzero(lam[:, r] >= threshold[:, b + sizes[:cols]])
        picked.append((owner, r * cols + col))
    owners, masks = (np.concatenate(p) for p in zip(*picked))
    by_size = np.argsort(sizes[masks], kind="stable")
    return owners[by_size], masks[by_size]


def confirm_oracle(pools, owners, masks, sizes):
    """The profiles (s_coeffs, deltas) from the picks as ``_stack_profiles``
    confirmed them before its one bit pass: per size and chunk, a bit pass
    of its own, a three-index gather of the Gram blocks and a per-set max."""
    n_sets, n, _ = pools.shape
    grams = pools.conj() @ pools.transpose(0, 2, 1)
    grams = 0.5 * (grams + grams.conj().transpose(0, 2, 1))
    bounds = np.searchsorted(sizes[masks], np.arange(n + 2))
    s = np.empty((n_sets, n))
    for size in range(1, n + 1):
        best = np.full(n_sets, -np.inf)
        chunk = eurkit.bounds.CONFIRM_ENTRIES // size**2
        for c in range(bounds[size], bounds[size + 1], chunk):
            at = slice(c, min(c + chunk, bounds[size + 1]))
            bits = (masks[at, None].astype(np.int64) >> np.arange(n)) & 1
            subsets = np.nonzero(bits)[1].reshape(-1, size)
            owner = owners[at]
            blocks = grams[owner[:, None, None], subsets[:, :, None], subsets[:, None, :]]
            np.maximum.at(best, owner, np.linalg.eigvalsh(blocks)[:, -1])
        s[:, size - 1] = best
    s = np.maximum.accumulate(s, axis=1)
    return [(tuple(row.tolist()), tuple(np.diff(row).tolist())) for row in s]


def stack_profiles_oracle(pools, n_bases):
    margin = screen_margins(pools, n_bases)
    lam, sizes = eurkit.bounds._screen(pools, n_bases, margin)
    return confirm_oracle(pools, *picks_oracle(lam, sizes, margin), sizes)


def assert_picks_match_oracle(lam, sizes, margin):
    owners, masks = eurkit.bounds._picks(lam, sizes, margin)
    expected_owners, expected_masks = picks_oracle(lam, sizes, margin)
    assert owners.tolist() == expected_owners.tolist()
    assert masks.tolist() == expected_masks.tolist()


class TestPicksAndConfirmation:
    def test_picks_of_random_screens(self, rng):
        # n = 2..18 kets; a stack of one to three sets, a tie-heavy stack (a
        # repeated basis, copies of one basis) and a mixed-margin stack (an
        # exact set beside a near-orthonormal one); from n = 17 on a set's
        # screen is two or more rows
        def pool(d, n_bases):
            # a prime n takes n bases of d = 1: one phase each, every subset of a size ties
            if d > 1:
                return random_set(rng, d, n_bases)
            return [ProjectiveMeasurement([[np.exp(2j * np.pi * rng.random())]]) for _ in range(n_bases)]

        for n in range(2, 19):
            d = next(d for d in (4, 3, 2, 1) if n % d == 0)
            n_bases = n // d
            stacks = [[pool(d, n_bases) for _ in range(int(rng.integers(1, 4)))]]
            if n_bases > 1:
                repeated = pool(d, n_bases)
                repeated[-1] = repeated[0]
                stacks.append([repeated, [repeated[1]] * n_bases])
                if d > 1:
                    stacks.append([pool(d, n_bases), near_orthonormal_set(rng, d, n_bases)])
            for sets in stacks:
                pools = pools_of(sets)
                margin = screen_margins(pools, n_bases)
                assert_picks_match_oracle(*eurkit.bounds._screen(pools, n_bases, margin), margin)

    def test_picks_of_tie_heavy_multi_row_stacks(self, rng):
        # values on a grid of quarters tie at every size; margins from 0 up
        for n in (3, 9, 16, 17, 18):
            sizes = popcounts_oracle(n)
            assert np.array_equal(eurkit.bounds._popcounts(n), sizes)
            for grid in (4.0, 2.0**40):
                lam = np.round(rng.uniform(0.0, 3.0, (3, 1 << n)) * grid) / grid
                for margin in (np.array([0.0, 1e-9, 0.3]), np.full(3, 1e-9), np.array([0.5, 0.0, 0.0])):
                    assert_picks_match_oracle(lam, sizes, margin)
                assert_picks_match_oracle(lam[1:2], sizes, margin[1:2])

    def test_profiles_match_the_per_size_confirmation(self, rng):
        cases = [[build_family(a) for a in np.linspace(0.0, 1.0, 16)], [build_family(0.3)]]
        for d, n_bases in ((2, 2), (2, 5), (3, 3), (3, 4), (4, 3), (2, 6)):
            sets = [random_set(rng, d, n_bases) for _ in range(3)]
            sets[1][-1] = sets[1][0]
            cases += [sets, [sets[0]], [sets[2], near_orthonormal_set(rng, d, n_bases), [sets[0][0]] * n_bases]]
        cases += [[random_set(rng, 4, 4)], [reference_pool(18)[0]], [random_set(rng, 2, 9)]]
        for sets in cases:
            pools = pools_of(sets)
            profiles = eurkit.bounds._stack_profiles(pools, len(sets[0]))
            assert [(p.s_coeffs, p.deltas) for p in profiles] == stack_profiles_oracle(pools, len(sets[0]))

    def test_popcount_tables_are_small_read_only_and_exact(self):
        tables = [eurkit.bounds._popcount_table(k) for k in range(eurkit.bounds.ROW_BITS + 1)]
        assert sum(t.nbytes for kept in tables for t in kept) <= 1 << 20
        for k, (sizes, order, starts, lengths) in enumerate(tables):
            assert not any(t.flags.writeable for t in (sizes, order, starts, lengths))
            expected = popcounts_oracle(k)
            assert np.array_equal(sizes, expected)
            assert np.array_equal(order, np.argsort(expected, kind="stable"))
            assert np.array_equal(starts, np.searchsorted(expected[order], np.arange(k + 1)))
            assert lengths.tolist() == [math.comb(k, j) for j in range(k + 1)]


def test_import_builds_no_table():
    # The benchmark's setup_s counts a fresh ``import eurkit``: no
    # lru_cache table builder may run there.
    code = (
        "import json, sys\n"
        "import eurkit\n"
        "caches = {f'{name}.{key}': value.cache_info().currsize\n"
        "          for name, module in list(sys.modules.items()) if name.startswith('eurkit')\n"
        "          for key, value in vars(module).items() if hasattr(value, 'cache_info')}\n"
        "print(json.dumps(caches))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    caches = json.loads(proc.stdout)
    assert {"eurkit.bounds._cycle_tables", "eurkit.bounds._popcount_table"} <= set(caches)
    assert caches == dict.fromkeys(caches, 0)


def record_eigvalsh_calls(monkeypatch, call):
    """The result of ``call()`` and the shapes of the eigvalsh calls it made."""
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    try:
        return call(), shapes
    finally:
        monkeypatch.undo()


def assert_screen_is_the_eigvalsh_screen(monkeypatch, sets):
    """Without a prefilter, ``_screen`` is ``screen_oracle`` call for call: the
    same lam and sizes (==) and the same eigvalsh call shapes."""
    pools = pools_of(sets)
    n_bases = len(sets[0])
    margin = screen_margins(pools, n_bases)
    (lam, sizes), shapes = record_eigvalsh_calls(monkeypatch, lambda: eurkit.bounds._screen(pools, n_bases, margin))
    (oracle_lam, oracle_sizes), oracle_shapes = record_eigvalsh_calls(monkeypatch, lambda: screen_oracle(pools, n_bases))
    assert np.array_equal(lam, oracle_lam) and np.array_equal(sizes, oracle_sizes)
    assert shapes == oracle_shapes


def size_maxima_oracle(lam):
    """Per set and size, the largest value of a screen, by one np.maximum.at
    over popcounts taken bit by bit."""
    n_sets, width = lam.shape
    n = width.bit_length() - 1
    masks = np.arange(width)
    sizes = np.zeros(width, dtype=np.intp)
    for i in range(n):
        sizes += masks >> i & 1
    top = np.full((n_sets, n + 1), -np.inf)
    np.maximum.at(top, (np.arange(n_sets)[:, None], sizes[None, :]), lam)
    return top


class TestOneScreenPipeline:
    def test_pools_without_a_prefilter_are_the_eigvalsh_screen_call_for_call(self, rng, monkeypatch):
        # one 9-ket family set and a stack of 129, one call each; 12-ket pools of d = 2 and 4, below the certificate; one or two
        # bases of d = 13 and 7; 17 one-dimensional kets, whose 16 kets besides
        # the last split into 15 low kets and two high subsets
        phases = [ProjectiveMeasurement([[np.exp(1j * t)]]) for t in rng.uniform(0.0, 2.0 * np.pi, 17)]
        cases = [
            [build_family(0.3)],
            [build_family(a) for a in np.linspace(0.0, 1.0, 129)],
            [random_set(rng, 2, 6)],
            [random_set(rng, 4, 3), random_set(rng, 4, 3)],
            [random_set(rng, 13, 1)],
            [random_set(rng, 7, 2)],
            [phases],
        ]
        for sets in cases:
            assert_screen_is_the_eigvalsh_screen(monkeypatch, sets)

    def test_size_maxima_match_maximum_at(self, rng):
        # n = 1..20: one row of 2^ROW_BITS bitmasks up to n = 16, several from
        # n = 17 on; values on a grid of quarters, so sizes tie, and about a
        # third of them -inf, with one set's screen all -inf but one entry
        for n in range(1, 21):
            sizes = eurkit.bounds._popcounts(n)
            for n_sets in (1, 3):
                lam = np.round(rng.uniform(0.0, 3.0, (n_sets, 1 << n)) * 4.0) / 4.0
                lam[rng.random(lam.shape) < 0.3] = -np.inf
                if n_sets == 3:
                    lam[1] = -np.inf
                    lam[1, rng.integers(1 << n)] = 1.0
                top = eurkit.bounds._size_maxima(lam, sizes)
                assert top.shape == (n_sets, n + 1)
                assert np.array_equal(top, size_maxima_oracle(lam))

    @pytest.mark.parametrize("n", [16, 18])
    def test_reference_pool_peak_stays_in_the_screen_working_set(self, n):
        # The working set of MAX_POOL_VECTORS' comment: 9 * 2^n bytes of screen
        # values and sizes, one table of 2^CLOSED_FORM_BITS complex d x d frames
        # and one chunk buffer, the closed form's as large as the table and the
        # certificate's two tests twice that, plus 128 bytes (sixteen floats)
        # per chunk column of temporaries.  n = 16 runs the certificate
        # (d = 4), n = 18 the closed form (d = 3).
        bases, recorded = reference_pool(n)
        d = bases[0].dim
        rpz_profile(bases)  # the popcount tables, built once per width
        table = (1 << CLOSED_FORM_BITS) * 16 * d * d
        limit = 9 * (1 << n) + table + table * (1 if d == 3 else 2) + (1 << CLOSED_FORM_BITS) * 128
        tracemalloc.start()
        try:
            profile = rpz_profile(bases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert profile.s_coeffs == recorded
        assert peak < limit, f"peak {peak} bytes, working set {limit}"
