"""Lower bounds on the sum of measurement entropies for projective bases.

Three families of bounds are implemented, plus the pairwise log-overlap
bound they all generalize.  The two state-dependent ones have the form
"a constant from the measurements, plus a multiple of S(rho)":

- ``scb_bound``: max over chain lengths k of -1/2 log2(smallest cyclic
  overlap product of length k) + (N - k/2) S(rho).
- ``lmf_bound``: (N - 1) S(rho) - log2 b, with b the chained overlap
  coefficient of ``lmf_chain_coefficient`` (the pairwise overlap at N = 2).
- ``rpz_bound``: state-independent, from the majorization profile of the
  pooled measurement vectors.

All reported bounds are clamped below at 0 (a negative lower bound on
entropies is vacuous).  Entropies are in bits throughout.  The scb
chains and the lmf orderings are enumerated exhaustively.  Every rpz
subset is screened on its d x d frame operator, and only the
near-maximal ones are confirmed on their Gram blocks (see
``rpz_profile``).  All three searches are capped instead of falling back
to heuristics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .entropy import entropy_sum, von_neumann_entropy
from .linalg import (
    ATOL,
    CapacityError,
    ProjectiveMeasurement,
    ValidationError,
    as_measurements,
    overlap_c,
)

# Pooled-vector limit for the majorization profile: the screen solves
# 2^(n-1) d x d eigenproblems and keeps 9 * 2^n bytes of screened values.
# At n = 24 on one core of a 2-vCPU x86 host: 7-22 s and 0.25 GB peak for
# random bases (d = 2..4), 41 s and 0.28 GB for six copies of one d = 4
# basis, whose ties make the Gram-block confirmation the heaviest.
MAX_POOL_VECTORS = 24
# The rpz screen diagonalizes 2^SCREEN_BITS d x d frame operators per
# eigvalsh call; the confirmation gathers at most CONFIRM_ENTRIES Gram-block
# entries (8 MB) per call, 2^15 blocks of size 4.
SCREEN_BITS = 15
CONFIRM_ENTRIES = 1 << 19
# Best-ordering search is factorial in the number of measurements.
MAX_ORDERING_SEARCH = 5
# Cyclic-chain enumeration is factorial in the number of measurements.
MAX_SCB_MEASUREMENTS = 9


def _overlap_matrix(ms: list[ProjectiveMeasurement]) -> np.ndarray:
    n = len(ms)
    c = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            c[i, j] = c[j, i] = overlap_c(ms[i], ms[j])
    return c


def mu_bound(r: ProjectiveMeasurement, s: ProjectiveMeasurement) -> float:
    """Two-measurement bound log2(1/c(R, S)); 0 when a basis ray is shared."""
    return max(0.0, -math.log2(overlap_c(r, s)))


def scb_bound(measurements, rho) -> float:
    """Cyclic-chain bound: max over chain lengths k in {0, 2..N} of
    -1/2 log2(smallest cyclic overlap product of k distinct measurements)
    + (N - k/2) S(rho); the k = 0 term is N S(rho).

    Each cycle is enumerated once: from its smallest index only, not once
    per rotation, and in one direction only (the overlap matrix is
    symmetric, so a reversed cycle has the same product).
    Limited to MAX_SCB_MEASUREMENTS measurements.
    """
    ms = as_measurements(measurements, minimum=2)
    n = len(ms)
    if n > MAX_SCB_MEASUREMENTS:
        raise CapacityError(f"scb chains limited to {MAX_SCB_MEASUREMENTS} measurements, got {n}")
    c = _overlap_matrix(ms)
    s = von_neumann_entropy(rho)
    best = n * s
    for k in range(2, n + 1):
        cycles = (
            (first, *rest)
            for first in range(n - k + 1)
            for rest in itertools.permutations(range(first + 1, n), k - 1)
            if rest[0] <= rest[-1]  # equal only for k = 2, whose cycle is its own reverse
        )
        prod_k = min(math.prod(c[cyc[t], cyc[(t + 1) % k]] for t in range(k)) for cyc in cycles)
        best = max(best, -0.5 * math.log2(prod_k) + (n - k / 2.0) * s)
    return max(0.0, best)


def _chain_coefficient(ms: list[ProjectiveMeasurement]) -> float:
    overlaps = [np.abs(a.basis.conj() @ b.basis.T) ** 2 for a, b in zip(ms, ms[1:])]
    v = overlaps[0].max(axis=0)
    for o in overlaps[1:]:
        v = v @ o
    return float(min(v.max(), 1.0))


def lmf_chain_coefficient(measurements) -> float:
    """The chained coefficient b of the lmf bound.

    b = max over the final outcome index of the sum over all middle index
    tuples of (max over the first index of the leading overlap) times the
    product of consecutive overlaps.  With O_m the squared-overlap matrix
    of bases m and m+1, that sum is the vector-matrix chain
    (max_i O_1[i, :]) @ O_2 @ ... @ O_{N-1}.  For N = 2 the chain is
    empty, so b reduces to the pairwise overlap c(M1, M2).  Completeness
    of each basis keeps b <= 1.
    """
    return _chain_coefficient(as_measurements(measurements, minimum=2))


def lmf_bound(measurements, rho) -> float:
    """Chained bound (N-1) S(rho) - log2 b; sensitive to measurement order."""
    ms = as_measurements(measurements, minimum=2)
    return max(0.0, (len(ms) - 1) * von_neumann_entropy(rho) - math.log2(_chain_coefficient(ms)))


def lmf_bound_best_ordering(measurements, rho) -> float:
    """Maximum of the lmf bound over all orderings of the measurements.

    The entropy sum is permutation-invariant, so every ordering yields a
    valid bound; the tightest uses the smallest b.  Factorial search,
    limited to MAX_ORDERING_SEARCH measurements.
    """
    ms = as_measurements(measurements, minimum=2)
    if len(ms) > MAX_ORDERING_SEARCH:
        raise CapacityError(
            f"ordering search limited to {MAX_ORDERING_SEARCH} measurements, got {len(ms)}"
        )
    b = min(_chain_coefficient(list(perm)) for perm in itertools.permutations(ms))
    return max(0.0, (len(ms) - 1) * von_neumann_entropy(rho) - math.log2(b))


@dataclass(frozen=True)
class MajorizationProfile:
    """Subset spectral norms S_0..S_{dN-1} of pooled kets, plus increments.

    ``s_coeffs[k]`` is the largest Gram eigenvalue over all (k+1)-subsets
    of the pooled measurement kets, so S_0 = 1 for normalized kets and
    the sequence climbs to the frame bound N.  ``deltas[i]`` is
    S_{i+1} - S_i (clamped at >= 0); the vector (S_0, delta_1, ...)
    majorizes every pooled outcome distribution.
    """

    s_coeffs: tuple[float, ...]
    deltas: tuple[float, ...]

    def majorizing_vector(self) -> tuple[float, ...]:
        return (self.s_coeffs[0], *self.deltas)


def _subset_frames(kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame operator sum_{i in S} |v_i><v_i| and size |S| of every subset S
    of ``kets``, indexed by bitmask (bit i set when ket i is in S)."""
    d = kets.shape[1]
    frames = np.zeros((1, d, d), dtype=complex)
    sizes = np.zeros(1, dtype=np.uint8)
    for v in kets:
        frames = np.concatenate([frames, frames + np.outer(v, v.conj())])
        sizes = np.concatenate([sizes, sizes + 1])
    return frames, sizes


def _screen(pool: np.ndarray, n_bases: int) -> tuple[np.ndarray, np.ndarray]:
    """Largest frame-operator eigenvalue and size of every subset of the pool.

    Only the subsets without the last ket are diagonalized, 2^SCREEN_BITS
    d x d matrices per eigvalsh call; complete bases sum to N * 1, so the
    complement of S gets lambda_max = N - lambda_min(F_S).
    """
    n = pool.shape[0]
    half = n - 1
    low = min(half, SCREEN_BITS)
    low_frames, low_sizes = _subset_frames(pool[:low])
    high_frames, high_sizes = _subset_frames(pool[low:half])
    full = (1 << n) - 1
    lam = np.empty(full + 1)
    for h, high in enumerate(high_frames):
        w = np.linalg.eigvalsh(low_frames + high)
        start, stop = h << low, (h + 1) << low
        lam[start:stop] = w[:, -1]
        lam[full - stop + 1 : full - start + 1] = n_bases - w[::-1, 0]
    sizes = (high_sizes[:, None] + low_sizes[None, :]).ravel()
    return lam, np.concatenate([sizes, n - sizes[::-1]])


def rpz_profile(measurements) -> MajorizationProfile:
    """Compute the subset-norm profile of the pooled measurement vectors.

    S_{k-1} is the largest eigenvalue of the Gram block of any k-subset S
    of the n pooled kets.  That block shares its nonzero spectrum with the
    d x d frame operator F_S = sum_{i in S} |v_i><v_i|, so the work runs in
    two stages:

    1. Screen: lambda_max(F_S) for every subset (``_screen``).
    2. Confirm: per size k, only the subsets screened within ``margin`` of
       the size's screened maximum get their Gram blocks gathered and
       diagonalized as an exhaustive search does (symmetrized Gram
       matrix, ascending indices); S_{k-1} is the largest of those.

    The screen errs by about 1e-14, plus the frame deviation of bases that
    are orthonormal only within ATOL, which widens the margin.  So the
    confirmed subsets always include the one attaining the exhaustive
    maximum, and the profile is bit-identical to the exhaustive Gram-block
    search.  The frame operators alone would not be: in the flat tail they
    give exactly N where the blocks give N plus rounding noise, and the
    -delta log2 delta terms of ``rpz_bound`` turn that noise into changes
    of about 1e-13.  Limited to MAX_POOL_VECTORS pooled kets.
    """
    ms = as_measurements(measurements, minimum=1)
    pool = np.concatenate([m.basis for m in ms], axis=0)
    n = pool.shape[0]
    if n > MAX_POOL_VECTORS:
        raise CapacityError(
            f"majorization profile limited to {MAX_POOL_VECTORS} pooled vectors, got {n}"
        )
    gram = pool.conj() @ pool.T
    gram = 0.5 * (gram + gram.conj().T)
    frame_dev = np.max(np.abs(np.linalg.eigvalsh(pool.T @ pool.conj()) - len(ms)))
    margin = ATOL + 2.0 * frame_dev
    lam, sizes = _screen(pool, len(ms))
    s = np.empty(n)
    for size in range(1, n + 1):
        masks = np.flatnonzero(sizes == size)
        screened = lam[masks]
        masks = masks[screened >= screened.max() - margin]
        best = -np.inf
        chunk = CONFIRM_ENTRIES // size**2
        for c in range(0, masks.size, chunk):
            bits = (masks[c : c + chunk, None] >> np.arange(n)) & 1
            subsets = np.nonzero(bits)[1].reshape(-1, size)
            blocks = gram[subsets[:, :, None], subsets[:, None, :]]
            best = max(best, np.max(np.linalg.eigvalsh(blocks)[:, -1]))
        s[size - 1] = float(best)
    # Running max removes 1e-16 dips so the profile is non-decreasing.
    s = np.maximum.accumulate(s)
    deltas = np.diff(s)
    if deltas.size and deltas.min() < -ATOL:
        raise ValidationError(f"majorization increment {deltas.min():.3e} below -{ATOL:g}")
    deltas = np.clip(deltas, 0.0, None)
    return MajorizationProfile(tuple(float(x) for x in s), tuple(float(x) for x in deltas))


def rpz_bound(measurements) -> float:
    """State-independent majorization bound.

    -S_0 log2 S_0 - sum_i delta_i log2 delta_i over the clamped profile
    increments; the S_0 term vanishes for normalized bases (S_0 = 1).
    """
    profile = rpz_profile(measurements)
    v = np.asarray(profile.majorizing_vector())
    v = v[v > 0.0]
    return max(0.0, float(-np.sum(v * np.log2(v))))


@dataclass(frozen=True)
class BoundReport:
    """Entropy sum of one state against every implemented lower bound."""

    entropy_total: float
    per_measurement: tuple[tuple[str, float], ...]
    scb: float
    lmf: float
    lmf_best_ordering: float | None
    rpz: float
    mu_pairwise: tuple[tuple[str, float], ...]
    satisfied: dict[str, bool]
    slack: float

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.per_measurement)

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied.values())


def bound_report(measurements, rho, *, slack: float = 1e-9) -> BoundReport:
    """Evaluate the entropy sum and all bounds, flagging violations.

    A bound is satisfied when entropy_total >= bound - slack (pairwise mu
    bounds are checked against the entropy sum of their own pair).  The
    best-ordering lmf variant is included for up to MAX_ORDERING_SEARCH
    measurements (None beyond that) and participates in the check.
    """
    ms = as_measurements(measurements, minimum=2)
    if not (math.isfinite(slack) and slack >= 0.0):
        raise ValidationError(f"slack must be a finite non-negative float, got {slack!r}")
    breakdown = entropy_sum(ms, rho)
    total = breakdown.total
    per = breakdown.values
    scb = scb_bound(ms, rho)
    lmf = lmf_bound(ms, rho)
    lmf_best = lmf_bound_best_ordering(ms, rho) if len(ms) <= MAX_ORDERING_SEARCH else None
    rpz = rpz_bound(ms)
    satisfied = {
        "scb": total >= scb - slack,
        "lmf": total >= lmf - slack,
        "rpz": total >= rpz - slack,
    }
    if lmf_best is not None:
        satisfied["lmf_best_ordering"] = total >= lmf_best - slack
    mu_pairs = []
    for i, j in itertools.combinations(range(len(ms)), 2):
        pair = f"{ms[i].label}|{ms[j].label}"
        value = mu_bound(ms[i], ms[j])
        mu_pairs.append((pair, value))
        satisfied[f"mu:{pair}"] = per[i] + per[j] >= value - slack
    return BoundReport(
        entropy_total=total,
        per_measurement=breakdown.per_measurement,
        scb=scb,
        lmf=lmf,
        lmf_best_ordering=lmf_best,
        rpz=rpz,
        mu_pairwise=tuple(mu_pairs),
        satisfied=satisfied,
        slack=slack,
    )
