"""Lower bounds on the sum of measurement entropies for projective bases.

Every bound of a set of N measurements is max(0, max over its pieces
(c, a) of c + a S(rho)): the constants c and coefficients a depend on the
measurements only, S(rho) is the state's von Neumann entropy in bits, and a
negative lower bound on entropies is vacuous, hence the clamp.

- ``scb_bound``: (0, N), and (-1/2 log2 P_k, N - k/2) for k = 2..N, with
  P_k the smallest cyclic overlap product of k distinct measurements.
- ``lmf_bound``: (-log2 b, N - 1), with b the chained overlap coefficient
  of ``lmf_chain_coefficient`` (the pairwise overlap at N = 2);
  ``lmf_bound_best_ordering`` takes the smallest b over all orderings.
- ``rpz_bound``: (entropy of the majorization profile of the pooled
  measurement vectors, 0), so it needs no state.

``mu_bound`` is the pairwise log-overlap bound they all generalize.  Each
bound's pieces are computed on its first use on a ``MeasurementSet`` and
kept there; an evaluation then costs one entropy (``_evaluate``).  scb and
lmf read the set's squared overlaps and enumerate chains and orderings
exhaustively; each rpz subset is screened on its d x d frame operator,
and only the near-maximal ones are confirmed on their Gram blocks, for a
stack of sets at once (``rpz_profiles``).  Qutrit pools of 12 kets or more
are screened by a closed form with a proven error bound first, and only
the frames that can reach a size's maximum go to eigvalsh, so the
confirmed subsets stay those of the eigvalsh-only screen.  All three
searches are capped, never heuristic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .entropy import _entropy_of_clamped, entropy_sum, von_neumann_entropy
from .linalg import (
    ATOL,
    CapacityError,
    DensityOperator,
    MeasurementSet,
    ProjectiveMeasurement,
    ValidationError,
    as_density_operator,
    as_measurements,
    overlap_c,
)

# Pooled-vector limit for the majorization profile: the screen solves
# 2^(n-1) d x d eigenproblems (in closed form for qutrits) and keeps
# 9 * 2^n bytes of screened values.  At n = 24 on one core of a 2-vCPU x86
# host: 7-22 s and 0.25 GB peak for random bases of d = 2 and 4, 41 s and
# 0.28 GB for six copies of one d = 4 basis, whose ties make the Gram-block
# confirmation the heaviest; for d = 3, 2.0 s and 0.25 GB for random bases
# (17.1 s with the eigvalsh screen) and 6.1 s and 0.28 GB for eight copies
# of one basis (18.8 s).
MAX_POOL_VECTORS = 24
# The rpz screen diagonalizes 2^SCREEN_BITS d x d frame operators per
# eigvalsh call, from as many sets of a stack as fit; the confirmation
# gathers at most CONFIRM_ENTRIES Gram-block entries (8 MB) per call, 2^15
# blocks of size 4, across the sets of the stack.
SCREEN_BITS = 15
CONFIRM_ENTRIES = 1 << 19
# Qutrit pools of at least CLOSED_FORM_KETS kets are screened in closed form
# (``_qutrit_extremes``), at most 2^CLOSED_FORM_BITS frames per chunk, and
# only the frames that can reach a size's maximum go to eigvalsh; the closed
# form errs by less than CLOSED_FORM_EPS * N on frames of N bases (README).
# Median rpz_profiles call, eigvalsh-only screen against closed form, calls
# interleaved on one core of a busy 2-vCPU x86 host: one 9-ket family set
# 1.60 / 1.83 ms, a stack of 16 family sets 11.4 / 13.1 ms, 9 random kets
# 1.75 / 1.69 ms, 12 random kets 6.9 / 3.9 ms, 15 random kets 39 / 8.5 ms.
# Peak RSS of a process that profiles the 18-ket benchmark pool: 49.8 MB
# with the eigvalsh screen, 46.0 MB with chunks of 2^12 frames, 54.5 MB
# with whole 2^15-frame blocks.
CLOSED_FORM_KETS = 12
CLOSED_FORM_BITS = 12
CLOSED_FORM_EPS = 1e-6
# Best-ordering search is factorial in the number of measurements.
MAX_ORDERING_SEARCH = 5
# Cyclic-chain enumeration is factorial in the number of measurements.
MAX_SCB_MEASUREMENTS = 9


def mu_bound(r: ProjectiveMeasurement, s: ProjectiveMeasurement) -> float:
    """Two-measurement bound log2(1/c(R, S)); 0 when a basis ray is shared."""
    return max(0.0, -math.log2(overlap_c(r, s)))


def _evaluate(ms: MeasurementSet, name: str, pieces, rho=None) -> float:
    """max(0, max over the pieces (c, a) of bound ``name`` of c + a S(rho)),
    with ``pieces(ms)`` run on the bound's first use on the set only.  The
    one place where the bounds check the state's dimension; rpz, whose one
    piece has a = 0, is evaluated without a state."""
    kept = ms.memo(name, pieces)
    s = 0.0
    if rho is not None:
        s = von_neumann_entropy(rho)
        dim = rho.dim if isinstance(rho, DensityOperator) else len(rho)
        if dim != ms[0].dim:
            raise ValidationError(f"dimension mismatch: measurement dim {ms[0].dim}, state dim {dim}")
    return max(0.0, max(c + a * s for c, a in kept))


def _scb_pieces(ms: MeasurementSet) -> tuple[tuple[float, float], ...]:
    n = len(ms)
    if n > MAX_SCB_MEASUREMENTS:
        raise CapacityError(f"scb chains limited to {MAX_SCB_MEASUREMENTS} measurements, got {n}")
    # c[i, j] is overlap_c of bases i < j, mirrored; no cycle reads c[i, i].
    c = np.minimum(np.triu(ms.squared_overlaps.max(axis=(2, 3)), 1), 1.0)
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


def scb_bound(measurements, rho) -> float:
    """Cyclic-chain bound: max over chain lengths k in {0, 2..N} of
    -1/2 log2(smallest cyclic overlap product of k distinct measurements)
    + (N - k/2) S(rho); the k = 0 term is N S(rho).

    Each cycle is enumerated once: from its smallest index only, not once
    per rotation, and in one direction only (the overlap matrix is
    symmetric, so a reversed cycle has the same product).  Limited to
    MAX_SCB_MEASUREMENTS measurements.
    """
    ms = as_measurements(measurements, minimum=2)
    return _evaluate(ms, "scb", _scb_pieces, rho)


def _chain_coefficient(ms: MeasurementSet, order) -> float:
    o = ms.squared_overlaps
    v = o[order[0], order[1]].max(axis=0)
    for i, j in zip(order[1:], order[2:]):
        v = v @ o[i, j]
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
    ms = as_measurements(measurements, minimum=2)
    return _chain_coefficient(ms, range(len(ms)))


def _lmf_pieces(ms: MeasurementSet, orders) -> tuple[tuple[float, float], ...]:
    """The one lmf piece, for the smallest chain coefficient b over ``orders``."""
    return ((-math.log2(min(_chain_coefficient(ms, order) for order in orders)), len(ms) - 1.0),)


def lmf_bound(measurements, rho) -> float:
    """Chained bound (N-1) S(rho) - log2 b; sensitive to measurement order."""
    ms = as_measurements(measurements, minimum=2)
    return _evaluate(ms, "lmf", lambda ms: _lmf_pieces(ms, [range(len(ms))]), rho)


def lmf_bound_best_ordering(measurements, rho) -> float:
    """Maximum of the lmf bound over all orderings of the measurements.

    The entropy sum is permutation-invariant, so every ordering yields a
    valid bound; the tightest uses the smallest b.  Factorial search,
    limited to MAX_ORDERING_SEARCH measurements.
    """
    ms = as_measurements(measurements, minimum=2)
    if len(ms) > MAX_ORDERING_SEARCH:
        raise CapacityError(f"ordering search limited to {MAX_ORDERING_SEARCH} measurements, got {len(ms)}")
    return _evaluate(ms, "lmf_best_ordering", lambda ms: _lmf_pieces(ms, itertools.permutations(range(len(ms)))), rho)


@dataclass(frozen=True)
class MajorizationProfile:
    """Subset spectral norms S_0..S_{dN-1} of pooled kets, plus increments.

    ``s_coeffs[k]`` is the largest Gram eigenvalue over all (k+1)-subsets
    of the pooled measurement kets, so S_0 = 1 for normalized kets and
    the sequence climbs to the frame bound N.  ``deltas[i]`` is
    S_{i+1} - S_i (>= 0: S is a running max); the vector (S_0, delta_1, ...)
    majorizes every pooled outcome distribution.
    """

    s_coeffs: tuple[float, ...]
    deltas: tuple[float, ...]

    def majorizing_vector(self) -> tuple[float, ...]:
        return (self.s_coeffs[0], *self.deltas)

    def entropy_bound(self) -> float:
        """-S_0 log2 S_0 - sum_i delta_i log2 delta_i, clamped at 0; the S_0
        term vanishes for normalized bases (S_0 = 1)."""
        return max(0.0, _entropy_of_clamped(np.asarray(self.majorizing_vector())))


def _subset_frames(kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame operator sum_{i in S} |v_i><v_i| of every subset S of the kets
    ``kets[s]`` of each set s, indexed by (s, bitmask) with bit i set when
    ket i is in S, and the size |S| of each bitmask."""
    n_sets, k, d = kets.shape
    frames = np.zeros((n_sets, 1 << k, d, d), dtype=complex)
    sizes = np.zeros(1 << k, dtype=np.uint8)
    for i in range(k):
        v, m = kets[:, i], 1 << i
        np.add(frames[:, :m], v[:, None, :, None] * v.conj()[:, None, None, :], out=frames[:, m : 2 * m])
        np.add(sizes[:m], 1, out=sizes[m : 2 * m])
    return frames, sizes


def _qutrit_extremes(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of each Hermitian 3x3 matrix of
    ``f`` (..., 3, 3), read from its lower triangle as eigvalsh reads it,
    by the trigonometric solution of the characteristic polynomial.

    With q = tr F / 3, p = ||F - q1||_F / sqrt 6 and r = det(F - q1) / 2p^3,
    the eigenvalues are q + 2p cos((arccos r + 2 pi k) / 3), k = 0, 1, 2;
    k = 0 is the largest and k = 1 the smallest.  Near a double eigenvalue
    r is close to +-1, where arccos loses half the digits: the values err
    by less than 7e-8 times the norm, within CLOSED_FORM_EPS (README).
    """
    a0, a1, a2 = f[..., 0, 0].real, f[..., 1, 1].real, f[..., 2, 2].real
    br, bi = f[..., 1, 0].real, f[..., 1, 0].imag
    cr, ci = f[..., 2, 0].real, f[..., 2, 0].imag
    er, ei = f[..., 2, 1].real, f[..., 2, 1].imag
    q = (a0 + a1 + a2) / 3.0
    a0, a1, a2 = a0 - q, a1 - q, a2 - q
    bb, cc, ee = br * br + bi * bi, cr * cr + ci * ci, er * er + ei * ei
    p = np.sqrt((a0 * a0 + a1 * a1 + a2 * a2 + 2.0 * (bb + cc + ee)) / 6.0)
    # det(F - q1) with Re(F10 conj(F20) F21) for the two off-diagonal cycles
    det = a0 * a1 * a2 - a0 * ee - a1 * cc - a2 * bb + 2.0 * ((br * er - bi * ei) * cr + (br * ei + bi * er) * ci)
    p3 = 2.0 * p * p * p
    # p = 0 is F = q1, whose eigenvalues q come out for any r
    r = np.divide(det, p3, out=np.zeros_like(p3), where=p3 > 0.0)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    return q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0), q + 2.0 * p * np.cos(phi)


def _screen(pools: np.ndarray, n_bases: int, margin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest frame-operator eigenvalue of every subset of each pool,
    indexed (set, bitmask), and the size of each bitmask.

    Only the subsets without the last ket are diagonalized, one eigvalsh
    call per value of the high bits; complete bases sum to N * 1, so the
    complement of S gets lambda_max = N - lambda_min(F_S).

    Qutrit pools of at least CLOSED_FORM_KETS kets take both extremes of
    every frame from ``_qutrit_extremes`` instead, in chunks of at most
    2^CLOSED_FORM_BITS frames, and then make one eigvalsh call on the
    frames whose subset or complement lies within ``margin`` + 2 eps of
    its size's closed-form maximum, eps = CLOSED_FORM_EPS * N.  The closed
    form errs by at most eps, so every subset that the confirmation of
    ``_stack_profiles`` would pick, the size's maximum among them, gets
    its eigvalsh value, and every other subset keeps a closed-form value
    below the confirmation threshold: the confirmed subsets are those of
    the eigvalsh-only screen.
    """
    n_sets, n, d = pools.shape
    half = n - 1
    low = min(half, SCREEN_BITS)
    low_frames, low_sizes = _subset_frames(pools[:, :low])
    high_frames, high_sizes = _subset_frames(pools[:, low:half])
    full = (1 << n) - 1
    lam = np.empty((n_sets, full + 1))
    sizes = (high_sizes[:, None] + low_sizes[None, :]).ravel()
    sizes = np.concatenate([sizes, n - sizes[::-1]])

    def keep(rows, start, lo, hi):
        stop = start + hi.shape[1]
        lam[rows, start:stop] = hi
        lam[rows, full - stop + 1 : full - start + 1] = n_bases - lo[:, ::-1]

    if d != 3 or n < CLOSED_FORM_KETS:
        for h in range(high_frames.shape[1]):
            # h = 0 is the empty high subset, whose zero frame would add nothing:
            # the sums start from +0.0, so no entry is -0.0.
            w = np.linalg.eigvalsh(low_frames + high_frames[:, h, None] if h else low_frames)
            keep(slice(None), h << low, w[..., 0], w[..., -1])
        return lam, sizes

    cols = min(low_frames.shape[1], 1 << CLOSED_FORM_BITS)
    rows = (1 << CLOSED_FORM_BITS) // cols
    chunks = list(
        itertools.product(range(high_frames.shape[1]), range(0, n_sets, rows), range(0, low_frames.shape[1], cols))
    )
    # Within a chunk the sizes are a base plus the popcount of the column;
    # ordered by popcount, each size is one run for reduceat.
    order = np.argsort(low_sizes[:cols], kind="stable")
    runs = np.searchsorted(low_sizes[:cols][order], np.arange(low_sizes[cols - 1] + 1))
    top = np.full((n_sets, n + 1), -np.inf)
    for h, s, c in chunks:
        at = slice(s, s + rows)
        lo, hi = _qutrit_extremes(low_frames[at, c : c + cols] + high_frames[at, h, None])
        keep(at, (h << low) + c, lo, hi)
        k = high_sizes[h] + low_sizes[c] + np.arange(runs.size)
        top[at, k] = np.maximum(top[at, k], np.maximum.reduceat(hi[:, order], runs, axis=1))
        top[at, n - k] = np.maximum(top[at, n - k], n_bases - np.minimum.reduceat(lo[:, order], runs, axis=1))
    near = top - (margin + 2.0 * CLOSED_FORM_EPS * n_bases)[:, None]
    # Chunk by chunk again, so no (set, bitmask) array of thresholds is held:
    # a frame goes to eigvalsh when its subset or its complement is near.
    picked = []
    for h, s, c in chunks:
        at, start = slice(s, s + rows), (h << low) + c
        own, comp = slice(start, start + cols), slice(full - start - cols + 1, full - start + 1)
        sent = (lam[at, own] >= near[at, sizes[own]]) | (lam[at, comp] >= near[at, sizes[comp]])[:, ::-1]
        i, j = np.nonzero(sent)
        picked.append((s + i, start + j))
    owners, frame = (np.concatenate(part) for part in zip(*picked))
    # the zero frame of an empty high subset adds nothing, as above, so each
    # gathered frame has the bits that the eigvalsh screen diagonalizes
    w = np.linalg.eigvalsh(low_frames[owners, frame & ((1 << low) - 1)] + high_frames[owners, frame >> low])
    lam[owners, frame] = w[:, -1]
    lam[owners, full - frame] = n_bases - w[:, 0]
    return lam, sizes


def _stack_profiles(pools: np.ndarray, n_bases: int) -> list[MajorizationProfile]:
    """Profiles of a stack of pools (set, ket, component), all screened in
    one ``_screen`` call and confirmed size by size across the stack."""
    n_sets, n, _ = pools.shape
    grams = pools.conj() @ pools.transpose(0, 2, 1)
    grams = 0.5 * (grams + grams.conj().transpose(0, 2, 1))
    frames = pools.transpose(0, 2, 1) @ pools.conj()
    frame_dev = np.max(np.abs(np.linalg.eigvalsh(frames) - n_bases), axis=1)
    margin = ATOL + 2.0 * frame_dev
    lam, sizes = _screen(pools, n_bases, margin)
    s = np.empty((n_sets, n))
    for size in range(1, n + 1):
        masks = np.flatnonzero(sizes == size)
        screened = lam[:, masks]
        owners, picks = np.nonzero(screened >= (screened.max(axis=1) - margin)[:, None])
        masks = masks[picks]
        best = np.full(n_sets, -np.inf)
        chunk = CONFIRM_ENTRIES // size**2
        for c in range(0, masks.size, chunk):
            bits = (masks[c : c + chunk, None] >> np.arange(n)) & 1
            subsets = np.nonzero(bits)[1].reshape(-1, size)
            owner = owners[c : c + chunk]
            blocks = grams[owner[:, None, None], subsets[:, :, None], subsets[:, None, :]]
            np.maximum.at(best, owner, np.linalg.eigvalsh(blocks)[:, -1])
        s[:, size - 1] = best
    # Running max removes 1e-16 dips, so each profile is non-decreasing and
    # its increments are >= 0 exactly.
    s = np.maximum.accumulate(s, axis=1)
    deltas = np.diff(s, axis=1)
    return [MajorizationProfile(tuple(row.tolist()), tuple(inc.tolist())) for row, inc in zip(s, deltas)]


def rpz_profiles(sets) -> list[MajorizationProfile]:
    """Subset-norm profile of the pooled vectors of each measurement set.

    S_{k-1} is the largest eigenvalue of the Gram block of any k-subset S
    of the n pooled kets.  That block shares its nonzero spectrum with the
    d x d frame operator F_S = sum_{i in S} |v_i><v_i|, so the work runs in
    two stages:

    1. Screen: lambda_max(F_S) for every subset (``_screen``).  For
       qutrit pools of CLOSED_FORM_KETS kets or more, a closed form first
       decides which frames eigvalsh must see.
    2. Confirm: per size k, only the subsets screened within ``margin`` of
       the size's screened maximum get their Gram blocks gathered and
       diagonalized as an exhaustive search does (symmetrized Gram
       matrix, ascending indices); S_{k-1} is the largest of those.

    The eigvalsh screen errs by about 1e-14, plus the frame deviation of
    bases that are orthonormal only within ATOL, which widens the margin;
    the closed form only changes values that no confirmation picks.  So the
    confirmed subsets always include the one attaining the exhaustive
    maximum, and the profile is bit-identical to the exhaustive Gram-block
    search.  The frame operators alone would not be: in the flat tail they
    give exactly N where the blocks give N plus rounding noise, and the
    -delta log2 delta terms of ``rpz_bound`` turn that noise into changes
    of about 1e-13.

    The sets are stacked: every set must have the same number N of bases
    of the same dimension d.  One screen covers as many sets as fit in
    2^SCREEN_BITS frame operators per eigvalsh call, and each confirmation
    call gathers the blocks of all those sets, at most CONFIRM_ENTRIES
    entries per call; each set keeps its own margin.  eigvalsh diagonalizes
    every matrix of a batch on its own, so a set's profile does not depend
    on the stack it came in.  Limited to MAX_POOL_VECTORS pooled kets.
    """
    stack = [as_measurements(ms, minimum=1) for ms in sets]
    shapes = {(len(ms), ms[0].dim) for ms in stack}
    if len(shapes) > 1:
        raise ValidationError(f"stacked sets must share (N, d), got {sorted(shapes)}")
    if not stack:
        return []
    ((n_bases, d),) = shapes
    n = n_bases * d
    if n > MAX_POOL_VECTORS:
        raise CapacityError(
            f"majorization profile limited to {MAX_POOL_VECTORS} pooled vectors, got {n}"
        )
    per_call = max(1, (1 << SCREEN_BITS) >> (n - 1))
    profiles = []
    for start in range(0, len(stack), per_call):
        pools = np.array([np.concatenate([m.basis for m in ms]) for ms in stack[start : start + per_call]])
        profiles.extend(_stack_profiles(pools, n_bases))
    return profiles


def rpz_profile(measurements) -> MajorizationProfile:
    """Subset-norm profile of one measurement set: ``rpz_profiles`` of a
    stack of one."""
    return rpz_profiles([measurements])[0]


def rpz_bound(measurements) -> float:
    """State-independent majorization bound of one measurement set, from
    its profile (``MajorizationProfile.entropy_bound``)."""
    ms = as_measurements(measurements, minimum=1)
    return _evaluate(ms, "rpz", lambda ms: ((rpz_profile(ms).entropy_bound(), 0.0),))


# Each bound of a BoundReport: its field (also its JSON key) and its CLI
# --bounds group.  A scalar bound is checked against the entropy total under
# its own name, a pairwise one against each pair's entropies as "<group>:<pair>".
BOUNDS = {"scb": "scb", "lmf": "lmf", "lmf_best_ordering": "lmf", "rpz": "rpz", "mu_pairwise": "mu"}


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

    def checks(self, groups) -> dict[str, bool]:
        """The entries of ``satisfied`` whose bounds are in the --bounds ``groups``."""
        return {key: ok for key, ok in self.satisfied.items() if BOUNDS.get(key, key.partition(":")[0]) in groups}


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
    # A raw array is admitted once, as entropy_sum's Born probabilities
    # would admit it, and every bound then reads the admitted spectrum.
    rho = as_density_operator(rho)
    breakdown = entropy_sum(ms, rho)
    total = breakdown.total
    per = breakdown.values
    pairs = list(itertools.combinations(range(len(ms)), 2))
    values = {
        "scb": scb_bound(ms, rho),
        "lmf": lmf_bound(ms, rho),
        "lmf_best_ordering": lmf_bound_best_ordering(ms, rho) if len(ms) <= MAX_ORDERING_SEARCH else None,
        "rpz": rpz_bound(ms),
        "mu_pairwise": tuple((f"{ms[i].label}|{ms[j].label}", mu_bound(ms[i], ms[j])) for i, j in pairs),
    }
    satisfied = {}
    for name, group in BOUNDS.items():
        value = values[name]
        if isinstance(value, tuple):
            for (pair, v), (i, j) in zip(value, pairs):
                satisfied[f"{group}:{pair}"] = per[i] + per[j] >= v - slack
        elif value is not None:
            satisfied[name] = total >= value - slack
    return BoundReport(total, breakdown.per_measurement, satisfied=satisfied, slack=slack, **values)
