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
lmf read the set's squared overlaps: scb finds its smallest cyclic products
by a bitmask dynamic programme, to the bits of a search over every cycle,
and lmf_best tries every ordering.  Each rpz subset is screened on its
d x d frame operator, and only the near-maximal ones are confirmed on their
Gram blocks, for a stack of sets at once (``rpz_profiles``).  Larger pools
first clear the frames that provably lie below their sizes' maxima, and
only the others go to eigvalsh: qutrit pools of 12 kets or more by a closed
form with a proven error bound, other pools of three or more bases and 13
kets or more by a Cholesky certificate (Rump, BIT 46, 433 (2006)) against
thresholds from one candidate frame per size, found by one sort of each
ket's overlaps.  One loop sends the frames that a prefilter keeps to
eigvalsh.  The confirmed subsets stay those of the eigvalsh-only screen.
All three searches are capped, never heuristic.
"""

from __future__ import annotations

import functools
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

# Pooled-vector limit for the majorization profile: the screen covers
# 2^(n-1) d x d frame operators (in closed form for qutrits, by a Cholesky
# certificate for d != 3) and keeps 9 * 2^n bytes of screened values.  At
# n = 24, process time on one core of a 2-vCPU x86 host: 0.7-0.9 s and
# 0.19 GB for random bases of d = 2 (6.9 s and 0.25 GB with the eigvalsh
# screen), 2.2-2.4 s and 0.20 GB for d = 4 (30.3 s and 0.25 GB), 23-24 s
# and 0.26 GB for six copies of one d = 4 basis (37.5 s and 0.28 GB), whose
# ties make the Gram-block confirmation the heaviest; for d = 3, 1.8-1.9 s
# and 0.19 GB for random bases and 5.3-5.4 s and 0.22 GB for eight copies
# of one basis.
MAX_POOL_VECTORS = 24
# The screen's work grows as 2^(n-1) d^3, and a pool is refused past that
# of the worst pool timed above, n = 24 at d = 4: one basis of d = 24 has
# only 24 kets, yet its 2^23 frames of 24 x 24 would take about 330 s.
MAX_SCREEN_WORK = (1 << 23) * 4**3
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
# Pools of d != 3 with at least CERTIFIED_KETS kets, at least three bases
# and d >= 2 clear their frames by a Cholesky certificate, in the chunks of
# the closed form, with thresholds moved CERTIFIED_DELTA * N past the
# confirmation's (README).  With one or two bases, or d = 1, nearly every
# frame ties at its size's maximum on one side and would reach eigvalsh all
# the same: 6497 of 8192 frames at d = 7, N = 2, and the certified screen
# took 151 / 192 ms where eigvalsh took 136 / 134 ms (d = 7, N = 2 and
# d = 13, N = 1).  Median rpz_profile calls, eigvalsh screen against
# certificate, interleaved, process time on one core of a 2-vCPU x86 host:
# d = 2 at n = 14 10.3 / 4.3 ms, d = 5 at n = 15 111 / 55 ms, d = 4 at
# n = 16 132 / 36 ms, d = 2 at n = 18 136 / 32 ms.  12-ket pools would
# gain too (d = 2 3.8 / 2.8 ms, d = 4 11.3 / 7.1 ms), but keep the eigvalsh
# screen call for call, which the tests pin.
CERTIFIED_KETS = 13
CERTIFIED_DELTA = 1e-12
# Best-ordering search is factorial in the number of measurements.
MAX_ORDERING_SEARCH = 5
# The scb cycle search visits at most 2^N N^3 path states.  At d = 2 on one
# core of a 2-vCPU x86 host it takes 0.06 ms at N = 8 and 0.15 ms at N = 9,
# after 0.65 and 1.4 ms to build that N's tables once per process; N = 12
# would take 3 ms after 34 ms.  The cap stays until one cost model sets
# every cap.
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


@functools.lru_cache(maxsize=None)
def _cycle_tables(n: int):
    """Index tables of ``_scb_pieces``'s search over n measurements, built
    once per n: the flat indices f*n + s of the states with S = {s}, then
    per size L = 1..n-1 of S (step, ends, closing).  ``step`` (None at
    L = 1) is each edge's source state and flat index v*n + w, grouped by
    the L-state it enters, and where each group starts; ``ends`` are the
    L-states that close a cycle (all at L = 1, those with v > s above) and
    ``closing`` the flat index v*n + f of their closing edge.
    """
    f, s = np.triu_indices(n, 1)
    first, mask, v = f * n + s, 1 << s, s
    tables = [(None, np.arange(len(f)), s * n + f)]
    w = np.arange(n)
    for _ in range(2, n):
        # state pred goes on to each index nxt above its f and outside its S,
        # into the state (f, s, S + nxt, nxt) that ``key`` numbers
        pred, nxt = np.nonzero((w > f[:, None]) & (mask[:, None] >> w & 1 == 0))
        key = ((f * n + s)[pred] << n | mask[pred] | 1 << nxt) * n + nxt
        order = np.argsort(key, kind="stable")
        pred, nxt, key = pred[order], nxt[order], key[order]
        starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        step = (pred, v[pred] * n + nxt, starts)
        f, s, mask, v = f[pred][starts], s[pred][starts], (mask[pred] | 1 << nxt)[starts], nxt[starts]
        ends = np.flatnonzero(v > s)
        tables.append((step, ends, v[ends] * n + f[ends]))
    return first, tables


def _smallest_cycle_products(c: np.ndarray) -> list:
    """P_2..P_n of the n x n overlap matrix c, by the search of
    ``_scb_pieces`` over the states of ``_cycle_tables``."""
    first, tables = _cycle_tables(len(c))
    flat = c.ravel()
    prods = flat[first]
    products = []
    for step, ends, closing in tables:
        if step is not None:
            pred, edge, starts = step
            prods = np.minimum.reduceat(prods[pred] * flat[edge], starts)
        products.append((prods[ends] * flat[closing]).min())
    return products


def _scb_pieces(ms: MeasurementSet) -> tuple[tuple[float, float], ...]:
    """The scb pieces (0, N) and (-1/2 log2 P_k, N - k/2), with P_k the
    smallest product c[f, s] c[s, .] ... c[v, f] over the cycles of k
    distinct measurements, c the pairwise overlap matrix.

    Each cycle is taken once: from its smallest index f, and for k >= 3 in
    the direction whose second index s is below its last v (c is symmetric,
    so a reversed cycle has the same product).  A bitmask dynamic programme
    (Held & Karp, J. SIAM 10, 196 (1962)) over the states (f, s, S, v), a
    path from f through the set S above f, keeps each state's smallest path
    product, multiplied left to right as the cycle reads.  That is exact:
    for c >= 0 the rounded product fl(x c) is monotone in x, so extending
    the smallest prefix gives the same float as extending every path and
    taking the smallest, and P_k has the bits of a search over every
    cycle.  At most 2^N N^3 states and 2^N N^4 products; each path length
    is one gather, one multiply and one ``np.minimum.reduceat``, and each
    close one gather, one multiply and one min.  Refused past
    MAX_SCB_MEASUREMENTS before the overlaps or any table.
    """
    n = len(ms)
    if n > MAX_SCB_MEASUREMENTS:
        raise CapacityError(f"scb chains limited to {MAX_SCB_MEASUREMENTS} measurements, got {n}")
    # c[i, j] is overlap_c of bases i < j, mirrored; no cycle reads c[i, i].
    c = np.minimum(np.triu(ms.squared_overlaps.max(axis=(2, 3)), 1), 1.0)
    c = c + c.T
    products = _smallest_cycle_products(c)
    return ((0.0, float(n)), *((-0.5 * math.log2(p), n - k / 2.0) for k, p in enumerate(products, 2)))


def scb_bound(measurements, rho) -> float:
    """Cyclic-chain bound: max over chain lengths k in {0, 2..N} of
    -1/2 log2(smallest cyclic overlap product of k distinct measurements)
    + (N - k/2) S(rho); the k = 0 term is N S(rho).

    The smallest products come from a bitmask dynamic programme, to the
    bits of a search over every cycle (``_scb_pieces``).  Limited to
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


def _popcounts(k: int) -> np.ndarray:
    """The popcount of each bitmask of k bits, by the subset doubling."""
    sizes = np.zeros(1 << k, dtype=np.uint8)
    for i in range(k):
        np.add(sizes[: 1 << i], 1, out=sizes[1 << i : 2 << i])
    return sizes


def _ket_frames(v: np.ndarray) -> np.ndarray:
    """|v><v| of the ket v[s] of each set s, shaped (set, 1, d, d) as
    ``_subset_frames`` adds it."""
    return v[:, None, :, None] * v.conj()[:, None, None, :]


def _subset_frames(kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame operator sum_{i in S} |v_i><v_i| of every subset S of the kets
    ``kets[s]`` of each set s, indexed by (s, bitmask) with bit i set when
    ket i is in S, and the size |S| of each bitmask."""
    n_sets, k, d = kets.shape
    frames = np.zeros((n_sets, 1 << k, d, d), dtype=complex)
    for i in range(k):
        np.add(frames[:, : 1 << i], _ket_frames(kets[:, i]), out=frames[:, 1 << i : 2 << i])
    return frames, _popcounts(k)


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


def _cholesky_completes(a: np.ndarray) -> np.ndarray:
    """Whether the floating-point Cholesky factorization of each Hermitian
    matrix a[0] + i a[1] runs to completion, every pivot positive, for real
    and imaginary parts ``a`` of shape (2, d, d, ...) read from their lower
    triangle, which the factor overwrites.

    Every entry of the factor is a real sum of at most 2d + 1 rounded
    terms, so by Rump's argument (BIT 46, 433 (2006)) a matrix A that
    completes has lambda_min(A) > -sqrt2 g / (1 - g) tr A, with
    g = (2d + 2) u / (1 - (2d + 2) u) and u = 2^-53 (README).  An overflow
    leaves an inf or nan that fails a later pivot.
    """
    d = a.shape[1]
    ok = np.ones(a.shape[3:], dtype=bool)
    conj = np.array([1.0, -1.0]).reshape(2, *[1] * (a.ndim - 2))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(d):
            row = a[:, j, :j]
            pivot = a[0, j, j] - np.einsum("ck...,ck...->...", row, row) if j else a[0, j, j]
            ok &= pivot > 0.0
            if j + 1 == d:
                break
            # L_ij = (A_ij - sum_k L_ik conj(L_jk)) / L_jj for the rows i below j:
            # the real part sums below[c] row[c], the imaginary below[1 - c] conj(row)[c]
            col = a[:, j + 1 :, j]
            if j:
                below = a[:, j + 1 :, :j]
                real = np.einsum("cik...,ck...->i...", below, row)
                imag = np.einsum("cik...,ck...->i...", below[::-1], row * conj)
                col = col - np.stack([real, imag])
            np.divide(col, np.sqrt(np.where(pivot > 0.0, pivot, 1.0)), out=a[:, j + 1 :, j])
    return ok


def _popcount_runs(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order that sorts ``sizes``, the popcounts of the bitmasks
    0, 1, 2, ..., and where each popcount's run starts in that order."""
    order = np.argsort(sizes, kind="stable")
    return order, np.searchsorted(sizes[order], np.arange(int(sizes[-1]) + 1))


def _rayleigh_candidates(pools: np.ndarray, n_bases: int) -> tuple[np.ndarray, np.ndarray]:
    """Per set and subset size, the frame (a bitmask without the last ket)
    whose subset or complement of that size has the largest lower bound on
    its screened value, as (set, bitmask) arrays, each frame once.

    The bounds are Rayleigh quotients in the pool's own kets,
    <v_i|F_S|v_i> = sum over j in S of |<v_i|v_j>|^2: their max over i
    bounds lambda_max(F_S), and N minus their min the complement's value.
    Over the k-subsets S of the kets without the last, ket i's largest
    quotient is the sum of its k largest overlaps and its smallest the sum
    of its k smallest, so one sort of each ket's overlaps gives every
    size's best subset and best complement.
    """
    n_sets, n, _ = pools.shape
    g = np.abs(pools.conj() @ pools[:, :-1].transpose(0, 2, 1)) ** 2
    ascending = np.argsort(g, axis=2)
    at, k = np.arange(n_sets)[:, None], np.arange(n + 1)
    zero = np.zeros((n_sets, n, 1), dtype=np.int64)

    def extreme(order, end, best):
        """Per set and k = 0..n, the sum of a ket's first k overlaps in
        ``order`` that ``best`` (argmax or argmin) picks over the kets, and
        its bitmask; no subset has n kets, so k = n sums to ``end``."""
        sums = np.concatenate([zero, np.cumsum(np.take_along_axis(g, order, axis=2), axis=2), zero + end], axis=2)
        masks = np.concatenate([zero, np.cumsum(1 << order, axis=2), zero], axis=2)
        i = best(sums, axis=1)
        return sums[at, i, k], masks[at, i, k]

    subset, subset_masks = extreme(ascending[..., ::-1], -np.inf, np.argmax)
    smallest, complement_masks = extreme(ascending, np.inf, np.argmin)
    # at size s = 0..n: the best subset of s kets against the best complement
    # of a subset of n - s kets
    pick = np.where(subset >= n_bases - smallest[:, ::-1], subset_masks, complement_masks[:, ::-1])
    keys = np.unique(np.arange(n_sets)[:, None] * (1 << (n - 1)) + pick)
    return keys >> (n - 1), keys & ((1 << (n - 1)) - 1)


def _screen(pools: np.ndarray, n_bases: int, margin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest frame-operator eigenvalue of every subset of each pool,
    indexed (set, bitmask), and the size (popcount) of each bitmask.

    Only the subsets without the last ket are diagonalized, one eigvalsh
    call per value of the high bits; complete bases sum to N * 1, so the
    complement of S gets lambda_max = N - lambda_min(F_S).

    Larger pools are prefiltered in chunks of at most 2^CLOSED_FORM_BITS
    frames, each built from one table of frames as the eigvalsh screen
    builds it, to the bit: a frame is cleared when its subset and its
    complement both lie provably more than ``margin`` below their sizes'
    eigvalsh maxima.  One loop asks the prefilter, chunk by chunk, which
    frames to keep, and sends only those to eigvalsh, gathered into calls
    of at most 2^SCREEN_BITS.  So every subset that the confirmation of
    ``_stack_profiles`` would pick, the size's maximum among them, gets its
    eigvalsh value, every other subset a value below the confirmation
    threshold, and the confirmed subsets are those of the eigvalsh-only
    screen.  The two prefilters differ only in how they clear a frame:

    - Qutrit pools of at least CLOSED_FORM_KETS kets take both extremes of
      every frame from ``_qutrit_extremes``, which errs by at most
      eps = CLOSED_FORM_EPS * N, and keep the frames whose subset or
      complement lies within ``margin`` + 2 eps of its size's closed-form
      maximum; the others keep their closed-form values.
    - Other pools of at least CERTIFIED_KETS kets first diagonalize the
      frames of ``_rayleigh_candidates``; per set and size k, the largest
      of their eigvalsh values is T'_k, at most the size's maximum.  A
      frame is cleared, and its two values stay -inf, when the Cholesky
      factorizations of (T'_|S| - margin - delta) 1 - F_S and
      F_S - (N - T'_(n-|S|) + margin + delta) 1 both complete
      (``_cholesky_completes``); delta = CERTIFIED_DELTA * N covers the
      factorization's rounding and eigvalsh's.  The candidates, a chunk's
      only finite values when it is reached, are not sent again.
    """
    n_sets, n, d = pools.shape
    half = n - 1
    low = min(half, SCREEN_BITS)
    high_frames = _subset_frames(pools[:, low:half])[0]
    full = (1 << n) - 1
    lam = np.full((n_sets, full + 1), -np.inf)
    sizes = _popcounts(n)

    if n < CLOSED_FORM_KETS or (d != 3 and (n < CERTIFIED_KETS or n_bases < 3 or d < 2)):
        low_frames = _subset_frames(pools[:, :low])[0]
        for h in range(high_frames.shape[1]):
            # h = 0 is the empty high subset, whose zero frame would add nothing:
            # the sums start from +0.0, so no entry is -0.0.
            w = np.linalg.eigvalsh(low_frames + high_frames[:, h, None] if h else low_frames)
            start, stop = h << low, (h + 1) << low
            lam[:, start:stop] = w[..., -1]
            lam[:, full - stop + 1 : full - start + 1] = n_bases - w[:, ::-1, 0]
        return lam, sizes

    # A low frame of the eigvalsh screen is the table frame of its first
    # ``bits`` kets plus the ket frames of its other low kets, added in
    # ascending order: the subset doubling's sums, to the bit.
    bits = min(half, CLOSED_FORM_BITS)
    cols, rows = 1 << bits, 1 << (CLOSED_FORM_BITS - bits)
    table = _subset_frames(pools[:, :bits])[0]
    kets = {i: _ket_frames(pools[:, i]) for i in range(bits, low)}
    # (sets, first bitmask, high subset, first low subset) of each chunk; the
    # sizes of a chunk's bitmasks are sizes[start] plus their columns' popcounts
    chunks = [
        (slice(s, s + rows), (h << low) + c, h, c)
        for h, s, c in itertools.product(range(high_frames.shape[1]), range(0, n_sets, rows), range(0, 1 << low, cols))
    ]

    def chunk_frames(at, h, c, table, kets, high, out=None):
        """A chunk's frames from a table, its ket frames and the high-subset
        frames ``high[set, h]``, all in one layout; into ``out`` if given."""
        terms = [kets[i][at] for i in kets if c >> i & 1] + ([high[at, h]] if h else [])
        if not terms:
            if out is None:
                return table[at]
            out[...] = table[at]
            return out
        f = np.add(table[at], terms[0], out=out)
        for term in terms[1:]:
            f += term
        return f

    def views(at, start):
        """lam of a chunk's subsets, and of their complements in reverse order."""
        return lam[at, start : start + cols], lam[at, full - start - cols + 1 : full - start + 1]

    def diagonalize(owners, frame):
        """Store the eigvalsh values of the frames (set, bitmask): lambda_max
        for the subset and N - lambda_min for its complement, at most
        2^SCREEN_BITS frames per call."""
        for b in range(0, owners.size, 1 << SCREEN_BITS):
            o, m = owners[b : b + (1 << SCREEN_BITS)], frame[b : b + (1 << SCREEN_BITS)]
            f = table[o, m & (cols - 1)]
            for i in kets:
                on = (m >> i & 1).astype(bool)
                f[on] += kets[i][o[on], 0]
            # the zero frame of an empty high subset adds nothing, as above
            w = np.linalg.eigvalsh(f + high_frames[o, m >> low])
            lam[o, m] = w[:, -1]
            lam[o, full - m] = n_bases - w[:, 0]

    def gather(keep):
        """``diagonalize`` the frames (set, column) where ``keep(at, start,
        h, c)`` holds, chunk by chunk, as soon as 2^SCREEN_BITS of them are
        pending."""
        pending = []
        for at, start, h, c in chunks:
            i, j = np.nonzero(keep(at, start, h, c))
            pending.append((at.start + i, start + j))
            if sum(owners.size for owners, _ in pending) >= 1 << SCREEN_BITS:
                diagonalize(*(np.concatenate(p) for p in zip(*pending)))
                pending = []
        if pending:
            diagonalize(*(np.concatenate(p) for p in zip(*pending)))

    if d == 3:
        # Within a chunk the sizes are a base plus the popcount of the column;
        # ordered by popcount, each size is one run for reduceat.
        order, runs = _popcount_runs(sizes[:cols])
        top = np.full((n_sets, n + 1), -np.inf)
        for at, start, h, c in chunks:
            lo, hi = _qutrit_extremes(chunk_frames(at, h, c, table, kets, high_frames[:, :, None]))
            own, comp = views(at, start)
            own[:], comp[:] = hi, n_bases - lo[:, ::-1]
            k = sizes[start] + np.arange(runs.size)
            top[at, k] = np.maximum(top[at, k], np.maximum.reduceat(hi[:, order], runs, axis=1))
            top[at, n - k] = np.maximum(top[at, n - k], n_bases - np.minimum.reduceat(lo[:, order], runs, axis=1))
        near = top - (margin + 2.0 * CLOSED_FORM_EPS * n_bases)[:, None]

        def keep(at, start, h, c):
            # Chunk by chunk again, so no (set, bitmask) array of thresholds is
            # held: a frame goes to eigvalsh when its subset or its complement is near.
            own, comp = views(at, start)
            own_near = near[at][:, sizes[start : start + cols]]
            comp_near = near[at][:, sizes[full - start - cols + 1 : full - start + 1]]
            return (own >= own_near) | (comp >= comp_near)[:, ::-1]

    else:
        owners, frame = _rayleigh_candidates(pools, n_bases)
        diagonalize(owners, frame)
        floor = np.full((n_sets, n + 1), -np.inf)
        np.maximum.at(floor, (owners, sizes[frame]), lam[owners, frame])
        np.maximum.at(floor, (owners, n - sizes[frame]), lam[owners, full - frame])
        shift = margin[:, None] + CERTIFIED_DELTA * n_bases
        # by the frame's own size |S|: F_S must lie below upper and above lower
        upper, lower = floor - shift, n_bases - floor[:, ::-1] + shift

        def by_part(f):
            """(set, ..., part, d, d, column): real and imaginary parts, columns last."""
            return np.ascontiguousarray(np.moveaxis(np.stack([f.real, f.imag], axis=-3), -4, -1))

        parts, ket_parts = by_part(table), {i: by_part(v) for i, v in kets.items()}
        high_parts = by_part(high_frames[:, :, None])
        # (set, part, d, d, test, column): the subset's test, then the complement's;
        # n - 1 >= CLOSED_FORM_BITS here, so a chunk is one set's
        tests = np.empty((1, 2, d, d, 2, cols))
        diag = np.arange(d)

        def keep(at, start, h, c):
            chunk_frames(at, h, c, parts, ket_parts, high_parts, out=tests[..., 1, :])
            np.negative(tests[..., 1, :], out=tests[..., 0, :])
            k = sizes[start : start + cols]
            tests[:, 0, diag, diag, 0] += upper[at][:, None, k]
            tests[:, 0, diag, diag, 1] -= lower[at][:, None, k]
            cleared = _cholesky_completes(np.moveaxis(tests, 0, 3)).all(axis=1)
            return ~cleared & ~np.isfinite(views(at, start)[0])

    gather(keep)
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
    # In rows of 2^b consecutive bitmasks, a bitmask's size is its row's base
    # plus the popcount of its column: one reduceat per row in popcount order
    # gives the per-size maxima, then one comparison the picks.  Up to
    # n = SCREEN_BITS + 1 a row is a set's whole screen.
    cols = 1 << min(n, SCREEN_BITS + 1)
    lam = lam.reshape(n_sets, -1, cols)
    base = sizes[::cols]
    order, runs = _popcount_runs(sizes[:cols])
    top = np.full((n_sets, n + 1), -np.inf)
    for r, b in enumerate(base):
        k = b + np.arange(runs.size)
        top[:, k] = np.maximum(top[:, k], np.maximum.reduceat(lam[:, r, order], runs, axis=1))
    threshold = top - margin[:, None]
    picked = []
    for r, b in enumerate(base):
        owner, col = np.nonzero(lam[:, r] >= threshold[:, b + sizes[:cols]])
        picked.append((owner, r * cols + col))
    owners, masks = (np.concatenate(p) for p in zip(*picked))
    by_size = np.argsort(sizes[masks], kind="stable")
    owners, masks = owners[by_size], masks[by_size]
    bounds = np.searchsorted(sizes[masks], np.arange(n + 2))
    s = np.empty((n_sets, n))
    for size in range(1, n + 1):
        best = np.full(n_sets, -np.inf)
        chunk = CONFIRM_ENTRIES // size**2
        for c in range(bounds[size], bounds[size + 1], chunk):
            at = slice(c, min(c + chunk, bounds[size + 1]))
            bits = (masks[at, None] >> np.arange(n)) & 1
            subsets = np.nonzero(bits)[1].reshape(-1, size)
            owner = owners[at]
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
       qutrit pools of CLOSED_FORM_KETS kets or more a closed form, and
       for other pools of CERTIFIED_KETS kets or more a Cholesky
       certificate, first decides which frames eigvalsh must see.
    2. Confirm: per size k, only the subsets screened within ``margin`` of
       the size's screened maximum get their Gram blocks gathered and
       diagonalized as an exhaustive search does (symmetrized Gram
       matrix, ascending indices); S_{k-1} is the largest of those.

    The eigvalsh screen errs by about 1e-14, plus the frame deviation of
    bases that are orthonormal only within ATOL, which widens the margin;
    the prefilters only change values that no confirmation picks.  So the
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
    on the stack it came in.  Limited to MAX_POOL_VECTORS pooled kets and
    to MAX_SCREEN_WORK screen work 2^(n-1) d^3.
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
    if (1 << (n - 1)) * d**3 > MAX_SCREEN_WORK:
        raise CapacityError(
            f"majorization screen limited to 2^(n-1) d^3 <= {MAX_SCREEN_WORK}, got n = {n} kets of dimension {d}"
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
