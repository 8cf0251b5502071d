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
d x d frame operator, and only the near-maximal ones are confirmed on
their Gram blocks, for a stack of sets at once (``rpz_profiles``).  The
screen is one pipeline (``_screen``): every pool's frames are built in
chunks from one table of subset frames, and every per-size maximum comes
from ``_size_maxima``.  Its only per-pool choice is the prefilter that
decides which frames eigvalsh sees: none below 12 kets (13 for d != 3)
and for pools of one or two bases or d = 1; a closed form with a proven
error bound for larger qutrit pools; a Cholesky certificate (Rump, BIT 46,
433 (2006)) against thresholds from one candidate frame per size for
other pools of 13 kets or more.  A prefilter clears only frames that the
confirmation cannot pick, so the confirmed subsets stay those of the
eigvalsh-only screen.  All three searches are capped, never heuristic.
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
    MeasurementSet,
    ProjectiveMeasurement,
    ValidationError,
    as_density_operator,
    as_measurements,
    overlap_c,
)

# rpz_profiles refuses a pool of more than MAX_POOL_VECTORS kets, or one
# whose screen work 2^(n-1) d^3 exceeds MAX_SCREEN_WORK, with a
# CapacityError before any work (test_capacity_limit,
# test_screen_work_limit).  MAX_SCREEN_WORK is the work of 24 kets of d = 4
# (test_screen_work_limit_admits_the_largest_timed_pool): one basis of
# d = 24 has only 24 kets, but 2^23 frames of 24 x 24.  A screen holds
# 9 * 2^n bytes of screen values and sizes (float64 per set, uint8 once);
# a prefiltered one adds one table of 2^CLOSED_FORM_BITS frames and one
# chunk of fill buffers (the closed form's, one table's size) or of test
# buffers (the certificate's two tests, twice that), and every other a
# table and chunks of at most 2^SCREEN_BITS frames of the stack
# (test_reference_pool_peak_stays_in_the_screen_working_set).  Times and
# memory at n = 24 are in CHANGES.md.
MAX_POOL_VECTORS = 24
MAX_SCREEN_WORK = (1 << 23) * 4**3
# The rpz screen diagonalizes 2^SCREEN_BITS d x d frame operators per
# eigvalsh call, from as many sets of a stack as fit; the confirmation
# gathers at most CONFIRM_ENTRIES Gram-block entries (8 MB) per call, 2^15
# blocks of size 4, across the sets of the stack.
SCREEN_BITS = 15
CONFIRM_ENTRIES = 1 << 19
# The per-size maxima (``_size_maxima``) and the pick read the screen in rows
# of 2^ROW_BITS consecutive bitmasks, one set's whole screen up to n =
# ROW_BITS kets, through index tables built once per row width
# (``_popcount_table``).
ROW_BITS = SCREEN_BITS + 1
# Qutrit pools of at least CLOSED_FORM_KETS kets are screened in closed form
# (``_qutrit_extremes``), in chunks of at most 2^CLOSED_FORM_BITS frames,
# which errs by less than CLOSED_FORM_EPS * N on frames of N bases (README;
# test_closed_form_error_bound); only the frames whose subset or complement
# lies within the confirmation margin plus twice that error of its size's
# closed-form maximum go to eigvalsh.  Smaller pools keep the eigvalsh
# screen call for call (test_other_pools_keep_the_eigvalsh_screen);
# test_eighteen_ket_pool_sends_few_frames_to_eigvalsh pins the chunks and
# calls of the 18-ket reference pool.
CLOSED_FORM_KETS = 12
CLOSED_FORM_BITS = 12
CLOSED_FORM_EPS = 1e-6
# Pools of d != 3 with at least CERTIFIED_KETS kets, at least three bases
# and d >= 2 clear their frames by a Cholesky certificate, in the chunks of
# the closed form, with thresholds moved CERTIFIED_DELTA * N past the
# confirmation's (README; test_certificate_is_sound_and_live,
# test_thresholds_inside_delta_are_never_cleared).  Pools of one or two
# bases, or of d = 1, tie at nearly every frame on one side and keep the
# eigvalsh screen (test_pools_of_one_or_two_bases_keep_the_eigvalsh_screen),
# as smaller pools do call for call
# (test_pools_without_a_prefilter_are_the_eigvalsh_screen_call_for_call);
# test_sixteen_ket_pool_sends_few_frames_to_eigvalsh pins the chunks and
# calls of the 16-ket reference pool.  The timings behind these limits
# and the chunk size are in CHANGES.md.
CERTIFIED_KETS = 13
CERTIFIED_DELTA = 1e-12
# Best-ordering search is factorial in the number of measurements.
MAX_ORDERING_SEARCH = 5
# The scb cycle search visits at most 2^N N^3 path states; its times are in
# CHANGES.md.  The cap stays until one cost model sets every cap.
MAX_SCB_MEASUREMENTS = 9


def mu_bound(r: ProjectiveMeasurement, s: ProjectiveMeasurement) -> float:
    """Two-measurement bound log2(1/c(R, S)); 0 when a basis ray is shared."""
    return max(0.0, -math.log2(overlap_c(r, s)))


def _evaluate(ms: MeasurementSet, name: str, pieces, rho=None) -> float:
    """max(0, max over the pieces (c, a) of bound ``name`` of c + a S(rho)),
    with ``pieces(ms)`` run on the bound's first use on the set only.  The one
    place where the bounds admit a state, as ``bound_report`` does, and check
    its dimension; rpz, whose one piece has a = 0, is evaluated without one."""
    kept = ms.memo(name, pieces)
    s = 0.0
    if rho is not None:
        rho = as_density_operator(rho)
        s = von_neumann_entropy(rho)
        if rho.dim != ms[0].dim:
            raise ValidationError(f"dimension mismatch: measurement dim {ms[0].dim}, state dim {rho.dim}")
    return _bound_value(kept, s)


def _bound_value(pieces, s: float) -> float:
    """max(0, max over the pieces (c, a) of c + a s)."""
    return max(0.0, max(c + a * s for c, a in pieces))


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
    """P_2..P_n of the n x n overlap matrix c, or of each matrix of a stack c (g, n, n), by the search of
    ``_scb_pieces`` over ``_cycle_tables``; the stack is the last axis, so one matrix takes 1-d gathers."""
    first, tables = _cycle_tables(c.shape[-1])
    flat = c.reshape(*c.shape[:-2], -1).T
    prods = flat[first]
    products = []
    for step, ends, closing in tables:
        if step is not None:
            pred, edge, starts = step
            prods = np.minimum.reduceat(prods[pred] * flat[edge], starts)
        products.append((prods[ends] * flat[closing]).min(axis=0))
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
    return _stacked_scb_pieces(ms.squared_overlaps)[0]


def _stacked_scb_pieces(o: np.ndarray) -> list[tuple[tuple[float, float], ...]]:
    """``_scb_pieces`` of the squared overlaps o[..., N, N, d, d] of a set or of each set of a stack."""
    n = o.shape[-3]
    # c[..., i, j] is overlap_c of bases i < j, mirrored; no cycle reads c[i, i].
    c = np.minimum(np.triu(o.max(axis=(-2, -1)), 1), 1.0)
    products = np.array(_smallest_cycle_products(c + np.swapaxes(c, -1, -2))).reshape(n - 1, -1).T.tolist()
    return [((0.0, float(n)), *((-0.5 * math.log2(p), n - k / 2.0) for k, p in enumerate(row, 2))) for row in products]


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


def _chain_coefficient(o: np.ndarray, order) -> np.ndarray:
    """The lmf chain coefficient of ``order`` for each set's squared overlaps o[g]: stacked
    matmul (g, 1, d) @ (g, d, d) has the bits of one set's chain, einsum would not."""
    v = o[:, order[0], order[1]].max(axis=1)
    for i, j in zip(order[1:], order[2:]):
        v = (v[:, None] @ o[:, i, j])[:, 0]
    return np.minimum(v.max(axis=1), 1.0)


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
    return float(_chain_coefficient(ms.squared_overlaps[None], range(len(ms)))[0])


def _lmf_pieces(b: np.ndarray, n: int) -> list[tuple[tuple[float, float], ...]]:
    """The one lmf piece (-log2 b, N - 1) of each chain coefficient b of N measurements."""
    return [((-math.log2(x), n - 1.0),) for x in b.tolist()]


def lmf_bound(measurements, rho) -> float:
    """Chained bound (N-1) S(rho) - log2 b; sensitive to measurement order."""
    ms = as_measurements(measurements, minimum=2)
    n = len(ms)
    return _evaluate(ms, "lmf", lambda ms: _lmf_pieces(_chain_coefficient(ms.squared_overlaps[None], range(n)), n)[0], rho)


def lmf_bound_best_ordering(measurements, rho) -> float:
    """Maximum of the lmf bound over all orderings of the measurements.

    The entropy sum is permutation-invariant, so every ordering yields a
    valid bound; the tightest uses the smallest b.  Factorial search,
    limited to MAX_ORDERING_SEARCH measurements; each ordering's overlaps
    are one set of a stack, so one chain takes them all.
    """
    ms = as_measurements(measurements, minimum=2)
    n = len(ms)
    if n > MAX_ORDERING_SEARCH:
        raise CapacityError(f"ordering search limited to {MAX_ORDERING_SEARCH} measurements, got {n}")

    def pieces(ms):
        orders = np.array(list(itertools.permutations(range(n))))
        b = _chain_coefficient(ms.squared_overlaps[orders[:, :, None], orders[:, None]], range(n))
        return _lmf_pieces(b.min(keepdims=True), n)[0]
    return _evaluate(ms, "lmf_best_ordering", pieces, rho)


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


@functools.lru_cache(maxsize=None)
def _popcount_table(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of a row of the bitmasks 0, 1, ..., 2^k - 1, built once
    per k <= ROW_BITS and read-only: each bitmask's popcount, by the subset
    doubling; the stable order that sorts them (int32, so that the tables of
    every width total 640 kB); where each popcount j's run starts in that
    order, and its length C(k, j)."""
    sizes = np.zeros(1 << k, dtype=np.uint8)
    for i in range(k):
        np.add(sizes[: 1 << i], 1, out=sizes[1 << i : 2 << i])
    order = np.argsort(sizes, kind="stable").astype(np.int32)
    lengths = np.array([math.comb(k, j) for j in range(k + 1)])
    starts = np.cumsum(lengths) - lengths
    for table in (sizes, order, starts, lengths):
        table.flags.writeable = False
    return sizes, order, starts, lengths


def _popcounts(k: int) -> np.ndarray:
    """The popcount of each bitmask of k bits: the row table's, read-only, or
    past ROW_BITS bits each row's popcount plus the row table's."""
    if k <= ROW_BITS:
        return _popcount_table(k)[0]
    return np.add.outer(_popcount_table(k - ROW_BITS)[0], _popcount_table(ROW_BITS)[0]).ravel()


def _ket_frames(kets: np.ndarray) -> np.ndarray:
    """|v><v| of each ket v = kets[..., i, :], shaped (..., i, d, d), in one
    broadcast product."""
    return kets[..., :, None] * kets.conj()[..., None, :]


def _subset_frames(kets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Frame operator sum_{i in S} |v_i><v_i| of every subset S of the kets
    ``kets[s]`` of each set s, indexed by (s, bitmask) with bit i set when
    ket i is in S, and the size |S| of each bitmask."""
    n_sets, k, d = kets.shape
    ket = _ket_frames(kets)[:, :, None]
    frames = np.zeros((n_sets, 1 << k, d, d), dtype=complex)
    for i in range(k):
        np.add(frames[:, : 1 << i], ket[:, i], frames[:, 1 << i : 2 << i])
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
    # With bb = |F10|^2, cc = |F20|^2 and ee = |F21|^2, read left to right:
    #   q = (a0 + a1 + a2) / 3, then a_i - q
    #   p = sqrt((a0 a0 + a1 a1 + a2 a2 + 2 (bb + cc + ee)) / 6)
    #   det = a0 a1 a2 - a0 ee - a1 cc - a2 bb + 2 ((br er - bi ei) cr + (br ei + bi er) ci)
    #   phi = arccos(clip(det / (2 p p p))) / 3
    #   q + 2p cos(phi + 2 pi / 3) and q + 2p cos(phi)
    # Each is taken in place, so that few chunk-sized arrays are live at once,
    # in that order of sums and products, so that the values keep their bits.
    q = a0 + a1
    q += a2
    q /= 3.0
    a0, a1, a2 = a0 - q, a1 - q, a2 - q
    bb, cc, ee = br * br, cr * cr, er * er
    bb += bi * bi
    cc += ci * ci
    ee += ei * ei
    p = a0 * a0
    p += a1 * a1
    p += a2 * a2
    t = bb + cc
    t += ee
    t *= 2.0
    p += t
    p /= 6.0
    np.sqrt(p, out=p)
    # det(F - q1) with Re(F10 conj(F20) F21) for the two off-diagonal cycles
    det = a0 * a1
    det *= a2
    det -= a0 * ee
    det -= a1 * cc
    det -= a2 * bb
    del a0, a1, a2, bb, cc, ee
    t = br * er
    t -= bi * ei
    t *= cr
    u = br * ei
    u += bi * er
    u *= ci
    t += u
    t *= 2.0
    det += t
    del t, u
    p3 = 2.0 * p
    p3 *= p
    p3 *= p
    # p = 0 is F = q1, whose eigenvalues q come out for any r
    phi = np.divide(det, p3, out=np.zeros_like(p3), where=p3 > 0.0)
    del det, p3
    np.clip(phi, -1.0, 1.0, out=phi)
    np.arccos(phi, out=phi)
    phi /= 3.0
    p *= 2.0
    lo = phi + 2.0 * np.pi / 3.0
    np.cos(lo, out=lo)
    lo *= p
    lo += q
    hi = np.cos(phi, out=phi)
    hi *= p
    hi += q
    return lo, hi


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
            # L_ij = (A_ij - sum_k L_ik conj(L_jk)) / L_jj for the rows i below j,
            # in place, as the sums read only the columns left of j: the real part
            # sums below[c] row[c], the imaginary below[1 - c] conj(row)[c]
            col = a[:, j + 1 :, j]
            if j:
                below = a[:, j + 1 :, :j]
                col[0] -= np.einsum("cik...,ck...->i...", below, row)
                col[1] -= np.einsum("cik...,ck...->i...", below[::-1], row * conj)
            np.divide(col, np.sqrt(np.where(pivot > 0.0, pivot, 1.0)), out=col)
    return ok


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
    pick = np.sort(np.where(subset >= n_bases - smallest[:, ::-1], subset_masks, complement_masks[:, ::-1]), axis=1)
    fresh = np.diff(pick, axis=1, prepend=-1) != 0
    return np.nonzero(fresh)[0], pick[fresh]


def _eigvalsh_extremes(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of each Hermitian matrix of ``f``, from one eigvalsh call."""
    w = np.linalg.eigvalsh(f)
    return w[..., 0], w[..., -1]


def _screen(pools: np.ndarray, n_bases: int, margin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest frame-operator eigenvalue of every subset of each pool,
    indexed (set, bitmask), and the size (popcount) of each bitmask.

    One pipeline screens every pool.  Only the subsets S without the last
    ket are built; complete bases sum to N * 1, so the complement of S gets
    lambda_max = N - lambda_min(F_S).  Of those kets the first SCREEN_BITS
    are low and the others high.  The frames come in chunks, each from a
    table of the subset frames of the first ``bits`` kets, plus the frames
    of the chunk's other low kets and of its high subset, added in
    ascending order as the subset doubling of the eigvalsh-only screen adds
    them, so every frame has that screen's bits.
    ``_size_maxima`` takes every per-size maximum.

    The only per-pool choice is the prefilter, which decides which frames
    eigvalsh must see:

    - None, below CLOSED_FORM_KETS kets (CERTIFIED_KETS for d != 3), and
      for pools of one or two bases or of d = 1: a chunk is the whole stack's low subsets with one high
      subset, and one eigvalsh call, so the screen is the eigvalsh-only
      one call for call.
    - The closed form, for qutrit pools, in chunks of one set's
      2^min(n - 1, CLOSED_FORM_BITS) frames: ``_qutrit_extremes`` fills
      every value, erring by at most eps = CLOSED_FORM_EPS * N, and a frame
      goes to eigvalsh when its subset or its complement lies within
      ``margin`` + 2 eps of its size's closed-form maximum.
    - The certificate, for other pools of at least CERTIFIED_KETS kets, in
      the same chunks: the frames of ``_rayleigh_candidates`` go to
      eigvalsh first, and the largest of their values at size k is T'_k,
      at most the size's maximum.  A frame goes to eigvalsh unless the
      Cholesky factorizations of (T'_|S| - margin - delta) 1 - F_S and
      F_S - (N - T'_(n-|S|) + margin + delta) 1 both complete
      (``_cholesky_completes``); delta = CERTIFIED_DELTA * N covers their
      rounding and eigvalsh's.  A cleared frame's two values stay -inf.
      The table is held once, as real and imaginary parts, from which
      the tests and the frames for eigvalsh are both built.

    One loop, ``gather``, sends the frames that a prefilter keeps to
    eigvalsh, in calls of 2^SCREEN_BITS frames but the last.  A frame that
    a prefilter clears lies more than ``margin`` below its size's eigvalsh
    maximum on both sides, so every subset that the confirmation of
    ``_stack_profiles`` picks gets its eigvalsh value, and the confirmed
    subsets are those of the eigvalsh-only screen.
    """
    n_sets, n, d = pools.shape
    half = n - 1
    low = min(half, SCREEN_BITS)
    full = (1 << n) - 1
    # every value is written but those that the certificate clears
    lam = np.empty((n_sets, full + 1))
    sizes = _popcounts(n)
    prefiltered = n >= CLOSED_FORM_KETS and (d == 3 or (n >= CERTIFIED_KETS and n_bases >= 3 and d >= 2))
    if prefiltered:
        bits, rows = min(half, CLOSED_FORM_BITS), 1
    else:
        # the whole stack's low subsets, as the eigvalsh-only screen takes them
        bits, rows = low, n_sets
    cols = 1 << bits
    table = _subset_frames(pools[:, :bits])[0]
    kets = {}
    for i in range(bits, low):
        kets[i] = _ket_frames(pools[:, i, None])
    # the zero frame of the empty high subset is never added: the sums start
    # from +0.0, so adding it would change no bit
    high = _subset_frames(pools[:, low:half])[0][:, :, None] if half > low else None
    # Each chunk, set by set in bitmask order: its sets, its first bitmask,
    # and the indices in lam of its subsets and, in the same order, of their
    # complements (full - start >= cols, so no stop is -1).
    chunks = []
    for s in range(0, n_sets, rows):
        at = slice(s, s + rows)
        for start in range(0, 1 << half, cols):
            chunks.append((at, start, (at, slice(start, start + cols)), (at, slice(full - start, full - start - cols, -1))))

    def chunk_frames(at, start, table, kets, high, out=None):
        """A chunk's frames: its sets' table frames, plus the frames of its
        other low kets and of its high subset, in ascending order, from
        tables of one layout; into ``out`` if given."""
        terms = [kets[i][at] for i in kets if start >> i & 1]
        if start >> low:
            terms.append(high[at, start >> low])
        f = table[at]
        if out is not None:
            out[...] = f
            f = out
        elif terms:
            # a new array first: the sums must not land in the table
            f = f + terms.pop(0)
        for term in terms:
            f += term
        return f

    if d == 3 or not prefiltered:
        extremes = _qutrit_extremes if prefiltered else _eigvalsh_extremes
        for at, start, own, comp in chunks:
            lo, hi = extremes(chunk_frames(at, start, table, kets, high))
            lam[own] = hi
            np.subtract(n_bases, lo, out=lam[comp])
        if not prefiltered:
            return lam, sizes

    def diagonalize(owners, frame):
        """Store the eigvalsh values of the frames (set, bitmask): lambda_max
        for the subset and N - lambda_min for its complement, at most
        2^SCREEN_BITS frames per call."""
        for b in range(0, owners.size, 1 << SCREEN_BITS):
            o, m = owners[b : b + (1 << SCREEN_BITS)], frame[b : b + (1 << SCREEN_BITS)]
            c = m & (cols - 1)
            if table is None:
                # the certificate's table, held as its real and imaginary parts
                f = np.empty((o.size, d, d), dtype=complex)
                f.real, f.imag = parts[o, 0, :, :, c], parts[o, 1, :, :, c]
            else:
                f = table[o, c]
            for i in kets:
                on = (m >> i & 1).astype(bool)
                f[on] += kets[i][o[on], 0]
            if high is not None:
                f += high[o, m >> low, 0]
            lo, hi = _eigvalsh_extremes(f)
            lam[o, m], lam[o, full - m] = hi, n_bases - lo

    def gather(keep):
        """``diagonalize`` the frames (set, column) of each chunk where
        ``keep(chunk)`` holds, chunk by chunk, in calls of exactly
        2^SCREEN_BITS frames but the last; what is left over waits for the
        next chunks."""
        pending = []
        for at, start, own, comp in chunks:
            i, j = np.nonzero(keep(at, start, own, comp))
            pending.append((at.start + i, start + j))
            if sum(owners.size for owners, _ in pending) >= 1 << SCREEN_BITS:
                owners, frame = (np.concatenate(p) for p in zip(*pending))
                cut = owners.size >> SCREEN_BITS << SCREEN_BITS
                diagonalize(owners[:cut], frame[:cut])
                pending = [(owners[cut:], frame[cut:])]
        diagonalize(*(np.concatenate(p) for p in zip(*pending)))

    if d == 3:
        near = _size_maxima(lam, sizes) - (margin + 2.0 * CLOSED_FORM_EPS * n_bases)[:, None]

        def keep(at, start, own, comp):
            # Chunk by chunk again, so no (set, bitmask) array of thresholds is
            # held: a frame goes to eigvalsh when its subset or its complement is near.
            return (lam[own] >= near[at][:, sizes[own[1]]]) | (lam[comp] >= near[at][:, sizes[comp[1]]])

    else:

        def by_part(f):
            """(..., part, d, d, column) of frames f (..., column, d, d): real and
            imaginary parts, columns last."""
            if f is None:
                return None
            split = np.empty((*f.shape[:-3], 2, *f.shape[-2:], f.shape[-3]))
            split[..., 0, :, :, :] = np.moveaxis(f.real, -3, -1)
            split[..., 1, :, :, :] = np.moveaxis(f.imag, -3, -1)
            return split

        # the table is held once, as parts; ``diagonalize`` reassembles its frames
        parts, ket_parts, high_parts = by_part(table), {i: by_part(v) for i, v in kets.items()}, by_part(high)
        table = None
        lam.fill(-np.inf)
        diagonalize(*_rayleigh_candidates(pools, n_bases))
        # lam holds only the candidates' values here
        floor = _size_maxima(lam, sizes)
        shift = margin[:, None] + CERTIFIED_DELTA * n_bases
        # by the frame's own size |S|: F_S must lie below upper and above lower
        upper, lower = floor - shift, n_bases - floor[:, ::-1] + shift
        # (set, part, d, d, test, column): the subset's test, then the complement's
        tests = np.empty((1, 2, d, d, 2, cols))
        diag = np.arange(d)

        def keep(at, start, own, comp):
            chunk_frames(at, start, parts, ket_parts, high_parts, out=tests[..., 1, :])
            np.negative(tests[..., 1, :], out=tests[..., 0, :])
            k = sizes[own[1]]
            tests[:, 0, diag, diag, 0] += upper[at][:, None, k]
            tests[:, 0, diag, diag, 1] -= lower[at][:, None, k]
            cleared = _cholesky_completes(np.moveaxis(tests, 0, 3)).all(axis=1)
            return ~cleared & ~np.isfinite(lam[own])

    gather(keep)
    return lam, sizes


def _size_maxima(lam: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The largest value of each set's screen ``lam`` (set, bitmask) at each
    size k = 0..n, shaped (set, n + 1), -inf where a size has only -inf;
    ``sizes`` are the popcounts of the bitmasks (``_popcounts(n)``).

    In rows of 2^w consecutive bitmasks, w = min(n, ROW_BITS), a bitmask's
    size is its row's base plus the popcount of its column.  Gathered into
    the popcount order of ``_popcount_table(w)``, each size of a row is one
    run, and one reduceat gives the row's per-size maxima.
    """
    n_sets = lam.shape[0]
    n = int(sizes[-1])
    width = min(n, ROW_BITS)
    _, order, starts, _ = _popcount_table(width)
    if width == n:
        # one row, whose runs are the sizes 0..n
        return np.maximum.reduceat(lam[:, order], starts, axis=1)
    rows = lam.reshape(n_sets, -1, 1 << width)
    top = np.full((n_sets, n + 1), -np.inf)
    for r, b in enumerate(sizes[:: 1 << width].tolist()):
        row_top = top[:, b : b + width + 1]
        np.maximum(row_top, np.maximum.reduceat(rows[:, r, order], starts, axis=1), out=row_top)
    return top


def _picks(lam: np.ndarray, sizes: np.ndarray, margin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (set, bitmask) pairs of a screen ``lam`` (set, bitmask) whose value
    lies within the set's ``margin`` of its size's largest (``_size_maxima``):
    the subsets that the confirmation diagonalizes, sorted by size, and by
    row, set and bitmask within a size.

    Each row of the screen, as ``_size_maxima`` reads it, is gathered into
    popcount order, where each size is one run: one comparison against each
    size's threshold, repeated over its run, gives the row's picks.
    """
    n_sets = lam.shape[0]
    n = int(sizes[-1])
    width = min(n, ROW_BITS)
    _, order, _, lengths = _popcount_table(width)
    rows = lam.reshape(n_sets, -1, 1 << width)
    threshold = _size_maxima(lam, sizes) - margin[:, None]
    owners, masks = [], []
    for r, b in enumerate(sizes[:: 1 << width].tolist()):
        owner, at = (rows[:, r, order] >= threshold[:, b : b + width + 1].repeat(lengths, axis=1)).nonzero()
        owners.append(owner)
        masks.append(order[at] + (r << width))
    if n_sets == 1 and len(owners) == 1:
        # one set's one row is in size order already
        return owners[0], masks[0]
    owners, masks = np.concatenate(owners), np.concatenate(masks)
    by_size = sizes[masks].argsort(kind="stable")
    return owners[by_size], masks[by_size]


def _stack_profiles(pools: np.ndarray, n_bases: int) -> list[MajorizationProfile]:
    """Profiles of a stack of pools (set, ket, component), all screened in
    one ``_screen`` call, picked in one ``_picks`` call and confirmed size by
    size across the stack: per eigvalsh call one flat gather of Gram blocks,
    then one per-set maximum of every size."""
    n_sets, n, _ = pools.shape
    conj = pools.conj()
    grams = conj @ pools.transpose(0, 2, 1)
    grams = 0.5 * (grams + grams.conj().transpose(0, 2, 1))
    frame_dev = np.abs(np.linalg.eigvalsh(pools.transpose(0, 2, 1) @ conj) - n_bases).max(axis=1)
    margin = ATOL + 2.0 * frame_dev
    lam, sizes = _screen(pools, n_bases, margin)
    owners, masks = _picks(lam, sizes, margin)
    picked = sizes[masks]
    bounds = picked.searchsorted(np.arange(n + 2)).tolist()
    # Per size, ascending, one eigvalsh call per CONFIRM_ENTRIES Gram-block
    # entries.  One bit pass finds the members of the picks from a call's
    # first on, up to CONFIRM_ENTRIES / n members or that call's last pick,
    # and their Gram rows; each call it covers reads one slice of them.
    ends = picked.cumsum(dtype=np.intp)
    grams, offsets, tops, passed = grams.reshape(-1), owners * n, np.empty(owners.size), 0
    for size in range(1, n + 1):
        chunk = CONFIRM_ENTRIES // size**2
        for c in range(bounds[size], bounds[size + 1], chunk):
            end = min(c + chunk, bounds[size + 1])
            if end > passed:
                passed = max(end, int(ends.searchsorted(ends[c] - size + CONFIRM_ENTRIES // n, "right")))
                window = masks[c:passed].astype("<u4").view(np.uint8).reshape(-1, 4)
                pick, members = np.unpackbits(window, axis=1, count=n, bitorder="little").nonzero()
                rows, first = (offsets[c + pick] + members) * n, 0
            at = slice(first, first + (end - c) * size)
            first = at.stop
            # flat indices of the Gram blocks grams[owner, subset, subset]
            blocks = grams.take(rows[at].reshape(-1, size, 1) + members[at].reshape(-1, 1, size))
            tops[c:end] = np.linalg.eigvalsh(blocks)[:, -1]
    s = np.full(n_sets * n, -np.inf)
    at = slice(bounds[1], None)
    np.maximum.at(s, offsets[at] + picked[at] - 1, tops[at])
    s = s.reshape(n_sets, n)
    # Running max removes 1e-16 dips, so each profile is non-decreasing and
    # its increments are >= 0 exactly.
    s = np.maximum.accumulate(s, axis=1)
    deltas = s[:, 1:] - s[:, :-1]
    return [MajorizationProfile(tuple(row), tuple(inc)) for row, inc in zip(s.tolist(), deltas.tolist())]


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
        chunk = stack[start : start + per_call]
        pools = np.concatenate([m.basis for ms in chunk for m in ms]).reshape(len(chunk), n, d)
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
