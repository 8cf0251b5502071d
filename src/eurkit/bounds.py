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
chains, the lmf orderings and the rpz subsets are enumerated
exhaustively; their sizes are capped instead of falling back to
heuristics.
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

# Pooled-vector limit for the majorization profile: subsets are enumerated
# exhaustively, which is exponential in the pool size.
MAX_POOL_VECTORS = 24
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

    Each cycle is enumerated from its smallest index only, not once per
    rotation.
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


def rpz_profile(measurements) -> MajorizationProfile:
    """Compute the subset-norm profile of the pooled measurement vectors."""
    ms = as_measurements(measurements, minimum=1)
    pool = np.concatenate([m.basis for m in ms], axis=0)
    n = pool.shape[0]
    if n > MAX_POOL_VECTORS:
        raise CapacityError(
            f"majorization profile limited to {MAX_POOL_VECTORS} pooled vectors, got {n}"
        )
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
