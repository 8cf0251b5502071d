"""Shannon and von Neumann entropies, all in bits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ATOL,
    DATA_PSD_TOL,
    DensityOperator,
    ValidationError,
    _admit_density,
    as_density_operator,
    as_measurements,
    born_probabilities,
)

# as_density_matrix is unused here but stays: benchmarks/tracing.py patches it by name.
from .linalg import as_density_matrix  # noqa: F401


def _entropy_of_clamped(values: np.ndarray) -> float:
    # Entries <= 0 contribute nothing, as if clamped to zero.
    v = values[values > 0.0]
    if v.size == 0:
        return 0.0
    # + 0.0 turns the -0.0 of deterministic vectors into plain 0.0.
    return float(-(v * np.log2(v)).sum() + 0.0)


def _row_entropies(p: np.ndarray) -> np.ndarray:
    # _entropy_of_clamped of each row, to the bit under 8 entries (numpy regroups longer sums)
    logs = np.log2(p, out=np.zeros_like(p), where=p > 0.0)
    return -(p * logs).sum(axis=-1) + 0.0


def shannon_entropy(probabilities) -> float:
    """H(p) = -sum p log2 p for a probability vector.

    Entries in [-ATOL, 0) are clamped to zero before the logarithm; the
    vector must sum to 1 within ATOL.
    """
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError("probability vector must be 1-d and non-empty")
    if not np.all(np.isfinite(p)):
        raise ValidationError("probability vector contains non-finite entries")
    if p.min() < -ATOL:
        raise ValidationError(f"probability {p.min():.3e} below -{ATOL:g}")
    if abs(p.sum() - 1.0) > ATOL:
        raise ValidationError(f"probabilities sum to {p.sum():.12g}, not 1")
    return _entropy_of_clamped(p)


def binary_entropy(a: float) -> float:
    """h(a) = -a log2 a - (1-a) log2(1-a) on [0, 1]."""
    x = float(a)
    if not np.isfinite(x) or x < -ATOL or x > 1.0 + ATOL:
        raise ValidationError(f"binary entropy argument {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    return _entropy_of_clamped(np.array([x, 1.0 - x]))


def von_neumann_entropy(rho) -> float:
    """S(rho) = -sum lambda log2 lambda over the spectrum of rho.

    Accepts a DensityOperator, whose admitted spectrum is used as is, or a
    raw Hermitian unit-trace array whose negativity stays inside the data
    window; negative eigenvalues are clamped to zero before the entropy
    (no renormalization, so the value reflects the matrix exactly as given).
    """
    if isinstance(rho, DensityOperator):
        vals = rho.spectrum
    else:
        # the admission's own spectrum, with as_density_matrix's window and messages
        vals = _admit_density(rho, psd_tol=DATA_PSD_TOL, name="rho")[1]
    return _entropy_of_clamped(vals)


@dataclass(frozen=True)
class EntropyBreakdown:
    """Per-measurement Shannon entropies of one state, plus their sum.

    ``per_measurement`` holds (label, H) pairs in measurement order.
    """

    per_measurement: tuple[tuple[str, float], ...]
    total: float

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.per_measurement)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(h for _, h in self.per_measurement)


def entropy_sum(measurements, rho) -> EntropyBreakdown:
    """Sum of measurement entropies sum_m H(M_m) for one state, in bits."""
    ms = as_measurements(measurements, minimum=1)
    # A raw array is admitted once here, with born_probabilities' own
    # window and messages, not once per measurement.
    rho = as_density_operator(rho)
    # born_probabilities has already checked each vector as a distribution.
    pairs = tuple((m.label, _entropy_of_clamped(born_probabilities(m, rho))) for m in ms)
    return EntropyBreakdown(per_measurement=pairs, total=float(sum(h for _, h in pairs)))
