"""Qutrit state reconstruction from three sets of projection values.

The readout projects onto four kets per set.  Sets 1 and 2 probe the
|0>/|-1> and |0>/|+1> coherences directly; set 3 is recorded after a
population swap of |0> and |+1>, so its four values probe the |+1>/|-1>
block of the original state.  Each set yields two populations and the
real/imaginary parts of one off-diagonal element via

    Re rho_xy = (rho_xx + rho_yy)/2 - p_minus
    Im rho_xy = p_imag - (rho_xx + rho_yy)/2

where p_minus and p_imag are the projections onto (|x> - |y>)/sqrt(2)
and (|x> - i|y>)/sqrt(2).  Duplicated diagonal entries are averaged.

`REFERENCE_RECONSTRUCTION` bundles a published experimentally
reconstructed matrix (tabulated to four decimals) for the preparation
target (|0> + |-1> + |+1>)/sqrt(3); it carries a small negative
eigenvalue and exercises the experimental data window end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entropy import von_neumann_entropy
from .linalg import (
    ATOL,
    DATA_PSD_TOL,
    NOISE_FLOOR,
    DataQualityError,
    DensityOperator,
    ValidationError,
    _built_density,
    _gauged_eigh,
    _sqrt_psd,
    as_complex_array,
    as_density_matrix,
    as_state_vector,
)

_E0, _E1, _E2 = np.eye(3, dtype=complex)
_SQ2 = np.sqrt(2.0)

# Projection kets for the two directly measured sets.
SET1_VECTORS = np.array([_E0, _E1, (_E0 - _E1) / _SQ2, (_E0 - 1j * _E1) / _SQ2])
SET2_VECTORS = np.array([_E0, _E2, (_E0 - _E2) / _SQ2, (_E0 - 1j * _E2) / _SQ2])
# Population swap of |0> and |+1> applied before the third set is read out.
SWAP_0P1 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
# Kets of the original state that the third set effectively probes.
SET3_EFFECTIVE_VECTORS = SET1_VECTORS @ SWAP_0P1.T

# Bundled experimental reference: reconstructed matrix and its preparation
# target.  Tabulated to four decimals; spectrum dips to about -3.8e-3.
REFERENCE_RECONSTRUCTION = np.array(
    [
        [0.3314, 0.2977 - 0.0392j, 0.3200 + 0.0583j],
        [0.2977 + 0.0392j, 0.3306, 0.2460 + 0.0621j],
        [0.3200 - 0.0583j, 0.2460 - 0.0621j, 0.3380],
    ]
)
REFERENCE_TARGET_KET = np.full(3, 1.0 / np.sqrt(3.0), dtype=complex)

# A raw reconstruction whose trace strays further than this is rejected
# outright rather than renormalized.
TRACE_WINDOW = 0.1


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(sigma) rho sqrt(sigma)), unsquared.

    The square root is taken of sigma only, so sigma must be strictly
    positive semidefinite while rho is admitted through the experimental
    data window (small negative eigenvalues tolerated).  Eigenvalues of
    the inner product below NOISE_FLOOR are zeroed before the final
    square root; without that, 1e-16 diagonalization noise would surface
    as 1e-8 in the result.
    """
    r = as_density_matrix(rho, name="rho")
    s = as_density_matrix(sigma, psd_tol=ATOL, name="sigma")
    if r.shape != s.shape:
        raise ValidationError(f"dimension mismatch: rho dim {r.shape[0]}, sigma dim {s.shape[0]}")
    # s is admitted (exactly Hermitian), so its root needs no second check
    root = _sqrt_psd(s)
    inner = root @ r @ root
    inner = 0.5 * (inner + inner.conj().T)
    w = np.linalg.eigvalsh(inner)
    w[w < NOISE_FLOOR] = 0.0
    return min(max(float(np.sqrt(w).sum()), 0.0), 1.0)


def fidelity_with_ket(rho, ket) -> float:
    """Fidelity against a pure target: sqrt(<psi|rho|psi>).

    Agrees with ``fidelity(rho, |psi><psi|)`` to within 1e-9 but skips
    the matrix square roots.
    """
    return _ket_fidelity(as_density_matrix(rho, name="rho"), as_state_vector(ket, name="target"))


def _ket_fidelity(r: np.ndarray, psi: np.ndarray) -> float:
    """``fidelity_with_ket`` of an admitted matrix and a checked ket."""
    if psi.size != r.shape[0]:
        raise ValidationError(f"dimension mismatch: rho dim {r.shape[0]}, target dim {psi.size}")
    val = float(np.vdot(psi, r @ psi).real)
    return min(math.sqrt(max(val, 0.0)), 1.0)


@dataclass(frozen=True)
class TomographyRecord:
    """Twelve projection values: four per set, populations first."""

    set1: tuple[float, float, float, float]
    set2: tuple[float, float, float, float]
    set3: tuple[float, float, float, float]

    def __post_init__(self):
        sets = {"set1": self.set1, "set2": self.set2, "set3": self.set3}
        total = 0.0
        for name, values in sets.items():
            vals = tuple(float(v) for v in values)
            if len(vals) != 4 or not all(math.isfinite(v) for v in vals):
                raise ValidationError(f"{name} must hold four finite projection values")
            for v in vals:
                if v < -ATOL or v > 1.0 + ATOL:
                    raise ValidationError(f"{name} projection {v!r} outside [0, 1]")
            implied_third = 1.0 - vals[0] - vals[1]
            if implied_third < -DATA_PSD_TOL:
                raise DataQualityError(
                    f"{name} populations sum to {vals[0] + vals[1]:.4f} > 1 beyond tolerance"
                )
            total += sum(abs(v) for v in vals)
            object.__setattr__(self, name, vals)
        if total <= ATOL:
            raise ValidationError("record is identically zero")

    def as_dict(self) -> dict:
        return {"set1": list(self.set1), "set2": list(self.set2), "set3": list(self.set3)}


def simulate_projections(rho) -> TomographyRecord:
    """Projection record an ideal apparatus would read out for a state."""
    r = as_density_matrix(rho)
    if r.shape != (3, 3):
        raise ValidationError(f"dimension mismatch: projections need state dim 3, got {r.shape[0]}")
    swapped = SWAP_0P1 @ r @ SWAP_0P1.conj().T

    def proj(vectors, m):
        return tuple(float(np.vdot(v, m @ v).real) for v in vectors)

    return TomographyRecord(
        set1=proj(SET1_VECTORS, r),
        set2=proj(SET2_VECTORS, r),
        set3=proj(SET1_VECTORS, swapped),
    )


def _raw_from_record(rec: TomographyRecord) -> np.ndarray:
    s1, s2, s3 = rec.set1, rec.set2, rec.set3
    r00 = 0.5 * (s1[0] + s2[0])
    rm1 = 0.5 * (s1[1] + s3[1])
    rp1 = 0.5 * (s2[1] + s3[0])
    re_0m = 0.5 * (s1[0] + s1[1]) - s1[2]
    im_0m = s1[3] - 0.5 * (s1[0] + s1[1])
    re_0p = 0.5 * (s2[0] + s2[1]) - s2[2]
    im_0p = s2[3] - 0.5 * (s2[0] + s2[1])
    re_pm = 0.5 * (s3[0] + s3[1]) - s3[2]
    im_pm = s3[3] - 0.5 * (s3[0] + s3[1])
    return np.array(
        [
            [r00, re_0m + 1j * im_0m, re_0p + 1j * im_0p],
            [re_0m - 1j * im_0m, rm1, re_pm - 1j * im_pm],
            [re_0p - 1j * im_0p, re_pm + 1j * im_pm, rp1],
        ]
    )


def project_physical(matrix) -> DensityOperator:
    """Nearest-physical repair: hermitize, renormalize, clamp, renormalize.

    Idempotent and trace-preserving.  Eigenvalues in [-DATA_PSD_TOL, 0)
    are clamped to zero as experimental noise; lower is a data-quality
    error, as is a trace off by more than TRACE_WINDOW.
    """
    m = as_complex_array(matrix, name="matrix")
    if m.shape != (3, 3):
        raise ValidationError("expected a 3x3 matrix")
    return _clamped(_unit_trace(m))


def _unit_trace(m: np.ndarray) -> np.ndarray:
    """A finite complex 3x3 matrix, hermitized and divided by its trace."""
    m = 0.5 * (m + m.conj().T)
    tr = float(m.trace().real)
    if abs(tr - 1.0) > TRACE_WINDOW:
        raise DataQualityError(f"trace {tr:.4f} outside 1 +/- {TRACE_WINDOW}")
    return m / tr


def _clamped(m: np.ndarray) -> DensityOperator:
    """``project_physical``'s clamp of a ``_unit_trace`` matrix, which is
    exactly Hermitian and so goes to the eigensolver unchecked.  The
    repaired matrix is built from a clamped, normalized spectrum, so it
    becomes a DensityOperator without admission (``_built_density``)."""
    vals, vecs = _gauged_eigh(m)
    lo = float(vals[-1])  # descending
    if lo < -DATA_PSD_TOL:
        raise DataQualityError(f"eigenvalue {lo:.4e} below the admission window -{DATA_PSD_TOL:g}")
    vals = np.maximum(vals, 0.0)  # the ufunc np.clip(vals, 0.0, None) calls
    vals = vals / vals.sum()
    return _built_density((vecs * vals) @ vecs.conj().T)


@dataclass(frozen=True)
class ReconstructionResult:
    """Raw and physical reconstructions of one record, with summary figures.

    ``fidelity_vs_target`` is evaluated on the raw matrix (the value an
    experiment reports before any physicality repair); ``vn_entropy`` on
    the physical operator.
    """

    raw_rho: np.ndarray
    rho: DensityOperator
    vn_entropy: float
    fidelity_vs_target: float | None


def reconstruct(record: TomographyRecord, *, target_ket=None) -> ReconstructionResult:
    """Rebuild the density matrix a projection record encodes."""
    if not isinstance(record, TomographyRecord):
        raise ValidationError("reconstruct expects a TomographyRecord")
    # A record's twelve finite floats make a finite complex 3x3 matrix, so
    # the raw matrix skips project_physical's coercion.
    raw = _raw_from_record(record)
    unit = _unit_trace(raw)
    rho = _clamped(unit)
    fid = None
    if target_ket is not None:
        # Fidelity is quoted for the reconstruction as measured: hermitized
        # and trace-normalized, but without the PSD clamp.  _clamped has
        # just checked that matrix's window.
        fid = _ket_fidelity(unit, as_state_vector(target_ket, name="target"))
    raw.flags.writeable = False
    return ReconstructionResult(
        raw_rho=raw,
        rho=rho,
        vn_entropy=von_neumann_entropy(rho),
        fidelity_vs_target=fid,
    )
