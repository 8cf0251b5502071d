"""Validated qutrit/qudit primitives: states, measurements, spectra, fidelity.

Basis convention for the spin-1 ground-state triplet used throughout the
package: index 0 is |0>, index 1 is |-1>, index 2 is |+1>.

Two tolerance regimes coexist.  ATOL guards exact mathematical invariants
(normalization, hermiticity, orthonormality).  DATA_PSD_TOL is the wider
admission window for experimentally reconstructed matrices, which routinely
carry small negative eigenvalues from shot noise; functions that consume a
spectrum clamp such eigenvalues to zero, and anything more negative than
the window is rejected as bad data (DataQualityError, which the CLI reports
as "data-quality") rather than silently repaired.

Each kind of input is checked once: outside values become arrays only in
``as_complex_array``, density matrices pass one admission (behind
``as_density_matrix``, ``DensityOperator`` and ``as_density_operator``; the
last two keep the admitted spectrum; a state eurkit has just built, such
as tomography's repair, skips the checks in ``_built_density`` with the
same bits, as a basis eurkit has built does in ``_built_measurement``) and
measurement lists become a
``MeasurementSet``, which ``as_measurements`` passes through and which
computes its overlaps once.  ``hermitian_eigen``, ``matrix_sqrt_psd`` and
``ray_fidelity`` check their input and call a kernel (``_gauged_eigh``,
``_sqrt_psd``, ``_ray_fidelity``) that the other modules call directly on
arrays they have already admitted or built.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

# Exact-invariant tolerance.
ATOL = 1e-9
# Experimental negativity admission window (see module docstring).
DATA_PSD_TOL = 5e-2
# Eigenvalues of nominally PSD products below this floor are eigensolver
# noise; zero them before square roots, which would amplify 1e-16 noise
# into 1e-8 fidelity errors.
NOISE_FLOOR = 1e-14


class ValidationError(ValueError):
    """An input violates a structural contract (shape, norm, hermiticity)."""


class DataQualityError(ValidationError):
    """Input is structurally valid but physically inconsistent beyond tolerance."""


class CapacityError(ValidationError):
    """Requested computation exceeds a hard combinatorial limit."""


def as_complex_array(value, *, name: str = "array") -> np.ndarray:
    """Coerce to a finite complex128 ndarray, rejecting NaN/Inf."""
    try:
        arr = np.asarray(value, dtype=complex)
    except (ValueError, TypeError):
        # Ragged nesting or non-numeric entries.
        raise ValidationError(f"{name} is not a rectangular array of numbers") from None
    # isfinite of a complex entry is true only when both parts are finite.
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


def as_state_vector(value, *, name: str = "state") -> np.ndarray:
    """Validate a normalized ket, returned as a fresh complex128 array."""
    ket = as_complex_array(value, name=name)
    if ket.ndim != 1 or ket.size < 2:
        raise ValidationError(f"{name} must be a 1-d vector of dimension >= 2")
    norm = np.linalg.norm(ket)
    if abs(norm - 1.0) > ATOL:
        raise ValidationError(f"{name} is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return ket.copy()


def _check_hermitian(matrix: np.ndarray, *, name: str) -> np.ndarray:
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValidationError(f"{name} must be a square matrix")
    adjoint = matrix.conj().T
    dev = float(abs(matrix - adjoint).max(initial=0.0))
    if dev > ATOL:
        raise ValidationError(f"{name} is not Hermitian within tolerance (dev {dev:.3e})")
    # Symmetrize away representation-level asymmetry below tolerance so the
    # eigensolver sees an exactly Hermitian operator.
    return 0.5 * (matrix + adjoint)


def _admit_density(value, *, psd_tol: float, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The one density-matrix admission; returns the symmetrized matrix and its eigvalsh spectrum."""
    m = _check_hermitian(as_complex_array(value, name=name), name=name)
    tr = m.trace()
    if abs(tr - 1.0) > ATOL:
        raise ValidationError(f"{name} trace deviates from 1 by {abs(tr - 1.0):.3e}")
    spectrum = np.linalg.eigvalsh(m)
    lo = float(spectrum[0])  # eigvalsh returns ascending eigenvalues
    if lo < -psd_tol:
        raise DataQualityError(
            f"{name} has eigenvalue {lo:.4e} below the admission window -{psd_tol:g}"
        )
    return m, spectrum


def as_density_matrix(value, *, psd_tol: float = DATA_PSD_TOL, name: str = "rho") -> np.ndarray:
    """Validate a density matrix given as a DensityOperator or raw array.

    Raw arrays must be Hermitian with unit trace (both within ATOL) and
    have spectrum bounded below by ``-psd_tol``.  The matrix itself is
    returned unrepaired; negative eigenvalues inside the window are the
    caller's business (typically clamped where a spectrum is consumed).
    """
    if isinstance(value, DensityOperator):
        return value.matrix
    return _admit_density(value, psd_tol=psd_tol, name=name)[0]


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A strictly physical density matrix (PSD within ATOL, unit trace).

    Experimental matrices with larger negativity do not construct; pass
    them as raw arrays to functions that accept the wider data window.
    ``spectrum`` holds the ascending eigenvalues found at admission
    (read-only), so consumers of the spectrum do not diagonalize again.
    """

    matrix: np.ndarray
    spectrum: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self._keep(*_admit_density(self.matrix, psd_tol=ATOL, name="density matrix"))

    def _keep(self, m: np.ndarray, spectrum: np.ndarray) -> None:
        m.flags.writeable = False
        spectrum.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "spectrum", spectrum)

    def __reduce__(self):
        # copies and unpickled states are admitted again, read-only
        return DensityOperator, (self.matrix,)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def from_ket(cls, ket) -> "DensityOperator":
        psi = as_state_vector(ket)
        return cls(np.outer(psi, psi.conj()))

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


def as_density_operator(value, *, name: str = "rho") -> DensityOperator:
    """Admit a state once, in the strict ATOL window, as a DensityOperator.

    A DensityOperator passes through.  A raw array passes the same
    admission as ``as_density_matrix(value, psd_tol=ATOL)`` (same errors,
    named ``name``) and keeps the spectrum found there, so the callers it
    is handed to diagonalize nothing again.
    """
    if isinstance(value, DensityOperator):
        return value
    return _kept_density(*_admit_density(value, psd_tol=ATOL, name=name))


def _kept_density(m: np.ndarray, spectrum: np.ndarray) -> DensityOperator:
    """A DensityOperator of an exactly Hermitian matrix and its eigvalsh
    spectrum, kept as they are: no admission runs."""
    rho = object.__new__(DensityOperator)
    rho._keep(m, spectrum)
    return rho


def _built_density(matrix: np.ndarray) -> DensityOperator:
    """``DensityOperator(matrix)`` of a complex matrix eurkit has just built
    as a state (finite, unit trace, spectrum >= 0 up to rounding):
    symmetrized and diagonalized exactly as admission does, so the bits are
    the same, without admission's finiteness, trace and window checks,
    which cannot fail on it."""
    m = 0.5 * (matrix + matrix.conj().T)
    return _kept_density(m, np.linalg.eigvalsh(m))


@dataclass(frozen=True, eq=False)
class ProjectiveMeasurement:
    """A rank-1 projective measurement: d orthonormal basis kets (rows).

    ``basis[i]`` is the ket whose projector gives outcome i.
    """

    basis: np.ndarray
    label: str = "M"

    def __post_init__(self):
        b = as_complex_array(self.basis, name=f"{self.label} basis")
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValidationError(f"{self.label} basis must be d kets of dimension d")
        dev = float(np.max(np.abs(b.conj() @ b.T - np.eye(b.shape[0])), initial=0.0))
        if dev > ATOL:
            raise ValidationError(f"{self.label} basis is not orthonormal (dev {dev:.3e})")
        b = b.copy()
        b.flags.writeable = False
        object.__setattr__(self, "basis", b)

    def __reduce__(self):
        return ProjectiveMeasurement, (self.basis, self.label)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def from_vectors(cls, vectors, label: str = "M") -> "ProjectiveMeasurement":
        return cls([as_state_vector(v, name=f"{label}[{i}]") for i, v in enumerate(vectors)], label)


def _built_measurement(basis: np.ndarray, label: str) -> ProjectiveMeasurement:
    """``ProjectiveMeasurement(basis, label)`` of a complex128 basis eurkit
    has just built orthonormal (such as the family's M3): kept as it is,
    read-only, without admission's coercion, orthonormality check and copy,
    which could neither change its bits nor refuse it.  A copy or an
    unpickled one is admitted through the constructor (``__reduce__``)."""
    m = object.__new__(ProjectiveMeasurement)
    basis.flags.writeable = False
    object.__setattr__(m, "basis", basis)
    object.__setattr__(m, "label", label)
    return m


class MeasurementSet(tuple):
    """An admitted, immutable list of projective measurements of one dimension.

    A tuple, so it indexes and unpacks like a list.  ``squared_overlaps`` is
    computed on first use and shared by every bound evaluated on the set;
    so are the bounds' pieces, kept by ``memo``.  A copy or an unpickled
    set is built again from its measurements, with nothing cached.
    """

    def __new__(cls, measurements):
        ms = tuple(measurements)
        if not all(isinstance(m, ProjectiveMeasurement) for m in ms):
            raise ValidationError("expected ProjectiveMeasurement instances")
        if len({m.dim for m in ms}) != 1:
            raise ValidationError("measurements must share one dimension")
        return super().__new__(cls, ms)

    def __reduce__(self):
        return MeasurementSet, (tuple(self),)

    def memo(self, key: str, compute):
        """``compute(self)``, computed on the first call with ``key`` and kept;
        the value should be immutable (the bounds keep tuples of floats)."""
        kept = self.__dict__.setdefault("_memo", {})
        if key not in kept:
            kept[key] = compute(self)
        return kept[key]

    @functools.cached_property
    def squared_overlaps(self) -> np.ndarray:
        """|<u_k|v_l>|^2 of ket k of basis i and ket l of basis j at (i, j, k, l); read-only."""
        b = np.array([m.basis for m in self])
        o = np.abs(b.conj()[:, None] @ b.transpose(0, 2, 1)[None]) ** 2
        o.flags.writeable = False
        return o


def as_measurements(measurements, *, minimum: int) -> MeasurementSet:
    """Admit at least ``minimum`` measurements of one dimension; a set is only counted."""
    ms = measurements if isinstance(measurements, MeasurementSet) else list(measurements)
    if len(ms) < minimum:
        raise ValidationError(f"need at least {minimum} measurement(s), got {len(ms)}")
    return ms if isinstance(ms, MeasurementSet) else MeasurementSet(ms)


def hermitian_eigen(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix with a deterministic gauge.

    Eigenvalues come back descending (ties keep the solver's order) and
    each eigenvector's phase is fixed so its largest-magnitude component
    is real and positive.  Vectors are the columns of the second return.
    """
    return _gauged_eigh(_check_hermitian(as_complex_array(matrix, name="matrix"), name="matrix"))


def _gauged_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``hermitian_eigen`` of a matrix that is already an exactly Hermitian complex array."""
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    # The pivot of each column (argmax has no answer for a 0 x 0 matrix),
    # then one scalar phase per column: a broadcast of all the phases at
    # once rounds differently.
    pivots = abs(vecs).argmax(axis=0).tolist() if vecs.size else []
    for j, k in enumerate(pivots):
        pivot = vecs[k, j]
        vecs[:, j] *= np.conj(pivot) / abs(pivot)
    return vals, vecs


def born_probabilities(measurement: ProjectiveMeasurement, rho) -> np.ndarray:
    """Outcome distribution p_i = <u_i| rho |u_i> of a projective measurement."""
    return _born_probabilities(measurement.basis, as_density_matrix(rho, psd_tol=ATOL))


def _born_probabilities(kets: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``born_probabilities`` of bases stacked as their kets, one basis after another, for an admitted
    matrix r, by one einsum; for d >= 3 each basis keeps its bits (at d = 2 einsum regroups them)."""
    d = r.shape[0]
    if kets.shape[1] != d:
        raise ValidationError(f"dimension mismatch: measurement dim {kets.shape[1]}, state dim {d}")
    amps = np.einsum("id,de,ie->i", kets.conj(), r, kets)
    if abs(amps.imag).max() > ATOL:
        raise ValidationError("Born probabilities have imaginary part beyond tolerance")
    p = amps.real
    if p.min() < -ATOL or max(abs(s - 1.0) for s in p.reshape(-1, d).sum(axis=1).tolist()) > ATOL:
        raise ValidationError("Born probabilities violate distribution invariants")
    return p


def overlap_c(m1: ProjectiveMeasurement, m2: ProjectiveMeasurement) -> float:
    """Largest squared overlap c = max_{ij} |<u_i|v_j>|^2 between two bases."""
    if m1.dim != m2.dim:
        raise ValidationError("overlap requires measurements of equal dimension")
    c = float(np.max(np.abs(m1.basis.conj() @ m2.basis.T) ** 2))
    # Cauchy-Schwarz caps c at 1; shave representation noise.
    return min(c, 1.0)


def matrix_sqrt_psd(matrix) -> np.ndarray:
    """Principal square root of a PSD matrix.

    Eigenvalues in [-ATOL, 0) are clamped to zero; anything lower raises,
    since a square root of a genuinely indefinite operator is undefined.
    """
    return _sqrt_psd(_check_hermitian(as_complex_array(matrix, name="matrix"), name="matrix"))


def _sqrt_psd(m: np.ndarray) -> np.ndarray:
    """``matrix_sqrt_psd`` of a matrix that is already an exactly Hermitian complex array."""
    vals, vecs = np.linalg.eigh(m)
    # with initial=0.0 a 0 x 0 matrix has its 0 x 0 root; lo < -ATOL reads the same
    lo = float(vals.min(initial=0.0))
    if lo < -ATOL:
        raise ValidationError(f"matrix is not PSD within tolerance (min eigenvalue {lo:.3e})")
    # np.maximum is the ufunc np.clip(vals, 0.0, None) calls
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T


def ray_fidelity(psi, phi) -> float:
    """Squared overlap of two kets as rays (global phase ignored)."""
    return _ray_fidelity(as_state_vector(psi, name="psi"), as_state_vector(phi, name="phi"))


def _ray_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """``ray_fidelity`` of two checked kets."""
    if a.size != b.size:
        raise ValidationError("ray fidelity requires equal-dimension kets")
    return float(min(abs(np.vdot(a, b)) ** 2, 1.0))
