import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from eurkit.linalg import (
    ATOL,
    DataQualityError,
    DensityOperator,
    MeasurementSet,
    ProjectiveMeasurement,
    ValidationError,
    as_density_matrix,
    as_density_operator,
    as_measurements,
    as_state_vector,
    born_probabilities,
    hermitian_eigen,
    matrix_sqrt_psd,
    overlap_c,
    ray_fidelity,
)
from eurkit.family import build_family
from eurkit.sampling import random_basis, random_density
from eurkit.tomography import REFERENCE_RECONSTRUCTION

EIG_TOL = 1e-9

E0, E1, E2 = np.eye(3, dtype=complex)

FOURIER_QUTRIT = np.array(
    [[1, 1, 1], [1, np.exp(2j * np.pi / 3), np.exp(-2j * np.pi / 3)], [1, np.exp(-2j * np.pi / 3), np.exp(2j * np.pi / 3)]]
) / np.sqrt(3.0)


def eigvals3_oracle(m):
    """Descending eigenvalues of a 3x3 Hermitian matrix from the
    characteristic cubic (trigonometric solution), independent of any
    LAPACK eigensolver."""
    m = np.asarray(m, dtype=complex)
    q = m.trace().real / 3.0
    b = m - q * np.eye(3)
    p2 = float(np.sum(np.abs(b) ** 2))  # tr(b^2) for Hermitian b
    p = math.sqrt(p2 / 6.0)
    if p < 1e-15:
        return np.array([q, q, q])
    c = b / p
    det = (
        c[0, 0] * (c[1, 1] * c[2, 2] - c[1, 2] * c[2, 1])
        - c[0, 1] * (c[1, 0] * c[2, 2] - c[1, 2] * c[2, 0])
        + c[0, 2] * (c[1, 0] * c[2, 1] - c[1, 1] * c[2, 0])
    )
    r = min(max(det.real / 2.0, -1.0), 1.0)
    phi = math.acos(r) / 3.0
    hi = q + 2.0 * p * math.cos(phi)
    lo = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    return np.array([hi, 3.0 * q - hi - lo, lo])


def random_hermitian(rng, scale=1.0):
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    return scale * 0.5 * (z + z.conj().T)


def hermitian_eigen_oracle(matrix):
    """``hermitian_eigen`` as it was before its kernel was split out: one
    argmax and one scalar phase per column, in a loop."""
    m = np.asarray(matrix, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for j in range(vecs.shape[1]):
        k = int(np.argmax(np.abs(vecs[:, j])))
        pivot = vecs[k, j]
        vecs[:, j] *= np.conj(pivot) / abs(pivot)
    return vals, vecs


def matrix_sqrt_psd_oracle(matrix):
    """``matrix_sqrt_psd`` as it was before its kernel was split out."""
    m = np.asarray(matrix, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    if vals.min() < -ATOL:
        raise ValidationError("not PSD")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def oracle_matrices(rng):
    """Seeded Hermitian matrices, among them degenerate spectra and
    eigenvectors whose largest components tie in magnitude."""
    u = random_basis(rng).basis
    yield from (random_hermitian(rng, scale=rng.uniform(0.1, 5.0)) for _ in range(30))
    yield from (random_density(rng, pure=bool(i % 2)).matrix for i in range(30))
    yield from (np.eye(3), np.zeros((3, 3)), np.ones((3, 3)) / 3, np.diag([0.5, 0.25, 0.25]), np.diag([0.2, 0.2, 0.6]))
    yield from ((u * spectrum) @ u.conj().T for spectrum in ([0.5, 0.25, 0.25], [1.0, 0.0, 0.0], [1 / 3] * 3))
    # eigenvectors (1, +-1, 0)/sqrt2 and (1, 1, 1)/sqrt3 and the Fourier kets
    yield from (np.array([[a, b, 0.0], [b, a, 0.0], [0.0, 0.0, c]]) for a, b, c in ((0.5, 0.25, 0.0), (0.4, 0.4, 0.2), (1.0, -1.0, 1.0)))
    yield from ((FOURIER_QUTRIT.conj().T * spectrum) @ FOURIER_QUTRIT for spectrum in ([0.5, 0.3, 0.2], [0.5, 0.25, 0.25]))
    yield REFERENCE_RECONSTRUCTION


class TestHermitianEigen:
    def test_identity(self):
        vals, vecs = hermitian_eigen(np.eye(3))
        assert_allclose(vals, np.ones(3), atol=EIG_TOL)
        assert_allclose(vecs @ vecs.conj().T, np.eye(3), atol=EIG_TOL)

    def test_diagonal_descending(self):
        vals, _ = hermitian_eigen(np.diag([0.3, 0.5, 0.2]))
        assert_allclose(vals, [0.5, 0.3, 0.2], atol=EIG_TOL)

    def test_reference_matrix_against_cubic_oracle(self):
        vals, _ = hermitian_eigen(REFERENCE_RECONSTRUCTION)
        assert_allclose(vals, eigvals3_oracle(REFERENCE_RECONSTRUCTION), atol=1e-10)
        assert abs(vals.sum() - 1.0) < 1e-12
        # near-pure state: dominant weight close to 1
        assert vals[0] > 0.9

    def test_random_matrices_match_oracle_and_reconstruct(self, rng):
        for _ in range(50):
            m = random_hermitian(rng, scale=rng.uniform(0.1, 5.0))
            vals, vecs = hermitian_eigen(m)
            assert_allclose(vals, eigvals3_oracle(m), atol=1e-8 * max(1.0, np.abs(m).max()))
            assert np.all(np.diff(vals) <= 1e-12)
            assert_allclose(vecs.conj().T @ vecs, np.eye(3), atol=1e-9)
            assert_allclose((vecs * vals) @ vecs.conj().T, m, atol=1e-9)

    def test_phase_gauge_pivot_real_positive(self, rng):
        for _ in range(20):
            _, vecs = hermitian_eigen(random_hermitian(rng))
            for j in range(3):
                k = int(np.argmax(np.abs(vecs[:, j])))
                pivot = vecs[k, j]
                assert abs(pivot.imag) < 1e-12
                assert pivot.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_matches_pre_split_oracle(self, rng):
        for m in oracle_matrices(rng):
            vals, vecs = hermitian_eigen(m)
            expected_vals, expected_vecs = hermitian_eigen_oracle(m)
            assert vals.tobytes() == expected_vals.tobytes()
            assert vecs.tobytes() == expected_vecs.tobytes()


class TestOverlapC:
    def test_identical_bases(self, rng):
        m = random_basis(rng)
        assert overlap_c(m, m) == 1.0

    def test_computational_vs_fourier(self):
        m1 = ProjectiveMeasurement(np.eye(3, dtype=complex), "C")
        m2 = ProjectiveMeasurement(FOURIER_QUTRIT, "F")
        assert abs(overlap_c(m1, m2) - 1.0 / 3.0) < EIG_TOL

    def test_family_m2_vs_m3_at_0p3(self):
        _, m2, m3 = build_family(0.3)
        assert abs(overlap_c(m2, m3) - 0.7) < EIG_TOL

    def test_symmetry_and_range(self, rng):
        for _ in range(20):
            r, s = random_basis(rng), random_basis(rng)
            c = overlap_c(r, s)
            # |<a|b>|^2 sums products in a different order each way round
            assert abs(c - overlap_c(s, r)) < 1e-12
            assert 1.0 / 3.0 - 1e-12 <= c <= 1.0

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            overlap_c(random_basis(rng, dim=2), random_basis(rng, dim=3))


class TestBornProbabilities:
    def test_eigenstate_of_measured_basis(self):
        m1 = build_family(0.5)[0]
        p = born_probabilities(m1, DensityOperator.from_ket(E1))
        assert_allclose(p, [0, 1, 0], atol=EIG_TOL)

    def test_m2_on_zero(self):
        m2 = build_family(0.5)[1]
        p = born_probabilities(m2, DensityOperator.from_ket(E0))
        assert_allclose(p, [0.5, 0, 0.5], atol=EIG_TOL)

    def test_maximally_mixed_uniform_under_any_basis(self, rng):
        mixed = DensityOperator(np.eye(3) / 3.0)
        for _ in range(10):
            p = born_probabilities(random_basis(rng), mixed)
            assert_allclose(p, np.full(3, 1.0 / 3.0), atol=EIG_TOL)

    def test_unitary_covariance(self, rng):
        for _ in range(15):
            m = random_basis(rng)
            rho = random_density(rng)
            u = random_basis(rng).basis.conj().T  # Haar unitary, columns orthonormal
            m_rot = ProjectiveMeasurement(m.basis @ u.T, m.label)
            rho_rot = DensityOperator(u @ rho.matrix @ u.conj().T)
            assert_allclose(
                born_probabilities(m_rot, rho_rot), born_probabilities(m, rho), atol=1e-9
            )

    def test_distribution_invariants(self, rng):
        for _ in range(10):
            p = born_probabilities(random_basis(rng), random_density(rng))
            assert p.min() > -EIG_TOL
            assert abs(p.sum() - 1.0) < EIG_TOL

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValidationError):
            born_probabilities(random_basis(rng, dim=2), random_density(rng, dim=3))


class TestMatrixSqrtPsd:
    def test_identity(self):
        assert_allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=EIG_TOL)

    def test_diagonal(self):
        assert_allclose(matrix_sqrt_psd(np.diag([4.0, 1.0, 0.0])), np.diag([2.0, 1.0, 0.0]), atol=EIG_TOL)

    def test_square_reproduces_input(self, rng):
        for _ in range(20):
            a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            m = a @ a.conj().T
            root = matrix_sqrt_psd(m)
            assert_allclose(root, root.conj().T, atol=1e-9)
            assert_allclose(root @ root, m, atol=1e-8 * max(1.0, np.abs(m).max()))

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            matrix_sqrt_psd(np.diag([1.0, -1.0, 0.5]))

    def test_matches_pre_split_oracle(self, rng):
        for m in oracle_matrices(rng):
            if np.linalg.eigvalsh(m).min() < -ATOL:
                continue  # both refuse it
            assert matrix_sqrt_psd(m).tobytes() == matrix_sqrt_psd_oracle(m).tobytes()

    def test_empty_matrix_has_the_empty_root(self):
        # hermitian_eigen returns empty arrays for the same input
        root = matrix_sqrt_psd(np.zeros((0, 0)))
        assert root.shape == (0, 0) and root.dtype == complex
        assert [x.shape for x in hermitian_eigen(np.zeros((0, 0)))] == [(0,), (0, 0)]

    def test_rejects_reference_matrix_negativity(self):
        # the bundled experimental matrix dips to about -3.8e-3, which is
        # inside the data admission window but outside the strict PSD
        # contract of the square root
        with pytest.raises(ValidationError):
            matrix_sqrt_psd(REFERENCE_RECONSTRUCTION)


class TestDensityOperator:
    def test_from_ket_is_pure(self):
        rho = DensityOperator.from_ket((E0 + 1j * E1) / np.sqrt(2.0))
        assert abs(rho.purity() - 1.0) < 1e-12
        assert rho.dim == 3

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityOperator(np.diag([0.9, 0.0, 0.0]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.diag([1.1, -0.1, 0.0]))

    def test_strict_window_rejects_reference_matrix(self):
        with pytest.raises(ValidationError):
            DensityOperator(REFERENCE_RECONSTRUCTION)

    def test_matrix_read_only(self, rng):
        rho = random_density(rng)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0

    def test_spectrum_is_the_admission_eigvalsh(self, rng):
        for rho in (random_density(rng), random_density(rng, 4), DensityOperator.from_ket(E1), DensityOperator(np.eye(3) / 3)):
            assert np.array_equal(rho.spectrum, np.linalg.eigvalsh(rho.matrix))
            with pytest.raises(ValueError):
                rho.spectrum[0] = 0.0
            with pytest.raises(dataclasses.FrozenInstanceError):
                rho.spectrum = np.zeros(rho.dim)

    def test_strict_window_is_a_data_quality_error(self):
        with pytest.raises(
            DataQualityError, match=r"^density matrix has eigenvalue -1\.0000e-06 below the admission window -1e-09$"
        ):
            DensityOperator(np.diag([1.0 + 1e-6, -1e-6, 0.0]))

    def test_hermiticity_window_is_atol(self):
        # one off-diagonal entry without its mirror: the deviation is that entry
        m = np.diag([0.5, 0.5, 0.0]).astype(complex)
        m[0, 1] = 0.9 * ATOL
        assert_allclose(DensityOperator(m).matrix[1, 0], 0.45 * ATOL, rtol=1e-12)
        m[0, 1] = 1.1 * ATOL
        with pytest.raises(ValidationError, match=r"not Hermitian within tolerance \(dev 1\.100e-09\)"):
            DensityOperator(m)


NON_FINITE = [
    np.array([[np.nan, 0.0], [0.0, 1.0]]),
    np.array([[np.inf, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [0.0, -np.inf]]),
    np.array([[complex(np.nan, 0.0), 0.0], [0.0, 1.0]]),
    np.array([[1.0, complex(np.inf, 1.0)], [0.0, 1.0]]),
    np.array([[1.0, complex(0.0, np.nan)], [0.0, 1.0]]),
    np.array([[1.0, 0.0], [complex(1.0, -np.inf), 1.0]]),
    [[1.0, complex(0.0, np.inf)], [0.0, 1.0]],
]


@pytest.mark.parametrize("value", NON_FINITE, ids=range(len(NON_FINITE)))
def test_non_finite_entries_are_refused(value):
    # NaN or Inf in the real or the imaginary part, of real or complex input
    for admit, name in ((hermitian_eigen, "matrix"), (matrix_sqrt_psd, "matrix"), (as_density_matrix, "rho")):
        with pytest.raises(ValidationError, match=f"^{name} contains non-finite entries$"):
            admit(value)
    with pytest.raises(ValidationError, match="^state contains non-finite entries$"):
        as_state_vector(np.ravel(value))


class TestAsDensityOperator:
    def test_passthrough_for_density_operator(self, rng):
        rho = random_density(rng)
        assert as_density_operator(rho) is rho

    def test_raw_array_is_the_strict_admission(self, rng):
        for m in (np.eye(3) / 3, np.array(random_density(rng).matrix), np.diag([0.5, 0.5]).astype(complex)):
            rho = as_density_operator(m)
            expected = DensityOperator(m)
            assert type(rho) is DensityOperator
            assert rho.matrix.tobytes() == expected.matrix.tobytes()
            assert rho.spectrum.tobytes() == expected.spectrum.tobytes()
            for arr in (rho.matrix, rho.spectrum):
                with pytest.raises(ValueError):
                    arr[0] = 5
        with pytest.raises(DataQualityError, match=r"^rho has eigenvalue -3\.8\d+e-03 below the admission window -1e-09$"):
            as_density_operator(REFERENCE_RECONSTRUCTION)
        with pytest.raises(ValidationError, match="^state trace deviates"):
            as_density_operator(np.eye(3), name="state")


class TestAsDensityMatrix:
    def test_data_window_admits_reference_matrix(self):
        m = as_density_matrix(REFERENCE_RECONSTRUCTION)
        assert_allclose(m, REFERENCE_RECONSTRUCTION, atol=1e-12)

    def test_strict_window_rejects_it(self):
        with pytest.raises(DataQualityError):
            as_density_matrix(REFERENCE_RECONSTRUCTION, psd_tol=ATOL)

    def test_passthrough_for_density_operator(self, rng):
        rho = random_density(rng)
        assert as_density_matrix(rho) is rho.matrix


class TestProjectiveMeasurement:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValidationError):
            ProjectiveMeasurement(np.array([E0, E0, E2]))

    def test_orthonormality_window_is_atol(self):
        # the first ket's squared norm is 1 + x, so the Gram deviation is x
        ProjectiveMeasurement(np.array([math.sqrt(1.0 + 0.9 * ATOL) * E0, E1, E2]))
        with pytest.raises(ValidationError, match=r"not orthonormal \(dev 1\.100e-09\)"):
            ProjectiveMeasurement(np.array([math.sqrt(1.0 + 1.1 * ATOL) * E0, E1, E2]))

    def test_from_vectors_validates_each_ket(self):
        with pytest.raises(ValidationError):
            ProjectiveMeasurement.from_vectors([E0, 2.0 * E1, E2])

    def test_basis_read_only(self, rng):
        m = random_basis(rng)
        with pytest.raises(ValueError):
            m.basis[0, 0] = 0.0


class TestMeasurementSet:
    def test_as_measurements_passes_a_set_through(self, rng):
        ms = MeasurementSet([random_basis(rng), random_basis(rng)])
        assert as_measurements(ms, minimum=2) is ms
        with pytest.raises(ValidationError, match="need at least 3 measurement"):
            as_measurements(ms, minimum=3)

    def test_as_measurements_admits_a_list_once(self, rng):
        ms = [random_basis(rng), random_basis(rng)]
        got = as_measurements(ms, minimum=2)
        assert type(got) is MeasurementSet and list(got) == ms

    def test_construction_refuses_like_as_measurements(self, rng):
        m2, m3 = random_basis(rng, dim=2), random_basis(rng, dim=3)
        with pytest.raises(ValidationError, match="^measurements must share one dimension$"):
            MeasurementSet([m2, m3])
        with pytest.raises(ValidationError, match="^expected ProjectiveMeasurement instances$"):
            MeasurementSet([m3, m3.basis])
        # the instance check comes first, as in as_measurements
        with pytest.raises(ValidationError, match="^expected ProjectiveMeasurement instances$"):
            MeasurementSet([m2, m3, "M"])
        # as_measurements counts before it admits
        with pytest.raises(ValidationError, match="^need at least 2 measurement"):
            as_measurements(["M"], minimum=2)

    def test_squared_overlaps_match_per_pair_products(self, rng):
        random_sets = [[random_basis(rng, dim=d) for _ in range(n)] for d, n in ((2, 2), (3, 3), (3, 5), (4, 4))]
        family_sets = [build_family(a) for a in np.linspace(0.0, 1.0, 101)]
        for ms in [MeasurementSet([*b, b[0]]) for b in random_sets] + family_sets:  # random ones repeat a basis
            assert "squared_overlaps" not in ms.__dict__  # computed on first use
            oracle = np.array([[np.abs(a.basis.conj() @ b.basis.T) ** 2 for b in ms] for a in ms])
            assert np.array_equal(ms.squared_overlaps, oracle)
            assert ms.squared_overlaps is ms.squared_overlaps

    def test_squared_overlaps_read_only(self, rng):
        ms = MeasurementSet([random_basis(rng), random_basis(rng)])
        with pytest.raises(ValueError):
            ms.squared_overlaps[0, 1, 0, 0] = 0.0

    def test_family_is_an_immutable_set(self):
        ms = build_family(0.3)
        assert isinstance(ms, MeasurementSet) and len(ms) == 3
        m1, m2, m3 = ms
        assert (m1.label, m2.label, m3.label) == ("M1", "M2", "M3")
        with pytest.raises(TypeError):
            ms[0] = m3


class TestRayFidelity:
    def test_global_phase_invariance(self, rng):
        for _ in range(10):
            psi = random_basis(rng).basis[0]
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            assert abs(ray_fidelity(psi, phase * psi) - 1.0) < 1e-12

    def test_orthogonal(self):
        assert ray_fidelity(E0, E1) == 0.0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            ray_fidelity(2.0 * E0, E1)


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=3, max_size=3))
@settings(max_examples=50, deadline=None)
def test_as_state_vector_norm_gate(weights):
    v = np.array(weights, dtype=complex)
    norm = np.linalg.norm(v)
    assert_allclose(as_state_vector(v / norm), v / norm)
    if abs(norm - 1.0) > 1e-6:
        with pytest.raises(ValidationError):
            as_state_vector(v)


@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))], ids=["deepcopy", "pickle"])
def test_copies_are_admitted_again_read_only(rng, duplicate):
    rho = DensityOperator(np.diag([0.5, 0.3, 0.2]))
    m = ProjectiveMeasurement(random_basis(rng).basis, "R")
    ms = MeasurementSet([m, random_basis(rng)])
    ms.squared_overlaps  # fill both caches before copying
    ms.memo("key", lambda _: (1.0,))
    rho2, m2, ms2 = duplicate(rho), duplicate(m), duplicate(ms)
    assert np.array_equal(rho2.matrix, rho.matrix) and np.array_equal(rho2.spectrum, rho.spectrum)
    assert np.array_equal(m2.basis, m.basis) and m2.label == "R"
    assert type(ms2) is MeasurementSet and [b.label for b in ms2] == [b.label for b in ms]
    assert "squared_overlaps" not in ms2.__dict__  # recomputed, not carried over
    assert ms2.memo("key", lambda _: (2.0,)) == (2.0,)
    for arr in (rho2.matrix, rho2.spectrum, m2.basis, ms2[0].basis, ms2.squared_overlaps):
        with pytest.raises(ValueError):
            arr[0] = 5
    assert np.array_equal(ms2.squared_overlaps, ms.squared_overlaps)
