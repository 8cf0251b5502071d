from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eurkit.linalg import (
    ATOL,
    NOISE_FLOOR,
    DataQualityError,
    DensityOperator,
    ValidationError,
    _gauged_eigh,
    as_density_matrix,
)
from eurkit.sampling import random_density, random_pure_ket
from eurkit.tomography import (
    REFERENCE_RECONSTRUCTION,
    REFERENCE_TARGET_KET,
    ReconstructionResult,
    TomographyRecord,
    fidelity,
    fidelity_with_ket,
    project_physical,
    reconstruct,
    simulate_projections,
)

ROUND_TRIP_TOL = 1e-9
BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def fidelity_oracle(rho, sigma):
    """``fidelity`` as it was before it took sigma's root through the
    unchecked kernel: the root re-admits sigma's matrix, clips by np.clip."""
    r = as_density_matrix(rho, name="rho")
    s = as_density_matrix(sigma, psd_tol=ATOL, name="sigma")
    s = 0.5 * (s + s.conj().T)
    vals, vecs = np.linalg.eigh(s)
    if vals.min() < -ATOL:
        raise ValidationError("sigma is not PSD within tolerance")
    root = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.conj().T
    inner = root @ r @ root
    inner = 0.5 * (inner + inner.conj().T)
    w = np.linalg.eigvalsh(inner)
    w = np.where(w < NOISE_FLOOR, 0.0, w)
    return float(np.clip(np.sum(np.sqrt(w)), 0.0, 1.0))


def noisy_records(rng, n, shots=1000):
    """Shot-noise records of random states whose eigenvalues are all at
    least 0.1, so each stays inside the data window."""
    for _ in range(n):
        rho = random_density(rng, pure=bool(rng.integers(2)))
        rho = DensityOperator(0.7 * rho.matrix + 0.1 * np.eye(3))
        ideal = simulate_projections(rho)
        p = np.clip([ideal.set1, ideal.set2, ideal.set3], 0.0, 1.0)
        counts = rng.binomial(shots, p) / shots
        yield rho, TomographyRecord(*(tuple(row) for row in counts))


def count_eigensolvers(monkeypatch) -> list[str]:
    """Patch np.linalg's eigh and eigvalsh to record each call by name."""
    calls = []
    for name in ("eigh", "eigvalsh"):

        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls

# Frozen figures for the bundled experimental matrix: entropy of the
# physicality-projected operator and raw fidelity against the bundled
# preparation target.
REFERENCE_VN_ENTROPY = 0.41321102422785694
REFERENCE_FIDELITY = 0.9534848364464605


class TestReferenceFixture:
    def test_shape_and_trace(self):
        m = REFERENCE_RECONSTRUCTION
        assert m.shape == (3, 3)
        assert_allclose(m, m.conj().T, atol=1e-12)
        assert abs(m.trace().real - 1.0) < 1e-12

    def test_small_negativity_within_window(self):
        lo = float(np.linalg.eigvalsh(REFERENCE_RECONSTRUCTION).min())
        assert -5e-2 < lo < 0.0

    def test_target_normalized(self):
        assert abs(np.linalg.norm(REFERENCE_TARGET_KET) - 1.0) < 1e-12


class TestSimulateProjections:
    def test_ground_state_set1(self):
        rec = simulate_projections(DensityOperator.from_ket([1, 0, 0]))
        assert_allclose(rec.set1, (1.0, 0.0, 0.5, 0.5), atol=1e-12)
        assert_allclose(rec.set2, (1.0, 0.0, 0.5, 0.5), atol=1e-12)

    def test_maximally_mixed_everything_one_third(self):
        rec = simulate_projections(DensityOperator(np.eye(3) / 3))
        for values in (rec.set1, rec.set2, rec.set3):
            assert_allclose(values, np.full(4, 1 / 3), atol=1e-12)

    def test_target_state_round_trips_to_unit_fidelity(self):
        rho = DensityOperator.from_ket(REFERENCE_TARGET_KET)
        result = reconstruct(simulate_projections(rho), target_ket=REFERENCE_TARGET_KET)
        assert abs(result.fidelity_vs_target - 1.0) < 1e-9
        assert_allclose(result.rho.matrix, rho.matrix, atol=1e-9)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_rejects_non_qutrit_state(self, dim):
        with pytest.raises(ValidationError, match="dimension mismatch"):
            simulate_projections(DensityOperator(np.eye(dim) / dim))


class TestTomographyRecord:
    def test_as_dict_round_trip(self):
        rec = simulate_projections(DensityOperator(np.eye(3) / 3))
        clone = TomographyRecord(**{k: tuple(v) for k, v in rec.as_dict().items()})
        assert clone.set1 == rec.set1 and clone.set3 == rec.set3

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValidationError):
            TomographyRecord(set1=(1, 0, 0), set2=(0, 0, 0, 0), set3=(0, 0, 0, 0))

    def test_rejects_out_of_range_projection(self):
        with pytest.raises(ValidationError):
            TomographyRecord(set1=(1.2, 0, 0, 0), set2=(1, 0, 0.5, 0.5), set3=(0, 0, 0, 0))

    def test_rejects_population_overflow(self):
        with pytest.raises(DataQualityError):
            TomographyRecord(set1=(0.6, 0.5, 0.5, 0.5), set2=(1, 0, 0.5, 0.5), set3=(0, 0, 0, 0))

    def test_rejects_identically_zero(self):
        with pytest.raises(ValidationError):
            TomographyRecord(set1=(0,) * 4, set2=(0,) * 4, set3=(0,) * 4)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            TomographyRecord(set1=(np.nan, 0, 0, 0), set2=(0,) * 4, set3=(0,) * 4)


class TestReconstruct:
    def test_round_trip_random_states(self, rng):
        for _ in range(25):
            rho = random_density(rng, pure=bool(rng.integers(2)))
            result = reconstruct(simulate_projections(rho))
            assert np.abs(result.raw_rho - rho.matrix).max() < ROUND_TRIP_TOL
            assert np.abs(result.rho.matrix - rho.matrix).max() < ROUND_TRIP_TOL

    def test_maximally_mixed(self):
        result = reconstruct(simulate_projections(DensityOperator(np.eye(3) / 3)))
        assert_allclose(result.rho.matrix, np.eye(3) / 3, atol=1e-12)

    def test_reference_record_frozen_figures(self):
        rec = simulate_projections(REFERENCE_RECONSTRUCTION)
        result = reconstruct(rec, target_ket=REFERENCE_TARGET_KET)
        assert isinstance(result, ReconstructionResult)
        assert np.abs(result.raw_rho - REFERENCE_RECONSTRUCTION).max() < 1e-12
        assert abs(result.vn_entropy - REFERENCE_VN_ENTROPY) < 1e-12
        assert abs(result.fidelity_vs_target - REFERENCE_FIDELITY) < 1e-12

    def test_without_target_no_fidelity(self):
        result = reconstruct(simulate_projections(DensityOperator(np.eye(3) / 3)))
        assert result.fidelity_vs_target is None

    def test_rejects_non_record(self):
        with pytest.raises(ValidationError):
            reconstruct({"set1": (1, 0, 0.5, 0.5)})

    def test_two_diagonalizations_without_target(self, monkeypatch):
        # project_physical's eigh and the admission's eigvalsh; the entropy
        # reads the admitted spectrum.
        record = simulate_projections(REFERENCE_RECONSTRUCTION)
        calls = []
        for name in ("eigh", "eigvalsh"):

            def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        reconstruct(record)
        assert calls == ["eigh", "eigvalsh"]

    def test_two_diagonalizations_with_target(self, monkeypatch):
        # the target fidelity reads the hermitized, trace-normalized matrix
        # whose window project_physical's eigh has just checked, and admits
        # it no second time
        record = simulate_projections(REFERENCE_RECONSTRUCTION)
        calls = count_eigensolvers(monkeypatch)
        reconstruct(record, target_ket=REFERENCE_TARGET_KET)
        assert calls == ["eigh", "eigvalsh"]

    def test_target_fidelity_is_fidelity_with_ket_of_the_measured_matrix(self, rng):
        for _, record in noisy_records(rng, 40):
            ket = random_pure_ket(rng)
            result = reconstruct(record, target_ket=ket)
            raw_h = 0.5 * (result.raw_rho + result.raw_rho.conj().T)
            assert result.fidelity_vs_target == fidelity_with_ket(raw_h / raw_h.trace().real, ket)
            assert result.rho.matrix.tobytes() == project_physical(result.raw_rho).matrix.tobytes()

    def test_repaired_operator_is_admitted_operator_of_lab_records(self, monkeypatch):
        # the repaired matrix skips admission, with the bits admission gives
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        from workloads import LabRecords

        _, records = LabRecords().generate(7)
        assert len(records) == 1000
        for r in records:
            result = reconstruct(TomographyRecord(*r.sets))
            h = 0.5 * (result.raw_rho + result.raw_rho.conj().T)
            vals, vecs = _gauged_eigh(h / h.trace().real)
            vals = np.maximum(vals, 0.0)
            admitted = DensityOperator((vecs * (vals / vals.sum())) @ vecs.conj().T)
            assert np.array_equal(result.rho.matrix, admitted.matrix)
            assert np.array_equal(result.rho.spectrum, admitted.spectrum)
            assert not (result.rho.matrix.flags.writeable or result.rho.spectrum.flags.writeable)

    def test_target_is_checked(self):
        record = simulate_projections(REFERENCE_RECONSTRUCTION)
        with pytest.raises(ValidationError, match="^target is not normalized"):
            reconstruct(record, target_ket=2.0 * REFERENCE_TARGET_KET)
        with pytest.raises(ValidationError, match="^dimension mismatch: rho dim 3, target dim 2$"):
            reconstruct(record, target_ket=[1.0, 0.0])


class TestProjectPhysical:
    def test_idempotent_and_trace_preserving(self, rng):
        for _ in range(10):
            rho = random_density(rng)
            noisy = rho.matrix + 0.01 * np.diag([1.0, -1.0, 0.0])
            repaired = project_physical(noisy)
            assert abs(repaired.matrix.trace().real - 1.0) < 1e-12
            again = project_physical(repaired.matrix)
            assert np.abs(again.matrix - repaired.matrix).max() < 1e-12

    def test_clamps_window_negativity(self):
        repaired = project_physical(np.diag([1.02, 0.0, -0.02]))
        assert_allclose(repaired.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_reference_matrix_repairs_cleanly(self):
        repaired = project_physical(REFERENCE_RECONSTRUCTION)
        assert float(np.linalg.eigvalsh(repaired.matrix).min()) >= -1e-12

    def test_rejects_trace_outside_window(self):
        with pytest.raises(DataQualityError, match="trace"):
            project_physical(np.diag([0.85, 0.0, 0.0]))

    def test_rejects_deep_negativity(self):
        with pytest.raises(DataQualityError):
            project_physical(np.diag([0.56, 0.5, -0.06]))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            project_physical(np.ones((2, 3)))

    def test_any_memory_layout(self):
        expected = project_physical(REFERENCE_RECONSTRUCTION).matrix
        for m in (REFERENCE_RECONSTRUCTION.T.conj(), REFERENCE_RECONSTRUCTION.copy(order="F")):
            assert not m.flags.c_contiguous
            assert np.array_equal(project_physical(m).matrix, expected)
        bad = REFERENCE_RECONSTRUCTION.copy(order="F")
        bad[1, 2] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            project_physical(bad)


class TestFidelity:
    def test_self_fidelity(self, rng):
        for _ in range(15):
            rho = random_density(rng)
            assert abs(fidelity(rho, rho) - 1.0) < 1e-9

    def test_orthogonal_pure_states(self):
        rho = DensityOperator.from_ket([1, 0, 0])
        sigma = DensityOperator.from_ket([0, 1, 0])
        assert fidelity(rho, sigma) < 1e-9

    def test_symmetry(self, rng):
        for _ in range(10):
            rho, sigma = random_density(rng), random_density(rng)
            assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-9

    def test_shortcut_agrees_with_general_path(self, rng):
        for _ in range(15):
            rho = random_density(rng)
            psi = random_pure_ket(rng)
            sigma = DensityOperator.from_ket(psi)
            assert abs(fidelity(rho, sigma) - fidelity_with_ket(rho, psi)) < 1e-9

    def test_matches_pre_split_oracle(self, rng):
        # seeded raw shot-noise matrices against strictly physical sigmas,
        # among them degenerate, pure and maximally mixed ones
        sigmas = [random_density(rng, pure=bool(i % 2)) for i in range(10)]
        sigmas += [DensityOperator(np.eye(3) / 3), DensityOperator(np.diag([0.5, 0.25, 0.25])), DensityOperator(np.ones((3, 3)) / 3)]
        for (rho, record), sigma in zip(noisy_records(rng, 3 * len(sigmas)), sigmas * 3):
            raw = reconstruct(record).raw_rho
            raw_h = 0.5 * (raw + raw.conj().T)
            raw_h = raw_h / raw_h.trace().real
            for a, b in ((raw_h, sigma), (rho, sigma), (sigma, rho), (sigma, sigma)):
                assert fidelity(a, b) == fidelity_oracle(a, b)

    def test_reference_matrix_against_target(self):
        sigma = DensityOperator.from_ket(REFERENCE_TARGET_KET)
        f = fidelity(REFERENCE_RECONSTRUCTION, sigma)
        assert abs(f - 0.9535) < 1e-3
        assert abs(fidelity_with_ket(REFERENCE_RECONSTRUCTION, REFERENCE_TARGET_KET) - f) < 1e-9

    def test_sigma_must_be_strictly_physical(self):
        rho = DensityOperator(np.eye(3) / 3)
        with pytest.raises(ValidationError):
            fidelity(rho, REFERENCE_RECONSTRUCTION)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            fidelity(np.diag([0.9, 0.0, 0.0]), DensityOperator(np.eye(3) / 3))

    @pytest.mark.parametrize("dim", [2, 4])
    def test_rejects_dimension_mismatch(self, dim):
        rho = DensityOperator(np.eye(3) / 3)
        other = DensityOperator(np.eye(dim) / dim)
        ket = np.full(dim, 1.0 / np.sqrt(dim))
        for call in (lambda: fidelity(rho, other), lambda: fidelity(other, rho), lambda: fidelity_with_ket(rho, ket)):
            with pytest.raises(ValidationError, match="dimension mismatch"):
                call()
