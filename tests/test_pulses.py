import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from eurkit.linalg import ValidationError, ray_fidelity
from eurkit.pulses import (
    CHANNELS,
    GROUND,
    PROJECTION_TABLE,
    Channel,
    Pulse,
    RowCheck,
    apply_pulses,
    calibrated_angle,
    get_channel,
    pulse_unitary,
    verify_projection_sequence,
    verify_row,
    verify_table,
)

U_TOL = 1e-9
PASS_THRESHOLD = 1.0 - 1e-9


def expm_oracle(channel: Channel, angle: float) -> np.ndarray:
    """Independent matrix-exponential reference for one pulse unitary."""
    g = np.zeros((3, 3), dtype=complex)
    a, b = channel.subspace
    g[a, b] = np.exp(-1j * channel.phase)
    g[b, a] = np.exp(1j * channel.phase)
    return expm(-0.5j * angle * g)


class TestPulseUnitary:
    def test_zero_angle_is_identity(self):
        assert_allclose(pulse_unitary(Pulse(CHANNELS["MW0"], 0.0)), np.eye(3), atol=U_TOL)

    def test_pi_on_mw0_sends_ground_to_minus1(self):
        psi = pulse_unitary(Pulse(CHANNELS["MW0"], math.pi)) @ GROUND
        assert ray_fidelity(psi, [0, 1, 0]) > PASS_THRESHOLD

    def test_half_pi_on_mw2_matches_table_ray(self):
        psi = pulse_unitary(Pulse(CHANNELS["MW2"], math.pi / 2)) @ GROUND
        target = np.array([1.0, 0.0, -1.0j]) / math.sqrt(2.0)
        assert ray_fidelity(psi, target) > PASS_THRESHOLD

    def test_matches_matrix_exponential_oracle(self, rng):
        for name, channel in CHANNELS.items():
            for _ in range(8):
                angle = float(rng.uniform(0.0, 4.0 * math.pi))
                assert_allclose(
                    pulse_unitary(Pulse(channel, angle)), expm_oracle(channel, angle), atol=1e-12
                )

    def test_unitarity_and_spectator(self, rng):
        for channel in CHANNELS.values():
            u = pulse_unitary(Pulse(channel, float(rng.uniform(0.0, 2.0 * math.pi))))
            assert_allclose(u @ u.conj().T, np.eye(3), atol=U_TOL)
            spectator = ({0, 1, 2} - set(channel.subspace)).pop()
            col = np.zeros(3)
            col[spectator] = 1.0
            assert_allclose(u @ col, col, atol=U_TOL)

    def test_composition_on_one_channel(self, rng):
        ch = CHANNELS["MW1"]
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, size=2)
        lhs = pulse_unitary(Pulse(ch, float(t1))) @ pulse_unitary(Pulse(ch, float(t2)))
        assert_allclose(lhs, pulse_unitary(Pulse(ch, float(t1 + t2))), atol=U_TOL)

    def test_two_pi_restores_populations(self, rng):
        for channel in CHANNELS.values():
            z = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi = z / np.linalg.norm(z)
            out = pulse_unitary(Pulse(channel, 2.0 * math.pi)) @ psi
            assert_allclose(np.abs(out) ** 2, np.abs(psi) ** 2, atol=U_TOL)


class TestPulseValidation:
    def test_unknown_channel(self):
        with pytest.raises(ValidationError):
            get_channel("MW9")

    def test_negative_angle(self):
        with pytest.raises(ValidationError):
            Pulse(CHANNELS["MW0"], -0.1)

    def test_numpy_scalar_angles(self):
        for angle in (np.float32(1.0), np.float64(1.0), np.int64(1), np.int32(1), 1):
            pulse = Pulse(CHANNELS["MW0"], angle)
            assert type(pulse.angle) is float and pulse.angle == 1.0

    @pytest.mark.parametrize("angle", [True, False, np.bool_(True), "1.0", None, 1j, np.array([1.0])])
    def test_angle_that_is_no_real_number(self, angle):
        with pytest.raises(ValidationError, match="must be a real number"):
            Pulse(CHANNELS["MW0"], angle)

    @pytest.mark.parametrize("angle", [-float("inf"), np.float32("nan"), np.float64("inf")])
    def test_angle_that_is_not_finite(self, angle):
        with pytest.raises(ValidationError, match="is not finite"):
            Pulse(CHANNELS["MW0"], angle)

    @pytest.mark.parametrize("angle", [np.float32(-0.5), np.int64(-1)])
    def test_negative_numpy_angles(self, angle):
        with pytest.raises(ValidationError, match="is negative"):
            Pulse(CHANNELS["MW0"], angle)

    def test_apply_pulses_type_check(self):
        with pytest.raises(ValidationError):
            apply_pulses([("MW0", 1.0)])

    def test_apply_pulses_needs_triplet(self):
        with pytest.raises(ValidationError):
            apply_pulses([], initial=np.array([1.0, 0.0]))


def rabi_populations(channel: Channel, initial, thetas) -> np.ndarray:
    """Population left in |0> after one rotation of each angle."""
    return np.array([abs(apply_pulses([Pulse(channel, float(th))], initial)[0]) ** 2 for th in thetas])


class TestRabiPopulations:
    def test_full_cycle_from_ground(self):
        pops = rabi_populations(CHANNELS["MW0"], None, [0.0, math.pi, 2.0 * math.pi])
        assert_allclose(pops, [1.0, 0.0, 1.0], atol=U_TOL)

    def test_cosine_squared_law(self):
        thetas = np.linspace(0.0, 2.0 * math.pi, 29)
        pops = rabi_populations(CHANNELS["MW1"], None, thetas)
        assert_allclose(pops, np.cos(thetas / 2.0) ** 2, atol=U_TOL)

    def test_spectator_initial_state_is_flat(self):
        thetas = np.linspace(0.0, 2.0 * math.pi, 11)
        pops = rabi_populations(CHANNELS["MW0"], np.array([0, 0, 1.0]), thetas)
        assert_allclose(pops, np.zeros(11), atol=U_TOL)

    def test_quadrature_initial_state_phase_shifts_the_signal(self):
        # preparing with a quarter rotation on the mirrored channel puts
        # the signal in quadrature: p0 = (1 + sin theta) / 2
        initial = apply_pulses([Pulse(CHANNELS["MW0"], math.pi / 2.0)])
        thetas = np.linspace(0.0, 2.0 * math.pi, 23)
        pops = rabi_populations(CHANNELS["MW1"], initial, thetas)
        assert_allclose(pops, (1.0 + np.sin(thetas)) / 2.0, atol=U_TOL)

    def test_rejects_bad_angles(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValidationError):
                rabi_populations(CHANNELS["MW0"], None, [bad])


class TestCalibratedAngle:
    @pytest.mark.parametrize(
        "multiple, expected",
        [(0.0, 0.0), (0.5, math.pi / 2.0), (1.0, math.pi), (1.5, 1.5 * math.pi)],
    )
    def test_printed_values_fixed_points(self, multiple, expected):
        assert abs(calibrated_angle(multiple) - expected) < 1e-12

    @pytest.mark.parametrize("multiple", [0.1, 0.3, 0.4, 1.6, 1.9])
    def test_transferred_population_matches_label(self, multiple):
        theta = calibrated_angle(multiple)
        transferred = math.sin(theta / 2.0) ** 2
        frac = multiple % 2.0
        expected = frac if frac <= 1.0 else frac - 1.0
        assert abs(transferred - expected) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            calibrated_angle(-0.5)


class TestProjectionTable:
    def test_has_17_rows(self):
        assert len(PROJECTION_TABLE) == 17
        assert [row.index for row in PROJECTION_TABLE] == list(range(1, 18))

    def test_identity_row(self):
        row = PROJECTION_TABLE[0]
        assert verify_projection_sequence(row.target, row.preparation_pulses()) > PASS_THRESHOLD

    def test_pi_flip_row(self):
        row = PROJECTION_TABLE[1]
        assert_allclose(np.abs(row.target), [0, 1, 0], atol=1e-12)
        assert verify_projection_sequence(row.target, row.preparation_pulses()) > PASS_THRESHOLD

    def test_preparation_reverses_printed_order(self):
        row = PROJECTION_TABLE[3]  # two printed pulses
        printed = [name for name, _ in row.pulses_printed]
        prepared = [p.channel.id for p in row.preparation_pulses()]
        assert prepared == printed[::-1]

    def test_all_rows_verify(self):
        checks = verify_table()
        assert len(checks) == 17
        assert all(isinstance(c, RowCheck) and c.passed for c in checks)
        assert min(c.fidelity for c in checks) > PASS_THRESHOLD

    def test_global_phase_of_target_is_irrelevant(self, rng):
        row = PROJECTION_TABLE[13]
        phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        fid = verify_projection_sequence(phase * row.target, row.preparation_pulses())
        assert fid > PASS_THRESHOLD

    def test_corrupted_angle_is_detected(self):
        row = PROJECTION_TABLE[9]
        pulses = [Pulse(p.channel, p.angle + 0.1 * math.pi) for p in row.preparation_pulses()]
        assert verify_projection_sequence(row.target, pulses) < PASS_THRESHOLD

    def test_verify_row_threshold(self):
        check = verify_row(PROJECTION_TABLE[4], threshold=0.5)
        assert check.passed and check.index == 5

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), -0.1, 1.5, True, "0.5", None])
    def test_verify_row_and_table_refuse_bad_thresholds(self, threshold):
        # as eurkit pulse-verify --threshold does; NaN would fail every row
        with pytest.raises(ValidationError, match="threshold"):
            verify_row(PROJECTION_TABLE[0], threshold=threshold)
        with pytest.raises(ValidationError, match="threshold"):
            verify_table(threshold=threshold)

    def test_thresholds_at_the_ends_of_the_range(self):
        for threshold in (0, 0.0, np.float32(0.5), 1.0):
            assert all(c.passed == (c.fidelity >= threshold) for c in verify_table(threshold=threshold))

    def test_verify_table_rejects_empty(self):
        with pytest.raises(ValidationError):
            verify_table(rows=[])

    @pytest.mark.parametrize("row", [1, None, "row 1", PROJECTION_TABLE[0].target])
    def test_verify_row_and_table_refuse_foreign_rows(self, row):
        # as apply_pulses refuses a foreign pulse, naming the type it expects
        with pytest.raises(ValidationError, match="^verify_row expects TableRow instances$"):
            verify_row(row)
        with pytest.raises(ValidationError, match="^verify_row expects TableRow instances$"):
            verify_table([PROJECTION_TABLE[0], row])

    def test_targets_read_only(self):
        with pytest.raises(ValueError):
            PROJECTION_TABLE[0].target[0] = 0.0
