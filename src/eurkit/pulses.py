"""Two-level rotations on a spin-1 triplet and the bundled projection table.

Four microwave channels address the ground-state triplet (basis order
|0>, |-1>, |+1>): MW0 and MW1 drive |0> <-> |-1>, MW2 and MW3 drive
|0> <-> |+1>.  A pulse of angle theta on a channel applies

    U = exp(-i theta G / 2),   G = [[0, e^{-i phi}], [e^{i phi}, 0]]

on the driven pair, leaving the spectator level untouched.  The channel
phases phi are a convention; the values here are fixed by global
validation against all rows of the bundled projection table (every row
must reach ray fidelity 1 from |0>).

The bundled table lists, for each of 17 projection kets, the pulse
sequence in projector-decomposition order with nominal lengths quoted as
multiples of pi.  Preparation applies the sequence reversed to |0>, and
the nominal multiples are population labels: a printed multiple m
transfers population frac = m mod 2 (mirrored above 1), so the calibrated
rotation angle is 2 asin(sqrt(frac)) on the first half-turn and its
reflection on the second.  At multiples 0, 0.5, 1, 1.5, 2 the calibrated
angle coincides with the printed one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError, _ray_fidelity, as_state_vector

_SQ = math.sqrt


@dataclass(frozen=True)
class Channel:
    """A microwave channel: driven level pair and effective drive phase."""

    id: str
    subspace: tuple[int, int]
    phase: float


CHANNELS = {
    "MW0": Channel("MW0", (0, 1), math.pi),
    "MW1": Channel("MW1", (0, 1), 0.0),
    "MW2": Channel("MW2", (0, 2), 0.0),
    "MW3": Channel("MW3", (0, 2), math.pi),
}


def get_channel(name: str) -> Channel:
    try:
        return CHANNELS[name]
    except KeyError:
        raise ValidationError(f"unknown channel {name!r}; expected one of {sorted(CHANNELS)}") from None


@dataclass(frozen=True)
class Pulse:
    """One rotation: a channel and a non-negative angle in radians."""

    channel: Channel
    angle: float

    def __post_init__(self):
        if not isinstance(self.channel, Channel):
            raise ValidationError("pulse channel must be a Channel")
        # numbers.Real takes Python and NumPy ints and floats; a bool is an
        # int to Python, but no angle
        if isinstance(self.angle, bool) or not isinstance(self.angle, numbers.Real):
            raise ValidationError(f"pulse angle must be a real number, got {self.angle!r}")
        if not math.isfinite(self.angle):
            raise ValidationError(f"pulse angle {self.angle!r} is not finite")
        if self.angle < 0.0:
            raise ValidationError(f"pulse angle {self.angle!r} is negative")
        object.__setattr__(self, "angle", float(self.angle))


# Every pulse unitary starts as this identity; its channel overwrites the
# driven 2x2 block (a copy is cheaper than a fresh np.eye).
_IDENTITY = np.eye(3, dtype=complex)


def pulse_unitary(pulse: Pulse) -> np.ndarray:
    """The 3x3 unitary of one pulse."""
    a, b = pulse.channel.subspace
    c = math.cos(pulse.angle / 2.0)
    s = math.sin(pulse.angle / 2.0)
    ph = np.exp(1j * pulse.channel.phase)
    u = _IDENTITY.copy()
    u[a, a] = c
    u[b, b] = c
    u[a, b] = -1j * s / ph
    u[b, a] = -1j * s * ph
    return u


GROUND = np.array([1.0, 0.0, 0.0], dtype=complex)


def apply_pulses(pulses, initial=None) -> np.ndarray:
    """Apply a pulse sequence (first pulse first) to a ket; default |0>."""
    psi = GROUND.copy() if initial is None else as_state_vector(initial, name="initial")
    if psi.size != 3:
        raise ValidationError("pulse simulation runs on the three-level triplet")
    for p in pulses:
        if not isinstance(p, Pulse):
            raise ValidationError("apply_pulses expects Pulse instances")
        psi = pulse_unitary(p) @ psi
    return psi


def calibrated_angle(multiple: float) -> float:
    """Rotation angle for a nominal pulse length printed as a pi multiple.

    The printed multiple labels the transferred population (mod 2,
    mirrored above 1), not the literal rotation angle.
    """
    m = float(multiple)
    if not (math.isfinite(m) and m >= 0.0):
        raise ValidationError(f"pulse multiple {multiple!r} must be finite and >= 0")
    frac = m % 2.0
    if frac <= 1.0:
        return 2.0 * math.asin(math.sqrt(frac))
    return 2.0 * math.pi - 2.0 * math.asin(math.sqrt(frac - 1.0))


@dataclass(frozen=True, eq=False)
class TableRow:
    """One projection ket with its pulse decomposition as printed."""

    index: int
    target: np.ndarray
    pulses_printed: tuple[tuple[str, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "target", as_state_vector(self.target, name=f"row {self.index} target"))
        self.target.flags.writeable = False

    def preparation_pulses(self) -> tuple[Pulse, ...]:
        """Calibrated pulses that prepare the target from |0> (reversed order)."""
        return tuple(
            Pulse(get_channel(ch), calibrated_angle(m)) for ch, m in reversed(self.pulses_printed)
        )


def _row(index, target, pulses):
    return TableRow(index=index, target=np.asarray(target, dtype=complex), pulses_printed=tuple(pulses))


PROJECTION_TABLE: tuple[TableRow, ...] = (
    _row(1, (1, 0, 0), [("MW0", 0.0)]),
    _row(2, (0, 1, 0), [("MW0", 1.0)]),
    _row(3, (0, 0, 1), [("MW2", 1.0)]),
    _row(4, (0, _SQ(0.5), _SQ(0.5)), [("MW2", 1.0), ("MW0", 1.5)]),
    _row(5, (0, _SQ(0.5), -_SQ(0.5)), [("MW2", 1.0), ("MW0", 0.5)]),
    _row(6, (_SQ(0.1), 1j * _SQ(0.9), 0), [("MW1", 1.9)]),
    _row(7, (_SQ(0.9), -1j * _SQ(0.1), 0), [("MW1", 0.1)]),
    _row(8, (_SQ(0.2), 1j * _SQ(0.8), 0), [("MW1", 1.8)]),
    _row(9, (_SQ(0.8), -1j * _SQ(0.2), 0), [("MW1", 0.2)]),
    _row(10, (_SQ(0.3), 1j * _SQ(0.7), 0), [("MW1", 1.7)]),
    _row(11, (_SQ(0.7), -1j * _SQ(0.3), 0), [("MW1", 0.3)]),
    _row(12, (_SQ(0.4), 1j * _SQ(0.6), 0), [("MW1", 1.6)]),
    _row(13, (_SQ(0.6), -1j * _SQ(0.4), 0), [("MW1", 0.4)]),
    _row(14, (_SQ(0.5), 1j * _SQ(0.5), 0), [("MW1", 1.5)]),
    _row(15, (_SQ(0.5), -1j * _SQ(0.5), 0), [("MW1", 0.5)]),
    _row(16, (_SQ(0.5), 0, 1j * _SQ(0.5)), [("MW2", 1.5)]),
    _row(17, (_SQ(0.5), 0, -1j * _SQ(0.5)), [("MW2", 0.5)]),
)


@dataclass(frozen=True)
class RowCheck:
    """Verification outcome for one table row."""

    index: int
    fidelity: float
    passed: bool


def verify_projection_sequence(target, pulses) -> float:
    """Apply a pulse sequence to |0> and return ray fidelity to the target."""
    prepared = apply_pulses(pulses)
    # |0> under unitaries is normalized already: only the target is checked.
    return _ray_fidelity(as_state_vector(target, name="psi"), prepared)


def verify_row(row: TableRow, *, threshold: float = 1.0 - 1e-9) -> RowCheck:
    """Prepare the row's target from |0> and score the ray fidelity against
    ``threshold``, a real number in [0, 1] as ``eurkit pulse-verify
    --threshold`` takes it: NaN would fail every row."""
    if not isinstance(row, TableRow):
        raise ValidationError("verify_row expects TableRow instances")
    if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real) or not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold must be a real number in [0, 1], got {threshold!r}")
    fid = verify_projection_sequence(row.target, row.preparation_pulses())
    return RowCheck(index=row.index, fidelity=fid, passed=fid >= threshold)


def verify_table(rows=None, *, threshold: float = 1.0 - 1e-9) -> list[RowCheck]:
    """Verify every row of a table (bundled table by default) by ``verify_row``."""
    table = PROJECTION_TABLE if rows is None else tuple(rows)
    if not table:
        raise ValidationError("table has no rows")
    return [verify_row(r, threshold=threshold) for r in table]
