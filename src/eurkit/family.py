"""A one-parameter family of three qutrit measurements and its sweep.

The family interpolates the third basis through a parameter a in [0, 1]
(b = 1 - a): M1 is the bare basis, M2 rotates the |0>/|+1> plane by 45
degrees, M3 mixes |0> and |-1> with weights a and b.  For the reference
states |0> and |-1> the total measurement entropy has closed forms
1 + h(a) and h(a), with h the binary entropy in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# rpz_bound is unused here but stays: benchmarks/tracing.py patches it by name.
from .bounds import lmf_bound, rpz_bound, rpz_profiles, scb_bound  # noqa: F401
from .entropy import binary_entropy, entropy_sum
from .documents import builtin_state
from .linalg import MeasurementSet, ProjectiveMeasurement, ValidationError, as_measurements

GRID_POINTS_DEFAULT = 101
# Grid points whose rpz profiles ``sweep`` stacks into one call: 16 sets of
# 9 kets screen in one eigvalsh call of 4096 3 x 3 frame operators.  Each
# further set in a chunk adds about 70 kB to the peak memory and little speed.
SWEEP_CHUNK = 16

_E0, _E1, _E2 = np.eye(3, dtype=complex)
_M1 = ProjectiveMeasurement(np.array([_E0, _E1, _E2]), "M1")
_M2 = ProjectiveMeasurement(np.array([(_E0 - _E2) / np.sqrt(2.0), _E1, (_E0 + _E2) / np.sqrt(2.0)]), "M2")


def build_family(a: float) -> MeasurementSet:
    """The measurement set (M1, M2, M3(a)) for a in [0, 1], immutable.

    M1 and M2 do not depend on a and are admitted once, at import; each
    call builds M3(a) only.
    """
    x = float(a)
    if not (math.isfinite(x) and -1e-12 <= x <= 1.0 + 1e-12):
        raise ValidationError(f"family parameter a = {x!r} outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    b = 1.0 - x
    m3 = ProjectiveMeasurement(
        np.array([np.sqrt(x) * _E0 + np.sqrt(b) * _E1, np.sqrt(b) * _E0 - np.sqrt(x) * _E1, _E2]), "M3"
    )
    return as_measurements((_M1, _M2, m3), minimum=3)


def entropy_total_closed_form(a: float, state_label: str) -> float:
    """Closed-form total entropy of the family for a reference state."""
    h = binary_entropy(a)
    if state_label == "zero":
        return 1.0 + h
    if state_label == "minus1":
        return h
    raise ValidationError(f"no closed form for state label {state_label!r}")


def default_grid() -> np.ndarray:
    """The standard sweep grid: 101 evenly spaced points on [0, 1]."""
    return np.linspace(0.0, 1.0, GRID_POINTS_DEFAULT)


@dataclass(frozen=True)
class SweepRow:
    """One (a, state) evaluation of the family sweep."""

    a: float
    state_label: str
    entropy_total: float
    scb: float
    lmf: float
    rpz: float


def sweep(grid=None, states=None) -> list[SweepRow]:
    """Evaluate entropy totals and bounds over a grid of family parameters.

    Grid points are visited in the order given; states are sorted by
    label within each point, one row per (a, state) pair; the default
    states are the built-in 'zero' and 'minus1'.  The states of a grid
    point share its set's squared overlaps.  The rpz bound is
    state-independent: the sets of SWEEP_CHUNK consecutive grid points
    are built first and their profiles come from one ``rpz_profiles``
    call, so a bad grid point raises before the states of its chunk are
    evaluated.
    """
    a_values = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if a_values.ndim != 1 or a_values.size == 0:
        raise ValidationError("sweep grid must be a non-empty 1-d array")
    if states is None:
        states = [(label, builtin_state(label)) for label in ("zero", "minus1")]
    pairs = sorted(states, key=lambda kv: kv[0])
    rows = []
    for start in range(0, a_values.size, SWEEP_CHUNK):
        chunk = [float(v) for v in a_values[start : start + SWEEP_CHUNK]]
        sets = [build_family(a) for a in chunk]
        profiles = rpz_profiles(sets)
        for a, ms, profile in zip(chunk, sets, profiles):
            rpz = profile.entropy_bound()
            for label, rho in pairs:
                rows.append(
                    SweepRow(
                        a=a,
                        state_label=label,
                        entropy_total=entropy_sum(ms, rho).total,
                        scb=scb_bound(ms, rho),
                        lmf=lmf_bound(ms, rho),
                        rpz=rpz,
                    )
                )
    return rows
