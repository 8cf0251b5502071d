"""JSON document schemas for the command-line interface.

Complex numbers are two-element arrays [re, im] everywhere; bare numbers
are rejected so a document's meaning never depends on implicit promotion.

Schemas:

- state:        {"ket": [[re, im], ...]} or {"rho": [[[re, im], ...], ...]}
- measurements: [[[re, im] x d] x d] x N   (N bases, d kets each)
- record:       {"set1": [4 reals], "set2": [4 reals], "set3": [4 reals]}
- pulse table:  [{"target": [[re, im] x 3],
                  "pulses": [["MW0", multiple], ...]}, ...]
  User tables are applied literally: pulses in the given order, each
  angle = multiple * pi (the bundled table's nominal-length calibration
  applies only to the bundled table).
"""

from __future__ import annotations

import json
import math

import numpy as np

from .linalg import DensityOperator, ProjectiveMeasurement, ValidationError, as_complex_array, as_state_vector
from .pulses import Pulse, get_channel
from .tomography import TomographyRecord


def _real(value, *, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValidationError(f"{where}: expected a finite real number, got {value!r}")
    return float(value)


def _complex(entry, *, where: str) -> complex:
    if not isinstance(entry, list) or len(entry) != 2:
        raise ValidationError(f"{where}: complex entries must be [re, im] pairs, got {entry!r}")
    return complex(_real(entry[0], where=where), _real(entry[1], where=where))


def _ket(entries, *, where: str) -> list[complex]:
    if not isinstance(entries, list) or len(entries) < 2:
        raise ValidationError(f"{where}: a ket needs at least two [re, im] entries")
    return [_complex(e, where=where) for e in entries]


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from exc


def parse_state(doc, *, where: str = "state") -> DensityOperator:
    """A state document: pure ket or density matrix, strictly physical."""
    if not isinstance(doc, dict) or len(doc) != 1 or not {"ket", "rho"} & set(doc):
        raise ValidationError(f"{where}: expected exactly one of 'ket' or 'rho'")
    if "ket" in doc:
        return DensityOperator.from_ket(_ket(doc["ket"], where=f"{where}.ket"))
    rows = doc["rho"]
    if not isinstance(rows, list) or not rows or not all(isinstance(row, list) for row in rows):
        raise ValidationError(f"{where}.rho: expected a list of rows")
    return DensityOperator([[_complex(e, where=f"{where}.rho") for e in row] for row in rows])


def parse_ket(doc, *, where: str = "state") -> np.ndarray:
    """A pure-state document {"ket": [[re, im], ...]}; the ket must be normalized."""
    if not isinstance(doc, dict) or set(doc) != {"ket"}:
        raise ValidationError(f"{where}: expected a ket document")
    return as_state_vector(_ket(doc["ket"], where=f"{where}.ket"), name=f"{where}.ket")


BUILTIN_STATES = ("zero", "minus1", "mixed")


def builtin_state(label: str, dim: int = 3) -> DensityOperator:
    """Named reference states: 'zero', 'minus1', 'mixed' (maximally mixed)."""
    if dim < 2:
        raise ValidationError(f"built-in states need dim >= 2, got {dim}")
    if label == "zero":
        ket = np.zeros(dim, dtype=complex)
        ket[0] = 1.0
        return DensityOperator.from_ket(ket)
    if label == "minus1":
        ket = np.zeros(dim, dtype=complex)
        ket[1] = 1.0
        return DensityOperator.from_ket(ket)
    if label == "mixed":
        return DensityOperator(np.eye(dim, dtype=complex) / dim)
    raise ValidationError(f"unknown state label {label!r}; expected one of {BUILTIN_STATES}")


def parse_measurements(doc, *, where: str = "measurements") -> list[ProjectiveMeasurement]:
    """A measurements document: N bases of d kets each, labeled M1..MN."""
    if not isinstance(doc, list) or len(doc) < 2:
        raise ValidationError(f"{where}: expected a list of at least two bases")
    out = []
    for n, basis in enumerate(doc, start=1):
        if not isinstance(basis, list) or not basis:
            raise ValidationError(f"{where}[{n - 1}]: expected a list of kets")
        kets = [_ket(v, where=f"{where}[{n - 1}][{i}]") for i, v in enumerate(basis)]
        out.append(ProjectiveMeasurement.from_vectors(kets, label=f"M{n}"))
    return out


def parse_record(doc, *, where: str = "record") -> TomographyRecord:
    """A tomography record document: three sets of four projection values."""
    if not isinstance(doc, dict) or set(doc) != {"set1", "set2", "set3"}:
        raise ValidationError(f"{where}: expected keys set1, set2, set3")
    sets = {}
    for name in ("set1", "set2", "set3"):
        vals = doc[name]
        if not isinstance(vals, list) or len(vals) != 4:
            raise ValidationError(f"{where}.{name}: expected four projection values")
        sets[name] = tuple(_real(v, where=f"{where}.{name}") for v in vals)
    return TomographyRecord(**sets)


def parse_pulse_table(doc, *, where: str = "table") -> list[tuple[np.ndarray, list[Pulse]]]:
    """A pulse-table document, applied literally (see module docstring)."""
    if not isinstance(doc, list) or not doc:
        raise ValidationError(f"{where}: expected a non-empty list of rows")
    rows = []
    for i, row in enumerate(doc):
        if not isinstance(row, dict) or set(row) != {"target", "pulses"}:
            raise ValidationError(f"{where}[{i}]: expected keys 'target' and 'pulses'")
        target = as_complex_array(_ket(row["target"], where=f"{where}[{i}].target"))
        if target.size != 3:
            raise ValidationError(f"{where}[{i}].target: pulse targets live on the triplet")
        specs = row["pulses"]
        if not isinstance(specs, list):
            raise ValidationError(f"{where}[{i}].pulses: expected a list of [channel, multiple]")
        pulses = []
        for spec in specs:
            if not isinstance(spec, list) or len(spec) != 2 or not isinstance(spec[0], str):
                raise ValidationError(f"{where}[{i}].pulses: entries are [channel, multiple]")
            multiple = _real(spec[1], where=f"{where}[{i}].pulses")
            if multiple < 0:
                raise ValidationError(f"{where}[{i}].pulses: multiple {multiple!r} is negative")
            pulses.append(Pulse(get_channel(spec[0]), multiple * math.pi))
        rows.append((target, pulses))
    return rows
