"""Command-line interface.

Subcommands: bounds, sweep, tomo, pulse-verify.  Exit codes: 0 success,
1 usage error, 2 validation or data-quality failure (including a bound
or table check that does not hold), 3 internal error.  Diagnostics go to
stderr as a single `error: <category>: <message>` line; results go to
stdout or --out.

Numbers are rendered with up to 12 significant digits (lowercase
exponent, negative zero normalized to 0), so repeated runs are
byte-identical.  The EUR_TOL environment variable overrides the
dominance slack used by the bounds check; nothing else reads it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from .bounds import BOUNDS, BoundReport, bound_report
from .documents import (
    BUILTIN_STATES,
    builtin_state,
    load_json,
    parse_ket,
    parse_measurements,
    parse_pulse_table,
    parse_record,
    parse_state,
)
from .family import GRID_POINTS_DEFAULT, SWEEP_BOUNDS, build_family, sweep
from .linalg import DataQualityError, ValidationError
from .pulses import RowCheck, verify_projection_sequence, verify_table
from .tomography import REFERENCE_RECONSTRUCTION, REFERENCE_TARGET_KET, reconstruct, simulate_projections

DEFAULT_SLACK = 1e-9
DEFAULT_THRESHOLD = 1.0 - 1e-9
BOUND_CHOICES = tuple(dict.fromkeys(BOUNDS.values()))
COMMANDS = ("bounds", "sweep", "tomo", "pulse-verify")


class UsageError(Exception):
    """Bad flags, malformed invocation, or an unusable environment override."""


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation; invariants are checked at construction.

    Paths are kept as given (the literal string "reference" selects the
    bundled record or target in ``tomo``).  ``frm``/``to``/``steps``
    describe the sweep grid; a sweep needs steps >= 2 and frm < to.
    """

    command: str
    measurements_path: str | None = None
    state: str | None = None
    family_a: float | None = None
    bound_selection: tuple[str, ...] = BOUND_CHOICES
    frm: float = 0.0
    to: float = 1.0
    steps: int = GRID_POINTS_DEFAULT
    output_format: str = "csv"
    record_path: str | None = None
    target_path: str | None = None
    table_path: str | None = None
    threshold: float = DEFAULT_THRESHOLD
    out_path: str | None = None

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise UsageError(f"unknown command {self.command!r}")
        if self.output_format not in ("csv", "json"):
            raise UsageError(f"unknown output format {self.output_format!r}")
        for field in ("measurements_path", "state", "record_path", "target_path", "table_path", "out_path"):
            value = getattr(self, field)
            if value is not None and not str(value).strip():
                raise UsageError(f"--{field.removesuffix('_path').replace('_', '-')} must not be empty")
        if self.command == "bounds":
            if (self.measurements_path is None) == (self.family_a is None):
                raise UsageError("provide exactly one of --measurements or --family-a")
            for name in self.bound_selection:
                if name not in BOUND_CHOICES:
                    raise UsageError(f"unknown bound {name!r}; choose from {', '.join(BOUND_CHOICES)}")
            if not self.bound_selection:
                raise UsageError("--bounds selection is empty")
        if self.command == "sweep":
            if self.steps < 2:
                raise UsageError("--steps must be >= 2")
            if not (math.isfinite(self.frm) and math.isfinite(self.to)):
                raise UsageError("--from/--to must be finite")
            if not (0.0 <= self.frm < self.to <= 1.0):
                raise UsageError("--from/--to must satisfy 0 <= from < to <= 1")
        if self.command == "tomo" and self.record_path is None:
            raise UsageError("tomo requires --record")
        if not (0.0 <= self.threshold <= 1.0):
            raise UsageError("--threshold must lie in [0, 1]")


def render_sig12(value: float) -> str:
    """Up to 12 significant digits, lowercase exponent, -0 normalized."""
    v = float(value)
    if v == 0.0 or not math.isfinite(v):
        return "0" if v == 0.0 else repr(v)
    return f"{v:.12g}"


def _q12(value):
    """Quantize a float, or the values of (label, float) pairs, through the
    12-digit rendering for JSON payloads."""
    if value is None:
        return None
    if isinstance(value, tuple):
        return [[label, _q12(v)] for label, v in value]
    return float(render_sig12(value))


def _matrix_pairs(m) -> list:
    return [[[_q12(z.real), _q12(z.imag)] for z in row] for row in m]


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _slack_from_env() -> float:
    raw = os.environ.get("EUR_TOL")
    if raw is None:
        return DEFAULT_SLACK
    try:
        val = float(raw)
    except ValueError:
        raise UsageError(f"EUR_TOL={raw!r} is not a float") from None
    if not (math.isfinite(val) and val >= 0.0):
        raise UsageError(f"EUR_TOL={raw!r} must be finite and >= 0")
    return val


def _report_payload(report: BoundReport, selection: tuple[str, ...]) -> dict:
    payload = {
        "labels": list(report.labels),
        "entropy_total": _q12(report.entropy_total),
        "per_measurement": _q12(report.per_measurement),
        "slack": _q12(report.slack),
    }
    for name, group in BOUNDS.items():
        if group in selection:
            payload[name] = _q12(getattr(report, name))
    payload["satisfied"] = satisfied = report.checks(selection)
    payload["all_satisfied"] = all(satisfied.values())
    return payload


def cmd_bounds(config: RunConfig) -> int:
    slack = _slack_from_env()
    if config.measurements_path is not None:
        measurements = parse_measurements(load_json(config.measurements_path), where=config.measurements_path)
    else:
        measurements = build_family(config.family_a)
    spec = config.state
    rho = builtin_state(spec) if spec in BUILTIN_STATES else parse_state(load_json(spec), where=spec)
    report = bound_report(measurements, rho, slack=slack)
    payload = _report_payload(report, config.bound_selection)
    _emit(_json_text(payload), config.out_path)
    if not payload["all_satisfied"]:
        failed = sorted(k for k, ok in payload["satisfied"].items() if not ok)
        print(f"error: validation: bound check failed for {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


SWEEP_VALUES = ("entropy_total", *SWEEP_BOUNDS)
SWEEP_HEADER = ",".join(("a", "state", *SWEEP_VALUES))


def sweep_csv(rows) -> str:
    lines = [SWEEP_HEADER]
    for r in rows:
        values = (render_sig12(getattr(r, c)) for c in SWEEP_VALUES)
        lines.append(",".join((render_sig12(r.a), r.state_label, *values)))
    return "\n".join(lines) + "\n"


def cmd_sweep(config: RunConfig) -> int:
    span = config.to - config.frm
    grid = [config.frm + span * i / (config.steps - 1) for i in range(config.steps)]
    rows = sweep(grid)
    if config.output_format == "csv":
        _emit(sweep_csv(rows), config.out_path)
    else:
        payload = [{"a": _q12(r.a), "state": r.state_label, **{c: _q12(getattr(r, c)) for c in SWEEP_VALUES}} for r in rows]
        _emit(_json_text(payload), config.out_path)
    return 0


def cmd_tomo(config: RunConfig) -> int:
    if config.record_path == "reference":
        record = simulate_projections(REFERENCE_RECONSTRUCTION)
    else:
        record = parse_record(load_json(config.record_path), where=config.record_path)
    target = None
    if config.target_path is not None:
        if config.target_path == "reference":
            target = REFERENCE_TARGET_KET
        else:
            target = parse_ket(load_json(config.target_path), where=config.target_path)
    result = reconstruct(record, target_ket=target)
    payload = {
        "record": record.as_dict(),
        "raw_rho": _matrix_pairs(result.raw_rho),
        "rho": _matrix_pairs(result.rho.matrix),
        "vn_entropy": _q12(result.vn_entropy),
        "fidelity_vs_target": _q12(result.fidelity_vs_target),
    }
    _emit(_json_text(payload), config.out_path)
    return 0


def cmd_pulse_verify(config: RunConfig) -> int:
    if config.table_path is None:
        checks = verify_table(threshold=config.threshold)
    else:
        rows = parse_pulse_table(load_json(config.table_path), where=config.table_path)
        checks = []
        for i, (target, pulses) in enumerate(rows, start=1):
            fid = verify_projection_sequence(target, pulses)
            checks.append(RowCheck(index=i, fidelity=fid, passed=fid >= config.threshold))
    payload = {
        "threshold": _q12(config.threshold),
        "rows": [
            {"index": c.index, "fidelity": _q12(c.fidelity), "passed": c.passed} for c in checks
        ],
        "all_passed": all(c.passed for c in checks),
    }
    _emit(_json_text(payload), config.out_path)
    if not payload["all_passed"]:
        bad = ", ".join(str(c.index) for c in checks if not c.passed)
        print(f"error: validation: projection rows failed verification: {bad}", file=sys.stderr)
        return 2
    return 0


COMMAND_FUNCS = {
    "bounds": cmd_bounds,
    "sweep": cmd_sweep,
    "tomo": cmd_tomo,
    "pulse-verify": cmd_pulse_verify,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eurkit",
        description="Entropic uncertainty sums, lower bounds, qutrit tomography, and pulse-table verification.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    # Each dest is a RunConfig field; metavar keeps --help as it reads by flag.
    p_bounds = sub.add_parser("bounds", help="evaluate the entropy sum and lower bounds for one state")
    p_bounds.add_argument("--measurements", dest="measurements_path", metavar="MEASUREMENTS", help="JSON measurements document")
    p_bounds.add_argument("--family-a", type=float, dest="family_a", help="use the built-in family at parameter a")
    p_bounds.add_argument("--state", default="mixed", help="state label (zero, minus1, mixed) or JSON state document")
    p_bounds.add_argument("--bounds", type=_selection_from_flag, default=",".join(BOUND_CHOICES), dest="bound_selection",
                          metavar="BOUNDS", help="comma-separated bound selection")
    p_bounds.add_argument("--out", dest="out_path", metavar="OUT", help="write the JSON report here instead of stdout")

    p_sweep = sub.add_parser("sweep", help="scan the built-in family over its parameter")
    p_sweep.add_argument("--from", type=float, default=0.0, dest="frm", help="grid start (default 0)")
    p_sweep.add_argument("--to", type=float, default=1.0, help="grid end (default 1)")
    p_sweep.add_argument("--steps", type=int, default=GRID_POINTS_DEFAULT, help="grid size (default 101)")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv", dest="output_format")
    p_sweep.add_argument("--out", dest="out_path", metavar="OUT", help="write output here instead of stdout")

    p_tomo = sub.add_parser("tomo", help="reconstruct a qutrit state from a projection record")
    p_tomo.add_argument("--record", required=True, dest="record_path", metavar="RECORD",
                        help="JSON record document, or 'reference' for the bundled matrix's record")
    p_tomo.add_argument("--target", dest="target_path", metavar="TARGET",
                        help="JSON ket document, or 'reference' for the bundled preparation target")
    p_tomo.add_argument("--out", dest="out_path", metavar="OUT", help="write the JSON report here instead of stdout")

    p_pulse = sub.add_parser("pulse-verify", help="verify pulse sequences against their projection targets")
    p_pulse.add_argument("--table", dest="table_path", metavar="TABLE", help="JSON pulse-table document (default: bundled table)")
    p_pulse.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD, help="ray-fidelity pass threshold (default 1 - 1e-9)")
    p_pulse.add_argument("--out", dest="out_path", metavar="OUT", help="write the JSON report here instead of stdout")

    return parser


def _selection_from_flag(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def config_from_argv(argv=None) -> RunConfig:
    args = build_parser().parse_args(argv)
    if args.command is None:
        raise UsageError(f"a command is required ({', '.join(COMMANDS)})")
    return RunConfig(**vars(args))


def main(argv=None) -> int:
    try:
        config = config_from_argv(argv)
        return COMMAND_FUNCS[config.command](config)
    except UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except DataQualityError as exc:
        print(f"error: data-quality: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
