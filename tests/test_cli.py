"""End-to-end checks of the command-line interface.

Everything runs in-process through ``main(argv)`` so exit codes, stdout
payloads, and stderr diagnostics are asserted together; one subprocess
test confirms the module entry point is wired up.
"""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eurkit.bounds import lmf_bound, rpz_bound, scb_bound
from eurkit.cli import RunConfig, UsageError, main, render_sig12, sweep_csv
from eurkit.documents import builtin_state
from eurkit.entropy import entropy_sum
from eurkit.family import build_family, sweep
from eurkit.sampling import random_density
from eurkit.tomography import simulate_projections

CSV_TOL = 1e-9


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pair(z):
    z = complex(z)
    return [z.real, z.imag]


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig(command="sweep")
        assert cfg.steps == 101 and cfg.output_format == "csv"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"command": "frobnicate"},
            {"command": "sweep", "steps": 1},
            {"command": "sweep", "frm": 0.5, "to": 0.5},
            {"command": "sweep", "frm": -0.1},
            {"command": "sweep", "to": float("nan")},
            {"command": "sweep", "output_format": "yaml"},
            {"command": "bounds"},
            {"command": "bounds", "family_a": 0.5, "measurements_path": "m.json"},
            {"command": "bounds", "family_a": 0.5, "bound_selection": ("scb", "frob")},
            {"command": "bounds", "family_a": 0.5, "bound_selection": ()},
            {"command": "tomo"},
            {"command": "pulse-verify", "threshold": 1.5},
            {"command": "bounds", "family_a": 0.5, "state": "  "},
        ],
    )
    def test_invariants_reject(self, kwargs):
        with pytest.raises(UsageError):
            RunConfig(**kwargs)


class TestRenderSig12:
    @pytest.mark.parametrize(
        "value,text",
        [(0.0, "0"), (-0.0, "0"), (1.0, "1"), (0.5, "0.5"), (1e-13, "1e-13"), (2.0 / 3.0, "0.666666666667")],
    )
    def test_known(self, value, text):
        assert render_sig12(value) == text


class TestBoundsCommand:
    def test_family_half_minus1(self, capsys):
        code, out, err = run_cli(["bounds", "--family-a", "0.5", "--state", "minus1"], capsys)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["entropy_total"] == 1.0
        assert payload["scb"] == 1.0
        assert payload["lmf"] == 0.415037499279
        assert payload["all_satisfied"] is True
        assert payload["labels"] == ["M1", "M2", "M3"]
        assert dict(payload["per_measurement"]) == {"M1": 0.0, "M2": 0.0, "M3": 1.0}

    def test_measurements_document(self, tmp_path, capsys):
        w = np.exp(2j * np.pi / 3)
        fourier = [[pair(w ** (j * k) / math.sqrt(3)) for k in range(3)] for j in range(3)]
        comp = [[pair(1.0 if j == k else 0.0) for k in range(3)] for j in range(3)]
        path = write_json(tmp_path, "mubs.json", [comp, fourier])
        code, out, _ = run_cli(["bounds", "--measurements", path], capsys)
        payload = json.loads(out)
        assert code == 0
        assert payload["labels"] == ["M1", "M2"]
        assert abs(payload["entropy_total"] - 2 * math.log2(3)) < 1e-9
        assert "mu:M1|M2" in payload["satisfied"]

    def test_selection_filters_payload(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "--family-a", "0.5", "--state", "zero", "--bounds", "scb,mu"], capsys
        )
        payload = json.loads(out)
        assert code == 0
        assert "scb" in payload and "mu_pairwise" in payload
        assert "lmf" not in payload and "rpz" not in payload
        assert set(payload["satisfied"]) == {"scb", "mu:M1|M2", "mu:M1|M3", "mu:M2|M3"}

    def test_state_document_with_bad_trace_exits_2(self, tmp_path, capsys):
        rho = [[pair(0.9 if i == j == 0 else 0.0) for j in range(3)] for i in range(3)]
        path = write_json(tmp_path, "state.json", {"rho": rho})
        code, out, err = run_cli(["bounds", "--family-a", "0.5", "--state", path], capsys)
        assert code == 2
        assert "trace" in err

    def test_state_below_strict_window_is_data_quality(self, tmp_path, capsys):
        rho = [[pair([1.0 + 1e-6, -1e-6, 0.0][i] if i == j else 0.0) for j in range(3)] for i in range(3)]
        path = write_json(tmp_path, "state.json", {"rho": rho})
        code, out, err = run_cli(["bounds", "--family-a", "0.5", "--state", path], capsys)
        assert code == 2 and out == ""
        assert err == "error: data-quality: density matrix has eigenvalue -1.0000e-06 below the admission window -1e-09\n"

    @pytest.mark.parametrize(
        "flag, doc",
        [
            # the second basis's kets differ in length
            ("--measurements", [[[pair(1), pair(0)], [pair(0), pair(1)]], [[pair(1), pair(0)], [pair(0), pair(1), pair(0)]]]),
            ("--state", {"rho": [[pair(1), pair(0)], [pair(0)]]}),
            ("--state", {"rho": [1, 0]}),
        ],
    )
    def test_ragged_document_exits_2(self, tmp_path, capsys, flag, doc):
        path = write_json(tmp_path, "doc.json", doc)
        argv = ["bounds", flag, path] + (["--family-a", "0.5"] if flag == "--state" else [])
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: validation: ")

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code, _, err = run_cli(["bounds"], capsys)
        assert code == 1 and "exactly one" in err
        path = write_json(tmp_path, "m.json", [])
        code, _, _ = run_cli(["bounds", "--measurements", path, "--family-a", "0.5"], capsys)
        assert code == 1

    def test_unknown_bound_name(self, capsys):
        code, _, err = run_cli(["bounds", "--family-a", "0.5", "--bounds", "scb,frob"], capsys)
        assert code == 1 and "usage" in err

    def test_family_a_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(["bounds", "--family-a", "1.5"], capsys)
        assert code == 2 and "validation" in err

    def test_eur_tol_override(self, capsys, monkeypatch):
        monkeypatch.setenv("EUR_TOL", "0.25")
        code, out, _ = run_cli(["bounds", "--family-a", "0.5", "--state", "minus1"], capsys)
        assert code == 0
        assert json.loads(out)["slack"] == 0.25

    def test_eur_tol_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("EUR_TOL", "nope")
        code, _, err = run_cli(["bounds", "--family-a", "0.5"], capsys)
        assert code == 1 and "EUR_TOL" in err

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["bounds", "--family-a", "0.5", "--state", "minus1", "--out", str(out_path)], capsys
        )
        assert code == 0 and out == ""
        assert json.loads(out_path.read_text())["entropy_total"] == 1.0


class TestSweepCommand:
    def test_default_grid_row_count(self, capsys):
        code, out, _ = run_cli(["sweep"], capsys)
        lines = out.strip().split("\n")
        assert code == 0
        assert lines[0] == "a,state,entropy_total,scb,lmf,rpz"
        assert len(lines) == 1 + 101 * 2

    def test_endpoint_row_renders_zeros(self, capsys):
        _, out, _ = run_cli(["sweep", "--steps", "2"], capsys)
        rows = out.strip().split("\n")[1:]
        first = rows[0].split(",")
        assert first[:5] == ["0", "minus1", "0", "0", "0"]
        assert abs(float(first[5])) < 1e-9

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(["sweep", "--steps", "7"], capsys)
        _, second, _ = run_cli(["sweep", "--steps", "7"], capsys)
        assert first == second

    def test_rows_recompute_from_library(self, capsys):
        _, out, _ = run_cli(["sweep", "--steps", "5"], capsys)
        for line in out.strip().split("\n")[1:]:
            a_str, label, h_str, scb_str, lmf_str, rpz_str = line.split(",")
            ms = build_family(float(a_str))
            rho = builtin_state(label)
            assert abs(float(h_str) - entropy_sum(ms, rho).total) < CSV_TOL
            assert abs(float(scb_str) - scb_bound(ms, rho)) < CSV_TOL
            assert abs(float(lmf_str) - lmf_bound(ms, rho)) < CSV_TOL
            assert abs(float(rpz_str) - rpz_bound(ms)) < CSV_TOL

    def test_json_format(self, capsys):
        code, out, _ = run_cli(["sweep", "--steps", "3", "--format", "json"], capsys)
        payload = json.loads(out)
        assert code == 0 and len(payload) == 6
        assert payload[0]["a"] == 0.0 and payload[0]["state"] == "minus1"
        assert payload[1]["state"] == "zero"
        assert payload[2]["a"] == 0.5 and payload[2]["entropy_total"] == 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--steps", "1"],
            ["sweep", "--from", "0.7", "--to", "0.3"],
            ["sweep", "--from", "-0.2"],
            ["sweep", "--to", "1.2"],
            ["sweep", "--format", "yaml"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == 1 and err.startswith("error: usage")

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, out, _ = run_cli(["sweep", "--steps", "3", "--out", str(out_path)], capsys)
        assert code == 0 and out == ""
        text = out_path.read_text()
        assert text.startswith("a,state,") and text.endswith("\n")


class TestTomoCommand:
    def test_reference_record_and_target(self, capsys):
        code, out, err = run_cli(["tomo", "--record", "reference", "--target", "reference"], capsys)
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["vn_entropy"] == 0.413211024228
        assert payload["fidelity_vs_target"] == 0.953484836446
        assert '"vn_entropy": 0.413211024228' in out
        assert '"fidelity_vs_target": 0.953484836446' in out
        raw = payload["raw_rho"]
        assert len(raw) == 3 and all(len(z) == 2 for row in raw for z in row)

    @pytest.mark.parametrize("dim", [2, 4])
    def test_target_of_wrong_dimension_is_a_validation_error(self, tmp_path, capsys, dim):
        path = write_json(tmp_path, "ket.json", {"ket": [[1.0 / math.sqrt(dim), 0.0]] * dim})
        code, out, err = run_cli(["tomo", "--record", "reference", "--target", path], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: validation: dimension mismatch")

    def test_uniform_record_reconstructs_mixed_state(self, tmp_path, capsys):
        third = 1.0 / 3.0
        path = write_json(tmp_path, "rec.json", {k: [third] * 4 for k in ("set1", "set2", "set3")})
        code, out, _ = run_cli(["tomo", "--record", path], capsys)
        payload = json.loads(out)
        assert code == 0
        diag = [payload["rho"][i][i][0] for i in range(3)]
        assert_allclose(diag, [third] * 3, atol=1e-9)
        assert abs(payload["vn_entropy"] - math.log2(3)) < 1e-9
        assert payload["fidelity_vs_target"] is None

    def test_round_trip_through_record_document(self, tmp_path, capsys, rng):
        rho = random_density(rng)
        record = simulate_projections(rho)
        path = write_json(tmp_path, "rt.json", record.as_dict())
        code, out, _ = run_cli(["tomo", "--record", path], capsys)
        assert code == 0
        got = np.array([[complex(*z) for z in row] for row in json.loads(out)["rho"]])
        assert np.max(np.abs(got - rho.matrix)) < 1e-9

    def test_inconsistent_record_exits_2(self, tmp_path, capsys):
        doc = {"set1": [0.6, 0.5, 0.5, 0.5], "set2": [0.6, 0.0, 0.3, 0.3], "set3": [0.2, 0.0, 0.1, 0.1]}
        path = write_json(tmp_path, "bad.json", doc)
        code, _, err = run_cli(["tomo", "--record", path], capsys)
        assert code == 2 and err.startswith("error:")

    def test_missing_record_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(["tomo", "--record", str(tmp_path / "nope.json")], capsys)
        assert code == 2 and "cannot read" in err

    def test_record_flag_required(self, capsys):
        code, _, _ = run_cli(["tomo"], capsys)
        assert code == 1


class TestPulseVerifyCommand:
    def test_bundled_table_passes(self, capsys):
        code, out, err = run_cli(["pulse-verify"], capsys)
        payload = json.loads(out)
        assert code == 0 and err == ""
        assert payload["all_passed"] is True
        assert len(payload["rows"]) == 17
        assert [r["index"] for r in payload["rows"]] == list(range(1, 18))
        assert all(r["fidelity"] >= 1.0 - 1e-9 for r in payload["rows"])

    def test_user_table_with_corrupted_angle(self, tmp_path, capsys):
        minus1 = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        table = [
            {"target": minus1, "pulses": [["MW0", 1.0]]},
            {"target": minus1, "pulses": [["MW0", 0.6]]},
        ]
        path = write_json(tmp_path, "table.json", table)
        code, out, err = run_cli(["pulse-verify", "--table", path], capsys)
        payload = json.loads(out)
        assert code == 2
        assert payload["rows"][0]["passed"] is True
        assert payload["rows"][1]["passed"] is False
        assert abs(payload["rows"][1]["fidelity"] - math.sin(0.3 * math.pi) ** 2) < 1e-9
        assert "rows failed" in err and "2" in err

    def test_threshold_flag_loosens_check(self, tmp_path, capsys):
        minus1 = [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]
        path = write_json(tmp_path, "t.json", [{"target": minus1, "pulses": [["MW0", 0.6]]}])
        code, out, _ = run_cli(["pulse-verify", "--table", path, "--threshold", "0.5"], capsys)
        assert code == 0
        assert json.loads(out)["threshold"] == 0.5

    def test_empty_table_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "empty.json", [])
        code, _, err = run_cli(["pulse-verify", "--table", path], capsys)
        assert code == 2 and "non-empty" in err

    def test_threshold_out_of_range(self, capsys):
        code, _, _ = run_cli(["pulse-verify", "--threshold", "1.5"], capsys)
        assert code == 1


class TestTopLevel:
    def test_no_command(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 1 and "command is required" in err

    def test_unknown_command(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 1 and err.startswith("error: usage")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eurkit.cli", "bounds", "--family-a", "0.5", "--state", "minus1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["entropy_total"] == 1.0


# SHA-256 of stdout, recorded before the bound kernels were rewritten into
# their coefficient form; any change to the rendered numbers shows here.
GOLDEN_STDOUT_SHA256 = {
    ("sweep",): "1376c3fef4e2edc961822c0babe4b07e7c3819ad25f6d37971e46a9db7f00118",
    ("bounds", "--family-a", "0", "--state", "zero"): "d7591151d472c506622db1f52f5ea7ea3569fba591e13baf9d5e6ceb49addfd8",
    ("bounds", "--family-a", "0", "--state", "minus1"): "a92124ac9bff55d0c09a135b5623208ffba73da3f46117667e00afa73ae75bb0",
    ("bounds", "--family-a", "0", "--state", "mixed"): "bb659363fb358736d4990e53166cc43d10224ffb7c758b482682f074cc1703bb",
    ("bounds", "--family-a", "0.3", "--state", "zero"): "627a91f2342d206f15df3ee82ff240826558cea77d2ddf9ba3403106fef741d5",
    ("bounds", "--family-a", "0.3", "--state", "minus1"): "a7ed0f1aca90c8caffdd0f3bd2c3ca500fc788f43a53cebf500140d6a8c66e6a",
    ("bounds", "--family-a", "0.3", "--state", "mixed"): "cd52628e94afdb1b5975dea7aaffe456da63741ef64eadec8a73cefe22224561",
    ("bounds", "--family-a", "0.5", "--state", "zero"): "eb50f2f16b5536dd012eee41647bcc7c893408ca83084ede6e84f6696103d4d7",
    ("bounds", "--family-a", "0.5", "--state", "minus1"): "afa3f114a34e67bd2b681406e348a8058fd7f26698479e24477677cc59bda2f1",
    ("bounds", "--family-a", "0.5", "--state", "mixed"): "50e1f538528569733293aa342c3a8cfea024b72dd7ab2428a076d3cb03b96319",
    ("bounds", "--family-a", "1", "--state", "zero"): "7c8708bdfe3f9670d632c450cefd2342f774c2961d1421bc127f2a4fe87134e7",
    ("bounds", "--family-a", "1", "--state", "minus1"): "5a23e92dd6372caa3ddef4ae164c1182fdfc561c69cce3ecf3cda2a784d635da",
    ("bounds", "--family-a", "1", "--state", "mixed"): "84cb7a541e56b712fc68176c3862aa617d0f85891b658d1498b6aeb9d029b67f",
    ("tomo", "--record", "reference", "--target", "reference"): "9e1247939ede3a37f767745981857e724b4b8a3c263b00b924be77e42814f26c",
    ("pulse-verify",): "067bce29501c8f5b96b921b2c418165df0bbcdcef10a20fbbc8018335a0732b5",
}


def test_golden_stdout_digests(capsys):
    for argv, digest in GOLDEN_STDOUT_SHA256.items():
        code, out, _ = run_cli(list(argv), capsys)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_sweep_csv_matches_benchmark_reference():
    # the grid of `eurkit sweep --steps 1001`, which the family_sweep
    # benchmark checks against the digest recorded in reference.json
    reference = Path(__file__).resolve().parents[1] / "benchmarks" / "reference.json"
    expected = json.loads(reference.read_text(encoding="utf-8"))["sweep_csv_sha256"]
    grid = [0.0 + 1.0 * i / 1000 for i in range(1001)]
    assert hashlib.sha256(sweep_csv(sweep(grid)).encode("utf-8")).hexdigest() == expected


# `--help` stdout of each parser at COLUMNS=80 (argparse of Python 3.11):
# the flags' names, metavars and help texts are part of the interface.
HELP_TEXT = {
    (): """\
usage: eurkit [-h] command ...

Entropic uncertainty sums, lower bounds, qutrit tomography, and pulse-table
verification.

positional arguments:
  command
    bounds      evaluate the entropy sum and lower bounds for one state
    sweep       scan the built-in family over its parameter
    tomo        reconstruct a qutrit state from a projection record
    pulse-verify
                verify pulse sequences against their projection targets

options:
  -h, --help    show this help message and exit
""",
    ("bounds",): """\
usage: eurkit bounds [-h] [--measurements MEASUREMENTS] [--family-a FAMILY_A]
                     [--state STATE] [--bounds BOUNDS] [--out OUT]

options:
  -h, --help            show this help message and exit
  --measurements MEASUREMENTS
                        JSON measurements document
  --family-a FAMILY_A   use the built-in family at parameter a
  --state STATE         state label (zero, minus1, mixed) or JSON state
                        document
  --bounds BOUNDS       comma-separated bound selection
  --out OUT             write the JSON report here instead of stdout
""",
    ("sweep",): """\
usage: eurkit sweep [-h] [--from FRM] [--to TO] [--steps STEPS]
                    [--format {csv,json}] [--out OUT]

options:
  -h, --help           show this help message and exit
  --from FRM           grid start (default 0)
  --to TO              grid end (default 1)
  --steps STEPS        grid size (default 101)
  --format {csv,json}
  --out OUT            write output here instead of stdout
""",
    ("tomo",): """\
usage: eurkit tomo [-h] --record RECORD [--target TARGET] [--out OUT]

options:
  -h, --help       show this help message and exit
  --record RECORD  JSON record document, or 'reference' for the bundled
                   matrix's record
  --target TARGET  JSON ket document, or 'reference' for the bundled
                   preparation target
  --out OUT        write the JSON report here instead of stdout
""",
    ("pulse-verify",): """\
usage: eurkit pulse-verify [-h] [--table TABLE] [--threshold THRESHOLD]
                           [--out OUT]

options:
  -h, --help            show this help message and exit
  --table TABLE         JSON pulse-table document (default: bundled table)
  --threshold THRESHOLD
                        ray-fidelity pass threshold (default 1 - 1e-9)
  --out OUT             write the JSON report here instead of stdout
""",
}


@pytest.mark.parametrize("command", list(HELP_TEXT))
def test_help_text_unchanged(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main([*command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out == HELP_TEXT[command]
