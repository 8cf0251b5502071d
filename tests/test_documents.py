import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eurkit.documents import (
    BUILTIN_STATES,
    builtin_state,
    load_json,
    parse_ket,
    parse_measurements,
    parse_pulse_table,
    parse_record,
    parse_state,
)
from eurkit.linalg import ValidationError


def pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def ket_doc(vec):
    return {"ket": [pair(z) for z in vec]}


class TestParseState:
    def test_ket_document(self):
        rho = parse_state(ket_doc(np.array([1, 1j, 0]) / math.sqrt(2)))
        assert abs(rho.matrix[0, 1] - (-0.5j)) < 1e-12

    def test_rho_document(self):
        doc = {"rho": [[pair(1 / 3) if i == j else pair(0) for j in range(3)] for i in range(3)]}
        rho = parse_state(doc)
        assert_allclose(rho.matrix, np.eye(3) / 3, atol=1e-12)

    def test_rejects_both_keys(self):
        with pytest.raises(ValidationError):
            parse_state({"ket": [pair(1), pair(0)], "rho": []})

    def test_rejects_bare_numbers(self):
        with pytest.raises(ValidationError):
            parse_state({"ket": [1.0, 0.0, 0.0]})

    def test_rejects_bad_trace_citing_invariant(self):
        doc = {"rho": [[pair(0.9), pair(0), pair(0)], [pair(0)] * 3, [pair(0)] * 3]}
        with pytest.raises(ValidationError, match="trace"):
            parse_state(doc)


class TestParseKet:
    def test_normalized_pass_through(self):
        v = parse_ket(ket_doc(np.array([1, 1, 1]) / math.sqrt(3)))
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_rejects_other_keys(self):
        with pytest.raises(ValidationError):
            parse_ket({"state": [pair(1), pair(0)]})

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            parse_ket(ket_doc([2.0, 0.0, 0.0]))


class TestBuiltinStates:
    def test_labels(self):
        assert BUILTIN_STATES == ("zero", "minus1", "mixed")

    def test_zero_and_minus1(self):
        assert builtin_state("zero").matrix[0, 0] == 1.0
        assert builtin_state("minus1").matrix[1, 1] == 1.0

    def test_mixed(self):
        assert_allclose(builtin_state("mixed").matrix, np.eye(3) / 3, atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(ValidationError):
            builtin_state("plus1")

    @pytest.mark.parametrize("label, dim", [("zero", 0), ("minus1", 1), ("mixed", 1)])
    def test_rejects_dim_below_two(self, label, dim):
        with pytest.raises(ValidationError, match="dim >= 2"):
            builtin_state(label, dim)


class TestParseMeasurements:
    def test_two_bases_labeled_in_order(self):
        eye = [[pair(1 if i == j else 0) for j in range(3)] for i in range(3)]
        ms = parse_measurements([eye, eye])
        assert [m.label for m in ms] == ["M1", "M2"]

    def test_rejects_single_basis(self):
        eye = [[pair(1 if i == j else 0) for j in range(3)] for i in range(3)]
        with pytest.raises(ValidationError):
            parse_measurements([eye])

    def test_rejects_non_orthonormal(self):
        e0 = [pair(1), pair(0), pair(0)]
        bad = [e0, e0, [pair(0), pair(0), pair(1)]]
        with pytest.raises(ValidationError):
            parse_measurements([bad, bad])


class TestParseRecord:
    def test_happy_path(self):
        doc = {"set1": [1.0, 0.0, 0.5, 0.5], "set2": [1.0, 0.0, 0.5, 0.5], "set3": [0.0, 0.0, 0.0, 0.0]}
        rec = parse_record(doc)
        assert rec.set1 == (1.0, 0.0, 0.5, 0.5)

    def test_rejects_missing_key(self):
        with pytest.raises(ValidationError):
            parse_record({"set1": [0] * 4, "set2": [0] * 4})

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValidationError):
            parse_record({"set1": [0] * 5, "set2": [0] * 4, "set3": [0] * 4})

    def test_rejects_booleans(self):
        with pytest.raises(ValidationError):
            parse_record({"set1": [True, 0, 0, 0], "set2": [0] * 4, "set3": [0] * 4})


class TestParsePulseTable:
    def test_literal_angles_in_given_order(self):
        doc = [{"target": [pair(0), pair(1), pair(0)], "pulses": [["MW0", 1.0], ["MW2", 0.5]]}]
        ((target, pulses),) = parse_pulse_table(doc)
        assert [p.channel.id for p in pulses] == ["MW0", "MW2"]
        assert abs(pulses[0].angle - math.pi) < 1e-12
        assert abs(pulses[1].angle - 0.5 * math.pi) < 1e-12

    def test_rejects_unknown_channel(self):
        doc = [{"target": [pair(1), pair(0), pair(0)], "pulses": [["MW7", 1.0]]}]
        with pytest.raises(ValidationError):
            parse_pulse_table(doc)

    def test_rejects_negative_multiple(self):
        doc = [{"target": [pair(1), pair(0), pair(0)], "pulses": [["MW0", -1.0]]}]
        with pytest.raises(ValidationError):
            parse_pulse_table(doc)

    def test_rejects_empty_table(self):
        with pytest.raises(ValidationError):
            parse_pulse_table([])

    def test_rejects_extra_keys(self):
        doc = [{"target": [pair(1), pair(0), pair(0)], "pulses": [], "note": "x"}]
        with pytest.raises(ValidationError):
            parse_pulse_table(doc)


class TestLoadJson:
    def test_reads_documents(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"ket": [pair(1), pair(0), pair(0)]}))
        assert "ket" in load_json(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError):
            load_json(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError):
            load_json(str(path))
