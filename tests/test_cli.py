import io
import json

import pytest

from pathgauge.cli import main
from pathgauge.errors import ParseError
from pathgauge.fileio import (
    dump_complex,
    dump_gauge,
    dump_holospec,
    parse_complex,
    parse_gauge,
    parse_holospec,
)
from pathgauge.instances import theta_complex, theta_gauge, theta_holospec

THETA_CX = json.dumps(
    {
        "format": 1,
        "vertices": ["v0", "v1"],
        "basepoint": "v0",
        "edges": [
            {"id": "a", "src": "v0", "dst": "v1"},
            {"id": "b", "src": "v0", "dst": "v1"},
            {"id": "c", "src": "v0", "dst": "v1"},
        ],
    }
)
THETA_GAUGE = json.dumps(
    {"format": 1, "group": {"type": "cyclic", "order": 5}, "assignments": {"a": "0", "b": "2", "c": "1"}}
)
THETA_HOLO = json.dumps(
    {"format": 1, "group": {"type": "cyclic", "order": 5}, "chords": {"b": "2", "c": "1"}}
)


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in (("theta.cx", THETA_CX), ("theta.gauge", THETA_GAUGE), ("theta.holo", THETA_HOLO)):
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestFileFormats:
    def test_complex_roundtrip(self):
        cx = parse_complex(THETA_CX)
        assert cx == theta_complex()
        assert parse_complex(dump_complex(cx)) == cx

    def test_gauge_roundtrip(self):
        cx = parse_complex(THETA_CX)
        field = parse_gauge(THETA_GAUGE, cx)
        assert field == theta_gauge()
        assert parse_gauge(dump_gauge(field), cx) == field

    def test_holospec_roundtrip(self):
        cx = parse_complex(THETA_CX)
        spec = parse_holospec(THETA_HOLO, cx)
        assert spec == theta_holospec()
        assert parse_holospec(dump_holospec(spec), cx) == spec

    def test_missing_format_field(self):
        with pytest.raises(ParseError, match="format"):
            parse_complex('{"vertices": [], "basepoint": "v0", "edges": []}')

    def test_edge_with_unknown_vertex_named(self):
        doc = json.loads(THETA_CX)
        doc["edges"][0]["dst"] = "v9"
        with pytest.raises(ParseError, match="a"):
            parse_complex(json.dumps(doc))

    def test_non_string_vertex_named(self):
        doc = json.loads(THETA_CX)
        doc["vertices"] = [1, "1"]
        with pytest.raises(ParseError, match="1"):
            parse_complex(json.dumps(doc))

    def test_float_element_literal_names_edge(self):
        cx = parse_complex(THETA_CX)
        doc = json.loads(THETA_GAUGE)
        doc["assignments"]["b"] = 2.9
        with pytest.raises(ParseError, match="'b'"):
            parse_gauge(json.dumps(doc), cx)

    def test_gauge_missing_edge_named(self):
        cx = parse_complex(THETA_CX)
        doc = json.loads(THETA_GAUGE)
        del doc["assignments"]["c"]
        with pytest.raises(ParseError, match="'c'"):
            parse_gauge(json.dumps(doc), cx)

    def test_gauge_default_identity_flag(self):
        cx = parse_complex(THETA_CX)
        doc = json.loads(THETA_GAUGE)
        del doc["assignments"]["c"]
        field = parse_gauge(json.dumps(doc), cx, default_identity=True)
        assert field.labels["c"] == 0

    def test_gauge_unknown_edge_named(self):
        cx = parse_complex(THETA_CX)
        doc = json.loads(THETA_GAUGE)
        doc["assignments"]["zz"] = "1"
        with pytest.raises(ParseError, match="zz"):
            parse_gauge(json.dumps(doc), cx)

    def test_holospec_missing_chord_named(self):
        cx = parse_complex(THETA_CX)
        doc = json.loads(THETA_HOLO)
        del doc["chords"]["c"]
        with pytest.raises(ParseError, match="'c'"):
            parse_holospec(json.dumps(doc), cx)

    def test_holospec_tree_edge_rejected(self):
        cx = parse_complex(THETA_CX)
        doc = json.loads(THETA_HOLO)
        doc["chords"]["a"] = "0"
        with pytest.raises(ParseError, match="'a'"):
            parse_holospec(json.dumps(doc), cx)

    def test_bad_element_literal_names_edge(self):
        cx = parse_complex(THETA_CX)
        doc = json.loads(THETA_GAUGE)
        doc["assignments"]["b"] = "7"  # out of range mod 5
        with pytest.raises(ParseError, match="'b'"):
            parse_gauge(json.dumps(doc), cx)

    def test_bad_element_literal_names_chord(self):
        cx = parse_complex(THETA_CX)
        doc = json.loads(THETA_HOLO)
        doc["chords"]["c"] = "not-a-number"
        with pytest.raises(ParseError, match="'c'"):
            parse_holospec(json.dumps(doc), cx)


class TestValidate:
    def test_valid_inputs(self, files):
        code, out = run(["validate", files["theta.cx"], files["theta.gauge"]])
        assert code == 0
        assert out == "ok\n"

    def test_disconnected_complex(self, tmp_path):
        doc = {
            "format": 1,
            "vertices": ["v0", "v1"],
            "basepoint": "v0",
            "edges": [],
        }
        p = tmp_path / "disc.cx"
        p.write_text(json.dumps(doc))
        code, _ = run(["validate", str(p)])
        assert code == 1

    def test_missing_file(self, tmp_path):
        code, _ = run(["validate", str(tmp_path / "nope.cx")])
        assert code == 1


class TestHolonomyCommand:
    def test_loop_literal(self, files):
        code, out = run(["holonomy", files["theta.cx"], files["theta.gauge"], "b,~a"])
        assert code == 0
        assert out == "b,~a\t2\n"

    def test_identity_loop(self, files):
        code, out = run(["holonomy", files["theta.cx"], files["theta.gauge"], "@v0"])
        assert code == 0
        assert out == "@v0\t0\n"

    def test_all_chords(self, files):
        code, out = run(
            ["holonomy", files["theta.cx"], files["theta.gauge"], "--all-chords"]
        )
        assert code == 0
        assert "b,~a\t2" in out and "c,~a\t1" in out
        assert "'order': 5" in out

    def test_structured_output(self, files):
        code, out = run(
            [
                "holonomy",
                files["theta.cx"],
                files["theta.gauge"],
                "--all-chords",
                "--report-format",
                "structured",
            ]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["group"]["order"] == 5


class TestReconstructCommand:
    def test_writes_gauge_and_verifies(self, files, tmp_path):
        out_path = tmp_path / "rebuilt.gauge"
        code, out = run(
            ["reconstruct", files["theta.cx"], files["theta.holo"], "--output", str(out_path)]
        )
        assert code == 0
        rebuilt = json.loads(out_path.read_text())
        assert rebuilt["assignments"] == {"a": "0", "b": "2", "c": "1"}
        assert "PASS reconstruct/holonomy-matches" in out

    def test_missing_chord_fails_with_name(self, files, tmp_path, capsys):
        doc = json.loads(THETA_HOLO)
        del doc["chords"]["b"]
        p = tmp_path / "bad.holo"
        p.write_text(json.dumps(doc))
        code, _ = run(["reconstruct", files["theta.cx"], str(p)])
        assert code == 1
        assert "'b'" in capsys.readouterr().err


class TestClassifyCommand:
    def test_identical_fields(self, files):
        code, out = run(
            ["classify", files["theta.cx"], files["theta.gauge"], files["theta.gauge"]]
        )
        assert code == 0
        assert "conjugator: 0" in out

    def test_violation_names_chord(self, files, tmp_path):
        doc = json.loads(THETA_GAUGE)
        doc["assignments"]["c"] = "2"
        p = tmp_path / "other.gauge"
        p.write_text(json.dumps(doc))
        code, out = run(
            [
                "classify",
                files["theta.cx"],
                files["theta.gauge"],
                str(p),
                "--report-format",
                "structured",
            ]
        )
        assert code == 1
        doc = json.loads(out)
        by_name = {c["name"]: c for c in doc["checks"]}
        assert by_name["classify/conjugate"]["status"] == "fail"
        assert by_name["classify/no-gauge-morphism"]["status"] == "pass"

    def test_given_conjugator_verified(self, files):
        code, out = run(
            [
                "classify",
                files["theta.cx"],
                files["theta.gauge"],
                files["theta.gauge"],
                "--conjugator",
                "3",
            ]
        )
        assert code == 0


class TestRoundtripCommand:
    def test_exit_zero_and_deterministic(self):
        code1, out1 = run(
            ["roundtrip", "--seed", "1", "--instances", "5", "--report-format", "structured"]
        )
        code2, out2 = run(
            ["roundtrip", "--seed", "1", "--instances", "5", "--report-format", "structured"]
        )
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        assert all(c["status"] == "pass" for c in doc["checks"])

    def test_other_seed_also_passes(self):
        code, out = run(
            ["roundtrip", "--seed", "2", "--instances", "3", "--report-format", "structured"]
        )
        assert code == 0
        assert json.loads(out)["format"] == 1

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_no_instances_rejected(self, count, capsys):
        code, out = run(["roundtrip", "--instances", count])
        assert code == 1
        assert out == ""
        assert "--instances" in capsys.readouterr().err


class TestNumericCommand:
    def test_numeric_battery(self):
        code, out = run(
            ["numeric-check", "--trials", "10", "--report-format", "structured"]
        )
        assert code == 0
        doc = json.loads(out)
        names = {c["name"] for c in doc["checks"]}
        assert {"numeric/winding-encloses", "numeric/winding-outside", "numeric/retrace-invariance", "numeric/bump"} <= names

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_no_trials_rejected(self, count, capsys):
        code, out = run(["numeric-check", "--trials", count])
        assert code == 1
        assert out == ""
        assert "--trials" in capsys.readouterr().err
