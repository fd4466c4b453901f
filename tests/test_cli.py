import contextlib
import copy
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditstab.oracle as oracle_module
from quditstab.cli import main
from quditstab.kitaev import torus_grid_graph
from quditstab.stabilizer import StabilizerGroup, StabilizerReport, analyze
from tests.helpers import tampered_represent


def run_cli(capsys, argv, stdin_obj=None, monkeypatch=None):
    if stdin_obj is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(stdin_obj)))
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


GOLDEN_REQUEST = {
    "d": 8,
    "n": 1,
    "generators": [
        {"phase": 0, "a": [4], "b": [0]},
        {"phase": 0, "a": [0], "b": [4]},
    ],
}


class TestAnalyzeCommand:
    def test_golden(self, capsys, monkeypatch):
        code, out = run_cli(capsys, ["analyze", "--input", "-"], GOLDEN_REQUEST, monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert report["dim_protected"] == 2
        assert report["quotient_divisors"] == [2]
        assert report["classification"] == "GENERAL"
        assert report["tool_version"]
        assert "conventions" in report

    def test_not_abelian_exit_2(self, capsys, monkeypatch):
        bad = {
            "d": 2,
            "n": 1,
            "generators": [{"phase": 0, "a": [0], "b": [1]}, {"phase": 0, "a": [1], "b": [0]}],
        }
        code, out = run_cli(capsys, ["analyze", "--input", "-"], bad, monkeypatch)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "NotAbelian"

    def test_malformed_request_exit_2(self, capsys, monkeypatch):
        code, out = run_cli(capsys, ["analyze", "--input", "-"], {"d": 3}, monkeypatch)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidRequest"

    def test_missing_file_exit_2(self, capsys):
        code, out = run_cli(capsys, ["analyze", "--input", "/nonexistent/req.json"])
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidRequest"

    def test_deterministic_output(self, capsys, monkeypatch):
        code1, out1 = run_cli(capsys, ["analyze", "--input", "-"], GOLDEN_REQUEST, monkeypatch)
        code2, out2 = run_cli(capsys, ["analyze", "--input", "-"], GOLDEN_REQUEST, monkeypatch)
        assert (code1, out1) == (code2, out2)

    def test_text_format(self, capsys, monkeypatch):
        code, out = run_cli(
            capsys, ["analyze", "--input", "-", "--format", "text"], GOLDEN_REQUEST, monkeypatch
        )
        assert code == 0
        assert "dim_protected: 2" in out

    def test_report_schema_is_stable(self, capsys, monkeypatch):
        _, out = run_cli(capsys, ["analyze", "--input", "-"], GOLDEN_REQUEST, monkeypatch)
        report = json.loads(out)
        assert set(report) == {
            "tool_version", "conventions", "d", "n", "cardinality", "dim_protected",
            "quotient_divisors", "canonical_chain", "classification",
            "logical_operators", "css",
        }
        for pair in report["logical_operators"]:
            assert set(pair) == {"divisor", "z", "x"}

    @pytest.mark.parametrize(
        "request_obj",
        [
            {**GOLDEN_REQUEST, "d": 8.0},
            {**GOLDEN_REQUEST, "d": 4.7},
            {"d": True, "n": 1, "generators": [{"phase": 0, "a": [0], "b": [1.9]}]},
            {**GOLDEN_REQUEST, "n": True},
            {"d": 8, "n": 1, "generators": [{"phase": 0.0, "a": [4], "b": [0]}]},
            {"d": 8, "n": 1, "generators": [{"phase": 0, "a": [4.0], "b": [0]}]},
            {"d": 8, "n": 1, "generators": [{"phase": 0, "a": [4], "b": [False]}]},
        ],
    )
    def test_float_or_bool_rejected_exit_2(self, capsys, monkeypatch, request_obj):
        code, out = run_cli(capsys, ["analyze", "--input", "-"], request_obj, monkeypatch)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidRequest"
        assert "must be an integer" in error["detail"]

    def test_bound_help_cites_default_without_env(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["oracle", "verify", "--help"])
        assert info.value.code == 0
        out = capsys.readouterr().out
        assert "default 200000" in out
        assert "env" not in out


Z1_ON_TWO_QUTRITS = {"d": 3, "n": 2, "generators": [{"phase": 0, "a": [0, 0], "b": [1, 0]}]}


class TestOracleVerifyCommand:
    def build_request(self, capsys, monkeypatch, request=GOLDEN_REQUEST):
        _, out = run_cli(capsys, ["analyze", "--input", "-"], request, monkeypatch)
        report = json.loads(out)
        keys = (
            "cardinality",
            "dim_protected",
            "quotient_divisors",
            "canonical_chain",
            "classification",
            "logical_operators",
            "css",
        )
        return {**request, "report": {k: report[k] for k in keys}}

    def test_pass(self, capsys, monkeypatch):
        request = self.build_request(capsys, monkeypatch)
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["verdict"] == "pass"
        assert verdict["eigenspace_histogram"] == {"2": 4}
        assert verdict["skipped"] == {}

    def test_z_block_runs_every_check(self, capsys, monkeypatch):
        # <Z_1..Z_16> on 16 qubits: 2^16 characters, read by the fibres without enumerating them
        z_block = {
            "d": 2,
            "n": 16,
            "generators": [
                {"phase": 0, "a": [0] * 16, "b": [int(i == k) for i in range(16)]}
                for k in range(16)
            ],
        }
        request = self.build_request(capsys, monkeypatch, z_block)
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["skipped"] == {}
        assert verdict["checks"]["transitivity"] is True
        assert verdict["eigenspace_histogram"] == {"1": 65536}

    def test_internal_invariant_exit_4(self, capsys, monkeypatch):
        request = self.build_request(capsys, monkeypatch)
        monkeypatch.setattr(oracle_module, "_maps_to_multiple", lambda *args, **kw: False)
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 4
        assert json.loads(out) == {
            "error": {
                "type": "InternalInvariant",
                "stage": "oracle.basis",
                "detail": "protected vector is not fixed",
            }
        }

    def test_tampered_action_exit_4(self, capsys, monkeypatch):
        request = self.build_request(capsys, monkeypatch)
        monkeypatch.setattr(oracle_module, "represent", tampered_represent(oracle_module.represent))
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 4
        error = json.loads(out)["error"]
        assert (error["type"], error["stage"]) == ("InternalInvariant", "oracle.scan")

    def test_tampered_orbit_of_zero_that_is_no_subgroup_exit_4(self, capsys, monkeypatch):
        # X at d=4 made to fix 2 has orbit(0) = {0, 1, 3}, so the coset grid cannot fill the basis
        x_at_d4 = {"d": 4, "n": 1, "generators": [{"phase": 0, "a": [1], "b": [0]}]}
        request = self.build_request(capsys, monkeypatch, x_at_d4)
        monkeypatch.setattr(oracle_module, "represent", tampered_represent(oracle_module.represent, 2))
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 4
        assert json.loads(out)["error"] == {
            "type": "InternalInvariant",
            "stage": "oracle.scan",
            "detail": "1 coset starts of 3 members do not fill 4 indices",
        }

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_non_positive_bound_exit_2(self, capsys, monkeypatch, value):
        request = self.build_request(capsys, monkeypatch)
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-", "--bound", value],
                            request, monkeypatch)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "BadBound"
        assert error["detail"] == f"bound {value} is not positive"

    @pytest.mark.parametrize("value", [5, None, ["FREE(1)"]])
    def test_classification_not_a_string_exit_2(self, capsys, monkeypatch, value):
        request = self.build_request(capsys, monkeypatch)
        request["report"]["classification"] = value
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidRequest"
        assert "classification must be a string" in error["detail"]

    @pytest.mark.parametrize("value", ["FREE(x)", "GENERAL()", "FREE(3", "FREE(3)(4)", "BOGUS",
                                       "FREE(03)", "FREE(-1)", "free(1)", "GENERAL\n", "SHIFTED_FREE"])
    def test_malformed_classification_exit_2(self, capsys, monkeypatch, value):
        # only what the writer emits is read: FREE(r), SHIFTED_FREE(r) or GENERAL
        request = self.build_request(capsys, monkeypatch)
        request["report"]["classification"] = value
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidRequest"
        assert error["detail"] == f"classification must be FREE(r), SHIFTED_FREE(r) or GENERAL, got {value!r}"

    @pytest.mark.parametrize("value", ["FREE(0)", "FREE(12)", "SHIFTED_FREE(3)", "GENERAL"])
    def test_written_classifications_are_read(self, value):
        report = StabilizerReport.from_json_dict(
            {"cardinality": 1, "dim_protected": 2, "quotient_divisors": [], "canonical_chain": [],
             "classification": value}, 2, 1)
        assert report.classification == value

    @pytest.mark.parametrize(
        "field, value",
        [("dim_protected", 2.0), ("cardinality", True), ("quotient_divisors", [2.5])],
    )
    def test_float_or_bool_in_report_exit_2(self, capsys, monkeypatch, field, value):
        request = self.build_request(capsys, monkeypatch)
        request["report"][field] = value
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidRequest"

    def test_float_divisor_in_report_exit_2(self, capsys, monkeypatch):
        request = self.build_request(capsys, monkeypatch)
        request["report"]["logical_operators"][0]["divisor"] = 2.0
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "InvalidRequest", "detail": "logical_operators[0].divisor must be an integer, got 2.0"}

    @pytest.mark.parametrize("divisor", [0, -2])
    def test_non_positive_divisor_in_report_exit_2(self, capsys, monkeypatch, divisor):
        request = self.build_request(capsys, monkeypatch)
        request["report"]["logical_operators"][0]["divisor"] = divisor
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "InvalidRequest", "detail": f"divisor {divisor} is not positive"}

    @pytest.mark.parametrize(
        "where, pick, key, value, own",
        [
            ("logical_operators[0].z", lambda r: r["logical_operators"][0]["z"], "n", 1, "(3, 1)"),
            ("logical_operators[0].x", lambda r: r["logical_operators"][0]["x"], "d", 9, "(9, 2)"),
            ("css.z_generators[0]", lambda r: r["css"]["z_generators"][0], "n", 3, "(3, 3)"),
        ],
        ids=["pair_z_n", "pair_x_d", "css_z_n"],
    )
    def test_element_off_the_report_dimensions_exit_2(self, capsys, monkeypatch, where, pick, key, value, own):
        # an element's own d or n may only repeat the report's; the error names the element
        request = self.build_request(capsys, monkeypatch, Z1_ON_TWO_QUTRITS)
        element = pick(request["report"])
        element[key] = value
        if key == "n":  # a well-formed element of the wrong size
            element["a"], element["b"] = element["a"][:1] * value, element["b"][:1] * value
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "DimensionMismatch", "detail": f"{where} has (d, n) = {own}, not (3, 2)"}

    def test_elements_read_in_the_report_dimensions(self, capsys, monkeypatch):
        request = self.build_request(capsys, monkeypatch, Z1_ON_TWO_QUTRITS)
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        for pair in request["report"]["logical_operators"]:
            for element in (pair["z"], pair["x"]):
                del element["d"], element["n"]
        for element in request["report"]["css"]["z_generators"]:
            del element["d"], element["n"]
        assert (code, json.loads(out)["verdict"]) == (0, "pass")
        assert run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch) == (code, out)

    @pytest.mark.parametrize("own", [(2, 1), (3, 7), (3, 1), (2, 7)])
    def test_report_read_in_the_request_dimensions(self, capsys, monkeypatch, own):
        # the report's own d and n may only repeat the request's, as its elements' may
        request = self.build_request(capsys, monkeypatch, {"d": 2, "n": 1, "generators": [{"a": [0], "b": [1]}]})
        request["report"]["d"], request["report"]["n"] = own
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        if own == (2, 1):
            assert (code, json.loads(out)["verdict"]) == (0, "pass")
        else:
            assert (code, json.loads(out)["error"]) == (2, {
                "type": "DimensionMismatch", "detail": f"report has (d, n) = {own}, not (2, 1)"})

    def test_failure_exit_3(self, capsys, monkeypatch):
        request = self.build_request(capsys, monkeypatch)
        request["report"]["dim_protected"] = 7
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 3
        assert json.loads(out)["verdict"] == "fail"

    @pytest.mark.parametrize("classification, detail", [
        ("GENERAL", "GENERAL needs a quotient divisor below 2"),
        ("FREE(2)", "FREE(2) needs |H| = 2^2, oracle |H| 2"),
    ])
    def test_classification_contradicting_the_counts_exit_3(self, capsys, monkeypatch, classification, detail):
        zz = {"d": 2, "n": 2, "generators": [{"phase": 0, "a": [0, 0], "b": [1, 1]}]}
        request = self.build_request(capsys, monkeypatch, zz)
        assert request["report"]["classification"] == "FREE(1)"
        request["report"]["classification"] = classification
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 3
        assert json.loads(out)["details"] == {"irreducibility_count": detail}


class TestKitaevCommand:
    def test_build_and_verify(self, capsys, monkeypatch, tmp_path):
        graph_file = tmp_path / "torus.json"
        graph_file.write_text(json.dumps(torus_grid_graph(2, 2).to_json_dict()))
        code, out = run_cli(
            capsys,
            ["kitaev", "build", "--graph", str(graph_file), "--d", "2", "--verify"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["genus"] == 1
        assert payload["report"]["dim_protected"] == 4
        assert payload["oracle"]["verdict"] == "pass"

    def test_twist_spec(self, capsys, monkeypatch, tmp_path):
        graph_file = tmp_path / "torus.json"
        graph_file.write_text(json.dumps(torus_grid_graph(2, 2).to_json_dict()))
        twist_file = tmp_path / "twist.json"
        twist_file.write_text(
            json.dumps(
                {
                    "source": [0, 0],
                    "pairs": [
                        {
                            "vertex": [0, 1],
                            "a": 4,
                            "b": 2,
                            "path": [{"edge": ["h", 0, 0], "reverse": False}],
                        }
                    ],
                }
            )
        )
        code, out = run_cli(
            capsys,
            [
                "kitaev", "build",
                "--graph", str(graph_file),
                "--d", "4",
                "--twist", str(twist_file),
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["report"]["dim_protected"] == 32

    def test_character_charges(self, capsys, monkeypatch, tmp_path):
        graph_file = tmp_path / "torus.json"
        graph_file.write_text(json.dumps(torus_grid_graph(2, 2).to_json_dict()))
        chi_file = tmp_path / "chi.json"
        chi_file.write_text(json.dumps({"values": [1, 2, 0, 0, 0, 0, 0, 0]}))
        code, out = run_cli(
            capsys,
            [
                "kitaev", "build",
                "--graph", str(graph_file),
                "--d", "3",
                "--character", str(chi_file),
            ],
        )
        assert code == 0
        payload = json.loads(out)
        electric = {item["vertex"]: item["charge"] for item in payload["charges"]["electric"]}
        assert sorted(electric.values()) == [0, 0, 1, 2]
        assert all(item["charge"] == 0 for item in payload["charges"]["magnetic"])

    @pytest.mark.parametrize("values", [[1.0, 2, 0, 0, 0, 0, 0, 0], [True, 2, 0, 0, 0, 0, 0, 0]])
    def test_float_or_bool_character_exit_2(self, capsys, tmp_path, values):
        graph_file = tmp_path / "torus.json"
        graph_file.write_text(json.dumps(torus_grid_graph(2, 2).to_json_dict()))
        chi_file = tmp_path / "chi.json"
        chi_file.write_text(json.dumps({"values": values}))
        code, out = run_cli(
            capsys,
            ["kitaev", "build", "--graph", str(graph_file), "--d", "3",
             "--character", str(chi_file)],
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidRequest"

    def test_float_twist_exponent_exit_2(self, capsys, tmp_path):
        # the error names the pair and the field, not the bare key
        graph_file = tmp_path / "torus.json"
        graph_file.write_text(json.dumps(torus_grid_graph(2, 2).to_json_dict()))
        twist_file = tmp_path / "twist.json"
        pair = {"vertex": [0, 1], "a": 4, "b": 2, "path": [{"edge": ["h", 0, 0], "reverse": False}]}
        for index, key, value in [(0, "a", 4.0), (1, "a", 4.5), (1, "b", True)]:
            pairs = [dict(pair), dict(pair)]
            pairs[index][key] = value
            twist_file.write_text(json.dumps({"source": [0, 0], "pairs": pairs}))
            code, out = run_cli(
                capsys,
                ["kitaev", "build", "--graph", str(graph_file), "--d", "4",
                 "--twist", str(twist_file)],
            )
            assert code == 2
            assert json.loads(out)["error"] == {
                "type": "InvalidRequest", "detail": f"pairs[{index}].{key} must be an integer, got {value!r}"}

    def test_bad_surface_exit_2(self, capsys, monkeypatch, tmp_path):
        graph_file = tmp_path / "bad.json"
        graph_file.write_text(
            json.dumps(
                {
                    "vertices": [0, 1],
                    "edges": [{"id": "e", "tail": 0, "head": 1}],
                    "faces": [[{"edge": "e", "side": "L"}]],
                }
            )
        )
        code, out = run_cli(
            capsys, ["kitaev", "build", "--graph", str(graph_file), "--d", "2"]
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "BadSurface"


class TestCanonicalizeCommand:
    def test_free_group(self, capsys, monkeypatch):
        request = {
            "d": 3,
            "n": 1,
            "generators": [{"phase": 2, "a": [0], "b": [1]}],  # xi Z
        }
        code, out = run_cli(capsys, ["canonicalize", "--input", "-"], request, monkeypatch)
        assert code == 0
        payload = json.loads(out)
        assert payload["conjugated_generators"] == [
            {"d": 3, "n": 1, "phase": 0, "a": [0], "b": [1]}
        ]

    def test_not_free_exit_2(self, capsys, monkeypatch):
        request = {"d": 4, "n": 1, "generators": [{"phase": 0, "a": [0], "b": [2]}]}
        code, out = run_cli(capsys, ["canonicalize", "--input", "-"], request, monkeypatch)
        assert code == 2
        assert json.loads(out)["error"]["type"] == "NotFree"


class TestRequestLimits:
    @pytest.mark.parametrize("n", [1025, 10**9])
    @pytest.mark.parametrize("command", [["analyze"], ["canonicalize"], ["oracle", "verify"]])
    def test_n_past_the_limit_exit_2(self, capsys, monkeypatch, command, n):
        request = {"d": 2, "n": n, "generators": [], "report": {}}
        code, out = run_cli(capsys, command + ["--input", "-"], request, monkeypatch)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "InvalidRequest", "detail": f"n = {n} exceeds the request limit 1024"}

    @pytest.mark.parametrize("command", [["analyze"], ["canonicalize"], ["oracle", "verify"]])
    def test_negative_n_exit_2(self, capsys, monkeypatch, command):
        request = {"d": 2, "n": -1, "generators": [], "report": {}}
        code, out = run_cli(capsys, command + ["--input", "-"], request, monkeypatch)
        assert code == 2
        assert json.loads(out)["error"] == {"type": "InvalidRequest", "detail": "n = -1: need n >= 0"}

    def test_n_0_is_read(self):
        group = StabilizerGroup.from_json_dict({"d": 2, "n": 0, "generators": []})
        assert analyze(group).classification == "FREE(0)"

    def test_n_at_the_limit_is_read(self):
        z1 = {"phase": 0, "a": [0] * 1024, "b": [1] + [0] * 1023}
        group = StabilizerGroup.from_json_dict({"d": 2, "n": 1024, "generators": [z1]})
        assert (group.n, group.cardinality) == (1024, 2)

    @pytest.mark.parametrize("command", [["analyze"], ["canonicalize"], ["oracle", "verify"]])
    def test_d_1_exit_2(self, capsys, monkeypatch, command):
        request = {"d": 1, "n": 1, "generators": [], "report": {}}
        code, out = run_cli(capsys, command + ["--input", "-"], request, monkeypatch)
        assert code == 2
        assert json.loads(out)["error"] == {"type": "InvalidRequest", "detail": "d = 1: need d >= 2"}

    def test_kitaev_d_1_exit_2(self, capsys, tmp_path):
        graph_file = tmp_path / "torus.json"
        graph_file.write_text(json.dumps(torus_grid_graph(2, 2).to_json_dict()))
        code, out = run_cli(capsys, ["kitaev", "build", "--graph", str(graph_file), "--d", "1"])
        assert code == 2
        assert json.loads(out)["error"] == {"type": "InvalidRequest", "detail": "d = 1: need d >= 2"}

    @pytest.mark.parametrize("d", [0, -3])
    def test_kitaev_d_below_1_is_checked_before_any_reduction(self, capsys, tmp_path, d):
        # the operators are reduced as they are built, so d is checked first
        graph_file = tmp_path / "torus.json"
        graph_file.write_text(json.dumps(torus_grid_graph(2, 2).to_json_dict()))
        code, out = run_cli(capsys, ["kitaev", "build", "--graph", str(graph_file), "--d", str(d)])
        assert code == 2
        assert json.loads(out)["error"] == {"type": "InvalidRequest", "detail": f"d = {d}: need d >= 2"}


# -- malformed requests, by property --------------------------------------

# replacement values are small, so n stays at most 3; d reaches 2^200 through moduli
HUGE = 2**200
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)
moduli = st.one_of(st.integers(-2, 13), st.integers(2, HUGE))
entries = st.one_of(st.integers(-3, 12), st.sampled_from([2**64, HUGE]))


@st.composite
def pauli_objects(draw, n: int) -> dict:
    return {"phase": draw(entries), "a": draw(st.lists(entries, min_size=n, max_size=n)),
            "b": draw(st.lists(entries, min_size=n, max_size=n))}


@st.composite
def group_requests(draw) -> dict:
    n = draw(st.integers(-1, 3))
    gens = draw(st.lists(pauli_objects(max(n, 0)), max_size=3))
    return {"d": draw(moduli), "n": n, "generators": gens}


@st.composite
def reports(draw) -> dict:
    n = draw(st.integers(0, 3))
    ints = st.lists(entries, max_size=3)
    report = {
        "classification": draw(st.sampled_from(["FREE(1)", "SHIFTED_FREE(2)", "GENERAL", "FREE(", "X(y)"])),
        "cardinality": draw(entries), "dim_protected": draw(entries),
        "quotient_divisors": draw(ints), "canonical_chain": draw(ints),
        "logical_operators": [{"divisor": draw(entries), "z": draw(pauli_objects(n)), "x": draw(pauli_objects(n))}],
    }
    if draw(st.booleans()):
        report["css"] = {"z_generators": [draw(pauli_objects(n))], "x_generators": []}
    return report


def _paths(obj, prefix=()):
    yield prefix
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _paths(value, prefix + (key,))


@st.composite
def malformed(draw, base: dict):
    """base with up to three values, at any depth, dropped or replaced by any JSON value."""
    obj = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(obj))))
        if not path:
            obj = draw(json_values)
            continue
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(json_values)
    return obj


TWIST = {"source": [0, 0], "pairs": [{"vertex": [0, 1], "a": 4, "b": 2,
                                      "path": [{"edge": ["h", 0, 0], "reverse": False}]}]}


@st.composite
def cli_requests(draw):
    """(argv, stdin object, files): one request of any subcommand, malformed anywhere."""
    command = draw(st.sampled_from(["analyze", "canonicalize", "oracle verify", "kitaev build"]))
    bound = ["--bound", str(draw(st.sampled_from([-5, 0, 1, 4096])))]
    if command == "kitaev build":
        graph = draw(malformed(torus_grid_graph(2, 2).to_json_dict()))
        argv = ["kitaev", "build", "--graph", "-", "--d", str(draw(moduli))]
        if draw(st.booleans()):
            argv += ["--verify"] + bound
        if draw(st.booleans()):
            return argv + ["--twist", "spec.json"], graph, {"spec.json": draw(malformed(TWIST))}
        return argv, graph, {}
    base = draw(group_requests())
    if command == "oracle verify":
        report = analyze(StabilizerGroup.from_json_dict(GOLDEN_REQUEST)).to_json_dict()
        golden = {**GOLDEN_REQUEST, "report": report}
        base = draw(st.sampled_from([golden, {**base, "report": draw(reports())}]))
        return ["oracle", "verify", "--input", "-"] + bound, draw(malformed(base)), {}
    return [command, "--input", "-"], draw(malformed(base)), {}


def error_of_files(capsys, tmp_path, command, files):
    """The error object of command run with each named file written to tmp_path.

    A file holds its JSON, or its text when given a string; "graph" defaults to the 2x2 torus.
    """
    files = {"graph": torus_grid_graph(2, 2).to_json_dict(), **files}
    for name, obj in files.items():
        (tmp_path / name).write_text(obj if isinstance(obj, str) else json.dumps(obj))
    code, out = run_cli(capsys, [str(tmp_path / a) if a in files else a for a in command])
    assert code == 2
    return json.loads(out)["error"]


class TestMalformedRequests:
    @pytest.mark.parametrize(
        "request_obj",
        [
            {**GOLDEN_REQUEST, "generators": [5]},
            {**GOLDEN_REQUEST, "generators": {"a": 1}},
        ],
    )
    @pytest.mark.parametrize("command", [["analyze"], ["canonicalize"], ["oracle", "verify"]])
    def test_generator_not_an_object_exit_2(self, capsys, monkeypatch, request_obj, command):
        request = {**request_obj, "report": {}}
        code, out = run_cli(capsys, command + ["--input", "-"], request, monkeypatch)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "InvalidRequest"
        assert "generator must be an object" in error["detail"]

    @pytest.mark.parametrize("key, value, own", [("n", 2, "(2, 2)"), ("d", 3, "(3, 1)")])
    @pytest.mark.parametrize("command", [["analyze"], ["canonicalize"], ["oracle", "verify"]])
    def test_generator_off_the_request_dimensions_exit_2(self, capsys, monkeypatch, key, value, own, command):
        # a generator's own d or n may only repeat the request's; the error names the generator
        request = {"d": 2, "n": 1, "generators": [{"a": [0], "b": [1]}, {"a": [0], "b": [1], key: value}],
                   "report": {}}
        code, out = run_cli(capsys, command + ["--input", "-"], request, monkeypatch)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "DimensionMismatch", "detail": f"generators[1] has (d, n) = {own}, not (2, 1)"}

    @pytest.mark.parametrize("request_obj", [[], 5, "request"])
    @pytest.mark.parametrize("command", [["analyze"], ["canonicalize"], ["oracle", "verify"]])
    def test_request_not_an_object_exit_2(self, capsys, monkeypatch, request_obj, command):
        code, out = run_cli(capsys, command + ["--input", "-"], request_obj, monkeypatch)
        assert code == 2
        assert json.loads(out)["error"] == {
            "type": "InvalidRequest", "detail": f"request must be an object, got {request_obj!r}"}

    @pytest.mark.parametrize(
        "command, files, detail",
        [
            (["oracle", "verify", "--input", "request"], {"request": {**GOLDEN_REQUEST, "report": []}},
             "report must be an object, got []"),
            (["oracle", "verify", "--input", "request"],
             {"request": {**GOLDEN_REQUEST, "report": {"logical_operators": [5]}}},
             "logical_operators[0] must be an object, got 5"),
            (["oracle", "verify", "--input", "request"], {"request": {**GOLDEN_REQUEST, "report": {"css": [1]}}},
             "css must be an object, got [1]"),
            (["kitaev", "build", "--graph", "graph", "--d", "4", "--character", "chi"], {"chi": [3]},
             "character must be an object, got [3]"),
            (["kitaev", "build", "--graph", "graph", "--d", "4", "--twist", "twist"],
             {"twist": {"source": [0, 0], "pairs": [7]}}, "pairs[0] must be an object, got 7"),
            (["kitaev", "build", "--graph", "graph", "--d", "2"], {"graph": [1]},
             "graph must be an object, got [1]"),
            (["kitaev", "build", "--graph", "graph", "--d", "2"],
             {"graph": {"vertices": [0], "edges": [5], "faces": []}}, "edges[0] must be an object, got 5"),
            (["kitaev", "build", "--graph", "graph", "--d", "2"],
             {"graph": {"vertices": [0], "edges": [], "faces": [[7]]}}, "faces[0][0] must be an object, got 7"),
        ],
        ids=["report", "logical_pair", "css", "character", "twist_pair", "graph", "edge", "face_step"],
    )
    def test_part_not_an_object_exit_2(self, capsys, tmp_path, command, files, detail):
        # each reader below the request level names its own place, not Python's type error
        assert error_of_files(capsys, tmp_path, command, files) == {"type": "InvalidRequest", "detail": detail}

    @pytest.mark.parametrize(
        "command, files, detail",
        [
            (["oracle", "verify", "--input", "request"], {"request": {**GOLDEN_REQUEST, "report": {}}},
             "report lacks 'classification'"),
            (["oracle", "verify", "--input", "request"], {"request": GOLDEN_REQUEST},
             "request lacks 'report'"),
            (["analyze", "--input", "request"], {"request": {"n": 1, "generators": []}},
             "request lacks 'd'"),
            (["kitaev", "build", "--graph", "graph", "--d", "4", "--twist", "twist"],
             {"twist": {"source": [0, 0]}}, "shift spec lacks 'pairs'"),
            (["kitaev", "build", "--graph", "graph", "--d", "4", "--twist", "twist"],
             {"twist": {"source": [0, 0], "pairs": [{"vertex": [0, 1], "a": 4, "b": 2, "path": [{}]}]}},
             "pairs[0].path[0] lacks 'edge'"),
            (["kitaev", "build", "--graph", "graph", "--d", "2"],
             {"graph": {"vertices": [0], "edges": [{"id": 0, "tail": 0}], "faces": []}}, "edges[0] lacks 'head'"),
        ],
        ids=["report", "request_report", "request_d", "shift_spec", "path_step", "edge"],
    )
    def test_part_lacks_key_exit_2(self, capsys, tmp_path, command, files, detail):
        # a missing key names the part that lacks it
        assert error_of_files(capsys, tmp_path, command, files) == {"type": "InvalidRequest", "detail": detail}

    @pytest.mark.parametrize("reverse", ["false", 0, 1, None])
    def test_path_reverse_must_be_a_boolean(self, capsys, tmp_path, reverse):
        # bool("false") is True: the step would silently walk backwards
        twist = copy.deepcopy(TWIST)
        twist["pairs"][0]["path"][0]["reverse"] = reverse
        command = ["kitaev", "build", "--graph", "graph", "--d", "4", "--twist", "twist"]
        assert error_of_files(capsys, tmp_path, command, {"twist": twist}) == {
            "type": "InvalidRequest", "detail": f"pairs[0].path[0].reverse must be a boolean, got {reverse!r}"}

    @pytest.mark.parametrize(
        "command, text",
        [
            (["analyze", "--input", "request"], "[" * 100_000 + "]" * 100_000),
            (["kitaev", "build", "--graph", "graph", "--d", "2"],
             '{"vertices": [' + "[" * 900 + "0" + "]" * 900 + '], "edges": [], "faces": []}'),
        ],
        ids=["request", "graph_vertex"],
    )
    def test_deep_nesting_exit_2(self, capsys, tmp_path, command, text):
        # past the recursion limit, in json.load or in a reader: a typed error, not a traceback
        name = command[2] if command[0] == "analyze" else command[3]
        assert error_of_files(capsys, tmp_path, command, {name: text}) == {
            "type": "InvalidRequest", "detail": "input nests too deeply"}

    @given(cli_requests())
    @settings(max_examples=150, deadline=None)
    def test_every_request_exits_typed(self, request_):
        argv, stdin_obj, files = request_
        out = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            for name, obj in files.items():
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                    json.dump(obj, fh)
            argv = [os.path.join(tmp, a) if a in files else a for a in argv]
            mp.setattr(sys, "stdin", io.StringIO(json.dumps(stdin_obj)))
            with contextlib.redirect_stdout(out):
                code = main(argv)
        assert code in (0, 2, 3, 4)
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict)
