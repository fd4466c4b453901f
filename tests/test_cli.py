import json

import pytest

import quditstab.oracle as oracle_module
from quditstab.cli import main
from quditstab.kitaev import torus_grid_graph
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

    def test_malformed_bound_env_does_not_break_analyze(self, capsys, monkeypatch):
        monkeypatch.setenv("QUDITSTAB_ORACLE_BOUND", "abc")
        code, out = run_cli(capsys, ["analyze", "--input", "-"], GOLDEN_REQUEST, monkeypatch)
        assert code == 0
        assert json.loads(out)["dim_protected"] == 2

    def test_bound_help_cites_default_without_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QUDITSTAB_ORACLE_BOUND", "abc")
        with pytest.raises(SystemExit) as info:
            main(["oracle", "verify", "--help"])
        assert info.value.code == 0
        assert "default 200000" in capsys.readouterr().out


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

    def test_skipped_check_is_named(self, capsys, monkeypatch):
        # <Z_1..Z_8> on 12 qubits: 2^8 characters * 2^12 orbits * 9 > 8_000_000
        z_block = {
            "d": 2,
            "n": 12,
            "generators": [
                {"phase": 0, "a": [0] * 12, "b": [int(i == k) for i in range(12)]}
                for k in range(8)
            ],
        }
        request = self.build_request(capsys, monkeypatch, z_block)
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 0
        verdict = json.loads(out)
        assert verdict["skipped"] == {
            "transitivity": "character sweep work 9437184 exceeds limit 8000000"
        }
        assert "transitivity" not in verdict["checks"]
        assert verdict["eigenspace_histogram"] is None

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

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_malformed_bound_env_exit_2(self, capsys, monkeypatch, value):
        request = self.build_request(capsys, monkeypatch)
        monkeypatch.setenv("QUDITSTAB_ORACLE_BOUND", value)
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["type"] == "BadBound"
        assert "QUDITSTAB_ORACLE_BOUND" in error["detail"]

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
        assert json.loads(out)["error"]["type"] == "InvalidRequest"

    def test_failure_exit_3(self, capsys, monkeypatch):
        request = self.build_request(capsys, monkeypatch)
        request["report"]["dim_protected"] = 7
        code, out = run_cli(capsys, ["oracle", "verify", "--input", "-"], request, monkeypatch)
        assert code == 3
        assert json.loads(out)["verdict"] == "fail"


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
        graph_file = tmp_path / "torus.json"
        graph_file.write_text(json.dumps(torus_grid_graph(2, 2).to_json_dict()))
        twist_file = tmp_path / "twist.json"
        twist_file.write_text(json.dumps({
            "source": [0, 0],
            "pairs": [{"vertex": [0, 1], "a": 4.0, "b": 2,
                       "path": [{"edge": ["h", 0, 0], "reverse": False}]}],
        }))
        code, out = run_cli(
            capsys,
            ["kitaev", "build", "--graph", str(graph_file), "--d", "4",
             "--twist", str(twist_file)],
        )
        assert code == 2
        assert json.loads(out)["error"]["type"] == "InvalidRequest"

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
