import json
import subprocess
import sys
from pathlib import Path

import pytest

from starorder import theorems
from starorder.cli import main
from starorder.errors import VerificationError

Z6 = '{"type":"modular","n":6}'
Z4 = '{"type":"modular","n":4}'

GOLDEN = Path(__file__).parent / "golden" / "z6.dot"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_z6(self, capsys):
        code, out, _ = run(capsys, "classify", Z6)
        assert code == 0
        payload = json.loads(out)
        assert payload["flags"]["pq_baer_star"] is True
        assert payload["flags"]["two_invertible"] is False
        assert payload["witnesses"] == {"two_invertible": [2]}

    def test_invalid_modulus_exits_2(self, capsys):
        code, out, err = run(capsys, "classify", '{"type":"modular","n":0}')
        assert code == 2
        assert out == ""
        reason = json.loads(err)
        assert reason["error"] == "ring-spec"

    def test_bad_json_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "{not json")
        assert code == 2
        assert json.loads(err)["error"] == "spec-json"

    def test_axiom_violating_tables_exit_2(self, capsys):
        spec = {
            "type": "table",
            "order": 2,
            "add": [[0, 1], [1, 0]],
            "mul": [[0, 0], [0, 1]],
            "star": [1, 0],
            "zero": 0,
            "one": 1,
        }
        code, _, err = run(capsys, "classify", json.dumps(spec))
        assert code == 2
        assert json.loads(err)["error"] == "invalid-tables"

    @pytest.mark.parametrize(
        "field, value", [("mul", 1.9), ("star", "1"), ("add", True), ("mul", None)]
    )
    def test_non_integer_table_entry_exits_2(self, capsys, field, value):
        spec = {
            "type": "table",
            "order": 2,
            "add": [[0, 1], [1, 0]],
            "mul": [[0, 0], [0, 1]],
            "star": [0, 1],
            "zero": 0,
            "one": 1,
        }
        if field == "star":
            spec["star"][1] = value
        else:
            spec[field][1][1] = value
        code, out, err = run(capsys, "classify", json.dumps(spec))
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "ring-spec",
            "detail": f"table spec field {field!r} entries must be integers",
        }

    @staticmethod
    def _nested(levels: int) -> str:
        # Built as text: json.dumps itself recurses too deeply at 1200 levels.
        head = '{"type":"product","parts":[' * (levels - 1)
        return head + '{"type":"modular","n":2}' + "]}" * (levels - 1)

    def test_spec_depth_bound(self, capsys):
        code, out, _ = run(capsys, "classify", self._nested(64))
        assert code == 0
        assert json.loads(out)["order"] == 2
        code, out, err = run(capsys, "classify", self._nested(65))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "ring-spec"

    def test_json_too_deep_to_parse_exits_2(self, capsys):
        code, out, err = run(capsys, "classify", self._nested(1200))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "spec-json"

    def test_spec_from_file(self, capsys, tmp_path):
        path = tmp_path / "ring.json"
        path.write_text(Z6)
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0
        assert json.loads(out)["label"] == "Z6"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "no/such/ring.json")
        assert code == 2
        assert json.loads(err)["error"] == "spec-source"

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "classify", Z6, "--pretty")
        assert code == 0
        assert "semiprime: yes" in out


class TestCovers:
    def test_z6(self, capsys):
        code, out, _ = run(capsys, "covers", Z6)
        assert code == 0
        assert json.loads(out)["cover"] == [0, 1, 4, 3, 4, 1]


class TestOrder:
    def test_z6_exits_0(self, capsys):
        code, out, _ = run(capsys, "order", Z6)
        assert code == 0
        payload = json.loads(out)
        assert payload["diagnostics"]["antisymmetric"]["holds"] is True
        assert payload["cub"][1][2] is False

    def test_z4_exits_1_with_witness(self, capsys):
        code, out, _ = run(capsys, "order", Z4)
        assert code == 1
        payload = json.loads(out)
        assert payload["diagnostics"]["antisymmetric"]["witness"] == [0, 2]


class TestSegment:
    def test_z6_top5(self, capsys):
        code, out, _ = run(capsys, "segment", Z6, "--top", "5")
        assert code == 0
        payload = json.loads(out)
        assert payload["elements"] == [0, 2, 3, 5]
        assert payload["complement"] == [5, 3, 2, 0]
        assert payload["orthomodular"] is True

    def test_out_of_range_top_exits_2(self, capsys):
        code, _, err = run(capsys, "segment", Z6, "--top", "99")
        assert code == 2
        assert json.loads(err)["error"] == "foreign-element"


class TestVerify:
    def test_z6(self, capsys):
        code, out, _ = run(capsys, "verify", Z6)
        assert code == 0
        verdicts = {v["theorem"]: v for v in json.loads(out)}
        assert verdicts["subtractivity-biconditional"]["status"] == "skipped"
        assert verdicts["meet-join"]["status"] == "pass"

    def test_z4_exits_1(self, capsys):
        code, out, _ = run(capsys, "verify", Z4)
        assert code == 1
        verdicts = {v["theorem"]: v for v in json.loads(out)}
        assert verdicts["order-diagnostics"]["status"] == "fail"
        assert verdicts["order-diagnostics"]["witness"] == [0, 2]

    def test_single_theorem(self, capsys):
        code, out, _ = run(capsys, "verify", Z6, "--suite", "meet-join")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 1 and payload[0]["theorem"] == "meet-join"

    def test_unknown_theorem_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", Z6, "--suite", "bogus")
        assert code == 2
        assert json.loads(err)["error"] == "ring-spec"

    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "verify", Z6, "--pretty")
        assert code == 0
        assert "meet-join: pass" in out

    @pytest.mark.parametrize(
        "exc, detail",
        [
            (VerificationError("cross-check failed"), "cross-check failed"),
            (MemoryError(), "MemoryError"),
        ],
    )
    def test_internal_error_exits_3(self, capsys, monkeypatch, exc, detail):
        def broken(ring):
            raise exc

        registry = tuple(
            (tid, gate, broken if tid == "meet-join" else runner)
            for tid, gate, runner in theorems._REGISTRY
        )
        monkeypatch.setattr(theorems, "_REGISTRY", registry)
        code, out, err = run(capsys, "verify", Z6, "--suite", "meet-join")
        assert code == 3
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "internal", "detail": detail}


class TestFuzzCommand:
    def test_deterministic_bytes(self, capsys):
        args = ("fuzz", "--seed", "42", "--max-order", "16", "--families", "modular,product")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["rings_checked"] == 31
        assert all(f["red_alert"] is False for f in payload["failures"])

    def test_random_table_requires_budget(self, capsys):
        code, _, err = run(capsys, "fuzz", "--families", "random-table")
        assert code == 2
        assert json.loads(err)["error"] == "fuzz-budget"

    def test_clean_family_exits_0(self, capsys):
        # Largest three are Z7, Z6, Z5: all squarefree, so no failures.
        code, out, _ = run(
            capsys, "fuzz", "--max-order", "7", "--families", "modular", "--budget", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rings_checked"] == 3
        assert payload["failures"] == []


class TestHasse:
    def test_z6_golden_stdout(self, capsys):
        code, out, _ = run(capsys, "hasse", Z6)
        assert code == 0
        assert out == GOLDEN.read_text()

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "z6.dot"
        code, out, _ = run(capsys, "hasse", Z6, "--out", str(target))
        assert code == 0
        assert target.read_text() == GOLDEN.read_text()

    def test_z4_refused_with_diagnostics(self, capsys):
        code, out, _ = run(capsys, "hasse", Z4)
        assert code == 1
        payload = json.loads(out)
        assert payload["diagnostics"]["antisymmetric"]["witness"] == [0, 2]


class TestEnvCap:
    def test_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("STARORDER_ORDER_CAP", "5")
        code, _, err = run(capsys, "classify", Z6)
        assert code == 2
        assert json.loads(err)["error"] == "order-cap"

    def test_bad_cap_value(self, capsys, monkeypatch):
        monkeypatch.setenv("STARORDER_ORDER_CAP", "many")
        code, _, err = run(capsys, "classify", Z6)
        assert code == 2
        assert json.loads(err)["error"] == "order-cap"


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "starorder", "classify", Z6],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["label"] == "Z6"
