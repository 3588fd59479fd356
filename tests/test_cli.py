import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from starorder import DEFAULT_ORDER_CAP, cli, theorems
from starorder.cli import EXIT_BROKEN_PIPE, main
from starorder.errors import VerificationError

Z6 = '{"type":"modular","n":6}'
Z4 = '{"type":"modular","n":4}'
# Z2 x Z2 with the swap involution: a partial order, not p.q.-Baer *.
SWAP = json.dumps(
    {
        "type": "table",
        "order": 4,
        "add": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
        "mul": [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
        "star": [0, 2, 1, 3],
        "zero": 0,
        "one": 3,
    }
)
# M2(Z2) x Z2: noncommutative and p.q.-Baer *, so its order is certified.
M2Z2XZ2 = json.dumps(
    {
        "type": "product",
        "parts": [
            {"type": "matrix", "base": {"type": "modular", "n": 2}, "k": 2},
            {"type": "modular", "n": 2},
        ],
    }
)

GOLDEN = Path(__file__).parent / "golden" / "z6.dot"
FUZZ_GOLDEN = Path(__file__).parent / "golden" / "fuzz_seed7.json"


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

    @pytest.mark.parametrize("nest", ["product", "matrix"])
    @pytest.mark.parametrize("field", ["add", "mul", "star"])
    def test_list_entry_in_a_nested_table_exits_2(self, capsys, field, nest):
        # A list entry makes the part spec unhashable; it must still be
        # refused as a ring spec, not crash the parts memo.
        table = {
            "type": "table",
            "order": 1,
            "add": [[0]],
            "mul": [[0]],
            "star": [0],
            "zero": 0,
            "one": 0,
        }
        if field == "star":
            table["star"] = [[0]]
        else:
            table[field] = [[[0]]]
        spec = (
            {"type": "product", "parts": [table]}
            if nest == "product"
            else {"type": "matrix", "base": table, "k": 2}
        )
        code, out, err = run(capsys, "classify", json.dumps(spec))
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "ring-spec",
            "detail": f"table spec field {field!r} entries must be integers",
        }

    @pytest.mark.parametrize("value", [10**23, -(10**23), 2**32 + 1])
    @pytest.mark.parametrize("field", ["add", "mul", "star"])
    def test_oversized_table_entry_exits_2(self, capsys, field, value):
        # Beyond int64 the entry cannot even be stored, so it is out of range;
        # 2^32 + 1 is out of range too, though an int32 cast would wrap it to 1.
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
            "detail": f"table2: {field} table entry out of range",
        }

    @pytest.mark.parametrize("huge", ["add", "mul"])
    def test_out_of_range_tables_reported_in_order(self, capsys, huge):
        # add holds 5 at n = 2 or an entry beyond int64, and mul holds the
        # other kind: add is reported first either way.
        add, mul = [[0, 1], [1, 5]], [[0, 0], [0, 5]]
        (add if huge == "add" else mul)[1][1] = 10**23
        spec = {
            "type": "table",
            "order": 2,
            "add": add,
            "mul": mul,
            "star": [0, 1],
            "zero": 0,
            "one": 1,
        }
        code, out, err = run(capsys, "classify", json.dumps(spec))
        assert (code, out) == (2, "")
        assert json.loads(err)["detail"] == "table2: add table entry out of range"

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

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "ring.json"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "spec-source"

    def test_unreadable_file_exits_2(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "ring.json"
        path.write_text(Z6)

        def refuse(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refuse)
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
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


class TestGoldenOutput:
    # The bytes and exit code of `order`, `segment` and `hasse`, as recorded
    # under tests/golden/. Z6 and M2(Z2) x Z2 take the cover certificate;
    # the swap ring does not, and its pair tables certify no segment, so
    # its segments take the full scan; Z4 is not a partial order.
    @pytest.mark.parametrize(
        "golden, argv, code",
        [
            ("z6.order.json", ("order", Z6), 0),
            ("z6.segment-3.json", ("segment", Z6, "--top", "3"), 0),
            ("z6.segment-5.json", ("segment", Z6, "--top", "5"), 0),
            ("swap.order.json", ("order", SWAP), 0),
            ("swap.segment-1.json", ("segment", SWAP, "--top", "1"), 0),
            ("swap.segment-2.json", ("segment", SWAP, "--top", "2"), 0),
            ("swap.segment-3.json", ("segment", SWAP, "--top", "3"), 0),
            ("swap.dot", ("hasse", SWAP), 0),
            ("z4.segment-2.json", ("segment", Z4, "--top", "2"), 1),
            ("m2z2xz2.order.json", ("order", M2Z2XZ2), 0),
        ],
    )
    def test_matches_golden(self, capsys, golden, argv, code):
        got, out, _ = run(capsys, *argv)
        assert (got, out) == (code, (GOLDEN.parent / golden).read_text())


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

    def test_unknown_theorem_exits_2(self, capsys, monkeypatch):
        # A usage error, refused before the spec is read: no ring is built.
        def refuse(*args):
            raise AssertionError("realize ran")

        monkeypatch.setattr(cli, "realize", refuse)
        code, _, err = run(capsys, "verify", Z6, "--suite", "bogus")
        assert code == 2
        assert json.loads(err)["error"] == "usage"

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

        registry = dict(theorems._REGISTRY)
        registry["meet-join"] = (registry["meet-join"][0], broken, False)
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

    def test_golden_report(self, capsys):
        # All four families with random tables: a change to the RNG draws,
        # to a candidate or to a verdict changes these bytes. 56 of the 300
        # rings fail a theorem off its hypothesis, so the exit code is 1.
        code, out, _ = run(
            capsys, "fuzz", "--seed", "7", "--max-order", "16",
            "--families", "matrix,modular,product,random-table", "--budget", "300",
        )
        assert code == 1
        assert out == FUZZ_GOLDEN.read_text()

    def test_random_table_requires_budget(self, capsys):
        code, _, err = run(capsys, "fuzz", "--families", "random-table")
        assert code == 2
        assert json.loads(err)["error"] == "fuzz-budget"

    def test_max_order_above_cap_refused_before_enumerating(self, capsys):
        # Without --budget the structural members are counted first; above
        # the cap that count took 20 s at 50 000 and ran out of memory at 10^6.
        refusal = {
            "error": "ring-spec",
            "detail": "fuzz max_order 1000000 exceeds the order cap 4096",
        }
        proc = subprocess.run(
            [sys.executable, "-m", "starorder", "fuzz", "--max-order", "1000000"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert json.loads(proc.stderr) == refusal
        code, out, err = run(capsys, "fuzz", "--max-order", "1000000", "--budget", "1")
        assert (code, out, json.loads(err)) == (2, "", refusal)

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

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "z6.dot"
        code, out, err = run(capsys, "hasse", Z6, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert json.loads(err)["error"] == "output"

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

    def test_cap_above_ceiling_refused(self, capsys, monkeypatch):
        # The variable can only lower the default cap. Refused before
        # anything is built, so a tiny ring shows it.
        assert DEFAULT_ORDER_CAP == 4096
        monkeypatch.setenv("STARORDER_ORDER_CAP", str(DEFAULT_ORDER_CAP + 1))
        code, out, err = run(capsys, "classify", Z6)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "order-cap"
        monkeypatch.setenv("STARORDER_ORDER_CAP", str(DEFAULT_ORDER_CAP))
        assert run(capsys, "classify", Z6)[0] == 0

    def test_bad_cap_value(self, capsys, monkeypatch):
        monkeypatch.setenv("STARORDER_ORDER_CAP", "many")
        code, _, err = run(capsys, "classify", Z6)
        assert code == 2
        assert json.loads(err)["error"] == "order-cap"


@pytest.mark.parametrize(
    "argv",
    [["segment", Z6], ["fuzz", "--max-order", "x"], ["bogus"]],
    ids=["segment-without-top", "non-integer-option", "unknown-command"],
)
def test_usage_error_is_one_json_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "usage"


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: starorder")


def test_matrix_over_zero_ring_hits_the_cap_at_once():
    # Each of the k*k cells multiplied the order by 1, so no count of cells
    # reached the cap; k = 300 ran for minutes.
    spec = '{"type":"matrix","base":{"type":"modular","n":1},"k":300}'
    proc = subprocess.run(
        [sys.executable, "-m", "starorder", "classify", spec],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr)["error"] == "order-cap"


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "starorder", "classify", Z6],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["label"] == "Z6"


@pytest.mark.parametrize("unbuffered", [False, True])
def test_reader_closing_early_is_not_a_failed_check(unbuffered):
    # The read end closes before the child has imported numpy, so its output
    # meets a broken pipe: at the first write when stdout is unbuffered, at
    # the final flush when it is buffered.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "starorder", "classify", Z6],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE != 1
    assert err == b""
