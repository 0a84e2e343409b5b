import io
import json
import os
import subprocess
import sys

import pytest

from cli_cases import CASES, CHAR_VERTEX, GOLDEN_DIR, run_cli


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_golden(name, argv):
    code, out = run_cli(argv)
    assert code == 0
    golden = GOLDEN_DIR / f"{name}.txt"
    if os.environ.get("SWEEDLER_REGEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        golden.write_bytes(out)
    expected = golden.read_bytes()
    assert out == expected
    # determinism: a second run produces identical bytes
    code2, out2 = run_cli(argv)
    assert code2 == 0 and out2 == out


def test_exit_code_math_obstruction():
    code, _ = run_cli(["antipode", "--bialgebra", "trees", "--truncation", "3"])
    assert code == 1


def test_exit_code_input_error():
    code, _ = run_cli(["coproduct", "--tree", "v()"])
    assert code == 2
    code, _ = run_cli(["coproduct", "--word", "{bad json"])
    assert code == 2
    code, _ = run_cli(["inverse", "--bialgebra", "nonesuch",
                       "--character", CHAR_VERTEX])
    assert code == 2


def _run_cli_stderr(argv):
    err = io.StringIO()
    code, out = run_cli(argv, stderr=err)
    return code, out, err.getvalue()


@pytest.mark.parametrize("argv", [
    ["antipode", "--truncation", "-1"],
    ["coproduct", "--tree", "v(.)", "--truncation", "-3"],
    ["check", "--suite", "rb", "--seed", "-1"],
])
def test_negative_integer_options_are_input_errors(argv):
    code, out, err = _run_cli_stderr(argv)
    assert code == 2
    assert out == b""
    assert err.startswith("error: --") and err.count("\n") == 1


@pytest.mark.parametrize("interval", ["1,0", "0,2", "x,1"])
def test_poset_non_interval_is_input_error(interval):
    poset = json.dumps({"elements": ["0", "1"], "covers": [["0", "1"]]})
    code, out, err = _run_cli_stderr(["coproduct", "--poset", poset,
                                      "--interval", interval])
    assert code == 2
    assert out == b""
    assert "not an interval" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["coproduct", "--tree", "v(" * 400 + "." + ")" * 400],
    ["coproduct", "--quiver", '{"a":' * 100_000 + "1" + "}" * 100_000],
], ids=["tree-400-deep", "json-100000-deep"])
def test_deep_inputs_are_input_errors(argv):
    code, out, err = _run_cli_stderr(argv)
    assert code == 2
    assert out == b""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["inverse", "--character", '{"rules":5}'],
    ["inverse", "--character", '{"rules":{"vertex":5}}'],
    ["structure", "--poset", '{"elements":["0"],"covers":[["0"]]}'],
    ["coproduct", "--poset", '{"elements":["0","1"],"covers":[["0","1","2"]]}',
     "--interval", "0,1"],
    ["coproduct", "--word", '{"left":"a","letters":"bc","right":5}'],
], ids=["rules-not-object", "rule-not-string", "cover-singleton",
        "cover-triple", "word-name-not-string"])
def test_bad_document_fields_are_input_errors(argv):
    code, out, err = _run_cli_stderr(argv)
    assert code == 2
    assert out == b""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_long_poset_cycle_is_an_input_error():
    # a 1,200-element cover cycle, deeper than the Python stack
    n = 1200
    doc = json.dumps({"elements": [str(i) for i in range(n)],
                      "covers": [[str(i), str((i + 1) % n)] for i in range(n)]})
    proc = subprocess.run(
        [sys.executable, "-m", "sweedler.cli", "structure", "--poset", doc],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_internal_error_exits_3_without_traceback(monkeypatch):
    import sweedler.cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(sweedler.cli, "_cmd_coproduct", broken)
    code, out, err = _run_cli_stderr(["coproduct", "--tree", "v(.)"])
    assert code == 3
    assert out == b""
    assert err == "internal error: RuntimeError: boom\n"
    assert "Traceback" not in err


def test_float_coefficient_exits_3(monkeypatch):
    import sweedler.trees
    from sweedler.linear import TensorSum

    monkeypatch.setattr(sweedler.trees, "tree_coproduct",
                        lambda key: TensorSum.pure(key, key, 0.5))
    code, out, err = _run_cli_stderr(["coproduct", "--tree", "v(.)"])
    assert code == 3
    assert out == b""
    assert err == "internal error: TypeError: floating-point coefficient 0.5\n"


def test_grouplike_gate_exit_code():
    bad = json.dumps({"rules": {"vertex": "z^-1", "grouplike": "1+z"}})
    code, _ = run_cli(["inverse", "--bialgebra", "trees", "--character", bad,
                       "--truncation", "3"])
    assert code == 1


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sweedler.cli", "coproduct", "--tree", "v(.)"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN_DIR / "entry-point.txt").read_bytes()
