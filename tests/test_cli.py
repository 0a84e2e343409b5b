import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweedler import cli, renorm
from sweedler.specs import ValidationReport

from cli_cases import (
    CASES,
    CHAR_EDGE,
    CHAR_GROUPLIKE,
    CHAR_VERTEX,
    GOLDEN_DIR,
    GRAPH_EDGE,
    GRAPH_MERGER,
    POSET,
    QUIVER,
    WORD1,
    run_cli,
)


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


def test_word_universe_is_closed_under_the_coproduct():
    # the right flanks of words are products of empty words, which the open
    # universe does not hold
    code, out = run_cli(["structure", "--words", "a,b", "--truncation", "2"])
    assert code == 0
    assert out.endswith(b"pathlike: yes\n")


def test_exit_code_math_obstruction():
    code, _ = run_cli(["antipode", "--bialgebra", "trees", "--truncation", "3"])
    assert code == 1


def _failing_report(*args, **kwargs):
    report = ValidationReport("forced")
    report.checked = 1
    report.fail("k", "forced failure")
    return report


@pytest.mark.parametrize("validator,argv", [
    ("validate_coideal", ["quotient", "--kind", "normalized", "--bialgebra", "trees",
                          "--truncation", "3"]),
    ("validate_coaction", ["coaction", "--bialgebra", "trees", "--truncation", "3"]),
])
def test_failed_report_exits_1(validator, argv, monkeypatch):
    # the table is still printed after the FAIL report, and the exit is 1
    monkeypatch.setattr(cli, validator, _failing_report)
    code, out = run_cli(argv)
    assert code == 1
    lines = out.decode().splitlines()
    assert lines[0] == "forced: FAIL (1 checks)" and len(lines) > 2


def test_failed_birkhoff_factorization_exits_1(monkeypatch):
    # a recomposition that never equals phi makes the factorization check fail
    monkeypatch.setattr(renorm, "convolve", lambda f, g, name: (lambda k: None))
    code, out, err = _run_cli_stderr(["birkhoff", "--bialgebra", "trees",
                                      "--character", CHAR_VERTEX, "--truncation", "3"])
    assert code == 1 and out == b""
    assert err.startswith("mathematical obstruction: factorization verification failed")


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
    ["filtration", "--words", "a,b", "--truncation", "-3"],
    ["check", "--suite", "rb", "--seed", "-1"],
])
def test_negative_integer_options_are_input_errors(argv):
    code, out, err = _run_cli_stderr(argv)
    assert code == 2
    assert out == b""
    assert err.startswith("error: --") and err.count("\n") == 1


_SEEDLESS = ["coproduct", "antipode", "inverse", "birkhoff", "qdeform", "coaction",
             "filtration", "structure"]


@pytest.mark.parametrize("argv,accepted", [([command, "--seed", "1"], False)
                                           for command in _SEEDLESS] + [
    (["check", "--mode", "planar"], False),
    (["check", "--seed", "1"], True),
    (["quotient", "--kind", "normalized", "--seed", "1"], True),
    (["coproduct", "--tree", "v(.)", "--truncation", "1"], False),
])
def test_each_command_takes_only_the_options_it_reads(argv, accepted):
    # only check and quotient draw samples, check builds symmetric trees,
    # and coproduct builds no universe to truncate
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            seed = cli.build_parser().parse_args(argv).seed
        except SystemExit as exc:
            seed = f"exit {exc.code}"
    assert (seed, out.getvalue()) == (1 if accepted else "exit 2", "")


def test_repeated_word_letter_is_input_error():
    code, out, err = _run_cli_stderr(["filtration", "--words", "a,a", "--truncation", "2"])
    assert (code, out) == (2, b"")
    assert err == "error: duplicate letter 'a'\n"


@pytest.mark.parametrize("interval", ["1,0", "0,2", "x,1"])
def test_poset_non_interval_is_input_error(interval):
    poset = json.dumps({"elements": ["0", "1"], "covers": [["0", "1"]]})
    code, out, err = _run_cli_stderr(["coproduct", "--poset", poset,
                                      "--interval", interval])
    assert code == 2
    assert out == b""
    assert "not an interval" in err and err.count("\n") == 1


def test_antipode_key_that_names_no_key_is_input_error():
    argv = ["antipode", "--bialgebra", "double-z2", "--truncation", "2"]
    code, out, err = _run_cli_stderr(argv + ["--key", "nonesuch"])
    assert (code, out) == (2, b"")
    assert err == "error: --key 'nonesuch' names no key of the table (degree <= 2)\n"
    code, out, _ = _run_cli_stderr(argv + ["--key", "<e,r1>"])
    assert (code, out) == (0, b"S(<e,r1>) = 1*<e,r1>\n")


@pytest.mark.parametrize("path,pair", [("e.e", "e and e"), ("e.f.f", "f and f"),
                                       ("f.e.e", "e and e")])
def test_quiver_path_whose_edges_do_not_compose_is_input_error(path, pair):
    quiver = json.dumps({"vertices": ["a", "b"],
                         "edges": [{"name": "e", "src": "a", "tgt": "b"},
                                   {"name": "f", "src": "b", "tgt": "a"}]})
    code, out, err = _run_cli_stderr(["coproduct", "--quiver", quiver, "--path", path])
    assert (code, out) == (2, b"")
    assert err.startswith(f"error: edges {pair} of {path!r} do not compose: ")
    assert err.count("\n") == 1
    code, out, _ = _run_cli_stderr(["coproduct", "--quiver", quiver, "--path", "e.f.e"])
    assert (code, out) == (0, b"delta(e.f.e) = 1*a(x)e.f.e + 1*e(x)f.e + 1*e.f(x)e + 1*e.f.e(x)b\n")


@pytest.mark.parametrize("path", ["e1..e2", ".e1", "e1."])
def test_quiver_path_with_an_empty_edge_name_is_unknown(path):
    # an empty name between, before or after the dots is not an edge
    code, out, err = _run_cli_stderr(["coproduct", "--quiver", QUIVER, "--path", path])
    assert (code, out) == (2, b"")
    assert err == f"error: unknown path literal {path!r}\n"


def test_path_coproduct_builds_no_path_universe(monkeypatch):
    # a path's coproduct needs only the quiver's edge map
    def no_universe(quiver, max_length):
        raise RuntimeError("the path universe was built")

    monkeypatch.setattr(cli, "build_path_coalgebra", no_universe)
    for name in ("coproduct-path", "coproduct-vertex"):
        code, out = run_cli(dict(CASES)[name])
        assert (code, out) == (0, (GOLDEN_DIR / f"{name}.txt").read_bytes())


@pytest.mark.parametrize("argv,message", [
    (["antipode", "--quotient", "normalized", "--truncation", "2", "--laurent"],
     "error: --laurent needs --qdeform"),
    (["coproduct", "--tree", "v(.)", "--nonconnected"], "error: --nonconnected needs --graph"),
    (["coproduct", "--tree", "v(.)", "--path", "e1"], "error: --path needs --quiver"),
    (["coproduct", "--tree", "v(.)", "--interval", "0,1"], "error: --interval needs --poset"),
    (["coproduct", "--tree", "v(.)", "--poset", "x"],
     "error: argument --poset: not allowed with argument --tree"),
    (["filtration", "--bialgebra", "trees", "--words", "a,b"],
     "error: argument --words: not allowed with argument --bialgebra"),
    (["structure", "--quiver", QUIVER, "--poset", POSET],
     "error: argument --poset: not allowed with argument --quiver"),
    (["coproduct"], "error: one of the arguments --tree --graph --word --quiver --poset "
                    "is required"),
], ids=["laurent-without-qdeform", "nonconnected-without-graph", "path-without-quiver",
        "interval-without-poset", "tree-and-poset", "bialgebra-and-words",
        "quiver-and-poset", "no-source"])
def test_options_that_would_be_ignored_are_input_errors(argv, message):
    # an option the command would not read exits 2 and names it
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: with usage
            code = exc.code
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue().splitlines()[-1].endswith(message)
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["coproduct", "--tree", "v(" * 400 + "." + ")" * 400],
    ["coproduct", "--quiver", '{"a":' * 100_000 + "1" + "}" * 100_000],
], ids=["tree-400-deep", "json-100000-deep"])
def test_deep_inputs_are_input_errors(argv):
    code, out, err = _run_cli_stderr(argv)
    assert code == 2
    assert out == b""
    assert err.startswith("error: ") and err.count("\n") == 1


_TWO_COROLLAS = '{"corollas":[{"name":"u","flags":["a","b"]},{"name":"v","flags":["c","d"]}]'
# fields that must be JSON arrays, given as strings: a string once iterated
# as its letters, so "01" read as the cover 0 < 1 and "uv" as a merge of u, v
_STRING_FIELDS = {
    "cover-string": (["structure", "--poset",
                      '{"elements":["0","1","2"],"covers":["01","12"]}'], "cover"),
    "covers-string": (["structure", "--poset",
                       '{"elements":["0","1","2"],"covers":"01"}'], "covers"),
    "merge-group-string": (["coproduct", "--graph", _TWO_COROLLAS + ',"merge":["uv"]}',
                            "--nonconnected"], "merge group"),
    "merge-string": (["coproduct", "--graph", _TWO_COROLLAS + ',"merge":"uv"}',
                      "--nonconnected"], "merge"),
    "edges-string": (["coproduct", "--graph", _TWO_COROLLAS + ',"edges":""}',
                      "--nonconnected"], "edges"),
}


@pytest.mark.parametrize("argv", [
    ["inverse", "--character", '{"rules":5}'],
    ["inverse", "--character", '{"rules":{"vertex":5}}'],
    ["structure", "--poset", '{"elements":["0"],"covers":[["0"]]}'],
    ["coproduct", "--poset", '{"elements":["0","1"],"covers":[["0","1","2"]]}',
     "--interval", "0,1"],
    ["coproduct", "--word", '{"left":"a","letters":"bc","right":5}'],
    ["structure", "--poset", '{"elements":[1,"1"],"covers":[]}'],
    ["structure", "--poset", '{"elements":[null],"covers":[]}'],
    ["structure", "--poset", '{"elements":[1.5],"covers":[]}'],
    ["structure", "--poset", '{"elements":"01","covers":[]}'],
    ["coproduct", "--word", '{"left":"a","letters":"bc","right":"d"}'],
    ["structure", "--quiver", '{"vertices":"uv","edges":[]}'],
    ["coproduct", "--graph", '{"corollas":[{"name":"u","flags":"xy"}]}'],
    ["inverse", "--character", '{"rules":{"vertex":"1/0"}}'],
    ["inverse", "--bialgebra", "trees", "--truncation", "2",
     "--character", '{"rules":{"vertex":"z^-1","grouplke":"z"}}'],
    ["inverse", "--bialgebra", "graphs", "--truncation", "2",
     "--character", '{"rules":{"vertex":"z^-1","edge":"z"}}'],
    ["inverse", "--bialgebra", "trees", "--truncation", "2",
     "--character", '{"rules":{"vertex":"z^-1","loop":"z"}}'],
    ["inverse", "--bialgebra", "double-z3", "--character", '{"rules":{"vertex":"z"}}'],
    ["inverse", "--bialgebra", "double-z3", "--character", '{"rules":{}}'],
    *(argv for argv, _ in _STRING_FIELDS.values()),
], ids=["rules-not-object", "rule-not-string", "cover-singleton",
        "cover-triple", "word-name-not-string", "element-number",
        "element-null", "element-float", "elements-string", "letters-string",
        "vertices-string", "flags-string", "rule-zero-denominator", "rule-unknown-name",
        "rule-uncounted-graphs", "rule-uncounted-trees", "rule-on-uncounting-family",
        "no-rules-on-uncounting-family", *_STRING_FIELDS])
def test_bad_document_fields_are_input_errors(argv):
    code, out, err = _run_cli_stderr(argv)
    assert code == 2
    assert out == b""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("name", sorted(_STRING_FIELDS))
def test_string_fields_are_not_split_into_letters(name):
    argv, field = _STRING_FIELDS[name]
    _, _, err = _run_cli_stderr(argv)
    assert err.startswith(f"error: {field} must be a JSON array, not str")


@pytest.mark.parametrize("command", ["inverse", "birkhoff"])
def test_character_document_is_read_before_the_build(command, monkeypatch):
    # a bad document exits 2 at once, without building the universe first
    def no_build(args):
        raise RuntimeError("the bialgebra was built before the document was read")

    monkeypatch.setattr(cli, "_build_bialgebra", no_build)
    code, out, err = _run_cli_stderr([command, "--bialgebra", "graphs-nc", "--truncation", "4",
                                      "--character", '{"rules":{"grouplke":"z"}}'])
    assert (code, out) == (2, b"")
    assert err.startswith("error: unknown character rule 'grouplke'")


@pytest.mark.parametrize("suite,unknown", [("antipod", "'antipod'"), ("", "''"),
                                           ("coassoc,nonesuch", "'nonesuch'")])
def test_unknown_suite_is_an_input_error(suite, unknown):
    code, out, err = _run_cli_stderr(["check", "--suite", suite])
    assert code == 2 and out == b""
    assert err == (f"error: unknown suite {unknown}; valid suites: all, coassoc, "
                   "bialgebra, antipode, relations, rb, birkhoff\n")


def test_closed_stdout_ends_the_table_quietly():
    # the reader takes one line of a 240 KB table and closes the pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "sweedler.cli", "antipode", "--bialgebra", "trees",
         "--quotient", "normalized", "--truncation", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"S(1) = 1*1\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_closed_stdout_keeps_the_exit_code(monkeypatch):
    # a failed check written into a pipe whose reader is gone still exits 1
    monkeypatch.setattr(cli, "check_rota_baxter", _failing_report)
    read_end, write_end = os.pipe()
    os.close(read_end)
    old, err = sys.stdout, io.StringIO()
    sys.stdout = io.TextIOWrapper(io.FileIO(write_end, "w"))
    try:
        with redirect_stderr(err):
            code = cli.main(["check", "--suite", "rb"])
    finally:
        sys.stdout.close()
        sys.stdout = old
    assert code == 1 and err.getvalue() == ""


@pytest.mark.parametrize("doc,kind", [("[1]", "an array"), ('"x"', "a string"),
                                      ("3", "a number")])
@pytest.mark.parametrize("where", ["inline", "file"])
@pytest.mark.parametrize("option", [["inverse", "--character"], ["structure", "--quiver"]])
def test_document_that_is_not_an_object(doc, kind, where, option, tmp_path):
    # the message names the JSON type, whether the text is inline or in a file
    if where == "file":
        path = tmp_path / "doc.json"
        path.write_text(doc, encoding="utf-8")
        doc = str(path)
    code, out, err = _run_cli_stderr([*option, doc])
    assert code == 2
    assert out == b""
    assert err == f"error: the document is {kind}, not a JSON object\n"


def test_document_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = _run_cli_stderr(["structure", "--quiver", str(path)])
    assert code == 2
    assert out == b""
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


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
    from sweedler.linear import TensorSum

    monkeypatch.setattr(cli, "tree_coproduct",
                        lambda key: TensorSum.pure(key, key, 0.5))
    code, out, err = _run_cli_stderr(["coproduct", "--tree", "v(.)"])
    assert code == 3
    assert out == b""
    assert err == "internal error: TypeError: floating-point coefficient 0.5\n"


@pytest.mark.parametrize("name", ["coproduct-ladder", "coproduct-json"])
def test_stdout_without_buffer_gets_the_golden_text(name):
    # a text stream with no .buffer (redirect_stdout to a StringIO) gets
    # the same text the golden file holds
    from sweedler.cli import main

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(dict(CASES)[name])
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == (GOLDEN_DIR / f"{name}.txt").read_text("utf-8")


def test_grouplike_gate_exit_code():
    bad = json.dumps({"rules": {"vertex": "z^-1", "grouplike": "1+z"}})
    code, _ = run_cli(["inverse", "--bialgebra", "trees", "--character", bad,
                       "--truncation", "3"])
    assert code == 1


def test_obstruction_in_the_last_value_prints_nothing(monkeypatch):
    # text output streams, but only after every value it prints is computed
    import sweedler.cli
    from sweedler.errors import MathError

    real = sweedler.cli.antipode

    def failing_last(B):
        S = real(B, validate=False)
        last = [k for k in B.keys if B.grading(k) <= 3][-1]
        fn = S._memo.fn

        def evaluate(key):
            if key is last:
                raise MathError(f"no value at {key}")
            return fn(key)

        S._memo.fn = evaluate
        return S

    monkeypatch.setattr(sweedler.cli, "antipode", failing_last)
    code, out, err = _run_cli_stderr(["antipode", "--bialgebra", "trees", "--quotient",
                                      "normalized", "--truncation", "3"])
    assert code == 1
    assert out == b""
    assert err.startswith("mathematical obstruction: no value at ")


_CLI_PEAK_CHILD = """
import os, sys, tracemalloc
tracemalloc.start()
from sweedler import cli
out, sys.stdout = sys.stdout, open(os.devnull, "w")
code = cli.main(["antipode", "--bialgebra", "trees", "--quotient", "normalized",
                 "--truncation", "5"])
out.write(f"{code} {tracemalloc.get_traced_memory()[1]}\\n")
"""


def test_antipode_table_peak_memory():
    # the quotient keeps no second copy of the parent's coproducts and
    # products, and the text is written line by line: 7.0 MiB traced, where
    # memoising both specs and joining the whole output took 9.1 MiB
    proc = subprocess.run([sys.executable, "-c", _CLI_PEAK_CHILD], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    code, peak = map(int, proc.stdout.split())
    assert code == 0
    assert peak < 8 * 2 ** 20


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sweedler.cli", "coproduct", "--tree", "v(.)"],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN_DIR / "entry-point.txt").read_bytes()


# ---------------------------------------------------------------------------
# The exit contract under fuzzing

_FIELDS = ("vertices", "edges", "name", "src", "tgt", "elements", "covers",
           "corollas", "flags", "merge", "left", "letters", "right", "rules",
           "vertex", "edge", "grouplike")
_atoms = (st.none() | st.booleans() | st.integers(-3, 3)
          | st.floats(allow_nan=False, allow_infinity=False)
          | st.text(alphabet="abuv.z^-1+", max_size=4))
_docs = st.recursive(
    _atoms,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=10,
)
# documents are valid ones, JSON objects, lists, scalars, or text that is
# not JSON at all
_doc_text = (st.sampled_from([QUIVER, POSET, GRAPH_EDGE, GRAPH_MERGER, WORD1,
                              CHAR_VERTEX, CHAR_GROUPLIKE, CHAR_EDGE])
             | st.dictionaries(st.sampled_from(_FIELDS), _docs, max_size=4).map(json.dumps)
             | _docs.map(json.dumps) | st.text(alphabet="{}[]\":,ab1 ", max_size=8))
_literal = st.text(alphabet="v().,|1ab ", max_size=10)
_small = st.integers(-1, 2).map(str)
_bialgebra = st.sampled_from(["trees", "graphs", "graphs-nc", "double-z2", "double-z3",
                              "nonesuch"])
_quotient = st.sampled_from(["normalized", "commutator", "central", "nonesuch"])
_common = {"--format": st.sampled_from(["text", "json"])}
_mode = {"--mode": st.sampled_from(["planar", "symmetric"])}
_truncation = {"--truncation": _small}
_bialgebra_options = {"--bialgebra": _bialgebra, **_truncation, **_mode}
_universe = {"--bialgebra": _bialgebra, "--quiver": _doc_text, "--poset": _doc_text,
             "--words": _literal, **_truncation, **_mode}
# the options each subcommand's parser takes besides _common; every one but
# coproduct reads a truncation
_OPTIONS = {
    "coproduct": {"--tree": _literal, "--graph": _doc_text, "--nonconnected": None,
                  "--word": _doc_text, "--quiver": _doc_text, "--path": _literal,
                  "--poset": _doc_text, "--interval": _literal, **_mode},
    "antipode": {"--quotient": _quotient, "--qdeform": None, "--laurent": None,
                 "--key": _literal, **_bialgebra_options},
    "inverse": {"--character": _doc_text, "--quotient": _quotient, **_bialgebra_options},
    "birkhoff": {"--character": _doc_text, **_bialgebra_options},
    "quotient": {"--kind": _quotient, "--seed": _small, **_bialgebra_options},
    "qdeform": {"--laurent": None, **_bialgebra_options},
    "coaction": _bialgebra_options,
    "filtration": _universe,
    "structure": _universe,
    "check": {"--suite": st.sampled_from(["coassoc", "rb", "nonesuch", ""]), "--seed": _small,
              **_truncation},
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = {**_OPTIONS[command], **_common}
    flags = draw(st.lists(st.sampled_from(sorted(options)), max_size=4, unique=True))
    # a missing --character or --suite leaves only argparse to answer, and
    # the default truncation of 4 makes some universes take seconds
    for flag in ("--character", "--suite", "--truncation"):
        if flag in options and flag not in flags:
            flags.append(flag)
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(options[flag]))
    if draw(st.integers(0, 3)) == 3:  # a stray token: an unknown option or a word
        argv.insert(draw(st.integers(1, len(argv))), draw(_literal | st.just("--bogus")))
    return argv


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_argvs())
def test_exit_contract_under_fuzzing(argv):
    # 0 success, 1 only with a MathError line, 2 bad input; never 3, the
    # internal-error catch-all, and no traceback, whatever the arguments and
    # documents
    err = io.StringIO()
    try:
        code, _ = run_cli(argv, stderr=err)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    text = err.getvalue()
    assert code in (0, 1, 2)
    if code == 1:
        assert text.startswith("mathematical obstruction: ")
    assert "Traceback" not in text
