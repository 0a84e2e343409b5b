"""Shared CLI case table: inputs and runner used by the golden tests."""

import io
import json
import sys
from contextlib import redirect_stderr
from pathlib import Path

from sweedler.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

QUIVER = json.dumps({
    "vertices": ["a", "b"],
    "edges": [
        {"name": "e1", "src": "a", "tgt": "b"},
        {"name": "e2", "src": "b", "tgt": "a"},
    ],
})
POSET = json.dumps({
    "elements": ["0", "1", "2"],
    "covers": [["0", "1"], ["1", "2"]],
})
GRAPH_EDGE = json.dumps({
    "corollas": [
        {"name": "u", "flags": ["a", "b"]},
        {"name": "v", "flags": ["c", "d"]},
    ],
    "edges": [["u.a", "v.c"]],
})
GRAPH_MERGER = json.dumps({
    "corollas": [
        {"name": "u", "flags": ["a", "b"]},
        {"name": "v", "flags": ["c"]},
    ],
    "edges": [],
    "merge": [["u", "v"]],
})
WORD1 = json.dumps({"left": "a", "letters": ["b"], "right": "c"})
WORD2 = json.dumps({"left": "a", "letters": ["b", "c"], "right": "a"})
CHAR_VERTEX = json.dumps({"rules": {"vertex": "z^-1"}})
CHAR_GROUPLIKE = json.dumps({"rules": {"vertex": "z^-1", "grouplike": "z"}})
CHAR_EDGE = json.dumps({"rules": {"edge": "z^-1"}})

CASES = [
    ("coproduct-ladder", ["coproduct", "--tree", "v(v(.))"]),
    ("coproduct-cherry", ["coproduct", "--tree", "v(v(.)v(.))"]),
    ("coproduct-planar", ["coproduct", "--tree", "v(v(.).)", "--mode", "planar"]),
    ("coproduct-forest", ["coproduct", "--tree", "v(.),|"]),
    ("coproduct-word1", ["coproduct", "--word", WORD1]),
    ("coproduct-word2", ["coproduct", "--word", WORD2]),
    ("coproduct-path", ["coproduct", "--quiver", QUIVER, "--path", "e1.e2"]),
    ("coproduct-vertex", ["coproduct", "--quiver", QUIVER, "--path", "a"]),
    ("coproduct-interval", ["coproduct", "--poset", POSET, "--interval", "0,2"]),
    ("coproduct-graph-edge", ["coproduct", "--graph", GRAPH_EDGE]),
    ("coproduct-graph-merger",
     ["coproduct", "--graph", GRAPH_MERGER, "--nonconnected"]),
    ("antipode-trees",
     ["antipode", "--bialgebra", "trees", "--quotient", "normalized",
      "--truncation", "3"]),
    ("antipode-double-z3", ["antipode", "--bialgebra", "double-z3"]),
    ("antipode-qdeform",
     ["antipode", "--bialgebra", "trees", "--qdeform", "--laurent",
      "--truncation", "2"]),
    ("inverse-character",
     ["inverse", "--bialgebra", "trees", "--character", CHAR_GROUPLIKE,
      "--truncation", "3"]),
    ("birkhoff-trees",
     ["birkhoff", "--bialgebra", "trees", "--character", CHAR_VERTEX,
      "--truncation", "4"]),
    ("birkhoff-graphs",
     ["birkhoff", "--bialgebra", "graphs", "--character", CHAR_EDGE,
      "--truncation", "3"]),
    ("quotient-normalized",
     ["quotient", "--kind", "normalized", "--bialgebra", "trees",
      "--truncation", "3"]),
    ("quotient-commutator",
     ["quotient", "--kind", "commutator", "--bialgebra", "trees",
      "--mode", "planar", "--truncation", "3"]),
    ("qdeform-map", ["qdeform", "--bialgebra", "trees", "--truncation", "3"]),
    ("coaction-table", ["coaction", "--bialgebra", "trees", "--truncation", "3"]),
    ("filtration-quiver",
     ["filtration", "--quiver", QUIVER, "--truncation", "4"]),
    ("filtration-trees",
     ["filtration", "--bialgebra", "trees", "--truncation", "3"]),
    ("filtration-words",
     ["filtration", "--words", "a,b", "--truncation", "3"]),
    ("structure-quiver", ["structure", "--quiver", QUIVER, "--truncation", "3"]),
    ("structure-poset", ["structure", "--poset", POSET]),
    ("coproduct-json",
     ["coproduct", "--tree", "v(v(.))", "--format", "json"]),
    ("check-small", ["check", "--suite", "coassoc,rb", "--truncation", "3"]),
    ("check-all", ["check", "--suite", "all", "--truncation", "3"]),
]


def run_cli(argv, stderr=None):
    """Run the CLI in-process, returning (exit code, stdout bytes).

    Standard error goes to ``stderr`` when given, and is discarded otherwise.
    """
    buffer = io.BytesIO()

    class FakeStdout:
        def __init__(self):
            self.buffer = buffer

    old = sys.stdout
    sys.stdout = FakeStdout()
    try:
        with redirect_stderr(io.StringIO() if stderr is None else stderr):
            code = main(argv)
    finally:
        sys.stdout = old
    return code, buffer.getvalue()


