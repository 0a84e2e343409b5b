"""Command-line front end.

Subcommands parse structured-text inputs (JSON documents or the tree/path
literals), dispatch to the engines, and print canonical renderings: terms
sorted by key encoding, byte-identical across runs.  Exit codes: 0 success,
1 mathematical obstruction (e.g. a grouplike without an inverse) or a failed
re-validation report, 2 input or configuration error, 3 internal error (a
bug: one line, never a traceback).

Text output is written line by line as it is rendered.  A subcommand
computes every value it prints before the first byte goes out (the values
are memoised, so rendering reads them back), so an obstruction exits with
nothing on stdout.  ``--format json`` builds its one document in full.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import json
import os
import sys

from .constructions import (
    abelianized_quotient,
    brown_coaction,
    normalized_quotient,
    q_deform,
    split_q_key,
    validate_coaction,
    validate_coideal,
)
from .errors import InputError, MathError, SweedlerError, json_array
from .gallery import (
    Poset,
    Quiver,
    _check_name,
    build_drinfeld_double,
    build_incidence_coalgebra,
    build_path_coalgebra,
    build_word_coalgebra,
    cyclic_group,
    goncharov_coproduct,
    interval_key,
    path_coproduct,
    path_key,
    symmetric_group_3,
    vertex_key,
    word_key,
)
from .graphs import (
    GraphMorphism,
    build_graph_bialgebra,
    check_graph_relations,
    graph_coproduct,
)
from .inversion import antipode, invert_character, validate_antipode
from .renorm import CharacterSpec, birkhoff, check_rota_baxter, pole_part_operator
from .specs import validate_bialgebra, validate_coalgebra
from .structure import analyze_structure, bivariate_filtration, verify_pathlike
from .trees import build_tree_bialgebra, parse_forest, tree_coproduct


_JSON_TYPES = {list: "an array", str: "a string", int: "a number",
               float: "a number", bool: "a boolean", type(None): "null"}


def _parse_doc(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON document: {exc}") from exc
    except RecursionError:
        raise InputError("JSON document nested too deeply") from None


def _load_doc(text: str) -> dict:
    """An inline JSON object, or else the JSON object in the file ``text``."""
    try:
        doc = _parse_doc(text)
    except InputError:
        if text.lstrip().startswith(("{", "[")):
            raise
        try:
            with open(text, "r", encoding="utf-8") as fh:
                doc = _parse_doc(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {text}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"the document is {_JSON_TYPES[type(doc)]}, not a JSON object")
    return doc


def _build_bialgebra(args):
    name = args.bialgebra
    trunc = args.truncation
    mode = "s" if args.mode == "symmetric" else "p"
    if name == "trees":
        return build_tree_bialgebra(trunc, trunc, mode)
    if name == "graphs":
        return build_graph_bialgebra(min(trunc, 4), trunc, max_flags=3, connected=True)
    if name == "graphs-nc":
        return build_graph_bialgebra(min(trunc, 4), trunc, max_flags=3, connected=False)
    if name == "double-z2":
        return build_drinfeld_double(cyclic_group(2))
    if name == "double-z3":
        return build_drinfeld_double(cyclic_group(3))
    if name == "double-s3":
        return build_drinfeld_double(symmetric_group_3())
    raise InputError(f"unknown bialgebra {name!r}")


_QUOTIENTS = ("normalized", "commutator", "central")


def _quotient(B, kind: str):
    """The ``QuotientSpec`` of B named ``kind``, one of ``_QUOTIENTS``."""
    if kind == "normalized":
        return normalized_quotient(B)
    return abelianized_quotient(B, kind)


def _keys(B, degree: int) -> list:
    """B's keys of degree at most ``degree``, in universe order."""
    return [k for k in B.keys if B.grading(k) <= degree]


def _emit(lines, fmt: str):
    """Write ``lines``, an iterable of strings, to stdout.  Text output is
    written one line at a time as it is rendered, so the whole table is
    never held as one string; an empty table is one empty line.  The text
    goes to ``sys.stdout.buffer`` as UTF-8, or through ``sys.stdout`` itself
    when it has no buffer (an ``io.StringIO``, say).  A reader that closes
    the pipe early (``| head``) ends the output quietly: stdout is pointed
    at ``os.devnull``, so the interpreter's final flush has nowhere to fail,
    and the command keeps its exit code."""
    buffer = getattr(sys.stdout, "buffer", None)
    out = sys.stdout if buffer is None else codecs.getwriter("utf-8")(buffer)
    try:
        if fmt == "json":
            out.write(json.dumps({"lines": list(lines)}, indent=2, sort_keys=True) + "\n")
        else:
            empty = True
            for line in lines:
                out.write(f"{line}\n")
                empty = False
            if empty:
                out.write("\n")
        out.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_coproduct(args) -> int:
    for option, source in (("path", "quiver"), ("interval", "poset"), ("nonconnected", "graph")):
        if getattr(args, option) not in (None, False) and getattr(args, source) is None:
            raise InputError(f"--{option} needs --{source}")
    if args.tree is not None:
        key = parse_forest(args.tree, "s" if args.mode == "symmetric" else "p")
        delta = tree_coproduct(key)
    elif args.graph is not None:
        morphism = GraphMorphism.from_doc(_load_doc(args.graph))
        key = morphism.class_key("n" if args.nonconnected else "c")
        delta = graph_coproduct(key)
    elif args.word is not None:
        doc = _load_doc(args.word)
        try:
            left, right = doc["left"], doc["right"]
            letters = tuple(json_array(doc["letters"], "letters"))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad word document: {exc}") from exc
        for name in (left, *letters, right):
            _check_name(name, "letter")
        key = word_key(left, letters, right)
        delta = goncharov_coproduct(key)
    elif args.quiver is not None:
        quiver = Quiver.from_doc(_load_doc(args.quiver))
        if args.path is None:
            raise InputError("--quiver needs --path EDGE.EDGE... or --path VERTEX")
        name = args.path.replace(" ", "")
        emap = quiver.edge_map()
        if name in quiver.vertices:
            key = vertex_key(name)
        else:
            edges = tuple(p for p in name.split(".") if p)
            if not edges or any(e not in emap for e in edges):
                raise InputError(f"unknown path literal {args.path!r}")
            for e, f in zip(edges, edges[1:]):
                if emap[e][1] != emap[f][0]:
                    raise InputError(f"edges {e} and {f} of {args.path!r} do not compose: "
                                     f"{e} ends at {emap[e][1]}, {f} starts at {emap[f][0]}")
            key = path_key(edges)
        delta = path_coproduct(emap, key)
    else:
        poset = Poset.from_doc(_load_doc(args.poset))
        C = build_incidence_coalgebra(poset)
        if args.interval is None:
            raise InputError("--poset needs --interval X,Y")
        x, _, y = (part.strip() for part in args.interval.partition(","))
        if x not in poset.leq or not poset.le(x, y):
            raise InputError(f"{args.interval!r} is not an interval of the poset")
        key = interval_key(x, y)
        delta = C.delta(key)
    _emit([f"delta({key}) = {delta.render()}"], args.format)
    return 0


def _cmd_antipode(args) -> int:
    if args.laurent and not args.qdeform:
        raise InputError("--laurent needs --qdeform")
    B = _build_bialgebra(args)
    if args.quotient:
        B = _quotient(B, args.quotient).bialgebra
    if args.qdeform:
        B = q_deform(B, laurent=args.laurent, exponent_window=1).bialgebra
    if args.key is not None and args.key not in map(str, _keys(B, args.truncation)):
        raise InputError(f"--key {args.key!r} names no key of the table "
                         f"(degree <= {args.truncation})")
    S = antipode(B)
    keys = [k for k in _keys(B, args.truncation) if args.key is None or str(k) == args.key]
    for k in keys:  # every value, so an obstruction comes before any output
        S(k)
    _emit((f"S({k}) = {S(k).render()}" for k in keys), args.format)
    return 0


def _cmd_inverse(args) -> int:
    phi = CharacterSpec.from_doc(_load_doc(args.character))  # before the build
    B = _build_bialgebra(args)
    if args.quotient:
        B = _quotient(B, args.quotient).bialgebra
    inv = invert_character(phi.as_conv_map(B), B)
    keys = _keys(B, args.truncation)
    for k in keys:  # every value, so an obstruction comes before any output
        inv(k)
    render = inv.target.render
    _emit((f"phi^-1({k}) = {render(inv(k))}" for k in keys), args.format)
    return 0


def _cmd_birkhoff(args) -> int:
    phi = CharacterSpec.from_doc(_load_doc(args.character))  # before the build
    B = _quotient(_build_bialgebra(args), "normalized").bialgebra
    pair = birkhoff(phi, B, pole_part_operator())
    minus, plus = pair.minus.target.render, pair.plus.target.render
    _emit([f"{k} | {minus(pair.minus(k))} | {plus(pair.plus(k))}"
           for k in _keys(B, args.truncation)], args.format)
    return 0


def _cmd_quotient(args) -> int:
    B = _build_bialgebra(args)
    q = _quotient(B, args.kind)
    report = validate_coideal(q, seed=args.seed)
    lines = [report.render()]
    lines += [f"{k} -> {nf}" for k in _keys(B, args.truncation)
              if (nf := q.normal_form(k)) != k]
    _emit(lines, args.format)
    return 0 if report.ok else 1


def _cmd_qdeform(args) -> int:
    B = _build_bialgebra(args)
    deformed = q_deform(B, laurent=args.laurent, exponent_window=1)
    _emit([f"{k} -> {deformed.reduce_key(k)}" for k in _keys(B, args.truncation)],
          args.format)
    return 0


def _cmd_coaction(args) -> int:
    deformed = q_deform(_build_bialgebra(args), laurent=True, exponent_window=1)
    coaction = brown_coaction(deformed)
    report = validate_coaction(coaction, max_degree=args.truncation)
    lines = [report.render()]
    lines += [f"coaction({k}) = {coaction(k).render()}"
              for k in _keys(deformed.bialgebra, min(args.truncation, 2))
              if not split_q_key(k)[1]]
    _emit(lines, args.format)
    return 0 if report.ok else 1


def _build_coalgebra_for_analysis(args):
    if args.quiver is not None:
        return build_path_coalgebra(Quiver.from_doc(_load_doc(args.quiver)), args.truncation)
    if args.poset is not None:
        return build_incidence_coalgebra(Poset.from_doc(_load_doc(args.poset)))
    if args.words is not None:
        alphabet = tuple(args.words.split(","))
        return build_word_coalgebra(alphabet, args.truncation, closed=True)
    return _build_bialgebra(args).coalgebra


def _cmd_filtration(args) -> int:
    C = _build_coalgebra_for_analysis(args)
    table = bivariate_filtration(C)
    lines = [f"universe: {len(C.keys)} keys"]
    for degree, count in sorted(table.histogram().items()):
        lines.append(f"degree {degree}: {count}")
    if not table.exhaustive:
        lines.append(f"not reached: {len(table.unreached)}")
    _emit(lines, args.format)
    return 0


def _cmd_structure(args) -> int:
    C = _build_coalgebra_for_analysis(args)
    report = analyze_structure(C)
    verdict = verify_pathlike(C)
    _emit([report.render(), verdict.render()], args.format)
    return 0


def _cmd_check(args) -> int:
    lines = []
    failures = 0

    def run(report):
        nonlocal failures
        lines.append(report.render().splitlines()[0])
        if not report.ok:
            failures += 1

    t = min(args.truncation, 6)
    known = ["coassoc", "bialgebra", "antipode", "relations", "rb", "birkhoff"]
    suites = known if args.suite == "all" else args.suite.split(",")
    unknown = [name for name in suites if name not in known]
    if unknown:
        raise InputError(f"unknown suite {', '.join(map(repr, unknown))}; "
                         f"valid suites: all, {', '.join(known)}")

    # each universe is built once, by the first suite that needs it
    @functools.cache
    def trees():
        return build_tree_bialgebra(t, t, "s")

    @functools.cache
    def graphs():
        return build_graph_bialgebra(min(t, 3), min(t, 3), 3, connected=True)

    @functools.cache
    def quotient():
        return normalized_quotient(trees()).bialgebra

    if "coassoc" in suites:
        run(validate_coalgebra(trees().coalgebra))
        run(validate_coalgebra(graphs().coalgebra))
        run(validate_coalgebra(build_word_coalgebra(("a", "b"), min(t, 4))))
    if "bialgebra" in suites:
        run(validate_bialgebra(trees(), exhaustive_degree=min(t, 4)))
        run(validate_bialgebra(graphs(), sample_budget=150, seed=args.seed))
    if "antipode" in suites:
        run(validate_antipode(quotient(), antipode(quotient(), validate=False),
                              sample_budget=20, seed=args.seed))
    if "relations" in suites:
        run(check_graph_relations(budget=20, seed=args.seed))
    if "rb" in suites:
        run(check_rota_baxter(pole_part_operator(), samples=200, seed=args.seed))
    if "birkhoff" in suites:
        phi = CharacterSpec.from_doc({"rules": {"vertex": "z^-1"}})
        run(birkhoff(phi, quotient(), pole_part_operator()).report)
    lines.append(f"suites failed: {failures}")
    _emit(lines, args.format)
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweedler",
        description="Exact engine for combinatorial co-, bi- and Hopf algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, bialgebra=True):
        p.add_argument("--truncation", type=int, default=4)
        p.add_argument("--format", choices=("text", "json"), default="text")
        if bialgebra:
            p.add_argument("--bialgebra", default="trees")

    # a command reads one source: two exit 2 with usage, as does none; the
    # coproduct of one element builds no universe, so it takes no truncation
    p = sub.add_parser("coproduct", help="coproduct of one basis element")
    p.add_argument("--format", choices=("text", "json"), default="text")
    source = p.add_mutually_exclusive_group(required=True)
    for option in ("--tree", "--graph", "--word", "--quiver", "--poset"):
        source.add_argument(option)
    for option in ("--path", "--interval"):
        p.add_argument(option)
    p.add_argument("--nonconnected", action="store_true")
    p.set_defaults(fn=_cmd_coproduct)

    p = sub.add_parser("antipode", help="antipode table")
    common(p)
    p.add_argument("--quotient", choices=_QUOTIENTS)
    p.add_argument("--qdeform", action="store_true")
    p.add_argument("--laurent", action="store_true")
    p.add_argument("--key")
    p.set_defaults(fn=_cmd_antipode)

    p = sub.add_parser("inverse", help="convolution inverse of a character")
    common(p)
    p.add_argument("--character", required=True)
    p.add_argument("--quotient", choices=_QUOTIENTS)
    p.set_defaults(fn=_cmd_inverse)

    p = sub.add_parser("birkhoff", help="factorization table (key | minus | plus)")
    common(p)
    p.add_argument("--character", required=True)
    p.set_defaults(fn=_cmd_birkhoff)

    p = sub.add_parser("quotient", help="normal-form table of a quotient")
    common(p)
    p.add_argument("--kind", choices=_QUOTIENTS, required=True)
    p.set_defaults(fn=_cmd_quotient)

    p = sub.add_parser("qdeform", help="deformation classes of basis keys")
    common(p)
    p.add_argument("--laurent", action="store_true")
    p.set_defaults(fn=_cmd_qdeform)

    p = sub.add_parser("coaction", help="coaction table on the deformed quotient")
    common(p)
    p.set_defaults(fn=_cmd_coaction)

    for name, fn, text in (("filtration", _cmd_filtration, "filtration degree histogram"),
                           ("structure", _cmd_structure, "grouplike/skew-primitive report")):
        p = sub.add_parser(name, help=text)
        common(p, bialgebra=False)
        source = p.add_mutually_exclusive_group(required=True)
        for option in ("--bialgebra", "--quiver", "--poset", "--words"):
            source.add_argument(option)
        p.set_defaults(fn=fn)

    p = sub.add_parser("check", help="run validation suites")
    common(p, bialgebra=False)
    p.add_argument("--suite", default="all")
    p.set_defaults(fn=_cmd_check)

    # only check and quotient draw random samples, and check builds only
    # symmetric trees
    for name, p in sub.choices.items():
        if name in ("check", "quotient"):
            p.add_argument("--seed", type=int, default=0)
        if name != "check":
            p.add_argument("--mode", choices=("planar", "symmetric"), default="symmetric")
    return parser


def _check_ranges(args) -> None:
    for option in ("truncation", "seed"):
        value = getattr(args, option, 0)
        if value < 0:
            raise InputError(f"--{option} must be a non-negative integer, got {value}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_ranges(args)
        return args.fn(args)
    except MathError as exc:
        sys.stderr.write(f"mathematical obstruction: {exc}\n")
        return 1
    except SweedlerError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
