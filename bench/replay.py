"""The child-process side of the benchmark: set-up, traced replay, call counts.

``bench/run.py`` starts each mode in a fresh interpreter from the checkout
root, with the checkout's ``src`` first on PYTHONPATH:

    python3 bench/replay.py setup  WORKLOAD
    python3 bench/replay.py replay WORKLOAD [--seed N]
    python3 bench/replay.py count  WORKLOAD [--seed N]

* ``setup`` imports sweedler, builds the workload's universe with the calls
  the CLI makes to build it, and exits; the parent times the process.
* ``replay`` repeats the CLI's call sequence through the public API with a
  span around each call.  It prints one JSON line: the spans, sizes read off
  public results, module-level ``lru_cache`` sizes, and the sha256 of the
  rendered output, which must equal the CLI's.
* ``count`` runs the same replay with counting wrappers installed on the
  named public functions, and prints the call counts and the digest.

Spans and counts are taken from outside the package; nothing under ``src``
is changed.  Every mode runs in its own interpreter because the module-level
caches persist within a process and no CLI user starts with them warm.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import hashlib
import inspect
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class ReplayError(Exception):
    """A replayed call returned a result the CLI would have rejected."""


class Tracer:
    """Spans around calls into the package, plus sizes of public results."""

    def __init__(self):
        self.spans: list = []
        self.sizes: dict = collections.Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                {"name": name, "parent": "replay", "start": start,
                 "end": time.perf_counter()}
            )


def _import_sweedler():
    import sweedler

    src = (ROOT / "src").resolve()
    if src not in Path(sweedler.__file__).resolve().parents:
        raise SystemExit(f"sweedler imported from {sweedler.__file__}, not {src}")
    return sweedler


# ---------------------------------------------------------------------------
# Set-up: the universe builds of each workload, nothing else


def setup_antipode_trees(sw):
    sw.normalized_quotient(sw.build_tree_bialgebra(6, 6, "s"))


def setup_filtration_graphs(sw):
    sw.build_graph_bialgebra(4, 4, 3, connected=False)


def setup_check_all(sw):
    sw.build_tree_bialgebra(4, 4, "s")
    sw.build_graph_bialgebra(3, 3, 3, connected=True)
    sw.build_word_coalgebra(("a", "b"), 4)


# ---------------------------------------------------------------------------
# Replays: the CLI's call sequence, each returning the lines the CLI prints


def replay_antipode_trees(sw, tr: Tracer, seed):
    """``antipode --bialgebra trees --quotient normalized --truncation 6``."""
    truncation = 6
    with tr.span("trees.build"):
        B = sw.build_tree_bialgebra(truncation, truncation, "s")
    with tr.span("constructions.quotient"):
        Q = sw.normalized_quotient(B).bialgebra
    # antipode() scans for grouplikes first; the scan is cached on the spec,
    # so doing it here only moves it into its own span.
    with tr.span("structure.grouplike_scan"):
        sw.find_grouplikes(Q.coalgebra)
    # antipode() returns a lazy map: the call itself is the grouplike gate.
    with tr.span("inversion.gate"):
        S = sw.antipode(Q, validate=False)
    with tr.span("inversion.eval"):
        for k in Q.keys:
            S(k)
    with tr.span("inversion.validate"):
        report = sw.validate_antipode(Q, S)
    if not report.ok:
        raise ReplayError(report.render())
    with tr.span("linear.render"):
        lines = [f"S({k}) = {S(k).render()}"
                 for k in Q.keys if Q.grading(k) <= truncation]
    tr.sizes["trees.keys"] = len(B.keys)
    tr.sizes["constructions.quotient_keys"] = len(Q.keys)
    tr.sizes["inversion.validate_checks"] = report.checked
    return lines


def replay_filtration_graphs(sw, tr: Tracer, seed):
    """``filtration --bialgebra graphs-nc --truncation 4``."""
    with tr.span("graphs.build"):
        C = sw.build_graph_bialgebra(4, 4, max_flags=3, connected=False).coalgebra
    with tr.span("structure.grouplike_scan"):
        sw.find_grouplikes(C)
    with tr.span("structure.filtration"):
        table = sw.bivariate_filtration(C)
    with tr.span("linear.render"):
        lines = [f"universe: {len(C.keys)} keys"]
        for degree, count in sorted(table.histogram().items()):
            lines.append(f"degree {degree}: {count}")
        if not table.exhaustive:
            lines.append(f"not reached: {len(table.unreached)}")
    tr.sizes["graphs.keys"] = len(C.keys)
    return lines


def replay_check_all(sw, tr: Tracer, seed):
    """``check --suite all --truncation 4 --seed SEED``."""
    t = 4
    reports = []

    def trees():
        with tr.span("trees.build"):
            B = sw.build_tree_bialgebra(t, t, "s")
        tr.sizes["trees.keys"] = len(B.keys)
        return B

    def graphs():
        with tr.span("graphs.build"):
            G = sw.build_graph_bialgebra(min(t, 3), min(t, 3), 3, connected=True)
        tr.sizes["graphs.keys"] = len(G.keys)
        return G

    def quotient(B):
        with tr.span("constructions.quotient"):
            Q = sw.normalized_quotient(B).bialgebra
        tr.sizes["constructions.quotient_keys"] = len(Q.keys)
        return Q

    def check(span, checks, fn, *args, **kwargs):
        with tr.span(span):
            report = fn(*args, **kwargs)
        tr.sizes[checks] += report.checked
        reports.append(report)

    check("specs.validate", "specs.checks", sw.validate_coalgebra, trees().coalgebra)
    check("specs.validate", "specs.checks", sw.validate_coalgebra, graphs().coalgebra)
    with tr.span("gallery.build"):
        words = sw.build_word_coalgebra(("a", "b"), min(t, 4))
    check("specs.validate", "specs.checks", sw.validate_coalgebra, words)
    check("specs.validate", "specs.checks", sw.validate_bialgebra, trees(),
          exhaustive_degree=min(t, 4))
    check("specs.validate", "specs.checks", sw.validate_bialgebra, graphs(),
          sample_budget=150, seed=seed)
    Q = quotient(trees())
    with tr.span("inversion.gate"):
        S = sw.antipode(Q, validate=False)
    check("inversion.validate", "inversion.validate_checks", sw.validate_antipode,
          Q, S, sample_budget=20, seed=seed)
    check("graphs.relations", "graphs.relation_checks", sw.check_graph_relations,
          budget=20, seed=seed)
    check("renorm.rb", "renorm.rb_checks", sw.check_rota_baxter,
          sw.pole_part_operator(), samples=200, seed=seed)
    Q = quotient(trees())
    with tr.span("renorm.birkhoff"):
        phi = sw.CharacterSpec(sw.LAURENT, {"vertex": sw.parse_laurent("z^-1")})
        pair = sw.birkhoff(phi, Q, sw.pole_part_operator())
    reports.append(pair.report)
    with tr.span("linear.render"):
        lines = [report.render().splitlines()[0] for report in reports]
        lines.append(f"suites failed: {sum(not r.ok for r in reports)}")
    return lines


WORKLOADS = {
    "antipode-trees": (setup_antipode_trees, replay_antipode_trees),
    "filtration-graphs": (setup_filtration_graphs, replay_filtration_graphs),
    "check-all": (setup_check_all, replay_check_all),
}


# ---------------------------------------------------------------------------
# Call counting


def install_counters(sw) -> collections.Counter:
    """Wrap the named public functions so that each call bumps a counter.

    A function behind a module-level ``lru_cache`` gets a fresh cache of the
    same size around a counting copy, so its count is the number of times
    its body runs.  The callables handed to the spec constructors are
    wrapped too, which counts memo misses of ``delta`` and ``product``.
    """
    import fractions

    counts: collections.Counter = collections.Counter()
    modules = [m for name, m in sys.modules.items()
               if name == "sweedler" or name.startswith("sweedler.")]

    def counted(fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def function(module, attr):
        orig = getattr(module, attr)
        name = f"{module.__name__.rpartition('.')[2]}.{attr}"
        params = getattr(orig, "cache_parameters", None)
        if params is not None:
            new = functools.lru_cache(**params())(counted(orig.__wrapped__, name))
        else:
            new = counted(orig, name)
        for m in modules:  # every module that imported the function by name
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, new)

    def method(cls, attr, name):
        setattr(cls, attr, counted(getattr(cls, attr), name))

    def constructor_argument(cls, param, name):
        init = cls.__init__
        signature = inspect.signature(init)

        @functools.wraps(init)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.arguments[param] = counted(bound.arguments[param], name)
            init(*bound.args, **bound.kwargs)

        cls.__init__ = wrapper

    function(sw.trees, "canonical_tree")
    function(sw.trees, "forest_key")
    function(sw.trees, "tree_coproduct")
    function(sw.graphs, "graph_class_key")
    function(sw.graphs, "graph_coproduct")
    method(sw.CoalgebraSpec, "delta", "specs.CoalgebraSpec.delta")
    constructor_argument(sw.CoalgebraSpec, "delta", "specs.delta_evaluations")
    method(sw.AlgebraSpec, "product", "specs.AlgebraSpec.product")
    constructor_argument(sw.AlgebraSpec, "product", "specs.product_evaluations")
    method(sw.ConvMap, "__call__", "specs.ConvMap.__call__")
    method(sw.FormalSum, "__add__", "linear.FormalSum.__add__")
    method(sw.TensorSum, "__add__", "linear.TensorSum.__add__")
    method(fractions.Fraction, "__new__", "fractions.Fraction.__new__")
    return counts


def cache_entries(module) -> int:
    """Entries held by the module's own ``lru_cache`` functions."""
    total = 0
    for value in vars(module).values():
        info = getattr(value, "cache_info", None)
        if callable(info) and getattr(value, "__module__", None) == module.__name__:
            total += info().currsize
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "replay", "count"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    setup, replay = WORKLOADS[args.workload]

    tracer = Tracer()
    with tracer.span("sweedler.import"):
        sw = _import_sweedler()
    if args.mode == "setup":
        setup(sw)
        return 0
    counts = install_counters(sw) if args.mode == "count" else None
    lines = replay(sw, tracer, args.seed)
    digest = hashlib.sha256(("\n".join(lines) + "\n").encode("utf-8")).hexdigest()
    result = {"sha256": digest, "sizes": dict(tracer.sizes)}
    if counts is not None:
        result["counts"] = dict(sorted(counts.items()))
    else:
        result["spans"] = tracer.spans
        result["cache_entries"] = {
            name: cache_entries(getattr(sw, name))
            for name in ("trees", "graphs", "gallery", "linear")
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
