from fractions import Fraction

import pytest

from sweedler.errors import ConfigurationError
from sweedler.constructions import normalized_quotient, q_deform
from sweedler.gallery import (
    boolean_poset,
    build_drinfeld_double,
    build_incidence_coalgebra,
    build_path_coalgebra,
    build_setlike_coalgebra,
    build_word_coalgebra,
    chain_poset,
    complete_quiver,
    cyclic_group,
    interval_key,
    path_key,
    setlike_key,
    vertex_key,
    Quiver,
)
from sweedler.graphs import build_graph_bialgebra
from sweedler.linear import BasisKey, FormalSum, TensorSum
from sweedler.specs import CoalgebraSpec
from sweedler.structure import (
    analyze_structure,
    bivariate_filtration,
    color_decompose,
    filtration_from_grading,
    find_grouplikes,
    find_skew_primitives,
    flanks,
    is_grouplike,
    reduced_coproduct,
    skew_primitive_space,
    verify_pathlike,
)
from sweedler.trees import build_tree_bialgebra, line_forest, tau, unit_key


def test_path_grouplikes_are_vertices(two_vertex_complete_paths):
    gpl, sgpl = find_grouplikes(two_vertex_complete_paths)
    assert gpl == {vertex_key("0"), vertex_key("1")}
    assert gpl == sgpl


def test_incidence_grouplikes_are_points():
    C = build_incidence_coalgebra(chain_poset(3))
    gpl, _ = find_grouplikes(C)
    assert gpl == {interval_key(str(i), str(i)) for i in range(4)}


def test_tree_grouplikes_are_line_forests(trees_sym4):
    gpl, _ = find_grouplikes(trees_sym4.coalgebra)
    assert gpl == {unit_key("s")} | {line_forest(n, "s") for n in range(1, 5)}


def test_length_one_paths_are_the_skew_primitives(two_vertex_complete_paths):
    C = two_vertex_complete_paths
    v0, v1 = vertex_key("0"), vertex_key("1")
    assert find_skew_primitives(C, v0, v1) == {path_key(("0to1",))}
    assert find_skew_primitives(C, v1, v0) == {path_key(("1to0",))}
    assert find_skew_primitives(C, v0, v0) == set()
    with pytest.raises(ConfigurationError):
        find_skew_primitives(C, path_key(("0to1",)), v1)


def test_tau_is_skew_primitive_between_lines(trees_sym4):
    C = trees_sym4.coalgebra
    for n in (1, 2, 3):
        found = find_skew_primitives(C, line_forest(1, "s"), line_forest(n, "s"))
        assert tau(n, "s") in found


def test_skew_primitive_space_contains_difference():
    # the space between two grouplikes always contains their difference
    C = build_setlike_coalgebra(["x", "y"])
    space = skew_primitive_space(C, setlike_key("x"), setlike_key("y"))
    diff = FormalSum.basis(setlike_key("x")) - FormalSum.basis(setlike_key("y"))
    assert len(space) == 1
    vec = space[0]
    ratio = vec.coeff(setlike_key("x"))
    assert vec == diff.scale(ratio)


def test_skew_primitive_space_on_edge(single_edge_paths):
    C = single_edge_paths
    space = skew_primitive_space(C, vertex_key("v"), vertex_key("w"))
    # span{e, v - w}
    assert len(space) == 2


def test_bivariate_degrees_on_paths(two_vertex_complete_paths):
    C = two_vertex_complete_paths
    table = bivariate_filtration(C)
    assert table.exhaustive
    # oracle: strip one deconcatenation layer per step, so degree = length
    for k in C.keys:
        assert table.degree(k) == C.grading(k)


def test_bivariate_degree_single_key(single_edge_paths):
    table = bivariate_filtration(single_edge_paths)
    assert table.degree(vertex_key("v")) == 0
    assert table.degree(path_key(("e",))) == 1


def test_degree_not_reached_on_corrupted():
    # a key whose reduced coproduct always refers to itself never enters,
    # nor does a key that needs it
    C = _stuck()
    k = BasisKey("x", (0,))
    table = bivariate_filtration(C)
    assert table.degree(k) is None
    assert k in table.unreached
    assert BasisKey("x", (2,)) in table.unreached
    assert not verify_pathlike(C).is_pathlike


def _stuck():
    # x(0) needs itself, and x(2) needs x(0) as a right factor
    k, g, m = (BasisKey("x", (i,)) for i in range(3))

    def delta(key):
        if key == g:
            return TensorSum.pure(g, g)
        if key == m:
            return TensorSum.of([(g, m), (m, g), (g, k)])
        return TensorSum.of([(g, k), (k, g), (k, k)])

    return CoalgebraSpec("stuck", [g, k, m], delta,
                         lambda key: Fraction(1 if key == g else 0), lambda key: 1)


def test_bivariate_degree_bounded_by_grading(trees_sym4, graphs_c33):
    for C in (trees_sym4.coalgebra, graphs_c33.coalgebra):
        table = bivariate_filtration(C)
        assert table.exhaustive
        for k in C.keys:
            assert table.degree(k) <= C.grading(k)


def test_filtration_strata_law(two_vertex_complete_paths):
    # delta(F_p) inside F_{p-1} (x) C + C (x) F_{p-1}, term by term
    C = two_vertex_complete_paths
    table = bivariate_filtration(C)
    for k in C.keys:
        p = table.degree(k)
        if p == 0:
            continue
        for (a, b), _ in C.delta(k):
            assert table.degree(a) <= p - 1 or table.degree(b) <= p - 1


def test_pathlike_instances():
    quiver = Quiver(("a", "b", "c"), (("e1", "a", "b"), ("e2", "b", "c")))
    instances = [
        build_path_coalgebra(quiver, 6),
        build_incidence_coalgebra(boolean_poset(2)),
        build_word_coalgebra(("a", "b"), 3, closed=True),
    ]
    for C in instances:
        verdict = verify_pathlike(C)
        assert verdict.is_pathlike, verdict.render()


def test_pathlike_negative_on_bad_semigrouplike():
    # inject a semigrouplike with counit != 1: condition (1) fails
    g = BasisKey("x", (0,))
    C = CoalgebraSpec("bad", [g], lambda k: TensorSum.pure(g, g),
                      lambda k: Fraction(2), lambda k: 0)
    verdict = verify_pathlike(C)
    assert not verdict.is_pathlike
    assert any("counit" in w for w in verdict.witnesses)


def test_color_blocks_on_paths():
    quiver = Quiver(("a", "b", "c"), (("e1", "a", "b"), ("e2", "b", "c")))
    C = build_path_coalgebra(quiver, 4)
    blocks, uncolorable = color_decompose(C)
    assert not uncolorable
    assert path_key(("e1",)) in blocks[(vertex_key("a"), vertex_key("b"))]
    assert path_key(("e1", "e2")) in blocks[(vertex_key("a"), vertex_key("c"))]


def test_flanks_read_off_the_universe():
    # keys beyond the truncation are tested intrinsically, not looked up
    quiver = Quiver(("a", "b", "c"), (("e1", "a", "b"), ("e2", "b", "c")))
    C = build_path_coalgebra(quiver, 1)
    a, b, c = vertex_key("a"), vertex_key("b"), vertex_key("c")
    long = path_key(("e1", "e2"))
    assert long not in C.keys
    assert is_grouplike(C, a) and not is_grouplike(C, path_key(("e1",)))
    assert not is_grouplike(C, long)
    assert flanks(C, a) == (a, a, ())
    assert flanks(C, path_key(("e1",))) == (a, b, ())
    assert flanks(C, long) == (a, c, ((path_key(("e1",)), path_key(("e2",))),))


def test_color_blocks_on_intervals():
    C = build_incidence_coalgebra(chain_poset(2))
    blocks, uncolorable = color_decompose(C)
    assert not uncolorable
    assert interval_key("0", "2") in blocks[
        (interval_key("0", "0"), interval_key("2", "2"))
    ]


def test_color_blocks_on_trees(trees_sym4):
    blocks, uncolorable = color_decompose(trees_sym4.coalgebra)
    assert not uncolorable
    # a tree with n leaves sits in the block (line, line^n)
    assert tau(3, "s") in blocks[(line_forest(1, "s"), line_forest(3, "s"))]


def test_structure_report_renders(two_vertex_complete_paths):
    report = analyze_structure(two_vertex_complete_paths)
    text = report.render()
    assert "grouplikes (2):" in text
    assert "skew primitives:" in text


def test_grading_filtration_requires_grouplike_base(single_edge_paths):
    C = single_edge_paths
    table = filtration_from_grading(C)
    assert table.degree(path_key(("e",))) == 1
    bad = CoalgebraSpec("bad", C.keys, C.delta, C.counit, lambda k: 0)
    with pytest.raises(ConfigurationError):
        filtration_from_grading(bad)


def test_reduced_coproduct_coassociative_on_diagonal(trees_sym4):
    # the one-flank reduction at (g, g) is coassociative, for every grouplike
    C = trees_sym4.coalgebra
    gpl, _ = find_grouplikes(C)
    keys = [k for k in C.keys if C.grading(k) <= 2]
    for g in sorted(gpl):
        _check_diagonal_reduction(C, g, keys)


def _check_diagonal_reduction(C, g, keys):
    for k in keys:
        left = {}
        for (a, b), c in reduced_coproduct(C, k, g, g):
            for (x, y), c2 in reduced_coproduct(C, a, g, g):
                left[(x, y, b)] = left.get((x, y, b), 0) + c * c2
        right = {}
        for (a, b), c in reduced_coproduct(C, k, g, g):
            for (x, y), c2 in reduced_coproduct(C, b, g, g):
                right[(a, x, y)] = right.get((a, x, y), 0) + c * c2
        left = {t: c for t, c in left.items() if c}
        right = {t: c for t, c in right.items() if c}
        assert left == right


# ---------------------------------------------------------------------------
# One reading per key, against the per-pair definitions

def _skew_oracle(C):
    """Every pair (g, h) of universe grouplikes and every other key k with
    reduced_coproduct(C, k, g, h) == 0.  A pair whose g is not a left factor
    or h not a right factor of delta(k) leaves -g (x) k or -k (x) h behind,
    so only the factor pairs are tried."""
    gpl, _ = find_grouplikes(C)
    out: dict = {}
    for k in C.keys:
        lefts = gpl & {a for (a, _), _ in C.delta(k)}
        rights = gpl & {b for (_, b), _ in C.delta(k)}
        for g in lefts:
            for h in rights:
                if k not in (g, h) and reduced_coproduct(C, k, g, h).is_zero():
                    out.setdefault((g, h), set()).add(k)
    return out


def _filtration_oracle(C):
    """Round n settles a key when, at some semigrouplike flank pair with
    coefficient-1 flank terms, every factor of its reduced coproduct has
    degree < n; rounds run up to the grading's top degree."""
    _, sgpl = find_grouplikes(C)
    bound = max(C.max_degree(), 1)
    reductions = {}
    for k in C.keys:
        delta = C.delta(k)
        lefts = [a for (a, b), c in delta if b == k and c == 1 and a in sgpl]
        rights = [b for (a, b), c in delta if a == k and c == 1 and b in sgpl]
        reductions[k] = [reduced_coproduct(C, k, g, h) for g in lefts for h in rights]
    degrees = {k: 0 for k in sgpl}
    for n in range(1, bound + 1):
        new = [k for k in C.keys if k not in degrees and any(
            all(degrees.get(a, n) < n and degrees.get(b, n) < n for (a, b), _ in r)
            for r in reductions[k])]
        degrees.update((k, n) for k in new)
    return degrees, frozenset(k for k in C.keys if k not in degrees)


_SKEW_UNIVERSES = {
    "trees(4,s)": lambda: build_tree_bialgebra(4, 4, "s").coalgebra,
    "trees(4,p)": lambda: build_tree_bialgebra(4, 4, "p").coalgebra,
    "trees(4)/normalized": lambda: normalized_quotient(
        build_tree_bialgebra(4, 4, "s")).bialgebra.coalgebra,
    # flanks of q keys and of open words lie outside the universe
    "q(trees(3))": lambda: q_deform(build_tree_bialgebra(3, 3, "s"), laurent=True,
                                    exponent_window=1).bialgebra.coalgebra,
    "words(ab,2),closed": lambda: build_word_coalgebra("ab", 2, closed=True),
    "words(ab,3)": lambda: build_word_coalgebra("ab", 3),
    "quiver(3)": lambda: build_path_coalgebra(complete_quiver(("0", "1", "2")), 3),
    "boolean(3)": lambda: build_incidence_coalgebra(boolean_poset(3)),
}


@pytest.mark.parametrize("name", sorted(_SKEW_UNIVERSES))
def test_skew_primitives_from_color_blocks(name):
    C = _SKEW_UNIVERSES[name]()
    assert analyze_structure(C).skew_primitive_pairs == _skew_oracle(C)


def test_skew_primitives_from_color_blocks_on_graphs(graphs_c33, graphs_n33):
    for B in (graphs_c33, graphs_n33):
        C = B.coalgebra
        assert analyze_structure(C).skew_primitive_pairs == _skew_oracle(C)


def test_structure_reduces_each_key_at_most_once(graphs_n33, monkeypatch):
    # a skew scan per grouplike pair read every key's coproduct at each of
    # 53 x 53 pairs; with the grouplike scan kept on C, the report reads a
    # key's coproduct at most once: the flanks serve blocks and skew test
    from collections import Counter

    C = graphs_n33.coalgebra
    assert len(find_grouplikes(C)[0]) == 53 and len(C.keys) == 672
    reads = Counter()
    delta = CoalgebraSpec.delta

    def counting(self, key):
        reads[key] += 1
        return delta(self, key)

    monkeypatch.setattr(CoalgebraSpec, "delta", counting)
    report = analyze_structure(C)
    assert reads and max(reads.values()) <= 1
    assert sum(map(len, report.skew_primitive_pairs.values())) == 116


def test_flanks_rest_reuses_the_coproduct_pairs(graphs_n33):
    # the rest holds the term dict's own pair tuples, not repacked copies,
    # so the sweep's pending table shares them with the coproduct memo
    C = graphs_n33.coalgebra
    gpl, _ = find_grouplikes(C)
    checked = 0
    for k in C.keys:
        read = None if k in gpl else flanks(C, k)
        if read is not None:
            own = {id(p) for p in C.delta(k).terms}
            assert all(id(p) in own for p in read[2])
            checked += len(read[2])
    assert checked


def _reference_flanks(C, key, base=None):
    # the per-term loop that ``flanks`` replaced: every pair is tested
    # against the flank rule and the others are collected in term order
    inside = base.__contains__ if base is not None else (lambda x: is_grouplike(C, x))
    lefts, rights, rest = [], [], []
    for pair, c in C.delta(key).terms.items():
        a, b = pair
        left = b == key and c == 1 and inside(a)
        right = a == key and c == 1 and inside(b)
        if left:
            lefts.append(a)
        if right:
            rights.append(b)
        if not (left or right):
            rest.append(pair)
    if len(lefts) == 1 and len(rights) == 1:
        return lefts[0], rights[0], tuple(rest)
    return None


def _third_pair_names_the_key():
    # x's coproduct holds g (x) x and x (x) g, and x (x) x with coefficient 2
    # between two pairs that do not name x: that third pair stays in rest,
    # in its place
    g, x, y, z = (BasisKey("x3", (i,)) for i in range(4))
    coproducts = {
        g: TensorSum.pure(g, g),
        x: TensorSum.of([(y, z), (g, x), (x, x, 2), (z, y), (x, g)]),
        y: TensorSum.of([(g, y), (y, g)]),
        z: TensorSum.of([(g, z), (z, g)]),
    }
    return CoalgebraSpec("third pair", coproducts, coproducts.__getitem__,
                         lambda key: int(key is g), lambda key: 0 if key is g else 1)


_FLANK_UNIVERSES = {
    "graphs(4,4,3,n)": lambda: build_graph_bialgebra(4, 4, 3, connected=False).coalgebra,
    "trees(5,s)/normalized": lambda: normalized_quotient(
        build_tree_bialgebra(5, 5, "s")).bialgebra.coalgebra,
    "trees(4,p)": lambda: build_tree_bialgebra(4, 4, "p").coalgebra,
    "words(ab,3),closed": lambda: build_word_coalgebra("ab", 3, closed=True),
    "quiver(3)": lambda: build_path_coalgebra(complete_quiver(("0", "1", "2")), 3),
    "double-z2": lambda: build_drinfeld_double(cyclic_group(2)).coalgebra,
    "third pair": _third_pair_names_the_key,
}


@pytest.mark.parametrize("name", sorted(_FLANK_UNIVERSES))
def test_flanks_equal_the_per_term_reference(name):
    # the flank pair by identity and the rest as the same tuple, order
    # included, over the grouplikes and over the semigrouplike base
    C = _FLANK_UNIVERSES[name]()
    _, sgpl = find_grouplikes(C)
    read = 0
    for base in (None, sgpl):
        for k in C.keys:
            got, want = flanks(C, k, base), _reference_flanks(C, k, base)
            if want is None:
                assert got is None
                continue
            assert got[0] is want[0] and got[1] is want[1]
            assert type(got[2]) is tuple and got[2] == want[2]
            read += 1
    assert (read == 0) == (name == "double-z2")  # no double key has unique flanks
    if name == "third pair":
        y, z, x = (BasisKey("x3", (i,)) for i in (2, 3, 1))
        assert flanks(C, x)[2] == ((y, z), (x, x), (z, y))


def test_skew_primitive_loop_reads_each_coproduct_once(monkeypatch):
    # a loop over every grouplike pair reads the structure report the spec
    # keeps, so each coproduct is read at most once over the whole loop
    from collections import Counter

    quiver = complete_quiver(("0", "1", "2"))
    C = build_path_coalgebra(quiver, 5)
    gpl, _ = find_grouplikes(C)
    pairs = [(g, h) for g in sorted(gpl) for h in sorted(gpl)]
    assert (len(C.keys), len(pairs)) == (189, 9)
    reads = Counter()
    delta = CoalgebraSpec.delta

    def counting(self, key):
        reads[key] += 1
        return delta(self, key)

    monkeypatch.setattr(CoalgebraSpec, "delta", counting)
    found = {pair: find_skew_primitives(C, *pair) for pair in pairs}
    monkeypatch.undo()
    assert reads and max(reads.values()) <= 1
    fresh = analyze_structure(build_path_coalgebra(quiver, 5)).skew_primitive_pairs
    assert found == {pair: fresh.get(pair, set()) for pair in pairs}
    assert sum(map(len, found.values())) == 6


@pytest.mark.parametrize("name", ["graphs-n", "graphs-c", "trees(5,p)", "words(ab,3)",
                                  "quiver(2)", "stuck"])
def test_filtration_matches_round_by_round_reference(name, graphs_c33, graphs_n33,
                                                     two_vertex_complete_paths):
    C = {"graphs-n": lambda: graphs_n33.coalgebra,
         "graphs-c": lambda: graphs_c33.coalgebra,
         "trees(5,p)": lambda: build_tree_bialgebra(5, 5, "p").coalgebra,
         "words(ab,3)": lambda: build_word_coalgebra("ab", 3, closed=True),
         "quiver(2)": lambda: two_vertex_complete_paths,
         "stuck": _stuck}[name]()
    table = bivariate_filtration(C)
    assert (table.degrees, table.unreached) == _filtration_oracle(C)
