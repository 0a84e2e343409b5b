import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweedler.errors import InputError
from sweedler.graphs import (
    GraphMorphism,
    _canonical,
    all_graph_classes,
    check_graph_relations,
    degree_of,
    edge_contraction_class,
    graph_class_key,
    graph_coproduct,
    graph_product,
    graph_unit_key,
    identity_class,
    loop_contraction_class,
    merger_class,
    strip_identity_corollas,
)
from sweedler.linear import TensorSum, _encode_atom
from sweedler.specs import validate_bialgebra, validate_coalgebra
from sweedler.structure import find_grouplikes, verify_pathlike


def test_canonical_invariance_under_relabeling():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 5)
        sizes = [rng.randint(0, 4) for _ in range(n)]
        edges = []
        capacity = list(sizes)
        for _ in range(rng.randint(0, 4)):
            i, j = rng.randrange(n), rng.randrange(n)
            need = 2 if i == j else 1
            if capacity[i] >= need and (i != j and capacity[j] >= 1 or i == j):
                edges.append((min(i, j), max(i, j)))
                capacity[i] -= need
                if i != j:
                    capacity[j] -= 1
        comps = {}
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for a, b in edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        blocks = {}
        for i in range(n):
            blocks.setdefault(find(i), []).append(i)
        blocks = [tuple(sorted(b)) for b in blocks.values()]
        base = graph_class_key(sizes, edges, blocks, "c")
        perm = list(range(n))
        rng.shuffle(perm)
        p_sizes = [0] * n
        for old, new in enumerate(perm):
            p_sizes[new] = sizes[old]
        p_edges = [(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges]
        p_blocks = [tuple(sorted(perm[c] for c in blk)) for blk in blocks]
        assert graph_class_key(p_sizes, p_edges, p_blocks, "c") == base


def _random_structure(rng, n):
    sizes = tuple(rng.randint(0, 3) for _ in range(n))
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    edges = []
    capacity = list(sizes)
    for _ in range(rng.randint(0, 4)):
        i, j = rng.choice(pairs)
        need_i = 2 if i == j else 1
        if capacity[i] >= need_i and (i == j or capacity[j] >= 1):
            edges.append((i, j))
            capacity[i] -= need_i
            if i != j:
                capacity[j] -= 1
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return sizes, tuple(edges), tuple(tuple(sorted(b)) for b in blocks.values())


def _isomorphic_bruteforce(s1, s2):
    sizes1, edges1, blocks1 = s1
    sizes2, edges2, blocks2 = s2
    n = len(sizes1)
    if n != len(sizes2):
        return False
    e2 = sorted(edges2)
    b2 = sorted(tuple(sorted(b)) for b in blocks2)
    for perm in itertools.permutations(range(n)):
        if any(sizes2[perm[i]] != sizes1[i] for i in range(n)):
            continue
        pe = sorted((min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges1)
        pb = sorted(tuple(sorted(perm[c] for c in blk)) for blk in blocks1)
        if pe == e2 and pb == b2:
            return True
    return False


def test_canonical_agrees_with_all_permutations_bruteforce():
    # full-permutation isomorphism testing agrees with key equality
    rng = random.Random(11)
    structures = [_random_structure(rng, rng.randint(2, 6)) for _ in range(28)]
    keys = [graph_class_key(s[0], s[1], s[2], "c") for s in structures]
    for i in range(len(structures)):
        for j in range(i, len(structures)):
            expected = _isomorphic_bruteforce(structures[i], structures[j])
            assert (keys[i] == keys[j]) == expected, (structures[i], structures[j])


def _reference_normalize(sizes, edges, blocks, perm):
    """Relabel by perm (old index -> new index) and sort each section."""
    new_sizes = [0] * len(sizes)
    for old, new in enumerate(perm):
        new_sizes[new] = sizes[old]
    new_edges = sorted(
        (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges
    )
    new_blocks = sorted(tuple(sorted(perm[c] for c in blk)) for blk in blocks)
    return tuple(new_sizes), tuple(new_edges), tuple(new_blocks)


def _reference_canonical(sizes, edges, blocks):
    # the full search over every attribute-preserving relabelling
    n = len(sizes)
    if n == 0:
        return (), (), ()
    loops = [0] * n
    degree = [0] * n
    for a, b in edges:
        if a == b:
            loops[a] += 1
        else:
            degree[a] += 1
            degree[b] += 1
    block_of = {}
    for blk in blocks:
        for c in blk:
            block_of[c] = len(blk)
    attr = [(sizes[i], loops[i], degree[i], block_of[i]) for i in range(n)]
    groups: dict = {}
    for i in range(n):
        groups.setdefault(attr[i], []).append(i)
    ordered_groups = [groups[a] for a in sorted(groups)]
    best = None
    for arrangement in itertools.product(
        *(itertools.permutations(g) for g in ordered_groups)
    ):
        order = [i for g in arrangement for i in g]
        perm = [0] * n
        for new, old in enumerate(order):
            perm[old] = new
        cand = _reference_normalize(sizes, edges, blocks, perm)
        if best is None or cand < best:
            best = cand
    return best


@st.composite
def _labelled_inputs(draw):
    # few sizes, so cells are large; loops and multi-edges; the groups
    # coarsen the edge components at random, as non-connected mode allows
    from sweedler.graphs import _components

    n = draw(st.integers(1, 8))
    sizes = draw(st.lists(st.sampled_from((2, 2, 3, 4)), min_size=n, max_size=n))
    free = list(sizes)
    edges = []
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=8)):
        if free[a] >= 1 + (a == b) and free[b] >= 1:
            free[a] -= 1
            free[b] -= 1
            edges.append((min(a, b), max(a, b)))
    comps = _components(n, edges)
    labels = draw(st.lists(st.integers(0, len(comps) - 1),
                           min_size=len(comps), max_size=len(comps)))
    merged: dict = {}
    for comp, label in zip(comps, labels):
        merged.setdefault(label, []).extend(comp)
    blocks = [tuple(sorted(blk)) for blk in merged.values()]
    return tuple(sizes), tuple(edges), tuple(draw(st.permutations(blocks)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_labelled_inputs())
def test_twin_reduced_search_equals_full_search(structure):
    # skipping twin swaps must find the full search's minimum, tuple for tuple
    assert _canonical(*structure) == _reference_canonical(*structure)


@pytest.mark.parametrize("mode", ["c", "n"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_labelled_inputs(), st.randoms(use_true_random=False), st.booleans())
def test_lookup_and_search_give_one_canonical_key(mode, structure, rng, relabelled_first):
    # one class met under two labellings, in either order, into an empty
    # intern table: the second finds the first's key by the sorted
    # relabelling or by the search, and the one payload stored is the full
    # search's minimum
    import sweedler.graphs as graphs

    sizes, edges, blocks = structure
    if mode == "c":
        blocks = tuple(graphs._components(len(sizes), edges))
    perm = list(range(len(sizes)))
    rng.shuffle(perm)
    inputs = [(sizes, edges, blocks), _permuted(perm, sizes, edges, blocks)]
    if relabelled_first:
        inputs.reverse()
    saved, graphs._INTERNED = graphs._INTERNED, {}
    try:
        labelled = [(mode, tuple(s), tuple(map(tuple, e)), tuple(b)) for s, e, b in inputs]
        first, second = (graphs._class_key(args) for args in labelled)
        interned = graphs._INTERNED
    finally:
        graphs._INTERNED = saved
    assert first is second
    assert first.payload == (mode,) + _reference_canonical(sizes, edges, blocks)
    # the table holds the one canonical payload and the two labelled inputs,
    # each naming that one key
    assert set(interned) == {first.payload, *labelled}
    assert all(key is first for key in interned.values())


def test_interned_payloads_are_their_own_canonical_form(graphs_c33, graphs_n33):
    # the lookup is exact only if the intern table holds canonical payloads
    from sweedler.graphs import _INTERNED

    for B in (graphs_c33, graphs_n33):
        for key in B.keys:
            assert _INTERNED[key.payload] is key
            assert key.payload[1:] == _reference_canonical(*key.payload[1:])


_SEARCH_COUNT_CHILD = """
import sweedler.graphs as graphs
canonical, check = graphs._canonical, graphs._check
searches, checks = [], []
def counted(sizes, edges, blocks, attrs):
    if len(set(attrs)) < len(attrs):  # a cell with two corollas: a search
        searches.append(1)
    return canonical(sizes, edges, blocks, attrs)
graphs._canonical = counted
graphs._check = lambda labelled: checks.append(1) or check(labelled)
graphs.build_graph_bialgebra(4, 4, 3, connected=False)
graphs._canonical, graphs._check = canonical, check
table = graphs._INTERNED
payloads = {k for k, key in table.items() if k == key.payload}
named = all(check(k) is None and k[:1] + canonical(*k[1:]) == key.payload
            for k, key in table.items())
print(len(searches), len(checks), len(table), len(payloads), named)
"""


def test_graph_build_searches_only_unseen_sorted_relabellings():
    # graphs(4,4,3,n) in a fresh interpreter: the intern table holds the
    # 19,953 distinct labelled coproduct factors and payloads, the 6,439
    # classes' payloads among them; the enumerated labellings are already
    # sorted and are not stored.  The build makes no input check: its
    # inputs are enumerated or are coproduct factors of classes, and every
    # one that it stored passes the check and has its key's payload as its
    # canonical form.  Most are found by the lookup of their sorted
    # relabelling, and of the rest only those with two corollas in one
    # attribute cell are searched.  Which inputs are met first, and so the
    # search count, varies with the hash seed.
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", _SEARCH_COUNT_CHILD],
                          capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    searches, checks, entries, payloads, named = proc.stdout.split()
    assert (int(entries), int(payloads)) == (19_953, 6_439)
    assert int(checks) == 0
    assert named == b"True"
    assert int(searches) <= 3_200


def _reference_universe(max_corollas, max_edges, max_flags, mode, keep=None):
    # the labelled enumeration through the checked constructor: every
    # labelling with nondecreasing sizes, a sorted edge multiset and groups
    # made of edge components, or only those whose attributes ``keep``
    # accepts, closed under coproduct factors
    from sweedler.graphs import _components, _set_partitions

    keys = set()
    for n in range(max_corollas + 1):
        for sizes in itertools.combinations_with_replacement(range(max_flags + 1), n):
            pairs = [(i, j) for i in range(n) for j in range(i, n)]
            for count in range(min(max_edges, sum(sizes) // 2) + 1):
                for edges in itertools.combinations_with_replacement(pairs, count):
                    loops, used = [0] * n, [0] * n
                    for a, b in edges:
                        used[a] += 1
                        used[b] += 1
                        loops[a] += a == b
                    if any(used[i] > sizes[i] for i in range(n)):
                        continue
                    comps = _components(n, edges)
                    parts = _set_partitions(comps) if mode == "n" else [[[c] for c in comps]]
                    for part in parts:
                        blocks = [tuple(sorted(c for comp in cell for c in comp))
                                  for cell in part]
                        group = {c: len(blk) for blk in blocks for c in blk}
                        attrs = [(sizes[i], loops[i], used[i], group[i]) for i in range(n)]
                        if keep is None or keep(attrs):
                            keys.add(graph_class_key(sizes, edges, blocks, mode))
    frontier = list(keys)
    while frontier:
        new = {f for k in frontier for pair, _ in graph_coproduct(k) for f in pair} - keys
        keys |= new
        frontier = list(new)
    return {key.payload for key in keys}


def _fresh_payloads(build, *args):
    # the payloads a build makes into an empty intern table, so each class is
    # searched as in a fresh interpreter
    import sweedler.graphs as graphs

    saved, graphs._INTERNED = graphs._INTERNED, {}
    try:
        return build(*args)
    finally:
        graphs._INTERNED = saved


def _strictly_increasing(attrs):
    return all(a < b for a, b in zip(attrs, attrs[1:]))


@pytest.mark.parametrize("mode", ["c", "n"])
@pytest.mark.parametrize("budgets", [(3, 3, 3), (4, 4, 3), (3, 9, 3)])
def test_orderly_enumeration_finds_every_class(budgets, mode):
    # enumerating only labellings whose attributes are already in sort order
    # gives the classes of the full labelled enumeration, each payload the
    # full search's minimum; a filter that also drops tied attributes loses
    # classes, so the comparison can fail
    orderly = _fresh_payloads(lambda: [k.payload for k in all_graph_classes(*budgets, mode)])
    assert len(orderly) == len(set(orderly))
    assert set(orderly) == _fresh_payloads(_reference_universe, *budgets, mode)
    for payload in orderly:
        assert payload[1:] == _reference_canonical(*payload[1:])
    if budgets == (3, 3, 3):
        strict = _fresh_payloads(_reference_universe, *budgets, mode, _strictly_increasing)
        assert strict < set(orderly)


def _combinations_filter(sizes, max_edges, loop_flags=2):
    # the enumeration's former edge loop: every multiset of
    # combinations_with_replacement up to the edges the flags can hold, kept
    # when its flags fit and its attributes (size, loops, flags used) are
    # nondecreasing; a loop takes ``loop_flags`` flags
    n = len(sizes)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for count in range(min(max_edges, sum(sizes) // min(2, loop_flags)) + 1):
        for edges in itertools.combinations_with_replacement(pairs, count):
            loops, used = [0] * n, [0] * n
            for a, b in edges:
                if a == b:
                    loops[a] += 1
                    used[a] += loop_flags
                else:
                    used[a] += 1
                    used[b] += 1
            attrs = list(zip(sizes, loops, used))
            if attrs == sorted(attrs) and all(u <= s for u, s in zip(used, sizes)):
                yield edges, attrs


def test_fitting_edge_walk_equals_the_combinations_filter():
    # the walk makes, in the same order and with the same attributes, the
    # edge multisets the filter kept, for every sizes multiset of at most 4
    # corollas and 3 flags and every edge budget up to 9; the filter with a
    # loop charged one flag differs, so the comparison can fail
    from sweedler.graphs import _fitting_edges

    cases = [sizes for n in range(5)
             for sizes in itertools.combinations_with_replacement(range(4), n)]
    kept = 0
    for sizes in cases:
        reference = list(_combinations_filter(sizes, 9))
        for max_edges in range(10):
            walked = list(_fitting_edges(sizes, max_edges))
            assert walked == [(e, a) for e, a in reference if len(e) <= max_edges]
        kept += len(list(_fitting_edges(sizes, 4)))
    assert (len(cases), kept) == (70, 1_087)
    assert any(list(_combinations_filter(sizes, 4, loop_flags=1))
               != list(_fitting_edges(sizes, 4)) for sizes in cases)


def _writer_mismatches(writer, keys):
    return [k for k in keys if writer(k.payload) != b"k" + _encode_atom("graph", k.payload)]


def test_graph_bytes_are_the_reference_encoding():
    # the universe's byte writer writes what the generic payload encoder
    # writes, on every key of graphs(4,4,3) c and n and (3,9,3,n) and on
    # random products; residues reach sizes 10-12, so a writer that drops
    # the int length (writes i1: for every int) fails on exactly those keys
    import re

    from sweedler.graphs import _graph_bytes

    universes = {budgets: all_graph_classes(*budgets)
                 for budgets in ((4, 4, 3, "c"), (4, 4, 3, "n"), (3, 9, 3, "n"))}
    keys = [k for universe in universes.values() for k in universe]
    assert not _writer_mismatches(_graph_bytes, keys)
    assert all(k.encoded() == _graph_bytes(k.payload) for k in keys)
    rng = random.Random(33)
    nc = universes[4, 4, 3, "n"]
    products = [graph_product(rng.choice(nc), rng.choice(nc)) for _ in range(500)]
    assert not _writer_mismatches(_graph_bytes, products)

    def wide(key):
        _, sizes, edges, blocks = key.payload
        return max(itertools.chain(sizes, *edges, *blocks), default=0) >= 10

    assert sum(map(wide, nc)) == 15
    broken = _writer_mismatches(
        lambda payload: re.sub(rb"i\d+:", b"i1:", _graph_bytes(payload)), keys + products)
    assert broken and set(broken) == {k for k in keys + products if wide(k)}


@pytest.mark.parametrize("mode", ["c", "n"])
def test_internal_class_inputs_pass_the_check(mode, graphs_c33, graphs_n33, monkeypatch):
    # the module's own callers skip the input check: every labelled input
    # they pass, the coproduct factors of each universe key and the unions
    # of two universe keys up to weight 2 (one order each), must pass it,
    # name the key the checked constructor gives, and have that key's
    # payload as its canonical form
    import sweedler.graphs as graphs

    B = graphs_c33 if mode == "c" else graphs_n33
    met = {}

    def recorder(name):
        inner = getattr(graphs, name)

        def record(labelled):
            key = inner(labelled)
            mode_, sizes, edges, blocks = labelled
            met[mode_, sizes, tuple(map(tuple, edges)), tuple(map(tuple, blocks))] = key
            return key

        monkeypatch.setattr(graphs, name, record)

    recorder("_class_key")
    recorder("_class_of")
    for key in B.keys:
        graph_coproduct(key)
    factors = len(met)
    light = [k for k in B.keys if B.grading(k) <= 2]
    for i, a in enumerate(light):
        for b in light[i:]:
            if B.grading(a) + B.grading(b) <= 2:
                graph_product(a, b)
    monkeypatch.undo()
    assert factors > 400 and len(met) - factors > 3_000
    for labelled, key in met.items():
        graphs._check(labelled)
        mode_, sizes, edges, blocks = labelled
        assert graph_class_key(sizes, edges, blocks, mode_) is key
        assert key.payload == (mode_,) + _reference_canonical(sizes, edges, blocks)


@st.composite
def _untied_inputs(draw):
    # labelled inputs in which no two corollas share an attribute: either
    # distinct sizes, or distinct (loops, degree) pairs on sizes that may tie
    # (all equal, or each the flags its corolla uses plus a little)
    from sweedler.graphs import _components

    n = draw(st.integers(1, 7))
    degree = [0] * n
    edges = []
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=8)):
        if a != b:
            edges.append((min(a, b), max(a, b)))
            degree[a] += 1
            degree[b] += 1
    by_size = draw(st.booleans())
    pairs = set()
    for i in range(n):
        loops = draw(st.integers(0, 2))
        while not by_size and (loops, degree[i]) in pairs:
            loops += 1
        pairs.add((loops, degree[i]))
        edges += [(i, i)] * loops
        degree[i] += 2 * loops  # now the flags corolla i uses
    if by_size:
        sizes = [max(degree) + r for r in draw(st.permutations(range(n)))]
    elif draw(st.booleans()):
        sizes = [max(degree)] * n
    else:
        sizes = [d + draw(st.integers(0, 2)) for d in degree]
    comps = _components(n, edges)
    labels = draw(st.lists(st.integers(0, len(comps) - 1),
                           min_size=len(comps), max_size=len(comps)))
    merged: dict = {}
    for comp, label in zip(comps, labels):
        merged.setdefault(label, []).extend(comp)
    blocks = [tuple(sorted(blk)) for blk in merged.values()]
    return (tuple(sizes), tuple(draw(st.permutations(edges))),
            tuple(draw(st.permutations(blocks))))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_untied_inputs())
def test_untied_attributes_canonicalise_by_sorting(structure):
    # with every attribute cell a singleton the attribute sort alone is the
    # relabelling, so it must carry every attribute the full search uses,
    # and no search is made
    from unittest import mock

    import sweedler.graphs as graphs

    with mock.patch.object(graphs, "_twin_classes", side_effect=AssertionError("searched")):
        canonical = _canonical(*structure)
    assert canonical == _reference_canonical(*structure)


def test_many_equal_corollas_canonicalise_fast():
    # twelve two-flag corollas and one ghost edge: the full search tries
    # 2!*10! relabellings, the twin-reduced search one
    import time

    blocks = [(5, 9)] + [(c,) for c in range(12) if c not in (5, 9)]
    start = time.perf_counter()
    key = graph_class_key((2,) * 12, [(5, 9)], blocks, "c")
    assert time.perf_counter() - start < 1.0
    assert key.payload == (
        "c", (2,) * 12, ((10, 11),), tuple((c,) for c in range(10)) + ((10, 11),)
    )


def test_edge_contraction_skew_primitive_connected():
    key = edge_contraction_class(2, 2)
    d = graph_coproduct(key)
    assert d == TensorSum.of([
        (identity_class((2, 2), "c"), key),
        (key, identity_class((2,), "c")),
    ])


def test_loop_contraction_coproduct():
    key = loop_contraction_class(2)
    d = graph_coproduct(key)
    assert d == TensorSum.of([
        (identity_class((2,), "c"), key),
        (key, identity_class((0,), "c")),
    ])


def test_two_edge_path_coproduct_count():
    # three corollas in a path of two contractions: 2^2 labeled subsets
    key = graph_class_key((1, 2, 1), ((0, 1), (1, 2)), ((0, 1, 2),), "c")
    d = graph_coproduct(key)
    assert sum(c for _, c in d) == 4


def test_merger_distributes_in_nonconnected_mode():
    key = edge_contraction_class(2, 2, "n")
    d = graph_coproduct(key)
    merger = merger_class(2, 2)
    loop = graph_class_key((4,), ((0, 0),), ((0,),), "n")
    assert d.coeff(merger, loop) == 1
    assert len(d) == 3


def test_coproduct_channels_diagnostic():
    key = graph_product(edge_contraction_class(2, 2), edge_contraction_class(2, 2))
    multi = graph_coproduct(key)
    assert any(c > 1 for _, c in multi)


def test_degree_triples():
    assert degree_of(merger_class(2, 3)) == degree_of(merger_class(2, 3)).__class__(1, 0, 1)
    m = degree_of(merger_class(2, 3))
    assert (m.word_drop, m.edge_count, m.weight) == (1, 0, 1)
    e = degree_of(edge_contraction_class(2, 2))
    assert (e.word_drop, e.edge_count, e.weight) == (1, 1, 2)
    l = degree_of(loop_contraction_class(2))
    assert (l.word_drop, l.edge_count, l.weight) == (0, 1, 1)


def test_degree_weight_counts_ghost_edges():
    # weight = word drop + ghost edge count, on every seventh class
    for key in all_graph_classes(3, 3, 3, "c")[::7]:
        d = degree_of(key)
        assert d.weight - d.word_drop == len(key.payload[2])


def test_weight_additive_under_product():
    a = edge_contraction_class(2, 2)
    b = loop_contraction_class(3)
    ab = graph_product(a, b)
    assert degree_of(ab).weight == degree_of(a).weight + degree_of(b).weight


def test_relations_hold():
    report = check_graph_relations(budget=30, seed=2)
    assert report.ok, report.render()


def _permuted(perm, sizes, edges, blocks):
    p_sizes = [0] * len(sizes)
    for old, new in enumerate(perm):
        p_sizes[new] = sizes[old]
    p_edges = [(min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges]
    p_blocks = [tuple(sorted(perm[c] for c in blk)) for blk in blocks]
    return p_sizes, p_edges, p_blocks


def _coproduct_oracle(sizes, edges, blocks, mode):
    # edge subsets of a labeled representative, with the merger refinements
    # taken straight from _set_partitions, pushed to classes
    from sweedler.graphs import _components, _set_partitions

    n = len(sizes)
    block_id = {c: bi for bi, blk in enumerate(blocks) for c in blk}
    terms = []
    for bits in range(1 << len(edges)):
        chosen = [edges[i] for i in range(len(edges)) if bits & (1 << i)]
        rest = [edges[i] for i in range(len(edges)) if not bits & (1 << i)]
        comps = _components(n, chosen)
        if mode == "c":
            refinements = [comps]
        else:
            by_block = {}
            for comp in comps:
                by_block.setdefault(block_id[comp[0]], []).append(comp)
            refinements = [
                [tuple(sorted(c for cell_comp in cell for c in cell_comp))
                 for part in combo for cell in part]
                for combo in itertools.product(
                    *(list(_set_partitions(by_block[bi])) for bi in sorted(by_block))
                )
            ]
        for groups in refinements:
            left = graph_class_key(sizes, chosen, groups, mode)
            tgt_index = {}
            tgt_sizes = []
            for gi, grp in enumerate(sorted(groups)):
                for c in grp:
                    tgt_index[c] = gi
                inside = sum(1 for a, b in chosen if a in grp and b in grp)
                tgt_sizes.append(sum(sizes[c] for c in grp) - 2 * inside)
            r_edges = [(tgt_index[a], tgt_index[b]) for a, b in rest]
            if mode == "c":
                r_blocks = _components(len(tgt_sizes), r_edges)
            else:
                residual = {}
                for grp in groups:
                    residual.setdefault(block_id[grp[0]], set()).add(tgt_index[grp[0]])
                r_blocks = [tuple(sorted(v)) for v in residual.values()]
            right = graph_class_key(tgt_sizes, r_edges, r_blocks, mode)
            terms.append((left, right))
    return TensorSum.of(terms)


def test_coproduct_representative_independence():
    # enumerate edge subsets of a permuted labeled representative, push to
    # classes, and compare with the coproduct of the canonical class key;
    # non-connected inputs merge a random coarsening of the edge components
    from sweedler.graphs import _set_partitions

    for mode, seed in (("c", 21), ("n", 22)):
        rng = random.Random(seed)
        for _ in range(12):
            sizes, edges, blocks = _random_structure(rng, rng.randint(2, 4))
            if mode == "n":
                part = rng.choice(list(_set_partitions(blocks)))
                blocks = [tuple(sorted(c for blk in cell for c in blk)) for cell in part]
            key = graph_class_key(sizes, edges, blocks, mode)
            perm = list(range(len(sizes)))
            rng.shuffle(perm)
            oracle = _coproduct_oracle(*_permuted(perm, sizes, edges, blocks), mode)
            assert oracle == graph_coproduct(key), (mode, sizes, edges, blocks)


@pytest.mark.parametrize("universe", [(3, 3, 3, "c"), (3, 3, 3, "n"), (4, 4, 3, "c")])
def test_coproduct_equals_oracle_on_whole_universe(universe):
    # every key's coproduct against the subset enumeration; keys that differ
    # only in sizes walk one shared table, each row giving as many terms as
    # its coefficient counts edge subsets
    from sweedler.graphs import _cut_table

    mode = universe[3]
    keys = all_graph_classes(*universe)
    tables = {}
    for key in keys:
        _, sizes, edges, blocks = key.payload
        d = graph_coproduct(key)
        assert d == _coproduct_oracle(sizes, edges, blocks, mode), key
        table = _cut_table(len(sizes), edges, blocks, mode)
        assert tables.setdefault((len(sizes), edges, blocks), table) is table
        assert sum(c for _, c in d) == sum(row[-1] for row in table)
    assert len(tables) < len(keys) // 2


@pytest.mark.parametrize("mode", ["c", "n"])
def test_parallel_edges_equal_the_subset_oracle(mode):
    # k parallel edges between two corollas, a loop on the first and an edge
    # to a third: one row per count j of chosen parallel edges, weighted
    # C(k, j), against the oracle's 2^(k + 2) edge subsets
    from sweedler.graphs import _components

    for k in range(11):
        sizes = (k + 2, k + 1, 1)
        edges = ((0, 0),) + ((0, 1),) * k + ((1, 2),)
        blocks = _components(3, edges) if mode == "c" else [(0, 1, 2)]
        key = graph_class_key(sizes, edges, blocks, mode)
        assert graph_coproduct(key) == _coproduct_oracle(sizes, edges, blocks, mode), k


def test_parallel_edges_cost_their_multiplicity():
    # two 25-flag corollas joined by 25 edges: 2^25 edge subsets, but 26
    # edge counts and a merger, so 27 rows and 27 terms
    import json
    import subprocess
    import sys
    import time

    from sweedler.graphs import _cut_table

    sizes, edges = (25, 25), ((0, 1),) * 25
    start = time.perf_counter()
    d = graph_coproduct(graph_class_key(sizes, edges, [(0, 1)], "n"))
    assert time.perf_counter() - start < 1.0
    assert len(_cut_table(2, edges, ((0, 1),), "n")) == len(list(d)) == 27
    doc = {"corollas": [{"name": "u", "flags": [f"a{i}" for i in range(25)]},
                        {"name": "v", "flags": [f"b{i}" for i in range(25)]}],
           "edges": [[f"u.a{i}", f"v.b{i}"] for i in range(25)]}
    proc = subprocess.run(
        [sys.executable, "-m", "sweedler.cli", "coproduct", "--nonconnected",
         "--graph", json.dumps(doc)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.count("(x)") == 27


def test_connected_chain_costs_its_edge_subsets():
    # a connected chain of twelve corollas of distinct sizes: its groups are
    # forced by the chosen edges, so the table has one row per edge subset
    # (2^11), and nothing walks the 4,213,597 partitions of its one group
    import time

    from sweedler.graphs import _cut_table

    sizes, edges = tuple(range(2, 14)), tuple((i, i + 1) for i in range(11))
    start = time.perf_counter()
    d = graph_coproduct(graph_class_key(sizes, edges, [tuple(range(12))], "c"))
    assert time.perf_counter() - start < 5.0
    assert len(_cut_table(12, edges, (tuple(range(12)),), "c")) == len(list(d)) == 2048


def test_graph_work_counts_multiplicity_rows():
    # a deterministic guard on graphs(4,4,3,n), counts rather than times:
    # rows walked, the edge subsets their coefficients stand for (the row
    # count of one row per edge subset) and the distinct cut tables
    from sweedler.graphs import _cut_table, build_graph_bialgebra

    tables = set()
    walked = subsets = 0
    for key in build_graph_bialgebra(4, 4, 3, connected=False).keys:
        mode, sizes, edges, blocks = key.payload
        table = _cut_table(len(sizes), edges, blocks, mode)
        tables.add(id(table))
        walked += len(table)
        subsets += sum(row[-1] for row in table)
    assert walked <= 106_482
    assert subsets == 118_748
    assert len(tables) == 864


def _unseen_skeletons(rng, count):
    # nine corollas, more than any universe or product of two universe keys
    # elsewhere in the suite; distinct sizes keep canonicalisation cheap
    from sweedler.graphs import _set_partitions

    keys = []
    for i in range(count):
        mode = "cn"[i % 2]
        sizes, edges, blocks = _random_structure(rng, 4)
        if mode == "n":
            part = rng.choice(list(_set_partitions(blocks)))
            blocks = [tuple(sorted(c for blk in cell for c in blk)) for cell in part]
        sizes = tuple(10 + 4 * c + s for c, s in enumerate(sizes)) + tuple(range(30, 35))
        blocks = list(blocks) + [(c,) for c in range(4, 9)]
        keys.append(graph_class_key(sizes, edges, blocks, mode))
    return keys


def test_cut_tables_shared_across_threads():
    # four threads build the tables of the same never-seen skeletons at once
    # and take the coproducts; every thread must get the one stored table
    # and the oracle's coproduct
    import sys
    import threading

    from sweedler.graphs import _CUTS, _cut_table

    rng = random.Random(37)
    keys = _unseen_skeletons(rng, 12)
    skeletons = [(len(k.payload[1]),) + k.payload[2:] + (k.payload[0],) for k in keys]
    assert not any(s in _CUTS for s in skeletons)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        barrier = threading.Barrier(4, timeout=30)
        errors = []
        results = [[] for _ in range(4)]

        def work(t):
            try:
                barrier.wait()
                for key, skeleton in zip(keys, skeletons):
                    results[t].append((_cut_table(*skeleton), graph_coproduct(key)))
            except Exception as exc:  # any error fails the test
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
    assert not errors
    for i, (key, skeleton) in enumerate(zip(keys, skeletons)):
        _, sizes, edges, blocks = key.payload
        oracle = _coproduct_oracle(sizes, edges, blocks, key.payload[0])
        for t in range(4):
            table, d = results[t][i]
            assert table is _CUTS[skeleton]
            assert d == oracle


def test_equal_classes_are_one_object():
    # two labelings of one class give the same interned key, not just an
    # equal one
    rng = random.Random(17)
    for mode in ("c", "n"):
        for _ in range(20):
            sizes, edges, blocks = _random_structure(rng, rng.randint(2, 6))
            perm = list(range(len(sizes)))
            rng.shuffle(perm)
            key = graph_class_key(sizes, edges, blocks, mode)
            assert graph_class_key(*_permuted(perm, sizes, edges, blocks), mode) is key


_MALFORMED = [
    (((2, 2), ((0, 2),), ((0, 1),), "c"), "edge (0,2) out of range"),
    (((1,), ((0, 0),), ((0,),), "c"), "corolla 0 has 1 flags, 2 used"),
    (((2, 2), (), ((0,),), "n"), "target groups must partition the corollas"),
    (((2, 2), (), ((0, 2), (1,)), "n"), "target groups must partition the corollas"),
    (((2, 2), (), ((0, 1), (1,)), "n"), "target groups overlap"),
    (((2, 2), ((0, 1),), ((0,), (1,)), "n"), "ghost edge (0,1) crosses target groups"),
    (((2, 2), (), ((0, 1),), "c"), "connected mode: target groups must be edge components"),
    (((2,), (), ((0,),), "x"), "graph mode must be 'c' or 'n', got 'x'"),
]


def test_bad_input_raises_on_every_call():
    # every check runs at the public constructor and behind
    # BasisKey("graph", ...), with its message, and a failed check is never
    # memoised
    import re

    import sweedler.graphs as graphs
    from sweedler.linear import BasisKey

    for (sizes, edges, blocks, mode), message in _MALFORMED:
        for _ in range(2):
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                graph_class_key(sizes, edges, blocks, mode)
            with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
                BasisKey("graph", (mode, sizes, edges, blocks))
        assert (mode, sizes, edges, blocks) not in graphs._INTERNED


def test_class_keys_interned_across_threads():
    # four threads canonicalise the same shuffled, never-seen inputs at once
    # (sizes 10-13 occur nowhere else); every thread must get the one
    # interned key of each class
    import sys
    import threading

    rng = random.Random(29)
    inputs = []
    classes = []
    for cls in range(12):
        sizes, edges, blocks = _random_structure(rng, rng.randint(3, 6))
        sizes = tuple(s + 10 for s in sizes)
        for _ in range(3):
            perm = list(range(len(sizes)))
            rng.shuffle(perm)
            inputs.append(_permuted(perm, sizes, edges, blocks))
            classes.append(cls)
    order = list(range(len(inputs)))
    rng.shuffle(order)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        barrier = threading.Barrier(4, timeout=30)
        errors = []
        results = [{} for _ in range(4)]

        def work(t):
            try:
                barrier.wait()
                for i in order:
                    results[t][i] = graph_class_key(*inputs[i], "c")
            except Exception as exc:  # any error fails the test
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
    finally:
        sys.setswitchinterval(old_interval)
    first = {}
    for seen in results:
        assert len(seen) == len(inputs)
        for i, key in seen.items():
            assert first.setdefault(classes[i], key) is key


_GRAPH_CHILD = """
import pickle, sys
keys = pickle.loads(sys.stdin.buffer.read())  # before any graph key is built
from sweedler.graphs import graph_class_key
from sweedler.linear import _KEYS, _encode_atom
print(
    keys[0] is graph_class_key((3, 2), [(1, 0)], [(1, 0)], "c"),
    keys[1] is graph_class_key((2, 3, 2), [], [(2, 0), (1,)], "n"),
    all(k.encoded() == b"k" + _encode_atom("graph") + _encode_atom(k.payload)
        for k in keys),
    any(k.tag == "graph" for k in _KEYS.values()),
)
"""


def test_graph_keys_copy_and_pickle_to_the_stored_key(graphs_c33, graphs_n33):
    # BasisKey("graph", ...), copies and unpickling all go through
    # graph_class_key, also in an interpreter that built no graph key yet;
    # graph keys live in graphs._INTERNED alone, never in linear._KEYS
    import copy
    import pickle
    import subprocess
    import sys

    from sweedler.graphs import _INTERNED
    from sweedler.linear import _KEYS, BasisKey, _encode_atom

    keys = list(graphs_c33.keys) + list(graphs_n33.keys)
    for key in keys:
        assert type(key) is BasisKey and _INTERNED[key.payload] is key
        assert key.encoded() == b"ks5:graph" + _encode_atom(key.payload)
        assert BasisKey("graph", key.payload) is key
        assert copy.copy(key) is key and copy.deepcopy(key) is key
        assert pickle.loads(pickle.dumps(key)) is key
    assert not any(k.tag == "graph" for k in _KEYS.values())
    # a raw payload that is not canonical is canonicalised
    assert BasisKey("graph", ("c", (2, 3), ((0, 1),), ((0, 1),))) is edge_contraction_class(3, 2)
    sent = [graph_class_key((2, 3), [(0, 1)], [(0, 1)], "c"),
            graph_class_key((2, 2, 3), [], [(0, 1), (2,)], "n")]
    proc = subprocess.run([sys.executable, "-c", _GRAPH_CHILD],
                          input=pickle.dumps(sent), capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.split() == [b"True", b"True", b"True", b"False"]


def test_edge_enumeration_bounded_by_flag_capacity():
    # three 3-flag corollas hold at most four ghost edges, so a larger edge
    # budget adds nothing; the sizes are those of the unbounded enumeration
    for mode, size in (("c", 253), ("n", 698)):
        keys = all_graph_classes(3, 9, 3, mode)
        assert keys == all_graph_classes(3, 4, 3, mode)
        assert len(keys) == size


def test_graph_morphism_document():
    doc = {
        "corollas": [
            {"name": "u", "flags": ["a", "b"]},
            {"name": "v", "flags": ["c", "d"]},
        ],
        "edges": [["u.a", "v.c"]],
        "merge": [],
    }
    m = GraphMorphism.from_doc(doc)
    assert m.class_key("c") == edge_contraction_class(2, 2)
    doc_bad = {
        "corollas": [{"name": "u", "flags": ["a", "a"]}],
        "edges": [],
    }
    with pytest.raises(InputError):
        GraphMorphism.from_doc(doc_bad)


def test_merge_document():
    doc = {
        "corollas": [
            {"name": "u", "flags": ["a", "b"]},
            {"name": "v", "flags": ["c"]},
        ],
        "edges": [],
        "merge": [["u", "v"]],
    }
    m = GraphMorphism.from_doc(doc)
    assert m.class_key("n") == merger_class(2, 1)
    with pytest.raises(InputError):
        m.class_key("c")


def test_flag_capacity_enforced():
    with pytest.raises(InputError):
        graph_class_key((1,), ((0, 0),), ((0,),), "c")


def test_validate_graph_bialgebras(graphs_c33, graphs_n33):
    for B in (graphs_c33, graphs_n33):
        assert validate_coalgebra(B.coalgebra).ok
        assert validate_bialgebra(B, sample_budget=150, seed=4).ok


def test_graph_grouplikes_are_identity_classes(graphs_c33):
    gpl, sgpl = find_grouplikes(graphs_c33.coalgebra)
    assert gpl == sgpl
    for k in gpl:
        _, sizes, edges, blocks = k.payload
        assert not edges and all(len(b) == 1 for b in blocks)
    assert graph_unit_key("c") in gpl


@pytest.mark.parametrize("connected", [True, False])
def test_graph_coproduct_runs_once_per_universe_key(connected, monkeypatch):
    # the universe closure and the spec share one memo: building the spec,
    # scanning for grouplikes, sweeping the filtration and the antipode of
    # the normalized quotient evaluate each key's coproduct once, and no
    # other key's
    from collections import Counter

    import sweedler.graphs as graphs
    from sweedler.constructions import normalized_quotient
    from sweedler.inversion import antipode
    from sweedler.structure import bivariate_filtration

    calls = Counter()

    def counted(key):
        calls[key] += 1
        return graph_coproduct(key)

    monkeypatch.setattr(graphs, "graph_coproduct", counted)
    B = graphs.build_graph_bialgebra(3, 3, 3, connected=connected)
    C = B.coalgebra
    find_grouplikes(C)
    assert bivariate_filtration(C).exhaustive
    assert calls == Counter(C.keys)
    # the normalized quotient reads its parent's memo, which the build filled
    antipode(normalized_quotient(B).bialgebra)
    assert calls == Counter(C.keys)


def test_graph_pathlike(graphs_c33, graphs_n33):
    for B in (graphs_c33, graphs_n33):
        verdict = verify_pathlike(B.coalgebra)
        assert verdict.is_pathlike, verdict.render()


def test_strip_identity_corollas():
    key = graph_product(identity_class((2, 3), "c"), loop_contraction_class(2))
    reduced, exps = strip_identity_corollas(key)
    assert reduced == loop_contraction_class(2)
    assert exps == {"q2": 1, "q3": 1}


def test_wt_homogeneous_coproduct(graphs_c33):
    C = graphs_c33.coalgebra
    for k in C.keys:
        w = C.grading(k)
        for (a, b), _ in C.delta(k):
            assert C.grading(a) + C.grading(b) == w
