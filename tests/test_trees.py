import functools
import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweedler.constructions import normalized_quotient
from sweedler.errors import InputError
from sweedler.linear import BasisKey, TensorSum, _encode_atom
from sweedler.specs import validate_bialgebra, validate_coalgebra
from sweedler.structure import find_grouplikes, verify_pathlike
from sweedler.trees import (
    LEAF,
    LINE,
    all_forest_keys,
    all_trees,
    build_tree_bialgebra,
    canonical_tree,
    forest_grading,
    forest_key,
    forest_leaves,
    forest_product,
    ladder,
    leaves,
    line_forest,
    parse_forest,
    parse_tree,
    tau,
    tree_coproduct,
    tree_literal,
    unit_key,
    vertices,
)


def test_bounded_enumeration_leaves_no_cyclic_garbage():
    # the enumerator's recursive closure is freed when it returns, not left
    # to the cyclic collector
    gc.collect()
    gc.disable()
    try:
        all_forest_keys(5, 5, "s")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_grammar_roundtrip_examples():
    for text in ("|", "v(.)", "v(v(.)v(.))", "v(..)", "v(.),|", "1",
                 "v(v(v(.)).)"):
        key = parse_forest(text, "p")
        assert str(key) == text.replace(" ", "")


def test_grammar_rejects_bad_literals():
    for text in ("v()", "v(.", "x", "v(|)", ".", "v(.))"):
        with pytest.raises(InputError):
            parse_forest(text, "s")


def test_symmetric_mode_sorts_siblings():
    left = parse_forest("v(v(.).)", "s")
    right = parse_forest("v(.v(.))", "s")
    assert left == right
    assert parse_forest("v(v(.).)", "p") != parse_forest("v(.v(.))", "p")


def test_symmetric_mode_sorts_forest_entries():
    assert parse_forest("v(.),|", "s") == parse_forest("|,v(.)", "s")
    assert parse_forest("v(.),|", "p") != parse_forest("|,v(.)", "p")


@st.composite
def random_trees(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return ("v",) + (LEAF,) * draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=3))
    children = tuple(
        draw(random_trees(depth=depth - 1)) if draw(st.booleans()) else LEAF
        for _ in range(n)
    )
    if all(c == LEAF for c in children):
        return ("v",) + children
    return ("v",) + children


@given(random_trees())
@settings(max_examples=200)
def test_literal_roundtrip_fuzz(tree):
    text = tree_literal(tree)
    parsed, end = parse_tree(text)
    assert end == len(text)
    assert parsed == tree


def test_literal_roundtrip_thousand():
    rng = random.Random(99)

    def grow(depth):
        if depth == 0 or rng.random() < 0.4:
            return ("v",) + (LEAF,) * rng.randint(1, 3)
        children = tuple(
            grow(depth - 1) if rng.random() < 0.5 else LEAF
            for _ in range(rng.randint(1, 3))
        )
        return ("v",) + children

    for _ in range(1000):
        tree = grow(4)
        parsed, end = parse_tree(tree_literal(tree))
        assert parsed == tree


def test_counts():
    cherry = parse_forest("v(v(.)v(.))", "s")
    assert forest_grading(cherry) == 3
    assert forest_leaves(cherry) == 2
    assert vertices(LINE) == 0
    assert forest_grading(line_forest(3, "s")) == 0
    assert forest_leaves(line_forest(3, "s")) == 3


def test_corolla_coproduct():
    for n in (1, 2, 3):
        t = tau(n, "s")
        expected = TensorSum.of([
            (line_forest(1, "s"), t),
            (t, line_forest(n, "s")),
        ])
        assert tree_coproduct(t) == expected


def test_ladder_coproduct():
    l2 = ladder(2, "s")
    expected = TensorSum.of([
        (line_forest(1, "s"), l2),
        (tau(1, "s"), tau(1, "s")),
        (l2, line_forest(1, "s")),
    ])
    assert tree_coproduct(l2) == expected


def test_cherry_coproduct_multiplicity():
    c3 = parse_forest("v(v(.)v(.))", "s")
    t21 = parse_forest("v(.v(.))", "s")
    d = tree_coproduct(c3)
    assert len(d) == 4
    assert d.coeff(t21, parse_forest("v(.),|", "s")) == 2
    assert d.coeff(tau(2, "s"), parse_forest("v(.),v(.)", "s")) == 1
    assert d.coeff(c3, line_forest(2, "s")) == 1
    assert d.coeff(line_forest(1, "s"), c3) == 1


def test_planar_cherry_keeps_order():
    c3 = parse_forest("v(v(.)v(.))", "p")
    d = tree_coproduct(c3)
    # the two middle cuts stay distinct in planar mode
    assert len(d) == 5
    assert all(c == 1 for _, c in d)


def test_tau_tau_multiplicity():
    k = parse_forest("v(.),v(.)", "s")
    d = tree_coproduct(k)
    assert d.coeff(
        parse_forest("v(.),|", "s"), parse_forest("v(.),|", "s")
    ) == 2


def test_coproduct_homogeneous(trees_sym4):
    C = trees_sym4.coalgebra
    for k in C.keys:
        v = forest_grading(k)
        l = forest_leaves(k)
        for (a, b), _ in C.delta(k):
            assert forest_grading(a) + forest_grading(b) == v
            assert forest_leaves(b) == l
            assert forest_leaves(a) <= l


def test_representative_independence():
    # enumerate the labeled cuts of a scrambled (non-canonical) ordered
    # representative as a planar forest, push them to symmetric classes,
    # and compare with the coproduct of the canonical class key
    rng = random.Random(7)

    def shuffled(tree):
        if tree == LINE or tree == LEAF:
            return tree
        children = [shuffled(c) for c in tree[1:]]
        rng.shuffle(children)
        return ("v",) + tuple(children)

    for text in ("v(v(.)v(..))", "v(v(.).v(.))", "v(v(v(.))..)"):
        base = parse_forest(text, "s")
        tree = base.payload[1]
        for _ in range(3):
            variant = shuffled(tree)
            pushed = TensorSum.of(
                (forest_key(a.payload[1:], "s"), forest_key(b.payload[1:], "s"), c)
                for (a, b), c in tree_coproduct(forest_key((variant,), "p"))
            )
            assert forest_key((variant,), "s") == base
            assert pushed == tree_coproduct(base)


def test_enumeration_counts_small():
    # trees with one vertex and l leaves: exactly the corollas
    assert len(all_trees(1, 4, "s")) == 1 + 4  # line + tau_1..tau_4
    # two vertices, <= 2 leaves, symmetric: v(v(.)), v(v(.).), v(v(..))
    two = [t for t in all_trees(2, 2, "s") if vertices(t) == 2]
    assert len(two) == 3
    keys = all_forest_keys(2, 2, "s")
    assert unit_key("s") in keys
    assert all(forest_grading(k) <= 2 and forest_leaves(k) <= 2 for k in keys)


def test_planar_enumeration_distinguishes_order():
    keys = set(all_forest_keys(2, 2, "p"))
    assert parse_forest("v(.),|", "p") in keys
    assert parse_forest("|,v(.)", "p") in keys


def test_validate_tree_bialgebras(trees_sym4, trees_planar4):
    for B in (trees_sym4, trees_planar4):
        assert validate_coalgebra(B.coalgebra).ok
        assert validate_bialgebra(B, exhaustive_degree=4).ok


def test_tree_grouplikes_and_pathlike(trees_sym4, trees_planar4):
    for B in (trees_sym4, trees_planar4):
        gpl, sgpl = find_grouplikes(B.coalgebra)
        assert gpl == sgpl
        assert all(forest_grading(k) == 0 for k in gpl)
        verdict = verify_pathlike(B.coalgebra)
        assert verdict.is_pathlike, verdict.render()


def test_class_pair_deduplication_breaks_compatibility():
    # collapsing multiplicities to one provably violates the product rule
    k = parse_forest("v(.),v(.)", "s")
    collapsed = TensorSum({pair: Fraction(1) for pair, _ in tree_coproduct(k)})
    d1 = tree_coproduct(tau(1, "s"))
    product_side = d1.tensor_mul(
        d1, lambda a, b: forest_key(a.payload[1:] + b.payload[1:], "s"))
    assert collapsed != product_side
    assert tree_coproduct(k) == product_side


@pytest.mark.parametrize("mode", ["s", "p"])
def test_coproduct_is_multiplicative(mode):
    # Delta(k1 k2) = Delta(k1) Delta(k2) for every key of trees(5,5) split
    # after its first tree (the unit and forests with repeated trees among
    # them) and for random products beyond the truncation; a coproduct that
    # collapses multiplicities to 1 fails it
    keys = all_forest_keys(5, 5, mode)
    splits = [(forest_key(k.payload[1:2], mode), forest_key(k.payload[2:], mode))
              for k in keys]
    assert [forest_product(a, b) for a, b in splits] == keys
    assert unit_key(mode) in keys and parse_forest("v(.),v(.)", mode) in keys
    rng = random.Random(29)
    pairs = splits + [(rng.choice(keys), rng.choice(keys)) for _ in range(500)]
    failures = [
        (str(a), str(b)) for a, b in pairs
        if tree_coproduct(forest_product(a, b))
        != tree_coproduct(a).tensor_mul(tree_coproduct(b), forest_product)
    ]
    assert not failures, failures[:5]


def test_deep_key_bytes_and_literal_cost_the_tree():
    # a deep key's bytes and literal are one walk of its tree each; storing
    # bytes on every subshape of a ladder would take memory quadratic in
    # its depth (about 350 MB at this depth).  The child reads its peak RSS
    # from VmHWM: on Linux its getrusage maxrss would start at the peak of
    # this test process, which exec carries over
    import subprocess
    import sys

    child = """
import time
start = time.perf_counter()
from sweedler.linear import _encode_atom
from sweedler.trees import ladder, tree_literal
key = ladder(10_000)
ok = (key.encoded() == b"k" + _encode_atom("forest") + _encode_atom(key.payload),
      str(key) == tree_literal(key.payload[1]))
seconds = time.perf_counter() - start
with open("/proc/self/status") as status:
    peak_kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(*ok, seconds, peak_kb)
"""
    proc = subprocess.run([sys.executable, "-c", child], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    same_bytes, same_text, seconds, peak_kb = proc.stdout.split()
    assert same_bytes == same_text == b"True"
    assert float(seconds) <= 1.0
    assert int(peak_kb) <= 60 * 1024


def test_deep_trees_need_no_python_stack():
    # canonical form, product, coproduct, rendering and encoding all walk
    # explicit stacks; the default recursion limit is a tenth of the depth
    n = 10_000
    key = ladder(n)
    tree = key.payload[1]
    assert key is ladder(n)
    assert forest_grading(key) == n and forest_leaves(key) == 1
    square = forest_product(key, key)  # a key: coefficient 1
    assert isinstance(square, BasisKey) and square.payload == ("s", tree, tree)
    d = tree_coproduct(key)
    assert len(d) == n + 1 and all(c == 1 for _, c in d)
    for k in (1, 5000, n - 1):
        assert d.coeff(ladder(k), ladder(n - k)) == 1
    assert d.coeff(line_forest(1), key) == 1 and d.coeff(key, line_forest(1)) == 1
    assert str(key) == "v(" * n + "." + ")" * n
    assert len(key.encoded()) > 7 * n
    # two deep trees that agree for 5,000 levels still sort, by literal
    short, long = ladder(5000).payload[1], ladder(6000).payload[1]
    pair = forest_key((long, short), "s")
    assert pair.payload[1:] == (short, long)
    assert pair is forest_key((short, long), "s")


_FRESH_CHILD = """
import json, pickle, sys
forest, qkey = pickle.loads(sys.stdin.buffer.read())  # before any tree is built
from sweedler.constructions import q_deform, q_key
from sweedler.trees import build_tree_bialgebra, forest_grading, parse_forest, tree_coproduct
literal, base_literal = sys.argv[1:]
D = q_deform(build_tree_bialgebra(2)).bialgebra  # holds neither base tree
print(json.dumps([
    forest_grading(forest), tree_coproduct(forest).render(),
    forest is parse_forest(literal),
    D.grading(qkey), D.delta(qkey).render(),
    qkey is q_key(parse_forest(base_literal), {"q": 2}),
]))
"""


def test_keys_unpickled_in_a_fresh_interpreter():
    # the trees code reads shapes by the identity of interned trees, so a
    # forest key, bare or under a q-deformation, that another interpreter
    # unpickles before it builds that forest must be rebuilt by its family
    import json
    import pickle
    import subprocess
    import sys

    from sweedler.constructions import q_deform

    literal, base_literal = "v(v(.)v(..)),v(.)", "v(v(v(.)).)"
    forest = parse_forest(literal)
    D = q_deform(build_tree_bialgebra(2))
    qkey = D.reduce_key(parse_forest(base_literal + ",|,|"))
    B = D.bialgebra
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CHILD, literal, base_literal],
        input=pickle.dumps((forest, qkey)), capture_output=True,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == [
        4, tree_coproduct(forest).render(), True,
        3, B.delta(qkey).render(), True,
    ]
    assert len(tree_coproduct(forest)) == 10 and len(B.delta(qkey)) == 4


_RAW_CHILD = """
from sweedler.linear import BasisKey
from sweedler.trees import forest_grading, parse_forest
key = BasisKey("forest", ("s", ("v", (".",), (".",), (".",))))  # before the trees code builds it
print(key is parse_forest("v(...)"), forest_grading(key))
"""


def test_raw_forest_payload_builds_the_family_key():
    # BasisKey("forest", ...) hands a raw payload to forest_key, so the key
    # holds interned trees even when nothing built that forest before
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", _RAW_CHILD], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.split() == [b"True", b"1"]


def test_deep_keys_copy_and_pickle():
    # copies are the key itself, and a forest key pickles as its literal,
    # so neither walks the nested payload with the interpreter's stack
    import copy
    import pickle

    key = ladder(2000)
    assert copy.copy(key) is key and copy.deepcopy(key) is key
    assert copy.deepcopy([key, (key,)])[1][0] is key
    assert pickle.loads(pickle.dumps(key)) is key
    pair = forest_product(key, parse_forest("v(.),|"))
    assert pickle.loads(pickle.dumps(pair)) is pair


_LADDER_CHILD = """
import tracemalloc
tracemalloc.start()
from sweedler.trees import ladder, tree_coproduct
print(len(tree_coproduct(ladder(5000))), tracemalloc.get_traced_memory()[1])
"""


def test_deep_coproduct_costs_its_new_structure():
    # no one orders the 10,002 factors of a ladder's coproduct, so they carry
    # no bytes; with a full encoding per key this peaks near 100 MB
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", _LADDER_CHILD], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    terms, peak = map(int, proc.stdout.split())
    assert terms == 5001
    assert peak < 20 * 2 ** 20


# ---------------------------------------------------------------------------
# The shape table against its oracles


@given(random_trees(), random_trees(), st.sampled_from(["s", "p"]))
@settings(max_examples=200)
def test_shape_table_matches_recursive_oracle(tree, other, mode):
    key = forest_key((tree,), mode)
    canon = key.payload[1]
    assert canon == canonical_tree(tree, mode)
    # interning is idempotent: the canonical tuple and key come back as is
    assert forest_key((canon,), mode) is key
    assert forest_key((canonical_tree(tree, mode),), mode) is key
    assert vertices(tree) == tree_literal(tree).count("v")
    assert leaves(tree) == tree_literal(tree).count(".")
    # literals sort like tuples, which the deep-tree fallback relies on
    assert (tree < other) == (tree_literal(tree) < tree_literal(other))


def test_two_labellings_are_one_key_object():
    assert parse_forest("v(v(.).)", "s") is parse_forest("v(.v(.))", "s")
    assert parse_forest("v(.),|", "s") is parse_forest("|,v(.)", "s")
    raw = ("v", ("v", LEAF, ("v", LEAF)), LEAF)
    assert forest_key((raw,), "p") is parse_forest(tree_literal(raw), "p")
    assert forest_key((raw,), "s") is parse_forest("v(.v(.v(.)))", "s")
    # equal subtrees are one tuple, too
    (tree,) = forest_key((("v", ("v", LEAF), ("v", LEAF)),), "s").payload[1:]
    assert tree[1] is tree[2]


def _oracle_trees(max_vertices, max_leaves, mode):
    """The trees within the bounds, from ordered child sequences and the
    recursive canonical form."""

    @functools.lru_cache(maxsize=None)
    def exact(v, l):
        if v < 1 or l < 1:
            return ()
        return tuple(sorted({canonical_tree(("v",) + ch, mode)
                             for ch in seqs(v - 1, l) if ch}))

    @functools.lru_cache(maxsize=None)
    def seqs(v, l):
        if v == 0 and l == 0:
            return ((),)
        out = [(LEAF,) + rest for rest in seqs(v, l - 1)] if l >= 1 else []
        for v1 in range(1, v + 1):
            for l1 in range(1, l + 1):
                for t in exact(v1, l1):
                    out.extend((t,) + rest for rest in seqs(v - v1, l - l1))
        return tuple(out)

    out = [LINE]
    for v in range(1, max_vertices + 1):
        for l in range(1, max_leaves + 1):
            out.extend(exact(v, l))
    return out


def _oracle_forest_keys(max_vertices, max_leaves, mode):
    """The enumeration loop that scans every shape at every step."""
    trees = _oracle_trees(max_vertices, max_leaves, mode)
    weights = [(tree_literal(t).count("v"), tree_literal(t).count(".") + (t == LINE))
               for t in trees]
    keys = set()

    def go(start, chosen, v_left, l_left):
        keys.add(forest_key(tuple(chosen), mode))
        for j in range(start, len(trees)):
            v, l = weights[j]
            if v <= v_left and l <= l_left:
                chosen.append(trees[j])
                go(j if mode == "s" else 0, chosen, v_left - v, l_left - l)
                chosen.pop()

    go(0, [], max_vertices, max_leaves)
    return keys


@pytest.mark.parametrize("bounds", [(4, 4, "s"), (4, 4, "p"), (5, 3, "s"),
                                    (3, 5, "p"), (5, 5, "s")])
def test_forest_enumeration_matches_scanning_loop(bounds):
    keys = all_forest_keys(*bounds)
    assert len(keys) == len(set(keys))
    assert set(keys) == _oracle_forest_keys(*bounds)
    assert keys == sorted(keys)


def test_quotient_coproduct_factors_are_universe_objects():
    Q = normalized_quotient(build_tree_bialgebra(5, 5, "s")).bialgebra
    held = {k: k for k in Q.keys}
    factors = 0
    for k in Q.keys:
        for (a, b), _ in Q.delta(k):
            assert held[a] is a and held[b] is b
            factors += 2
    assert factors > 7000


def test_shapes_interned_across_threads():
    # four threads canonicalise the same shuffled, never-seen trees at once
    # (a five-vertex chain over a random tree: six or more levels with more
    # than one leaf, which no other test builds) and cut them; every thread
    # must get the one interned key and the same coproduct of each class
    import sys
    import threading

    rng = random.Random(31)

    def grow(budget):
        children = []
        while budget > 0 and len(children) < 3:
            size = rng.randint(1, budget)
            children.append(grow(size - 1) if rng.random() < 0.8 else LEAF)
            budget -= size
        return ("v",) + tuple(children or (LEAF,))

    def shuffled(tree):
        if tree == LEAF:
            return tree
        children = [shuffled(c) for c in tree[1:]]
        rng.shuffle(children)
        return ("v",) + tuple(children)

    inputs, classes = [], []
    for cls in range(10):
        tree = grow(rng.randint(12, 16))
        for _ in range(5):
            tree = ("v", tree)
        assert tree_literal(tree).count(".") > 1
        for _ in range(3):
            inputs.append(shuffled(tree))
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
                    key = forest_key((inputs[i],), "s")
                    results[t][i] = (key, tree_coproduct(key))
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
    first = {}
    for i, cls in enumerate(classes):
        for t in range(4):
            key, d = results[t][i]
            assert key.payload[1] == canonical_tree(inputs[i], "s")
            assert first.setdefault(cls, (key, d))[0] is key
            assert d == first[cls][1]
    for t in range(4):
        for i in range(len(inputs)):
            for (a, b), _ in results[t][i][1]:
                assert forest_key(a.payload[1:], "s") is a
                assert forest_key(b.payload[1:], "s") is b


def test_forest_bytes_filled_across_threads():
    # four threads build, sort and encode the same never-seen forests in
    # rounds that start together (pairs of corollas of 40 to 99 leaf slots,
    # which no other test builds); each forest must be one object, and every
    # thread must read the bytes of the reference encoding
    import sys
    import threading

    corollas = [forest_key((("v",) + (LEAF,) * n,), "s").payload[1] for n in range(40, 100)]
    pairs = list(itertools.combinations_with_replacement(corollas, 2))
    rounds = [pairs[r::6] for r in range(6)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        barrier = threading.Barrier(4, timeout=30)
        errors = []
        results = [[] for _ in range(4)]

        def work(t):
            try:
                for batch in rounds:
                    barrier.wait()
                    keys = [forest_key(f, "s") for f in batch]
                    results[t].append((keys, sorted(keys), [k.encoded() for k in keys]))
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
    for r, batch in enumerate(rounds):
        keys = [forest_key(f, "s") for f in batch]
        reference = {k: b"k" + _encode_atom(k.tag) + _encode_atom(k.payload) for k in keys}
        for got, ordered, encs in (res[r] for res in results):
            assert all(a is b for a, b in zip(got, keys))
            assert encs == [reference[k] for k in keys]
            assert ordered == sorted(keys, key=reference.__getitem__)
