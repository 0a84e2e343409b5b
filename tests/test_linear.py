from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweedler import linear
from sweedler.constructions import q_key
from sweedler.errors import RuleNotFound
from sweedler.gallery import (
    double_key, interval_key, monoid_key, path_key, setlike_key, vertex_key, word_key,
    word_product_key,
)
from sweedler.graphs import graph_class_key
from sweedler.linear import BasisKey, FormalSum, TensorSum, _encode_atom, rule_counts
from sweedler.renorm import LaurentPoly
from sweedler.scalars import render_scalar
from sweedler.trees import forest_key, ladder, parse_forest


# strategies for structured payloads and sums

atoms = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(alphabet="abcxyz01", min_size=0, max_size=4),
)
payloads = st.recursive(
    atoms, lambda inner: st.tuples(inner, inner), max_leaves=6
)
keys = st.builds(BasisKey, st.sampled_from(["a", "b", "zz"]), st.tuples(payloads))
coeffs = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
)
sums = st.dictionaries(keys, coeffs, max_size=5).map(FormalSum)


raw_atoms = st.one_of(
    st.booleans(),
    st.integers(min_value=-2, max_value=2),
    st.text(alphabet="ab\u00e9", max_size=2),
)
raw_payloads = st.recursive(
    raw_atoms, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=8
)
tags = st.sampled_from(["a", "b"])


def _typed(x):
    """``x`` with each atom's type beside it, so that True and 1 differ."""
    if isinstance(x, tuple):
        return ("tuple", tuple(map(_typed, x)))
    return (type(x).__name__, x)


def _bools_to_ints(x):
    if isinstance(x, tuple):
        return tuple(map(_bools_to_ints, x))
    return int(x) if isinstance(x, bool) else x


@given(tags, raw_payloads, tags, raw_payloads)
def test_encoding_injective(t1, p1, t2, p2):
    # encodings are equal exactly when the type-tagged inputs are; the
    # second pair is p1 with every bool made an int
    for other in ((t2, p2), (t1, _bools_to_ints(p1))):
        same = _typed((t1, p1)) == _typed(other)
        assert (BasisKey(t1, p1).encoded() == BasisKey(*other).encoded()) == same


def test_encoding_bytes_pinned():
    # the byte format orders every sum and golden file: non-ASCII text is
    # sized in UTF-8 bytes, and bool stays distinct from int
    key = BasisKey("a", ("\u00e9", -5, True, 1, ()))
    assert key.encoded() == b"ks1:at5:s2:\xc3\xa9i2:-5b1i1:1t0:"


def test_deep_payload_reinterns_to_its_key():
    # re-interning a deep key's payload must give back the very same key
    key = ladder(10_000)
    assert forest_key(key.payload[1:], "s") is key
    assert BasisKey("forest", key.payload) is key


def _reference_bytes(key):
    return b"k" + _encode_atom(key.tag) + _encode_atom(key.payload)


def test_lazy_bytes_are_the_reference_encoding(graphs_c33, graphs_n33):
    # forest keys fill their bytes on first use from per-shape encodings of
    # their trees, and graph and q keys from their payloads; bytes and key
    # order must be those of the whole payload's encoding, for universe,
    # quotient and q keys and for products that nothing has sorted yet
    import random

    from sweedler.constructions import normalized_quotient, q_deform
    from sweedler.graphs import graph_product
    from sweedler.trees import build_tree_bialgebra, forest_product

    rng = random.Random(13)
    keys = []
    for mode in ("s", "p"):
        B = build_tree_bialgebra(5, 5, mode)
        universe = list(B.keys)
        keys += universe
        keys += [forest_product(rng.choice(universe), rng.choice(universe))
                 for _ in range(2000)]
        keys += normalized_quotient(B).bialgebra.keys
        keys += q_deform(B).bialgebra.keys
    for G in (graphs_c33, graphs_n33):
        universe = list(G.keys)
        keys += universe
        keys += [graph_product(rng.choice(universe), rng.choice(universe))
                 for _ in range(500)]
    keys = list(dict.fromkeys(keys))
    rng.shuffle(keys)
    assert {k.tag for k in keys} == {"forest", "q", "graph"}
    ordered = sorted(keys)  # fills the bytes of the products
    assert ordered == sorted(keys, key=_reference_bytes)
    assert all(k.encoded() == _reference_bytes(k) for k in keys)
    terms = FormalSum({k: 1 for k in keys}).sorted_terms()
    assert [k for k, _ in terms] == ordered


def test_tree_bytes_are_the_reference_encoding():
    # the per-shape walk writes what the generic payload encoder writes, for
    # every shape of trees(6,6) (subtrees and cut stumps are among them)
    from sweedler.trees import LEAF, _tree_bytes, all_trees

    for mode in ("s", "p"):
        shapes = [LEAF] + all_trees(6, 6, mode)
        wrong = [t for t in shapes if _tree_bytes(t) != _encode_atom(t)]
        assert not wrong, wrong[:3]


def test_forest_literal_is_the_comma_join():
    # a forest key joins its literal once and keeps it; the kept text must
    # be the join of its trees' literals, "1" for the unit
    import random

    from sweedler.trees import all_forest_keys, forest_product, tree_literal

    rng = random.Random(17)
    for mode in ("s", "p"):
        keys = all_forest_keys(5, 5, mode)
        keys += [forest_product(rng.choice(keys), rng.choice(keys)) for _ in range(2000)]
        expected = [",".join(map(tree_literal, k.payload[1:])) or "1" for k in keys]
        assert [str(k) for k in keys] == expected
        assert [str(k) for k in keys] == expected  # read back from the key


_PICKLE_CHILD = """
import pickle, sys
keys = pickle.loads(sys.stdin.buffer.read())  # before any tree is built
from sweedler.trees import parse_forest
sys.stdout.buffer.write(pickle.dumps(
    ([(str(k), k.encoded(), k is parse_forest(str(k), k.payload[0])) for k in keys], keys)))
"""


def test_forest_keys_pickle_into_a_fresh_interpreter():
    # a key pickles as its literal; another interpreter builds it again with
    # the same literal and bytes, and its pickle comes back as the same key
    import pickle
    import subprocess
    import sys

    from sweedler.trees import forest_product, parse_forest, unit_key

    keys = [unit_key("s"), unit_key("p"), parse_forest("v(.),|", "p"),
            parse_forest("|,v(.)", "p"), parse_forest("v(v(.)v(..)),v(.),v(.)", "s"),
            ladder(50), forest_product(ladder(3), parse_forest("v(..),|"))]
    str(keys[2]), str(keys[4])  # some keys already hold their literal
    proc = subprocess.run([sys.executable, "-c", _PICKLE_CHILD],
                          input=pickle.dumps(keys), capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    seen, back = pickle.loads(proc.stdout)
    assert seen == [(str(k), k.encoded(), True) for k in keys]
    assert all(a is b for a, b in zip(back, keys))


def test_deep_keys_compare_without_recursion():
    # a deep key built again is the very key it encodes, so == never walks
    # the nested tuples (which overflow the stack near depth 1000)
    key = ladder(1000)
    again = ladder(1000)
    assert again is key
    assert again == key and not again != key
    assert key != ladder(999) and not key == ladder(999)
    assert BasisKey("a", (1,)) != BasisKey("b", (1,))
    assert BasisKey("a", (1,)) != (1,)


def test_bool_and_int_payloads_are_distinct_keys():
    # the key table is keyed by encoding, where True and 1 differ
    assert BasisKey("a", (True,)) is not BasisKey("a", (1,))
    assert BasisKey("a", (True,)) is BasisKey("a", (True,))
    assert BasisKey("a", (1,)) is BasisKey("a", (1,))


def test_copied_keys_are_the_stored_key():
    import copy
    import pickle

    key = BasisKey("a", ("x", (1, True)))
    assert copy.copy(key) is key and copy.deepcopy(key) is key
    assert pickle.loads(pickle.dumps(key)) is key


def _race(build, payloads, rounds=6):
    """Four threads build the keys of ``payloads`` in rounds that start
    together; returns each thread's keys, in payload order."""
    import sys
    import threading

    size = len(payloads) // rounds
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        barrier = threading.Barrier(4, timeout=30)
        errors = []
        results = [[] for _ in range(4)]

        def work(t):
            try:
                for r in range(rounds):
                    barrier.wait()
                    results[t].extend(map(build, payloads[r * size:(r + 1) * size]))
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
    return results


def test_keys_interned_across_threads():
    # four threads build the same never-seen keys of a family no module
    # interns for itself; each encoding must give all of them one object
    payloads = [(r, i, ("x",) * (i % 5)) for r in range(6) for i in range(500)]
    results = _race(lambda p: BasisKey("thr", p), payloads)
    for i, p in enumerate(payloads):
        key = BasisKey("thr", p)
        assert all(r[i] is key for r in results)


def test_family_keys_interned_across_threads():
    # the same race on never-seen path and word keys, which their family
    # tables publish through linear.intern
    from sweedler.gallery import path_key, word_key

    names = [f"race{r}_{i}" for r in range(6) for i in range(300)]
    for build in (lambda n: path_key(("e", n, n)), lambda n: word_key("a", (n,), "b")):
        results = _race(build, names)
        for i, n in enumerate(names):
            key = build(n)
            assert all(r[i] is key for r in results)


def test_family_keys_live_once_and_encode_on_first_use():
    # BasisKey, copies and unpickling of a path, word or product key give
    # the family's key; it is stored in its family table alone and has no
    # bytes until the key order asks for them
    import copy
    import pickle

    from sweedler.gallery import _PATHS, _WORDS, path_key, word_key, word_product_key
    from sweedler.linear import _KEYS

    w1, w2 = word_key("a", ("fresh1",), "b"), word_key("b", ("fresh2",), "a")
    keys = [path_key(("fresh1", "fresh2")), w1, word_product_key([w1, w2])]
    assert [k.tag for k in keys] == ["path", "word", "wprod"]
    assert keys[0] is _PATHS[keys[0].payload]
    assert all(_WORDS[k.payload] is k for k in keys[1:])
    for key in keys:
        assert BasisKey(key.tag, key.payload) is key
        assert copy.copy(key) is key and copy.deepcopy(key) is key
        assert pickle.loads(pickle.dumps(key)) is key
        assert key not in _KEYS.values() and key._enc is None
    assert sorted(keys) == sorted(keys, key=_reference_bytes)
    assert all(k._enc == _reference_bytes(k) for k in keys)


def test_encoding_injective_bulk():
    # canonicality at scale: >= 10^4 generated keys, all encodings distinct
    universe = [
        BasisKey("t", (i, j, s))
        for i in range(40)
        for j in range(51)
        for s in ("x", "y", ("p", "q"), 7, ("a", ("b",)))
    ]
    assert len(universe) >= 10 ** 4
    encodings = {k.encoded() for k in universe}
    assert len(encodings) == len(universe)


def test_key_order_deterministic():
    ks = [BasisKey("b", (1,)), BasisKey("a", (2,)), BasisKey("a", (1, 1))]
    once = sorted(ks)
    assert sorted(reversed(ks)) == once


@given(sums, sums, sums)
@settings(max_examples=60)
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(sums, sums, coeffs)
@settings(max_examples=60)
def test_scalar_distributivity(a, b, c):
    assert (a + b).scale(c) == a.scale(c) + b.scale(c)


@given(sums)
def test_no_zero_coefficients(a):
    assert all(c != 0 for _, c in a)
    assert (a - a).is_zero()
    assert a + FormalSum.zero() == a


def test_scaling_prunes_zero():
    k = BasisKey("a", (1,))
    assert FormalSum.basis(k).scale(Fraction(0)).is_zero()
    assert FormalSum({k: Fraction(0)}).is_zero()


def test_render_contract():
    k1 = BasisKey("a", ("x",))
    k2 = BasisKey("a", ("y",))
    s = FormalSum({k2: Fraction(-1, 2), k1: Fraction(3)})
    assert s.render() == "3*a:('x',) + -1/2*a:('y',)"
    # int coefficients render as render_scalar renders them
    assert FormalSum({k2: -2, k1: 3}).render() == "3*a:('x',) + -2*a:('y',)"
    t = TensorSum({(k1, k2): -7, (k2, k1): Fraction(5, 3), (k1, k1): Fraction(4)})
    assert t.render() == "4*a:('x',)(x)a:('x',) + -7*a:('x',)(x)a:('y',) + 5/3*a:('y',)(x)a:('x',)"
    assert FormalSum.zero().render() == "0"


def test_render_scalar():
    assert render_scalar(Fraction(3)) == "3"
    assert render_scalar(Fraction(-1, 2)) == "-1/2"
    assert render_scalar(3) == "3"


def test_render_scalar_refuses_float():
    # a float coefficient is a leak out of exact arithmetic, never a value
    with pytest.raises(TypeError):
        render_scalar(0.5)
    with pytest.raises(TypeError):
        FormalSum({BasisKey("a", (1,)): 2.0}).render()


def test_tensor_sum_basics():
    a, b = BasisKey("a", (1,)), BasisKey("a", (2,))
    t = TensorSum.pure(a, b) + TensorSum.pure(b, a).scale(Fraction(2))
    assert t.flip() == TensorSum.pure(b, a) + TensorSum.pure(a, b).scale(Fraction(2))
    assert t.coeff(a, b) == 1
    assert (t - t).is_zero()


def test_tensor_of_accumulates():
    a = BasisKey("a", (1,))
    t = TensorSum.of([(a, a), (a, a)])
    assert t.coeff(a, a) == 2


_a, _b = BasisKey("a", (1,)), BasisKey("a", (2,))


@pytest.mark.parametrize("value", [
    FormalSum({_a: Fraction(3), _b: Fraction(-1, 2)}),
    TensorSum({(_a, _b): Fraction(2), (_b, _b): Fraction(-5)}),
    LaurentPoly({-1: 3, 2: Fraction(1, 4)}),
], ids=lambda v: type(v).__name__)
def test_sparse_sum_core(value):
    assert (value - value).is_zero()
    assert value - value == type(value).zero()
    assert -(-value) == value
    assert type(value).zero() - value == -value
    twin = type(value)(dict(reversed(list(value.terms.items()))))
    assert twin == value and hash(twin) == hash(value)
    assert FormalSum.zero() != TensorSum.zero() != LaurentPoly.zero()
    assert FormalSum.zero() != LaurentPoly.zero()


# One sample key per declared family, its literal, and its character rule
# counts (None where the family counts no generators).
_FAMILY_SAMPLES = {
    "forest": (parse_forest("v(.),|", "p"), "v(.),|", (("grouplike", 1), ("vertex", 1))),
    "graph": (graph_class_key((3, 1, 1), ((0, 1), (0, 0)), [(0, 1), (2,)], "n"),
              "g(1,1,3|1-2,2-2|1.2)",
              (("grouplike", 1), ("edge", 1), ("loop", 1), ("merger", 1))),
    "q": (q_key(parse_forest("v(.)", "s"), {"q": -1}), "v(.)*q^-1",
          (("grouplike", 0), ("vertex", 1), ("grouplike", -1))),
    "vx": (vertex_key("v"), "v", None),
    "path": (path_key(("e", "f")), "e.f", None),
    "int": (interval_key("x", "y"), "[x,y]", None),
    "mon": (monoid_key("m"), "m", None),
    "word": (word_key("a", ("b", "c"), "d"), "I(a;b,c;d)", None),
    "wprod": (word_product_key([word_key("a", ("b", "c"), "d"), word_key("a", ("b",), "a")]),
              "I(a;b;a).I(a;b,c;d)", None),
    "set": (setlike_key("s"), "s", None),
    "dbl": (double_key("g", "x"), "<g,x>", None),
    "ddbl": (BasisKey("ddbl", ("g", "x")), "d<g,x>", None),
}


def test_every_declared_family_has_a_sample():
    assert sorted(_FAMILY_SAMPLES) == sorted(linear._FAMILIES)


@pytest.mark.parametrize("tag", sorted(linear._FAMILIES))
def test_declared_family_keys(tag):
    # each family's key renders its literal, is the one key its payload
    # builds, pickles to itself and counts its generators or none
    import pickle

    key, literal, counts = _FAMILY_SAMPLES[tag]
    assert key.tag == tag and str(key) == literal
    assert BasisKey(tag, key.payload) is key
    assert pickle.loads(pickle.dumps(key)) is key
    if counts is None:
        with pytest.raises(RuleNotFound):
            rule_counts(key)
    else:
        assert rule_counts(key) == counts
