
import itertools
import random

import pytest

from sweedler.errors import InputError, UnsupportedError
from sweedler.gallery import (
    ColoredMonoid,
    Group,
    Poset,
    Quiver,
    boolean_poset,
    build_categorical_coalgebra,
    build_drinfeld_double,
    build_drinfeld_double_dual,
    build_incidence_coalgebra,
    build_path_coalgebra,
    build_setlike_coalgebra,
    build_word_coalgebra,
    chain_poset,
    complete_quiver,
    coopposite,
    cyclic_group,
    double_key,
    free_monoid_one_generator,
    goncharov_coproduct,
    interval_key,
    monoid_key,
    path_key,
    poset_monoid,
    symmetric_group_3,
    vertex_key,
    word_key,
    word_product_key,
)
from sweedler.linear import BasisKey, FormalSum, TensorSum
from sweedler.specs import validate_bialgebra, validate_coalgebra


# ---------------------------------------------------------------------------
# paths


def test_edge_coproduct(single_edge_paths):
    e = path_key(("e",))
    expected = TensorSum.of(
        [(vertex_key("v"), e), (e, vertex_key("w"))]
    )
    assert single_edge_paths.delta(e) == expected


def test_vertex_grouplike(single_edge_paths):
    v = vertex_key("v")
    assert single_edge_paths.delta(v) == TensorSum.pure(v, v)
    assert single_edge_paths.counit(v) == 1
    assert single_edge_paths.counit(path_key(("e",))) == 0


def test_two_step_path_coproduct():
    quiver = Quiver(("a", "b", "c"), (("e1", "a", "b"), ("e2", "b", "c")))
    C = build_path_coalgebra(quiver, 2)
    p = path_key(("e1", "e2"))
    expected = TensorSum.of([
        (vertex_key("a"), p),
        (path_key(("e1",)), path_key(("e2",))),
        (p, vertex_key("c")),
    ])
    assert C.delta(p) == expected
    assert len(C.delta(p)) == 3


def test_quiver_rejects_bad_input():
    with pytest.raises(InputError):
        Quiver(("v",), (("e", "v", "nowhere"),))
    with pytest.raises(InputError):
        Quiver(("v", "v"), ())


def test_path_enumeration_truncates():
    C = build_path_coalgebra(complete_quiver(("0", "1")), 3)
    lengths = {}
    for k in C.keys:
        lengths[C.grading(k)] = lengths.get(C.grading(k), 0) + 1
    # words in two vertices: 2 of each length except length 0 has 2 vertices
    assert lengths == {0: 2, 1: 2, 2: 2, 3: 2}


# ---------------------------------------------------------------------------
# incidence


def test_chain_interval_coproduct():
    C = build_incidence_coalgebra(chain_poset(2))
    expected = TensorSum.of([
        (interval_key("0", "0"), interval_key("0", "2")),
        (interval_key("0", "1"), interval_key("1", "2")),
        (interval_key("0", "2"), interval_key("2", "2")),
    ])
    assert C.delta(interval_key("0", "2")) == expected


def test_point_interval_grouplike():
    C = build_incidence_coalgebra(chain_poset(2))
    k = interval_key("1", "1")
    assert C.delta(k) == TensorSum.pure(k, k)


def test_boolean_lattice_middle_terms():
    # one summand per z in the interval: 4 elements in [bottom, top]
    C = build_incidence_coalgebra(boolean_poset(2))
    top = interval_key("00", "11")
    assert len(C.delta(top)) == 4
    strict = [
        (a, b) for (a, b), _ in C.delta(top)
        if a != interval_key("00", "00") and a != top
    ]
    assert len(strict) == 2  # the two atoms


def test_poset_rejects_cycles():
    with pytest.raises(InputError):
        Poset(["a", "b"], [("a", "b"), ("b", "a")])


def test_long_chain_needs_no_python_stack():
    # 1,200 elements: deeper than the default recursion limit
    poset = chain_poset(1199)
    assert poset.chain_length("0", "1199") == 1199
    assert poset.chain_length("1199", "0") == 0


def test_chain_length_matches_path_search():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randint(1, 8)
        els = [str(i) for i in range(n)]
        covers = [(els[i], els[j]) for i in range(n) for j in range(i + 1, n)
                  if rng.random() < 0.4]
        rng.shuffle(els)
        poset = Poset(els, covers)

        def longest(a, b):
            if a == b:
                return 0
            steps = [longest(s, b) for x, s in covers if x == a]
            return max([s + 1 for s in steps if s >= 0], default=-1)

        for a in els:
            for b in els:
                assert poset.chain_length(a, b) == max(longest(a, b), 0)


def test_validate_incidence_boolean3():
    assert validate_coalgebra(build_incidence_coalgebra(boolean_poset(3))).ok


# ---------------------------------------------------------------------------
# categorical coalgebra


def test_free_monoid_decompositions():
    M = free_monoid_one_generator(4)
    C = build_categorical_coalgebra(M, 4)
    expected = TensorSum.of([
        (monoid_key("e"), monoid_key("aa")),
        (monoid_key("a"), monoid_key("a")),
        (monoid_key("aa"), monoid_key("e")),
    ])
    assert C.delta(monoid_key("aa")) == expected


def test_identity_grouplike_in_monoid():
    M = free_monoid_one_generator(2)
    C = build_categorical_coalgebra(M, 2)
    e = monoid_key("e")
    assert C.delta(e) == TensorSum.pure(e, e)
    assert C.counit(e) == 1


def test_monoid_degree_additivity_blocks_torsion():
    # Z/2 as a one-color graded monoid cannot carry a proper degree
    elements = {"e": ("x", "x", 0), "g": ("x", "x", 1)}
    with pytest.raises(InputError):
        ColoredMonoid(("x",), elements, {"x": "e"},
                      {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
                       ("g", "g"): "e"})


def test_nontrivial_invertibles_rejected():
    # a proper degree already excludes invertibles, so smuggle one past the
    # constructor to exercise the explicit rejection in the builder
    M = ColoredMonoid.__new__(ColoredMonoid)
    M.colors = ("x",)
    M.elements = {"e": ("x", "x", 0), "g": ("x", "x", 1)}
    M.identities = {"x": "e"}
    M.table = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g",
               ("g", "g"): "e"}
    M.decomp = {"e": [("e", "e"), ("g", "g")], "g": [("e", "g"), ("g", "e")]}
    assert M.nontrivial_invertible() == "g"
    with pytest.raises(UnsupportedError):
        build_categorical_coalgebra(M, 2)


def test_categorical_matches_incidence_on_chain():
    poset = chain_poset(2)
    CM = build_categorical_coalgebra(poset_monoid(poset), 2)
    CI = build_incidence_coalgebra(poset)

    def to_interval(k):
        a, b = k.payload[0][1:-1].split(",")
        return interval_key(a, b)

    assert len(CM.keys) == len(CI.keys)
    for k in CM.keys:
        mapped = {
            (to_interval(a), to_interval(b)): c for (a, b), c in CM.delta(k)
        }
        assert mapped == CI.delta(to_interval(k)).terms


# ---------------------------------------------------------------------------
# words


def test_word_coproduct_length_one():
    w = word_key("a", ("b",), "c")
    empty = word_key("a", (), "c")
    right = word_product_key([word_key("a", (), "b"), word_key("b", (), "c")])
    expected = TensorSum.of([(empty, w), (w, right)])
    assert goncharov_coproduct(w) == expected


def test_equal_word_keys_are_one_object():
    w = word_key("a", ("b", "c"), "d")
    assert word_key("a", iter("bc"), "d") is w
    v = word_key("a", (), "b")
    assert word_product_key([w, v]) is word_product_key([v, w])
    assert word_product_key([w]) is w
    # the coproduct emits the same objects
    left, right = goncharov_coproduct(word_key("a", ("b",), "c")).sorted_terms()[0][0]
    assert left is word_key("a", (), "c")
    assert right is word_key("a", ("b",), "c")


def test_equal_path_keys_are_one_object():
    p = path_key(("a", "b", "c"))
    assert path_key(iter("abc")) is p and path_key(["a", "b", "c"]) is p
    # the coproduct emits the same prefix and suffix objects
    quiver = Quiver(("v",), (("a", "v", "v"), ("b", "v", "v"), ("c", "v", "v")))
    C = build_path_coalgebra(quiver, 3)
    pairs = C.delta(p).terms
    assert (path_key(("a",)), path_key(("b", "c"))) in pairs
    assert all(a is path_key(a.payload) for pair in pairs for a in pair if a.tag == "path")


def test_empty_word_grouplike():
    w = word_key("a", (), "b")
    assert goncharov_coproduct(w) == TensorSum.pure(w, w)


def test_word_summand_count_powers_of_two():
    letters = ("p", "q", "r", "s")
    for n in range(0, 5):
        w = word_key("a", letters[:n], "c")
        assert len(goncharov_coproduct(w)) == 2 ** n
    # with repeated letters classes merge, but total multiplicity is stable
    w = word_key("a", ("b",) * 4, "c")
    assert sum(c for _, c in goncharov_coproduct(w)) == 2 ** 4


def test_word_coassociativity_exhaustive_small():
    C = build_word_coalgebra(("a", "b"), 3)
    assert validate_coalgebra(C).ok


def _closed_words_by_scan(alphabet, max_length):
    """The closed word universe as the scanning loop used to build it."""
    singles = sorted(
        word_key(a0, letters, a1)
        for n in range(max_length + 1)
        for a0 in alphabet
        for a1 in alphabet
        for letters in itertools.product(alphabet, repeat=n)
    )
    weights = [len(k.payload[1]) + 1 for k in singles]
    keys = set()

    def go(start, chosen, left):
        if chosen:
            keys.add(word_product_key(list(chosen)))
        for j in range(start, len(singles)):
            if weights[j] <= left:
                chosen.append(singles[j])
                go(j, chosen, left - weights[j])
                chosen.pop()

    go(0, [], max_length + 1)
    return tuple(sorted(keys))


@pytest.mark.parametrize("letters,max_length,size", [
    (2, 3, 337), (3, 2, 570), (1, 4, 18), (2, 2, 90),
])
def test_closed_word_universe_matches_scanning_loop(letters, max_length, size):
    alphabet = "abc"[:letters]
    C = build_word_coalgebra(alphabet, max_length, closed=True)
    assert len(C.keys) == size
    assert C.keys == _closed_words_by_scan(alphabet, max_length)


@pytest.mark.parametrize("closed", [False, True])
def test_word_alphabet_rejects_a_repeated_letter(closed):
    # ("a", "a") would list every word four times over
    with pytest.raises(InputError, match="duplicate letter 'a'"):
        build_word_coalgebra(("a", "b", "a"), 2, closed=closed)


# ---------------------------------------------------------------------------
# the double and its dual


def test_double_product_formula():
    D = build_drinfeld_double(cyclic_group(2))
    # <a,e><a,a> = <a,a> since e a e^-1 = a
    out = D.product(double_key("r1", "e"), double_key("r1", "r1"))
    assert out == FormalSum.basis(double_key("r1", "r1"))


def test_double_antipode_formula_z2():
    D = build_drinfeld_double(cyclic_group(2))
    S = D.hooks["closed_antipode"]
    assert S(double_key("r1", "r1")) == FormalSum.basis(double_key("r1", "r1"))


def test_double_bialgebra_axioms():
    for group in (cyclic_group(2), cyclic_group(3), symmetric_group_3()):
        D = build_drinfeld_double(group)
        assert validate_coalgebra(D.coalgebra).ok
        assert validate_bialgebra(D, sample_budget=120, seed=1).ok


def test_double_dual_axioms():
    for group in (cyclic_group(3), symmetric_group_3()):
        D = build_drinfeld_double_dual(group)
        assert validate_coalgebra(D.coalgebra).ok
        assert validate_bialgebra(D, sample_budget=120, seed=1).ok


def test_group_table_validation():
    with pytest.raises(InputError):
        Group(["e", "a"], {("e", "e"): "e", ("e", "a"): "a",
                           ("a", "e"): "a", ("a", "a"): "a"})


def test_double_antipode_bijection_on_basis():
    D = build_drinfeld_double(symmetric_group_3())
    S = D.hooks["closed_antipode"]
    images = set()
    for k in D.keys:
        v = S(k)
        assert len(v) == 1
        (kk, c), = v
        assert c == 1
        images.add(kk)
    assert len(images) == len(D.keys)


# ---------------------------------------------------------------------------
# coopposite


def test_coopposite_flips_edge(single_edge_paths):
    cop = coopposite(single_edge_paths)
    e = path_key(("e",))
    expected = TensorSum.of([(e, vertex_key("v")), (vertex_key("w"), e)])
    assert cop.delta(e) == expected


def test_coopposite_involution(two_vertex_complete_paths):
    C = two_vertex_complete_paths
    back = coopposite(coopposite(C))
    assert all(back.delta(k) == C.delta(k) for k in C.keys)


def test_coopposite_fixes_cocommutative():
    C = build_setlike_coalgebra(["x", "y"])
    cop = coopposite(C)
    assert all(cop.delta(k) == C.delta(k) for k in C.keys)
