import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweedler.errors import InputError
from sweedler.linear import FormalSum, TensorSum
from sweedler.specs import validate_bialgebra, validate_coalgebra
from sweedler.structure import find_grouplikes, verify_pathlike
from sweedler.trees import (
    LEAF,
    LINE,
    all_forest_keys,
    all_trees,
    forest_grading,
    forest_key,
    forest_leaves,
    ladder,
    line_forest,
    parse_forest,
    parse_tree,
    tau,
    tree_coproduct,
    tree_literal,
    unit_key,
    vertices,
)


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
    # representative, push to symmetric classes, and compare with the
    # coproduct of the canonical class key
    from sweedler.trees import _tree_cuts

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
                (forest_key((stump,), "s"), forest_key(branches, "s"))
                for stump, branches in _tree_cuts(variant)
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
    product_side = d1.tensor_mul(d1, lambda a, b: FormalSum.basis(
        forest_key(a.payload[1:] + b.payload[1:], "s")
    ))
    assert collapsed != product_side
    assert tree_coproduct(k) == product_side


def test_too_deep_tree_is_an_input_error():
    # library callers that build a tree directly bypass the parser's depth
    # guard; the canonical form must still fail with an InputError
    assert forest_grading(ladder(400)) == 400
    for n in (500, 5000):
        with pytest.raises(InputError, match="too deep"):
            ladder(n)
