"""The product laws of every built-in algebra, one row per construction.

A family's product is a partial monoid on its basis keys: ``a*b`` is one
key, with coefficient 1, or ``None`` where the product is zero.  Each row
draws triples of keys from its universe with Hypothesis and looks for one
that breaks a law: the product is not a key or ``None`` (or its
``FormalSum`` view disagrees), associativity fails, or a unit law fails.
The projecting product ``a*b = a`` is the negative control and must fail
its cell.
"""

import pytest
from hypothesis import find, settings
from hypothesis import strategies as st
from hypothesis.errors import NoSuchExample

from sweedler.constructions import abelianized_quotient, localize_central, q_deform
from sweedler.gallery import (
    build_drinfeld_double,
    build_drinfeld_double_dual,
    symmetric_group_3,
)
from sweedler.linear import BasisKey, FormalSum
from sweedler.specs import AlgebraSpec, BialgebraSpec


def _central(r):
    return abelianized_quotient(r.getfixturevalue("trees_planar4"), "central").bialgebra


def _projecting(r):
    B = r.getfixturevalue("trees_sym4")
    return BialgebraSpec(B.coalgebra, AlgebraSpec("broken", lambda a, b: a, B.unit))


# name -> (builder taking the pytest request, whether the laws hold)
ROWS = {
    "trees-s": (lambda r: r.getfixturevalue("trees_sym4"), True),
    "trees-p": (lambda r: r.getfixturevalue("trees_planar4"), True),
    "graphs-c": (lambda r: r.getfixturevalue("graphs_c33"), True),
    "graphs-n": (lambda r: r.getfixturevalue("graphs_n33"), True),
    "normalized": (lambda r: r.getfixturevalue("trees_sym4_normalized").bialgebra, True),
    "commutator": (lambda r: abelianized_quotient(
        r.getfixturevalue("trees_planar4"), "commutator").bialgebra, True),
    "central": (_central, True),
    "q-deform": (lambda r: q_deform(r.getfixturevalue("trees_sym4")).bialgebra, True),
    "q-deform-laurent": (lambda r: q_deform(
        r.getfixturevalue("trees_sym4"), laurent=True).bialgebra, True),
    "localize-central": (lambda r: localize_central(_central(r)).bialgebra, True),
    "double": (lambda r: build_drinfeld_double(symmetric_group_3()), True),
    "double-dual": (lambda r: build_drinfeld_double_dual(symmetric_group_3()), True),
    "projecting": (_projecting, False),
}


def law_failures(A: AlgebraSpec, a, b, c) -> list:
    """The laws that the triple (a, b, c) breaks in A."""
    out = []
    ab = A.key_product(a, b)
    if not (ab is None or isinstance(ab, BasisKey)):
        out.append(f"{a}*{b} is {ab!r}, not a key or None")
    elif A.product(a, b) != (FormalSum.zero() if ab is None else FormalSum.basis(ab)):
        out.append(f"product({a}, {b}) is not the view of {ab}")
    elif any(type(coeff) is not int for _, coeff in A.product(a, b)):
        out.append(f"product({a}, {b}) has a coefficient that is not an int")
    bc = A.key_product(b, c)
    left = None if ab is None else A.key_product(ab, c)
    right = None if bc is None else A.key_product(a, bc)
    if left is not right:
        out.append(f"({a}*{b})*{c} is {left} but {a}*({b}*{c}) is {right}")
    s = FormalSum.basis(a)
    if A.mul(A.unit, s) != s:
        out.append(f"1*{a} != {a}")
    if A.mul(s, A.unit) != s:
        out.append(f"{a}*1 != {a}")
    return out


def counterexample(A: AlgebraSpec, keys, examples: int = 100):
    """A triple of keys that breaks a law of A, or None if none is found."""
    key = st.sampled_from(list(keys))
    try:
        return find(st.tuples(key, key, key), lambda t: bool(law_failures(A, *t)),
                    settings=settings(max_examples=examples, deadline=None,
                                      database=None))
    except NoSuchExample:
        return None


@pytest.mark.parametrize("name", sorted(ROWS))
def test_product_laws(name, request):
    build, lawful = ROWS[name]
    B = build(request)
    found = counterexample(B.algebra, B.keys)
    if lawful:
        assert found is None, law_failures(B.algebra, *found)
    else:
        assert found is not None, f"{name} broke no law"
