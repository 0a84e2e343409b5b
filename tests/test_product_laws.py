"""The product laws of every built-in algebra, one row per construction.

A family's product is a partial monoid on its basis keys: ``a*b`` is one
key, with coefficient 1, or ``None`` where the product is zero.  Each row
draws triples of keys from its universe with Hypothesis and looks for one
that breaks a law: the product is not a key or ``None`` (or its
``FormalSum`` view disagrees), associativity fails, or a unit law fails.
The projecting product ``a*b = a`` is the negative control and must fail
its cell.

Each row also has a multiply cell: Hypothesis draws a scalar and sums with
int and ``Fraction`` coefficients, 0 among them, and ``mul``, ``mul_into``,
``key_mul_into`` and ``mul_key_into`` must each equal a double loop over
``key_product``, added into a term dict that holds the negation of part of
the result, so that terms cancel, and must store no zero coefficient.
Two deliberately broken multiplies are its negative control.
"""

from fractions import Fraction

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


def reference_product(A: AlgebraSpec, c, s1: FormalSum, s2: FormalSum) -> dict:
    """The term dict of ``c * s1 * s2``, by a double loop over ``key_product``."""
    out: dict = {}
    for k1, c1 in s1:
        for k2, c2 in s2:
            k = A.key_product(k1, k2)
            if k is not None:
                out[k] = out.get(k, 0) + c * c1 * c2
    return {k: v for k, v in out.items() if v}


def multiply_failures(A: AlgebraSpec, c, s1: FormalSum, s2: FormalSum) -> list:
    """The multiplies of A that disagree with the double loop on c, s1, s2."""
    cases = [("mul_into", lambda out: A.mul_into(out, c, s1, s2),
              reference_product(A, c, s1, s2))]
    for k in s1.terms:
        cases.append((f"key_mul_into({k})",
                      lambda out, k=k: A.key_mul_into(out, c, k, s2),
                      reference_product(A, c, FormalSum.basis(k), s2)))
    for k in s2.terms:
        cases.append((f"mul_key_into({k})",
                      lambda out, k=k: A.mul_key_into(out, c, s1, k),
                      reference_product(A, c, s1, FormalSum.basis(k))))
    out = []
    if A.mul(s1, s2).terms != reference_product(A, 1, s1, s2):
        out.append(f"mul({s1}, {s2}) is not the double loop")
    for what, run, product in cases:
        # start from the negation of every other term, so those cancel
        start = {k: -v for k, v in list(product.items())[::2]}
        expected = {k: v for k, v in product.items() if k not in start}
        acc = dict(start)
        run(acc)
        if any(v == 0 for v in acc.values()):
            out.append(f"{what} stored a zero coefficient")
        elif acc != expected:
            out.append(f"{what} with c={c}, {s1} and {s2} is not the double loop")
    return out


def sums(A: AlgebraSpec, keys):
    """Sums of up to three terms with int and Fraction coefficients, 0 and
    repeated keys among them, or the unit, alone or added."""
    coeff = st.one_of(st.integers(-2, 2),
                      st.fractions(min_value=-2, max_value=2, max_denominator=3))

    def build(terms):
        d: dict = {}
        for k, c in terms:
            d[k] = d.get(k, 0) + c
        return FormalSum(d)

    drawn = st.lists(st.tuples(st.sampled_from(list(keys)), coeff), max_size=3).map(build)
    return coeff, st.one_of(drawn, st.just(A.unit), drawn.map(lambda s: s + A.unit))


def multiply_counterexample(A: AlgebraSpec, keys, examples: int = 60):
    """A scalar and two sums on which a multiply of A disagrees, or None."""
    coeff, sum_ = sums(A, keys)
    try:
        return find(st.tuples(coeff, sum_, sum_),
                    lambda t: bool(multiply_failures(A, *t)),
                    settings=settings(max_examples=examples, deadline=None,
                                      database=None))
    except NoSuchExample:
        return None


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
    A = B.algebra
    found = counterexample(A, B.keys)
    if lawful:
        assert found is None, law_failures(A, *found)
    else:
        assert found is not None, f"{name} broke no law"
    # the multiply cell: every row, the projecting one too, extends its
    # key product bilinearly
    assert multiply_failures(A, Fraction(-1, 2), A.unit, A.unit) == []
    if name.startswith("double"):
        # a unit that is a sum, with zero products among its terms
        assert len(A.unit) > 1
        assert any(A.key_product(a, b) is None for a in A.unit.terms for b in A.unit.terms)
    bad = multiply_counterexample(A, B.keys)
    assert bad is None, multiply_failures(A, *bad)


class _SwappedSides(AlgebraSpec):
    """``mul_key_into`` multiplies on the wrong side."""

    def mul_key_into(self, out, c, s, k):
        self.key_mul_into(out, c, k, s)


class _KeepsZeros(AlgebraSpec):
    """``key_mul_into`` stores the coefficients that cancel to 0."""

    def key_mul_into(self, out, c, k, s):
        for k2, c2 in s:
            p = self.key_product(k, k2)
            if p is not None:
                out[p] = out.get(p, 0) + c * c2


@pytest.mark.parametrize("broken", [_SwappedSides, _KeepsZeros])
def test_multiply_cell_catches_a_broken_multiply(broken, trees_planar4):
    A = trees_planar4.algebra
    B = broken(A.name, A.raw_product, A.unit)
    assert multiply_counterexample(B, trees_planar4.keys) is not None
