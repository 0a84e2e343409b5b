"""Coefficients are ``int`` until a division needs a ``Fraction``.

Every structure constant of the combinatorial families is an integer, and
so is every connected antipode, every Laurent value of the Birkhoff and
Rota-Baxter checks and every integral ``linalg`` value; each must come out
as an exact ``int``, so a ``Fraction(1)`` default anywhere on the way fails
here.  Division goes through ``scalars.quotient``, so no division of
integer input yields a float.
"""

import random
from fractions import Fraction

import pytest

from sweedler.constructions import abelianized_quotient, normalized_quotient, q_deform
from sweedler.gallery import (
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
    free_monoid_one_generator,
    poset_monoid,
    symmetric_group_3,
)
from sweedler.inversion import antipode
from sweedler.linalg import nullspace_sparse, solve_sparse
from sweedler.renorm import CharacterSpec, birkhoff, pole_part_operator, random_laurent
from sweedler.scalars import quotient
from sweedler.specs import BialgebraSpec, RationalTarget

# name -> builder taking the pytest request (for the shared session fixtures)
FAMILIES = {
    "paths": lambda r: build_path_coalgebra(complete_quiver(("0", "1")), 3),
    "incidence": lambda r: build_incidence_coalgebra(boolean_poset(3)),
    "monoid": lambda r: build_categorical_coalgebra(free_monoid_one_generator(3), 3),
    "poset-monoid": lambda r: build_categorical_coalgebra(poset_monoid(chain_poset(2)), 2),
    "words": lambda r: build_word_coalgebra("ab", 3),
    "words-closed": lambda r: build_word_coalgebra("ab", 2, closed=True),
    "setlike": lambda r: build_setlike_coalgebra("xyz"),
    "double": lambda r: build_drinfeld_double(symmetric_group_3()),
    "double-dual": lambda r: build_drinfeld_double_dual(symmetric_group_3()),
    "trees-s": lambda r: r.getfixturevalue("trees_sym4"),
    "trees-p": lambda r: r.getfixturevalue("trees_planar4"),
    "graphs-c": lambda r: r.getfixturevalue("graphs_c33"),
    "graphs-n": lambda r: r.getfixturevalue("graphs_n33"),
    "normalized": lambda r: r.getfixturevalue("trees_sym4_normalized").bialgebra,
    "commutator": lambda r: abelianized_quotient(
        r.getfixturevalue("trees_planar4"), "commutator").bialgebra,
    "central": lambda r: abelianized_quotient(
        r.getfixturevalue("trees_planar4"), "central").bialgebra,
    "q-deform": lambda r: q_deform(r.getfixturevalue("trees_sym4")).bialgebra,
    "q-deform-laurent": lambda r: q_deform(
        r.getfixturevalue("trees_sym4"), laurent=True).bialgebra,
}


def _assert_ints(values, what: str) -> None:
    bad = [c for c in values if type(c) is not int]
    assert not bad, f"{what} coefficient {bad[0]!r} is a {type(bad[0]).__name__}"


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_structure_constants_are_int(name, request):
    X = FAMILIES[name](request)
    _assert_ints((c for k in X.keys for _, c in X.delta(k)), "coproduct")
    _assert_ints((X.counit(k) for k in X.keys), "counit")
    if isinstance(X, BialgebraSpec):  # products: tests/test_product_laws.py
        _assert_ints((c for _, c in X.unit), "unit")


@pytest.mark.parametrize("fixture", ["trees_sym4", "graphs_c33"])
def test_connected_antipodes_are_int(fixture, request):
    Q = normalized_quotient(request.getfixturevalue(fixture)).bialgebra
    S = antipode(Q)
    _assert_ints((c for k in Q.keys for _, c in S(k)), "antipode")


@pytest.mark.parametrize("build", [build_drinfeld_double, build_drinfeld_double_dual])
def test_finite_solve_antipodes_are_int(build):
    # the doubles are not connected: their antipode comes from the exact
    # sparse solve, whose integral solution values must come back as int
    B = build(symmetric_group_3())
    S = antipode(B)
    _assert_ints((c for k in B.keys for _, c in S(k)), "antipode")


def test_quotient_is_exact_and_int_when_integral():
    for a, b, q in [(1, 1, 1), (6, 3, 2), (-3, 3, -1), (3, -3, -1),
                    (Fraction(4), 2, 2), (Fraction(3, 2), Fraction(1, 2), 3)]:
        assert quotient(a, b) == q and type(quotient(a, b)) is int
    assert quotient(1, 2) == Fraction(1, 2) and type(quotient(1, 2)) is Fraction
    assert quotient(Fraction(1, 3), 2) == Fraction(1, 6)
    with pytest.raises(ZeroDivisionError):
        quotient(1, 0)


def test_rational_target_inverse_is_exact():
    T = RationalTarget()
    assert T.try_inverse(2) == Fraction(1, 2) and type(T.try_inverse(2)) is Fraction
    assert T.try_inverse(1) == 1 and type(T.try_inverse(1)) is int
    assert T.try_inverse(0) is None


def test_nullspace_of_int_rows_is_rational():
    basis = nullspace_sparse([{0: 2, 1: -1}], [0, 1])
    assert basis == [{1: 1, 0: Fraction(1, 2)}]
    assert type(basis[0][1]) is int and type(basis[0][0]) is Fraction


def test_solve_of_int_rows_is_rational():
    solution = solve_sparse([{0: 2}], [1])
    assert solution == {0: Fraction(1, 2)}
    assert type(solution[0]) is Fraction
    # elimination divides row entries too: 2x + y = 1, x + 3y = 1
    solution = solve_sparse([{0: 2, 1: 1}, {0: 1, 1: 3}], [1, 1])
    assert solution == {0: Fraction(2, 5), 1: Fraction(1, 5)}
    assert all(type(c) is Fraction for c in solution.values())


def test_integral_solve_is_int():
    # 2x + y = 3, x + y = 2: the elimination passes through halves, and
    # x = 1 comes out of Fraction arithmetic as Fraction(1, 1)
    solution = solve_sparse([{0: 2, 1: 1}, {0: 1, 1: 1}], [3, 2])
    assert solution == {0: 1, 1: 1}
    _assert_ints(solution.values(), "solution")


def test_birkhoff_table_is_int(trees_sym4_normalized):
    # the check-all factorization: phi(vertex) = z^-1 on trees(4,4,s)
    Q = trees_sym4_normalized.bialgebra
    phi = CharacterSpec.from_doc({"rules": {"vertex": "z^-1"}})
    pair = birkhoff(phi, Q, pole_part_operator())
    for part in (pair.minus, pair.plus):
        _assert_ints((c for k in Q.keys for _, c in part(k)), part.name)


def test_rota_baxter_samples_are_int():
    # the values check_rota_baxter compares for its 200 samples of seed 0
    T = pole_part_operator()
    assert type(T.weight) is int and type(T.factor) is int
    rng = random.Random(0)
    for _ in range(200):
        x, y = random_laurent(rng), random_laurent(rng)
        lhs = T(x) * T(y)
        rhs = T(T(x) * y) + T(x * T(y)) + T(x * y).scale(T.weight)
        for value in (x, y, lhs, rhs, T.complement(x) * T.complement(y)):
            _assert_ints((c for _, c in value), "Rota-Baxter")
