"""Convolution inverses into the rationals against closed forms.

The Moebius function of a finite poset is the convolution inverse of its
zeta function on the incidence coalgebra (Rota, "On the foundations of
combinatorial theory I", 1964).  It is (-1)^rank on Boolean lattices, 1, -1,
0, ... up a chain, and on any finite poset it is P. Hall's alternating count
of chains.  On the path coalgebra of a quiver, 1 + A inverts to the sum of
the powers of -A.  Each oracle is computed here without the engine, and each
test also checks that a copy of the inverse with one value changed fails.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweedler.gallery import (
    Poset,
    Quiver,
    boolean_poset,
    build_incidence_coalgebra,
    build_path_coalgebra,
    chain_poset,
    interval_key,
)
from sweedler.inversion import convolution_inverse
from sweedler.specs import ConvMap, RationalTarget


def _inverse_values(C, f) -> dict:
    """Every basis key -> the convolution inverse of ``f`` there."""
    inv = convolution_inverse(ConvMap(C, RationalTarget(), f))
    return {k: inv(k) for k in C.keys}


def _mismatches(values: dict, oracle) -> list:
    return [k for k, v in values.items() if v != oracle(k)]


def _assert_matches(values: dict, oracle, perturb) -> None:
    assert not _mismatches(values, oracle)
    changed = dict(values)
    changed[perturb] += 1
    assert _mismatches(changed, oracle) == [perturb]


def _mobius(poset: Poset) -> dict:
    return _inverse_values(build_incidence_coalgebra(poset), lambda k: 1)


@pytest.mark.parametrize("atoms", [3, 4])
def test_mobius_of_boolean_lattice(atoms):
    def rota(key):
        a, b = key.payload
        return (-1) ** (b.count("1") - a.count("1"))

    mu = _mobius(boolean_poset(atoms))
    assert len(mu) == 3 ** atoms
    _assert_matches(mu, rota, interval_key("0" * atoms, "1" * atoms))


def test_mobius_of_chain():
    def rota(key):
        i, j = map(int, key.payload)
        return {0: 1, 1: -1}.get(j - i, 0)

    mu = _mobius(chain_poset(5))
    assert [mu[interval_key(0, j)] for j in range(6)] == [1, -1, 0, 0, 0, 0]
    _assert_matches(mu, rota, interval_key(0, 2))


@st.composite
def posets(draw):
    """Up to 7 elements, each relation i < j with i < j as integers."""
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = list(itertools.combinations(range(n), 2))
    relations = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs
                     else st.just([]))
    return n, relations


def _hall(n: int, relations):
    """mu(x, y) = sum over k of (-1)^k times the number of chains
    x = z0 < z1 < ... < zk = y (P. Hall, 1936), on the transitive closure."""
    above = {i: set() for i in range(n)}
    for i, j in relations:
        above[i].add(j)
    for i in reversed(range(n)):  # every relation points to a larger integer
        for j in list(above[i]):
            above[i] |= above[j]

    def mu(key):
        x, y = map(int, key.payload)
        total = 0
        stack = [(x, 0)]
        while stack:
            z, k = stack.pop()
            if z == y:
                total += (-1) ** k
            stack.extend((w, k + 1) for w in above[z] if w == y or y in above[w])
        return total

    return mu


@given(posets(), st.data())
@settings(max_examples=30, deadline=None)
def test_mobius_is_halls_chain_count(poset, data):
    n, relations = poset
    mu = _mobius(Poset([str(i) for i in range(n)],
                       [(str(i), str(j)) for i, j in relations]))
    perturb = data.draw(st.sampled_from(sorted(mu)))
    _assert_matches(mu, _hall(n, relations), perturb)


@st.composite
def weighted_quivers(draw):
    """At most 3 vertices and 4 edges (loops and parallel edges allowed),
    each edge with a rational weight."""
    n = draw(st.integers(min_value=1, max_value=3))
    ends = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                         min_size=1, max_size=4))
    weights = draw(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5),
                            min_size=len(ends), max_size=len(ends)))
    quiver = Quiver(tuple(f"v{i}" for i in range(n)),
                    tuple((f"e{i}", f"v{s}", f"v{t}") for i, (s, t) in enumerate(ends)))
    return quiver, {f"e{i}": a for i, a in enumerate(weights)}


@given(weighted_quivers(), st.integers(min_value=1, max_value=4), st.data())
@settings(max_examples=20, deadline=None)
def test_path_inverse_is_alternating_product(quiver_weights, length, data):
    # f = 1 on vertices, a_e on edges and 0 on longer paths is 1 + A, whose
    # inverse takes e1...en to (-1)^n a_e1 ... a_en
    quiver, weight = quiver_weights
    C = build_path_coalgebra(quiver, length)

    def f(key):
        if key.tag == "vx":
            return 1
        return weight[key.payload[0]] if len(key.payload) == 1 else 0

    inv = _inverse_values(C, f)

    def oracle(key):
        if key.tag == "vx":
            return 1
        out = Fraction((-1) ** len(key.payload))
        for e in key.payload:
            out *= weight[e]
        return out

    perturb = data.draw(st.sampled_from(sorted(inv)))
    _assert_matches(inv, oracle, perturb)
