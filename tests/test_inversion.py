from fractions import Fraction

import pytest

from series_oracle import base_inverse, takeuchi_inverse
from sweedler.errors import (
    ConfigurationError,
    FiltrationNotExhaustive,
    GrouplikeNotInvertible,
    MathError,
)
from sweedler.gallery import (
    boolean_poset,
    build_categorical_coalgebra,
    build_drinfeld_double,
    build_drinfeld_double_dual,
    build_incidence_coalgebra,
    build_setlike_coalgebra,
    build_word_coalgebra,
    cyclic_group,
    free_monoid_one_generator,
    path_key,
    symmetric_group_3,
    vertex_key,
)
from sweedler.constructions import abelianized_quotient, normalized_quotient, q_deform
from sweedler.inversion import (
    antipode,
    convolution_inverse,
    finite_convolution_inverse,
    invert_character,
    validate_antipode,
)
from sweedler.linear import BasisKey, FormalSum, TensorSum
from sweedler.renorm import LAURENT, CharacterSpec, LaurentPoly, parse_laurent
from sweedler.specs import (
    AlgebraSpec,
    BialgebraSpec,
    CoalgebraSpec,
    ConvMap,
    RationalTarget,
    conv_maps_equal,
    convolution_unit,
    convolve,
    identity_map,
    validate_coalgebra,
)
from sweedler.structure import (
    FiltrationTable,
    analyze_structure,
    bivariate_filtration,
    filtration_from_grading,
    find_grouplikes,
)
from sweedler.trees import build_tree_bialgebra, ladder, line_forest, parse_forest, tau


# ---------------------------------------------------------------------------
# a free word algebra on path symbols, with vertex letters formally inverted


def _normalize(word):
    out = []
    for kind, name, exp in word:
        if kind == "v" and out and out[-1][:2] == ("v", name):
            merged = out[-1][2] + exp
            out.pop()
            if merged:
                out.append(("v", name, merged))
        elif exp:
            out.append((kind, name, exp))
    return tuple(out)


def free_word_target():
    def product(k1, k2):
        return BasisKey("fw", _normalize(k1.payload + k2.payload))

    unit = FormalSum.basis(BasisKey("fw", ()))

    def key_inverse(k):
        if any(kind != "v" for kind, _, _ in k.payload):
            return None
        flipped = tuple(("v", name, -exp) for kind, name, exp in reversed(k.payload))
        return BasisKey("fw", flipped)

    return AlgebraSpec("freewords", product, unit, key_inverse)


def path_letters(C):
    target = free_word_target()

    def fn(key):
        if key.tag == "vx":
            return FormalSum.basis(BasisKey("fw", (("v", key.payload[0], 1),)))
        return FormalSum.basis(BasisKey("fw", (("p", ".".join(key.payload), 1),)))

    return ConvMap(C, target, fn, "letters")


def test_takeuchi_on_free_words(single_edge_paths):
    # expected inverse of the edge letter, solved by hand on the two-step
    # filtration: x(v).e + x(e).w = 0 with x(v) = v^-1 forces
    # x(e) = -v^-1.e.w^-1
    C = single_edge_paths
    f = path_letters(C)
    filt = bivariate_filtration(C)
    inv = takeuchi_inverse(f, filt)
    expected = FormalSum.basis(
        BasisKey("fw", (("v", "v", -1), ("p", "e", 1), ("v", "w", -1)))
    ).scale(Fraction(-1))
    assert inv(path_key(("e",))) == expected
    assert inv(vertex_key("v")) == FormalSum.basis(BasisKey("fw", (("v", "v", -1),)))
    # two-sided inverse on the whole universe
    eta = convolution_unit(C, f.target)
    assert conv_maps_equal(convolve(f, inv), eta)
    assert conv_maps_equal(convolve(inv, f), eta)


def test_takeuchi_unit_is_self_inverse(single_edge_paths):
    C = single_edge_paths
    T = LAURENT
    eta = convolution_unit(C, T)
    inv = takeuchi_inverse(eta, bivariate_filtration(C))
    assert conv_maps_equal(inv, eta)


def test_series_truncates_at_degree_plus_one(two_vertex_complete_paths):
    # the inverse only consults filtration degrees; a table cut after two
    # rounds fails on a key of degree 3
    C = two_vertex_complete_paths
    f = path_letters(C)
    full = bivariate_filtration(C)
    kept = {k: d for k, d in full.degrees.items() if d <= 2}
    table = FiltrationTable(kept, frozenset(full.degrees.keys() - kept.keys()))
    assert not table.exhaustive
    inv = takeuchi_inverse(f, table)
    with pytest.raises(FiltrationNotExhaustive):
        inv(path_key(("0to1", "1to0", "0to1")))


def test_tree_identity_inverse_on_quotient(trees_sym4_normalized):
    B = trees_sym4_normalized.bialgebra
    S = antipode(B)
    assert S(tau(1)) == FormalSum.basis(tau(1)).scale(Fraction(-1))
    l2 = ladder(2)
    assert S(l2) == FormalSum.basis(l2).scale(Fraction(-1)) + B.product(
        tau(1), tau(1)
    )


def test_antihomomorphism_check_spends_its_budget(trees_sym4_normalized):
    # pairs are drawn so that their product can fit the truncation, so the
    # spot check reaches its full sample budget instead of its draw cap
    B = trees_sym4_normalized.bialgebra
    S = antipode(B, validate=False)
    report = validate_antipode(B, S, sample_budget=50)
    assert report.ok
    assert report.checked == len(B.keys) + 50


def _one_coefficient_off(S: ConvMap, bad: BasisKey) -> ConvMap:
    """S with the first coefficient of S(bad) raised by one."""
    def fn(key):
        value = S(key)
        if key is not bad:
            return value
        first, _ = value.sorted_terms()[0]
        return value + FormalSum.basis(first)

    return ConvMap(S.source, S.target, fn, "S'")


@pytest.mark.parametrize("name", ["trees-s-normalized", "double-s3"])
def test_validator_names_a_wrong_antipode_value(name, request):
    # negative control: a wrong value is reported on both identities at its key
    if name == "double-s3":
        B = build_drinfeld_double(symmetric_group_3())
        bad = BasisKey("dbl", ("p012", "p102"))  # identity times a transposition
    else:
        B = request.getfixturevalue("trees_sym4_normalized").bialgebra
        bad = ladder(2)
    assert bad in B.keys
    S = antipode(B, validate=False)
    assert validate_antipode(B, S).ok
    report = validate_antipode(B, _one_coefficient_off(S, bad))
    assert not report.ok
    named = {detail for ctx, detail in report.failures if ctx == str(bad)}
    assert named >= {"S*id != unit.counit", "id*S != unit.counit"}, report.render()


def test_antipode_involutive_on_commutative_quotient():
    # S o S = id on the commutative connected quotient, classes <= 5 vertices
    B = normalized_quotient(build_tree_bialgebra(5, 5, "s")).bialgebra
    S = antipode(B, validate=False)
    for k in B.keys:
        assert S(k).map_keys(S) == FormalSum.basis(k)


# ---------------------------------------------------------------------------
# the factor route: a forest's antipode is its trees' values in reverse order


def _trees5(mode, kind):
    """The connected quotient of trees(5), or its commutator quotient."""
    Q = normalized_quotient(build_tree_bialgebra(5, 5, mode)).bialgebra
    return Q if kind == "normalized" else abelianized_quotient(Q, kind).bialgebra


@pytest.mark.parametrize("mode,kind", [("s", "normalized"), ("p", "normalized"),
                                       ("p", "commutator")])
def test_factor_route_matches_the_series(mode, kind):
    B = _trees5(mode, kind)
    assert B.hooks.get("factors") is not None
    ident = identity_map(B)
    S = antipode(B, validate=False)
    expected = takeuchi_inverse(ident, filtration_from_grading(B.coalgebra))
    assert conv_maps_equal(S, expected)


@pytest.mark.parametrize("broken", ["forward", "drops-a-tree"])
def test_validator_catches_a_broken_factors_hook(trees_planar4, broken):
    # negative controls: a planar forest's trees multiplied in forward
    # order, or one tree left out, give values both identities reject
    Q = normalized_quotient(trees_planar4).bialgebra
    factors = Q.hooks["factors"]

    def hook(key):
        parts = factors(key)
        if parts is None:
            return None
        return parts[::-1] if broken == "forward" else parts[1:]

    assert validate_antipode(Q, antipode(Q, validate=False)).ok
    B = BialgebraSpec(Q.coalgebra, Q.algebra, dict(Q.hooks, factors=hook))
    report = validate_antipode(B, antipode(B, validate=False))
    assert not report.ok
    with pytest.raises(MathError):
        antipode(B)


@pytest.mark.parametrize("mode", ["s", "p"])
def test_recursion_runs_on_trees_only(mode, monkeypatch):
    # work guard: every forest of two or more trees is a product of values,
    # and the flank-peeling recursion evaluates each tree once, reading its
    # coproduct twice: for its flanks and for the convolution sum
    from collections import Counter

    import sweedler.inversion as inversion

    B = _trees5(mode, "normalized")
    peeled = []
    real = inversion.flanks
    monkeypatch.setattr(inversion, "flanks",
                        lambda C, key: peeled.append(key) or real(C, key))
    S = antipode(B, validate=False)
    reads = Counter()
    delta = CoalgebraSpec.delta
    monkeypatch.setattr(CoalgebraSpec, "delta",
                        lambda self, key: reads.update((key,)) or delta(self, key))
    for k in B.keys:
        S(k)
    trees = [k for k in B.keys if len(k.payload) == 2]
    assert len(peeled) == len(set(peeled)) == len(trees)
    assert set(peeled) == set(trees)
    assert max(reads[k] for k in peeled) <= 2


def test_antipode_builds_no_identity_sums(trees_sym4_normalized, monkeypatch):
    # the recursion multiplies by keys: past the unit (the one grouplike),
    # evaluating S builds no one-term sum, and the identity is called at
    # the grouplikes alone
    B = trees_sym4_normalized.bialgebra
    ident = identity_map(B)
    S = convolution_inverse(ident, bialgebra=B)
    unit_key, = B.unit.terms
    S(unit_key)
    built = []
    real = FormalSum.basis
    monkeypatch.setattr(FormalSum, "basis", classmethod(
        lambda cls, key, coeff=1: built.append(key) or real(key, coeff)))
    for k in B.keys:
        S(k)
    assert built == []
    grouplikes, _ = find_grouplikes(B.coalgebra)
    assert set(ident._memo) == grouplikes == {unit_key}


def _distinct_values(C):
    """A rational map with its own value on every key, so that a mix-up of
    two keys changes the inverse."""
    values = {k: i + 2 for i, k in enumerate(C.keys)}
    return ConvMap(C, RationalTarget(), values.__getitem__, "values")


def _on_values(B):
    return _distinct_values(B.coalgebra), B


def _identity(B):
    return identity_map(B), B


# name -> (builder taking the pytest request and returning the map to invert
# and its bialgebra or None, the reference route: the series oracle where the
# filtration is exhaustive, the finite solve on the doubles)
INVERSE_INSTANCES = {
    "trees-s": (lambda r: _on_values(r.getfixturevalue("trees_sym4")), "series"),
    "trees-p": (lambda r: _on_values(r.getfixturevalue("trees_planar4")), "series"),
    "normalized-s": (lambda r: _identity(
        r.getfixturevalue("trees_sym4_normalized").bialgebra), "series"),
    "normalized-p": (lambda r: _identity(
        normalized_quotient(build_tree_bialgebra(3, 3, "p")).bialgebra), "series"),
    "q-deform-laurent": (lambda r: _identity(q_deform(
        build_tree_bialgebra(3, 3, "s"), laurent=True).bialgebra), "series"),
    "graphs-c": (lambda r: _on_values(r.getfixturevalue("graphs_c33")), "series"),
    "graphs-n": (lambda r: _on_values(r.getfixturevalue("graphs_n33")), "series"),
    "paths": (lambda r: (path_letters(r.getfixturevalue("two_vertex_complete_paths")),
                         None), "series"),
    "boolean-b3": (lambda r: (_distinct_values(
        build_incidence_coalgebra(boolean_poset(3))), None), "series"),
    "words-closed": (lambda r: (_distinct_values(
        build_word_coalgebra(("a", "b"), 3, closed=True)), None), "series"),
    "free-monoid": (lambda r: (_distinct_values(
        build_categorical_coalgebra(free_monoid_one_generator(5), 5)), None),
        "series"),
    "setlike": (lambda r: (_distinct_values(build_setlike_coalgebra("xyz")), None),
                "series"),
    "double-z3": (lambda r: _identity(build_drinfeld_double(cyclic_group(3))),
                  "solve"),
    "double-dual-s3": (lambda r: _identity(
        build_drinfeld_double_dual(symmetric_group_3())), "solve"),
}


@pytest.mark.parametrize("name", INVERSE_INSTANCES)
def test_methods_agree_on_quotient(name, request):
    # the default route against an independent one on every built-in family
    build, reference = INVERSE_INSTANCES[name]
    f, B = build(request)
    C = f.source
    if B is not None and B.hooks.get("graded_filtration"):
        filt = filtration_from_grading(C)
    else:
        filt = bivariate_filtration(C)
    assert filt.exhaustive == (reference == "series")
    expected = (takeuchi_inverse(f, filt) if reference == "series"
                else finite_convolution_inverse(f, B))
    assert conv_maps_equal(convolution_inverse(f, bialgebra=B), expected)


def test_antipode_gate_on_raw_trees(trees_sym4):
    with pytest.raises(GrouplikeNotInvertible) as err:
        antipode(trees_sym4)
    assert err.value.grouplike == line_forest(1, "s")


def test_grouplike_base_case(trees_sym4_normalized):
    B = trees_sym4_normalized.bialgebra
    ident = identity_map(B)
    g0 = base_inverse(ident)
    unit_key, = B.unit.terms
    assert g0(unit_key) == B.unit
    assert g0(tau(1)).is_zero()


def test_augmentation_preserved(trees_sym4_normalized):
    # f(1) = 1 implies inv(f)(1) = 1
    B = trees_sym4_normalized.bialgebra
    phi = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1+2")})
    pm = phi.as_conv_map(B)
    inv = convolution_inverse(pm, bialgebra=B)
    unit_key, = B.unit.terms
    assert inv(unit_key) == LaurentPoly.one()


def test_restriction_consistency(trees_sym4):
    # the inverse restricted to the grouplike base equals the direct inverse
    B = trees_sym4
    phi = CharacterSpec(
        LAURENT, {"vertex": parse_laurent("z^-1"), "grouplike": parse_laurent("2z")}
    )
    pm = phi.as_conv_map(B)
    inv = convolution_inverse(pm)
    for n in range(3):
        g = line_forest(n, "s")
        assert inv(g) == phi(g).inverse()


def test_invert_character_gate(trees_sym4):
    B = trees_sym4
    bad = CharacterSpec(
        LAURENT, {"vertex": parse_laurent("z^-1"), "grouplike": parse_laurent("1+z")}
    )
    with pytest.raises(GrouplikeNotInvertible) as err:
        invert_character(bad.as_conv_map(B), B)
    assert err.value.value == parse_laurent("1+z")


def test_invert_character_monomial(trees_sym4):
    B = trees_sym4
    phi = CharacterSpec(
        LAURENT, {"vertex": parse_laurent("z^-1"), "grouplike": parse_laurent("z")}
    )
    pm = phi.as_conv_map(B)
    inv = invert_character(pm, B)
    assert inv(line_forest(1, "s")) == parse_laurent("z^-1")
    eta = convolution_unit(B.coalgebra, LAURENT)
    assert conv_maps_equal(convolve(pm, inv), eta)
    assert conv_maps_equal(convolve(inv, pm), eta)
    # the inverse of a character into a commutative target is a character
    keys = [k for k in B.keys if B.grading(k) <= 2][:10]
    for a in keys:
        for b in keys:
            assert inv.evaluate(B.product(a, b)) == inv(a) * inv(b)


class _OneMinusC:
    """A target whose ``accumulate`` adds (1 - c) a b where the recursion
    asks for -c a b with c != 1: a wrong recursion for negative controls."""

    def __init__(self, target):
        self.target = target

    def __getattr__(self, name):
        return getattr(self.target, name)

    def accumulate(self, acc, c, a, b=None):
        if b is not None and c != -1:
            c = 1 + c
        return self.target.accumulate(acc, c, a, b)


def _one_minus_c(real):
    """``_colored_inverse`` running the 1 - c recursion."""
    def recursion(f):
        h = real(ConvMap(f.source, _OneMinusC(f.target), f, f.name))
        h.target = f.target  # callers see the real target
        return h

    return recursion


def test_invert_character_checks_both_identities(trees_sym4_normalized, monkeypatch):
    # negative control: the 1 - c recursion is refused at the first key
    # where phi * inv or inv * phi is not eta.eps
    import sweedler.inversion as inversion

    B = trees_sym4_normalized.bialgebra
    pm = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1")}).as_conv_map(B)
    invert_character(pm, B)
    monkeypatch.setattr(inversion, "_colored_inverse",
                        _one_minus_c(inversion._colored_inverse))
    wrong = inversion.convolution_inverse(pm, bialgebra=B)
    eta = convolution_unit(B.coalgebra, LAURENT)
    left, right = convolve(pm, wrong), convolve(wrong, pm)
    bad = [k for k in B.keys if left(k) != eta(k) or right(k) != eta(k)]
    assert bad
    with pytest.raises(MathError) as err:
        invert_character(pm, B)
    assert str(err.value).endswith(f" at {bad[0]}")


def test_wrong_character_inverse_prints_nothing(monkeypatch):
    # the same control through the CLI: exit 1 and an empty stdout
    import io

    import sweedler.inversion as inversion
    from cli_cases import CHAR_VERTEX, run_cli

    monkeypatch.setattr(inversion, "_colored_inverse",
                        _one_minus_c(inversion._colored_inverse))
    err = io.StringIO()
    code, out = run_cli(["inverse", "--bialgebra", "trees", "--quotient", "normalized",
                         "--truncation", "4", "--character", CHAR_VERTEX], stderr=err)
    assert code == 1
    assert out == b""
    assert err.getvalue().startswith("mathematical obstruction: character inverse fails")


def test_invert_character_rejects_nonmultiplicative(trees_sym4):
    B = trees_sym4
    rogue = ConvMap(B.coalgebra, LAURENT,
                    lambda k: LaurentPoly.one() + LaurentPoly.monomial(B.grading(k)),
                    "rogue")
    with pytest.raises(ConfigurationError):
        invert_character(rogue, B)


# ---------------------------------------------------------------------------
# finite-dimensional route (the group doubles)


@pytest.mark.parametrize("group", [cyclic_group(2), cyclic_group(3)])
def test_double_antipode_small(group):
    D = build_drinfeld_double(group)
    S = antipode(D)
    closed = D.hooks["closed_antipode"]
    assert all(S(k) == closed(k) for k in D.keys)


def test_double_antipode_s3():
    D = build_drinfeld_double(symmetric_group_3())
    table = bivariate_filtration(D.coalgebra)
    assert not table.exhaustive  # basis-level filtration cannot see the double
    S = antipode(D)  # falls back to the exact finite solve
    closed = D.hooks["closed_antipode"]
    assert all(S(k) == closed(k) for k in D.keys)
    report = validate_antipode(D, S, sample_budget=40)
    assert report.ok, report.render()


def test_finite_solve_needs_the_bialgebra():
    # without its bialgebra the double has no finite solve to fall back to,
    # and its filtration does not reach every key
    D = build_drinfeld_double(symmetric_group_3())
    with pytest.raises(FiltrationNotExhaustive):
        convolution_inverse(identity_map(D))


def test_double_dual_antipode_s3():
    D = build_drinfeld_double_dual(symmetric_group_3())
    S = antipode(D)
    closed = D.hooks["closed_antipode"]
    assert all(S(k) == closed(k) for k in D.keys)


def _group_algebra(group):
    from sweedler.gallery import setlike_key
    from sweedler.specs import BialgebraSpec, CoalgebraSpec
    from sweedler.linear import TensorSum

    keys = [setlike_key(g) for g in group.names]
    coalg = CoalgebraSpec(
        f"k[{len(keys)}]", keys, lambda k: TensorSum.pure(k, k),
        lambda k: Fraction(1), lambda k: 0,
    )
    alg = AlgebraSpec(
        coalg.name,
        lambda a, b: setlike_key(group.mul(a.payload[0], b.payload[0])),
        FormalSum.basis(setlike_key(group.identity)),
        key_inverse=lambda k: setlike_key(group.inv[k.payload[0]]),
    )
    return BialgebraSpec(coalg, alg)


def test_finite_solve_agrees_with_series():
    # a group algebra is honestly finite: both routes exist and must agree
    from sweedler.gallery import setlike_key

    B = _group_algebra(cyclic_group(4))
    ident = identity_map(B)
    series = takeuchi_inverse(ident, bivariate_filtration(B.coalgebra))
    solved = finite_convolution_inverse(ident, B)
    assert conv_maps_equal(series, solved)
    assert solved(setlike_key("r1")) == FormalSum.basis(setlike_key("r3"))


def test_finite_solve_checks_both_sides(monkeypatch):
    # negative control: one solved value off fails the two-sided check
    import sweedler.inversion as inversion

    real = inversion.solve_sparse

    def one_value_off(rows, rhs):
        solution = real(rows, rhs)
        solution[min(solution)] += 1
        return solution

    D = build_drinfeld_double(cyclic_group(3))
    finite_convolution_inverse(identity_map(D), D)
    monkeypatch.setattr(inversion, "solve_sparse", one_value_off)
    with pytest.raises(MathError, match="is left- but not two-sided invertible at "):
        finite_convolution_inverse(identity_map(D), D)


def test_gate_refuses_a_semigrouplike_that_is_not_grouplike():
    # negative control: delta(k) = k (x) k with counit 2 has no degree-0 inverse
    k = vertex_key("k")
    C = CoalgebraSpec("k", [k], lambda key: TensorSum.pure(key, key),
                      lambda key: 2, lambda key: 0)
    f = ConvMap(C, RationalTarget(), lambda key: 1, "f")
    with pytest.raises(ConfigurationError, match=f"semigrouplike {k} is not grouplike"):
        convolution_inverse(f)


def test_finite_solve_rejects_open_truncation():
    # antipode values of corner keys escape a leaf-truncated universe, and
    # the solver reports that instead of inventing a projection
    from sweedler.errors import MathError

    small = build_tree_bialgebra(2, 4, "s")
    Bq = normalized_quotient(small).bialgebra
    with pytest.raises(MathError):
        finite_convolution_inverse(identity_map(Bq), Bq)


def test_deformed_antipode_values(trees_sym4):
    D = q_deform(trees_sym4, laurent=True)
    S = antipode(D.bialgebra, validate=False)
    for n in range(1, 4):
        k = D.reduce_key(tau(n))
        (kk, c), = S(k)
        assert c == -1
        assert D.single_parameter_exponent(kk) == -(n + 1)
        assert D.specialize_key(kk) == tau(n)
    # ladder: S(l2) = -q^-2 l2 + q^-3 tau1 tau1
    k = D.reduce_key(ladder(2))
    value = S(k)
    assert value.coeff(D.reduce_key(ladder(2) )) == 0  # plain l2 absent
    terms = {D.single_parameter_exponent(kk): c for kk, c in value}
    assert terms == {-2: Fraction(-1), -3: Fraction(1)}


def test_polynomial_deformation_not_invertible(trees_sym4):
    D = q_deform(trees_sym4, laurent=False)
    with pytest.raises(GrouplikeNotInvertible):
        antipode(D.bialgebra, validate=False)


# ---------------------------------------------------------------------------
# the default route on a source the colour test rejects


def test_uncolorable_source_inverts_by_the_recursion():
    # x is a (g,h)-skew primitive shifted by y: its flanks are unique, but
    # its reduced coproduct touches the grouplikes h and h2, so the structure
    # report calls it uncolorable; the filtration is exhaustive, and there the
    # recursion returns the two-sided inverse all the same
    g, h, h2, y, x = (BasisKey("k", (name,)) for name in ("g", "h", "h2", "y", "x"))
    coproducts = {
        g: TensorSum.of([(g, g)]),
        h: TensorSum.of([(h, h)]),
        h2: TensorSum.of([(h2, h2)]),
        y: TensorSum.of([(g, y), (y, h2)]),
        x: TensorSum.of([(g, x), (x, h), (y, h, Fraction(-1)), (y, h2)]),
    }
    grading = {g: 0, h: 0, h2: 0, y: 1, x: 2}
    C = CoalgebraSpec("shifted", coproducts, coproducts.__getitem__,
                      lambda k: Fraction(1 if grading[k] == 0 else 0),
                      grading.__getitem__)
    assert validate_coalgebra(C).ok
    assert [k for k, _ in analyze_structure(C).uncolorable] == [x]
    filt = bivariate_filtration(C)
    assert filt.exhaustive
    values = {g: 2, h: 3, h2: 5, y: 7, x: 11}
    f = ConvMap(C, RationalTarget(), lambda k: Fraction(values[k]), "f")
    inv = convolution_inverse(f)
    eta = convolution_unit(C, f.target)
    assert conv_maps_equal(convolve(f, inv), eta)
    assert conv_maps_equal(convolve(inv, f), eta)
    assert conv_maps_equal(inv, takeuchi_inverse(f, filt))


def _graded_rational_map(coproducts: dict) -> tuple:
    """A map into QQ over hand-written coproducts, and a bialgebra over them
    whose ``graded_filtration`` hook skips the sweep; the keys of degree 0
    are the ones that are their own coproduct."""
    grouplike = {k for k, d in coproducts.items() if d.terms == {(k, k): 1}}
    C = CoalgebraSpec("hand", coproducts, coproducts.__getitem__,
                      lambda k: int(k in grouplike), lambda k: int(k not in grouplike))
    B = BialgebraSpec(C, AlgebraSpec("hand", lambda a, b: None, FormalSum.basis(min(grouplike))),
                      {"graded_filtration": True})
    return ConvMap(C, RationalTarget(), lambda k: 1, "f"), B


def test_colored_recursion_refuses_a_key_with_two_left_flanks():
    g1, g2, h, x = map(vertex_key, ("g1", "g2", "h", "x"))
    f, B = _graded_rational_map({
        g1: TensorSum.of([(g1, g1)]),
        g2: TensorSum.of([(g2, g2)]),
        h: TensorSum.of([(h, h)]),
        x: TensorSum.of([(g1, x), (g2, x), (x, h)]),
    })
    inv = convolution_inverse(f, B)
    assert inv(g2) == 1
    with pytest.raises(ConfigurationError, match="key x has no well-defined flanks"):
        inv(x)


def test_colored_recursion_refuses_keys_that_need_each_other():
    g, x, y = map(vertex_key, "gxy")
    f, B = _graded_rational_map({
        g: TensorSum.of([(g, g)]),
        x: TensorSum.of([(g, x), (x, g), (g, y)]),
        y: TensorSum.of([(g, y), (y, g), (g, x)]),
    })
    inv = convolution_inverse(f, B)
    with pytest.raises(ConfigurationError, match="colored recursion cycles at x"):
        inv(x)


# ---------------------------------------------------------------------------
# thread safety and stack use of the default route


def test_colored_recursion_shared_across_threads():
    # four threads evaluate one shared inverse over every key at once; the
    # recursion's walk state is per call, so no thread may see another's
    # unfinished keys, and every value must equal the single-threaded one
    import sys
    import threading

    B = normalized_quotient(build_tree_bialgebra(5, 5, "s")).bialgebra
    ident = identity_map(B)
    reference = convolution_inverse(ident, bialgebra=B)
    expected = {k: reference(k) for k in B.keys}
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            S = convolution_inverse(ident, bialgebra=B)
            barrier = threading.Barrier(4, timeout=30)
            errors = []
            results = [{} for _ in range(4)]

            def work(i):
                try:
                    barrier.wait()
                    for k in reversed(B.keys):
                        results[i][k] = S(k)
                except Exception as exc:  # any error fails the test
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            for seen in results:
                assert seen == expected
    finally:
        sys.setswitchinterval(old_interval)


def test_colored_recursion_needs_no_python_stack():
    # on the loop quiver the inverse at e^n needs e^(n-1), ..., e; the walk
    # must not spend an interpreter frame per link of that chain
    import sys

    from sweedler.gallery import Quiver, build_path_coalgebra
    from sweedler.specs import RationalTarget

    n = 300
    C = build_path_coalgebra(Quiver(("v",), (("e", "v", "v"),)), n)
    f = ConvMap(C, RationalTarget(), lambda k: Fraction(1), "ones")
    inv = convolution_inverse(f)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + n // 3)
    try:
        deepest = inv(path_key(("e",) * n))
    finally:
        sys.setrecursionlimit(old_limit)
    # 1/(1 - x) inverts to 1 - x
    assert deepest == 0
    assert inv(path_key(("e",))) == -1
    assert inv(vertex_key("v")) == 1
