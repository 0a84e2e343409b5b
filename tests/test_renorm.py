import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweedler.constructions import normalized_quotient, q_deform, q_key
from sweedler.errors import (
    ConfigurationError, InputError, MathError, RuleNotFound, UnsupportedError,
)
from sweedler.gallery import build_drinfeld_double, cyclic_group, path_key
from sweedler.graphs import (
    build_graph_bialgebra,
    edge_contraction_class,
    graph_product,
    loop_contraction_class,
    merger_class,
)
from sweedler.renorm import (
    LAURENT,
    CharacterSpec,
    LaurentPoly,
    RBOperator,
    atkinson_split,
    birkhoff,
    check_rota_baxter,
    parse_laurent,
    pole_part,
    pole_part_operator,
)
from sweedler.specs import convolution_unit, conv_maps_equal
from sweedler.trees import (
    build_tree_bialgebra,
    ladder,
    line_forest,
    parse_forest,
    tau,
    unit_key,
)


# ---------------------------------------------------------------------------
# Laurent polynomials


laurent_polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.builds(Fraction, st.integers(min_value=-127, max_value=127),
              st.integers(min_value=1, max_value=9)),
    max_size=5,
).map(LaurentPoly)


def test_parse_and_render():
    p = parse_laurent("3z^-2+5+7z")
    assert p == LaurentPoly({-2: Fraction(3), 0: Fraction(5), 1: Fraction(7)})
    assert p.render() == "3*z^-2 + 5 + 7*z"
    assert parse_laurent("-z") == LaurentPoly({1: Fraction(-1)})
    assert parse_laurent("1/2z^3 - 2") == LaurentPoly({3: Fraction(1, 2), 0: Fraction(-2)})
    assert parse_laurent("0").is_zero()
    with pytest.raises(InputError):
        parse_laurent("z^")
    with pytest.raises(InputError):
        parse_laurent("snakes")


@given(laurent_polys, laurent_polys, laurent_polys)
@settings(max_examples=60)
def test_laurent_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * LaurentPoly.one() == a


def test_units_are_monomials():
    assert parse_laurent("z^3").is_unit()
    assert parse_laurent("z^3").inverse() == parse_laurent("z^-3")
    assert not parse_laurent("1+z").is_unit()
    with pytest.raises(ConfigurationError):
        parse_laurent("1+z").inverse()


# ---------------------------------------------------------------------------
# pole part and Rota-Baxter checks


def test_pole_part_examples():
    assert pole_part(parse_laurent("3z^-2+5+7z")) == parse_laurent("3z^-2")
    assert pole_part(parse_laurent("5+7z")).is_zero()


@given(laurent_polys)
@settings(max_examples=200)
def test_pole_part_idempotent(p):
    assert pole_part(pole_part(p)) == pole_part(p)


def test_rb_identity_boundary_case():
    T = pole_part_operator()
    x, y = parse_laurent("z^-1"), parse_laurent("z")
    lhs = T(x) * T(y)
    rhs = T(T(x) * y) + T(x * T(y)) + (T(x * y)).scale(T.weight)
    assert lhs == rhs
    assert lhs == parse_laurent("0") + LaurentPoly.zero() or True
    assert T(x) * T(y) == LaurentPoly.zero()


def test_rb_identity_fuzz():
    report = check_rota_baxter(pole_part_operator(), samples=500, seed=1)
    assert report.ok, report.render()


def test_rb_scaling():
    T = pole_part_operator()
    for mu in (Fraction(3), Fraction(-1, 2)):
        scaled = T.scaled(mu)
        assert scaled.weight == -mu
        assert check_rota_baxter(scaled, samples=60, seed=2).ok


def test_complement_is_rb_operator():
    T = pole_part_operator()
    comp = RBOperator(lambda e: e >= 0, Fraction(-1), name="1-polepart")
    assert check_rota_baxter(comp, samples=60, seed=3).ok
    p = parse_laurent("z^-2+4+z")
    assert T(p) + comp(p) == p


def test_atkinson_split():
    minus_desc, plus_desc, report = atkinson_split(pole_part_operator(), samples=100)
    assert report.ok, report.render()
    assert "z^k" in minus_desc and "z^k" in plus_desc
    a = parse_laurent("2z^-1+3")
    T = pole_part_operator()
    assert T(a) == parse_laurent("2z^-1")
    assert T.complement(a) == parse_laurent("3")


def test_atkinson_requires_weight_minus_one():
    T = pole_part_operator().scaled(Fraction(2))
    with pytest.raises(UnsupportedError):
        atkinson_split(T)


def test_corrupted_projector_reported():
    # keeping a non-multiplicatively-closed exponent set breaks closure
    bad = RBOperator(lambda e: e in (-1, 2), Fraction(-1), name="bad")
    report = check_rota_baxter(bad, samples=120, seed=4)
    assert not report.ok


def test_atkinson_split_reports_a_projector_that_is_not_closed():
    # the same projector splits A, but its parts are not subalgebras
    bad = RBOperator(lambda e: e in (-1, 2), Fraction(-1), name="bad")
    _, _, report = atkinson_split(bad, samples=120, seed=4)
    assert not report.ok
    assert "image of T not closed" in {detail for _, detail in report.failures}
    assert atkinson_split(pole_part_operator(), samples=120, seed=4)[2].ok


# ---------------------------------------------------------------------------
# characters


def test_character_eval_on_trees():
    phi = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1")})
    assert phi(parse_forest("v(v(.)v(.))", "s")) == parse_laurent("z^-3")
    assert phi(unit_key("s")) == LaurentPoly.one()
    # grouplike rule defaults to one
    assert phi(line_forest(2, "s")) == LaurentPoly.one()
    rich = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1"),
                                   "grouplike": parse_laurent("z")})
    assert rich(parse_forest("v(.),|", "s")) == LaurentPoly.one()  # z^-1 * z


def test_character_eval_on_graphs():
    phi = CharacterSpec(LAURENT, {"edge": parse_laurent("z^-1")})
    key = graph_product(edge_contraction_class(2, 2), loop_contraction_class(2))
    assert phi(key) == parse_laurent("z^-2")
    withloop = CharacterSpec(LAURENT, {"edge": parse_laurent("z^-1"),
                                       "loop": parse_laurent("2z^-1")})
    assert withloop(key) == parse_laurent("2z^-2")
    merger = CharacterSpec(LAURENT, {"edge": parse_laurent("z^-1"),
                                     "merger": parse_laurent("3")})
    assert merger(merger_class(1, 1)) == parse_laurent("3")


def test_character_missing_rule():
    phi = CharacterSpec(LAURENT, {})
    with pytest.raises(RuleNotFound):
        phi(tau(1))
    with pytest.raises(RuleNotFound):
        phi(edge_contraction_class(2, 2))
    # each missing rule is named, in the order its family counts them; the
    # loop rule defaults to the edge rule, and a family that registers no
    # rule counts names its tag
    for key, missing in [
        (tau(1), "vertex"),
        (edge_contraction_class(2, 2), "edge"),
        (loop_contraction_class(2), "loop"),
        (graph_product(edge_contraction_class(2, 2), loop_contraction_class(2)), "edge"),
        (q_key(tau(1), {"q": 1}), "vertex"),
        (path_key(("e",)), "path"),
    ]:
        with pytest.raises(RuleNotFound) as info:
            phi(key)
        assert info.value.generator == missing


@pytest.mark.parametrize("grouplike", [None, "z^3"], ids=["no-grouplike", "grouplike"])
@pytest.mark.parametrize("family", ["trees_sym4", "trees_planar4", "graphs_c33", "graphs_n33"])
def test_character_agrees_on_deformed_keys(request, family, grouplike):
    # a key's grouplike generators become parameter units of its deformed
    # image, and both count once per unit, whether the rule is given or one
    B = request.getfixturevalue(family)
    D = q_deform(B)
    rules = {"vertex": "z^-1+2", "edge": "3z", "loop": "z^-2", "merger": "z+1"}
    if grouplike is not None:
        rules["grouplike"] = grouplike
    phi = CharacterSpec(LAURENT, {n: parse_laurent(t) for n, t in rules.items()})
    for k in B.keys:
        assert phi(D.reduce_key(k)) == phi(k), k


def test_character_multiplicative_fuzz(trees_sym4):
    B = trees_sym4
    phi = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1+1"),
                                  "grouplike": parse_laurent("z^2")})
    rng = random.Random(12)
    keys = list(B.keys)
    for _ in range(100):
        a, b = rng.choice(keys), rng.choice(keys)
        assert phi.as_conv_map(B).evaluate(B.product(a, b)) == phi(a) * phi(b)


def test_character_document_parsing():
    doc = {"target": "laurent", "rules": {"vertex": "z^-1", "grouplike": "1"}}
    phi = CharacterSpec.from_doc(doc)
    assert phi(tau(1)) == parse_laurent("z^-1")
    with pytest.raises(InputError):
        CharacterSpec.from_doc({"target": "padic", "rules": {}})
    with pytest.raises(InputError, match="'grouplke'"):
        CharacterSpec.from_doc({"rules": {"vertex": "z^-1", "grouplke": "z"}})


@pytest.mark.parametrize("family,rules,rule", [
    ("trees_sym4", {"vertex": "z^-1", "loop": "z"}, "loop"),
    ("graphs_c33", {"vertex": "z^-1", "edge": "z"}, "vertex"),
], ids=["trees-loop", "graphs-vertex"])
def test_uncounted_rule_is_refused(request, family, rules, rule):
    # a rule that no key of the universe counts would be silently ignored
    B = request.getfixturevalue(family)
    phi = CharacterSpec(LAURENT, {n: parse_laurent(t) for n, t in rules.items()})
    with pytest.raises(InputError) as err:
        phi.as_conv_map(B)
    assert str(err.value) == f"character rule {rule!r} counts nothing in {B.name}"


@pytest.mark.parametrize("rules", [{"vertex": "z"}, {}], ids=["vertex", "no-rules"])
def test_family_that_counts_no_generators_is_named(rules):
    # the doubles register no rule counts, so no character reads them
    B = build_drinfeld_double(cyclic_group(3))
    phi = CharacterSpec(LAURENT, {n: parse_laurent(t) for n, t in rules.items()})
    with pytest.raises(InputError) as err:
        phi.as_conv_map(B)
    assert str(err.value) == "no key of double(3) counts a character generator"


def test_character_on_deformation(trees_sym4):
    D = q_deform(trees_sym4, laurent=True)
    phi = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1"),
                                  "grouplike": parse_laurent("z")})
    k = D.reduce_key(parse_forest("v(.),|", "s"))
    assert phi(k) == LaurentPoly.one()


def _on_inverse_parameter(grouplike: str):
    """A character's value on v(.)*q^-1, whose q^-1 counts -1 grouplikes."""
    D = q_deform(build_tree_bialgebra(2, 2, "s"), laurent=True, exponent_window=1)
    k, = (k for k in D.bialgebra.keys if str(k) == "v(.)*q^-1")
    return CharacterSpec(LAURENT, {"vertex": parse_laurent("2"),
                                  "grouplike": parse_laurent(grouplike)})(k)


def test_character_inverts_a_unit_rule_on_a_negative_count():
    assert _on_inverse_parameter("3z").render() == "2/3*z^-1"


def test_character_refuses_a_negative_power_of_a_non_unit():
    with pytest.raises(ConfigurationError, match="negative power of a non-unit rule value"):
        _on_inverse_parameter("1+z")


# ---------------------------------------------------------------------------
# factorization


@pytest.fixture(scope="module")
def tree_factorization():
    B = build_tree_bialgebra(5, 5, "s")
    quotient = normalized_quotient(B).bialgebra
    phi = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1")})
    pair = birkhoff(phi, quotient, pole_part_operator())
    return quotient, phi, pair


def test_birkhoff_hand_values(tree_factorization):
    _, _, pair = tree_factorization
    assert pair.minus(tau(1)) == parse_laurent("-z^-1")
    assert pair.plus(tau(1)).is_zero()
    assert pair.minus(ladder(2)).is_zero()
    assert pair.plus(ladder(2)).is_zero()


def test_birkhoff_identity_verified(tree_factorization):
    _, _, pair = tree_factorization
    assert pair.report.ok


def test_birkhoff_target_separation(tree_factorization):
    quotient, _, pair = tree_factorization
    unit, = [k for k, _ in quotient.unit]
    for k in quotient.keys:
        assert pole_part(pair.plus(k)).is_zero()
        minus = pair.minus(k)
        if k != unit:
            assert all(e < 0 for e in minus.terms)


def test_birkhoff_factors_are_characters(tree_factorization):
    quotient, _, pair = tree_factorization
    rng = random.Random(3)
    keys = [k for k in quotient.keys if quotient.grading(k) <= 2]
    key_set = set(quotient.keys)
    checked = 0
    while checked < 40:
        a, b = rng.choice(keys), rng.choice(keys)
        ab = quotient.product(a, b)
        if any(k not in key_set for k, _ in ab):
            continue
        checked += 1
        assert pair.minus.evaluate(ab) == pair.minus(a) * pair.minus(b)
        assert pair.plus.evaluate(ab) == pair.plus(a) * pair.plus(b)


def test_birkhoff_polynomial_rule_trivial():
    B = build_tree_bialgebra(3, 3, "s")
    quotient = normalized_quotient(B).bialgebra
    phi = CharacterSpec(LAURENT, {"vertex": parse_laurent("2+z")})
    pair = birkhoff(phi, quotient, pole_part_operator())
    eta = convolution_unit(quotient.coalgebra, LAURENT)
    assert conv_maps_equal(pair.minus, eta)
    for k in quotient.keys:
        assert pair.plus(k) == phi(k)


def test_birkhoff_on_graphs():
    B = build_graph_bialgebra(3, 3, 3, connected=True)
    quotient = normalized_quotient(B).bialgebra
    phi = CharacterSpec(LAURENT, {"edge": parse_laurent("z^-1")})
    pair = birkhoff(phi, quotient, pole_part_operator())
    assert pair.report.ok
    for k in quotient.keys:
        assert pole_part(pair.plus(k)).is_zero()


def test_failed_factorization_is_a_math_error(trees_sym4_normalized, monkeypatch):
    # a recomposition that never equals phi: an obstruction, not a usage error
    import sweedler.renorm as renorm

    monkeypatch.setattr(renorm, "convolve", lambda f, g, name: (lambda k: None))
    phi = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1")})
    with pytest.raises(MathError, match="factorization verification failed"):
        birkhoff(phi, trees_sym4_normalized.bialgebra, pole_part_operator())


def test_birkhoff_names_a_wrong_counterterm(trees_sym4_normalized, monkeypatch):
    # negative control: phi- one off at one tree fails phi- * phi = phi+ at
    # that tree alone, since the keys above it read the wrong value alike
    import sweedler.renorm as renorm

    bad, real = ladder(2), renorm.ConvMap

    def conv_map(C, T, fn, name=""):
        if name == "phi-":
            fn = (lambda k, fn=fn: fn(k) + LaurentPoly.one() if k == bad else fn(k))
        return real(C, T, fn, name)

    monkeypatch.setattr(renorm, "ConvMap", conv_map)
    phi = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1")})
    with pytest.raises(MathError) as err:
        birkhoff(phi, trees_sym4_normalized.bialgebra, pole_part_operator())
    assert str(err.value).splitlines()[2:] == [f"  {bad}: phi- * phi != phi+"]


def test_birkhoff_prepares_each_key_once(trees_sym4_normalized, monkeypatch):
    # phibar has its own memo: phi- and phi+ read one preparation sum per
    # non-unit key, not one each
    import sweedler.renorm as renorm

    prepared, real = [], renorm.convolve_into

    def counted(acc, c, f, g, key, skip=None):
        prepared.append(key)
        return real(acc, c, f, g, key, skip)

    monkeypatch.setattr(renorm, "convolve_into", counted)
    B = trees_sym4_normalized.bialgebra
    phi = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1")})
    birkhoff(phi, B, pole_part_operator())
    unit, = [k for k, _ in B.unit]
    assert len(prepared) == len(set(prepared)) == 154
    assert set(prepared) == set(B.keys) - {unit}


def test_birkhoff_requires_connected(trees_sym4):
    phi = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1")})
    with pytest.raises(ConfigurationError):
        birkhoff(phi, trees_sym4, pole_part_operator())


def test_birkhoff_requires_weight(trees_sym4_normalized):
    phi = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1")})
    with pytest.raises(ConfigurationError):
        birkhoff(phi, trees_sym4_normalized.bialgebra,
                 pole_part_operator().scaled(Fraction(2)))


def test_birkhoff_requires_unital_character(trees_sym4_normalized):
    # a rule set that does not send the unit to one is refused
    from sweedler.specs import ConvMap

    B = trees_sym4_normalized.bialgebra
    rogue = ConvMap(B.coalgebra, LAURENT, lambda k: parse_laurent("2"), "rogue")
    with pytest.raises(ConfigurationError):
        birkhoff(rogue, B, pole_part_operator())
