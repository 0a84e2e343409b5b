
import pytest

from sweedler.constructions import (
    CoactionMap,
    QuotientSpec,
    abelianized_quotient,
    brown_coaction,
    localize_central,
    normalized_quotient,
    q_deform,
    q_key,
    split_q_key,
    validate_coaction,
    validate_coideal,
)
from sweedler.errors import UnsupportedError
from sweedler.gallery import build_drinfeld_double, coopposite, cyclic_group
from sweedler.graphs import build_graph_bialgebra, merger_class
from sweedler.inversion import antipode, validate_antipode
from sweedler.linear import FormalSum, TensorSum
from sweedler.renorm import LAURENT, CharacterSpec, parse_laurent
from sweedler.specs import BialgebraSpec, validate_bialgebra, validate_coalgebra
from sweedler.structure import find_grouplikes
from sweedler.trees import (
    build_tree_bialgebra,
    forest_key,
    line_forest,
    parse_forest,
    strip_lines,
    tau,
    unit_key,
)


def test_normalized_quotient_deletes_lines(trees_sym4_normalized):
    q = trees_sym4_normalized
    assert q.normal_form(parse_forest("v(.),|", "s")) == tau(1)
    assert q.normal_form(line_forest(3, "s")) == unit_key("s")


def test_normalized_quotient_connected(trees_sym4_normalized):
    B = trees_sym4_normalized.bialgebra
    gpl, sgpl = find_grouplikes(B.coalgebra)
    assert gpl == sgpl == {unit_key("s")}
    assert validate_coalgebra(B.coalgebra).ok


def test_normalized_tau_primitive(trees_sym4_normalized):
    B = trees_sym4_normalized.bialgebra
    for n in (1, 2, 3):
        t = tau(n)
        expected = TensorSum.of([(unit_key("s"), t), (t, unit_key("s"))])
        assert B.delta(t) == expected


def test_normalized_coideal(trees_sym4_normalized):
    assert validate_coideal(trees_sym4_normalized).ok


def test_coideal_check_reports_generators_outside_the_kernel(trees_sym4):
    # a normal form that identifies nothing leaves every 1 - g outside its
    # kernel, except generator 0, 1 - 1 = 0
    q = QuotientSpec(trees_sym4, "normalized", lambda k: k, trees_sym4)
    report = validate_coideal(q)
    assert report.checked == 5
    assert report.failures == [(f"generator {i}", "not in the kernel of the normal form")
                               for i in range(1, 5)]


def test_normalized_quotient_hopf(trees_sym4_normalized):
    S = antipode(trees_sym4_normalized.bialgebra)
    report = validate_antipode(trees_sym4_normalized.bialgebra, S, sample_budget=10)
    assert report.ok


def test_commutator_quotient_planar(trees_planar4):
    q = abelianized_quotient(trees_planar4, "commutator")
    a = parse_forest("v(.),v(..)", "p")
    b = parse_forest("v(..),v(.)", "p")
    assert q.normal_form(a) == q.normal_form(b)
    assert validate_coideal(q, sample_budget=25).ok
    assert validate_bialgebra(q.bialgebra, sample_budget=60, seed=2).ok


def test_central_quotient_planar(trees_planar4):
    q = abelianized_quotient(trees_planar4, "central")
    a = parse_forest("|,v(.)", "p")
    b = parse_forest("v(.),|", "p")
    assert q.normal_form(a) == q.normal_form(b)
    # non-grouplike factors keep their order
    c = parse_forest("v(.),v(..)", "p")
    d = parse_forest("v(..),v(.)", "p")
    assert q.normal_form(c) != q.normal_form(d)
    assert validate_coideal(q, sample_budget=25).ok


def test_grouplike_central_character_factors_through_central(trees_planar4):
    q = abelianized_quotient(trees_planar4, "central")
    phi = CharacterSpec(
        LAURENT, {"vertex": parse_laurent("z^-1"), "grouplike": parse_laurent("z")}
    )
    for k in list(trees_planar4.keys)[::3]:
        assert phi(k) == phi(q.normal_form(k))


def test_commutative_character_factors_through_commutator(trees_planar4):
    # any character into the (commutative) Laurent target is blind to order
    q = abelianized_quotient(trees_planar4, "commutator")
    phi = CharacterSpec(
        LAURENT, {"vertex": parse_laurent("z^-1+3"), "grouplike": parse_laurent("z")}
    )
    import random as _r

    rng = _r.Random(4)
    keys = list(trees_planar4.keys)
    for _ in range(100):
        k = rng.choice(keys)
        assert phi(k) == phi(q.normal_form(k))


def test_central_quotient_equals_deformed_quotient(trees_planar4):
    # exponent collection: B_q/I keys match central-quotient keys one-to-one
    B = trees_planar4
    q = abelianized_quotient(B, "central")
    D = q_deform(B, laurent=False)

    def central_to_pair(key):
        trees = key.payload[1:]
        lines = sum(1 for t in trees if t == ("|",))
        reduced = forest_key([t for t in trees if t != ("|",)], "p")
        return (reduced, lines)

    seen = {}
    for k in B.keys:
        nf = q.normal_form(k)
        pair = central_to_pair(nf)
        dk = D.reduce_key(k)
        base, exps = split_q_key(dk)
        assert (base, exps.get("q", 0)) == pair
        seen[nf] = dk
    # the correspondence is a bijection on quotient keys at truncation
    assert len(set(seen.values())) == len(seen)
    # and it intertwines the coproducts
    sample = [k for k in q.bialgebra.keys if B.grading(k) <= 3][:25]
    for k in sample:
        left = {
            (seen[a], seen[b]): c for (a, b), c in q.bialgebra.delta(k)
        }
        right = dict(D.bialgebra.delta(seen[k]).terms)
        assert left == right


def test_qdeform_specialization_square(trees_sym4, trees_sym4_normalized):
    D = q_deform(trees_sym4, laurent=True)
    for k in trees_sym4.keys:
        assert D.specialize_key(D.reduce_key(k)) == trees_sym4_normalized.normal_form(k)


def test_qdeform_split_isomorphism(trees_sym4):
    # keys of the deformed quotient are exactly (reduced class, exponent)
    D = q_deform(trees_sym4, laurent=True)
    for k in list(trees_sym4.keys)[::5]:
        base, exps = split_q_key(D.reduce_key(k))
        rebuilt = trees_sym4.hooks["strip_grouplikes"](k)
        assert (base, exps) == (rebuilt[0], rebuilt[1])
    # distinct (base, exponent) pairs are distinct keys
    ks = {q_key(tau(1), {"q": e}) for e in range(-2, 3)}
    assert len(ks) == 5


def test_deformed_bialgebra_axioms(trees_sym4):
    D = q_deform(trees_sym4, laurent=True, exponent_window=1)
    assert validate_coalgebra(D.bialgebra.coalgebra).ok
    assert validate_bialgebra(D.bialgebra, sample_budget=80, seed=9).ok


def test_deformed_grouplikes_are_parameter_monomials(trees_sym4):
    D = q_deform(trees_sym4, laurent=True, exponent_window=2)
    gpl, sgpl = find_grouplikes(D.bialgebra.coalgebra)
    assert gpl == sgpl
    for g in gpl:
        base, _ = split_q_key(g)
        assert base == unit_key("s")


def test_qdeform_rejects_double():
    D = build_drinfeld_double(cyclic_group(2))
    with pytest.raises(UnsupportedError):
        q_deform(D)


def test_qdeform_rejects_colliding_exponent_vectors(trees_sym4):
    # a forged factorization that gives every line forest one exponent
    def forged(key):
        base, exps = strip_lines(key)
        return base, {"q": 1} if exps else {}

    B = trees_sym4
    rogue = BialgebraSpec(B.coalgebra, B.algebra,
                          dict(B.hooks, strip_grouplikes=forged))
    with pytest.raises(UnsupportedError, match="not free on generators"):
        q_deform(rogue)


@pytest.mark.parametrize("mode", ["p", "s"])
@pytest.mark.parametrize("kind", ["commutator", "central"])
def test_deformation_has_no_reordering_hooks(mode, kind):
    # the parent's reordering hooks read forest keys; on q keys they either
    # crashed (planar) or returned the identity as a quotient (symmetric)
    D = q_deform(build_tree_bialgebra(3, 3, mode), laurent=True, exponent_window=1)
    with pytest.raises(UnsupportedError, match=f"has no {kind} reordering hook"):
        abelianized_quotient(D.bialgebra, kind)


def test_brown_coaction_right_factor_parameter_free(trees_sym4):
    D = q_deform(trees_sym4, laurent=True)
    coaction = brown_coaction(D)
    k = D.reduce_key(tau(1))
    terms = coaction(k)
    assert all(b.tag != "q" for (_, b), _ in terms)
    left_exps = sorted(
        split_q_key(a)[1].get("q", 0) for (a, _), _ in terms
    )
    assert left_exps == [0, 1]


def test_brown_coaction_coassociative(trees_sym4):
    D = q_deform(trees_sym4, laurent=True, exponent_window=1)
    coaction = brown_coaction(D)
    report = validate_coaction(coaction, max_degree=4)
    assert report.ok, report.render()


def test_coaction_check_reports_a_wrong_right_coproduct(trees_sym4):
    # over the coopposite of the reduced quotient the iterates disagree
    D = q_deform(trees_sym4, laurent=True, exponent_window=1)
    honest = brown_coaction(D)
    bad = CoactionMap(D, coopposite(honest.reduced.coalgebra))
    report = validate_coaction(bad, max_degree=4)
    assert {detail for _, detail in report.failures} == {"coaction iterates disagree"}
    assert len(report.failures) == 381
    assert validate_coaction(honest, max_degree=4).ok


def test_localize_central_symmetric(trees_sym4):
    loc = localize_central(trees_sym4)
    S = antipode(loc.bialgebra, validate=False)
    # the grouplike line inverts as the exponent -1
    line = loc.reduce_key(line_forest(1, "s"))
    assert S(line) == FormalSum.basis(q_key(unit_key("s"), {"q": -1}))
    report = validate_antipode(loc.bialgebra, S, sample_budget=10)
    assert report.ok


def test_localize_central_rejects_planar(trees_planar4):
    with pytest.raises(UnsupportedError):
        localize_central(trees_planar4)
    # after the central quotient the localization goes through
    q = abelianized_quotient(trees_planar4, "central")
    loc = localize_central(q.bialgebra)
    S = antipode(loc.bialgebra, validate=False)
    k = loc.reduce_key(q.normal_form(parse_forest("v(.)", "p")))
    (kk, c), = S(k)
    assert c == -1


def test_deformations_drop_the_factors_hook(trees_sym4, trees_planar4):
    # the hook splits forest keys; q keys are not forests
    assert "factors" in trees_sym4.hooks
    deformed = [q_deform(trees_sym4), q_deform(trees_sym4, laurent=True),
                localize_central(trees_sym4),
                localize_central(abelianized_quotient(trees_planar4, "central").bialgebra)]
    for D in deformed:
        assert "factors" not in D.bialgebra.hooks


@pytest.mark.parametrize("kind", ["normalized", "commutator", "central"])
def test_quotients_keep_the_factors_hook(trees_planar4, kind):
    # a quotient key is the quotient product of its factors, in their order
    q = (normalized_quotient(trees_planar4) if kind == "normalized"
         else abelianized_quotient(trees_planar4, kind))
    Q = q.bialgebra
    factors = Q.hooks["factors"]
    split = 0
    for k in Q.keys:
        parts = factors(k)
        if parts is None:
            assert len(k.payload) <= 2
            continue
        split += 1
        assert len(parts) >= 2 and all(len(x.payload) == 2 for x in parts)
        product = parts[0]
        for x in parts[1:]:
            product = Q.algebra.key_product(product, x)
        assert product is k
    assert split > 0


def test_localized_graph_merger_antipode():
    B = build_graph_bialgebra(2, 2, 4, connected=False)
    loc = localize_central(B, exponent_window=1)
    S = antipode(loc.bialgebra, validate=False)
    for n, m in ((1, 1), (2, 3), (4, 4)):
        k = loc.reduce_key(merger_class(n, m))
        (kk, c), = S(k)
        assert c == -1
        assert loc.single_parameter_exponent(kk) == -2 * (n + m)
        assert loc.specialize_key(kk) == merger_class(n, m)


# ---------------------------------------------------------------------------
# Cache ownership: a quotient fills its own memos, never its parent's


def _memo_sizes(B):
    return len(B.coalgebra._delta_memo), sum(map(len, B.algebra._memo.values()))


def _antipode_table(B):
    S = antipode(B)
    return {k: S(k) for k in B.keys}


def test_normalized_quotient_fills_only_its_own_memos():
    B = build_tree_bialgebra(4, 4, "s")
    Q = normalized_quotient(B).bialgebra
    table = _antipode_table(Q)
    assert _memo_sizes(B) == (0, 0)
    delta_entries, product_entries = _memo_sizes(Q)
    assert delta_entries == len(Q.keys) and product_entries > 0
    # a parent whose memos are warm gives the same table
    warm = build_tree_bialgebra(4, 4, "s")
    assert validate_coalgebra(warm.coalgebra).ok
    assert validate_bialgebra(warm, exhaustive_degree=4).ok
    assert min(_memo_sizes(warm)) > 0
    assert _antipode_table(normalized_quotient(warm).bialgebra) == table


@pytest.mark.parametrize("kind", ["commutator", "central"])
def test_abelianized_quotient_fills_only_its_own_memos(kind):
    B = build_tree_bialgebra(3, 3, "p")
    Q = abelianized_quotient(B, kind).bialgebra
    assert validate_coalgebra(Q.coalgebra).ok
    assert validate_bialgebra(Q, exhaustive_degree=3).ok
    assert _memo_sizes(B) == (0, 0)
    assert min(_memo_sizes(Q)) > 0


_Q_LADDER_CHILD = """
import pickle, tracemalloc
from sweedler.constructions import q_deform, q_key
from sweedler.trees import build_tree_bialgebra, ladder
D = q_deform(build_tree_bialgebra(2)).bialgebra
key = q_key(ladder(3000), {"q": 1})
tracemalloc.start()
delta = D.delta(key)
peak = tracemalloc.get_traced_memory()[1]
tracemalloc.stop()
universe = set(D.keys)
print(len(delta), peak, sum(a._enc is not None and a not in universe for (a, _), _c in delta),
      pickle.loads(pickle.dumps(key)) is key)
"""


def test_deep_q_key_costs_its_new_structure():
    # a q key is interned by its base key and carries no bytes until asked,
    # so the deformed ladder's coproduct is linear in its depth; with the
    # whole base payload encoded per key it was quadratic, and the key's
    # nested payload tuples could not be pickled
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", _Q_LADDER_CHILD], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    terms, peak, encoded, round_trip = proc.stdout.split()
    assert int(terms) == 3001 and int(encoded) == 0 and round_trip == b"True"
    assert int(peak) < 20 * 2 ** 20


def test_q_key_bytes_are_the_payload_encoding():
    from sweedler.linear import _encode_atom

    D = q_deform(build_tree_bialgebra(2), laurent=True)
    keys = list(D.bialgebra.keys) + [q_key(parse_forest("v(v(.)),v(.)"), {"q": -1, "r": 2})]
    for k in keys:
        assert k.encoded() == b"k" + _encode_atom("q") + _encode_atom(k.payload)
        base, exps = split_q_key(k)
        assert q_key(base, exps) is k and q_key(base, {**exps, "z": 0}) is k
