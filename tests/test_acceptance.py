"""Acceptance suite: one test per criterion, all exact (zero tolerance).

Every test prints a single pass/fail line (visible with pytest -s or in the
captured output on failure) and asserts the criterion.
"""

import random
from fractions import Fraction


from cli_cases import CASES, GOLDEN_DIR, run_cli
from series_oracle import takeuchi_inverse
from sweedler.constructions import (
    brown_coaction,
    localize_central,
    normalized_quotient,
    q_deform,
    validate_coaction,
)
from sweedler.errors import GrouplikeNotInvertible
from sweedler.gallery import (
    Quiver,
    boolean_poset,
    build_drinfeld_double,
    build_incidence_coalgebra,
    build_path_coalgebra,
    build_word_coalgebra,
    chain_poset,
    complete_quiver,
    cyclic_group,
    free_monoid_one_generator,
    build_categorical_coalgebra,
    path_key,
    symmetric_group_3,
    vertex_key,
)
from sweedler.graphs import (
    build_graph_bialgebra,
    edge_contraction_class,
    loop_contraction_class,
    merger_class,
)
from sweedler.inversion import (
    antipode,
    convolution_inverse,
    invert_character,
    validate_antipode,
)
from sweedler.linear import BasisKey, FormalSum, TensorSum
from sweedler.renorm import (
    LAURENT,
    CharacterSpec,
    atkinson_split,
    birkhoff,
    check_rota_baxter,
    parse_laurent,
    pole_part,
    pole_part_operator,
)
from sweedler.specs import (
    CoalgebraSpec,
    conv_maps_equal,
    convolution_unit,
    convolve,
    identity_map,
    validate_coalgebra,
)
from sweedler.structure import (
    bivariate_filtration,
    find_grouplikes,
    find_skew_primitives,
    verify_pathlike,
)
from sweedler.trees import (
    build_tree_bialgebra,
    forest_key,
    ladder,
    parse_forest,
    tau,
    tree_coproduct,
)


def report(number: int, text: str, ok: bool, detail: str = ""):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {text}"
    print(line)
    assert ok, line + ("\n" + detail if detail else "")


BRANCHING_QUIVER = Quiver(
    ("a", "b", "c"),
    (("e1", "a", "b"), ("e2", "b", "c"), ("e3", "a", "c"), ("e4", "c", "a")),
)


def test_c01_coassociativity_and_counit():
    failures = []

    def run(C, max_degree=None):
        r = validate_coalgebra(C, max_degree)
        if not r.ok:
            failures.append(r.render())

    run(build_path_coalgebra(Quiver(("v", "w"), (("e", "v", "w"),)), 6))
    run(build_path_coalgebra(complete_quiver(("0", "1")), 6))
    run(build_path_coalgebra(BRANCHING_QUIVER, 6))
    run(build_incidence_coalgebra(chain_poset(5)))
    run(build_incidence_coalgebra(boolean_poset(3)))
    run(build_word_coalgebra(("a", "b", "c"), 5))
    run(build_tree_bialgebra(5, 5, "s").coalgebra)
    run(build_tree_bialgebra(5, 5, "p").coalgebra)
    run(build_graph_bialgebra(4, 4, 3, connected=True).coalgebra)
    run(build_graph_bialgebra(4, 4, 3, connected=False).coalgebra)
    report(1, "coassociativity and counit laws, exhaustive", not failures,
           "\n".join(failures))


def _compat_failures(B, pairs):
    out = []
    C = B.coalgebra
    for a, b in pairs:
        ab = B.product(a, b)
        if C.delta_sum(ab) != C.delta(a).tensor_mul(C.delta(b), B.algebra.key_product):
            out.append(f"{B.name}: delta not multiplicative at ({a}, {b})")
        if C.counit_sum(ab) != C.counit(a) * C.counit(b):
            out.append(f"{B.name}: counit not multiplicative at ({a}, {b})")
    return out


def test_c02_bialgebra_compatibility():
    from sweedler.trees import forest_grading, forest_leaves

    failures = []
    for mode in ("s", "p"):
        B = build_tree_bialgebra(4, 4, mode)
        weights = {k: (forest_grading(k), forest_leaves(k)) for k in B.keys}
        pairs = [
            (a, b)
            for a in B.keys
            for b in B.keys
            if weights[a][0] + weights[b][0] <= 4
            and weights[a][1] + weights[b][1] <= 4
        ]
        failures += _compat_failures(B, pairs)
    for connected in (True, False):
        B = build_graph_bialgebra(3, 3, 3, connected)
        sizes = {
            k: (len(k.payload[1]), len(k.payload[2]), max(k.payload[1], default=0))
            for k in B.keys
        }
        in_budget = [k for k in B.keys if sizes[k][2] <= 3]
        pairs = [
            (a, b)
            for a in in_budget
            for b in in_budget
            if sizes[a][0] + sizes[b][0] <= 3 and sizes[a][1] + sizes[b][1] <= 3
        ]
        failures += _compat_failures(B, pairs)
    # the multiplicity case: delta(tau1 * tau1) needs the coefficient 2
    k = parse_forest("v(.),v(.)", "s")
    d = tree_coproduct(k)
    mid = d.coeff(parse_forest("v(.),|", "s"), parse_forest("v(.),|", "s"))
    if mid != 2:
        failures.append(f"tau1*tau1 middle coefficient {mid} != 2")
    d1 = tree_coproduct(tau(1))
    product_side = d1.tensor_mul(
        d1, lambda a, b: forest_key(a.payload[1:] + b.payload[1:], "s")
    )
    if d != product_side:
        failures.append("delta(tau1*tau1) != delta(tau1)delta(tau1)")
    report(2, "bialgebra compatibility, exhaustive incl. multiplicity case",
           not failures, "\n".join(failures))


def test_c03_antipode_axiom():
    failures = []

    def check(B, budget=20):
        S = antipode(B, validate=False)
        r = validate_antipode(B, S, sample_budget=budget)
        if not r.ok:
            failures.append(r.render())
        return S

    check(normalized_quotient(build_tree_bialgebra(6, 6, "s")).bialgebra)
    check(normalized_quotient(build_graph_bialgebra(3, 3, 3, True)).bialgebra)
    for group in (cyclic_group(2), cyclic_group(3), symmetric_group_3()):
        D = build_drinfeld_double(group)
        S = check(D)
        closed = D.hooks["closed_antipode"]
        if not all(S(k) == closed(k) for k in D.keys):
            failures.append(f"double({len(group.names)}) closed formula mismatch")
    check(q_deform(build_tree_bialgebra(4, 4, "s"), laurent=True,
                   exponent_window=1).bialgebra)
    check(q_deform(build_graph_bialgebra(2, 4, 4, True), laurent=True,
                   exponent_window=1).bialgebra)
    report(3, "antipode axiom on quotients, doubles, deformations",
           not failures, "\n".join(failures))


def test_c04_closed_form_antipodes():
    failures = []
    trees = q_deform(build_tree_bialgebra(4, 4, "s"), laurent=True,
                     exponent_window=1)
    S = antipode(trees.bialgebra, validate=False)
    for n in range(1, 5):
        value = S(trees.reduce_key(tau(n)))
        if len(value) != 1:
            failures.append(f"S(tau{n}) not a single term")
            continue
        (kk, c), = value
        if c != -1 or trees.single_parameter_exponent(kk) != -(n + 1) \
                or trees.specialize_key(kk) != tau(n):
            failures.append(f"S(tau{n}) != -q^-{n + 1} tau{n}")
    graphs_nc = localize_central(build_graph_bialgebra(2, 1, 4, connected=False),
                                 exponent_window=1)
    Sg = antipode(graphs_nc.bialgebra, validate=False)
    for n in range(1, 5):
        for m in range(1, 5):
            (kk, c), = Sg(graphs_nc.reduce_key(merger_class(n, m)))
            if c != -1 or graphs_nc.single_parameter_exponent(kk) != -2 * (n + m) \
                    or graphs_nc.specialize_key(kk) != merger_class(n, m):
                failures.append(f"S(m_{n},{m}) != -q^-{2 * (n + m)} m_{n},{m}")
    graphs_c = localize_central(build_graph_bialgebra(2, 1, 4, connected=True),
                                exponent_window=1)
    Sc = antipode(graphs_c.bialgebra, validate=False)
    # S(x) = -[id_src]^-1 x [id_tgt]^-1 for the contraction generators:
    # single-parameter exponents -(legs(src) + legs(tgt))
    for n in range(1, 5):
        for m in range(1, 5):
            key = edge_contraction_class(n, m)
            (kk, c), = Sc(graphs_c.reduce_key(key))
            if c != -1 or graphs_c.single_parameter_exponent(kk) != -2 * (n + m - 1):
                failures.append(f"S(edge {n},{m}) exponent wrong")
    for n in range(2, 5):
        key = loop_contraction_class(n)
        (kk, c), = Sc(graphs_c.reduce_key(key))
        if c != -1 or graphs_c.single_parameter_exponent(kk) != -2 * (n - 1):
            failures.append(f"S(loop {n}) exponent wrong")
    report(4, "closed-form generator antipodes in the deformations",
           not failures, "\n".join(failures))


def test_c05_method_agreement():
    failures = []
    instances = [
        normalized_quotient(build_tree_bialgebra(5, 5, "s")).bialgebra,
        normalized_quotient(build_graph_bialgebra(3, 3, 3, True)).bialgebra,
        q_deform(build_tree_bialgebra(3, 3, "s"), laurent=True,
                 exponent_window=1).bialgebra,
        q_deform(build_graph_bialgebra(2, 2, 3, True), laurent=True,
                 exponent_window=1).bialgebra,
    ]
    for B in instances:
        ident = identity_map(B)
        filt = bivariate_filtration(B.coalgebra) \
            if not B.hooks.get("graded_filtration") else None
        if filt is None:
            from sweedler.structure import filtration_from_grading

            filt = filtration_from_grading(B.coalgebra)
        series = takeuchi_inverse(ident, filt)
        recursion = convolution_inverse(ident, bialgebra=B)
        if not conv_maps_equal(series, recursion):
            failures.append(f"{B.name}: methods disagree")
        eta = convolution_unit(B.coalgebra, ident.target)
        if not conv_maps_equal(convolve(ident, series), eta) or \
                not conv_maps_equal(convolve(series, ident), eta):
            failures.append(f"{B.name}: inverse is not two-sided")
    report(5, "series and colored recursion agree; inverses two-sided",
           not failures, "\n".join(failures))


def test_c06_grouplike_gate():
    failures = []
    B = build_tree_bialgebra(4, 4, "s")
    good = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1"),
                                   "grouplike": parse_laurent("z")})
    inv = invert_character(good.as_conv_map(B), B)
    eta = convolution_unit(B.coalgebra, LAURENT)
    pm = good.as_conv_map(B)
    if not conv_maps_equal(convolve(pm, inv), eta):
        failures.append("monomial-valued character did not invert")
    bad = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1"),
                                  "grouplike": parse_laurent("1+z")})
    try:
        invert_character(bad.as_conv_map(B), B)
        failures.append("1+z grouplike value was not rejected")
    except GrouplikeNotInvertible:
        pass
    normalized = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1"),
                                         "grouplike": parse_laurent("1")})
    quotient = normalized_quotient(B)
    rng = random.Random(0)
    keys = list(B.keys)
    for _ in range(100):
        k = rng.choice(keys)
        if normalized(k) != normalized(quotient.normal_form(k)):
            failures.append(f"normalized character does not factor at {k}")
            break
    report(6, "grouplike invertibility gate and quotient factorization",
           not failures, "\n".join(failures))


def test_c07_rota_baxter():
    failures = []
    T = pole_part_operator()
    r = check_rota_baxter(T, samples=500, seed=0)
    if not r.ok:
        failures.append(r.render())
    for mu in (Fraction(2), Fraction(-3, 2)):
        scaled = T.scaled(mu)
        if scaled.weight != -mu:
            failures.append(f"scaled weight {scaled.weight} != {-mu}")
        r = check_rota_baxter(scaled, samples=100, seed=1)
        if not r.ok:
            failures.append(r.render())
    _, _, r = atkinson_split(T, samples=150, seed=2)
    if not r.ok:
        failures.append(r.render())
    report(7, "Rota-Baxter identity, scaling, subdirect splitting",
           not failures, "\n".join(failures))


def test_c08_birkhoff():
    failures = []
    trees = normalized_quotient(build_tree_bialgebra(5, 5, "s")).bialgebra
    phi = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1")})
    pair = birkhoff(phi, trees, pole_part_operator())
    if not pair.report.ok:
        failures.append(pair.report.render())
    if pair.minus(tau(1)) != parse_laurent("-z^-1"):
        failures.append("phi-(tau1) != -z^-1")
    if not pair.minus(ladder(2)).is_zero():
        failures.append("phi-(ladder2) != 0")
    if any(not pole_part(pair.plus(k)).is_zero() for k in trees.keys):
        failures.append("some phi+ value has a pole part")
    graphs = normalized_quotient(build_graph_bialgebra(3, 3, 3, True)).bialgebra
    psi = CharacterSpec(LAURENT, {"edge": parse_laurent("z^-1")})
    pair_g = birkhoff(psi, graphs, pole_part_operator())
    if not pair_g.report.ok:
        failures.append(pair_g.report.render())
    if any(not pole_part(pair_g.plus(k)).is_zero() for k in graphs.keys):
        failures.append("graph phi+ has a pole part")
    report(8, "factorization identity and target separation",
           not failures, "\n".join(failures))


def test_c09_structure_suite():
    failures = []
    for quiver in (Quiver(("v", "w"), (("e", "v", "w"),)),
                   complete_quiver(("0", "1")), BRANCHING_QUIVER):
        C = build_path_coalgebra(quiver, 5)
        gpl, sgpl = find_grouplikes(C)
        if gpl != {vertex_key(v) for v in quiver.vertices} or gpl != sgpl:
            failures.append(f"{C.name}: grouplikes are not the vertices")
        edges = {path_key((name,)) for name, _, _ in quiver.edges}
        found = set()
        for g in sorted(gpl):
            for h in sorted(gpl):
                found |= find_skew_primitives(C, g, h)
        if found != edges:
            failures.append(f"{C.name}: skew primitives are not the edges")
    pathlike_instances = [
        build_path_coalgebra(BRANCHING_QUIVER, 5),
        build_incidence_coalgebra(boolean_poset(3)),
        build_categorical_coalgebra(free_monoid_one_generator(5), 5),
        build_word_coalgebra(("a", "b"), 3, closed=True),
        build_tree_bialgebra(4, 4, "s").coalgebra,
        build_tree_bialgebra(4, 4, "p").coalgebra,
        build_graph_bialgebra(3, 3, 3, True).coalgebra,
        build_graph_bialgebra(3, 3, 3, False).coalgebra,
    ]
    for C in pathlike_instances:
        verdict = verify_pathlike(C)
        if not verdict.is_pathlike:
            failures.append(f"{C.name}: {verdict.render()}")
    g = BasisKey("x", (0,))
    control = CoalgebraSpec("control", [g], lambda k: TensorSum.pure(g, g),
                            lambda k: Fraction(2), lambda k: 0)
    if verify_pathlike(control).is_pathlike:
        failures.append("negative control not detected")
    report(9, "grouplike/skew-primitive structure and the pathlike verdicts",
           not failures, "\n".join(failures))


def test_c10_brown_coaction():
    failures = []
    deformed = q_deform(build_tree_bialgebra(4, 4, "s"), laurent=True,
                        exponent_window=1)
    coaction = brown_coaction(deformed)
    r = validate_coaction(coaction, max_degree=4)
    if not r.ok:
        failures.append(r.render())
    report(10, "coaction iterates agree; right factors parameter-free",
           not failures, "\n".join(failures))


def test_c11_cli_determinism():
    failures = []
    assert len(CASES) >= 20
    for name, argv in CASES:
        golden = (GOLDEN_DIR / f"{name}.txt").read_bytes()
        code1, out1 = run_cli(argv)
        code2, out2 = run_cli(argv)
        if code1 != 0 or code2 != 0:
            failures.append(f"{name}: nonzero exit")
        if out1 != golden or out2 != golden:
            failures.append(f"{name}: bytes differ from the golden corpus")
    report(11, f"golden corpus of {len(CASES)} pairs byte-identical",
           not failures, "\n".join(failures))
