from fractions import Fraction

import pytest

from sweedler.errors import ConfigurationError
from sweedler.gallery import (
    build_path_coalgebra,
    build_setlike_coalgebra,
    chain_poset,
    build_incidence_coalgebra,
    path_key,
    setlike_key,
    vertex_key,
    Quiver,
)
from sweedler.linear import BasisKey, FormalSum, TensorSum
from sweedler.renorm import LAURENT, LaurentPoly
from sweedler.specs import (
    CoalgebraSpec,
    ConvMap,
    convolution_unit,
    convolve,
    validate_bialgebra,
    validate_coalgebra,
)
from sweedler.specs import AlgebraSpec, BialgebraSpec, RationalTarget


def word_target():
    """Free algebra on path/vertex symbols: words under concatenation."""

    def product(k1, k2):
        return BasisKey("w", k1.payload + k2.payload)

    return AlgebraSpec("words", product, FormalSum.basis(BasisKey("w", ())))


def inclusion(C, target):
    return ConvMap(C, target, lambda k: FormalSum.basis(BasisKey("w", (str(k),))), "incl")


def test_convolution_unit_is_neutral(single_edge_paths):
    C = single_edge_paths
    T = word_target()
    f = inclusion(C, T)
    eta = convolution_unit(C, T)
    left = convolve(eta, f)
    right = convolve(f, eta)
    for k in C.keys:
        assert left(k) == f(k)
        assert right(k) == f(k)
    # unit of convolution: eta * eta = eta
    assert all(convolve(eta, eta)(k) == eta(k) for k in C.keys)


def test_convolution_unit_values(single_edge_paths):
    C = single_edge_paths
    T = word_target()
    eta = convolution_unit(C, T)
    assert eta(vertex_key("v")) == T.one()
    assert eta(path_key(("e",))).is_zero()


def test_identity_convolution_on_edge(single_edge_paths):
    # delta(e) = v (x) e + e (x) w, so (f*f)(e) = v.e + e.w in the word algebra
    C = single_edge_paths
    T = word_target()
    f = inclusion(C, T)
    square = convolve(f, f)
    expected = FormalSum.basis(BasisKey("w", ("v", "e"))) + FormalSum.basis(
        BasisKey("w", ("e", "w"))
    )
    assert square(path_key(("e",))) == expected


def test_convolution_associative(single_edge_paths):
    C = single_edge_paths
    T = word_target()
    f = inclusion(C, T)
    eta = convolution_unit(C, T)
    g = convolve(f, f)
    for k in C.keys:
        assert convolve(convolve(f, g), f)(k) == convolve(f, convolve(g, f))(k)
        assert convolve(convolve(f, eta), g)(k) == convolve(f, convolve(eta, g))(k)


def test_convolution_bilinear(single_edge_paths):
    C = single_edge_paths
    T = LAURENT
    z = LaurentPoly.monomial(1)
    f = ConvMap(C, T, lambda k: z if C.grading(k) else T.one(), "f")
    g = ConvMap(C, T, lambda k: LaurentPoly.monomial(-1), "g")
    h = ConvMap(C, T, lambda k: f(k) + g(k), "f+g")
    for k in C.keys:
        assert convolve(h, f)(k) == convolve(f, f)(k) + convolve(g, f)(k)


def _accumulate_cases():
    w = word_target()
    x, y = BasisKey("w", ("x",)), BasisKey("w", ("y",))
    sx = FormalSum({x: Fraction(2), y: Fraction(-1)})
    sy = FormalSum({y: Fraction(3)})
    z = LaurentPoly({-1: Fraction(1), 2: Fraction(1, 2)})
    return [
        (w, sx, sy),
        (LAURENT, z, LaurentPoly({1: Fraction(-2), 0: Fraction(1)})),
        (RationalTarget(), Fraction(3, 4), Fraction(-2)),
    ]


@pytest.mark.parametrize("T,a,b", _accumulate_cases(),
                         ids=["formal-sum", "laurent", "rational"])
def test_accumulate_matches_add_and_leaves_inputs_alone(T, a, b):
    before = (a + T.zero(), b + T.zero())
    acc = T.zero()
    for c in (Fraction(2), Fraction(0), Fraction(-1, 3)):
        acc = T.accumulate(acc, c, a)
        acc = T.accumulate(acc, c, a, b)
    expected = T.zero()
    for c in (Fraction(2), Fraction(0), Fraction(-1, 3)):
        expected = expected + T.scale(c, a)
        expected = expected + T.scale(c, T.mul(a, b))
    assert acc == expected
    # a sum and its negation cancel to an empty accumulator, not to zeros
    acc = T.accumulate(acc, -1, expected)
    assert acc == T.zero()
    assert a == before[0] and b == before[1]


def test_convolution_source_mismatch(single_edge_paths, two_vertex_complete_paths):
    T = word_target()
    f = inclusion(single_edge_paths, T)
    g = inclusion(two_vertex_complete_paths, T)
    with pytest.raises(ConfigurationError):
        convolve(f, g)


def test_character_convolution_multiplicative(trees_sym4):
    # characters into a commutative target: f*g is again multiplicative
    B = trees_sym4
    C = B.coalgebra
    from sweedler.renorm import CharacterSpec, parse_laurent

    f = CharacterSpec(LAURENT, {"vertex": parse_laurent("z^-1"), "grouplike": parse_laurent("z")})
    g = CharacterSpec(LAURENT, {"vertex": parse_laurent("2z"), "grouplike": parse_laurent("1")})
    fm, gm = f.as_conv_map(B), g.as_conv_map(B)
    conv = convolve(fm, gm)
    keys = [k for k in C.keys if C.grading(k) <= 2]
    for a in keys[:12]:
        for b in keys[:12]:
            ab = B.product(a, b)
            lhs = conv.evaluate(ab)
            assert lhs == conv(a) * conv(b)


# ---------------------------------------------------------------------------
# dual algebra


def _functional(C, values):
    """A linear functional on C, given on basis keys: an element of the dual."""
    return ConvMap(C, RationalTarget(), lambda k: values.get(k, 0))


def _values(f):
    return {k: f(k) for k in f.source.keys if f(k)}


def test_dual_setlike_orthogonal_idempotents():
    C = build_setlike_coalgebra(["x", "y", "z"])
    dx = _functional(C, {setlike_key("x"): Fraction(1)})
    dy = _functional(C, {setlike_key("y"): Fraction(1)})
    assert _values(convolve(dx, dy)) == {}
    assert _values(convolve(dx, dx)) == _values(dx)
    # on a setlike coalgebra the dual product is pointwise
    f = _functional(C, {setlike_key("x"): 3})
    g = _functional(C, {setlike_key("x"): 4, setlike_key("y"): 2})
    assert _values(convolve(f, g)) == {setlike_key("x"): 12}


def test_dual_counit_is_unit():
    C = build_setlike_coalgebra(["x", "y", "z"])
    eps = convolution_unit(C, RationalTarget())
    assert _values(eps) == {k: 1 for k in C.keys}
    f = _functional(C, {setlike_key("x"): Fraction(2), setlike_key("z"): Fraction(-5, 3)})
    assert _values(convolve(eps, f)) == _values(f)
    assert _values(convolve(f, eps)) == _values(f)


def test_dual_on_single_edge(single_edge_paths):
    C = single_edge_paths
    dv = _functional(C, {vertex_key("v"): Fraction(1)})
    de = _functional(C, {path_key(("e",)): Fraction(1)})
    prod = convolve(dv, de)
    assert prod(path_key(("e",))) == 1


# ---------------------------------------------------------------------------
# validators


def test_validate_path_coalgebras(single_edge_paths, two_vertex_complete_paths):
    assert validate_coalgebra(single_edge_paths, max_degree=5).ok
    assert validate_coalgebra(two_vertex_complete_paths, max_degree=5).ok


def test_validate_incidence_chain():
    report = validate_coalgebra(build_incidence_coalgebra(chain_poset(3)))
    assert report.ok


def test_corrupted_delta_is_reported():
    quiver = Quiver(("v",), (("a", "v", "v"),))
    C = build_path_coalgebra(quiver, 3)
    bad_key = path_key(("a", "a", "a"))

    def corrupted(k):
        full = C.delta(k)
        if k == bad_key:
            # drop one middle deconcatenation term, asymmetrically
            return full - TensorSum.pure(path_key(("a",)), path_key(("a", "a")))
        return full

    broken = CoalgebraSpec("broken", C.keys, corrupted, C.counit, C.grading)
    report = validate_coalgebra(broken)
    assert not report.ok
    assert any(ctx == "a.a.a" for ctx, _ in report.failures)


def test_validate_bialgebra_negative_control(trees_sym4):
    B = trees_sym4

    def projecting_product(a, b):
        return a

    broken = BialgebraSpec(
        B.coalgebra,
        AlgebraSpec("broken", projecting_product, B.unit),
    )
    report = validate_bialgebra(broken, sample_budget=80, seed=3)
    assert not report.ok


def test_product_rows_call_the_product_once_per_pair():
    # multiplying the same pairs twice, by keys and by sums, evaluates the
    # spec's raw product once per distinct pair
    import random
    from collections import Counter

    from sweedler.trees import all_forest_keys, forest_product, unit_key

    calls = Counter()

    def product(a, b):
        calls[a, b] += 1
        return forest_product(a, b)

    A = AlgebraSpec("counted", product, FormalSum.basis(unit_key("s")))
    keys = all_forest_keys(3, 3, "s")
    rng = random.Random(5)
    pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(400)]
    left = FormalSum({a: 1 for a, _ in pairs[:20]})
    right = FormalSum({b: 2 for _, b in pairs[20:40]})
    expected = FormalSum.zero()
    for a in left.terms:
        for b in right.terms:
            expected += FormalSum.basis(forest_product(a, b), 2)
    for _ in range(2):
        assert [A.key_product(a, b) for a, b in pairs] == [
            forest_product(a, b) for a, b in pairs]
        assert A.mul(left, right) == expected
    distinct = set(pairs) | {(a, b) for a in left.terms for b in right.terms}
    assert set(calls) == distinct and set(calls.values()) == {1}


def test_product_memo_shared_across_threads():
    # four threads multiply the same never-seen pairs through one spec, in
    # rounds that start together.  This product hands out a fresh key on
    # every evaluation, so only the memo's first stored entry can give every
    # thread the same key for a pair
    import itertools
    import sys
    import threading

    fresh = itertools.count()

    def product(a, b):
        for _ in range(30):  # a window between the memo miss and its insert
            pass
        return BasisKey("thr-ab", next(fresh))

    A = AlgebraSpec("threads", product, FormalSum.basis(BasisKey("thr-a", -1)))
    pairs = [(BasisKey("thr-a", (r, i % 7)), BasisKey("thr-a", i))
             for r in range(6) for i in range(300)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        barrier = threading.Barrier(4, timeout=30)
        errors = []
        keys = [[] for _ in range(4)]
        sums = [[] for _ in range(4)]

        def work(t):
            try:
                for r in range(6):
                    barrier.wait()
                    batch = pairs[r * 300:(r + 1) * 300]
                    keys[t].extend(A.key_product(a, b) for a, b in batch)
                    sums[t].extend(A.mul(FormalSum.basis(a), FormalSum.basis(b))
                                   for a, b in batch[::10])
            except Exception as exc:  # any error fails the test
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old_interval)
    assert not errors
    for i, (a, b) in enumerate(pairs):
        key = A.key_product(a, b)
        assert all(k[i] is key for k in keys)
    assert sums[0] == sums[1] == sums[2] == sums[3]


def test_restriction_to_subcoalgebra(two_vertex_complete_paths):
    # a subquiver's paths form a subcoalgebra; convolution computed inside
    # agrees with convolution computed in the big coalgebra
    C = two_vertex_complete_paths
    sub_quiver = Quiver(("0", "1"), (("0to1", "0", "1"),))
    S = build_path_coalgebra(sub_quiver, 5)
    T = word_target()
    f_big = inclusion(C, T)
    f_small = inclusion(S, T)
    conv_big = convolve(f_big, f_big)
    conv_small = convolve(f_small, f_small)
    for k in S.keys:
        assert conv_big(k) == conv_small(k)


def test_degree_zero_closure(trees_sym4):
    report = validate_coalgebra(trees_sym4.coalgebra, max_degree=0)
    assert report.ok


def test_renorm_reads_no_family_keys():
    # characters reach a key only through the rule counts its family
    # registers, so a new family adds no branch to renorm
    import ast
    from pathlib import Path

    import sweedler.renorm

    tree = ast.parse(Path(sweedler.renorm.__file__).read_text(encoding="utf-8"))
    imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert all(n in tree.body for n in imports)  # no in-function import
    names = set()
    for n in imports:
        names.update(a.name.rpartition(".")[2] for a in n.names)
        if isinstance(n, ast.ImportFrom) and n.module:
            names.add(n.module.rpartition(".")[2])
    assert not names & {"trees", "graphs", "constructions", "gallery"}
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not attrs & {"tag", "payload"}


def test_one_convolution_sum():
    # renorm checks its factorization without the inversion code, and only
    # specs, whose convolve_into is the one sum over a coproduct, multiplies
    # a key by a sum
    import ast
    from pathlib import Path

    import sweedler

    package = Path(sweedler.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        if path.name != "specs.py":
            assert not attrs & {"key_mul_into", "mul_key_into"}, path.name
        if path.name == "renorm.py":
            names = set()
            for n in ast.walk(tree):
                if isinstance(n, ast.ImportFrom) and n.module:
                    names.add(n.module.rpartition(".")[2])
                if isinstance(n, (ast.Import, ast.ImportFrom)):
                    names.update(a.name.rpartition(".")[2] for a in n.names)
            assert "inversion" not in names


def test_one_check_per_law():
    # each law has one implementation, which every other check calls: the
    # comodule laws in specs, the projector laws in check_rota_baxter, the
    # convolution sum in convolve_into and a grouplike's inverse in
    # _grouplike_inverse
    import ast
    from pathlib import Path

    import sweedler

    package = Path(sweedler.__file__).parent
    trees = {name: ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
             for name in ("specs", "constructions", "renorm", "inversion")}

    def function(module, name):
        found = [n for n in ast.walk(trees[module])
                 if isinstance(n, ast.FunctionDef) and n.name == name]
        assert len(found) <= 1, name
        return found[0] if found else None

    def called(node):
        names = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Call):
                f = n.func
                names.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None))
        return names

    assert function("specs", "_triple_left") is None
    assert function("specs", "_triple_right") is None
    assert "_comodule_laws" in called(function("specs", "validate_coalgebra"))
    coaction = function("constructions", "validate_coaction")
    assert "_comodule_laws" in called(coaction)
    assert not [inner for outer in ast.walk(coaction) if isinstance(outer, ast.For)
                for inner in ast.walk(outer) if inner is not outer and isinstance(inner, ast.For)]
    split = called(function("renorm", "atkinson_split"))
    assert "check_rota_baxter" in split and not split & {"random_laurent", "Random"}
    assert "delta" not in called(trees["renorm"])
    assert "try_inverse" not in called(function("inversion", "_gate_grouplikes"))


def test_module_caches_are_the_documented_two():
    # process-wide functools caches hold only pure, spec-free tables; every
    # structure-map value is memoised by the spec or map that serves it
    import importlib
    import pkgutil
    from pathlib import Path

    import sweedler

    caches = set()
    for info in pkgutil.iter_modules(sweedler.__path__):
        module = importlib.import_module(f"sweedler.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_info"):
                caches.add(f"{value.__module__.rpartition('.')[2]}.{value.__name__}")
    assert caches == {"gallery._word_cuts"}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    note = readme[readme.index("- Caches live at module level"):]
    note = note[:note.index("\n- ")] if "\n- " in note else note
    for name in caches:
        assert f"`{name}`" in note
