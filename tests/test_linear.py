from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweedler.linear import BasisKey, FormalSum, TensorSum, decode_key
from sweedler.renorm import LaurentPoly
from sweedler.scalars import Fp, PrimeField, render_scalar
from sweedler.trees import forest_key, ladder


# strategies for structured payloads and sums

atoms = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(alphabet="abcxyz01", min_size=0, max_size=4),
)
payloads = st.recursive(
    atoms, lambda inner: st.tuples(inner, inner), max_leaves=6
)
keys = st.builds(BasisKey, st.sampled_from(["a", "b", "zz"]), st.tuples(payloads))
coeffs = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
)
sums = st.dictionaries(keys, coeffs, max_size=5).map(FormalSum)


@given(keys)
def test_encode_decode_roundtrip(key):
    assert decode_key(key.encoded()) == key


@given(keys, keys)
def test_encoding_injective(k1, k2):
    assert (k1 == k2) == (k1.encoded() == k2.encoded())


def test_encoding_bytes_pinned():
    # the byte format orders every sum and golden file: non-ASCII text is
    # sized in UTF-8 bytes, and bool stays distinct from int
    key = BasisKey("a", ("\u00e9", -5, True, 1, ()))
    assert key.encoded() == b"ks1:at5:s2:\xc3\xa9i2:-5b1i1:1t0:"
    assert decode_key(key.encoded()) == key


def test_decode_takes_any_depth():
    key = ladder(10_000)
    back = decode_key(key.encoded())
    # re-interning the decoded payload must give back the very same key
    assert back.encoded() == key.encoded()
    assert forest_key(back.payload[1:], "s") is key
    assert back == key


def test_deep_keys_compare_without_recursion():
    # a decoded deep key is the very key it encodes, so == never walks the
    # nested tuples (which overflow the stack near depth 1000)
    key = ladder(1000)
    back = decode_key(key.encoded())
    assert back is key
    assert back == key and not back != key
    assert back != ladder(999) and back != decode_key(ladder(999).encoded())
    assert BasisKey("a", (1,)) != BasisKey("b", (1,))
    assert BasisKey("a", (1,)) != (1,)


def test_bool_and_int_payloads_are_distinct_keys():
    # the key table is keyed by encoding, where True and 1 differ
    assert BasisKey("a", (True,)) is not BasisKey("a", (1,))
    assert BasisKey("a", (True,)) is BasisKey("a", (True,))
    assert BasisKey("a", (1,)) is BasisKey("a", (1,))


def test_copied_keys_are_the_stored_key():
    import copy
    import pickle

    key = BasisKey("a", ("x", (1, True)))
    assert copy.copy(key) is key and copy.deepcopy(key) is key
    assert pickle.loads(pickle.dumps(key)) is key


def test_keys_interned_across_threads():
    # four threads build the same never-seen keys of a family no module
    # interns for itself, in rounds that start together; each encoding must
    # give all of them one object
    import sys
    import threading

    payloads = [(r, i, ("x",) * (i % 5)) for r in range(6) for i in range(500)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        barrier = threading.Barrier(4, timeout=30)
        errors = []
        results = [[] for _ in range(4)]

        def work(t):
            try:
                for r in range(6):
                    barrier.wait()
                    batch = payloads[r * 500:(r + 1) * 500]
                    results[t].extend(BasisKey("thr", p) for p in batch)
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
    for i, p in enumerate(payloads):
        key = BasisKey("thr", p)
        assert all(r[i] is key for r in results)


@pytest.mark.parametrize("buf", [
    b"x", b"k", b"ks1:a", b"ks1:at1:", b"ks1:at2:i1:1", b"ks1:aq1:",
    b"ks1:ai1:5zz", b"ksx:a",
])
def test_decode_rejects_malformed_input(buf):
    with pytest.raises(ValueError):
        decode_key(buf)


def test_encoding_injective_bulk():
    # canonicality at scale: >= 10^4 generated keys, all encodings distinct
    universe = [
        BasisKey("t", (i, j, s))
        for i in range(40)
        for j in range(51)
        for s in ("x", "y", ("p", "q"), 7, ("a", ("b",)))
    ]
    assert len(universe) >= 10 ** 4
    encodings = {k.encoded() for k in universe}
    assert len(encodings) == len(universe)
    for k in universe[::37]:
        assert decode_key(k.encoded()) == k


def test_key_order_deterministic():
    ks = [BasisKey("b", (1,)), BasisKey("a", (2,)), BasisKey("a", (1, 1))]
    once = sorted(ks)
    assert sorted(reversed(ks)) == once


@given(sums, sums, sums)
@settings(max_examples=60)
def test_addition_associative(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(sums, sums, coeffs)
@settings(max_examples=60)
def test_scalar_distributivity(a, b, c):
    assert (a + b).scale(c) == a.scale(c) + b.scale(c)


@given(sums)
def test_no_zero_coefficients(a):
    assert all(c != 0 for _, c in a)
    assert (a - a).is_zero()
    assert a + FormalSum.zero() == a


def test_scaling_prunes_zero():
    k = BasisKey("a", (1,))
    assert FormalSum.basis(k).scale(Fraction(0)).is_zero()
    assert FormalSum({k: Fraction(0)}).is_zero()


def test_render_contract():
    k1 = BasisKey("a", ("x",))
    k2 = BasisKey("a", ("y",))
    s = FormalSum({k2: Fraction(-1, 2), k1: Fraction(3)})
    assert s.render() == "3*a:('x',) + -1/2*a:('y',)"
    assert FormalSum.zero().render() == "0"


def test_render_scalar():
    assert render_scalar(Fraction(3)) == "3"
    assert render_scalar(Fraction(-1, 2)) == "-1/2"
    assert render_scalar(3) == "3"


def test_render_scalar_refuses_float():
    # a float coefficient is a leak out of exact arithmetic, never a value
    with pytest.raises(TypeError):
        render_scalar(0.5)
    with pytest.raises(TypeError):
        FormalSum({BasisKey("a", (1,)): 2.0}).render()


def test_tensor_sum_basics():
    a, b = BasisKey("a", (1,)), BasisKey("a", (2,))
    t = TensorSum.pure(a, b) + TensorSum.pure(b, a).scale(Fraction(2))
    assert t.flip() == TensorSum.pure(b, a) + TensorSum.pure(a, b).scale(Fraction(2))
    assert t.coeff(a, b) == 1
    assert (t - t).is_zero()


def test_tensor_of_accumulates():
    a = BasisKey("a", (1,))
    t = TensorSum.of([(a, a), (a, a)])
    assert t.coeff(a, a) == 2


def test_prime_field():
    gf7 = PrimeField(7)
    x = gf7.from_int(3)
    assert x + x == gf7.from_int(6)
    assert x * gf7.invert(x) == gf7.one()
    assert not gf7.zero()
    with pytest.raises(ValueError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        gf7.zero().inverse()


def test_prime_field_sums():
    gf5 = PrimeField(5)
    k = BasisKey("a", (0,))
    s = FormalSum({k: gf5.from_int(2)})
    assert (s + s + s + s + s).is_zero()
    assert (s + s).coeff(k) == Fp(4, 5)
    # subtraction negates with unary minus: 0 - Fp and -1 * Fp are undefined
    assert (FormalSum.zero() - s).coeff(k) == Fp(3, 5)
    assert (s - s).is_zero()
    assert (-s).coeff(k) == Fp(3, 5)


_a, _b = BasisKey("a", (1,)), BasisKey("a", (2,))


@pytest.mark.parametrize("value", [
    FormalSum({_a: Fraction(3), _b: Fraction(-1, 2)}),
    TensorSum({(_a, _b): Fraction(2), (_b, _b): Fraction(-5)}),
    LaurentPoly({-1: 3, 2: Fraction(1, 4)}),
], ids=lambda v: type(v).__name__)
def test_sparse_sum_core(value):
    assert (value - value).is_zero()
    assert value - value == type(value).zero()
    assert -(-value) == value
    twin = type(value)(dict(reversed(list(value.terms.items()))))
    assert twin == value and hash(twin) == hash(value)
    assert FormalSum.zero() != TensorSum.zero() != LaurentPoly.zero()
    assert FormalSum.zero() != LaurentPoly.zero()
