"""Basis keys and sparse formal linear combinations.

Every algebra or coalgebra element in this library is a finite map from
canonical basis keys to exact scalars.  A :class:`BasisKey` is a tagged,
immutable payload of nested tuples, ints and strings; equal mathematical
basis elements always carry byte-identical encodings, and the byte encoding
induces the deterministic total order used everywhere (term sorting, golden
rendering, sweep order).

Keys are hash-consed (Filliatre and Conchon, 2006), so there is one key
object per key.  Equal keys are identical, and keys hash and compare with
the C-level identity defaults.  ``intern`` is the one code that builds and
publishes a key: it looks a signature up in a table and, on a miss, builds
the key without bytes and publishes it with ``dict.setdefault``, so threads
that build the same key at once still share one object.

A family declares its tag once, with ``register_family``: the key's
literal, its constructor when the family keeps its keys in a table of its
own, and its character rule counts when it has generators.  For a tag with
a constructor, ``BasisKey(tag, payload)``, copies and unpickling hand the
payload to it, and its keys get their bytes on first use.  Every other tag
is interned in ``_KEYS``, keyed by the encoding, so ``True`` and ``1`` stay
distinct.

One private core, ``_SparseSum``, underlies every sum type: a term dict that
never stores a zero coefficient, so equality of sums is plain map equality
within one type.  It owns construction, ``zero``, ``is_zero``, iteration,
``len``, ``==``, ``hash``, ``+``, ``-``, negation, ``scale``, ``render`` and
``repr``.  :class:`FormalSum` adds ``basis``, ``coeff``, ``map_keys`` and
the key order; :class:`TensorSum` adds ``pure``, ``of``, ``coeff``,
``flip``, ``tensor_mul`` and the pair order; ``renorm.LaurentPoly`` adds
the Laurent product and units.  Sums are immutable after construction and
safe to share across threads.  The engine's accumulation loops grow a
private sum from ``zero()`` in place (see the ``accumulate`` method of the
convolution targets in :mod:`sweedler.specs`) and publish it only when it
is complete.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .errors import RuleNotFound
from .scalars import render_scalar

Payload = object  # nested tuples of int/str

# encoding -> the one key of a tag that no family constructor builds
_KEYS: dict = {}
# tag -> (literal, constructor or None, rule counts or None): ``register_family``
_FAMILIES: dict[str, tuple] = {}


class BasisKey:
    """A canonical basis element: a family tag plus a structured payload.

    Keys are hash-consed: ``BasisKey(tag, payload)`` hands back the one
    object stored for that key, so equal keys are identical and compare and
    hash by identity.  A tag whose family declares a constructor is built
    by it; any other tag is interned in ``_KEYS`` by its encoding.
    """

    __slots__ = ("tag", "payload", "_enc")

    def __new__(cls, tag: str, payload=()):
        family = _FAMILIES.get(tag)
        if family is not None and family[1] is not None:
            return family[1](payload)
        enc = b"k" + _encode_atom(tag, payload)
        return intern(_KEYS, enc, tag, payload, _enc=enc)

    def __reduce__(self):  # an unpickled key is the stored one
        return BasisKey, (self.tag, self.payload)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def encoded(self) -> bytes:
        """Canonical byte encoding; injective and order-defining."""
        return self._enc or self._fill()

    def _fill(self) -> bytes:
        """The bytes of a key built without them, stored on first use."""
        self._enc = enc = b"k" + _encode_atom(self.tag, self.payload)
        return enc

    def __lt__(self, other: "BasisKey") -> bool:
        return (self._enc or self._fill()) < (other._enc or other._fill())

    def __le__(self, other: "BasisKey") -> bool:
        return (self._enc or self._fill()) <= (other._enc or other._fill())

    def __repr__(self) -> str:
        return f"BasisKey({self.tag!r}, {self.payload!r})"

    def __str__(self) -> str:
        return key_literal(self)


def intern(table: dict, sig, tag: str, payload, cls=BasisKey, **slots) -> BasisKey:
    """The key stored under ``sig`` in ``table``.  On a miss a ``cls`` key
    is built without bytes, its other ``slots`` set, and published with
    ``dict.setdefault``: racing threads all get the first one stored."""
    key = table.get(sig)
    if key is None:
        new = object.__new__(cls)
        new.tag, new.payload, new._enc = tag, payload, None
        for name, value in slots.items():
            setattr(new, name, value)
        key = table.setdefault(sig, new)
    return key


def _encode_atom(*xs) -> bytes:
    """The encodings of ``xs``, one after another.  Nested tuples are walked
    with a stack of iterators instead of recursion, so a payload of any
    depth encodes."""
    parts: list = []
    stack = [iter(xs)]
    while stack:
        for v in stack[-1]:
            if isinstance(v, tuple):
                parts.append(f"t{len(v)}:")
                stack.append(iter(v))
                break
            if isinstance(v, str):
                parts.append(f"s{len(v.encode())}:{v}")
            elif isinstance(v, bool):  # bool is an int subtype; keep distinct
                parts.append("b1" if v else "b0")
            elif isinstance(v, int):
                s = str(v)
                parts.append(f"i{len(s)}:{s}")
            else:
                raise TypeError(f"unencodable payload atom {v!r}")
        else:
            stack.pop()
    # Every piece but a string's text is ASCII, and each string carries its
    # UTF-8 byte length, so encoding the joined text once gives the bytes.
    return "".join(parts).encode()


def register_family(tag: str, literal: Callable[[BasisKey], str],
                    make: Callable[[Payload], BasisKey] | None = None,
                    counts: Callable[[BasisKey], tuple] | None = None) -> None:
    """Declare the family of ``tag`` keys; ``literal(key)`` is a key's text.

    ``make(payload)`` builds every ``tag`` key, so a key made from a raw
    payload, or unpickled in another interpreter, holds the family's
    interned parts; it must not call ``BasisKey(tag, ...)``.
    ``counts(key)`` names a key's generators for characters as
    ``(rule, count)`` pairs, and a character's value on the key is the
    product of each rule's value to its count.
    """
    _FAMILIES[tag] = (literal, make, counts)


def rule_counts(key: BasisKey) -> tuple:
    family = _FAMILIES.get(key.tag)
    if family is None or family[2] is None:
        raise RuleNotFound(key.tag)
    return family[2](key)


def key_literal(key: BasisKey) -> str:
    family = _FAMILIES.get(key.tag)
    if family is not None:
        return family[0](key)
    return f"{key.tag}:{key.payload!r}"


class _SparseSum:
    """The shared core: a finite map from keys to nonzero exact coefficients.

    It owns construction, the linear operations, equality and rendering.  A
    subclass names its key order (``sorted_terms``) and the text of one
    term (``_term_text``).  Sums of different types never compare equal.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None, _clean: bool = False):
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            self.terms = {k: c for k, c in terms.items() if c}

    @classmethod
    def zero(cls):
        return cls({}, True)

    def is_zero(self) -> bool:
        return not self.terms

    def __iter__(self) -> Iterator:
        return iter(self.terms.items())

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        _iadd(out, other.terms)
        return type(self)(out, _clean=True)

    def __sub__(self, other):
        out = dict(self.terms)
        _iadd(out, (-other).terms)
        return type(self)(out, _clean=True)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()}, _clean=True)

    def scale(self, c):
        if not c:
            return self.zero()
        return type(self)({k: c * v for k, v in self.terms.items()}, _clean=True)

    def render(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(self._term_text(k, c) for k, c in self.sorted_terms())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.render()}>"


class FormalSum(_SparseSum):
    """A finite linear combination of basis keys with nonzero coefficients."""

    __slots__ = ()

    @classmethod
    def basis(cls, key: BasisKey, coeff=1) -> "FormalSum":
        if not coeff:
            return cls.zero()
        return cls({key: coeff}, _clean=True)

    def coeff(self, key: BasisKey):
        return self.terms.get(key, 0)

    def map_keys(self, fn: Callable[[BasisKey], "FormalSum"]) -> "FormalSum":
        """Linear extension of a key-to-sum map."""
        out: dict = {}
        for k, c in self.terms.items():
            for k2, c2 in fn(k).terms.items():
                _addto(out, k2, c * c2)
        return FormalSum(out, _clean=True)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].encoded())

    @staticmethod
    def _term_text(key: BasisKey, c) -> str:
        # an int renders as itself, without the render_scalar call
        return f"{c if type(c) is int else render_scalar(c)}*{key_literal(key)}"


def _addto(d: dict, k, c) -> None:
    old = d.get(k)
    if old is None:
        if c:
            d[k] = c
        return
    nc = old + c
    if nc:
        d[k] = nc
    else:
        del d[k]


def _iadd(d: dict, other: dict, scale=1) -> None:
    """``d += scale * other`` on term dicts, in place, dropping zeros.

    ``other`` holds no zero coefficient, so a new key needs no check.
    """
    if not scale:
        return
    items = other.items() if scale == 1 else [(k, scale * c) for k, c in other.items()]
    for k, c in items:
        old = d.get(k)
        if old is None:
            d[k] = c
            continue
        nc = old + c
        if nc:
            d[k] = nc
        else:
            del d[k]


class TensorSum(_SparseSum):
    """A finite sum of two-fold tensors, stored flat as pair keys."""

    __slots__ = ()

    @classmethod
    def pure(cls, left: BasisKey, right: BasisKey, coeff=1) -> "TensorSum":
        if not coeff:
            return cls.zero()
        return cls({(left, right): coeff}, _clean=True)

    @classmethod
    def of(cls, pairs: Iterable) -> "TensorSum":
        """Accumulate ``(left, right, coeff)`` or ``(left, right)`` triples."""
        out: dict = {}
        for item in pairs:
            if len(item) == 2:
                a, b = item
                c = 1
            else:
                a, b, c = item
            _addto(out, (a, b), c)
        return cls(out, _clean=True)

    def coeff(self, left: BasisKey, right: BasisKey):
        return self.terms.get((left, right), 0)

    def flip(self) -> "TensorSum":
        return TensorSum({(b, a): c for (a, b), c in self.terms.items()}, _clean=True)

    def tensor_mul(self, other: "TensorSum", product) -> "TensorSum":
        """Componentwise product ``(a (x) b)(c (x) d) = ac (x) bd``.

        ``product(k1, k2)`` is the key ``k1*k2`` (coefficient 1) or ``None``.
        """
        out: dict = {}
        for (a, b), c1 in self.terms.items():
            for (x, y), c2 in other.terms.items():
                left = product(a, x)
                if left is not None:
                    right = product(b, y)
                    if right is not None:
                        _addto(out, (left, right), c1 * c2)
        return TensorSum(out, _clean=True)

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][0].encoded(), kv[0][1].encoded()),
        )

    @staticmethod
    def _term_text(pair, c) -> str:
        a, b = pair
        scalar = c if type(c) is int else render_scalar(c)
        return f"{scalar}*{key_literal(a)}(x){key_literal(b)}"
