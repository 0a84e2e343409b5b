"""Coalgebra, algebra and bialgebra interfaces plus the convolution algebra.

A :class:`CoalgebraSpec` packages an enumerable (truncated) basis universe
together with total functions ``delta`` and ``counit`` on keys; linearity is
supplied by the engine.  Structural axioms are *validated*, never assumed:
the validators return reports listing offending keys so that negative
controls stay observable.

An :class:`AlgebraSpec` is given its product as a function from two keys
to one key (coefficient 1) or ``None`` where the product is zero: every
family's basis is a partial monoid.  The spec memoises keys in one row
per left factor, a dict that holds the product and that factor and fills
an entry on a miss; ``product`` and ``mul`` are ``FormalSum`` views of
that memo.  A key times a sum costs one product-row read and then one
lookup per term: ``key_mul_into`` adds ``c * k * s`` and ``mul_key_into``
adds ``c * s * k`` into a term dict, and ``mul_into`` runs
``key_mul_into`` once per term of its left factor.

Each value is memoised once, by the spec or ``ConvMap`` that serves it:
``CoalgebraSpec.delta`` and ``AlgebraSpec.key_product`` are memoised views of
``raw_delta`` and ``raw_product``, and a coalgebra keeps its grouplike scan.
A quotient reads its parent's coproducts with ``peek_delta`` (the memo's
entry where there is one, ``raw_delta`` otherwise) and its products with
``raw_product``, so its evaluations fill its own memos and never its
parent's.

Convolution maps can land in the bialgebra itself (formal sums), in the
rationals, or in Laurent polynomials; the dual algebra of a coalgebra is
convolution into :class:`RationalTarget`.  An :class:`AlgebraSpec` is its own
target; :class:`RationalTarget` and ``renorm.LaurentTarget`` share its
surface: ``zero``, ``one``, ``scale``, ``mul``, ``accumulate``,
``try_inverse`` and ``render``; values compare with ``==``.
``accumulate(acc, c, a, b=None)`` adds ``c*a`` (or ``c*a*b``) into an
accumulator that the caller obtained from ``zero()`` and has not yet
shared; it returns the accumulator, which is the same object for the
mutable sum types and a new value for plain rationals.  ``convolve_into``
is the one sum of a convolution over a coproduct: ``convolve``, the
inversion recursion, every inverse check and Birkhoff's preparation call
it.  It copies no accumulator per term, and it multiplies by the key on an
identity map's side, the only use of ``key_mul_into`` and ``mul_key_into``
outside :class:`AlgebraSpec`.  Inverses are taken by
``inversion.convolution_inverse``, the one place that picks a filtration.
Values are immutable and memo caches are pure, so concurrent reads of the
same :class:`ConvMap` always return identical results.  ``_comodule_laws``
is the one comodule check: ``validate_coalgebra`` runs it on a coalgebra
over itself and ``constructions.validate_coaction`` on the Brown coaction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from .errors import ConfigurationError
from .linear import BasisKey, FormalSum, TensorSum, _addto, _iadd
from .scalars import quotient, render_scalar


class _Memo(dict):
    """``memo[k]`` is ``fn(k)``, computed on a miss and inserted with
    ``dict.setdefault``, so threads that race on one entry keep the first."""

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, k):
        return self.setdefault(k, self.fn(k))


class _Row(dict):
    """One row of an algebra's product memo: ``row[b]`` is ``product(a, b)``,
    computed on a miss and inserted with ``dict.setdefault``."""

    __slots__ = ("product", "a")

    def __init__(self, product, a):
        self.product = product
        self.a = a

    def __missing__(self, b):
        return self.setdefault(b, self.product(self.a, b))


class CoalgebraSpec:
    """A truncated key universe; ``delta`` reads the spec's memo of
    ``raw_delta``, ``find_grouplikes`` keeps its scan in ``_grouplikes`` and
    ``analyze_structure`` its report in ``_structure``."""

    def __init__(
        self,
        name: str,
        keys,
        delta: Callable[[BasisKey], TensorSum],
        counit: Callable[[BasisKey], int],
        grading: Callable[[BasisKey], int],
        finite_universe: bool = True,
    ):
        self.name = name
        self.keys = tuple(sorted(keys))
        self._counit = counit
        self.grading = grading
        self.finite_universe = finite_universe
        self.raw_delta = delta
        self._delta_memo = _Memo(delta)
        self._key_set = set(self.keys)
        self._grouplikes = None
        self._structure = None

    def delta(self, key: BasisKey) -> TensorSum:
        return self._delta_memo[key]

    def peek_delta(self, key: BasisKey) -> TensorSum:
        """``delta(key)`` without filling the memo: its entry if it holds one."""
        d = self._delta_memo.get(key)
        return self.raw_delta(key) if d is None else d

    def counit(self, key: BasisKey) -> int:
        return self._counit(key)

    def counit_sum(self, s: FormalSum):
        return sum((c * self._counit(k) for k, c in s), 0)

    def delta_sum(self, s: FormalSum) -> TensorSum:
        out: dict = {}
        for k, c in s:
            _iadd(out, self.delta(k).terms, c)
        return TensorSum(out, _clean=True)

    def max_degree(self) -> int:
        return max((self.grading(k) for k in self.keys), default=0)

    def __repr__(self) -> str:
        return f"<CoalgebraSpec {self.name}: {len(self.keys)} keys>"


class AlgebraSpec:
    """An algebra on a partial monoid of keys: ``product(a, b)`` is the key
    ``a*b`` (coefficient 1) or ``None`` where the product is zero.  ``unit``
    is a sum, of several identities in the doubles.  The spec memoises
    ``memo[a][b]``; ``key_product`` reads it, ``product`` and ``mul`` are
    ``FormalSum`` views, and ``raw_product`` is the unmemoised map."""

    def __init__(
        self,
        name: str,
        product: Callable[[BasisKey, BasisKey], BasisKey | None],
        unit: FormalSum,
        key_inverse: Callable[[BasisKey], BasisKey | None] | None = None,
    ):
        self.name = name
        self.unit = unit
        self.key_inverse = key_inverse
        self.raw_product = product
        self._memo = _Memo(lambda a: _Row(product, a))

    def zero(self) -> FormalSum:
        return FormalSum.zero()

    def one(self) -> FormalSum:
        return self.unit

    def scale(self, c, a: FormalSum) -> FormalSum:
        return a.scale(c)

    def accumulate(self, acc: FormalSum, c, a: FormalSum, b: FormalSum | None = None):
        if b is None:
            _iadd(acc.terms, a.terms, c)
        else:
            self.mul_into(acc.terms, c, a, b)
        return acc

    def try_inverse(self, v: FormalSum):
        """Invert a multiple of the unit or of a key ``key_inverse`` inverts."""
        unit = self.unit
        if len(v) == len(unit) and len(unit) > 0:
            k0, c0 = next(iter(unit))
            ratio = quotient(v.coeff(k0), c0) if c0 else None
            if ratio and v == unit.scale(ratio):
                return unit.scale(quotient(1, ratio))
        if len(v) == 1 and self.key_inverse is not None:
            (k, c), = v
            inv = self.key_inverse(k)
            if inv is not None:
                return FormalSum.basis(inv, quotient(1, c))
        return None

    def render(self, v: FormalSum) -> str:
        return v.render()

    def key_product(self, a: BasisKey, b: BasisKey) -> BasisKey | None:
        return self._memo[a][b]

    def product(self, a: BasisKey, b: BasisKey) -> FormalSum:
        k = self._memo[a][b]
        return FormalSum.zero() if k is None else FormalSum.basis(k)

    def mul(self, s1: FormalSum, s2: FormalSum) -> FormalSum:
        out: dict = {}
        self.mul_into(out, 1, s1, s2)
        return FormalSum(out, _clean=True)

    def mul_into(self, out: dict, c, s1: FormalSum, s2: FormalSum) -> None:
        """Add ``c * s1 * s2`` into the term dict ``out`` in place, one key
        of ``s1`` at a time."""
        if not c:
            return
        for k1, c1 in s1.terms.items():
            self.key_mul_into(out, c if c1 == 1 else c * c1, k1, s2)

    def key_mul_into(self, out: dict, c, k: BasisKey, s: FormalSum) -> None:
        """Add ``c * k * s`` into ``out``: the product row of ``k`` is read
        once, then one lookup per term of ``s``.

        Nearly every coefficient is 1, and multiplications by 1 are skipped:
        an exact rational product costs several times the comparison.
        """
        if not c:
            return
        row = self._memo[k]
        unit = c == 1
        for k2, c2 in s.terms.items():
            p = row[k2]
            if p is None:
                continue
            term = c2 if unit else (c if c2 == 1 else c * c2)
            old = out.get(p)
            if old is None:
                out[p] = term
                continue
            nc = old + term
            if nc:
                out[p] = nc
            else:
                del out[p]

    def mul_key_into(self, out: dict, c, s: FormalSum, k: BasisKey) -> None:
        """Add ``c * s * k`` into ``out``: one lookup per term of ``s``."""
        if not c:
            return
        memo = self._memo
        unit = c == 1
        for k1, c1 in s.terms.items():
            p = memo[k1][k]
            if p is None:
                continue
            term = c1 if unit else (c if c1 == 1 else c * c1)
            old = out.get(p)
            if old is None:
                out[p] = term
                continue
            nc = old + term
            if nc:
                out[p] = nc
            else:
                del out[p]

    def __repr__(self) -> str:
        return f"<AlgebraSpec {self.name}>"


class BialgebraSpec:
    """A coalgebra and an algebra over the same key universe.

    ``hooks`` carries instance-specific structure used by the universal
    constructions (grouplike stripping for quotients, commutative reordering,
    q-exponent bookkeeping) and by the antipode (a key's ``factors``);
    engines must work without them.
    """

    def __init__(
        self,
        coalgebra: CoalgebraSpec,
        algebra: AlgebraSpec,
        hooks: dict | None = None,
    ):
        self.coalgebra = coalgebra
        self.algebra = algebra
        self.hooks = hooks or {}
        self.name = coalgebra.name

    @property
    def keys(self):
        return self.coalgebra.keys

    def delta(self, key):
        return self.coalgebra.delta(key)

    def counit(self, key):
        return self.coalgebra.counit(key)

    def grading(self, key):
        return self.coalgebra.grading(key)

    def product(self, a, b):
        return self.algebra.product(a, b)

    @property
    def unit(self) -> FormalSum:
        return self.algebra.unit

    def __repr__(self) -> str:
        return f"<BialgebraSpec {self.name}: {len(self.keys)} keys>"


# ---------------------------------------------------------------------------
# The rationals as a convolution target


class RationalTarget:
    name = "QQ"

    def zero(self):
        return 0

    def one(self):
        return 1

    def scale(self, c, a):
        return c * a

    def mul(self, a, b):
        return a * b

    def accumulate(self, acc, c, a, b=None):
        return acc + (c * a if b is None else c * a * b)

    def try_inverse(self, v):
        return None if v == 0 else quotient(1, v)

    def render(self, v):
        return render_scalar(v)


# ---------------------------------------------------------------------------
# Convolution


class ConvMap:
    """A memoized linear map from a coalgebra into a target algebra."""

    identity_of = None  # the bialgebra whose identity map this is, if any

    def __init__(self, source: CoalgebraSpec, target, fn, name: str = ""):
        self.source = source
        self.target = target
        self.name = name
        self._memo = _Memo(fn)

    def __call__(self, key: BasisKey):
        return self._memo[key]

    def evaluate(self, s: FormalSum):
        T = self.target
        acc = T.zero()
        for k, c in s:
            acc = T.accumulate(acc, c, self(k))
        return acc

    def __repr__(self) -> str:
        return f"<ConvMap {self.name or '?'}: {self.source.name} -> {self.target.name}>"


def _same_target(a, b) -> bool:
    """One algebra is one target; the scalar targets are one per type."""
    if isinstance(a, AlgebraSpec) or isinstance(b, AlgebraSpec):
        return a is b
    return type(a) is type(b)


def convolve_into(acc, c, f: ConvMap, g: ConvMap, key: BasisKey, skip=None):
    """Add ``c * sum f(a) g(b)`` over ``delta(key)``, leaving out the term at
    the pair ``skip``, into ``acc``, which is fresh from the target; returns
    the accumulator, as ``accumulate`` does.

    An identity map is never called: its side multiplies by the key,
    ``key_mul_into`` on the left and ``mul_key_into`` on the right, so no
    one-term sum is built; the other maps are read from their memos.
    """
    T = f.target
    terms = f.source.delta(key).terms
    if skip is not None:
        terms = terms.copy()
        del terms[skip]
    if f.identity_of is not None:
        out, key_mul, g_of = acc.terms, T.key_mul_into, g._memo
        for (a, b), d in terms.items():
            key_mul(out, c * d, a, g_of[b])
    elif g.identity_of is not None:
        out, mul_key, f_of = acc.terms, T.mul_key_into, f._memo
        for (a, b), d in terms.items():
            mul_key(out, c * d, f_of[a], b)
    else:
        accumulate, f_of, g_of = T.accumulate, f._memo, g._memo
        for (a, b), d in terms.items():
            acc = accumulate(acc, c * d, f_of[a], g_of[b])
    return acc


def convolve(f: ConvMap, g: ConvMap, name: str = "") -> ConvMap:
    """The convolution product: key -> sum of f(left) * g(right) over delta."""
    if f.source is not g.source:
        raise ConfigurationError(
            f"convolution sources differ: {f.source.name} vs {g.source.name}"
        )
    if not _same_target(f.target, g.target):
        raise ConfigurationError(
            f"convolution targets differ: {f.target.name} vs {g.target.name}"
        )
    T = f.target
    return ConvMap(f.source, T, lambda key: convolve_into(T.zero(), 1, f, g, key),
                   name or f"({f.name}*{g.name})")


def convolution_unit(C: CoalgebraSpec, target, name: str = "eta.eps") -> ConvMap:
    return ConvMap(C, target, lambda k: target.scale(C.counit(k), target.one()), name)


def identity_map(B: BialgebraSpec) -> ConvMap:
    """The identity of a bialgebra into its own algebra.  ``convolve_into``
    reads keys instead of calling it, so the antipode recursion calls it
    only at grouplikes and its memo holds those alone."""
    ident = ConvMap(B.coalgebra, B.algebra, FormalSum.basis, "id")
    ident.identity_of = B
    return ident


def conv_maps_equal(f: ConvMap, g: ConvMap, keys=None) -> bool:
    keys = f.source.keys if keys is None else keys
    return all(f(k) == g(k) for k in keys)


# ---------------------------------------------------------------------------
# Validators


@dataclass
class ValidationReport:
    name: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, context, detail: str) -> None:
        self.failures.append((str(context), detail))

    def render(self) -> str:
        head = f"{self.name}: {'PASS' if self.ok else 'FAIL'} ({self.checked} checks)"
        if self.ok:
            return head
        lines = [head]
        for ctx, detail in sorted(self.failures):
            lines.append(f"  {ctx}: {detail}")
        return "\n".join(lines)


def _comodule_laws(key: BasisKey, rho, R: CoalgebraSpec):
    """``(rho(key), coassociative, counital)``: whether the comodule laws
    (rho (x) id) rho = (id (x) Delta_R) rho and (id (x) eps_R) rho = id hold
    at ``key``, reading ``rho(key)`` once; right factors are keys of R."""
    image = rho(key)
    left: dict = {}
    right: dict = {}
    collapsed: dict = {}
    for (a, b), c in image:
        for (x, y), c2 in rho(a):
            _addto(left, (x, y, b), c * c2)
        for (x, y), c2 in R.delta(b):
            _addto(right, (a, x, y), c * c2)
        eb = R.counit(b)
        if eb:
            _addto(collapsed, a, c * eb)
    return image, left == right, collapsed == {key: 1}


def validate_coalgebra(C: CoalgebraSpec, max_degree: int | None = None) -> ValidationReport:
    """Check coassociativity and both counit laws key by key; the first and
    the right counit law are the comodule laws of ``C.delta`` over C."""
    report = ValidationReport(f"coalgebra axioms for {C.name}")
    for k in C.keys:
        if max_degree is not None and C.grading(k) > max_degree:
            continue
        report.checked += 1
        image, coassociative, counital = _comodule_laws(k, C.delta, C)
        if not coassociative:
            report.fail(k, "coassociativity fails")
        left: dict = {}
        for (a, b), c in image:
            ea = C.counit(a)
            if ea:
                _addto(left, b, c * ea)
        if left != {k: 1}:
            report.fail(k, "left counit law fails")
        if not counital:
            report.fail(k, "right counit law fails")
        if C.grading(k) == 0:
            for (a, b), _ in image:
                if C.grading(a) != 0 or C.grading(b) != 0:
                    report.fail(k, "degree-0 keys not closed under delta")
                    break
    return report


def validate_bialgebra(B: BialgebraSpec, sample_budget: int = 200, seed: int = 0,
                       exhaustive_degree: int | None = None) -> ValidationReport:
    """Check the compatibility axioms on sampled (or degree-bounded) pairs."""
    report = ValidationReport(f"bialgebra axioms for {B.name}")
    C = B.coalgebra
    rng = random.Random(seed)
    unit_delta = C.delta_sum(B.unit)
    expected: dict = {}
    for k1, c1 in B.unit:
        for k2, c2 in B.unit:
            _addto(expected, (k1, k2), c1 * c2)
    report.checked += 1
    if unit_delta != TensorSum(expected):
        report.fail("1", "delta(1) != 1 (x) 1")
    report.checked += 1
    if C.counit_sum(B.unit) != 1:
        report.fail("1", "eps(1) != 1")

    if exhaustive_degree is not None:
        deg = {k: C.grading(k) for k in C.keys}
        pairs = [
            (a, b)
            for a in C.keys
            for b in C.keys
            if deg[a] + deg[b] <= exhaustive_degree
        ]
    else:
        keys = list(C.keys)
        pairs = [(rng.choice(keys), rng.choice(keys)) for _ in range(sample_budget)]
    for a, b in pairs:
        report.checked += 1
        ab = B.product(a, b)
        lhs = C.delta_sum(ab)
        rhs = C.delta(a).tensor_mul(C.delta(b), B.algebra.key_product)
        if lhs != rhs:
            report.fail((a, b), "delta is not multiplicative")
        if C.counit_sum(ab) != C.counit(a) * C.counit(b):
            report.fail((a, b), "counit is not multiplicative")
    return report
