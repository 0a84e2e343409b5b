"""Rota-Baxter targets, characters, and Birkhoff factorization.

The target algebra is Laurent polynomials with exact rational coefficients
(finite support; every character in scope produces finitely many terms per
basis key, so no series truncation policy is needed).  ``LaurentPoly`` is a
sparse sum on the shared core of :mod:`sweedler.linear`, keyed by exponent;
it adds only ``one``, ``monomial``, the product (one exponent-convolution
loop, shared with ``LaurentTarget.accumulate``), units and the exponent
rendering.  Its coefficients follow :mod:`sweedler.scalars`: ``int`` until
a division (a unit's inverse, a parsed ``p/q``) needs a rational.

The pole-part projector keeps the strictly negative exponents and satisfies
the weight -1 Rota-Baxter identity, which is checked by fuzzing rather than
assumed.  ``check_rota_baxter`` is the one check of an operator's laws: the
Atkinson split of a projector returns its report.

Characters are rule sets evaluated multiplicatively over the generators
that a key's own family counts (``linear.register_family``), so this
module reads no family's payloads.  The factorization recursion is the
standard subtraction scheme: the counterterm is minus the projected
preparation, a ``specs.convolve_into`` sum, and the Birkhoff identity
phi_plus = phi_minus * phi (Connes & Kreimer 2000) is always verified key
by key with one convolution.  As phi_minus(1) = 1, phi_minus is invertible
on the universe, so this is phi = phi_minus^{-1} * phi_plus without an
inversion, and the check leans on no inversion code.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable

from .errors import ConfigurationError, InputError, MathError, RuleNotFound, UnsupportedError
from .linear import BasisKey, _SparseSum, _addto, _iadd, rule_counts
from .scalars import quotient, render_scalar
from .specs import BialgebraSpec, ConvMap, ValidationReport, convolve, convolve_into
from .structure import find_grouplikes


class LaurentPoly(_SparseSum):
    """A finite rational combination of integer powers of one variable."""

    __slots__ = ()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1}, _clean=True)

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "LaurentPoly":
        return cls({exponent: coeff})

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict = {}
        _mul_into(out, 1, self.terms, other.terms)
        return LaurentPoly(out, _clean=True)

    def is_unit(self) -> bool:
        return len(self.terms) == 1

    def inverse(self) -> "LaurentPoly":
        if not self.is_unit():
            raise ConfigurationError(f"{self.render()} is not a unit")
        (e, c), = self.terms.items()
        return LaurentPoly({-e: quotient(1, c)}, _clean=True)

    def sorted_terms(self):
        return sorted(self.terms.items())

    @staticmethod
    def _term_text(e: int, c) -> str:
        if e == 0:
            return render_scalar(c)
        mono = "z" if e == 1 else f"z^{e}"
        return f"{render_scalar(c)}*{mono}"


def _mul_into(out: dict, c, a: dict, b: dict) -> None:
    """``out += c * a * b`` on exponent dicts, in place, dropping zeros."""
    left = a.items() if c == 1 else [(e, c * v) for e, v in a.items()]
    for e1, c1 in left:
        for e2, c2 in b.items():
            _addto(out, e1 + e2, c1 * c2)


_TERM_RE = re.compile(
    r"(?P<sign>[+-])?(?P<coeff>\d+(?:/\d+)?)?(?:\*?(?P<var>z)(?:\^(?P<exp>-?\d+))?)?"
)


def parse_laurent(text: str) -> LaurentPoly:
    """Parse '3z^-2+5+7z' style literals with rational coefficients."""
    if not isinstance(text, str):
        raise InputError(f"Laurent literal must be a string, got {text!r}")
    compact = text.replace(" ", "")
    if not compact:
        raise InputError("empty Laurent literal")
    out = LaurentPoly.zero()
    pos = 0
    while pos < len(compact):
        m = _TERM_RE.match(compact, pos)
        if not m or m.end() == pos or (m.group("coeff") is None and m.group("var") is None):
            raise InputError(f"bad Laurent literal {text!r} at offset {pos}")
        num, _, den = (m.group("coeff") or "1").partition("/")
        den = int(den or 1)
        if not den:
            raise InputError(f"zero denominator in Laurent literal {text!r}")
        c = quotient(int(num), den)
        if m.group("sign") == "-":
            c = -c
        e = int(m.group("exp") or 1) if m.group("var") else 0
        out = out + LaurentPoly.monomial(e, c)
        pos = m.end()
    return out


class LaurentTarget:
    name = "laurent"

    def zero(self):
        return LaurentPoly.zero()

    def one(self):
        return LaurentPoly.one()

    def scale(self, c, a):
        return a.scale(c)

    def mul(self, a, b):
        return a * b

    def accumulate(self, acc, c, a, b=None):
        if c:
            if b is None:
                _iadd(acc.terms, a.terms, c)
            else:
                _mul_into(acc.terms, c, a.terms, b.terms)
        return acc

    def try_inverse(self, v: LaurentPoly):
        return v.inverse() if v.is_unit() else None

    def render(self, v):
        return v.render()


LAURENT = LaurentTarget()


# ---------------------------------------------------------------------------
# Rota-Baxter operators


@dataclass(frozen=True)
class RBOperator:
    """A linear operator on Laurent polynomials given by an exponent filter.

    ``keep`` selects the exponents that survive; ``factor`` scales the
    output, so ``factor * pole_part`` has weight ``-factor`` by the scaling
    rule.  ``projector`` records whether keep-filtering is idempotent (it is,
    unless a factor != 1 spoils it).
    """

    keep: Callable[[int], bool]
    weight: object  # an exact scalar, as are factor and the scaling mu
    factor: object = 1
    name: str = "T"

    def __call__(self, p: LaurentPoly) -> LaurentPoly:
        return LaurentPoly(
            {e: self.factor * c for e, c in p.terms.items() if self.keep(e)}
        )

    def complement(self, p: LaurentPoly) -> LaurentPoly:
        return p - self(p)

    @property
    def is_projector(self) -> bool:
        return self.factor == 1

    def scaled(self, mu) -> "RBOperator":
        mu = quotient(mu, 1)
        return RBOperator(self.keep, self.weight * mu, self.factor * mu,
                          f"{mu}*{self.name}")


def pole_part_operator() -> RBOperator:
    return RBOperator(lambda e: e < 0, -1, name="polepart")


def pole_part(p: LaurentPoly) -> LaurentPoly:
    """Strictly negative exponent part of a Laurent polynomial."""
    return pole_part_operator()(p)


def random_laurent(rng: random.Random) -> LaurentPoly:
    """Up to 4 terms, exponents in [-6, 6], integer coefficients in [-127, 127]."""
    out: dict = {}
    for _ in range(rng.randint(0, 4)):
        e = rng.randint(-6, 6)
        c = rng.randint(-127, 127)
        if c:
            out[e] = out.get(e, 0) + c
    return LaurentPoly(out)


def check_rota_baxter(T: RBOperator, samples: int = 200, seed: int = 0) -> ValidationReport:
    """The weight identity on random pairs; for a projector, idempotence and image closure."""
    report = ValidationReport(f"Rota-Baxter identity for {T.name}")
    rng = random.Random(seed)
    lam = T.weight
    for _ in range(samples):
        x = random_laurent(rng)
        y = random_laurent(rng)
        report.checked += 1
        minus = T(x) * T(y)
        rhs = T(T(x) * y) + T(x * T(y)) + T(x * y).scale(lam)
        if minus != rhs:
            report.fail((x.render(), y.render()), "weight identity fails")
        if T.is_projector:
            report.checked += 1
            if T(T(x)) != T(x):
                report.fail(x.render(), "operator is not idempotent")
            plus = T.complement(x) * T.complement(y)
            report.checked += 1
            if T.complement(minus) != LaurentPoly.zero():
                report.fail((x.render(), y.render()), "image of T not closed")
            report.checked += 1
            if T(plus) != LaurentPoly.zero():
                report.fail((x.render(), y.render()), "image of 1-T not closed")
    return report


def atkinson_split(T: RBOperator, samples: int = 100, seed: int = 0):
    """The split A = T(A) + (1-T)(A) of a weight -1 projector into subalgebras:
    it recomposes and is unique by linearity and idempotence, so its report
    is ``check_rota_baxter``'s, which checks idempotence and both closures."""
    if T.weight != -1:
        raise UnsupportedError("subdirect splitting needs weight -1")
    if not T.is_projector:
        raise UnsupportedError("subdirect splitting needs a projector")
    minus_desc = "span{z^k : k kept by T}"
    plus_desc = "span{z^k : k dropped by T}"
    return minus_desc, plus_desc, check_rota_baxter(T, samples, seed)


# ---------------------------------------------------------------------------
# Characters


# the rule names a character document may give
RULES = ("vertex", "edge", "loop", "merger", "grouplike")


@dataclass
class CharacterSpec:
    """A multiplicative rule set: a key's value is the product of each
    rule's value to the count its family declares (``register_family``):
    ``vertex`` per forest vertex, ``edge`` per non-loop ghost edge, ``loop``
    per ghost loop, ``merger`` per corolla-count drop, ``grouplike`` per bare
    line, identity corolla or parameter unit.  A missing ``grouplike`` or
    ``merger`` is one, a missing ``loop`` the edge rule; any other missing
    rule, or a family that counts none, raises ``RuleNotFound`` on the key.
    """

    target: object = field(default_factory=lambda: LAURENT)
    rules: dict = field(default_factory=dict)

    @classmethod
    def from_doc(cls, doc: dict) -> "CharacterSpec":
        if not isinstance(doc, dict) or not isinstance(doc.get("rules"), dict):
            raise InputError('bad character document: needs a "rules" object')
        target_name = doc.get("target", "laurent")
        if target_name != "laurent":
            raise InputError(f"unsupported character target {target_name!r}")
        rules = {}
        for name, text in doc["rules"].items():
            if name not in RULES:
                raise InputError(f"unknown character rule {name!r}; valid: {', '.join(RULES)}")
            rules[name] = parse_laurent(text)
        return cls(LAURENT, rules)

    def _power(self, value, n: int):
        acc = self.target.one()
        if n < 0:
            inv = self.target.try_inverse(value)
            if inv is None:
                raise ConfigurationError("negative power of a non-unit rule value")
            value, n = inv, -n
        for _ in range(n):
            acc = self.target.mul(acc, value)
        return acc

    def __call__(self, key: BasisKey):
        value = one = self.target.one()
        defaults = {"grouplike": one, "merger": one, "loop": self.rules.get("edge")}
        for name, n in rule_counts(key):
            if n:
                rule = self.rules.get(name, defaults.get(name))
                if rule is None:
                    raise RuleNotFound(name)
                value = self.target.mul(value, self._power(rule, n))
        return value

    def as_conv_map(self, B: BialgebraSpec, name: str = "phi") -> ConvMap:
        """The character on B; a rule that no key of B counts is refused, and
        so is a B whose family counts no generators."""
        counted: set = set()
        for k in B.keys:
            try:
                counted.update(rule for rule, _ in rule_counts(k))
            except RuleNotFound:
                raise InputError(f"no key of {B.name} counts a character generator") from None
            if counted.issuperset(self.rules):
                break
        for rule in self.rules:
            if rule not in counted:
                raise InputError(f"character rule {rule!r} counts nothing in {B.name}")
        return ConvMap(B.coalgebra, self.target, self, name)


# ---------------------------------------------------------------------------
# Birkhoff factorization


@dataclass
class BirkhoffPair:
    minus: ConvMap
    plus: ConvMap
    report: ValidationReport


def birkhoff(phi, B: BialgebraSpec, T: RBOperator) -> BirkhoffPair:
    """Split a character on a connected quotient along the Rota-Baxter operator.

    The recursion prepares phibar(x) = phi(x) + sum phi_minus(x') phi(x'')
    over the reduced coproduct, then projects: the counterterm is
    -T(phibar) and the renormalized part is (1-T)(phibar).  phibar(x) is the
    ``convolve_into`` sum (phi_minus * phi)(x) less its phi_minus(x) phi(1)
    term, as phi_minus(1) = 1, reading phi_minus from the returned ``minus``
    map's memo.  phibar has a memo of its own, so each key is prepared once
    for both projections.  phi_minus * phi = phi_plus is checked on every
    key with ``convolve``.
    """
    if isinstance(phi, CharacterSpec):
        phi = phi.as_conv_map(B)
    C = B.coalgebra
    gpl, sgpl = find_grouplikes(C)
    unit_terms = list(B.unit)
    if len(unit_terms) != 1 or sgpl != {unit_terms[0][0]} or gpl != sgpl:
        raise ConfigurationError(
            "factorization needs a connected quotient (single grouplike); "
            "take the normalized quotient first"
        )
    unit_key = unit_terms[0][0]
    if T.weight != -1:
        raise ConfigurationError("factorization needs a weight -1 operator")
    target = phi.target
    if phi(unit_key) != target.one():
        raise ConfigurationError("character must send the unit to one")

    def prepare(key: BasisKey):
        return convolve_into(target.zero(), 1, minus_map, phi, key, skip=(key, unit_key))

    def minus(key: BasisKey):
        if key == unit_key:
            return target.one()
        return target.scale(-1, T(prepared(key)))

    def plus(key: BasisKey):
        if key == unit_key:
            return target.one()
        return T.complement(prepared(key))

    prepared = ConvMap(C, target, prepare, "phibar")
    minus_map = ConvMap(C, target, minus, "phi-")
    plus_map = ConvMap(C, target, plus, "phi+")
    report = ValidationReport(f"factorization of {phi.name} on {B.name}")
    recomposed = convolve(minus_map, phi, "phi-*phi")
    for k in C.keys:
        report.checked += 1
        if recomposed(k) != plus_map(k):
            report.fail(k, "phi- * phi != phi+")
        if T(plus_map(k)) != target.zero():
            report.fail(k, "renormalized part not in the plus subalgebra")
    if not report.ok:
        raise MathError(
            f"factorization verification failed:\n{report.render()}"
        )
    return BirkhoffPair(minus_map, plus_map, report)
