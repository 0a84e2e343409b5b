"""Universal constructions on combinatorial bialgebras.

Quotients (normalized, commutator, central), the central q-deformation with
grouplike exponent bookkeeping, the coaction of the deformed quotient on the
connected quotient, and localization of the grouplike monoid.

All quotients are presented by an idempotent normal form on basis keys; the
kernel ideal is the span of ``k - nf(k)``, so membership of a coproduct in
``I (x) B + B (x) I`` is decided exactly by pushing both tensor legs through
the normal form.  The deformed algebras assume the grouplike monoid is free
on the basic-object classes (true for the tree and graph instances); inputs
with other relations are rejected rather than guessed at.

A quotient reads its parent's maps without filling their memos
(``peek_delta``, ``raw_product``), so only the quotient's own memos fill;
it normalises each parent key once, into a dict of its own filled on first
use.  The deformation reads the parent's memoised maps: its grouplike scan
fills the parent's coproduct memo anyway, and one parent product serves
every exponent.
Deformed (``q``) keys are interned by their base key and exponents and
take their bytes from the base key's on first use, so they cost their new
structure and pickle through the base key at any depth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigurationError, UnsupportedError
from .linear import (
    BasisKey, FormalSum, TensorSum, _addto, _encode_atom, _iadd, intern, key_literal,
    register_family, rule_counts,
)
from .specs import (
    AlgebraSpec, BialgebraSpec, CoalgebraSpec, ValidationReport, _comodule_laws, _Memo,
)
from .structure import find_grouplikes


@dataclass
class QuotientSpec:
    parent: BialgebraSpec
    kind: str
    normal_form: Callable[[BasisKey], BasisKey]
    bialgebra: BialgebraSpec


def _quotient_bialgebra(B: BialgebraSpec, nf, name: str) -> BialgebraSpec:
    """The quotient by ``nf``, computed from parent maps that fill no
    parent memo, so that only its own memos fill."""
    keys = sorted({nf(k) for k in B.keys})
    parent_delta = B.coalgebra.peek_delta
    parent_product = B.algebra.raw_product
    # parent key -> nf(key), filled by delta and product on first use
    nf_of = _Memo(nf)

    def delta(key: BasisKey) -> TensorSum:
        out: dict = {}
        for (a, b), c in parent_delta(key):
            _addto(out, (nf_of[a], nf_of[b]), c)
        return TensorSum(out, _clean=True)

    coalg = CoalgebraSpec(name, keys, delta, B.counit, B.grading)

    def product(a: BasisKey, b: BasisKey) -> BasisKey | None:
        k = parent_product(a, b)
        return None if k is None else nf_of[k]

    unit = B.unit.map_keys(lambda k: FormalSum.basis(nf(k)))
    alg = AlgebraSpec(name, product, unit, key_inverse=B.algebra.key_inverse)
    return BialgebraSpec(coalg, alg, dict(B.hooks))


def normalized_quotient(B: BialgebraSpec) -> QuotientSpec:
    """Quotient by the ideal spanned by 1 - g over the grouplikes.

    Every grouplike factor of a key is deleted; the result has a single
    grouplike (the unit) and is connected, which is what makes its antipode
    unconditional.
    """
    strip = B.hooks.get("strip_grouplikes")
    if strip is None:
        raise UnsupportedError(f"{B.name} has no grouplike factorization hook")

    def nf(key: BasisKey) -> BasisKey:
        return strip(key)[0]

    return QuotientSpec(B, "normalized", nf, _quotient_bialgebra(B, nf, f"{B.name}/norm"))


def abelianized_quotient(B: BialgebraSpec, kind: str) -> QuotientSpec:
    """Commutator quotient (sort all factors) or central quotient (grouplikes only)."""
    hook_name = {"commutator": "commutator_sort", "central": "central_sort"}.get(kind)
    if hook_name is None:
        raise ConfigurationError(f"unknown quotient kind {kind!r}")
    nf = B.hooks.get(hook_name)
    if nf is None:
        raise UnsupportedError(f"{B.name} has no {kind} reordering hook")
    quotient = _quotient_bialgebra(B, nf, f"{B.name}/{kind}")
    return QuotientSpec(B, kind, nf, quotient)


def validate_coideal(q: QuotientSpec, sample_budget: int = 40, seed: int = 0) -> ValidationReport:
    """Check eps(I) = 0 and delta(I) in I (x) B + B (x) I on ideal generators:
    the quotient's coproduct, which pushes both legs through the normal
    form, sends each generator to zero."""
    report = ValidationReport(f"coideal check for {q.bialgebra.name}")
    B = q.parent
    C = B.coalgebra
    quotient_delta = q.bialgebra.coalgebra.raw_delta
    rng = random.Random(seed)
    gpl, _ = find_grouplikes(C)
    unit_key, = B.unit.terms
    gens: list[FormalSum] = []
    if q.kind == "normalized":
        gens = [
            FormalSum.basis(unit_key) - FormalSum.basis(g)
            for g in sorted(gpl)
        ]
    else:
        keys = list(B.keys)
        for _ in range(sample_budget):
            a, b = rng.choice(keys), rng.choice(keys)
            if q.kind == "central" and b not in gpl:
                b = rng.choice(sorted(gpl))
            gens.append(B.product(a, b) - B.product(b, a))
    nf = q.normal_form
    for i, gen in enumerate(gens):
        report.checked += 1
        if gen.map_keys(lambda k: FormalSum.basis(nf(k))) != FormalSum.zero():
            report.fail(f"generator {i}", "not in the kernel of the normal form")
            continue
        if C.counit_sum(gen) != 0:
            report.fail(f"generator {i}", "counit does not vanish")
        image: dict = {}
        for k, c in gen:
            _iadd(image, quotient_delta(k).terms, c)
        if image:
            report.fail(f"generator {i}", "coproduct not inside I(x)B + B(x)I")
    return report


# ---------------------------------------------------------------------------
# q-deformation


class _QKey(BasisKey):
    """A deformed key, interned by its base key and exponents and built
    without bytes.  Its payload is ``(base tag, base payload, exponents)``."""

    __slots__ = ("base",)

    def _fill(self) -> bytes:
        # the bytes of that payload: the base's encoding after its b"k"
        self._enc = enc = b"".join((
            b"ks1:qt3:", self.base.encoded()[1:], _encode_atom(self.payload[2]),
        ))
        return enc

    def __reduce__(self):  # pickled through the base key, at any depth
        return q_key, (self.base, dict(self.payload[2]))


# (base key, sorted nonzero exponents) -> the one q key
_QKEYS: dict = {}


def q_key(base: BasisKey, exps: dict) -> BasisKey:
    cleaned = tuple(sorted((g, e) for g, e in exps.items() if e))
    return intern(_QKEYS, (base, cleaned), "q", (base.tag, base.payload, cleaned),
                  _QKey, base=base)


def _q_literal(key: BasisKey) -> str:
    base, exps = split_q_key(key)
    base_lit = key_literal(base)
    parts = [f"{g}^{e}" for g, e in sorted(exps.items())]
    if not parts:
        return base_lit
    suffix = "*".join(parts)
    return suffix if base_lit == "1" else f"{base_lit}*{suffix}"


register_family(  # counts: the base's generators, then one grouplike per parameter unit
    "q", _q_literal, lambda payload: q_key(BasisKey(*payload[:2]), dict(payload[2])),
    lambda k: rule_counts(k.base) + (("grouplike", sum(e for _, e in k.payload[2])),))


def split_q_key(key: BasisKey):
    return key.base, dict(key.payload[2])


def _merge_exps(a: dict, b: dict) -> dict:
    out = dict(a)
    for g, e in b.items():
        out[g] = out.get(g, 0) + e
        if not out[g]:
            del out[g]
    return out


@dataclass
class QDeformedBialgebra:
    """The central deformation of B with one parameter per grouplike generator.

    Keys are pairs (reduced class, exponent vector); the quotient relation
    identifying each grouplike with its parameter is built in, so this is
    the deformed quotient, isomorphic as a module to reduced (x) parameters.
    """

    parent: BialgebraSpec
    bialgebra: BialgebraSpec

    def reduce_key(self, key: BasisKey) -> BasisKey:
        """Image of a parent basis key under the deformation quotient."""
        strip = self.parent.hooks["strip_grouplikes"]
        base, exps = strip(key)
        return q_key(base, exps)

    def specialize_key(self, key: BasisKey) -> BasisKey:
        """Set every parameter to one: the connected-quotient image."""
        base, _ = split_q_key(key)
        return base

    def single_parameter_exponent(self, key: BasisKey) -> int:
        weights = self.parent.hooks.get("generator_weights", {})
        _, exps = split_q_key(key)
        return sum(weights.get(g, 1) * e for g, e in exps.items())


def q_deform(B: BialgebraSpec, laurent: bool = False,
             exponent_window: int = 2) -> QDeformedBialgebra:
    strip = B.hooks.get("strip_grouplikes")
    if strip is None:
        raise UnsupportedError(f"{B.name} has no grouplike factorization hook")
    unit_key, = B.unit.terms
    gpl, sgpl = find_grouplikes(B.coalgebra)
    if sgpl - gpl:
        raise UnsupportedError("deformation needs all semigrouplikes grouplike")
    # the grouplike monoid must be free on the generator labels: every
    # grouplike strips to the unit's base, and distinct grouplikes have
    # distinct exponent vectors
    unit_base = strip(unit_key)[0]
    owner: dict = {}
    for g in sorted(gpl):
        base, exps = strip(g)
        if base.tag == "q":
            raise ConfigurationError("cannot deform an already deformed instance")
        if base != unit_base or owner.setdefault(frozenset(exps.items()), g) is not g:
            raise UnsupportedError(
                f"grouplike monoid is not free on generators at {g}"
            )
    labels = sorted({lab for g in gpl for lab in strip(g)[1]})
    reduced = sorted({strip(k)[0] for k in B.keys})
    lo = -exponent_window if laurent else 0
    exp_range = [e for e in range(lo, exponent_window + 1) if e]
    # one exponent axis per generator keeps the window linear in the number
    # of generators; delta and product are total far beyond the window
    keys = set()
    for base in reduced:
        keys.add(q_key(base, {}))
        for lab in labels:
            for e in exp_range:
                keys.add(q_key(base, {lab: e}))
    keys = sorted(keys)

    def delta(key: BasisKey) -> TensorSum:
        base, exps = split_q_key(key)
        out: dict = {}
        for (a, b), c in B.delta(base):
            ra, ea = strip(a)
            rb, eb = strip(b)
            _addto(out, (q_key(ra, _merge_exps(exps, ea)),
                         q_key(rb, _merge_exps(exps, eb))), c)
        return TensorSum(out, _clean=True)

    def counit(key: BasisKey) -> int:
        base, _ = split_q_key(key)
        return B.counit(base)

    def grading(key: BasisKey) -> int:
        base, _ = split_q_key(key)
        return B.grading(base)

    suffix = "laurent" if laurent else "poly"
    name = f"{B.name}/q[{suffix}]"
    coalg = CoalgebraSpec(name, keys, delta, counit, grading,
                          finite_universe=False)

    def product(k1: BasisKey, k2: BasisKey) -> BasisKey | None:
        b1, e1 = split_q_key(k1)
        b2, e2 = split_q_key(k2)
        k = B.algebra.key_product(b1, b2)
        if k is None:
            return None
        rk, ek = strip(k)
        return q_key(rk, _merge_exps(_merge_exps(e1, e2), ek))

    unit = FormalSum.basis(q_key(unit_base, {}))

    def key_inverse(key: BasisKey):
        base, exps = split_q_key(key)
        if base != unit_base:
            return None
        if not laurent and any(e > 0 for e in exps.values()):
            return None
        return q_key(base, {g: -e for g, e in exps.items()})

    alg = AlgebraSpec(name, product, unit, key_inverse=key_inverse)
    # B's hooks read B's keys, not the q keys
    hooks = {"graded_filtration": True, "strip_grouplikes": lambda k: (k, {})}
    bialg = BialgebraSpec(coalg, alg, hooks)
    return QDeformedBialgebra(B, bialg)


def localize_central(B: BialgebraSpec, exponent_window: int = 2) -> QDeformedBialgebra:
    """Adjoin inverse grouplike exponents; needs central grouplikes upstream."""
    gpl, _ = find_grouplikes(B.coalgebra)
    rng = random.Random(0)
    keys = list(B.keys)
    for g in sorted(gpl):
        for _ in range(20):
            a = rng.choice(keys)
            if B.algebra.key_product(g, a) is not B.algebra.key_product(a, g):
                raise UnsupportedError(
                    f"grouplike {g} is not central; take the central or "
                    f"commutator quotient first"
                )
    return q_deform(B, laurent=True, exponent_window=exponent_window)


# ---------------------------------------------------------------------------
# Coaction of the deformed quotient on the connected quotient


@dataclass
class CoactionMap:
    deformed: QDeformedBialgebra
    reduced: BialgebraSpec

    def __call__(self, key: BasisKey) -> TensorSum:
        """x maps to sum of x1 (x) pi(x2) with pi setting the parameters to 1."""
        out: dict = {}
        for (a, b), c in self.deformed.bialgebra.delta(key):
            _addto(out, (a, self.deformed.specialize_key(b)), c)
        return TensorSum(out, _clean=True)


def brown_coaction(deformed: QDeformedBialgebra) -> CoactionMap:
    reduced = normalized_quotient(deformed.parent).bialgebra
    return CoactionMap(deformed, reduced)


def validate_coaction(coaction: CoactionMap, max_degree: int | None = None) -> ValidationReport:
    """Both coassociativity iterates and the counit collapse, exactly (the
    comodule laws over the reduced quotient, checked as ``validate_coalgebra``
    checks a coalgebra over itself), and a parameter-free right factor."""
    report = ValidationReport("coaction axioms")
    D = coaction.deformed.bialgebra
    for key in D.keys:
        if max_degree is not None and D.grading(key) > max_degree:
            continue
        report.checked += 1
        image, coassociative, counital = _comodule_laws(key, coaction, coaction.reduced)
        if not coassociative:
            report.fail(key, "coaction iterates disagree")
        if not counital:
            report.fail(key, "counit collapse fails")
        if any(b.tag == "q" for (_, b), _c in image):
            report.fail(key, "right factor carries a deformation parameter")
    return report
