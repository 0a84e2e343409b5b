"""Convolution inverses and antipodes.

Two routes to the inverse of a map out of a coalgebra:

* the colored recursion, peeling each key's left flank, as read by
  :func:`~sweedler.structure.flanks`; :func:`convolution_inverse` takes it
  whenever the filtration is exhaustive.  There f has a two-sided inverse,
  and the recursion solves f * h = eta.eps key by key, so it returns that
  inverse.  It runs without Python recursion, keeps all of its bookkeeping
  local to the call, and shares only an idempotent memo, so one inverse map
  can be evaluated from several threads at once;
* an exact sparse linear solve on finite-dimensional instances
  (:func:`finite_convolution_inverse`), which needs no filtration at all.
  :func:`convolution_inverse` takes it when the filtration is not
  exhaustive and the instance is finite with values in the bialgebra
  itself (the group doubles).

:func:`convolution_inverse` is the one place that picks a filtration: the
grading when the bialgebra has the ``graded_filtration`` hook, the bivariate
sweep otherwise; antipodes and character inverses go through it.  The
tests check the recursion against Takeuchi's geometric series over the
filtration (``tests/series_oracle.py``) and against the finite solve.
Before either route it checks that the map sends each (semi)grouplike basis
key to an invertible value, the only obstruction in scope.  Targets are
those of :mod:`sweedler.specs`; for formal sums the
:class:`~sweedler.specs.AlgebraSpec` itself.

Every convolution sum here is :func:`~sweedler.specs.convolve_into`,
which multiplies by the key where f is an identity map: the recursion's,
and :func:`_inverse_failures`, the check of f * h and h * f against
eta.eps on every key that :func:`validate_antipode`,
:func:`invert_character` and the finite solve share.  The antipode, the
inverse of a bialgebra's identity, is an algebra antihomomorphism,
S(xy) = S(y) S(x) (Connes & Kreimer 1998 for forests), so a key that the
bialgebra's ``factors`` hook splits into x_1 ... x_n (a forest into its
trees) is evaluated as S(x_n) ... S(x_1); the recursion proper runs only
on keys it does not split, and the two-sided check verifies the rest.
"""

from __future__ import annotations

import bisect
import random

from .errors import (
    ConfigurationError, FiltrationNotExhaustive, GrouplikeNotInvertible, MathError,
)
from .linalg import solve_sparse
from .linear import BasisKey, FormalSum, _addto
from .specs import (
    AlgebraSpec, BialgebraSpec, ConvMap, ValidationReport, convolve_into, identity_map,
)
from .structure import (
    bivariate_filtration, filtration_from_grading, find_grouplikes, flanks, is_grouplike,
)


def _gate_grouplikes(f: ConvMap) -> None:
    """Raise unless f inverts every (semi)grouplike of the enumerated universe."""
    gpl, sgpl = find_grouplikes(f.source)
    if sgpl - gpl:
        bad = sorted(sgpl - gpl)[0]
        raise ConfigurationError(
            f"semigrouplike {bad} is not grouplike; degree-0 inversion undefined"
        )
    for g in sorted(sgpl):
        _grouplike_inverse(f, g)


def _grouplike_inverse(f: ConvMap, key: BasisKey):
    inv = f.target.try_inverse(f(key))
    if inv is None:
        raise GrouplikeNotInvertible(key, f(key))
    return inv


def _inverse_failures(f: ConvMap, h: ConvMap):
    """Yield ``(key, side)``, in key order, for each side of
    f * h = eta.eps = h * f that fails at a key; ``side`` is ``"f*h"`` or
    ``"h*f"``, and f * h comes first."""
    C, T = f.source, f.target
    units: dict = {}  # eps(k) 1, one per counit value
    for k in C.keys:
        eps = C.counit(k)
        unit = units.get(eps)
        if unit is None:
            unit = units[eps] = T.scale(eps, T.one())
        if convolve_into(T.zero(), 1, f, h, k) != unit:
            yield k, "f*h"
        if convolve_into(T.zero(), 1, h, f, k) != unit:
            yield k, "h*f"


def _colored_inverse(f: ConvMap) -> ConvMap:
    """The colored recursion, evaluated bottom-up from an explicit stack.

    For a key x with flanks g (x) x and x (x) r (its
    :func:`~sweedler.structure.flanks`) the two-sided inverse h satisfies
    f(g) h(x) = eps(x) 1 - sum c f(a) h(b) over the other terms of delta(x),
    so h(x) needs h(r) and h at the right factors of the rest.  On a memo
    miss the missing ones are walked depth first with an explicit stack and
    evaluated in post-order, so each one is ready before the keys that need
    it.  The order needs no filtration table: a right factor of a reduced
    term sits strictly lower in any admissible filtration, and a key that
    needs itself is reported as a cycle.  The walk state is local to the
    call; values, h(g) included, live only in the map's memo, which only
    gains complete, equal values, so threads race harmlessly.

    When f is a bialgebra's identity (``identity_of``), h is its antipode,
    and a key that bialgebra's ``factors`` hook splits depends on its
    factors alone and is their values' reversed product.
    """
    C, T = f.source, f.target
    factors = f.identity_of.hooks.get("factors") if f.identity_of is not None else None

    def frame(key):
        """(key, its left flank or None, its factors or None, what it needs)."""
        if is_grouplike(C, key):
            return key, None, None, iter(())
        parts = factors(key) if factors is not None else None
        if parts is not None:
            return key, None, parts, iter(parts)
        read = flanks(C, key)
        if read is None:
            raise ConfigurationError(f"key {key} has no well-defined flanks")
        g, right, rest = read
        return key, g, None, iter([right] + [b for _, b in rest])

    def evaluate(key, g, parts):
        if parts is not None:
            value = memo[parts[-1]]
            for x in parts[-2::-1]:
                value = T.mul(value, memo[x])
            return value
        if g is None:
            return _grouplike_inverse(f, key)
        inv_g = h(g)
        acc = T.accumulate(T.zero(), C.counit(key), T.one())
        acc = convolve_into(acc, -1, f, h, key, skip=(g, key))
        return acc if inv_g == T.one() else T.mul(inv_g, acc)

    def h_fn(key: BasisKey):
        stack = [frame(key)]
        on_path = {key}
        while stack:
            k, g, parts, todo = stack[-1]
            for b in todo:
                if b in memo:
                    continue
                if b in on_path:
                    raise ConfigurationError(f"colored recursion cycles at {b}")
                on_path.add(b)
                stack.append(frame(b))
                break
            else:
                stack.pop()
                on_path.discard(k)
                if k not in memo:  # racing threads keep the first value
                    memo.setdefault(k, evaluate(k, g, parts))
        return memo[key]

    h = ConvMap(C, T, h_fn, name=f"{f.name}^-1")
    memo = h._memo
    return h


def finite_convolution_inverse(f: ConvMap, B: BialgebraSpec) -> ConvMap:
    """Inverse on a finite-dimensional instance by exact sparse solving.

    Solves S * f = unit over the full basis and then checks the other side,
    so no filtration or connectivity is required.  The enumerated universe
    must contain the support of the inverse (true for honestly finite
    instances like the group doubles; truncations of infinite families need
    enough headroom).
    """
    C = B.coalgebra
    if not C.finite_universe:
        raise ConfigurationError("finite solve needs a finite key universe")
    T = f.target
    if not isinstance(T, AlgebraSpec):
        raise ConfigurationError("finite solve targets the bialgebra itself")
    keys = list(C.keys)
    col_index: dict = {}  # (a, m) -> the column of the unknown coefficient
    rows: dict = {}
    rhs: dict = {}
    unit = B.unit
    for k in keys:
        eps = C.counit(k)
        for o, c in unit:
            if eps:
                rhs[(k, o)] = rhs.get((k, o), 0) + eps * c
        for (a, b), c in C.delta(k):
            fb = f(b)
            if fb.is_zero():
                continue
            for m in keys:
                for o, co in fb:
                    mo = T.key_product(m, o)
                    if mo is not None:
                        col = col_index.setdefault((a, m), len(col_index))
                        _addto(rows.setdefault((k, mo), {}), col, c * co)
    row_keys = sorted(set(rows) | set(rhs), key=lambda ko: (ko[0], ko[1]))
    matrix = [rows.get(ko, {}) for ko in row_keys]
    vector = [rhs.get(ko, 0) for ko in row_keys]
    solution = solve_sparse(matrix, vector)
    if solution is None:
        raise MathError(f"{f.name} has no convolution inverse on {C.name}")
    # the solution fills the memo; a key it gives no term has value zero
    inv = ConvMap(C, T, lambda k: FormalSum.zero(), name=f"{f.name}^-1")
    for (a, m), idx in col_index.items():
        v = solution.get(idx, 0)
        if v:
            inv._memo.setdefault(a, FormalSum.zero()).terms[m] = v
    bad = next(_inverse_failures(f, inv), None)
    if bad is not None:
        raise MathError(f"{f.name} is left- but not two-sided invertible at {bad[0]}")
    return inv


def convolution_inverse(f: ConvMap, bialgebra: BialgebraSpec | None = None) -> ConvMap:
    """Invert f by the route its source admits; grouplike gate applies first.

    This is the one place that chooses a filtration: the grading when
    ``bialgebra`` carries the ``graded_filtration`` hook, the bivariate
    sweep otherwise.  Takes the colored recursion when the filtration is
    exhaustive, and the finite solve on finite instances of ``bialgebra``
    the filtration does not exhaust; raises FiltrationNotExhaustive
    otherwise.
    """
    _gate_grouplikes(f)
    if bialgebra is not None and bialgebra.hooks.get("graded_filtration"):
        filt = filtration_from_grading(f.source)
    else:
        filt = bivariate_filtration(f.source)
    if filt.exhaustive:
        return _colored_inverse(f)
    if bialgebra is not None and f.source.finite_universe and isinstance(f.target, AlgebraSpec):
        return finite_convolution_inverse(f, bialgebra)
    raise FiltrationNotExhaustive(sorted(filt.unreached)[0])


def antipode(B: BialgebraSpec, validate: bool = True) -> ConvMap:
    """The convolution inverse of the identity map of a bialgebra.

    Raises GrouplikeNotInvertible when a grouplike basis key has no product
    inverse; for pathlike instances that is exactly the Hopf obstruction.
    """
    S = convolution_inverse(identity_map(B), bialgebra=B)
    S.name = "S"
    if validate:
        report = validate_antipode(B, S)
        if not report.ok:
            raise MathError(f"antipode validation failed:\n{report.render()}")
    return S


def validate_antipode(B: BialgebraSpec, S: ConvMap,
                      sample_budget: int = 50, seed: int = 0) -> ValidationReport:
    """Both antipode identities on every key, antihomomorphism on samples."""
    report = ValidationReport(f"antipode axioms for {B.name}")
    C = B.coalgebra
    T = B.algebra
    report.checked += len(C.keys)
    detail = {"h*f": "S*id != unit.counit", "f*h": "id*S != unit.counit"}
    for k, side in _inverse_failures(identity_map(B), S):
        report.fail(k, detail[side])
    rng = random.Random(seed)
    keys = list(C.keys)
    # b is drawn among the keys whose grading leaves room for a's
    by_grading = sorted(keys, key=C.grading)
    gradings = [C.grading(k) for k in by_grading]
    top = C.max_degree()
    tried = 0
    done = 0
    while done < sample_budget and tried < 20 * sample_budget:
        tried += 1
        a = rng.choice(keys)
        fits = bisect.bisect_right(gradings, top - C.grading(a))
        if not fits:
            continue
        b = by_grading[rng.randrange(fits)]
        ab = T.key_product(a, b)
        # products leaving the truncated universe have no antipode table entry
        if ab is not None and ab not in C._key_set:
            continue
        done += 1
        report.checked += 1
        if (T.zero() if ab is None else S(ab)) != T.mul(S(b), S(a)):
            report.fail((a, b), "S is not an antihomomorphism")
    return report


def invert_character(phi: ConvMap, B: BialgebraSpec) -> ConvMap:
    """Convolution inverse of a character, after a multiplicativity
    spot-check; both inverse identities are checked on every key."""
    rng = random.Random(0)
    keys = list(B.keys)
    T = phi.target
    for _ in range(min(30, len(keys) ** 2)):  # 30 pairs, fixed seed
        a, b = rng.choice(keys), rng.choice(keys)
        lhs = phi.evaluate(B.product(a, b))
        rhs = T.mul(phi(a), phi(b))
        if lhs != rhs:
            raise ConfigurationError(
                f"rules are not multiplicative at ({a}, {b})"
            )
    if phi.evaluate(B.unit) != T.one():
        raise ConfigurationError("character does not preserve the unit")
    inv = convolution_inverse(phi, bialgebra=B)
    bad = next(_inverse_failures(phi, inv), None)
    if bad is not None:
        side = {"f*h": "phi*inv", "h*f": "inv*phi"}[bad[1]]
        raise MathError(f"character inverse fails {side} = eta.eps at {bad[0]}")
    return inv
