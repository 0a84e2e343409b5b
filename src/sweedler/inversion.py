"""Convolution inverses and antipodes.

Two routes to the inverse of a map out of a coalgebra:

* the colored recursion, peeling the left-flank term off the coproduct of
  each key; :func:`convolution_inverse` takes it whenever the filtration is
  exhaustive.  There f has a two-sided inverse, and the recursion solves
  f * h = eta.eps key by key, so it returns that inverse.  It runs without
  Python recursion, keeps all of its bookkeeping local to the call, and
  shares only an idempotent memo, so one inverse map can be evaluated from
  several threads at once;
* an exact sparse linear solve on finite-dimensional instances
  (:func:`finite_convolution_inverse`), which needs no filtration at all.
  :func:`convolution_inverse` takes it when the filtration is not
  exhaustive and the instance is finite with values in the bialgebra
  itself (the group doubles).

:func:`convolution_inverse` is the one place that picks a filtration: the
grading when the bialgebra has the ``graded_filtration`` hook, the bivariate
sweep otherwise; antipodes, character inverses and the Birkhoff check all go
through it.  The tests check the recursion against Takeuchi's geometric
series over the filtration (``tests/series_oracle.py``) and against the
finite solve.  Before either route it checks that the map sends each
(semi)grouplike basis key to an invertible value, the only obstruction in
scope.  Targets are those of :mod:`sweedler.specs`; for formal sums the
:class:`~sweedler.specs.AlgebraSpec` itself.

The antipode, the inverse of a bialgebra's identity, takes the recursion
with two changes.  A term adds -c a S(b) by key, so no identity sum is
built.  And an antipode is an algebra antihomomorphism, S(xy) = S(y) S(x)
(Connes & Kreimer 1998 for forests), so a key that the bialgebra's
``factors`` hook splits into x_1 ... x_n (a forest into its trees) is
evaluated as S(x_n) ... S(x_1), and the recursion proper runs only on keys
it does not split.  :func:`validate_antipode` still checks both identities
on every key, and those are what verify the factored values; its
antihomomorphism samples hold by construction on factored keys.  Character
inverses and the Birkhoff recursion keep the plain recursion, and
:func:`invert_character` checks both inverse identities on every key.
"""

from __future__ import annotations

import bisect
import random

from .errors import (
    ConfigurationError,
    FiltrationNotExhaustive,
    GrouplikeNotInvertible,
    MathError,
)
from .linalg import solve_sparse
from .linear import BasisKey, FormalSum, _addto
from .specs import (
    AlgebraSpec,
    BialgebraSpec,
    ConvMap,
    ValidationReport,
    convolution_unit,
    convolve,
    identity_map,
)
from .structure import (
    bivariate_filtration,
    filtration_from_grading,
    find_grouplikes,
    flanks,
    is_grouplike,
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
        value = f(g)
        if f.target.try_inverse(value) is None:
            raise GrouplikeNotInvertible(g, value)


def _grouplike_inverse(f: ConvMap, key: BasisKey):
    inv = f.target.try_inverse(f(key))
    if inv is None:
        raise GrouplikeNotInvertible(key, f(key))
    return inv


def _colored_inverse(f: ConvMap, bialgebra: BialgebraSpec | None = None) -> ConvMap:
    """The colored recursion, evaluated bottom-up from an explicit stack.

    For a key x with left flank g the two-sided inverse h satisfies
    f(g) h(x) = eps(x) 1 - sum c f(a) h(b) over the other terms of delta(x),
    so h(x) needs h at the right factors b of those terms.  On a memo miss
    the right factors that are still missing are walked depth first with an
    explicit stack and evaluated in post-order, so each one is ready before
    the keys that need it.  The order needs no filtration table: a right
    factor of a reduced term sits strictly lower in any admissible
    filtration, and a key that needs itself is reported as a cycle.  The
    walk state is local to the call; values, h(g) included, live only in the
    map's memo, which only gains complete, equal values, so threads race
    harmlessly.

    ``bialgebra`` is given when f is its identity and h its antipode: each
    term then adds -c a h(b) by key, and a key the ``factors`` hook splits
    depends on its factors alone and is their values' reversed product.
    """
    C, T = f.source, f.target
    factors = bialgebra.hooks.get("factors") if bialgebra is not None else None

    def frame(key):
        """(key, its left flank or None, its factors or None, what it needs)."""
        if is_grouplike(C, key):
            return key, None, None, iter(())
        parts = factors(key) if factors is not None else None
        if parts is not None:
            return key, None, parts, iter(parts)
        pair = flanks(C, key)
        if pair is None:
            raise ConfigurationError(f"key {key} has no well-defined flanks")
        g = pair[0]
        return key, g, None, iter(
            [b for (a, b), _ in C.delta(key) if not (a == g and b == key)]
        )

    def evaluate(key, g, parts):
        if parts is not None:
            value = memo[parts[-1]]
            for x in parts[-2::-1]:
                value = T.mul(value, memo[x])
            return value
        if g is None:
            return _grouplike_inverse(f, key)
        inv_g = h(g)
        # eps(x) 1 - sum c f(a) h(b), accumulated in place
        acc = T.accumulate(T.zero(), C.counit(key), T.one())
        if bialgebra is None:
            for (a, b), c in C.delta(key):
                if not (a == g and b == key):
                    acc = T.accumulate(acc, -c, f(a), memo[b])
        else:  # f(a) is a itself: no one-term sum is built
            terms = acc.terms
            for (a, b), c in C.delta(key):
                if not (a == g and b == key):
                    T.key_mul_into(terms, -c, a, memo[b])
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
    eta_eps = convolution_unit(C, T)
    for side in (convolve(inv, f), convolve(f, inv)):
        for k in keys:
            if side(k) != eta_eps(k):
                raise MathError(
                    f"{f.name} is left- but not two-sided invertible at {k}"
                )
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
        if bialgebra is not None and getattr(f, "identity_of", None) is bialgebra:
            return _colored_inverse(f, bialgebra)  # the antipode
        return _colored_inverse(f)
    if (
        bialgebra is not None
        and f.source.finite_universe
        and isinstance(f.target, AlgebraSpec)
    ):
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
    # the term dict of counit(k) * unit, one per counit value
    expected_of: dict = {}
    for k in C.keys:
        report.checked += 1
        left: dict = {}
        right: dict = {}
        for (a, b), c in C.delta(k):
            T.mul_key_into(left, c, S(a), b)
            T.key_mul_into(right, c, a, S(b))
        eps = C.counit(k)
        expected = expected_of.get(eps)
        if expected is None:
            expected = expected_of[eps] = B.unit.scale(eps).terms
        if left != expected:
            report.fail(k, "S*id != unit.counit")
        if right != expected:
            report.fail(k, "id*S != unit.counit")
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
    eta_eps = convolution_unit(B.coalgebra, T)
    sides = (("phi*inv", convolve(phi, inv)), ("inv*phi", convolve(inv, phi)))
    for k in keys:
        for side, g in sides:
            if g(k) != eta_eps(k):
                raise MathError(f"character inverse fails {side} = eta.eps at {k}")
    return inv
