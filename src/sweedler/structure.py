"""Grouplike/skew-primitive detection and the filtration machinery.

Basis-level analysis of a truncated coalgebra: which basis keys are
(semi)grouplike, the color block and skew primitives of every key, and the
inductive two-sided filtration.  Each reads a key's coproduct once, through
:func:`flanks`: its flank pair g (x) key, key (x) h and its other terms, the
reading that the colored recursion of :mod:`sweedler.inversion` peels too.
An exhaustive filtration is what makes inversion possible:
a key of degree r is annihilated by any (r+1)-fold product of maps vanishing
on the degree-0 base, so the geometric series for the inverse truncates, and
:func:`~sweedler.inversion.convolution_inverse` takes the colored recursion
exactly when the filtration is exhaustive.

Membership of a coproduct term in a filtration stratum is decided per term
on the canonical coproduct output.  Over a field with a canonical basis this
matches the span-level definition for every instance in the gallery; exotic
rewritings are out of scope.  Full linear-span primitive computation (kernel
of the reduced coproduct) is available separately for finite truncations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigurationError
from .linalg import nullspace_sparse
from .linear import BasisKey, FormalSum, TensorSum
from .specs import CoalgebraSpec


def find_grouplikes(C: CoalgebraSpec):
    """Basis keys k with delta(k) = k (x) k, split by the counit condition.

    Returns (grouplikes, semigrouplikes); the first set is contained in the
    second, which also collects semigrouplikes with counit value != 1.
    The scan is kept in the spec's ``_grouplikes`` (universes are immutable).
    """
    if C._grouplikes is not None:
        return C._grouplikes
    grouplikes = set()
    semigrouplikes = set()
    for k in C.keys:
        if C.delta(k).terms == {(k, k): 1}:
            semigrouplikes.add(k)
            if C.counit(k) == 1:
                grouplikes.add(k)
    C._grouplikes = (grouplikes, semigrouplikes)
    return grouplikes, semigrouplikes


def is_grouplike(C: CoalgebraSpec, key: BasisKey) -> bool:
    """Whether delta(key) = key (x) key and counit(key) = 1.

    Keys of the enumerated universe are answered from the cached scan; keys
    outside it (products may leave a truncation) are tested intrinsically.
    """
    if key in C._key_set:
        return key in find_grouplikes(C)[0]
    return C.counit(key) == 1 and C.delta(key).terms == {(key, key): 1}


def flanks(C: CoalgebraSpec, key: BasisKey, base=None):
    """``(g, h, rest)`` for a key, or None when its flanks are not unique.

    The flanks are the terms g (x) key and key (x) h of delta(key) with
    coefficient 1 and g, h in ``base`` (the grouplikes when None); a
    grouplike key is its own pair.  ``rest`` holds the coproduct's other
    pairs in term order, the tuples of its own term dict.  Keys are
    hash-consed, so a pair names the key when it holds that very object:
    the rule reads only the few pairs that do, and one of them that flanks
    nothing stays in ``rest``, in its place.
    """
    inside = base.__contains__ if base is not None else (lambda x: is_grouplike(C, x))
    terms = C.delta(key).terms
    lefts, rights, stray = [], [], False
    for pair in [p for p in terms if p[0] is key or p[1] is key]:
        a, b = pair
        unit = terms[pair] == 1
        left = unit and b is key and inside(a)
        right = unit and a is key and inside(b)
        if left:
            lefts.append(a)
        if right:
            rights.append(b)
        stray = stray or not (left or right)
    if len(lefts) != 1 or len(rights) != 1:
        return None
    g, h = lefts[0], rights[0]
    if stray:
        return g, h, tuple([p for p in terms if p not in ((g, key), (key, h))])
    return g, h, tuple([p for p in terms if p[0] is not key and p[1] is not key])


def reduced_coproduct(C: CoalgebraSpec, key: BasisKey, g: BasisKey, h: BasisKey) -> TensorSum:
    """delta(x) - g (x) x - x (x) h, the two-sided reduction at a flank pair."""
    return C.delta(key) - TensorSum.pure(g, key) - TensorSum.pure(key, h)


def find_skew_primitives(C: CoalgebraSpec, g: BasisKey, h: BasisKey) -> set:
    """Basis keys k with delta(k) = g (x) k + k (x) h exactly.

    Flank order is (left, right): a quiver edge v -> w is reported for the
    pair (v, w).  Read off the report the spec keeps, so a loop over pairs
    reads each coproduct once; linear combinations such as g - h are
    handled separately by :func:`skew_primitive_space`.
    """
    gpl, _ = find_grouplikes(C)
    if g not in gpl or h not in gpl:
        raise ConfigurationError(f"flanks must be grouplike basis keys: {g}, {h}")
    report = C._structure or analyze_structure(C)
    return report.skew_primitive_pairs.get((g, h), set())


def skew_primitive_space(C: CoalgebraSpec, g: BasisKey, h: BasisKey,
                         max_degree: int | None = None) -> list[FormalSum]:
    """Basis of the full space {x : delta(x) = g (x) x + x (x) h} by exact solving."""
    keys = [k for k in C.keys
            if max_degree is None or C.grading(k) <= max_degree]
    cols = {k: i for i, k in enumerate(keys)}
    rows: dict = {}
    for k in keys:
        for (a, b), c in reduced_coproduct(C, k, g, h):
            rows.setdefault((a, b), {})[cols[k]] = c
    basis = nullspace_sparse(list(rows.values()), list(range(len(keys))))
    out = []
    for vec in basis:
        out.append(FormalSum({keys[i]: c for i, c in vec.items()}))
    return out


@dataclass
class FiltrationTable:
    """Key -> filtration degree, plus the keys that never entered.

    Grading-backed tables carry a total fallback function so maps stay
    evaluable on keys outside the enumerated sweep window.
    """

    degrees: dict
    unreached: frozenset
    fallback: object = None

    def degree(self, key: BasisKey):
        """The degree of a key, or None when it is not reached."""
        d = self.degrees.get(key)
        if d is None and key not in self.unreached and self.fallback is not None:
            return self.fallback(key)
        return d

    @property
    def exhaustive(self) -> bool:
        return not self.unreached

    def histogram(self) -> dict:
        out: dict = {}
        for d in self.degrees.values():
            out[d] = out.get(d, 0) + 1
        return out


def filtration_from_grading(C: CoalgebraSpec) -> FiltrationTable:
    """Use the grading as the filtration; valid when degree 0 is grouplike.

    The grading of a graded coalgebra is always an admissible filtration for
    inversion provided the degree-0 stratum is spanned by grouplikes, which
    is checked here.
    """
    gpl, sgpl = find_grouplikes(C)
    degrees = {}
    for k in C.keys:
        d = C.grading(k)
        if d == 0 and k not in sgpl:
            raise ConfigurationError(
                f"degree-0 key {k} is not semigrouplike; grading filtration invalid"
            )
        degrees[k] = d
    return FiltrationTable(degrees, frozenset(), fallback=C.grading)


def bivariate_filtration(C: CoalgebraSpec) -> FiltrationTable:
    """Inductive sweep assigning each basis key its two-sided reduction depth.

    Degree 0 is the semigrouplike base.  A key enters degree n when both
    tensor factors of every pair in the ``rest`` of its :func:`flanks` over
    that base are already at degree <= n-1; a key without unique flanks, or
    whose rest names the key itself, never enters.  The sweep ends at the
    first round that settles nothing.
    """
    _, sgpl = find_grouplikes(C)
    degrees = {k: 0 for k in sgpl}
    pending: dict = {}
    for k in C.keys:
        if k not in sgpl:
            read = flanks(C, k, sgpl)
            if read is not None:
                pending[k] = read[2]

    n = 0
    while True:
        n += 1
        settled = []
        for k, pairs in pending.items():
            for a, b in pairs:
                if a not in degrees or b not in degrees:
                    break
            else:
                settled.append(k)
        if not settled:
            break
        for k in settled:
            degrees[k] = n
            del pending[k]
    unreached = frozenset(k for k in C.keys if k not in degrees)
    return FiltrationTable(degrees, unreached)


@dataclass
class PathlikeVerdict:
    is_pathlike: bool
    witnesses: list

    def render(self) -> str:
        if self.is_pathlike:
            return "pathlike: yes"
        lines = ["pathlike: no"]
        for w in self.witnesses:
            lines.append(f"  witness: {w}")
        return "\n".join(lines)


def verify_pathlike(C: CoalgebraSpec) -> PathlikeVerdict:
    """Check the two pathlike conditions on the truncated basis.

    (1) every semigrouplike basis key is grouplike; (2) the filtration based
    on the grouplikes reaches every basis key, so that its degree-0 part is
    exactly the span of the grouplikes.
    """
    gpl, sgpl = find_grouplikes(C)
    witnesses = []
    for k in sorted(sgpl - gpl):
        witnesses.append(f"semigrouplike {k} has counit {C.counit(k)} != 1")
    table = bivariate_filtration(C)
    for k in sorted(table.unreached):
        witnesses.append(f"key {k} not reached by the filtration")
    return PathlikeVerdict(not witnesses, witnesses)


@dataclass
class StructureReport:
    grouplikes: set
    semigrouplikes: set
    skew_primitive_pairs: dict
    color_blocks: dict
    uncolorable: list

    def render(self) -> str:
        lines = [f"grouplikes ({len(self.grouplikes)}):"]
        for k in sorted(self.grouplikes):
            lines.append(f"  {k}")
        extra = self.semigrouplikes - self.grouplikes
        if extra:
            lines.append(f"semigrouplikes with counit != 1 ({len(extra)}):")
            for k in sorted(extra):
                lines.append(f"  {k}")
        lines.append("skew primitives:")
        for (g, h) in sorted(self.skew_primitive_pairs):
            for k in sorted(self.skew_primitive_pairs[(g, h)]):
                lines.append(f"  ({g},{h}): {k}")
        lines.append("color blocks:")
        for (g, h) in sorted(self.color_blocks):
            names = ", ".join(str(k) for k in sorted(self.color_blocks[(g, h)]))
            lines.append(f"  ({g},{h}): {names}")
        for k, reason in self.uncolorable:
            lines.append(f"uncolorable: {k} ({reason})")
        return "\n".join(lines)


def color_decompose(C: CoalgebraSpec):
    """The color blocks and uncolorable keys of :func:`analyze_structure`."""
    report = analyze_structure(C)
    return report.color_blocks, report.uncolorable


def analyze_structure(C: CoalgebraSpec) -> StructureReport:
    """The report, from one :func:`flanks` reading per non-grouplike key: a
    key is in the color block of its flanks when no factor of its rest is
    grouplike (uncolorable otherwise, or without unique flanks), and a skew
    primitive when it has no rest and its flanks lie in the universe.  The
    report is kept in the spec's ``_structure`` (universes are immutable)."""
    gpl, sgpl = find_grouplikes(C)
    blocks: dict = {}
    skew: dict = {}
    uncolorable = []
    for k in C.keys:
        if k in gpl:
            blocks.setdefault((k, k), set()).add(k)
            continue
        read = flanks(C, k)
        if read is None:
            uncolorable.append((k, "flanking grouplikes not unique"))
            continue
        g, h, rest = read
        if any(is_grouplike(C, a) or is_grouplike(C, b) for a, b in rest):
            uncolorable.append((k, "reduced part touches the grouplike span"))
            continue
        blocks.setdefault((g, h), set()).add(k)
        if not rest and g in gpl and h in gpl:
            skew.setdefault((g, h), set()).add(k)
    C._structure = StructureReport(gpl, sgpl, skew, blocks, uncolorable)
    return C._structure
