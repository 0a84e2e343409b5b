"""Constructors for the concrete coalgebra zoo.

Quiver path coalgebras, poset incidence coalgebras, categorical coalgebras of
finite colored monoids, iterated-integral word coalgebras, setlike coalgebras
and the Drinfel'd double of a finite group.  Every constructor truncates to a
finite, enumerable key universe (mandatory for sweep-style validation) while
keeping ``delta`` total on the keys it emits, so truncated universes are
honest subcoalgebras.

Path keys live in ``_PATHS`` and word and product keys in ``_WORDS``, built
by ``linear.intern`` without bytes; ``BasisKey``, copies and unpickling reach
them through the registered constructors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial

from .errors import InputError, UnsupportedError, json_array
from .linear import BasisKey, FormalSum, TensorSum, intern, register_family
from .specs import AlgebraSpec, BialgebraSpec, CoalgebraSpec
from .trees import _bounded

_NAME_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _check_name(name: str, what: str) -> str:
    if not isinstance(name, str) or not name or not set(name) <= _NAME_OK:
        raise InputError(f"{what} name {name!r} must be a nonempty identifier")
    return name


# ---------------------------------------------------------------------------
# Quiver path coalgebra

@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    edges: tuple  # (name, src, tgt)

    def __post_init__(self):
        names = [v for v in self.vertices]
        if len(set(names)) != len(names):
            raise InputError("duplicate vertex names")
        enames = [e[0] for e in self.edges]
        if len(set(enames)) != len(enames):
            raise InputError("duplicate edge names")
        vset = set(names)
        for name, src, tgt in self.edges:
            _check_name(name, "edge")
            if src not in vset or tgt not in vset:
                raise InputError(f"edge {name} has undeclared endpoint")
        for v in names:
            _check_name(v, "vertex")

    @classmethod
    def from_doc(cls, doc: dict) -> "Quiver":
        try:
            vertices = tuple(json_array(doc["vertices"], "vertices"))
            edges = tuple((e["name"], e["src"], e["tgt"]) for e in doc["edges"])
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad quiver document: {exc}") from exc
        return cls(vertices, edges)

    def edge_map(self) -> dict:
        return {name: (src, tgt) for name, src, tgt in self.edges}


register_family("vx", lambda k: k.payload[0])


def vertex_key(v: str) -> BasisKey:
    return BasisKey("vx", (v,))


# Path keys by payload: the path coproduct builds every prefix and suffix
# key again, and a table lookup skips the encoding.
_PATHS: dict = {}


def path_key(edge_names) -> BasisKey:
    payload = tuple(edge_names)
    return intern(_PATHS, payload, "path", payload)


register_family("path", lambda k: ".".join(k.payload), path_key)


def path_coproduct(emap: dict, key: BasisKey) -> TensorSum:
    """Deconcatenation of a vertex or path key, given the quiver's
    ``edge_map``: a path needs no universe to split."""
    if key.tag == "vx":
        return TensorSum.pure(key, key)
    edges = key.payload
    src = vertex_key(emap[edges[0]][0])
    tgt = vertex_key(emap[edges[-1]][1])
    terms = [(src, key), (key, tgt)]
    for i in range(1, len(edges)):
        terms.append((path_key(edges[:i]), path_key(edges[i:])))
    return TensorSum.of(terms)


def build_path_coalgebra(quiver: Quiver, max_length: int) -> CoalgebraSpec:
    """Deconcatenation coalgebra on paths of length <= max_length."""
    if max_length < 0:
        raise InputError("max_length must be >= 0")
    emap = quiver.edge_map()
    by_source: dict = {}
    for name, (src, tgt) in emap.items():
        by_source.setdefault(src, []).append(name)

    keys = [vertex_key(v) for v in quiver.vertices]
    frontier = [(name,) for name in sorted(emap)]
    length = 1
    while length <= max_length and frontier:
        keys.extend(path_key(p) for p in frontier)
        nxt = []
        for p in frontier:
            tgt = emap[p[-1]][1]
            for name in by_source.get(tgt, ()):
                nxt.append(p + (name,))
        frontier = nxt
        length += 1

    def counit(key: BasisKey) -> int:
        return 1 if key.tag == "vx" else 0

    def grading(key: BasisKey) -> int:
        return 0 if key.tag == "vx" else len(key.payload)

    return CoalgebraSpec(f"paths({len(quiver.vertices)}v,{len(quiver.edges)}e)<= {max_length}",
                         keys, partial(path_coproduct, emap), counit, grading)


def complete_quiver(vertices) -> Quiver:
    """One directed edge per ordered pair of distinct vertices."""
    edges = tuple(
        (f"{a}to{b}", a, b) for a in vertices for b in vertices if a != b
    )
    return Quiver(tuple(vertices), edges)


# ---------------------------------------------------------------------------
# Poset incidence coalgebra

class Poset:
    """A finite poset given by cover relations; closure computed eagerly."""

    def __init__(self, elements, covers):
        self.elements = tuple(_check_name(e, "element") for e in elements)
        if len(set(self.elements)) != len(self.elements):
            raise InputError("duplicate poset elements")
        eset = set(self.elements)
        succ: dict = {e: set() for e in self.elements}
        for a, b in covers:
            if a not in eset or b not in eset:
                raise InputError(f"cover ({a},{b}) uses undeclared element")
            succ[a].add(b)
        self._order = self._toposort(succ)
        # reflexive-transitive closure, upper elements first
        self.leq: dict = {e: {e} for e in self.elements}
        for e in reversed(self._order):
            for s in succ[e]:
                self.leq[e] |= self.leq[s]
        self.covers = {e: frozenset(succ[e]) for e in self.elements}

    def _toposort(self, succ: dict):
        """Kahn's algorithm; the elements of a cycle are never released."""
        blocked = {e: 0 for e in self.elements}
        for e in self.elements:
            for s in succ[e]:
                blocked[s] += 1
        order = [e for e in self.elements if not blocked[e]]
        for e in order:
            for s in succ[e]:
                blocked[s] -= 1
                if not blocked[s]:
                    order.append(s)
        if len(order) < len(self.elements):
            # every unreleased element covers an unreleased one, so walking
            # down n steps from any of them ends on a cycle
            below = {s: e for e in self.elements if blocked[e] for s in succ[e]}
            e = next(e for e in self.elements if blocked[e])
            for _ in self.elements:
                e = below[e]
            raise InputError(f"cover relations contain a cycle through {e}")
        return order

    @classmethod
    def from_doc(cls, doc: dict) -> "Poset":
        try:
            covers = [tuple(json_array(c, "cover")) for c in json_array(doc["covers"], "covers")]
            for c in covers:
                if len(c) != 2:
                    raise InputError(f"bad poset document: cover {list(c)!r} is not a pair")
            return cls(json_array(doc["elements"], "elements"), covers)
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad poset document: {exc}") from exc

    def le(self, a, b) -> bool:
        return b in self.leq[a]

    def interval(self, a, b):
        return [z for z in self.elements if self.le(a, z) and self.le(z, b)]

    def chain_length(self, a, b) -> int:
        """Length of the longest chain from a to b (number of covers)."""
        # the elements of a chain from a to b sit between them in the order
        length = {b: 0}
        for x in reversed(self._order[self._order.index(a):self._order.index(b)]):
            steps = [length[s] for s in self.covers[x] if s in length]
            if steps:
                length[x] = max(steps) + 1
        return length.get(a, 0)


register_family("int", lambda k: f"[{k.payload[0]},{k.payload[1]}]")


def interval_key(x, y) -> BasisKey:
    return BasisKey("int", (str(x), str(y)))


def build_incidence_coalgebra(poset: Poset) -> CoalgebraSpec:
    keys = []
    pairs = {}
    for a in poset.elements:
        for b in poset.leq[a]:
            k = interval_key(a, b)
            keys.append(k)
            pairs[k] = (a, b)

    def delta(key: BasisKey) -> TensorSum:
        a, b = pairs[key]
        return TensorSum.of(
            (interval_key(a, z), interval_key(z, b)) for z in poset.interval(a, b)
        )

    def counit(key: BasisKey) -> int:
        x, y = key.payload
        return 1 if x == y else 0

    def grading(key: BasisKey) -> int:
        a, b = pairs[key]
        return poset.chain_length(a, b)

    return CoalgebraSpec(f"intervals({len(poset.elements)})", keys, delta, counit, grading)


def chain_poset(n: int) -> Poset:
    els = [str(i) for i in range(n + 1)]
    return Poset(els, [(str(i), str(i + 1)) for i in range(n)])


def boolean_poset(atoms: int) -> Poset:
    """The Boolean lattice of subsets of {0..atoms-1}, named by bitstrings."""
    els = ["".join("1" if i & (1 << b) else "0" for b in range(atoms))
           for i in range(1 << atoms)]
    covers = []
    for i in range(1 << atoms):
        for b in range(atoms):
            if not i & (1 << b):
                covers.append((els[i], els[i | (1 << b)]))
    return Poset(els, covers)


# ---------------------------------------------------------------------------
# Colored monoids and the categorical coalgebra

class ColoredMonoid:
    """A finite (truncation of a) colored monoid with a partial product table.

    ``elements`` maps name -> (source color, target color, degree);
    ``identities`` maps color -> element name; the table maps composable
    pairs (a, b) with tgt(a) == src(b) to their product name.
    """

    def __init__(self, colors, elements: dict, identities: dict, table: dict):
        self.colors = tuple(colors)
        self.elements = dict(elements)
        self.identities = dict(identities)
        self.table = dict(table)
        self._validate()
        self.decomp: dict = {m: [] for m in self.elements}
        for (a, b), c in self.table.items():
            self.decomp[c].append((a, b))

    def _validate(self):
        ids = set(self.identities.values())
        for x in self.colors:
            e = self.identities.get(x)
            if e is None or e not in self.elements:
                raise InputError(f"missing identity for color {x}")
            src, tgt, deg = self.elements[e]
            if src != x or tgt != x:
                raise InputError(f"identity {e} has wrong colors")
        for m, (src, tgt, deg) in self.elements.items():
            if deg < 0:
                raise InputError(f"negative degree on {m}")
            if (deg == 0) != (m in ids):
                raise InputError(f"degree function not proper at {m}")
        for (a, b), c in self.table.items():
            sa, ta, da = self.elements[a]
            sb, tb, db = self.elements[b]
            sc, tc, dc = self.elements[c]
            if ta != sb:
                raise InputError(f"product {a}*{b} not composable")
            if (sc, tc) != (sa, tb):
                raise InputError(f"product {a}*{b}={c} has wrong colors")
            if dc != da + db:
                raise InputError(f"degree not additive on {a}*{b}")
        for m, (src, tgt, deg) in self.elements.items():
            i, j = self.identities[src], self.identities[tgt]
            if self.table.get((i, m)) != m or self.table.get((m, j)) != m:
                raise InputError(f"identity laws fail at {m}")
        for (a, b), ab in self.table.items():
            for c in self.elements:
                if (b, c) in self.table:
                    left = self.table.get((ab, c))
                    right = self.table.get((a, self.table[(b, c)]))
                    if left is not None and right is not None and left != right:
                        raise InputError(f"associativity fails at ({a},{b},{c})")

    def nontrivial_invertible(self):
        ids = set(self.identities.values())
        for (a, b), c in self.table.items():
            if c in ids and (a not in ids or b not in ids):
                return a if a not in ids else b
        return None


register_family("mon", lambda k: k.payload[0])


def monoid_key(name: str) -> BasisKey:
    return BasisKey("mon", (name,))


def build_categorical_coalgebra(monoid: ColoredMonoid, max_degree: int) -> CoalgebraSpec:
    """Deconcatenation coalgebra of a colored monoid (monoidal convention)."""
    bad = monoid.nontrivial_invertible()
    if bad is not None:
        raise UnsupportedError(
            f"monoid has a non-identity invertible element: {bad}"
        )
    keys = [monoid_key(m) for m, (s, t, d) in monoid.elements.items() if d <= max_degree]
    ids = set(monoid.identities.values())

    def delta(key: BasisKey) -> TensorSum:
        (name,) = key.payload
        return TensorSum.of(
            (monoid_key(a), monoid_key(b)) for a, b in monoid.decomp[name]
        )

    def counit(key: BasisKey) -> int:
        return 1 if key.payload[0] in ids else 0

    def grading(key: BasisKey) -> int:
        return monoid.elements[key.payload[0]][2]

    return CoalgebraSpec(f"monoid({len(keys)})", keys, delta, counit, grading)


def free_monoid_one_generator(max_degree: int) -> ColoredMonoid:
    """Truncation of the free monoid on one generator a (single color)."""
    elements = {"e": ("x", "x", 0)}
    for i in range(1, max_degree + 1):
        elements["a" * i] = ("x", "x", i)
    table = {}
    for i in range(max_degree + 1):
        for j in range(max_degree + 1 - i):
            table[("a" * i or "e", "a" * j or "e")] = "a" * (i + j) or "e"
    return ColoredMonoid(("x",), elements, {"x": "e"}, table)


def poset_monoid(poset: Poset) -> ColoredMonoid:
    """A poset as a colored monoid: one morphism per interval."""
    elements = {}
    identities = {}
    for a in poset.elements:
        for b in poset.leq[a]:
            name = f"[{a},{b}]"
            elements[name] = (str(a), str(b), poset.chain_length(a, b))
            if a == b:
                identities[str(a)] = name
    table = {}
    for a in poset.elements:
        for z in poset.leq[a]:
            for b in poset.leq[z]:
                table[(f"[{a},{z}]", f"[{z},{b}]")] = f"[{a},{b}]"
    monoid = ColoredMonoid(tuple(str(e) for e in poset.elements), elements, identities, table)
    return monoid


# ---------------------------------------------------------------------------
# Word coalgebra (iterated-integral style)

def _word_literal(k: BasisKey) -> str:
    a0, letters, a1 = k.payload
    return f"I({a0};{','.join(letters)};{a1})"


# Word and product keys by payload.  A word payload starts with a letter
# and a product payload with a word payload, so one table holds both kinds.
_WORDS: dict = {}


def _word(tag: str, payload) -> BasisKey:
    return intern(_WORDS, payload, tag, payload)


register_family("word", _word_literal, lambda payload: _word("word", payload))
register_family(
    "wprod", lambda k: ".".join(_word_literal(BasisKey("word", p)) for p in k.payload),
    lambda payload: _word("wprod", payload))


def word_key(left: str, letters, right: str) -> BasisKey:
    return _word("word", (left, tuple(letters), right))


def word_product_key(word_keys) -> BasisKey:
    payloads = sorted(k.payload for k in word_keys)
    if len(payloads) == 1:
        return _word("word", payloads[0])
    return _word("wprod", tuple(payloads))


@lru_cache(maxsize=None)
def _word_cuts(payload):
    """Per-word cut table: (left word key, tuple of right factor word keys)."""
    a0, letters, a1 = payload
    n = len(letters)
    marks = (a0,) + tuple(letters) + (a1,)
    out = []
    for bits in range(1 << n):
        chosen = [0] + [i for i in range(1, n + 1) if bits & (1 << (i - 1))] + [n + 1]
        left = word_key(a0, (marks[i] for i in chosen[1:-1]), a1)
        factors = tuple(
            word_key(marks[i], marks[i + 1 : j], marks[j])
            for i, j in zip(chosen, chosen[1:])
        )
        out.append((left, factors))
    return tuple(out)


def goncharov_coproduct(key: BasisKey) -> TensorSum:
    """Cut-point coproduct of a word: one summand per subset of letter slots."""
    payloads = (key.payload,) if key.tag == "word" else key.payload
    terms = []
    for combo in itertools.product(*(_word_cuts(p) for p in payloads)):
        terms.append((word_product_key([c[0] for c in combo]),
                      word_product_key([k for c in combo for k in c[1]])))
    return TensorSum.of(terms)


def build_word_coalgebra(alphabet, max_length: int, closed: bool = False) -> CoalgebraSpec:
    """Word coalgebra on a finite alphabet, one key per word up to max_length.

    ``delta`` is total on product keys, which is all coassociativity sweeps
    need.  With ``closed=True`` the universe also enumerates the product
    monomials reachable from those words (letters plus factor count never
    grows along the coproduct), making it an honest subcoalgebra for
    filtration sweeps; this blows up quickly, keep the bounds small.
    """
    alphabet = tuple(alphabet)
    for i, a in enumerate(alphabet):
        _check_name(a, "letter")
        if a in alphabet[:i]:
            raise InputError(f"duplicate letter {a!r}")
    by_length = [[word_key(a0, letters, a1)
                  for a0 in alphabet for a1 in alphabet
                  for letters in itertools.product(alphabet, repeat=n)]
                 for n in range(max_length + 1)]
    if not closed:
        keys = [k for words in by_length for k in words]
    else:
        # a word weighs its letters plus one, and letters plus factors never
        # grow along a coproduct chain: the bounded multisets of the words
        pool = [((n + 1, 0), words) for n, words in enumerate(by_length)]
        keys = sorted({word_product_key(chosen)
                       for chosen in _bounded(pool, max_length + 1, 0, False)
                       if chosen})

    def counit(key: BasisKey) -> int:
        if key.tag == "word":
            return 1 if not key.payload[1] else 0
        return 1 if all(not p[1] for p in key.payload) else 0

    def grading(key: BasisKey) -> int:
        if key.tag == "word":
            return len(key.payload[1])
        return sum(len(p[1]) for p in key.payload)

    return CoalgebraSpec(
        f"words({len(alphabet)})<= {max_length}{'+' if closed else ''}",
        keys, goncharov_coproduct, counit, grading,
    )


# ---------------------------------------------------------------------------
# Setlike coalgebra

register_family("set", lambda k: k.payload[0])


def setlike_key(name: str) -> BasisKey:
    return BasisKey("set", (name,))


def build_setlike_coalgebra(names) -> CoalgebraSpec:
    keys = [setlike_key(n) for n in names]
    return CoalgebraSpec(
        f"setlike({len(keys)})",
        keys,
        lambda k: TensorSum.pure(k, k),
        lambda k: 1,
        lambda k: 0,
    )


# ---------------------------------------------------------------------------
# Finite groups and the Drinfel'd double

class Group:
    """A finite group given by a Cayley table; all axioms are checked."""

    def __init__(self, names, table: dict):
        self.names = tuple(names)
        self.table = dict(table)
        nset = set(self.names)
        if len(nset) != len(self.names):
            raise InputError("duplicate group element names")
        for a in self.names:
            for b in self.names:
                if self.table.get((a, b)) not in nset:
                    raise InputError(f"group table incomplete at ({a},{b})")
        identity = None
        for e in self.names:
            if all(self.table[(e, a)] == a and self.table[(a, e)] == a for a in self.names):
                identity = e
                break
        if identity is None:
            raise InputError("group table has no identity")
        self.identity = identity
        self.inv = {}
        for a in self.names:
            for b in self.names:
                if self.table[(a, b)] == identity and self.table[(b, a)] == identity:
                    self.inv[a] = b
        if len(self.inv) != len(self.names):
            raise InputError("group table has a non-invertible element")
        for a in self.names:
            for b in self.names:
                for c in self.names:
                    if self.mul(self.mul(a, b), c) != self.mul(a, self.mul(b, c)):
                        raise InputError(f"group table not associative at ({a},{b},{c})")

    def mul(self, a, b):
        return self.table[(a, b)]

    def conj(self, x, h):
        """x h x^-1."""
        return self.mul(self.mul(x, h), self.inv[x])


def cyclic_group(n: int) -> Group:
    names = [f"r{i}" if i else "e" for i in range(n)]
    table = {
        (names[i], names[j]): names[(i + j) % n] for i in range(n) for j in range(n)
    }
    return Group(names, table)


def symmetric_group_3() -> Group:
    perms = list(itertools.permutations((0, 1, 2)))

    def name(p):
        return "p" + "".join(str(i) for i in p)

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(3))

    table = {
        (name(p), name(q)): name(compose(p, q)) for p in perms for q in perms
    }
    return Group([name(p) for p in perms], table)


register_family("dbl", lambda k: f"<{k.payload[0]},{k.payload[1]}>")
register_family("ddbl", lambda k: f"d<{k.payload[0]},{k.payload[1]}>")


def double_key(g, x) -> BasisKey:
    return BasisKey("dbl", (g, x))


def build_drinfeld_double(group: Group) -> BialgebraSpec:
    """The double of a finite group algebra, with its closed-form antipode."""
    G = group
    keys = [double_key(g, x) for g in G.names for x in G.names]

    def delta(key: BasisKey) -> TensorSum:
        g, x = key.payload
        return TensorSum.of(
            (double_key(g1, x), double_key(G.mul(G.inv[g1], g), x)) for g1 in G.names
        )

    def counit(key: BasisKey) -> int:
        return 1 if key.payload[0] == G.identity else 0

    coalg = CoalgebraSpec(f"double({len(G.names)})", keys, delta, counit, lambda k: 0)

    def product(k1: BasisKey, k2: BasisKey) -> BasisKey | None:
        g, x = k1.payload
        h, y = k2.payload
        return double_key(g, G.mul(x, y)) if g == G.conj(x, h) else None

    unit = FormalSum(
        {double_key(g, G.identity): 1 for g in G.names}, _clean=True
    )
    alg = AlgebraSpec(f"double({len(G.names)})", product, unit)

    def closed_antipode(key: BasisKey) -> FormalSum:
        g, x = key.payload
        xi = G.inv[x]
        return FormalSum.basis(double_key(G.conj(xi, G.inv[g]), xi))

    return BialgebraSpec(coalg, alg, hooks={"closed_antipode": closed_antipode})


def build_drinfeld_double_dual(group: Group) -> BialgebraSpec:
    """The dual Hopf algebra of the double, with its closed-form antipode."""
    G = group

    def dkey(g, x):
        return BasisKey("ddbl", (g, x))

    keys = [dkey(g, x) for g in G.names for x in G.names]

    def delta(key: BasisKey) -> TensorSum:
        g, x = key.payload
        return TensorSum.of(
            (dkey(g, y), dkey(G.conj(G.inv[y], g), G.mul(G.inv[y], x)))
            for y in G.names
        )

    def counit(key: BasisKey) -> int:
        return 1 if key.payload[1] == G.identity else 0

    coalg = CoalgebraSpec(f"double*({len(G.names)})", keys, delta, counit, lambda k: 0)

    def product(k1: BasisKey, k2: BasisKey) -> BasisKey | None:
        g, x = k1.payload
        h, y = k2.payload
        return dkey(G.mul(g, h), x) if x == y else None

    unit = FormalSum({dkey(G.identity, x): 1 for x in G.names}, _clean=True)
    alg = AlgebraSpec(f"double*({len(G.names)})", product, unit)

    def closed_antipode(key: BasisKey) -> FormalSum:
        # transpose of the double's antipode: conjugate the inverse by x^-1
        g, x = key.payload
        xi = G.inv[x]
        return FormalSum.basis(dkey(G.conj(xi, G.inv[g]), xi))

    return BialgebraSpec(coalg, alg, hooks={"closed_antipode": closed_antipode})


# ---------------------------------------------------------------------------
# Coopposite


def coopposite(C: CoalgebraSpec) -> CoalgebraSpec:
    base = C.name[:-4] if C.name.endswith("^cop") else None
    return CoalgebraSpec(
        base if base is not None else f"{C.name}^cop",
        C.keys,
        lambda k: C.delta(k).flip(),
        C.counit,
        C.grading,
        finite_universe=C.finite_universe,
    )
