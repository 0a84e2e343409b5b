"""Rooted trees with leaf slots and the stump/branches bialgebra.

A tree is the bare line ``|`` (no vertex, one through slot) or a vertex with
an ordered list of children, each child a leaf slot ``.`` or another vertex
tree.  A basis key is a forest of such trees; in symmetric mode children and
forest entries are kept recursively sorted, so the key is the canonical
representative of the isomorphism class, while planar mode preserves order.

The coproduct of a single tree sums over parent-closed vertex subsets: the
selected vertices form the stump (with a leaf slot at every cut and the bare
line for the empty subset), and the right factor collects the cut-off
branches plus one bare line for every original leaf of the stump, in stump
leaf order.  Forests extend multiplicatively.  Enumeration is by labeled
subsets of a canonical representative pushed to class keys, so summands
carry integer multiplicities; plain class-pair deduplication breaks the
product compatibility and is deliberately not offered.

Shapes are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006).  Each mode keeps one table of canonical vertex trees,
keyed by the identities of their children, so a tree is interned bottom-up
from interned children and equal trees are the same tuple.  A raw tree is
canonicalised once, from an explicit stack, with no Python recursion; an
interned tree is never canonicalised again.  Each table entry holds the
tree's vertex and leaf counts and, once asked for, its cut table (stumps
interned, branches in canonical order) and, for a top-level tree, its
literal and its encoding; the encoding is written by one stack walk over
the tree tuple, and subtrees keep no bytes of their own.  Forest keys are
interned by the identities of their trees, so equal forests are one
:class:`BasisKey` and dict lookups keyed by them hit on identity.
``forest_key`` is the family constructor: ``BasisKey("forest", payload)``
and unpickling go through it, so every forest key holds interned trees.
A forest key is built without bytes or literal; ``encoded()`` and the key
order join a fixed prefix with the encodings of its top-level trees on
first use, and rendering joins their literals once and keeps the text on
the key, so a key that nothing orders or prints (such as a coproduct
factor of a deep ladder) costs only its new structure.  It pickles as its
literal, parsed back without recursion.  Products merge, ``strip_lines``
filters and the coproduct reads cut tables into one term dict (a one-tree
forest's table as it is): none of them canonicalises.  Tables only grow
and every insertion is a ``dict.setdefault``, so threads that race on one
shape or forest still share one object; racing threads that fill the same
bytes or literal store equal ones.
The payload of a key is the same nested tuple either way, so encodings,
term order and rendering do not change.

Grammar (also the golden rendering): ``|`` bare line, ``v(...)`` vertex,
``.`` leaf slot, forest entries joined by commas, ``1`` for the empty
forest.  Example: the cherry is ``v(v(.)v(.))``.
"""

from __future__ import annotations

import itertools

from .errors import InputError
from .linear import BasisKey, FormalSum, TensorSum, intern, register_family
from .specs import AlgebraSpec, BialgebraSpec, CoalgebraSpec

LINE = ("|",)
LEAF = (".",)
# deepest vertex nesting a user's literal may have
MAX_TREE_DEPTH = 200
_MODES = ("s", "p")


class _Shape:
    """One interned tree and what is read off it once."""

    __slots__ = ("tree", "mode", "vertices", "leaves", "cuts", "literal", "enc")

    def __init__(self, tree, mode, vertices: int, leaves: int):
        self.tree = tree
        self.mode = mode  # None for the line and the leaf slot: both modes
        self.vertices = vertices
        self.leaves = leaves
        self.cuts = None
        self.literal = None
        self.enc = None


# id(interned tree) -> its _Shape.  The tables keep every interned tree
# alive, so an id here never comes to name another object.
_SHAPES: dict = {}
# mode -> {(id of each child, ...): _Shape}: the hash-consing tables
_NODES: dict = {mode: {} for mode in _MODES}
# (mode, id of each tree, ...) -> the one BasisKey of that forest
_FORESTS: dict = {}

for _tree, _literal_text in ((LINE, "|"), (LEAF, ".")):
    _SHAPES[id(_tree)] = _Shape(_tree, None, 0, 1)
    _SHAPES[id(_tree)].literal = _literal_text
_SHAPES[id(LINE)].cuts = ((LINE, (LINE,)),)


def canonical_tree(tree, mode: str):
    """Recursive reference form of a tree; the test oracle of the tables."""
    if tree == LINE or tree == LEAF:
        return tree
    children = tuple(canonical_tree(c, mode) for c in tree[1:])
    if mode == "s":
        children = tuple(sorted(children))
    return ("v",) + children


def _sorted(trees) -> tuple:
    """Trees in tuple order, which is also the order of their literals."""
    try:
        return tuple(sorted(trees))
    except RecursionError:
        # two deep trees that agree for long: compare literals instead
        return tuple(sorted(trees, key=tree_literal))


def _node(children, mode: str):
    """The interned vertex tree over interned children (sorted in mode s)."""
    if mode == "s" and len(children) > 1:
        children = _sorted(children)
    sig = tuple(map(id, children))
    shape = _NODES[mode].get(sig)
    if shape is None:
        parts = [_SHAPES[i] for i in sig]
        new = _Shape(("v",) + tuple(children), mode,
                     1 + sum(p.vertices for p in parts),
                     sum(p.leaves for p in parts))
        # registered before it is published, withdrawn if another thread won
        _SHAPES[id(new.tree)] = new
        shape = _NODES[mode].setdefault(sig, new)
        if shape is not new:
            del _SHAPES[id(new.tree)]
    return shape.tree


def _interned(tree, mode: str):
    """The interned form of ``tree`` if it needs no walk, else None."""
    shape = _SHAPES.get(id(tree))
    if shape is not None and (shape.mode is None or shape.mode == mode):
        return tree
    if tree == LINE:
        return LINE
    if tree == LEAF:
        return LEAF
    return None


def _canonical(tree, mode: str):
    """The interned canonical form of a raw tree, built bottom-up."""
    got = _interned(tree, mode)
    if got is not None:
        return got
    done: dict = {}  # id(raw subtree) -> its interned form
    stack = [tree]
    while stack:
        node = stack[-1]
        children = []
        waiting = False
        for c in node[1:]:
            got = done.get(id(c)) or _interned(c, mode)
            if got is None:
                stack.append(c)
                waiting = True
            children.append(got)
        if not waiting:
            stack.pop()
            done[id(node)] = _node(children, mode)
    return done[id(tree)]


class _ForestKey(BasisKey):
    """A forest key, interned by its trees and built without bytes or
    literal."""

    __slots__ = ("_lit",)

    def _fill(self) -> bytes:
        payload = self.payload
        self._enc = enc = b"".join((
            b"ks6:forestt%d:s1:%s" % (len(payload), payload[0].encode()),
            *map(_tree_bytes, payload[1:]),
        ))
        return enc

    def __reduce__(self):  # the literal pickles at any depth
        return _literal_forest, (_forest_literal(self), self.payload[0])


def _tree_bytes(tree) -> bytes:
    """A forest entry's encoding (``linear._encode_atom`` of the tree), kept
    on its shape once computed.  One stack walk writes each vertex's tuple
    header and tag; the line and the leaf slot are constant."""
    shape = _SHAPES[id(tree)]
    enc = shape.enc
    if enc is None:
        parts = []
        stack = [tree]
        while stack:
            t = stack.pop()
            if len(t) == 1:
                parts.append(b"t1:s1:." if t[0] == "." else b"t1:s1:|")
            else:
                parts.append(b"t%d:s1:v" % len(t))
                stack.extend(t[:0:-1])
        shape.enc = enc = b"".join(parts)
    return enc


def _forest(mode: str, trees) -> BasisKey:
    """The interned key of interned trees already in canonical order."""
    sig = (mode, *map(id, trees))
    key = _FORESTS.get(sig)
    if key is None:
        key = intern(_FORESTS, sig, "forest", (mode, *trees), _ForestKey, _lit=None)
    return key


def _shape(tree) -> _Shape:
    shape = _SHAPES.get(id(tree))
    return shape if shape is not None else _SHAPES[id(_canonical(tree, "p"))]


def vertices(tree) -> int:
    return _shape(tree).vertices


def leaves(tree) -> int:
    return _shape(tree).leaves


def forest_key(trees, mode: str) -> BasisKey:
    if mode not in _MODES:
        raise InputError(f"mode must be 's' or 'p', got {mode!r}")
    trees = tuple(_canonical(t, mode) for t in trees)
    if mode == "s" and len(trees) > 1:
        trees = _sorted(trees)
    return _forest(mode, trees)


def unit_key(mode: str) -> BasisKey:
    return forest_key((), mode)


def tau(n: int, mode: str = "s") -> BasisKey:
    """The one-vertex tree with n leaf slots, as a single-tree forest."""
    if n < 1:
        raise InputError("corolla trees need at least one leaf")
    return forest_key((("v",) + (LEAF,) * n,), mode)


def ladder(n: int, mode: str = "s") -> BasisKey:
    """The chain of n vertices with a single leaf slot at the bottom."""
    t = ("v", LEAF)
    for _ in range(n - 1):
        t = ("v", t)
    return forest_key((t,), mode)


def line_forest(n: int, mode: str = "s") -> BasisKey:
    return forest_key((LINE,) * n, mode)


# ---------------------------------------------------------------------------
# Literal grammar

def tree_literal(tree) -> str:
    parts = []
    stack = [tree]
    while stack:
        t = stack.pop()
        if len(t) == 1:  # the line, a leaf slot, or the ")" closing a vertex
            parts.append(t[0])
        else:
            parts.append("v(")
            stack.append(")")
            stack.extend(reversed(t[1:]))
    return "".join(parts)


def _top_literal(tree) -> str:
    """A forest entry's literal, kept on its shape once rendered."""
    shape = _SHAPES[id(tree)]
    if shape.literal is None:
        shape.literal = tree_literal(tree)
    return shape.literal


def _forest_literal(key: BasisKey) -> str:
    """A forest key's literal, joined once and kept on the key."""
    lit = key._lit
    if lit is None:
        trees = key.payload[1:]
        key._lit = lit = ",".join(map(_top_literal, trees)) if trees else "1"
    return lit


register_family(
    "forest", _forest_literal, lambda payload: forest_key(payload[1:], payload[0]),
    lambda k: (("grouplike", k.payload.count(LINE)), ("vertex", forest_grading(k))))


def parse_tree(text: str, pos: int = 0):
    """The tree whose literal starts at ``pos``, and the position after it.

    Open vertices wait on an explicit stack, so a literal of any depth
    parses.
    """
    open_children = []  # the children read so far of each open vertex
    while True:
        if pos >= len(text):
            if open_children:
                raise InputError("unbalanced parenthesis in tree literal")
            raise InputError("unexpected end of tree literal")
        ch = text[pos]
        if ch == ")" and open_children:
            children = open_children.pop()
            if not children:
                raise InputError("vertices need at least one child")
            tree, pos = ("v",) + tuple(children), pos + 1
        elif ch == "|":
            tree, pos = LINE, pos + 1
        elif ch == ".":
            tree, pos = LEAF, pos + 1
        elif text.startswith("v(", pos):
            open_children.append([])
            pos += 2
            continue
        else:
            raise InputError(f"unexpected character {ch!r} at position {pos}")
        if not open_children:
            return tree, pos
        if tree == LINE:
            raise InputError("bare line cannot be a child; it is the identity")
        open_children[-1].append(tree)


def parse_forest(text: str, mode: str = "s") -> BasisKey:
    text = text.replace(" ", "")
    depth = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if depth > MAX_TREE_DEPTH:
            raise InputError(f"tree literal nested deeper than {MAX_TREE_DEPTH}")
    return _literal_forest(text, mode)


def _literal_forest(text: str, mode: str) -> BasisKey:
    """The forest key of a literal without spaces, at any depth."""
    if text in ("", "1"):
        return unit_key(mode)
    trees = []
    for part in text.split(","):
        tree, end = parse_tree(part)
        if end != len(part):
            raise InputError(f"trailing characters in tree literal {part!r}")
        if tree == LEAF:
            raise InputError("a forest entry cannot be a bare leaf slot")
        trees.append(tree)
    return forest_key(trees, mode)


# ---------------------------------------------------------------------------
# Coproduct

def _chain(tree):
    """Follow single vertex children down: (the chain below the root, its end)."""
    chain = []
    while len(tree) == 2 and tree[1] is not LEAF:
        tree = tree[1]
        chain.append(tree)
    return chain, tree


def _cut_table(tree):
    """All labeled parent-closed cuts of an interned tree, computed once.

    A tuple of (stump, branches) pairs: the stump interned, the branches in
    stump leaf order (sorted in mode s); the empty selection comes first as
    (LINE, (tree,)).  Tables are filled children first from a stack.  A
    chain of single-child vertices is cut in one pass, so a ladder costs
    time linear in its depth.
    """
    shape = _SHAPES[id(tree)]
    stack = [shape]
    while stack:
        s = stack[-1]
        if s.cuts is not None:
            stack.pop()
            continue
        chain, end = _chain(s.tree)
        below = [end] if chain else [c for c in s.tree[1:] if c is not LEAF]
        missing = [_SHAPES[id(c)] for c in below if _SHAPES[id(c)].cuts is None]
        if missing:
            stack.extend(missing)
            continue
        stack.pop()
        cuts = _chain_cuts(chain, s.mode) if chain else _branch_cuts(s.tree, s.mode)
        s.cuts = ((LINE, (s.tree,)),) + cuts
    return shape.cuts


def _branch_cuts(tree, mode: str) -> tuple:
    """Cuts holding the root: one choice per child, children's tables ready."""
    options = []
    for c in tree[1:]:
        if c is LEAF:
            options.append(((LEAF, (LINE,)),))
        else:
            options.append(((LEAF, (c,)),) + _SHAPES[id(c)].cuts[1:])
    out = []
    for combo in itertools.product(*options):
        branches = tuple(itertools.chain.from_iterable(o[1] for o in combo))
        if mode == "s" and len(branches) > 1:
            branches = _sorted(branches)
        out.append((_node([o[0] for o in combo], mode), branches))
    return tuple(out)


def _chain_cuts(chain, mode: str) -> tuple:
    """Cuts holding the root of a chain: stop above some chain vertex, or
    take the whole chain and extend by a root-holding cut of its end."""
    out = []
    stump = LEAF
    for below in chain:
        stump = _node((stump,), mode)
        out.append((stump, (below,)))
    for end_stump, branches in _SHAPES[id(chain[-1])].cuts[1:]:
        for _ in chain:
            end_stump = _node((end_stump,), mode)
        out.append((end_stump, branches))
    return tuple(out)


def tree_coproduct(key: BasisKey) -> TensorSum:
    """Stump/branches coproduct of a forest key, multiplicities accumulated."""
    mode, *trees = key.payload
    terms: dict = {}
    if len(trees) == 1:  # a cut table's branches come in canonical order
        for stump, branches in _cut_table(trees[0]):
            pair = (_forest(mode, (stump,)), _forest(mode, branches))
            terms[pair] = terms.get(pair, 0) + 1
        return TensorSum(terms, _clean=True)
    for combo in itertools.product(*[_cut_table(t) for t in trees]):
        stumps = [c[0] for c in combo]
        branches = [b for c in combo for b in c[1]]
        if mode == "s":
            stumps, branches = _sorted(stumps), _sorted(branches)
        pair = (_forest(mode, stumps), _forest(mode, branches))
        terms[pair] = terms.get(pair, 0) + 1
    return TensorSum(terms, _clean=True)


def forest_product(k1: BasisKey, k2: BasisKey) -> BasisKey:
    """The forest of both keys' trees: disjoint union, never zero."""
    mode = k1.payload[0]
    trees = k1.payload[1:] + k2.payload[1:]
    if k2.payload[0] != mode:  # trees of the other mode are canonicalised
        return forest_key(trees, mode)
    if mode == "s" and len(trees) > 1:  # merges two sorted runs
        trees = _sorted(trees)
    return _forest(mode, trees)


def forest_counit(key: BasisKey) -> int:
    return 1 if all(t == LINE for t in key.payload[1:]) else 0


def forest_grading(key: BasisKey) -> int:
    return sum(_SHAPES[id(t)].vertices for t in key.payload[1:])


def forest_leaves(key: BasisKey) -> int:
    return sum(_SHAPES[id(t)].leaves for t in key.payload[1:])


# ---------------------------------------------------------------------------
# Enumeration

def _pool(trees):
    """Shapes grouped by (vertices, leaves), fewest vertices first."""
    groups: dict = {}
    for t in trees:
        s = _SHAPES[id(t)]
        groups.setdefault((s.vertices, s.leaves), []).append(t)
    return sorted(groups.items())


def _bounded(pool, max_vertices: int, max_leaves: int, ordered: bool):
    """Every multiset of pool shapes (every sequence if ``ordered``) whose
    vertex and leaf totals fit the budgets.  Only groups are scanned, and
    the scan stops at the first group with too many vertices."""
    out = []
    chosen = []

    def go(first: int, start: int, v_left: int, l_left: int):
        out.append(tuple(chosen))
        for g in range(0 if ordered else first, len(pool)):
            (v, l), shapes = pool[g]
            if v > v_left:
                break
            if l > l_left:
                continue
            for i in range(start if g == first and not ordered else 0, len(shapes)):
                chosen.append(shapes[i])
                go(g, i, v_left - v, l_left - l)
                chosen.pop()

    go(0, 0, max_vertices, max_leaves)
    go = None  # the closure refers to itself: break the cycle, free it now
    return out


def all_trees(max_vertices: int, max_leaves: int, mode: str):
    """All interned tree shapes (including the bare line) within the bounds.

    A vertex tree is a vertex over a nonempty multiset (sequence in planar
    mode) of leaf slots and smaller trees, so each round builds every tree
    of at most n vertices from the trees of the round before.
    """
    if mode not in _MODES:
        raise InputError(f"mode must be 's' or 'p', got {mode!r}")
    trees: list = []
    for n in range(1, max_vertices + 1):
        pool = _pool([LEAF] + trees)
        trees = [_node(children, mode)
                 for children in _bounded(pool, n - 1, max_leaves, mode == "p")
                 if children]
    return [LINE] + trees


def all_forest_keys(max_vertices: int, max_leaves: int, mode: str):
    pool = _pool(all_trees(max_vertices, max_leaves, mode))
    forests = _bounded(pool, max_vertices, max_leaves, mode == "p")
    if mode == "s":
        forests = [_sorted(f) if len(f) > 1 else f for f in forests]
    return sorted(_forest(mode, f) for f in forests)


# ---------------------------------------------------------------------------
# The bialgebra

def strip_lines(key: BasisKey):
    """Remove bare-line factors; returns (reduced key, {'q': count})."""
    payload = key.payload
    count = payload.count(LINE)
    if not count:
        return key, {}
    if payload[0] == "s":  # the line sorts after every vertex tree
        kept = payload[1:-count]
    else:
        kept = tuple(t for t in payload[1:] if t is not LINE)
    return _forest(payload[0], kept), {"q": count}


def forest_factors(key: BasisKey):
    """The single-tree keys of a forest of two or more trees, in the
    forest's order; None for the unit and a single tree.  Their product is
    the key."""
    mode, *trees = key.payload
    if len(trees) < 2:
        return None
    return tuple([_forest(mode, (t,)) for t in trees])


def build_tree_bialgebra(max_vertices: int, max_leaves: int | None = None,
                         mode: str = "s") -> BialgebraSpec:
    """The forest bialgebra truncated to the given vertex and leaf budgets.

    The leaf budget keeps one-vertex corollas finitely enumerable; the
    coproduct never leaves the truncation, so the universe is an honest
    subcoalgebra.
    """
    if max_leaves is None:
        max_leaves = max_vertices
    keys = all_forest_keys(max_vertices, max_leaves, mode)
    coalg = CoalgebraSpec(
        f"trees({mode},{max_vertices}v,{max_leaves}l)",
        keys,
        tree_coproduct,
        forest_counit,
        forest_grading,
    )
    alg = AlgebraSpec(coalg.name, forest_product, FormalSum.basis(unit_key(mode)))

    def commutator_sort(key: BasisKey) -> BasisKey:
        return _forest(mode, _sorted(key.payload[1:])) if mode == "p" else key

    def central_sort(key: BasisKey) -> BasisKey:
        if mode == "s":
            return key
        trees = key.payload[1:]
        kept = tuple(t for t in trees if t is not LINE)
        return _forest(mode, kept + (LINE,) * (len(trees) - len(kept)))

    hooks = {
        "graded_filtration": True,
        "strip_grouplikes": strip_lines,
        "commutator_sort": commutator_sort,
        "central_sort": central_sort,
        "generator_weights": {"q": 1},
        "factors": forest_factors,
    }
    return BialgebraSpec(coalg, alg, hooks)
