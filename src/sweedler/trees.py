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

Grammar (also the golden rendering): ``|`` bare line, ``v(...)`` vertex,
``.`` leaf slot, forest entries joined by commas, ``1`` for the empty
forest.  Example: the cherry is ``v(v(.)v(.))``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .errors import InputError
from .linear import BasisKey, FormalSum, TensorSum, register_literal
from .specs import AlgebraSpec, BialgebraSpec, CoalgebraSpec

LINE = ("|",)
LEAF = (".",)
# deepest vertex nesting a literal may have; deeper trees would exhaust the
# Python stack in the recursive parser, canonical form and rendering
MAX_TREE_DEPTH = 200


def vertices(tree) -> int:
    if tree == LINE:
        return 0
    return 1 + sum(vertices(c) for c in tree[1:] if c != LEAF)


def leaves(tree) -> int:
    if tree == LINE:
        return 1
    return sum(1 if c == LEAF else leaves(c) for c in tree[1:])


def canonical_tree(tree, mode: str):
    if tree == LINE or tree == LEAF:
        return tree
    children = tuple(canonical_tree(c, mode) for c in tree[1:])
    if mode == "s":
        children = tuple(sorted(children))
    return ("v",) + children


def forest_key(trees, mode: str) -> BasisKey:
    if mode not in ("s", "p"):
        raise InputError(f"mode must be 's' or 'p', got {mode!r}")
    try:
        trees = tuple(canonical_tree(t, mode) for t in trees)
        if mode == "s":
            trees = tuple(sorted(trees))
    except RecursionError:
        raise InputError("tree nested too deep to canonicalise") from None
    return BasisKey("forest", (mode,) + trees)


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
    if tree == LINE:
        return "|"
    if tree == LEAF:
        return "."
    return "v(" + "".join(tree_literal(c) for c in tree[1:]) + ")"


def _forest_literal(key: BasisKey) -> str:
    trees = key.payload[1:]
    if not trees:
        return "1"
    return ",".join(tree_literal(t) for t in trees)


register_literal("forest", _forest_literal)


def parse_tree(text: str, pos: int = 0):
    if pos >= len(text):
        raise InputError("unexpected end of tree literal")
    ch = text[pos]
    if ch == "|":
        return LINE, pos + 1
    if ch == ".":
        return LEAF, pos + 1
    if text.startswith("v(", pos):
        pos += 2
        children = []
        while pos < len(text) and text[pos] != ")":
            child, pos = parse_tree(text, pos)
            if child == LINE:
                raise InputError("bare line cannot be a child; it is the identity")
            children.append(child)
        if pos >= len(text):
            raise InputError("unbalanced parenthesis in tree literal")
        if not children:
            raise InputError("vertices need at least one child")
        return ("v",) + tuple(children), pos + 1
    raise InputError(f"unexpected character {ch!r} at position {pos}")


def parse_forest(text: str, mode: str = "s") -> BasisKey:
    text = text.replace(" ", "")
    if text in ("", "1"):
        return unit_key(mode)
    depth = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        if depth > MAX_TREE_DEPTH:
            raise InputError(f"tree literal nested deeper than {MAX_TREE_DEPTH}")
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

@lru_cache(maxsize=None)
def _tree_cuts(tree):
    """All labeled parent-closed cuts of a single tree.

    Returns a tuple of (stump, branches) pairs, branches in stump leaf
    order; the empty selection contributes (LINE, (tree,)).
    """
    out = [(LINE, (tree,))]
    if tree != LINE:
        out.extend(_cuts_with_root(tree))
    return tuple(out)


def _cuts_with_root(tree):
    """Cuts whose selected set contains the root of ``tree`` (a vertex tree)."""
    per_child = []
    for child in tree[1:]:
        options = []
        if child == LEAF:
            options.append((LEAF, (LINE,)))
        else:
            options.append((LEAF, (child,)))
            options.extend(_cuts_with_root(child))
        per_child.append(options)
    out = []
    for combo in itertools.product(*per_child):
        stump = ("v",) + tuple(c[0] for c in combo)
        branches = tuple(itertools.chain.from_iterable(c[1] for c in combo))
        out.append((stump, branches))
    return out


def tree_coproduct(key: BasisKey) -> TensorSum:
    """Stump/branches coproduct of a forest key, multiplicities accumulated."""
    mode = key.payload[0]
    trees = key.payload[1:]
    per_tree = [_tree_cuts(t) for t in trees]
    terms = []
    for combo in itertools.product(*per_tree):
        stumps = tuple(c[0] for c in combo)
        branches = tuple(itertools.chain.from_iterable(c[1] for c in combo))
        terms.append((forest_key(stumps, mode), forest_key(branches, mode)))
    return TensorSum.of(terms)


def forest_product(k1: BasisKey, k2: BasisKey) -> FormalSum:
    mode = k1.payload[0]
    return FormalSum.basis(forest_key(k1.payload[1:] + k2.payload[1:], mode))


def forest_counit(key: BasisKey) -> Fraction:
    return Fraction(1) if all(t == LINE for t in key.payload[1:]) else Fraction(0)


def forest_grading(key: BasisKey) -> int:
    return sum(vertices(t) for t in key.payload[1:])


def forest_leaves(key: BasisKey) -> int:
    return sum(leaves(t) for t in key.payload[1:])


# ---------------------------------------------------------------------------
# Enumeration

@lru_cache(maxsize=None)
def _node_trees_exact(v: int, l: int, mode: str):
    """All canonical vertex trees with exactly v vertices and l leaves."""
    if v < 1 or l < 1:
        return ()
    seen = set()
    for children in _child_seqs(v - 1, l, mode):
        if children:
            seen.add(canonical_tree(("v",) + children, mode))
    return tuple(sorted(seen))


@lru_cache(maxsize=None)
def _child_seqs(v: int, l: int, mode: str):
    """Ordered child tuples (leaf slots and vertex trees) with exact totals."""
    if v == 0 and l == 0:
        return ((),)
    out = []
    if l >= 1:
        for rest in _child_seqs(v, l - 1, mode):
            out.append((LEAF,) + rest)
    for v1 in range(1, v + 1):
        for l1 in range(1, l + 1):
            for t in _node_trees_exact(v1, l1, mode):
                for rest in _child_seqs(v - v1, l - l1, mode):
                    out.append((t,) + rest)
    return tuple(out)


def all_trees(max_vertices: int, max_leaves: int, mode: str):
    """All tree shapes (including the bare line) within the bounds."""
    out = [LINE]
    for v in range(1, max_vertices + 1):
        for l in range(1, max_leaves + 1):
            out.extend(_node_trees_exact(v, l, mode))
    return out


def all_forest_keys(max_vertices: int, max_leaves: int, mode: str):
    trees = all_trees(max_vertices, max_leaves, mode)
    weights = [(vertices(t), leaves(t)) for t in trees]
    keys = set()

    def go(start: int, chosen, v_left: int, l_left: int):
        keys.add(forest_key(tuple(chosen), mode))
        for j in range(start, len(trees)):
            v, l = weights[j]
            if v <= v_left and l <= l_left:
                chosen.append(trees[j])
                # multisets for classes, arbitrary order for planar forests
                go(j if mode == "s" else 0, chosen, v_left - v, l_left - l)
                chosen.pop()

    go(0, [], max_vertices, max_leaves)
    return sorted(keys)


# ---------------------------------------------------------------------------
# The bialgebra

def strip_lines(key: BasisKey):
    """Remove bare-line factors; returns (reduced key, {'q': count})."""
    mode = key.payload[0]
    kept = tuple(t for t in key.payload[1:] if t != LINE)
    count = len(key.payload) - 1 - len(kept)
    return forest_key(kept, mode), ({"q": count} if count else {})


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
        return forest_key(sorted(key.payload[1:]), mode) if mode == "p" else key

    def central_sort(key: BasisKey) -> BasisKey:
        if mode == "s":
            return key
        trees = key.payload[1:]
        kept = tuple(t for t in trees if t != LINE)
        n = len(trees) - len(kept)
        return forest_key(kept + (LINE,) * n, mode)

    hooks = {
        "graded_filtration": True,
        "strip_grouplikes": strip_lines,
        "grouplike_key": lambda exps: line_forest(exps.get("q", 0), mode),
        "commutator_sort": commutator_sort,
        "central_sort": central_sort,
        "generator_weights": {"q": 1},
    }
    return BialgebraSpec(coalg, alg, hooks)
