"""Aggregates of corollas, contraction morphisms, and the graph bialgebra.

A morphism out of an aggregate of flag-labeled corollas is recorded by its
ghost structure: one ghost edge per contracted flag pair (an edge between
two corollas, or a loop on one) plus a partition of the corollas into target
groups.  Corolla flags are an unstructured set, so the isomorphism class of
a morphism is exactly: the multigraph of ghost edges on size-attributed
corollas together with the partition.  Class keys store the lexicographically
minimal relabeling; minimization runs over attribute-preserving permutations
only, which is sound because attributes are isomorphism-invariant (and the
test suite cross-checks against the all-permutations brute force).  Two
corollas whose swap is an automorphism (twins: equal edge multiplicities to
every other corolla, and one shared group or two singleton groups) give
equal relabelings, so the search enumerates only the distinct orders of
each attribute cell's twin classes; the tests keep the full search as the
oracle.

The input checks run at the boundary only: ``graph_class_key`` checks a
labelled input that ``_INTERNED`` does not hold yet, and
``BasisKey("graph", payload)``, copies, unpickling and documents go through
it.  Inputs that fail a check raise every time and are never memoised.  The
module's own callers build their inputs from classes or by enumeration
(coproduct factors, products, stripped keys, the universe), so they skip
the checks.  An input is relabelled by a stable sort of the attributes.
``_INTERNED`` is the only table graph keys live in: it maps each canonical
payload, and each labelled input met outside a product and the universe
enumeration, to the key of its class.  A product's disjoint union is not
kept there, because the spec's product memo already holds the pair.  A
relabelling is an isomorph, so when the sorted one is a key of
``_INTERNED`` it names the class.  Otherwise, when no two corollas share an
attribute, the sorted relabelling is the canonical payload; only the rest
are searched.  The universe enumeration makes only labellings that are
already sorted, so it skips the sort and keeps none of them.  Equal classes
are the same ``BasisKey`` object.
A universe key gets its bytes from ``_graph_bytes`` before the universe
is sorted; any other graph key carries none until ``encoded()`` or the key
order first asks, so product and factor classes that nothing sorts are
never encoded.

In connected mode every target group must be connected by its ghost edges
(mergers are forbidden) and the partition is forced to the edge components;
in non-connected mode target groups may merge disconnected pieces.

The coproduct's target groups, chosen edges and residues do not depend on
the flag sizes: they are computed once per skeleton (corolla count, edges,
groups, mode) into a cut table shared by every class with that skeleton
(hash-consing, Filliâtre & Conchon 2006).  A row that takes j_e of the m_e
parallel copies of each edge e stands for the product of the C(m_e, j_e)
edge subsets that all give its term, and carries that product as its
coefficient.  Connected mode walks the distinct edges' supports, whose
components are the target groups; non-connected mode takes the target
groups first, every refinement of the morphism's groups, and then the
sub-multisets of the edges inside them.  Either way each row walked is a
row kept.  A key's coproduct walks the rows, adds up its target sizes,
looks up both factor classes and adds the coefficient into one term dict.
``_CUTS`` is filled with ``dict.setdefault``, so racing threads agree on
one table.

``graph_coproduct`` and ``strip_identity_corollas`` cache nothing: the
universe closure fills the coproduct memo the spec then owns, and the strip
hook's callers (quotients, deformations, characters) memoise its results.

Class literal: ``g(sizes|edges|groups)``, e.g. a single edge contraction
between two 2-flag corollas is ``g(2,2|0-1|0.1)``; the empty aggregate
renders as ``1``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .errors import InputError, json_array
from .linear import BasisKey, FormalSum, TensorSum, intern, register_family
from .specs import AlgebraSpec, BialgebraSpec, CoalgebraSpec, ValidationReport, _Memo


# ---------------------------------------------------------------------------
# Class keys

def _components(n: int, edges) -> list:
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
    comps: dict = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return [tuple(sorted(c)) for c in comps.values()]


def _twin_classes(cell, mult, block_id, single: bool) -> list:
    """Split an attribute cell into twin classes, each in its original order.
    ``single``: the cell's corollas sit in singleton groups.  Twinhood is an
    equivalence, so a corolla is compared with one member of each class."""
    classes: list = []
    for i in cell:
        row = mult[i]
        for cls in classes:
            j = cls[0]
            other = mult[j]
            if (single or block_id[i] == block_id[j]) and all(
                row[k] == other[k] for k in range(len(row)) if k != i and k != j
            ):
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


def _cell_orders(classes) -> list:
    """Every distinct sequence of a cell's twin classes, as corolla orders.

    The sequences are the permutations of a multiset of class labels, listed
    directly in lexicographic order (Knuth's Algorithm L), so a cell of k
    corollas costs k!/(m1!...mr!) orders for class sizes m1..mr, and one
    when all are twins.  Each class's corollas keep their original order.
    """
    if len(classes) == 1:
        return [classes[0]]
    labels = [c for c, cls in enumerate(classes) for _ in cls]
    orders = []
    while True:
        members = [iter(cls) for cls in classes]
        orders.append([next(members[c]) for c in labels])
        i = len(labels) - 2
        while i >= 0 and labels[i] >= labels[i + 1]:
            i -= 1
        if i < 0:
            return orders
        j = len(labels) - 1
        while labels[j] <= labels[i]:
            j -= 1
        labels[i], labels[j] = labels[j], labels[i]
        labels[i + 1:] = labels[:i:-1]


def _check(labelled: tuple) -> None:
    """Raise ``InputError`` unless a labelled input ``(mode, sizes, edges,
    blocks)`` is a morphism: edges in range, no corolla using more flags
    than it has (a loop uses two), groups that partition the corollas with
    no edge between two of them, and in connected mode groups that are the
    edge components."""
    mode, sizes, edges, blocks = labelled
    n = len(sizes)
    used = [0] * n
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise InputError(f"edge ({a},{b}) out of range")
        used[a] += 1
        used[b] += 1
    for i in range(n):
        if used[i] > sizes[i]:
            raise InputError(f"corolla {i} has {sizes[i]} flags, {used[i]} used")
    block_of = [None] * n
    for bi, blk in enumerate(blocks):
        for c in blk:
            if not 0 <= c < n:
                raise InputError("target groups must partition the corollas")
            if block_of[c] is not None:
                raise InputError("target groups overlap")
            block_of[c] = bi
    if None in block_of:
        raise InputError("target groups must partition the corollas")
    for a, b in edges:
        if block_of[a] != block_of[b]:
            raise InputError(f"ghost edge ({a},{b}) crosses target groups")
    if mode == "c" and sorted(_components(n, edges)) != sorted(
        tuple(sorted(blk)) for blk in blocks
    ):
        raise InputError("connected mode: target groups must be edge components")


def _sort(sizes, edges, blocks):
    """Relabel a morphism by a stable sort of its corollas' attributes
    (size, loops, degree, group size): the relabelled payload and the
    attributes in the new order.  Attributes are isomorphism-invariant, so
    every canonical payload is sorted this way.  Flags used (degree plus
    twice the loops) stand in for degree: loops compare first, so the order
    and the cells are the same."""
    n = len(sizes)
    loops = [0] * n
    used = [0] * n
    for a, b in edges:
        used[a] += 1
        used[b] += 1
        if a == b:
            loops[a] += 1
    group = [0] * n
    for blk in blocks:
        for c in blk:
            group[c] = len(blk)
    attrs = [(sizes[i], loops[i], used[i], group[i]) for i in range(n)]
    order = sorted(range(n), key=attrs.__getitem__)
    perm = [0] * n
    for new, old in enumerate(order):
        perm[old] = new
    new_edges = []
    for a, b in edges:
        a, b = perm[a], perm[b]
        new_edges.append((a, b) if a <= b else (b, a))
    new_edges.sort()
    return (
        tuple([sizes[i] for i in order]),
        tuple(new_edges),
        tuple(sorted([tuple(sorted(map(perm.__getitem__, blk))) for blk in blocks])),
    ), [attrs[i] for i in order]


def _canonical(sizes, edges, blocks, attrs=None):
    """The least relabelling among those that sort the corollas by attribute,
    one per twin-class sequence (McKay & Piperno 2014 prune with
    automorphisms; twin swaps are the simplest).  When every attribute cell
    holds one corolla the sorted relabelling is the only candidate, and it
    comes back unsearched.  A candidate whose edges already lose is dropped
    before its groups sort.  ``attrs`` comes with an input ``_sort``
    returned; any other input is sorted first."""
    if attrs is None:
        (sizes, edges, blocks), attrs = _sort(sizes, edges, blocks)
    n = len(sizes)
    if len(set(attrs)) == n:
        return sizes, edges, blocks
    mult = [[0] * n for _ in range(n)]
    for a, b in edges:
        if a != b:
            mult[a][b] += 1
            mult[b][a] += 1
    block_id = [0] * n
    for bi, blk in enumerate(blocks):
        for c in blk:
            block_id[c] = bi
    perm = [0] * n
    best_edges = best_blocks = None
    for arrangement in itertools.product(*(
        _cell_orders(_twin_classes(list(cell), mult, block_id, attr[3] == 1))
        for attr, cell in itertools.groupby(range(n), attrs.__getitem__)
    )):
        new = 0
        for order in arrangement:
            for old in order:
                perm[old] = new
                new += 1
        cand = tuple(sorted(
            (min(perm[a], perm[b]), max(perm[a], perm[b])) for a, b in edges
        ))
        if best_edges is not None and cand > best_edges:
            continue
        cand_blocks = tuple(sorted(
            tuple(sorted(perm[c] for c in blk)) for blk in blocks
        ))
        if best_edges is None or cand < best_edges or cand_blocks < best_blocks:
            best_edges, best_blocks = cand, cand_blocks
    return sizes, best_edges, best_blocks


def graph_class_key(sizes, edges, blocks, mode: str) -> BasisKey:
    """Canonical class of a morphism given by sizes, ghost edges, groups.

    Equal classes come back as the same interned object.  An input not yet
    in the intern table is checked first, and one that fails raises
    ``InputError`` every time.
    """
    if mode not in ("c", "n"):
        raise InputError(f"graph mode must be 'c' or 'n', got {mode!r}")
    labelled = (mode, tuple(sizes), tuple(map(tuple, edges)), tuple(map(tuple, blocks)))
    if labelled not in _INTERNED:
        _check(labelled)
    return _class_key(labelled)


# (mode, sizes, edges, blocks) -> the one graph key of that class: every
# canonical payload, and every labelled input met by ``_class_key`` (the
# universe enumeration and products go to ``_class_of`` and store none).
_INTERNED: dict = {}


def _class_key(labelled: tuple) -> BasisKey:
    """The class of a valid labelled input ``(mode, sizes, edges, blocks)``,
    kept in ``_INTERNED`` beside the canonical payloads, which is sound
    because it is an isomorph of its class.  Nothing here checks the input:
    ``graph_class_key`` does, and the module's own callers pass morphisms
    built from classes (coproduct factors and stripped keys)."""
    key = _INTERNED.get(labelled)
    if key is None:
        key = _INTERNED.setdefault(labelled, _class_of(labelled))
    return key


def _class_of(labelled: tuple, attrs=None) -> BasisKey:
    """The class of a valid labelled input, which is not stored: only a new
    class's payload is.  The sorted relabelling is looked up, and searched
    from only when no class has it as its payload; ``intern`` publishes a
    new class with ``dict.setdefault``, so threads that race on one class
    share one key.  ``attrs`` comes with an input already in ``_sort``'s
    order; any other input is sorted first."""
    mode = labelled[0]
    relabelled = labelled[1:]
    if attrs is None:
        relabelled, attrs = _sort(*relabelled)
    key = _INTERNED.get((mode,) + relabelled)
    if key is None:
        payload = (mode,) + _canonical(*relabelled, attrs)
        key = intern(_INTERNED, payload, "graph", payload)
    return key


def identity_class(sizes, mode: str) -> BasisKey:
    return graph_class_key(sizes, (), [(i,) for i in range(len(sizes))], mode)


def graph_unit_key(mode: str) -> BasisKey:
    return identity_class((), mode)


def _graph_literal(key: BasisKey) -> str:
    mode, sizes, edges, blocks = key.payload
    if not sizes:
        return "1"
    s = ",".join(str(x) for x in sizes)
    e = ",".join(f"{a}-{b}" for a, b in edges)
    g = ",".join(
        ".".join(str(c) for c in blk) for blk in blocks if len(blk) > 1
    )
    return f"g({s}|{e}|{g})"


# ---------------------------------------------------------------------------
# Degrees

@dataclass(frozen=True)
class DegreeTriple:
    word_drop: int     # corolla count minus target group count
    edge_count: int
    weight: int        # sum of the two


def degree_of(key: BasisKey) -> DegreeTriple:
    _, sizes, edges, blocks = key.payload
    drop = len(sizes) - len(blocks)
    return DegreeTriple(drop, len(edges), drop + len(edges))


def _rule_counts(key: BasisKey) -> tuple:
    """A graph key's identity corollas (untouched singleton groups), non-loop
    edges, loops and mergers (corollas minus groups), for characters."""
    _, sizes, edges, blocks = key.payload
    touched = {c for e in edges for c in e}
    loops = sum(1 for a, b in edges if a == b)
    idents = sum(1 for blk in blocks if len(blk) == 1 and blk[0] not in touched)
    return (("grouplike", idents), ("edge", len(edges) - loops), ("loop", loops),
            ("merger", len(sizes) - len(blocks)))


def _graph_bytes(payload) -> bytes:
    """``b"k" + linear._encode_atom("graph", payload)``, written in one pass
    over the four fields of ``(mode, sizes, edges, blocks)``: each int as
    ``i<digits>:<int>`` and each tuple as ``t<length>:`` before its items."""
    mode, sizes, edges, blocks = payload
    parts = [f"ks5:grapht4:s{len(mode)}:{mode}t{len(sizes)}:"]
    for s in map(str, sizes):
        parts.append(f"i{len(s)}:{s}")
    parts.append(f"t{len(edges)}:")
    for a, b in edges:
        a, b = str(a), str(b)
        parts.append(f"t2:i{len(a)}:{a}i{len(b)}:{b}")
    parts.append(f"t{len(blocks)}:")
    for blk in blocks:
        parts.append(f"t{len(blk)}:")
        for c in map(str, blk):
            parts.append(f"i{len(c)}:{c}")
    return "".join(parts).encode()


register_family("graph", _graph_literal,
                lambda payload: graph_class_key(*payload[1:], payload[0]), _rule_counts)


# ---------------------------------------------------------------------------
# Coproduct

def _set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


# (corolla count, edges, blocks, mode) -> that skeleton's cut table; each
# row part is also a key here, mapped to its one shared copy (a skeleton
# ends in the mode string and no part holds a string, so they never meet).
_CUTS: dict = {}


def _cut_table(n: int, edges, blocks, mode: str) -> tuple:
    """The size-free part of the coproduct of every key with this skeleton.

    Each row takes j of the m parallel copies of every edge and stands for
    the C(m, j) edge subsets that give its term.  Connected mode walks the
    supports (which distinct edges have j >= 1); their components are the
    left groups.  Non-connected mode walks the partitions G that refine the
    groups, then every sub-multiset of the edges inside G's parts.  A row
    holds the chosen edges, the sorted left groups, the flags each group's
    chosen edges contract, the residue edges and groups on the left factor's
    target corollas, and the coefficient.  Residue edges are sorted, each
    pair and then the multiset, so residues that are one multigraph are one
    labelled input.
    """
    skeleton = (n, edges, blocks, mode)
    table = _CUTS.get(skeleton)
    if table is not None:
        return table
    distinct = [(e, len(list(run))) for e, run in itertools.groupby(edges)]
    if mode == "c":
        cuts = ((_components(n, [e for (e, _), t in zip(distinct, on) if t]), on)
                for on in itertools.product((0, 1), repeat=len(distinct)))
    else:
        cuts = (([grp for part in combo for grp in part], None)
                for combo in itertools.product(*map(_set_partitions, blocks)))
    rows = []
    for groups, on in cuts:
        groups = tuple(sorted(tuple(sorted(grp)) for grp in groups))
        tgt_index = [0] * n
        for gi, grp in enumerate(groups):
            for c in grp:
                tgt_index[c] = gi
        res_groups = tuple(tuple(sorted({tgt_index[c] for c in blk})) for blk in blocks)
        # per distinct edge: j chosen copies, m - j residue copies, C(m, j)
        options = []
        for i, (e, m) in enumerate(distinct):
            ga, gb = sorted((tgt_index[e[0]], tgt_index[e[1]]))
            js = range(m + 1 if ga == gb else 1) if on is None else range(on[i], on[i] * m + 1)
            options.append([((e,) * j, ((ga, gb),) * (m - j), math.comb(m, j)) for j in js])
        for picks in itertools.product(*options):
            chosen = res_edges = ()
            coef = 1
            for took, rest, ways in picks:
                chosen += took
                res_edges += rest
                coef *= ways
            drops = [0] * len(groups)
            for a, _ in chosen:
                drops[tgt_index[a]] += 2
            row = (chosen, groups, tuple(drops), tuple(sorted(res_edges)), res_groups)
            rows.append(tuple(_CUTS.setdefault(part, part) for part in row) + (coef,))
    return _CUTS.setdefault(skeleton, tuple(rows))


def graph_coproduct(key: BasisKey) -> TensorSum:
    """Sum over ghost-edge subsets (and group refinements) of subgraph (x) residue.

    The left factor keeps all corollas with the chosen edges; its groups are
    the edge components (connected mode) or any coarsening inside the
    morphism's groups (non-connected mode, which distributes mergers).  The
    right factor lives on the left factor's target corollas and carries the
    remaining edges and the residual grouping.  A target corolla has the
    flags of its group less the two each chosen edge inside it contracts.
    """
    mode, sizes, edges, blocks = key.payload
    terms: dict = {}
    for chosen, groups, drops, res_edges, res_groups, coef in _cut_table(
        len(sizes), edges, blocks, mode
    ):
        tgt_sizes = []
        for grp, drop in zip(groups, drops):
            total = -drop
            for c in grp:
                total += sizes[c]
            tgt_sizes.append(total)
        left = (mode, sizes, chosen, groups)
        right = (mode, tuple(tgt_sizes), res_edges, res_groups)
        pair = (_class_key(left), _class_key(right))
        terms[pair] = terms.get(pair, 0) + coef
    return TensorSum(terms, _clean=True)


def graph_product(k1: BasisKey, k2: BasisKey) -> BasisKey:
    """The class of the disjoint union of both graphs: never zero.  The
    union of two classes needs no check, and it is not kept in the intern
    table: the product memo of the spec already holds the pair."""
    mode, s1, e1, b1 = k1.payload
    _, s2, e2, b2 = k2.payload
    off = len(s1)
    sizes = s1 + s2
    edges = list(e1) + [(a + off, b + off) for a, b in e2]
    blocks = list(b1) + [tuple(c + off for c in blk) for blk in b2]
    return _class_of((mode, sizes, edges, blocks))


def graph_counit(key: BasisKey) -> int:
    _, sizes, edges, blocks = key.payload
    ok = not edges and all(len(b) == 1 for b in blocks)
    return 1 if ok else 0


def graph_grading(key: BasisKey) -> int:
    return degree_of(key).weight


# ---------------------------------------------------------------------------
# Universe enumeration

def _fitting_edges(sizes, max_edges: int):
    """Each multiset of at most ``max_edges`` ghost edges on corollas of
    these sizes whose flags fit every corolla (an edge takes one flag at
    each end, a loop two), with the corolla attributes (size, loops, flags
    used), when those attributes are nondecreasing.  The order is
    ``itertools.combinations_with_replacement``'s, edge count first: the
    multisets with one more edge extend those that fit by a pair no smaller
    than their last, so none that overflows a corolla is made."""
    n = len(sizes)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    level = [((), 0, [0] * n, [0] * n)]  # edges, first pair to add, loops, used
    while level:
        longer = []
        for edges, first, loops, used in level:
            attrs = list(zip(sizes, loops, used))
            if attrs == sorted(attrs):
                yield edges, attrs
            if len(edges) == max_edges:
                continue
            for p in range(first, len(pairs)):
                a, b = pair = pairs[p]
                if used[a] + (a == b) < sizes[a] and used[b] < sizes[b]:
                    grown, looped = used.copy(), loops
                    grown[a] += 1
                    grown[b] += 1
                    if a == b:
                        looped = loops.copy()
                        looped[a] += 1
                    longer.append((edges + (pair,), p, looped, grown))
        level = longer


def _graph_universe(max_corollas: int, max_edges: int, max_flags: int, mode: str):
    """The sorted classes within the budgets, closed under coproduct factors,
    and the coproduct memo the closure filled: one entry per class.

    The enumeration is orderly (Read 1978; McKay 1998): it keeps only the
    labellings whose corolla attributes (size, loops, flags used, group
    size) are already nondecreasing.  ``_fitting_edges`` makes only the
    edge multisets that fit the flags and tests the first three; the group
    size is tested for each grouping.  Every class has one, its sorted
    relabelling: that has nondecreasing sizes, a sorted edge multiset and
    groups made of edge components.  A kept labelling is what ``_sort``
    returns for it, so it goes to ``_class_of`` with its attributes and is
    not stored.

    Residue factors merge corollas, so their targets can exceed the flag
    budget; the closure pass adds those keys (mostly identity aggregates) to
    keep the enumerated universe an honest subcoalgebra.  Every key gets its
    bytes from ``_graph_bytes`` before the final sort.
    """
    keys = set()
    for n in range(max_corollas + 1):
        for sizes in itertools.combinations_with_replacement(
            range(max_flags + 1), n
        ):
            for edges, attrs in _fitting_edges(sizes, max_edges):
                comps = _components(n, edges)
                parts = [[[comp] for comp in comps]] if mode == "c" else _set_partitions(comps)
                for part in parts:
                    blocks = tuple(sorted(
                        tuple(sorted(itertools.chain(*cell))) for cell in part))
                    group = {c: len(blk) for blk in blocks for c in blk}
                    full = [attrs[i] + (group[i],) for i in range(n)]
                    if full == sorted(full):
                        keys.add(_class_of((mode, sizes, edges, blocks), full))
    delta = _Memo(graph_coproduct)
    frontier = list(keys)
    while frontier:
        new = []
        for k in frontier:
            for (a, b), _ in delta[k]:
                for f in (a, b):
                    if f not in keys:
                        keys.add(f)
                        new.append(f)
        frontier = new
    for k in keys:
        if k._enc is None:
            k._enc = _graph_bytes(k.payload)
    return sorted(keys), delta


def all_graph_classes(max_corollas: int, max_edges: int, max_flags: int, mode: str):
    """All classes within the budgets, closed under coproduct factors."""
    return _graph_universe(max_corollas, max_edges, max_flags, mode)[0]


# ---------------------------------------------------------------------------
# Labeled morphisms (documents, generators, relation checks)

@dataclass
class GraphMorphism:
    """A labeled aggregate morphism: named corollas, ghost edges, groups."""

    corollas: list          # (name, list of flag names)
    edges: list             # ((corolla index, flag), (corolla index, flag))
    merge_pairs: list       # (corolla index, corolla index)

    def flag_owner(self, flag: str) -> tuple:
        for ci, (_, flags) in enumerate(self.corollas):
            if flag in flags:
                return ci, flag
        raise InputError(f"unknown flag {flag!r}")

    def check(self) -> None:
        names = [n for n, _ in self.corollas]
        if len(set(names)) != len(names):
            raise InputError("duplicate corolla names")
        all_flags: list = []
        for _, flags in self.corollas:
            if len(set(flags)) != len(flags):
                raise InputError("duplicate flag within a corolla")
            all_flags.extend(flags)
        if len(set(all_flags)) != len(all_flags):
            raise InputError("flag names must be globally unique")
        seen = set()
        for (ci, fi), (cj, fj) in self.edges:
            for c, f in ((ci, fi), (cj, fj)):
                if f not in self.corollas[c][1]:
                    raise InputError(f"flag {f!r} not on corolla {c}")
                if f in seen:
                    raise InputError(f"flag {f!r} used by two ghost edges")
                seen.add(f)

    def blocks(self) -> list:
        n = len(self.corollas)
        pairs = [(a[0], b[0]) for a, b in self.edges] + list(self.merge_pairs)
        return _components(n, pairs)

    def class_key(self, mode: str) -> BasisKey:
        self.check()
        sizes = [len(flags) for _, flags in self.corollas]
        edges = [(a[0], b[0]) for a, b in self.edges]
        if mode == "c" and self.merge_pairs:
            raise InputError("connected mode forbids mergers")
        return graph_class_key(sizes, edges, self.blocks(), mode)

    # generator application (composition at the target level)

    def contract(self, flag_a: str, flag_b: str) -> "GraphMorphism":
        ca, fa = self.flag_owner(flag_a)
        cb, fb = self.flag_owner(flag_b)
        if fa == fb:
            raise InputError("a ghost edge needs two distinct flags")
        used = {f for e in self.edges for _, f in (e[0], e[1])}
        if flag_a in used or flag_b in used:
            raise InputError("flag already contracted")
        return GraphMorphism(
            self.corollas,
            self.edges + [((ca, fa), (cb, fb))],
            self.merge_pairs,
        )

    def merge(self, name_a: str, name_b: str) -> "GraphMorphism":
        names = [n for n, _ in self.corollas]
        return GraphMorphism(
            self.corollas,
            self.edges,
            self.merge_pairs + [(names.index(name_a), names.index(name_b))],
        )

    @classmethod
    def identity(cls, corollas) -> "GraphMorphism":
        return cls([(n, list(f)) for n, f in corollas], [], [])

    @classmethod
    def from_doc(cls, doc: dict) -> "GraphMorphism":
        try:
            corollas = [(c["name"], list(json_array(c["flags"], "flags")))
                        for c in doc["corollas"]]
            names = [n for n, _ in corollas]
            edges = []
            for a, b in json_array(doc.get("edges", []), "edges"):
                ca, fa = a.split(".", 1)
                cb, fb = b.split(".", 1)
                edges.append(((names.index(ca), fa), (names.index(cb), fb)))
            merges = []
            for grp in json_array(doc.get("merge", []), "merge"):
                grp = json_array(grp, "merge group")
                for x, y in zip(grp, grp[1:]):
                    merges.append((names.index(x), names.index(y)))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"bad graph document: {exc}") from exc
        m = cls(corollas, edges, merges)
        m.check()
        return m


def _random_aggregate(rng: random.Random, n: int, max_flags: int) -> GraphMorphism:
    corollas = []
    fid = 0
    for i in range(n):
        nflags = rng.randint(2, max_flags)
        flags = [f"f{fid + j}" for j in range(nflags)]
        fid += nflags
        corollas.append((f"c{i}", flags))
    return GraphMorphism.identity(corollas)


def check_graph_relations(budget: int = 50, seed: int = 0) -> ValidationReport:
    """Generator pairs applied in both orders must give equal class keys."""
    report = ValidationReport("aggregate generator relations")
    rng = random.Random(seed)
    for trial in range(budget):
        agg = _random_aggregate(rng, 4, 4)
        # free flags per corolla: c0 has >= 2, etc.
        c0 = agg.corollas[0][1]
        c1 = agg.corollas[1][1]
        c2 = agg.corollas[2][1]
        c3 = agg.corollas[3][1]
        cases = [
            # disjoint edge contractions commute
            (lambda m: m.contract(c0[0], c1[0]).contract(c2[0], c3[0]),
             lambda m: m.contract(c2[0], c3[0]).contract(c0[0], c1[0]), "c"),
            # loop contractions commute
            (lambda m: m.contract(c0[0], c0[1]).contract(c1[0], c1[1]),
             lambda m: m.contract(c1[0], c1[1]).contract(c0[0], c0[1]), "c"),
            # loop and edge contractions commute
            (lambda m: m.contract(c0[0], c0[1]).contract(c1[0], c2[0]),
             lambda m: m.contract(c1[0], c2[0]).contract(c0[0], c0[1]), "c"),
            # cycle case: second contraction is the loop, either order
            (lambda m: m.contract(c0[0], c1[0]).contract(c0[1], c1[1]),
             lambda m: m.contract(c0[1], c1[1]).contract(c0[0], c1[0]), "c"),
            # mergers commute
            (lambda m: m.merge("c0", "c1").merge("c2", "c3"),
             lambda m: m.merge("c2", "c3").merge("c0", "c1"), "n"),
            # edge contraction = loop contraction after merger
            (lambda m: m.contract(c0[0], c1[0]),
             lambda m: m.merge("c0", "c1").contract(c0[0], c1[0]), "n"),
            # mergers and contractions on different sets commute
            (lambda m: m.merge("c0", "c1").contract(c2[0], c3[0]),
             lambda m: m.contract(c2[0], c3[0]).merge("c0", "c1"), "n"),
        ]
        for idx, (left, right, mode) in enumerate(cases):
            report.checked += 1
            lk = left(agg).class_key(mode)
            rk = right(agg).class_key(mode)
            if lk != rk:
                report.fail(f"trial {trial} case {idx}", f"{lk} != {rk}")
    return report


# ---------------------------------------------------------------------------
# The bialgebra

def strip_identity_corollas(key: BasisKey):
    """Drop isolated identity corollas; returns (reduced key, exponents)."""
    mode, sizes, edges, blocks = key.payload
    touched = {c for a, b in edges for c in (a, b)}
    removable = set()
    exps: dict = {}
    for blk in blocks:
        if len(blk) == 1 and blk[0] not in touched:
            c = blk[0]
            removable.add(c)
            label = f"q{sizes[c]}"
            exps[label] = exps.get(label, 0) + 1
    if not removable:
        return key, {}
    keep = [c for c in range(len(sizes)) if c not in removable]
    remap = {c: i for i, c in enumerate(keep)}
    new_sizes = tuple(sizes[c] for c in keep)
    new_edges = tuple((remap[a], remap[b]) for a, b in edges)
    new_blocks = tuple(
        tuple(remap[c] for c in blk)
        for blk in blocks
        if blk[0] not in removable or len(blk) > 1
    )
    return _class_key((mode, new_sizes, new_edges, new_blocks)), exps


def build_graph_bialgebra(max_corollas: int, max_edges: int,
                          max_flags: int = 3, connected: bool = True) -> BialgebraSpec:
    mode = "c" if connected else "n"
    keys, delta = _graph_universe(max_corollas, max_edges, max_flags, mode)
    coalg = CoalgebraSpec(
        f"graphs({mode},{max_corollas}c,{max_edges}e,{max_flags}f)",
        keys,
        graph_coproduct,
        graph_counit,
        graph_grading,
    )
    coalg._delta_memo = delta  # every key's coproduct, from the closure
    alg = AlgebraSpec(coalg.name, graph_product, FormalSum.basis(graph_unit_key(mode)))
    max_size = max(
        (s for k in keys for s in k.payload[1]), default=0
    )
    hooks = {
        "graded_filtration": True,
        "strip_grouplikes": strip_identity_corollas,
        "commutator_sort": lambda k: k,
        "central_sort": lambda k: k,
        "generator_weights": {f"q{s}": s for s in range(max_size + 1)},
    }
    return BialgebraSpec(coalg, alg, hooks)


# convenience builders for the closed-form antipode checks

def edge_contraction_class(n: int, m: int, mode: str = "c") -> BasisKey:
    """Contraction of one edge between an n-flag and an m-flag corolla."""
    if n < 1 or m < 1:
        raise InputError("edge contraction needs a flag on each corolla")
    return graph_class_key((n, m), ((0, 1),), ((0, 1),), mode)


def loop_contraction_class(n: int, mode: str = "c") -> BasisKey:
    """Contraction of a loop on an n-flag corolla (n >= 2)."""
    if n < 2:
        raise InputError("loop contraction needs two flags")
    return graph_class_key((n,), ((0, 0),), ((0,),), mode)


def merger_class(n: int, m: int) -> BasisKey:
    """Simple merger of an n-flag and an m-flag corolla (non-connected)."""
    return graph_class_key((n, m), (), ((0, 1),), "n")
