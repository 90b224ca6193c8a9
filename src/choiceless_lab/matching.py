"""Bipartite matching: the ordered path algorithm, and the order-free
decision by a maximum flow over the stable coloring's blocks.

The decision keeps only the block sizes of the coarsest stable coloring
and its linked block pairs, those some edge joins.  The network source ->
A_i (capacity |A_i|), A_i -> B_j per linked pair (uncapped), B_j -> sink
(capacity |B_j|) is thus the same for isomorphic inputs, and its searches
scan blocks by canonical index, so no order on the input is chosen.

The flow value is the maximum matching size, by the LP reduction of Grohe,
Kersting, Mladenov and Selman ("Dimension reduction via colour
refinement", ESA 2014).  A matching counted per block pair is a flow.
Conversely, stability gives each vertex of A_i the same number of
neighbours in B_j, and each of B_j the same number in A_i, so a flow f
spread evenly over each linked pair's e_ij edges loads a vertex of A_i
with sum_j f_ij / |A_i| <= 1, and one of B_j likewise: a fractional
matching of value |f|, and the bipartite matching polytope is integral.
Only that converse needs stability: on any partition of the sides, the
same network's flow bounds the maximum matching from above.

The decision searches only from the first A-block with spare capacity,
in canonical order, and answers no as soon as such a search fails.  That
is exact: let R be the blocks the failed search reached.  Every B-block
in R is full, or the search would have ended there; all flow into those
B-blocks comes from A-blocks in R, since the search follows it back; and
every block an A-block in R links to is in R.  So the cut {source} + R
has capacity |A| - |A_R| + |B_R|, where |B_R| is the flow out of A_R,
below |A_R| by the first block's spare capacity: no flow saturates A, and
the A-vertices in R have fewer neighbours than themselves (Hall).  The
argument never uses stability, so it holds on any partition.  The
decision therefore first runs the flow on the degree partition, which
the coloring's first round builds in O(n + m), and a failed search there
is a final no; only a yes goes on to the stable coloring.  Such a no's
Hall set, the A-vertices in R, is a union of degree classes, and every
automorphism of the graph fixes it.

The coloring refines by splitters: each round reads only the neighbours
of the smaller children of the blocks that split in the round before,
never those of a split block's largest child, so it reads O((n + m) log n)
adjacency entries in all.  It counts and keys only the vertices that share
their block, since a singleton cannot split, which leaves both that bound
and the order unchanged.  The blocks and their canonical order are those
of recomputing every vertex's full count vector each round
(``stable_coloring`` says why).  The rounds run on an internal numbering
of the vertices, A first, in the sides' iteration order: lists of
neighbour numbers, a block id and an alone flag per vertex, a start and
members per block id.  Keys and block ranks hold positions in the
canonical order, never numbers, so the numbering decides only the running
time, and it never leaves this module.  The flow starts from a greedy pass
over the linked pairs, which leaves few augmenting paths to search.  The
refinement and the flow build only numbers and flat containers of them,
so no cycle can form, and they run with the cyclic collector paused.
``saturate`` and ``quotient`` compute the coloring of the graph they get,
and return graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .structures import InputStructure, collector_paused
from .errors import ValidationError

__all__ = [
    "BipartiteGraph",
    "StableColoring",
    "path_algorithm",
    "stable_coloring",
    "saturate",
    "quotient",
    "decide_complete_matching",
    "max_matching_size",
    "graph_from_structure",
    "graph_to_structure",
]


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Two disjoint vertex sets with edges from the first to the second."""

    a_side: frozenset
    b_side: frozenset
    edges: frozenset  # pairs (a, b)

    def __post_init__(self):
        if self.a_side & self.b_side:
            raise ValidationError("the two sides must be disjoint")
        bad = [(a, b) for a, b in self.edges if a not in self.a_side or b not in self.b_side]
        if bad:
            raise ValidationError(f"edge {min(bad)} leaves the vertex sets")

    @staticmethod
    def build(a_side, b_side, edges) -> "BipartiteGraph":
        return BipartiteGraph(frozenset(a_side), frozenset(b_side), frozenset(edges))


@dataclass(frozen=True)
class StableColoring:
    """Ordered partitions of both sides with uniform cross-block degrees."""

    a_blocks: tuple  # of frozensets
    b_blocks: tuple


def path_algorithm(graph: BipartiteGraph, order) -> tuple:
    """Grow a matching along augmenting paths, always taking the
    depth-first path that follows the supplied linear order.

    Returns ``(True, matching)`` on success, otherwise ``(False, x_set)``
    where ``x_set`` is the set of A-vertices reachable from the first
    unmatched one; its neighbourhood is strictly smaller than itself.
    """
    order = list(order)
    vertices = graph.a_side | graph.b_side
    if set(order) != vertices or len(order) != len(vertices):
        raise ValidationError("order must enumerate all vertices")
    rank = {v: i for i, v in enumerate(order)}
    a_sorted = sorted(graph.a_side, key=rank.__getitem__)
    forward: dict = {a: [] for a in a_sorted}
    for a, b in sorted(graph.edges, key=lambda edge: rank[edge[1]]):
        forward[a].append(b)

    matched_of_b: dict = {}
    matched_of_a: dict = {}

    def augment_from(root):
        """Augment along the first path from root and return None, or, when
        there is none, the A-vertices the search reached from root."""
        # depth first along the alternating digraph: forward along edges,
        # backwards along the matching from b to its owner.  An owner's
        # partner is the b it was entered by, so that b is already visited.
        visited_b: set = set()
        path = [(root, iter(forward[root]))]
        while path:
            for b in path[-1][1]:
                if b not in visited_b:
                    break
            else:
                path.pop()
                continue
            visited_b.add(b)
            owner = matched_of_b.get(b)
            if owner is None:
                # each a on the path takes the b it reached and hands its
                # old partner to the a before it
                for a, _ in reversed(path):
                    matched_of_b[b] = a
                    matched_of_a[a], b = b, matched_of_a.get(a)
                return None
            path.append((owner, iter(forward[owner])))
        # the search ran to the end, so every b it visited has an owner
        return frozenset([root, *(matched_of_b[b] for b in visited_b)])

    for a in a_sorted:
        x_set = augment_from(a)
        if x_set is not None:
            # a stays exposed forever; the alternating reachable set from it
            # violates the neighbourhood condition
            return False, x_set
    return True, frozenset(matched_of_a.items())


_UNTOUCHED = (0,)  # the key of the zero vector


def _touched_keys(splits, adjacency, part) -> dict:
    """Every vertex that a split of last round touches and that shares its
    block, mapped to its key.

    A split is a block's children in their new order and the child it skips,
    its largest.  The vertex's vector holds, at the start of each unskipped
    child, its number of neighbours in that child, and at the skipped
    child's start minus the sum of those numbers.  Its key lists the
    nonzero entries in position order, c at position p as 1, -p, c if c > 0
    and as -1, p, c if c < 0, and ends with 0; compared as tuples, keys
    order exactly as the vectors do, with zeros implied.  A vertex alone in
    its block after last round is neither counted nor keyed: a singleton
    cannot split.
    """
    _, alone, start, members = part
    entries: dict = {}  # vertex -> [(position, sign, ±position, count)]
    for children, skipped in splits:
        totals: dict = {}
        for child in children:
            if child == skipped:
                continue
            counts: dict = {}
            for u in members[child]:
                for v in adjacency[u]:
                    if not alone[v]:
                        counts[v] = counts.get(v, 0) + 1
            p = start[child]
            for v, count in counts.items():
                entry = (p, 1, -p, count)
                listed = entries.get(v)
                if listed is None:
                    entries[v] = [entry]
                else:
                    listed.append(entry)
                totals[v] = totals.get(v, 0) + count
        p = start[skipped]
        for v, count in totals.items():
            entries[v].append((p, -1, p, -count))
    keys = {}
    for v, listed in entries.items():
        listed.sort()
        key = []
        for _, sign, signed_position, count in listed:
            key += sign, signed_position, count
        key.append(0)
        keys[v] = tuple(key)
    return keys


def _split(keys, part) -> list:
    """Split every block that holds a touched vertex by its members' keys,
    the untouched ones keeping the zero key, and return the splits made.

    The subblocks take the block's range in ascending key order.  Only the
    touched vertices move: the untouched rest keeps the block's id.
    """
    block_of, alone, start, members = part
    by_block: dict = {}
    for v, key in keys.items():
        block = block_of[v]
        groups = by_block.get(block)
        if groups is None:
            by_block[block] = {key: [v]}
        else:
            group = groups.get(key)
            if group is None:
                groups[key] = [v]
            else:
                group.append(v)
    splits = []
    for block, groups in by_block.items():
        kept = members[block]
        if len(groups) == 1 and sum(map(len, groups.values())) == len(kept):
            continue  # every member has the one key: the block stays whole
        for moved in groups.values():
            kept.difference_update(moved)
        if kept:
            groups[_UNTOUCHED] = kept
        children = []
        largest, most = None, 0
        position = start[block]
        for key in sorted(groups):
            group = groups[key]
            if group is kept:
                child = block
                start[block] = position
            else:
                child = len(start)
                start.append(position)
                members.append(set(group))
                for v in group:
                    block_of[v] = child
            size = len(group)
            if size == 1:
                for v in group:
                    alone[v] = True
            children.append(child)
            if size > most:  # so the first of largest size is skipped
                largest, most = child, size
            position += size
        splits.append((children, largest))
    return splits


def _refine(graph: BipartiteGraph, decide: bool = False) -> tuple | None:
    """The coarsest stable coloring on the internal numbering (module
    docstring): the numbering's vertices, each side's blocks as sets of
    numbers in canonical order, and the linked pairs of block ranks.

    With ``decide``, the decision's block flow first runs on the degree
    partition that round 1 leaves, and None is returned when its search
    fails: A then cannot be matched completely (module docstring).  The
    check is made after round 1 only, and not when round 1 split neither
    side, since that partition is then already stable and the flow runs
    on it once anyway.  A check after every round would cost a path on n
    vertices, which refines in about n / 2 rounds, that many flows.
    """
    names = [*graph.a_side, *graph.b_side]
    index = dict(zip(names, range(len(names))))
    tails = [index[a] for a, _ in graph.edges]
    heads = [index[b] for _, b in graph.edges]
    adjacency = [[] for _ in names]
    for a, b in zip(tails, heads):
        adjacency[a].append(b)
        adjacency[b].append(a)
    na, nb = len(graph.a_side), len(graph.b_side)
    # the partition: per vertex its block id and whether it is alone in its
    # block, per block id its start, that of its range of positions in the
    # canonical order, and its members; A starts as block 0 and B as 1
    part = (
        [0] * na + [1] * nb,
        [na == 1] * na + [nb == 1] * nb,
        [0, 0],
        [set(range(na)), set(range(na, na + nb))],
    )
    # round 1 counts edges into the whole opposite side: the degree, keyed
    # as the one entry at position 0; a side of one degree stays whole
    degrees = list(map(len, adjacency))
    a_splits, b_splits = (
        _split({v: (1, 0, degrees[v], 0) for v in side if degrees[v]}, part)
        if len(set(degrees[side.start : side.stop])) > 1
        else []
        for side in (range(na), range(na, na + nb))
    )
    if decide and (a_splits or b_splits) and _flow(*_ranked(part, na, tails, heads), True):
        return None
    # a side that split nothing last round touches no vertex of the other,
    # which is then neither keyed nor split: on a path with one A-vertex
    # more than B, one side in every round
    while a_splits or b_splits:
        a_keys = _touched_keys(b_splits, adjacency, part) if b_splits else None
        b_keys = _touched_keys(a_splits, adjacency, part) if a_splits else None
        a_splits = [] if a_keys is None else _split(a_keys, part)
        b_splits = [] if b_keys is None else _split(b_keys, part)
    return names, *_ranked(part, na, tails, heads)


def _ranked(part, na, tails, heads) -> tuple:
    """The partition's blocks on each side in canonical order, and the
    pairs of block ranks that some edge joins."""
    block_of, _, start, members = part
    rank = [0] * len(start)  # a live block id -> its rank on its side
    blocks = []
    for ids in (block_of[:na], block_of[na:]):
        order = sorted(set(ids), key=start.__getitem__)
        for r, block in enumerate(order):
            rank[block] = r
        blocks.append([members[block] for block in order])
    linked = {
        (rank[i], rank[j])
        for i, j in set(zip(map(block_of.__getitem__, tails), map(block_of.__getitem__, heads)))
    }
    return blocks, linked


def stable_coloring(graph: BipartiteGraph) -> StableColoring:
    """Coarsest stable coloring, refining both sides simultaneously.

    Round r refines each side's blocks by their members' edge counts into
    the opposite side's blocks after round r - 1: a block splits into
    subblocks in ascending order of those count vectors, in the block's own
    position.  Rounds repeat until neither side gains a block.

    Round r reads only the neighbours of the smaller children of the blocks
    that split in round r - 1, skipping each split block's largest child
    (Hopcroft's rule; Paige and Tarjan, SICOMP 1987; Berkholz, Bonsma and
    Grohe, ESA 2013).  The order stays that of the full count vectors: a
    block after round r - 1 has uniform counts into every opposite block
    after round r - 2, so its members' vectors differ only on the children
    of split blocks, and at a skipped child they differ by minus the sum
    over its siblings, its count being that fixed total minus the sum.
    The first round reads degrees only, and later a vertex is read only
    from a child at most half its parent's size, so the rounds read
    O((n + m) log n) adjacency entries in all, and a split moves only the
    vertices read next to it.  Of those neighbours, only the ones that
    share their block after round r - 1 are counted and keyed: a singleton
    never splits, so skipping it changes neither the blocks nor their
    order.  On a tie for a split block's largest child, any choice gives
    the same blocks, and the first is skipped.  The rounds run on the
    module's internal vertex numbering; keys hold positions, never
    numbers, so the numbering decides only the running time.
    """
    names, blocks, _ = _refine(graph)
    return StableColoring(
        *(tuple(frozenset(map(names.__getitem__, block)) for block in side) for side in blocks)
    )


def saturate(graph: BipartiteGraph) -> BipartiteGraph:
    """The graph with its edge relation completed to full block products
    wherever it meets a pair of blocks of the graph's stable coloring."""
    names, (a_blocks, b_blocks), linked = _refine(graph)
    name = names.__getitem__
    out: set = set()
    for i, j in linked:
        out.update(itertools.product(map(name, a_blocks[i]), map(name, b_blocks[j])))
    return BipartiteGraph(graph.a_side, graph.b_side, frozenset(out))


def quotient(graph: BipartiteGraph) -> BipartiteGraph:
    """The saturated graph with each block of the graph's stable coloring
    replaced by triples (side, block index, rank): identical, not merely
    isomorphic, for isomorphic inputs."""
    _, (a_blocks, b_blocks), linked = _refine(graph)
    a_side, b_side = (
        frozenset((side, i, r) for i, block in enumerate(blocks) for r in range(len(block)))
        for side, blocks in enumerate((a_blocks, b_blocks))
    )
    edges = frozenset(
        ((0, i, r), (1, j, s))
        for i, j in linked
        for r in range(len(a_blocks[i]))
        for s in range(len(b_blocks[j]))
    )
    return BipartiteGraph(a_side, b_side, edges)


def decide_complete_matching(graph: BipartiteGraph) -> bool:
    """Whether A can be matched completely: whether the block flow, which
    reads only a partition's canonical blocks, saturates A.  It searches
    from the first A-block with spare capacity only, and answers no when
    that search fails.  The flow on the degree partition is tried first,
    and its no is final: the flow on any canonical partition bounds the
    maximum matching from above, and the cut argument for no needs no
    stability (module docstring).  The Hall set behind such a no is a
    union of degree classes, which every automorphism fixes."""
    with collector_paused():
        refinement = _refine(graph, decide=True)
        return refinement is not None and not _flow(*refinement[1:], True)


def max_matching_size(graph: BipartiteGraph) -> int:
    """Largest matching cardinality: the block network's maximum flow (module
    docstring), on the block sizes and linked rank pairs the refinement
    returns, with no vertex names read.  A greedy pass over the linked
    pairs in canonical order starts the flow, and breadth-first augmenting
    paths from every spare A-block, in canonical block order, complete it."""
    with collector_paused():
        return len(graph.a_side) - _flow(*_refine(graph)[1:], False)


def _flow(blocks, linked, first_only: bool) -> int:
    """How many A-vertices the block flow over a partition's ``blocks`` and
    ``linked`` rank pairs leaves unmatched once its search fails: from
    every spare A-block, |A| minus the flow's maximum; from the first one
    only, a number that is 0 exactly when the flow saturates A."""
    a_left, b_left = ([len(block) for block in side] for side in blocks)
    forward: list = [[] for _ in a_left]
    into: list = [{} for _ in b_left]  # into[j][i]: the flow on arc i -> j
    # the greedy pass visits every linked pair, so it calls no min() and
    # writes no zero push
    for i, j in sorted(linked):
        forward[i].append(j)
        a, b = a_left[i], b_left[j]
        push = a if a < b else b
        if push:
            a_left[i] = a - push
            b_left[j] = b - push
        into[j][i] = push
    spare = [i for i, left in enumerate(a_left) if left]
    while spare:
        path = _search(spare[:1] if first_only else spare, forward, into, b_left)
        if path is None:
            break
        # each A-block on the path gives back its flow into the next arc's B-block
        returned = [(i, j) for (i, _), (_, j) in zip(path, path[1:])]
        a_root, b_end = path[-1][0], path[0][1]
        push = min(a_left[a_root], b_left[b_end], *(into[j][i] for i, j in returned))
        a_left[a_root] -= push
        b_left[b_end] -= push
        if not a_left[a_root]:
            spare.remove(a_root)
        for i, j in path:
            into[j][i] += push
        for i, j in returned:
            into[j][i] -= push
    return sum(a_left)


def _search(roots, forward, into, b_left):
    """The arcs that gain flow on the first breadth-first augmenting path
    from the A-blocks ``roots``, walked back to the source, or None."""
    # a reached A-block maps to the arc (i, j) by which the search came to
    # take back its flow into j, or to None if it is a root
    reached = list(roots)
    via = dict.fromkeys(reached)
    seen_b: set = set()
    for i in reached:  # appended to while read, so breadth first
        for j in forward[i]:
            if b_left[j]:
                path = [(i, j)]
                while via[path[-1][0]] is not None:
                    path.append(via[path[-1][0]])
                return path
            if j not in seen_b:
                seen_b.add(j)
                for k, units in into[j].items():
                    if units and k not in via:
                        via[k] = i, j
                        reached.append(k)
    return None


_ARITIES = {"InA": 1, "InB": 1, "R": 2}


def graph_from_structure(structure) -> BipartiteGraph:
    """Read a graph from a structure with unary InA/InB and binary R."""
    in_a, in_b, edges = structure.relations_with(_ARITIES)
    return BipartiteGraph(frozenset(t[0] for t in in_a), frozenset(t[0] for t in in_b), edges)


def graph_to_structure(graph: BipartiteGraph):
    """Encode as a structure with unary InA/InB and binary R."""
    names = sorted(str(v) for v in graph.a_side | graph.b_side)
    return InputStructure.build(
        names,
        relations={
            "InA": [(str(a),) for a in graph.a_side],
            "InB": [(str(b),) for b in graph.b_side],
            "R": [(str(a), str(b)) for (a, b) in graph.edges],
        },
        arities=_ARITIES,
    )
