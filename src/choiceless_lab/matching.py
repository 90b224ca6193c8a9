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

The coloring refines by splitters: each round reads only the neighbours
of the smaller children of the blocks that split in the round before,
never those of a split block's largest child, so it reads O((n + m) log n)
adjacency entries in all.  It counts and keys only the vertices that share
their block, since a singleton cannot split, which leaves both that bound
and the order unchanged.  The blocks and their canonical order are those
of recomputing every vertex's full count vector each round
(``stable_coloring`` says why).  The flow starts from a greedy pass over
the linked pairs, which leaves few augmenting paths to search.
``saturate`` and ``quotient`` compute the coloring of the graph they get,
and return graphs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter

from .structures import InputStructure
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

    @cached_property
    def adjacency(self) -> dict:
        """Every vertex of either side mapped to a tuple of its neighbours."""
        adj: dict = {v: [] for v in self.a_side | self.b_side}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {v: tuple(n) for v, n in adj.items()}


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
    if set(order) != set(graph.a_side | graph.b_side):
        raise ValidationError("order must enumerate all vertices")
    rank = {v: i for i, v in enumerate(order)}
    a_sorted = sorted(graph.a_side, key=rank.__getitem__)
    forward = {a: sorted(graph.adjacency[a], key=rank.__getitem__) for a in a_sorted}

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


class _Block:
    """A block of the current partition: its members, and the start of the
    range of positions it holds in the canonical order."""

    __slots__ = ("start", "members")

    def __init__(self, start: int, members: set):
        self.start = start
        self.members = members


_UNTOUCHED = (0,)  # the key of the zero vector


def _touched_keys(splits, adjacency, block_of) -> dict:
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
    entries: dict = {}  # vertex -> [(position, sign, ±position, count)]
    for children, skipped in splits:
        totals: dict = {}
        for child in children:
            if child is skipped:
                continue
            counts: dict = {}
            for u in child.members:
                for v in adjacency[u]:
                    if len(block_of[v].members) > 1:
                        counts[v] = counts.get(v, 0) + 1
            p = child.start
            for v, count in counts.items():
                entry = (p, 1, -p, count)
                listed = entries.get(v)
                if listed is None:
                    entries[v] = [entry]
                else:
                    listed.append(entry)
                totals[v] = totals.get(v, 0) + count
        p = skipped.start
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


def _split(keys, block_of) -> list:
    """Split every block that holds a touched vertex by its members' keys,
    the untouched ones keeping the zero key, and return the splits made.

    The subblocks take the block's range in ascending key order.  Only the
    touched vertices move: the untouched rest keeps the block's record.
    """
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
        if len(groups) == 1 and sum(map(len, groups.values())) == len(block.members):
            continue  # every member has the one key: the block stays whole
        for moved in groups.values():
            block.members.difference_update(moved)
        if block.members:
            groups[_UNTOUCHED] = block.members
        children = []
        largest, most = None, 0
        start = block.start
        for key in sorted(groups):
            members = groups[key]
            if members is block.members:
                child = block
                block.start = start
            else:
                child = _Block(start, set(members))
                for v in members:
                    block_of[v] = child
            children.append(child)
            size = len(members)
            if size > most:  # so the first of largest size is skipped
                largest, most = child, size
            start += size
        splits.append((children, largest))
    return splits


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
    the same blocks, and the first is skipped.
    """
    adjacency = graph.adjacency
    block_of: dict = {}
    first_splits = []
    for side in (graph.a_side, graph.b_side):
        block = _Block(0, set(side))
        block_of.update(dict.fromkeys(side, block))
        # round 1 counts edges into the whole opposite side: the degree,
        # keyed as the one entry at position 0
        degrees = {v: (1, 0, len(adjacency[v]), 0) for v in side if adjacency[v]}
        first_splits.append(_split(degrees, block_of))
    a_splits, b_splits = first_splits
    while a_splits or b_splits:
        a_keys = _touched_keys(b_splits, adjacency, block_of)
        b_keys = _touched_keys(a_splits, adjacency, block_of)
        a_splits, b_splits = _split(a_keys, block_of), _split(b_keys, block_of)
    return StableColoring(
        *(
            tuple(
                frozenset(block.members)
                for block in sorted({block_of[v] for v in side}, key=attrgetter("start"))
            )
            for side in (graph.a_side, graph.b_side)
        )
    )


def saturate(graph: BipartiteGraph) -> BipartiteGraph:
    """The graph with its edge relation completed to full block products
    wherever it meets a pair of blocks of the graph's stable coloring."""
    coloring = stable_coloring(graph)
    out: set = set()
    for i, j in _linked_blocks(graph, coloring):
        out.update(itertools.product(coloring.a_blocks[i], coloring.b_blocks[j]))
    return BipartiteGraph(graph.a_side, graph.b_side, frozenset(out))


def _linked_blocks(graph: BipartiteGraph, coloring: StableColoring) -> set:
    """The index pairs ``(i, j)`` of A-block i and B-block j that some edge
    joins, in one pass over the edges."""
    block_of = {
        v: i
        for blocks in (coloring.a_blocks, coloring.b_blocks)
        for i, block in enumerate(blocks)
        for v in block
    }
    return {(block_of[a], block_of[b]) for a, b in graph.edges}


def quotient(graph: BipartiteGraph) -> BipartiteGraph:
    """The saturated graph with each block of the graph's stable coloring
    replaced by triples (side, block index, rank): identical, not merely
    isomorphic, for isomorphic inputs."""
    coloring = stable_coloring(graph)
    a_side, b_side = (
        frozenset((side, i, r) for i, block in enumerate(blocks) for r in range(len(block)))
        for side, blocks in enumerate((coloring.a_blocks, coloring.b_blocks))
    )
    edges = frozenset(
        ((0, i, r), (1, j, s))
        for i, j in _linked_blocks(graph, coloring)
        for r in range(len(coloring.a_blocks[i]))
        for s in range(len(coloring.b_blocks[j]))
    )
    return BipartiteGraph(a_side, b_side, edges)


def decide_complete_matching(graph: BipartiteGraph) -> bool:
    """Whether A can be matched completely: whether the block flow, which
    reads only the coloring's canonical blocks, saturates A."""
    return max_matching_size(graph) == len(graph.a_side)


def max_matching_size(graph: BipartiteGraph) -> int:
    """Largest matching cardinality: the block network's maximum flow (module
    docstring).  A greedy pass over the linked pairs in canonical order
    starts the flow, and breadth-first augmenting paths in canonical block
    order complete it."""
    coloring = stable_coloring(graph)
    a_left = [len(block) for block in coloring.a_blocks]
    b_left = [len(block) for block in coloring.b_blocks]
    forward: list = [[] for _ in a_left]
    into: list = [{} for _ in b_left]  # into[j][i]: the flow on arc i -> j
    for i, j in sorted(_linked_blocks(graph, coloring)):
        push = min(a_left[i], b_left[j])
        a_left[i] -= push
        b_left[j] -= push
        forward[i].append(j)
        into[j][i] = push
    spare = [i for i, left in enumerate(a_left) if left]
    while True:
        # a reached A-block maps to the arc (i, j) by which the search came
        # to take back its flow into j, or to None if it has spare capacity
        reached = spare[:]
        via = dict.fromkeys(reached)
        seen_b: set = set()
        for i in reached:  # appended to while read, so breadth first
            b_end = next((j for j in forward[i] if b_left[j]), None)
            if b_end is not None:
                break
            for j in forward[i]:
                if j not in seen_b:
                    seen_b.add(j)
                    for k, units in into[j].items():
                        if units and k not in via:
                            via[k] = i, j
                            reached.append(k)
        else:
            return len(graph.a_side) - sum(a_left)
        path = [(i, b_end)]  # the arcs that gain flow, walked back to the source
        while via[path[-1][0]] is not None:
            path.append(via[path[-1][0]])
        # each A-block on the path gives back its flow into the next arc's B-block
        returned = [(i, j) for (i, _), (_, j) in zip(path, path[1:])]
        a_root = path[-1][0]
        push = min(a_left[a_root], b_left[b_end], *(into[j][i] for i, j in returned))
        a_left[a_root] -= push
        b_left[b_end] -= push
        if not a_left[a_root]:
            spare.remove(a_root)
        for i, j in path:
            into[j][i] += push
        for i, j in returned:
            into[j][i] -= push


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
