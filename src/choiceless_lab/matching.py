"""Bipartite matching: path algorithm, Hall oracle, and the three-phase
order-free decision.

The decision pipeline avoids choosing anything order-dependent on the
input: phase one refines both sides into the coarsest stable coloring
(blocks in a canonical order, since subblocks are ranked by their count
vectors), phase two saturates the edge relation to full block products and
rebuilds the graph on canonically ordered triples, and phase three runs
the ordered path algorithm on that quotient.  Saturation cannot create a
complete matching where none existed, so the verdict transfers back to the
input graph.

The path algorithm and the Hall-condition check are also exposed on their
own; they serve as oracles for each other and for the pipeline.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GuardExceeded, ValidationError

__all__ = [
    "BipartiteGraph",
    "StableColoring",
    "QuotientGraph",
    "path_algorithm",
    "hall_oracle",
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
        for a, b in self.edges:
            if a not in self.a_side or b not in self.b_side:
                raise ValidationError(f"edge {(a, b)} leaves the vertex sets")

    @staticmethod
    def build(a_side, b_side, edges) -> "BipartiteGraph":
        return BipartiteGraph(frozenset(a_side), frozenset(b_side), frozenset(edges))

    def neighbours_of(self, a) -> frozenset:
        return frozenset(b for (x, b) in self.edges if x == a)


@dataclass(frozen=True)
class StableColoring:
    """Ordered partitions of both sides with uniform cross-block degrees."""

    a_blocks: tuple  # of frozensets
    b_blocks: tuple


@dataclass(frozen=True)
class QuotientGraph:
    """Canonically ordered copy of the saturated graph on index triples."""

    a_vertices: tuple  # (0, block index, rank), lexicographically sorted
    b_vertices: tuple  # (1, block index, rank)
    edges: frozenset

    def as_graph(self) -> BipartiteGraph:
        return BipartiteGraph(
            frozenset(self.a_vertices), frozenset(self.b_vertices), self.edges
        )

    @property
    def canonical_order(self) -> tuple:
        return tuple(sorted(self.a_vertices + self.b_vertices))


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
    forward: dict = {a: [] for a in graph.a_side}
    for a, b in sorted(graph.edges, key=lambda e: (rank[e[0]], rank[e[1]])):
        forward[a].append(b)

    matched_of_b: dict = {}
    matched_of_a: dict = {}

    def augment_from(a, visited_b) -> bool:
        # forward along non-matching edges only; matching edges are walked
        # backwards from b to its owner, giving the alternating digraph
        for b in forward[a]:
            if b in visited_b or matched_of_a.get(a) == b:
                continue
            visited_b.add(b)
            owner = matched_of_b.get(b)
            if owner is None or augment_from(owner, visited_b):
                matched_of_b[b] = a
                matched_of_a[a] = b
                return True
        return False

    for a in a_sorted:
        if not augment_from(a, set()):
            # a stays exposed forever; the alternating reachable set from it
            # violates the neighbourhood condition
            return False, _reachable_a(graph, matched_of_b, matched_of_a, a)
    return True, frozenset(matched_of_a.items())


def _reachable_a(graph, matched_of_b, matched_of_a, start) -> frozenset:
    seen_a = {start}
    seen_b: set = set()
    stack = [start]
    while stack:
        a = stack.pop()
        for b in graph.neighbours_of(a):
            if matched_of_a.get(a) == b or b in seen_b:
                continue
            seen_b.add(b)
            owner = matched_of_b.get(b)
            if owner is not None and owner not in seen_a:
                seen_a.add(owner)
                stack.append(owner)
    return frozenset(seen_a)


def hall_oracle(graph: BipartiteGraph, max_side: int = 20) -> bool:
    """Exhaustive check that every subset of A has enough neighbours."""
    a_list = list(graph.a_side)
    if len(a_list) > max_side:
        raise GuardExceeded("hall_oracle.max_side", max_side, len(a_list))
    neigh = {a: graph.neighbours_of(a) for a in a_list}
    for r in range(1, len(a_list) + 1):
        for subset in itertools.combinations(a_list, r):
            reach: set = set()
            for a in subset:
                reach |= neigh[a]
            if len(reach) < len(subset):
                return False
    return True


def _refine(blocks, opposite_blocks, edges_by_vertex):
    """One refinement round of one side against the opposite partition."""
    new_blocks = []
    changed = False
    for block in blocks:
        vectors: dict = {}
        for v in block:
            vec = tuple(
                sum(1 for u in edges_by_vertex[v] if u in ob) for ob in opposite_blocks
            )
            vectors.setdefault(vec, set()).add(v)
        if len(vectors) > 1:
            changed = True
        for vec in sorted(vectors):
            new_blocks.append(frozenset(vectors[vec]))
    return tuple(new_blocks), changed


def stable_coloring(graph: BipartiteGraph) -> StableColoring:
    """Coarsest stable coloring, refining both sides simultaneously.

    Vertices get the vector of edge counts into the opposite side's current
    blocks; a block splits into subblocks ordered by those vectors, and
    subblocks inherit their parent's position.  Terminates in at most
    |A| + |B| rounds.
    """
    a_adj: dict = {a: set() for a in graph.a_side}
    b_adj: dict = {b: set() for b in graph.b_side}
    for a, b in graph.edges:
        a_adj[a].add(b)
        b_adj[b].add(a)
    a_blocks = (frozenset(graph.a_side),) if graph.a_side else ()
    b_blocks = (frozenset(graph.b_side),) if graph.b_side else ()
    for _ in range(len(graph.a_side) + len(graph.b_side) + 1):
        new_a, changed_a = _refine(a_blocks, b_blocks, a_adj)
        new_b, changed_b = _refine(b_blocks, a_blocks, b_adj)
        a_blocks, b_blocks = new_a, new_b
        if not (changed_a or changed_b):
            return StableColoring(a_blocks, b_blocks)
    raise AssertionError("refinement failed to stabilize within |A|+|B| rounds")


def saturate(graph: BipartiteGraph, coloring: StableColoring) -> frozenset:
    """Complete the edge relation to full block products wherever it meets
    a block pair."""
    out: set = set()
    for i, j in _linked_blocks(graph, coloring):
        out.update(itertools.product(coloring.a_blocks[i], coloring.b_blocks[j]))
    return frozenset(out)


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


def quotient(graph: BipartiteGraph, coloring: StableColoring) -> QuotientGraph:
    """Replace each block by numbered triples; block adjacency becomes the
    edge relation.  The result is identical, not merely isomorphic, for
    isomorphic inputs."""
    a_vertices = tuple(
        sorted(
            (0, i, r)
            for i, block in enumerate(coloring.a_blocks)
            for r in range(len(block))
        )
    )
    b_vertices = tuple(
        sorted(
            (1, j, s)
            for j, block in enumerate(coloring.b_blocks)
            for s in range(len(block))
        )
    )
    linked = _linked_blocks(graph, coloring)
    edges = frozenset(
        (av, bv)
        for av in a_vertices
        for bv in b_vertices
        if (av[1], bv[1]) in linked
    )
    return QuotientGraph(a_vertices, b_vertices, edges)


def decide_complete_matching(graph: BipartiteGraph) -> bool:
    """The full pipeline: stable coloring, quotient, ordered path search."""
    if not graph.a_side:
        return True
    if not graph.b_side:
        return False
    coloring = stable_coloring(graph)
    q = quotient(graph, coloring)
    decided, _ = path_algorithm(q.as_graph(), q.canonical_order)
    return decided


def max_matching_size(graph: BipartiteGraph) -> int:
    """Largest matching cardinality, found by padding B with universal
    vertices until a complete matching appears."""
    pad_tag = "pad"
    while any(isinstance(b, tuple) and b and b[0] == pad_tag for b in graph.b_side):
        pad_tag = pad_tag + "_"
    for s in range(len(graph.a_side) + 1):
        pads = [(pad_tag, t) for t in range(s)]
        padded = BipartiteGraph(
            graph.a_side,
            graph.b_side | frozenset(pads),
            graph.edges | frozenset((a, p) for a in graph.a_side for p in pads),
        )
        if decide_complete_matching(padded):
            return len(graph.a_side) - s
    raise AssertionError("padding with |A| vertices always yields a matching")


def graph_from_structure(structure) -> BipartiteGraph:
    """Read a graph from a structure with unary InA/InB and binary R."""
    for name in ("InA", "InB", "R"):
        if name not in structure.relations:
            raise ValidationError(f"structure lacks relation {name}")
    a_side = frozenset(t[0].name for t in structure.relations["InA"])
    b_side = frozenset(t[0].name for t in structure.relations["InB"])
    edges = frozenset((x.name, y.name) for (x, y) in structure.relations["R"])
    return BipartiteGraph(a_side, b_side, edges)


def graph_to_structure(graph: BipartiteGraph):
    """Encode as a structure with unary InA/InB and binary R."""
    from .bgs import InputStructure

    names = sorted(str(v) for v in graph.a_side | graph.b_side)
    return InputStructure.build(
        names,
        relations={
            "InA": [(str(a),) for a in graph.a_side],
            "InB": [(str(b),) for b in graph.b_side],
            "R": [(str(a), str(b)) for (a, b) in graph.edges],
        },
        arities={"InA": 1, "InB": 1, "R": 2},
    )
