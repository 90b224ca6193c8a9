"""Twisted gadget graphs over a connected base graph.

Every base vertex v of degree d contributes the block U(v) of 2^(d-1)
gadget vertices (v, X), X an even or odd subset of the edges at v, and
every base edge e contributes the pair U(e) of two vertices; (v, X) is
joined to the positive pair vertex of e when e is in X and to the negative
one otherwise.  A linear order on the base transports to a pre-order on
the block vertices only.  The twist set T decides, per base vertex,
whether the odd or the even subsets are kept; up to isomorphism only the
parity of |T| matters, and the two parities give non-isomorphic graphs.

The classifier and the isomorphism test read one invariant of a
structure, the triple (m, padding, twist parity), from the edge and
pre-order relations only, never from the order in which vertices are
listed, so renaming or relisting vertices never changes a verdict.  The
pre-order's classes are read from two degree counts: a vertex in class i
(earliest first) is ordered no later than the vertices of classes i and
on, and no earlier than those of classes up to i.  Grouping by
out-degree and checking both degrees of every class against these sums
is exact, because a 0/1 relation is the staircase of a total pre-order
as soon as it has the staircase's row and column sums (Ryser 1957: the
staircase has no 2x2 switch, so no other relation shares its sums).  Two
members of a block differ on a touching edge pair when they meet
different vertices of it; in a coherent gadget the members of a block
have distinct neighbourhoods and differ on an even number of pairs.  The
twist parity is the number of edge pairs whose two end blocks' members
meet different vertices of the pair, mod 2, with one member taken per
block: any member gives the same count, because replacing it changes an
even number of terms.  Over a complete base the triple is a gadget's
isomorphism type: the classifier reports its parity, and two gadgets are
isomorphic exactly when their triples are equal.  A structure that is not
a coherent gadget has no triple: the classifier calls it ``"not-CFI"``
and the isomorphism test rejects it (``ValidationError``, exit status 3
on the command line).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from .bgs.structures import InputStructure, preorder_classes
from .errors import GuardExceeded, ValidationError

__all__ = [
    "NOT_CFI",
    "BaseGraph",
    "GadgetGraph",
    "PreGraph",
    "build_twisted",
    "complete_graph",
    "from_structure",
    "isomorphic_gadgets",
    "pad",
    "recognize_and_classify",
    "to_structure",
]

NOT_CFI = "not-CFI"
# a padded gadget has 2**(m*m) isolated vertices: m = 5 needs gigabytes
PAD_MAX_M = 4
# an unpadded gadget lists its pre-order pair by pair, quadratic in its
# (m+1) * 2**(m-1) block vertices: m = 9 writes about 200 MB
STRUCTURE_MAX_M = 8


@dataclass(frozen=True, eq=False)
class BaseGraph:
    """Connected simple graph with a fixed linear order on its vertices."""

    vertices: tuple
    edges: frozenset  # of 2-element frozensets

    def __post_init__(self):
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise ValidationError("duplicate base vertices")
        for e in self.edges:
            if len(e) != 2 or not e <= seen:
                raise ValidationError(f"bad edge {set(e)!r}")
        if not self._connected():
            raise ValidationError("base graph must be connected")

    def _connected(self) -> bool:
        if not self.vertices:
            return False
        reached = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for e in self.incident(v):
                (w,) = e - {v}
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        return len(reached) == len(self.vertices)

    def incident(self, v) -> frozenset:
        """The edges at ``v``; none when ``v`` is not a base vertex."""
        return self._incidence.get(v, frozenset())

    @cached_property
    def _incidence(self) -> dict:
        at: dict = {v: set() for v in self.vertices}
        for e in self.edges:
            for v in e:
                at[v].add(e)
        return {v: frozenset(edges) for v, edges in at.items()}


def complete_graph(n: int) -> BaseGraph:
    names = tuple(f"v{i}" for i in range(n))
    edges = frozenset(frozenset(p) for p in itertools.combinations(names, 2))
    return BaseGraph(names, edges)


def _edge_token(edge) -> str:
    return "".join(sorted(str(v) for v in edge))


def _block_token(v, x_set) -> str:
    inside = ".".join(sorted(_edge_token(e) for e in x_set)) or "none"
    return f"u_{v}_{inside}"


def _pair_token(edge, sign) -> str:
    return f"w_{_edge_token(edge)}_{'p' if sign else 'm'}"


@dataclass(frozen=True, eq=False)
class PreGraph:
    """Bare structure: vertices, undirected edges, pre-order pairs.  Every
    vertex on an edge or in a pre-order pair is listed once in
    ``vertices``."""

    vertices: tuple
    edges: frozenset  # of 2-element frozensets
    preorder: frozenset  # of (x, y) pairs meaning x is ordered no later

    def adjacency(self) -> dict:
        """Neighbour sets of the vertices on some edge; an isolated vertex
        has no entry."""
        adj: dict = {}
        for e in self.edges:
            a, b = tuple(e)
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
        return adj


@dataclass(frozen=True, eq=False)
class GadgetGraph:
    """A twisted gadget graph remembering its construction data."""

    base: BaseGraph
    twist: frozenset
    block_vertices: tuple  # tokens (v, X) in construction order
    pair_vertices: tuple  # tokens (e, sign)
    edges: frozenset
    rank: dict = field(repr=False)  # block vertex -> index of its base vertex

    def structure(self) -> PreGraph:
        m = max(len(self.base.incident(v)) for v in self.base.vertices)
        if m > STRUCTURE_MAX_M:
            raise GuardExceeded("structure.max_m", STRUCTURE_MAX_M, m)
        pre = frozenset(
            (x, y)
            for x in self.block_vertices
            for y in self.block_vertices
            if self.rank[x] <= self.rank[y]
        )
        return PreGraph(self.block_vertices + self.pair_vertices, self.edges, pre)


def build_twisted(base: BaseGraph, twist) -> GadgetGraph:
    """The induced gadget graph keeping (v, X) when |X| is odd exactly for
    twisted base vertices."""
    twist = frozenset(twist)
    if not twist <= set(base.vertices):
        raise ValidationError("twist set must consist of base vertices")
    rank_of = {v: i for i, v in enumerate(base.vertices)}
    blocks = []
    rank = {}
    edges = set()
    pair_vertices = []
    for e in sorted(base.edges, key=_edge_token):
        pair_vertices.append(_pair_token(e, True))
        pair_vertices.append(_pair_token(e, False))
    for v in base.vertices:
        incident = sorted(base.incident(v), key=_edge_token)
        want_odd = v in twist
        for r in range(len(incident) + 1):
            for combo in itertools.combinations(incident, r):
                if (len(combo) % 2 == 1) != want_odd:
                    continue
                x_set = frozenset(combo)
                token = _block_token(v, x_set)
                blocks.append(token)
                rank[token] = rank_of[v]
                for e in incident:
                    edges.add(frozenset({token, _pair_token(e, e in x_set)}))
    return GadgetGraph(
        base, twist, tuple(blocks), tuple(pair_vertices), frozenset(edges), rank
    )


def pad(gadget: GadgetGraph) -> PreGraph:
    """Adjoin 2**(m*m) isolated vertices to a gadget over the complete
    graph on m+1 vertices."""
    m = len(gadget.base.vertices) - 1
    if 2 * len(gadget.base.edges) != m * (m + 1):
        raise ValidationError("gadget base is not a complete graph")
    if m > PAD_MAX_M:
        raise GuardExceeded("pad.max_m", PAD_MAX_M, m)
    inner = gadget.structure()
    pads = tuple(f"pad{t}" for t in range(2 ** (m * m)))
    return PreGraph(inner.vertices + pads, inner.edges, inner.preorder)


# --------------------------------------------------------------- analysis


def _invariants(structure: PreGraph):
    """The isomorphism invariant (m, padding, twist parity) of a coherent
    twisted gadget over a complete base; None for anything else."""
    adj = structure.adjacency()
    classes = preorder_classes(structure.preorder)
    if not classes:
        return None
    m = len(classes) - 1
    if m < 1 or any(len(c) != 2 ** (m - 1) for c in classes):
        return None
    class_of = {x: i for i, c in enumerate(classes) for x in c}
    # a PreGraph lists every vertex on an edge or in the pre-order, so the
    # vertices on neither are the isolated ones
    linked = adj.keys() - class_of.keys()
    padding = len(structure.vertices) - len(class_of) - len(linked)
    if padding not in (0, 2 ** (m * m)):
        return None
    # group the linked extras into edge pairs by their incident class pair
    pairs: dict = {}
    for w in linked:
        touched = {class_of.get(nb) for nb in adj[w]}
        if None in touched:
            return None
        pairs.setdefault(tuple(sorted(touched)), set()).add(w)
    want_pairs = {(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)}
    if set(pairs) != want_pairs or any(len(p) != 2 for p in pairs.values()):
        return None
    for ci, cls in enumerate(classes):
        touching = [p for key, p in pairs.items() if ci in key]
        neighbourhoods = set()
        for x in cls:
            # exactly one vertex of each touching pair, and nothing else
            neigh = frozenset(adj.get(x, ()))
            if len(neigh) != m or any(len(p & neigh) != 1 for p in touching):
                return None
            neighbourhoods.add(neigh)
        # coherence: members meet different vertices on len(N(x) ^ N(y)) // 2
        # pairs, and each two differ on a positive even number of them;
        # parity is additive, so evenness against one member suffices
        first = next(iter(neighbourhoods))
        if len(neighbourhoods) != len(cls) or any(len(n ^ first) % 4 for n in neighbourhoods):
            return None
    # the edge pairs whose two end blocks' members meet different vertices
    # of the pair, counted for any one member per block
    meets = [adj[next(iter(cls))] for cls in classes]
    return m, padding, sum(not meets[i] & meets[j] for i, j in pairs) % 2


def recognize_and_classify(structure: PreGraph):
    """Decide whether the structure is an isomorph of a twisted gadget over
    a complete base and return its twist parity (0 or 1); anything else
    yields ``"not-CFI"``."""
    invariants = _invariants(structure)
    return NOT_CFI if invariants is None else invariants[2]


def isomorphic_gadgets(x: PreGraph, y: PreGraph) -> bool:
    """Isomorphism of two twisted gadgets: same m, same padding and same
    twist parity.  A pre-order-preserving map sends class i to class i and
    each edge pair to itself, and over a connected base such a map exists
    exactly when the parities agree.  Raises ``ValidationError`` unless
    both structures are coherent gadgets."""
    ix, iy = _invariants(x), _invariants(y)
    if ix is None or iy is None:
        raise ValidationError("both structures must be twisted gadgets")
    return ix == iy


# ------------------------------------------------------------ structure io


_ARITIES = {"Adj": 2, "Pre": 2}


def to_structure(structure: PreGraph):
    """Encode as a structure with symmetric Adj and the pre-order Pre."""
    adj_pairs = []
    for e in structure.edges:
        a, b = tuple(e)
        adj_pairs.append((a, b))
        adj_pairs.append((b, a))
    return InputStructure.build(
        list(structure.vertices),
        relations={"Adj": adj_pairs, "Pre": list(structure.preorder)},
        arities=_ARITIES,
    )


def from_structure(structure) -> PreGraph:
    adj, preorder = structure.relations_with(_ARITIES)
    if any((b, a) not in adj for (a, b) in adj):
        raise ValidationError("Adj is not symmetric")
    edges = frozenset(map(frozenset, adj))
    for e in edges:
        if len(e) != 2:
            raise ValidationError("adjacency contains a loop")
    return PreGraph(structure.atoms, edges, preorder)
