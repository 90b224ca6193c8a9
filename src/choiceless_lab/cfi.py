"""Twisted gadget graphs over a connected base graph.

Every base vertex v of degree d contributes the block U(v) of 2^(d-1)
gadget vertices (v, X), X an even or odd subset of the edges at v, and
every base edge e contributes the pair U(e) of two vertices; (v, X) is
joined to the positive pair vertex of e when e is in X and to the negative
one otherwise.  A linear order on the base transports to a pre-order on
the block vertices only.  The twist set T decides, per base vertex,
whether the odd or the even subsets are kept; up to isomorphism only the
parity of |T| matters, and the two parities give non-isomorphic graphs.

A gadget is the :class:`~choiceless_lab.bgs.structures.InputStructure`
that files and programs read: the block vertices, pair vertices and any
padding as atoms, in that order, ``Adj`` listing every edge both ways and
``Pre`` the block pre-order pair by pair.

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
    "build_twisted",
    "complete_graph",
    "from_structure",
    "isomorphic_gadgets",
    "pad",
    "recognize_and_classify",
]

NOT_CFI = "not-CFI"
# a padded gadget has 2**(m*m) isolated vertices: m = 5 needs gigabytes
PAD_MAX_M = 4
# an unpadded gadget lists its pre-order pair by pair, quadratic in its
# (m+1) * 2**(m-1) block vertices: m = 9 writes about 200 MB
STRUCTURE_MAX_M = 8
_ARITIES = {"Adj": 2, "Pre": 2}


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
class GadgetGraph:
    """A twisted gadget graph remembering its construction data."""

    base: BaseGraph
    twist: frozenset
    block_vertices: tuple  # tokens (v, X) in construction order
    pair_vertices: tuple  # tokens (e, sign)
    edges: frozenset
    rank: dict = field(repr=False)  # block vertex -> index of its base vertex

    def structure(self) -> InputStructure:
        """The gadget as a structure: ``Adj`` lists each edge both ways and
        ``Pre`` orders the block vertices by their base vertices."""
        return self._structure(())

    def _structure(self, pads: tuple) -> InputStructure:
        """The structure with the isolated vertices ``pads`` listed last."""
        m = max(len(self.base.incident(v)) for v in self.base.vertices)
        if m > STRUCTURE_MAX_M:
            raise GuardExceeded("structure.max_m", STRUCTURE_MAX_M, m)
        adj = [pair for a, b in self.edges for pair in ((a, b), (b, a))]
        blocks = self.block_vertices
        pre = [(x, y) for x in blocks for y in blocks if self.rank[x] <= self.rank[y]]
        return InputStructure.build(
            blocks + self.pair_vertices + pads,
            relations={"Adj": adj, "Pre": pre},
            arities=_ARITIES,
        )


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
    pair_vertices = tuple(
        _pair_token(e, sign) for e in sorted(base.edges, key=_edge_token) for sign in (True, False)
    )
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
    return GadgetGraph(base, twist, tuple(blocks), pair_vertices, frozenset(edges), rank)


def pad(gadget: GadgetGraph) -> InputStructure:
    """The gadget's structure with 2**(m*m) isolated vertices adjoined,
    for a gadget over the complete graph on m+1 vertices."""
    m = len(gadget.base.vertices) - 1
    if 2 * len(gadget.base.edges) != m * (m + 1):
        raise ValidationError("gadget base is not a complete graph")
    if m > PAD_MAX_M:
        raise GuardExceeded("pad.max_m", PAD_MAX_M, m)
    return gadget._structure(tuple(f"pad{t}" for t in range(2 ** (m * m))))


# --------------------------------------------------------------- analysis


def _invariants(structure: InputStructure):
    """The isomorphism invariant (m, padding, twist parity) of a coherent
    twisted gadget over a complete base; None for anything else.  ``Adj``
    must list each edge both ways, as :func:`from_structure` checks."""
    adj_pairs, pre = structure.relations_with(_ARITIES)
    adj: dict = {}  # the vertices on some edge -> their neighbours
    for a, b in adj_pairs:
        adj.setdefault(a, set()).add(b)
    classes = preorder_classes(pre)
    if not classes:
        return None
    m = len(classes) - 1
    if m < 1 or any(len(c) != 2 ** (m - 1) for c in classes):
        return None
    class_of = {x: i for i, c in enumerate(classes) for x in c}
    # every name in a relation is an atom, so the atoms on no edge and in
    # no pre-order pair are the isolated ones
    linked = adj.keys() - class_of.keys()
    padding = len(structure.atoms) - len(class_of) - len(linked)
    if padding not in (0, 2 ** (m * m)):
        return None
    # group the linked extras into edge pairs by their incident class pair,
    # and list each pair at its classes as it is made
    pairs: dict = {}
    touching: list = [[] for _ in classes]
    for w in linked:
        touched = {class_of.get(nb) for nb in adj[w]}
        if None in touched:
            return None
        pair = pairs.setdefault(tuple(sorted(touched)), set())
        if not pair:
            for ci in touched:
                touching[ci].append(pair)
        pair.add(w)
    want_pairs = {(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)}
    if set(pairs) != want_pairs or any(len(p) != 2 for p in pairs.values()):
        return None
    for cls, at_class in zip(classes, touching):
        neighbourhoods = set()
        for x in cls:
            # exactly one vertex of each touching pair, and nothing else
            neigh = frozenset(adj.get(x, ()))
            if len(neigh) != m or any(len(p & neigh) != 1 for p in at_class):
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


def recognize_and_classify(structure: InputStructure):
    """Decide whether the structure is an isomorph of a twisted gadget over
    a complete base and return its twist parity (0 or 1); anything else
    yields ``"not-CFI"``."""
    invariants = _invariants(structure)
    return NOT_CFI if invariants is None else invariants[2]


def isomorphic_gadgets(x: InputStructure, y: InputStructure) -> bool:
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


def from_structure(structure: InputStructure) -> InputStructure:
    """The structure itself, once its ``Adj`` and ``Pre`` are binary and
    ``Adj`` lists every edge both ways and no loop."""
    adj, _ = structure.relations_with(_ARITIES)
    if any((b, a) not in adj for (a, b) in adj):
        raise ValidationError("Adj is not symmetric")
    if any(a == b for a, b in adj):
        raise ValidationError("adjacency contains a loop")
    return structure
