"""Segment/feet structures with hyperedges and positive foot triples
(Gurevich and Shelah, "On finite rigid structures", JSL 1996).

Each segment owns exactly two feet.  Hyperedges are 3-element segment
sets; over each hyperedge the eight foot triples split into two classes
of four under "even symmetric difference", and the positive triples are
exactly one of those classes.  A linear order on segments and an optional
distinguished foot, the shoe, complete the picture.  The shoe is an
optional field of the one multipede type, and :func:`validate` checks it
with the other axioms: it must be a foot of the first segment.  A
4-multipede adds the power set of the segments as a further sort; that
sort is padding with no isomorphism content, so it is never built and
shod 4-multipedes are decided as 3-multipedes.

Oddness (every nonempty segment set meets some hyperedge oddly) is the
triviality of the GF(2) column kernel of the hyperedge incidence matrix;
the automorphisms are exactly the foot flips along kernel vectors, so odd
structures are rigid.

Isomorphism with shoes: the four positive triples over a hyperedge differ
two feet at a time, so they agree on the parity of their right feet (an
auxiliary fixed order on foot names separates the two feet; the shoe is
declared left regardless).  That one bit per hyperedge is all a shod
multipede holds beyond its skeleton.  Flipping the feet at a segment set
X changes each hyperedge's bit by the parity of its overlap with X, so
isomorphism, with X avoiding the shoe's segment, is the solvability of a
GF(2) linear system whose right-hand side is the XOR of the two
multipedes' bits.

``Hyper`` and ``Positive`` list every ordering of each triple; a file
that lists fewer is refused, not read as the sets they would collapse to.

A structure lists the segment order ``Leq`` pair by pair, n(n+1)/2 pairs.
It is read, exactly and in time linear in the pairs, from the segments'
degree counts as a total pre-order whose classes are the single segments
(:func:`~choiceless_lab.structures.preorder_classes`).

Both decisions eliminate the incidence matrix packed one int per
hyperedge, with bit i for the segment at order position i (shifted up by
one in the isomorphism system, whose right-hand side takes bit 0).  Which
bits the pivots lead at does not depend on the order of the rows, so no
hyperedge order is chosen; the segment order is part of a 3-multipede.

The random generator samples hyperedges as positions in the listing of
all segment triples and unranks each position to its triple, so it never
lists them.  Flipping two feet keeps the parity of a triple's count of
``b`` feet, so a hyperedge's positivity class is the four triples whose
count has the parity of three random sides.  Its output's structure lists
the segment order pair by pair, so ``STRUCTURE_MAX_TUPLES`` bounds the
tuples it would list, and a larger request raises ``GuardExceeded``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

from .structures import InputStructure, preorder_classes
from .errors import GuardExceeded, ValidationError
from .linalg.matrix import _bitrow_pivots

__all__ = [
    "Multipede2",
    "Multipede3",
    "from_structure",
    "from_structure_lenient",
    "is_odd",
    "iso3_decide",
    "random_multipede",
    "shoe_expansions",
    "to_structure",
    "validate",
]

# a generated file lists 5n tuples for its n segments, their feet and S,
# n(n+1)/2 for the segment order and 30 per hyperedge (Hyper and Positive
# are symmetric): the largest files admitted, 994 segments, or 100 segments
# with 16,481 hyperedges, take under 2 s to write on a 2-core VM
STRUCTURE_MAX_TUPLES = 500_000


@dataclass(frozen=True, eq=False)
class Multipede2:
    """Two-sorted structure: segments, feet, the foot-to-segment map, the
    hyperedges and the positive triples."""

    segments: tuple
    feet: tuple
    segment_of: dict  # foot -> segment
    hyperedges: frozenset  # of 3-element frozensets of segments
    positives: frozenset  # of 3-element frozensets of feet

    def feet_of(self, segment) -> tuple:
        """The two feet of a segment, in the auxiliary (name) order."""
        return self._feet_by_segment.get(segment, ())

    @cached_property
    def _feet_by_segment(self) -> dict:
        by_segment: dict = {}
        for f in sorted(self.feet, key=str):
            by_segment.setdefault(self.segment_of[f], []).append(f)
        return {s: tuple(feet) for s, feet in by_segment.items()}


@dataclass(frozen=True, eq=False)
class Multipede3(Multipede2):
    """A 2-multipede with a linear order on segments and, when shod, the
    shoe: a foot that ``validate`` requires on the first segment."""

    segment_order: tuple = ()
    shoe: str | None = None

    @property
    def first_segment(self):
        return self.segment_order[0]


def validate(m: Multipede3) -> list:
    """All axiom violations, each tagged with a name and witnesses, sorted
    so that no report depends on the iteration order of a set."""
    out = []
    segments = set(m.segments)
    feet_per_segment = Counter(m.segment_of[f] for f in m.feet)
    for s in m.segments:
        count = feet_per_segment[s]
        if count != 2:
            out.append(("two-feet", s, count))
    for f in m.feet:
        if m.segment_of[f] not in segments:
            out.append(("foot-segment", f))
    for h in m.hyperedges:
        if len(h) != 3 or not h <= segments:
            out.append(("hyperedge-shape", tuple(sorted(h, key=str))))
    by_edge: dict = {}
    segment_of = m.segment_of
    for p in m.positives:
        image = frozenset(map(segment_of.get, p))  # None for a non-foot
        on_edge = len(image) == 3 and image in m.hyperedges
        if on_edge:
            by_edge.setdefault(image, set()).add(p)
        if len(p) != 3:
            out.append(("positive-shape", tuple(sorted(p, key=str))))
        elif not on_edge:
            out.append(("positive-image", tuple(sorted(p, key=str))))
    # where each segment has two feet, two triples over one hyperedge,
    # one foot per segment, differ in as many positions as segments where
    # just one of them has the segment's last-listed foot: an even number
    # exactly when their counts of last-listed feet have the same parity
    feet_on = Counter(segment_of.values())
    last = set({s: f for f, s in segment_of.items()}.values())
    for h in m.hyperedges:
        club = by_edge.get(h, set())
        if len(club) != 4:
            out.append(("four-of-eight", tuple(sorted(h, key=str)), len(club)))
        if all(feet_on[s] == 2 for s in h) and all(len(p) == 3 for p in club):
            if len({len(p & last) & 1 for p in club}) < 2:
                continue  # no two differ in an odd number of positions
        for p1, p2 in itertools.combinations(sorted(club, key=sorted), 2):
            # two triples differing in k positions have a 2k-element
            # symmetric difference, so "even position count" means 0 mod 4
            if len(p1 ^ p2) % 4 != 0:
                out.append(
                    ("even-difference", tuple(sorted(p1, key=str)), tuple(sorted(p2, key=str)))
                )
    if m.shoe is not None:
        if m.shoe not in m.feet:
            out.append(("shoe-foot", m.shoe))
        elif m.segment_order[:1] != (m.segment_of[m.shoe],):  # no segments: ()
            out.append(("shoe-segment", m.shoe))
    return sorted(out)


def is_odd(m: Multipede3) -> bool:
    """Whether every nonempty segment set meets some hyperedge oddly: the
    incidence matrix must have full column rank."""
    if not m.segments:
        raise ValidationError("a multipede needs at least one segment")
    bit = {s: 1 << i for i, s in enumerate(m.segment_order)}
    rows = [sum(map(bit.__getitem__, h)) for h in m.hyperedges]
    return len(_bitrow_pivots(rows)) == len(m.segment_order)


def _parities(m: Multipede3) -> dict:
    """Each hyperedge's incidence row, bit i for the segment at order
    position i, mapped to the parity of the right feet in its positive
    triples.  The left foot of a segment is the shoe on the shoe's segment
    and the name-first foot everywhere else."""
    right = {m.feet_of(s)[1] for s in m.segment_order[1:]}
    right.update(f for f in m.feet_of(m.first_segment) if f != m.shoe)
    # a foot weighs 4 times its segment's bit, plus 1 for a right foot, so a
    # triple's total is 4 times its row plus its count of right feet (< 4)
    position = {s: i for i, s in enumerate(m.segment_order)}
    weight = {f: 4 << position[m.segment_of[f]] | (f in right) for f in m.feet}
    totals = (sum(map(weight.__getitem__, p)) for p in m.positives)
    return {total >> 2: total & 1 for total in totals}


def iso3_decide(a: Multipede3, b: Multipede3) -> bool:
    """Isomorphism of shod 3-multipedes by one GF(2) linear system.

    The segment orders align the two skeletons, which must have the same
    incidence rows.  Matching left feet to left feet, except at a segment
    set X, preserves positivity exactly when A x = v, where v is the XOR of
    the two multipedes' parity bits; keeping the shoe fixed forces X to
    avoid the first segment, the extra equation x_0 = 0.  Each equation is
    packed as ``row << 1 | v``, its right-hand side in bit 0, and the
    system is solvable exactly when no sum of equations reads 0 = 1: when
    no pivot of their one elimination leads at bit 0.
    """
    n = len(a.segment_order)
    pa, pb = _parities(a), _parities(b)
    if n != len(b.segment_order) or pa.keys() != pb.keys():
        return False
    shoe = 1 << 1  # x_0 = 0 keeps the shoe on its foot
    equations = [row << 1 | (pa[row] ^ pb[row]) for row in pa]
    return 0 not in _bitrow_pivots([*equations, shoe])


def shoe_expansions(m3: Multipede3):
    """The two shod versions of a 3-multipede (one per foot of the first
    segment)."""
    f1, f2 = m3.feet_of(m3.first_segment)
    return replace(m3, shoe=f1), replace(m3, shoe=f2)


def _triple_at(rank: int, n: int) -> tuple:
    """The triple (a, b, c) that ``itertools.combinations(range(n), 3)``
    lists at position ``rank``.  C(n-1-a, 3) + C(n-1-b, 2) + (n-1-c)
    triples follow it, and each term is the largest of its form that fits."""
    later = math.comb(n, 3) - 1 - rank
    triple = []
    for size in (3, 2, 1):
        x = bisect.bisect_right(range(n), later, key=lambda x: math.comb(x, size)) - 1
        later -= math.comb(x, size)
        triple.append(n - 1 - x)
    return tuple(triple)


def random_multipede(n_segments: int, n_hyperedges: int, seed) -> Multipede3:
    """Random valid 3-multipede: distinct random hyperedges, a uniformly
    chosen positivity class per hyperedge, and a shuffled segment order,
    made in one pass as the module docstring describes."""
    if n_segments < 1 or n_hyperedges < 0:
        raise ValidationError("need at least one segment and a nonnegative hyperedge count")
    if n_segments < 3 and n_hyperedges > 0:
        raise ValidationError("hyperedges need at least three segments")
    total = math.comb(n_segments, 3)
    if n_hyperedges > total:
        raise ValidationError(
            f"requested {n_hyperedges} hyperedges, only {total} exist"
        )
    tuples = 5 * n_segments + n_segments * (n_segments + 1) // 2 + 30 * n_hyperedges
    if tuples > STRUCTURE_MAX_TUPLES:
        raise GuardExceeded("multipede.max_tuples", STRUCTURE_MAX_TUPLES, tuples)
    rng = random.Random(seed)
    segments = [f"s{i:02d}" for i in range(n_segments)]
    hyperedges, positives = [], []
    for rank in rng.sample(range(total), n_hyperedges):
        edge = [segments[i] for i in _triple_at(rank, n_segments)]
        parity = [rng.choice("ab") for _ in edge].count("b") % 2
        hyperedges.append(frozenset(edge))
        positives.extend(
            frozenset(map(str.__add__, edge, sides))
            for sides in itertools.product("ab", repeat=3)
            if sides.count("b") % 2 == parity
        )
    order = segments[:]
    rng.shuffle(order)
    return Multipede3(
        tuple(segments),
        tuple(f"{s}{side}" for s in segments for side in "ab"),
        {f"{s}{side}": s for s in segments for side in "ab"},
        frozenset(hyperedges),
        frozenset(positives),
        tuple(order),
    )


# ------------------------------------------------------------ structure io


_ARITIES = {"Segment": 1, "Foot": 1, "S": 2, "Hyper": 3, "Positive": 3, "Leq": 2, "Shoe": 1}


def to_structure(m: Multipede3):
    """Encode as a structure: sorts via Segment/Foot, the foot map S, the
    symmetric ternary Hyper and Positive, the segment order Leq, and the
    Shoe marker (empty for a bare multipede)."""
    names = [str(s) for s in m.segments] + [str(f) for f in m.feet]
    order = m.segment_order
    leq = [(str(s), str(t)) for i, s in enumerate(order) for t in order[i:]]
    hyper = [
        perm for h in m.hyperedges for perm in itertools.permutations(sorted(h, key=str))
    ]
    pos = [
        perm for p in m.positives for perm in itertools.permutations(sorted(p, key=str))
    ]
    return InputStructure.build(
        names,
        relations={
            "Segment": [(str(s),) for s in m.segments],
            "Foot": [(str(f),) for f in m.feet],
            "S": [(str(f), str(m.segment_of[f])) for f in m.feet],
            "Hyper": hyper,
            "Positive": pos,
            "Leq": leq,
            "Shoe": [] if m.shoe is None else [(str(m.shoe),)],
        },
        arities=_ARITIES,
    )


def _member_sets(name, tuples) -> frozenset:
    """The member sets of the ternary relation ``name``.  It must list
    every ordering of each triple: all orderings of its triples a <= b <= c
    (one per member multiset, so no two share one) and no other tuple."""
    increasing = [t for t in tuples if t[0] <= t[1] <= t[2]]
    sets = list(map(frozenset, increasing))
    listed = all(map(tuples.issuperset, map(itertools.permutations, increasing)))
    # a triple of 1, 2 or 3 distinct members has 1, 3 or 6 orderings
    if not listed or sum((0, 1, 3, 6)[len(s)] for s in sets) != len(tuples):
        raise ValidationError(f"{name} must list every ordering of each of its triples")
    return frozenset(sets)


def from_structure_lenient(structure) -> Multipede3:
    """Decode the carrier, with symmetric ``Hyper`` and ``Positive`` and at
    most one shoe, without enforcing the axioms."""
    segment, foot, s, hyper, positive, leq, shoe = structure.relations_with(_ARITIES)
    segments = tuple(sorted(t[0] for t in segment))
    feet = tuple(sorted(t[0] for t in foot))
    segment_of = dict(s)
    if set(segment_of) != set(feet) or len(segment_of) != len(s):
        raise ValidationError("S must assign one segment to every foot")
    hyperedges = _member_sets("Hyper", hyper)
    positives = _member_sets("Positive", positive)
    classes = preorder_classes(leq)
    order = tuple(s for cls in classes or () for s in cls)
    if classes is None or len(order) != len(classes) or sorted(order) != list(segments):
        raise ValidationError("Leq is not a linear order on segments")
    shoes = [t[0] for t in shoe]
    if len(shoes) > 1:
        raise ValidationError("at most one shoe is allowed")
    shoe = shoes[0] if shoes else None
    return Multipede3(segments, feet, segment_of, hyperedges, positives, order, shoe)


def from_structure(structure) -> Multipede3:
    """Decode a shod multipede, enforcing the axioms."""
    pede = from_structure_lenient(structure)
    violations = validate(pede)
    if violations:
        raise ValidationError(f"invalid multipede: {violations[:3]}")
    if pede.shoe is None:
        raise ValidationError("exactly one shoe is required")
    return pede
