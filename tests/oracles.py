"""Independent brute-force oracles shared by the test suite.

Everything here is deliberately naive: reference implementations that take
a different route than the code under test (ordered dot products, exhaustive
enumeration, fraction-free elimination), so the two sides can be compared.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from collections import Counter, namedtuple
from dataclasses import dataclass, replace
from fractions import Fraction
from importlib import resources

from choiceless_lab.bgs import parse_program
from choiceless_lab.bgs.interp import Updates, _accumulate_active
from choiceless_lab.cfi import _block_token, _edge_token, _pair_token, build_twisted
from choiceless_lab.errors import ParseError, ValidationError
from choiceless_lab.hfset import Atom, make_set
from choiceless_lab.multipede import Multipede2, Multipede3


def naive_mat_mul(field, m, n, row_order, inner_order, col_order):
    """Ordered dot-product matrix multiplication over the field."""
    out = {}
    for i in row_order:
        for k in col_order:
            acc = field.zero
            for j in inner_order:
                acc = field.add(acc, field.mul(m.entry(i, j), n.entry(j, k)))
            if acc != field.zero:
                out[(i, k)] = acc
    return out


def mat_mul_mod(p: int, a, b) -> list:
    """The product of two matrices over the integers modulo ``p``, given as
    lists of rows, by the schoolbook triple loop."""
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) % p for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def field_axiom_violations(field) -> list:
    """Every field axiom that fails on ``field``, by brute force over all
    elements (q**3 triples): identities, inverses, commutativity,
    associativity, distributivity, and a prime characteristic p with
    q a power of p.  Uses only ``add``, ``mul``, ``zero`` and ``one``."""
    q, add, mul = field.order, field.add, field.mul
    zero, one = field.zero, field.one
    els = range(q)
    out = []
    for a in els:
        if add(a, zero) != a or mul(a, one) != a:
            out.append(f"identity fails at {a}")
        if mul(a, zero) != zero:
            out.append(f"zero does not absorb {a}")
        if all(add(a, b) != zero for b in els):
            out.append(f"no additive inverse for {a}")
        if a != zero and all(mul(a, b) != one for b in els):
            out.append(f"no multiplicative inverse for {a}")
        for b in els:
            if add(a, b) != add(b, a) or mul(a, b) != mul(b, a):
                out.append(f"commutativity fails at {a}, {b}")
            for c in els:
                if add(add(a, b), c) != add(a, add(b, c)):
                    out.append(f"additive associativity fails at {a}, {b}, {c}")
                if mul(mul(a, b), c) != mul(a, mul(b, c)):
                    out.append(f"multiplicative associativity fails at {a}, {b}, {c}")
                if mul(a, add(b, c)) != add(mul(a, b), mul(a, c)):
                    out.append(f"distributivity fails at {a}, {b}, {c}")
    # the additive order of one is the characteristic
    acc, p = one, 1
    while acc != zero and p <= q:
        acc, p = add(acc, one), p + 1
    if p != field.characteristic:
        out.append(f"declared characteristic {field.characteristic}, found {p}")
    power = 1
    while power < q:
        power *= p
    if power != q or any(p % d == 0 for d in range(2, p)):
        out.append(f"order {q} is not a power of the prime {p}")
    return out


def hf_model(value, memo=None):
    """A hereditarily finite value as nested Python frozensets: an atom is
    its name, a set is the frozenset of its members' models.  Atoms must
    have distinct names for the model to tell them apart.

    ``memo`` maps each value modelled so far to its model, and each model
    to itself, so a value shared inside ``value`` is modelled once and
    equal models made through one memo are one object.  Without that,
    modelling or comparing ordinal n would visit 2^n nodes."""
    if hasattr(value, "name"):
        return value.name
    if memo is None:
        memo = {}
    found = memo.get(value)
    if found is None:
        model = frozenset(hf_model(m, memo) for m in value.members)
        found = memo[value] = memo.setdefault(model, model)
    return found


def linear_solutions(field, grid, rhs, width) -> list:
    """All vectors x of length ``width`` over ``range(order)`` with
    ``grid x = rhs``, by enumerating every vector and taking ordered dot
    products."""
    out = []
    for x in itertools.product(range(field.order), repeat=width):
        ok = True
        for row, b in zip(grid, rhs):
            acc = field.zero
            for a, v in zip(row, x):
                acc = field.add(acc, field.mul(a, v))
            if acc != b:
                ok = False
                break
        if ok:
            out.append(x)
    return out


def bareiss_det(rows) -> int:
    """Exact integer determinant by fraction-free elimination (n <= 6)."""
    n = len(rows)
    if n > 6:
        raise ValueError("oracle limited to n <= 6")
    if n == 0:
        return 1
    a = [[int(v) for v in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                assert num % prev == 0
                a[i][j] = num // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def leibniz_det_mod(rows, p) -> int:
    """Determinant modulo p by the permutation expansion (n <= 5)."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= rows[i][perm[i]]
        total += term
    return total % p


def gl_order(q: int, n: int) -> int:
    """Order of the group of invertible n-by-n matrices over the field of
    order q: the product of ``q**n - q**i`` for ``i < n``."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return math.prod(q**n - q**i for i in range(n))


def max_matching_brute(a_side, edges) -> int:
    """Maximum matching size by exhaustive branch over A-vertices."""
    a_list = sorted(a_side, key=repr)
    adj = {a: sorted((b for x, b in edges if x == a), key=repr) for a in a_list}

    def best(idx, used):
        if idx == len(a_list):
            return 0
        skip = best(idx + 1, used)
        take = 0
        for b in adj[a_list[idx]]:
            if b not in used:
                used.add(b)
                take = max(take, 1 + best(idx + 1, used))
                used.remove(b)
        return max(skip, take)

    return best(0, set())


def hall_condition_direct(a_side, edges) -> bool:
    """Check every subset of A against its neighbourhood size."""
    a_list = sorted(a_side, key=repr)
    neigh = {a: {b for x, b in edges if x == a} for a in a_list}
    for r in range(len(a_list) + 1):
        for subset in itertools.combinations(a_list, r):
            reach = set()
            for a in subset:
                reach |= neigh[a]
            if len(reach) < len(subset):
                return False
    return True


def max_matching_by_padding(a_side, b_side, edges, hall=hall_condition_direct) -> int:
    """Maximum matching size as |A| minus the fewest B-vertices adjacent
    to all of A whose addition satisfies Hall's condition, which
    ``hall(a_side, edges)`` decides: by default over every subset of A."""
    pad_tag = "pad"
    while any(isinstance(b, tuple) and b and b[0] == pad_tag for b in b_side):
        pad_tag = pad_tag + "_"
    for s in range(len(a_side) + 1):
        pads = [(pad_tag, t) for t in range(s)]
        padded = set(edges) | {(a, p) for a in a_side for p in pads}
        if hall(a_side, padded):
            return len(a_side) - s
    raise AssertionError("padding with |A| vertices always satisfies Hall's condition")


def partial_product(q: float, terms: int = 64) -> float:
    """Reference constant: product over j of (1 - q**-j)."""
    acc = 1.0
    for j in range(1, terms + 1):
        acc *= 1.0 - q ** (-j)
    return acc


def fo_model_check(sentence, universe, relations) -> bool:
    """Direct first-order model checking over a tiny structure.

    Sentence nodes: ("ex"|"all", var, body), ("and"|"or", l, r),
    ("not", body), ("rel", name, (vars...)), ("eq", v1, v2).
    """

    def ev(node, env):
        tag = node[0]
        if tag == "ex":
            return any(ev(node[2], {**env, node[1]: u}) for u in universe)
        if tag == "all":
            return all(ev(node[2], {**env, node[1]: u}) for u in universe)
        if tag == "and":
            return ev(node[1], env) and ev(node[2], env)
        if tag == "or":
            return ev(node[1], env) or ev(node[2], env)
        if tag == "not":
            return not ev(node[1], env)
        if tag == "rel":
            return tuple(env[v] for v in node[2]) in relations[node[1]]
        if tag == "eq":
            return env[node[1]] == env[node[2]]
        raise ValueError(f"bad node {node!r}")

    return ev(sentence, {})


def stable_coloring_dense(a_side, b_side, edges) -> tuple:
    """Coarsest stable coloring as ``(a_blocks, b_blocks)``, by dense count
    vectors.  Each round, both sides at once: a vertex's vector counts its
    edges into every block of the opposite side, and a block splits into
    subblocks in ascending vector order, in its own position.  Rounds
    repeat until no block splits."""
    adj = {v: set() for v in set(a_side) | set(b_side)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)

    def refine(blocks, opposite):
        out = []
        for block in blocks:
            by_vector = {}
            for v in block:
                vector = tuple(len(adj[v] & ob) for ob in opposite)
                by_vector.setdefault(vector, set()).add(v)
            out.extend(frozenset(by_vector[vec]) for vec in sorted(by_vector))
        return tuple(out)

    a_blocks = (frozenset(a_side),) if a_side else ()
    b_blocks = (frozenset(b_side),) if b_side else ()
    while True:
        new = refine(a_blocks, b_blocks), refine(b_blocks, a_blocks)
        if new == (a_blocks, b_blocks):
            return new
        a_blocks, b_blocks = new


def gadget_parts(g) -> tuple:
    """``(adj, classes, pairs, padding)`` of a gadget-shaped structure
    (its ``atoms``, the edges ``Adj`` and the pre-order ``Pre``).  Classes
    are the members of the pre-order with equal upward sets, largest
    upward set first; ``pairs`` maps each set of classes touched by a
    linked vertex outside the pre-order to those vertices (a neighbour
    outside every class counts as class None); the isolated vertices
    outside the pre-order are padding."""
    adj = {v: set() for v in g.atoms}
    for a, b in g.relations["Adj"]:
        adj[a].add(b)
        adj[b].add(a)
    upward = {}
    for a, b in g.relations["Pre"]:
        upward.setdefault(a, set()).add(b)
        upward.setdefault(b, set())
    by_upward = {}
    for v, up in upward.items():
        by_upward.setdefault(frozenset(up), []).append(v)
    classes = [by_upward[key] for key in sorted(by_upward, key=len, reverse=True)]
    class_of = {v: i for i, cls in enumerate(classes) for v in cls}
    pairs, padding = {}, 0
    for v in g.atoms:
        if v in class_of:
            continue
        if not adj[v]:
            padding += 1
            continue
        key = frozenset(class_of.get(w) for w in adj[v])
        pairs.setdefault(key, []).append(v)
    return adj, classes, pairs, padding


# distinguish_structure tries 2**(m*(m+1)/2) choices of one vertex per pair
DISTINGUISH_MAX_M = 4


def distinguish_structure(g) -> int:
    """Twist parity of a gadget by search (see ``gadget_parts``): exhaust
    all choices of one vertex per edge pair; report 0 when some choice
    leaves every class with a member adjacent to chosen vertices only,
    else 1.  Refuses gadgets with m above ``DISTINGUISH_MAX_M``."""
    adj, classes, pairs, _ = gadget_parts(g)
    m = len(classes) - 1
    if m > DISTINGUISH_MAX_M:
        raise ValueError(f"the search needs m <= {DISTINGUISH_MAX_M}, got {m}")
    for pick in itertools.product(*pairs.values()):
        chosen = frozenset(pick)
        if all(any(adj[v] <= chosen for v in cls) for cls in classes):
            return 0
    return 1


def gadget_iso_by_flips(x, y) -> bool:
    """Isomorphism of two gadget-shaped structures by the maps that keep
    every pre-order class and every edge pair (see ``gadget_parts``): try
    each straight/swapped choice per pair, which works when, class by
    class, the multiset of image neighbourhoods of x's members equals the
    multiset of y's neighbourhoods."""
    adj_x, classes_x, pairs_x, padding_x = gadget_parts(x)
    adj_y, classes_y, pairs_y, padding_y = gadget_parts(y)
    if len(classes_x) != len(classes_y) or padding_x != padding_y:
        return False
    if pairs_x.keys() != pairs_y.keys():
        return False
    if any(len(p) != 2 for p in (*pairs_x.values(), *pairs_y.values())):
        return False
    keys = list(pairs_x)
    for flips in itertools.product((False, True), repeat=len(keys)):
        image = {}
        for key, flip in zip(keys, flips):
            (x1, x2), (y1, y2) = pairs_x[key], pairs_y[key]
            image[x1], image[x2] = (y2, y1) if flip else (y1, y2)
        if all(
            Counter(frozenset(image[w] for w in adj_x[v]) for v in cls_x)
            == Counter(frozenset(adj_y[v]) for v in cls_y)
            for cls_x, cls_y in zip(classes_x, classes_y)
        ):
            return True
    return False


def twist_parity_by_labelling(g, order):
    """Twist parity (0 or 1) of a gadget over the complete graph on m+1
    vertices by an ordered labelling, or ``"not-CFI"``.  The vertex of each
    edge pair listed first in ``order`` is plus.  The structure must have
    m+1 classes of 2^(m-1) members, an edge pair of two vertices for each
    two classes, no padding or 2^(m*m) padding vertices, and every member
    meeting exactly one vertex of each pair touching its class; every two
    members of a class must differ in sign on a positive even number of
    pairs.  Then choose every minus vertex and count, mod 2, the classes
    with no member adjacent to chosen vertices only.  The pre-order is
    taken to be linear, as in a gadget."""
    adj, classes, pairs, padding = gadget_parts(g)
    m = len(classes) - 1
    want = {frozenset({i, j}) for i in range(m + 1) for j in range(i + 1, m + 1)}
    if (
        m < 1
        or any(len(cls) != 2 ** (m - 1) for cls in classes)
        or padding not in (0, 2 ** (m * m))
        or set(pairs) != want
        or any(len(p) != 2 for p in pairs.values())
    ):
        return "not-CFI"
    position = {v: i for i, v in enumerate(order)}
    plus, minus = {}, {}
    for key, pair in pairs.items():
        plus[key], minus[key] = sorted(pair, key=position.__getitem__)
    for i, cls in enumerate(classes):
        touching = [key for key in pairs if i in key]
        signs = []
        for v in cls:
            if len(adj[v]) != m or any(len(adj[v] & set(pairs[key])) != 1 for key in touching):
                return "not-CFI"
            signs.append([plus[key] in adj[v] for key in touching])
        for s1, s2 in itertools.combinations(signs, 2):
            differ = sum(1 for a, b in zip(s1, s2) if a != b)
            if differ == 0 or differ % 2 == 1:
                return "not-CFI"
    chosen = set(minus.values())
    bad = sum(1 for cls in classes if not any(adj[v] <= chosen for v in cls))
    return bad % 2


def left_foot(m, segment):
    """The name-first foot of a segment, except that the shoe is always
    the left foot of its segment."""
    f1, f2 = sorted((f for f in m.feet if m.segment_of[f] == segment), key=str)
    if m.shoe in (f1, f2):
        return m.shoe
    return f1


def right_foot(m, segment):
    f1, f2 = sorted((f for f in m.feet if m.segment_of[f] == segment), key=str)
    left = left_foot(m, segment)
    return f2 if left == f1 else f1


def brute_force_iso(a, b) -> bool:
    """Isomorphism of two shod multipedes by exhaustive matching search,
    shoe to shoe: flip any subset of the non-first segments of the base
    left-to-left matching."""
    if len(a.segment_order) != len(b.segment_order):
        return False
    a_idx = {s: i for i, s in enumerate(a.segment_order)}
    b_order = b.segment_order
    a_rows = {
        frozenset(a_idx[s] for s in h) for h in a.hyperedges
    }
    b_idx = {s: i for i, s in enumerate(b_order)}
    b_rows = {frozenset(b_idx[s] for s in h) for h in b.hyperedges}
    if a_rows != b_rows:
        return False
    n = len(a.segment_order)
    for bits in itertools.product((0, 1), repeat=n - 1):
        mapping = {}
        for pos, (sa, sb) in enumerate(zip(a.segment_order, b_order)):
            la, ra = left_foot(a, sa), right_foot(a, sa)
            lb, rb = left_foot(b, sb), right_foot(b, sb)
            if pos > 0 and bits[pos - 1]:
                lb, rb = rb, lb
            mapping[la], mapping[ra] = lb, rb
        if all(
            frozenset(mapping[f] for f in p) in b.positives
            for p in a.positives
        ):
            return True
    return False


def _incidence_rows(m) -> dict:
    bit = {s: 1 << i for i, s in enumerate(m.segment_order)}
    return {h: sum(map(bit.__getitem__, h)) for h in m.hyperedges}


def _base_matching(a, b) -> dict:
    """Left feet to left feet, right to right, segment by order position."""
    mu = {}
    for sa, sb in zip(a.segment_order, b.segment_order):
        mu[left_foot(a, sa)] = left_foot(b, sb)
        mu[right_foot(a, sa)] = right_foot(b, sb)
    return mu


def _defect(a, b) -> dict:
    """Per hyperedge of ``a``: 0 when the base matching preserves
    positivity there, 1 otherwise."""
    mu = _base_matching(a, b)
    reps: dict = {}
    for p in a.positives:
        reps.setdefault(frozenset(a.segment_of[f] for f in p), p)
    defect = {}
    for h in a.hyperedges:
        rep = reps.get(h)
        if rep is None:
            raise ValidationError("hyperedge without positive triples; validate first")
        defect[h] = int(frozenset(mu[f] for f in rep) not in b.positives)
    return defect


def _rank_gf2(rows, width) -> int:
    """Rank over GF(2) of rows packed as ints of ``width`` bits, by plain
    elimination on lists of bits, one column at a time."""
    grid = [[row >> k & 1 for k in range(width)] for row in rows]
    rank = 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(grid)) if grid[r][col]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        for r in range(len(grid)):
            if r != rank and grid[r][col]:
                grid[r] = [x ^ y for x, y in zip(grid[r], grid[rank])]
        rank += 1
    return rank


def iso3_by_base_matching(a, b) -> bool:
    """Isomorphism of shod 3-multipedes from an explicit foot-to-foot base
    matching: one representative image triple per hyperedge gives the
    defect vector v of the system A x = v, x_0 = 0, kept as the
    differential oracle of the parity-bit decider."""
    n = len(a.segment_order)
    rows = _incidence_rows(a)
    skeleton = set(_incidence_rows(b).values())
    if n != len(b.segment_order) or set(rows.values()) != skeleton:
        return False
    defect = _defect(a, b)
    shoe = 1  # x_0 = 0 keeps the shoe on its foot
    augmented = [row | defect[h] << n for h, row in rows.items()]
    width = n + 1
    return _rank_gf2(augmented + [shoe], width) == _rank_gf2([*rows.values(), shoe], width)


def even_difference_pairwise(m) -> list:
    """The "even-difference" violations ``multipede.validate`` reports,
    sorted, found by testing every two positive triples over a hyperedge:
    triples differing in k positions have a 2k-element symmetric
    difference, so an odd k leaves a remainder mod 4."""
    out = []
    for h in m.hyperedges:
        club = [p for p in m.positives if len(h) == 3 and frozenset(map(m.segment_of.get, p)) == h]
        for p1, p2 in itertools.combinations(sorted(club, key=sorted), 2):
            if len(p1 ^ p2) % 4 != 0:
                out.append(
                    ("even-difference", tuple(sorted(p1, key=str)), tuple(sorted(p2, key=str)))
                )
    return sorted(out)


# ------------------------------------------- helpers the library dropped


def load_builtin_program(name: str):
    """Parse one of the programs shipped with the package (by stem name)."""
    text = resources.files("choiceless_lab").joinpath("programs", f"{name}.bgs").read_text()
    return parse_program(text)


def active_count(trace) -> int:
    """Number of elements hereditarily involved in the traced update sets,
    each a collection of (symbol, argument tuple, value) triples, counted
    by the interpreter's own active walk over write maps.  A triple that
    gives a location a second value starts a new walk, so every triple is
    walked even where a set of them would clash."""
    active: set = set()
    ordinals = 0
    for updates in trace:
        maps: dict = {}
        for symbol, args, value in updates:
            if maps.setdefault(symbol, {}).setdefault(args, value) is not value:
                ordinals = _accumulate_active(Updates(maps), active, ordinals)
                maps = {symbol: {args: value}}
        ordinals = _accumulate_active(Updates(maps), active, ordinals)
    return len(active) + ordinals


def is_atom(value) -> bool:
    return isinstance(value, Atom)


def ordered_pair(x, y):
    """The coded ordered pair ``{{x}, {x, y}}``."""
    return make_set((make_set((x,)), make_set((x, y))))


def odd_boundary(base, edge_subset) -> frozenset:
    """Base vertices meeting an odd number of the given edges."""
    edge_subset = frozenset(edge_subset)
    if not edge_subset <= base.edges:
        raise ValidationError("edge subset leaves the base graph")
    return frozenset(
        v for v in base.vertices if sum(1 for e in edge_subset if v in e) % 2 == 1
    )


def automorphism_from_edges(base, twist, edge_subset) -> dict:
    """The vertex map induced by an edge set: swap the pair vertices of the
    chosen edges and twist every block vertex by its incident chosen edges.
    Maps the twist-T graph onto the graph twisted at T xor the odd
    boundary."""
    edge_subset = frozenset(edge_subset)
    source = build_twisted(base, twist)
    mapping = {}
    for e in base.edges:
        flip = e in edge_subset
        mapping[_pair_token(e, True)] = _pair_token(e, not flip)
        mapping[_pair_token(e, False)] = _pair_token(e, flip)
    for v in base.vertices:
        incident = base.incident(v)
        local = incident & edge_subset
        want_odd = v in frozenset(twist)
        for r in range(len(incident) + 1):
            for combo in itertools.combinations(sorted(incident, key=_edge_token), r):
                if (len(combo) % 2 == 1) != want_odd:
                    continue
                x_set = frozenset(combo)
                mapping[_block_token(v, x_set)] = _block_token(v, x_set ^ local)
    assert set(mapping) >= set(source.atoms)
    return mapping


def automorphism_count(m) -> int:
    """Number of automorphisms of a 3-multipede: two to the dimension of
    the foot flips meeting every hyperedge evenly, the column kernel of the
    incidence matrix, by elimination on one bit row per hyperedge."""
    bit = {s: 1 << i for i, s in enumerate(m.segment_order)}
    pivots: dict = {}  # leading bit -> reduced row
    for h in m.hyperedges:
        row = sum(bit[s] for s in h)
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row:
            pivots[row.bit_length()] = row
    return 2 ** (len(bit) - len(pivots))


def flip_feet(m, segments_to_flip):
    """The multipede with the two feet of the chosen segments exchanged in
    every positive triple (same carrier, twisted positivity)."""
    flip = frozenset(segments_to_flip)
    swap = {}
    for s in m.segments:
        f1, f2 = m.feet_of(s)
        if s in flip:
            swap[f1], swap[f2] = f2, f1
        else:
            swap[f1], swap[f2] = f1, f2
    positives = frozenset(frozenset(swap[f] for f in p) for p in m.positives)
    return replace(m, positives=positives)


# ------------------------------------------------ the atom-making reader

AtomStructure = namedtuple("AtomStructure", "atoms relations functions arities by_name")


def _build_atoms(atom_names, relations, functions, declared) -> AtomStructure:
    """The structure check as it was when the reader made one atom per
    name and mapped every tuple onto atoms."""
    atoms = tuple(map(Atom, atom_names))
    by_name = {a.name: a for a in atoms}
    if len(by_name) != len(atoms):
        raise ValidationError("atom names must be unique")

    def lookup(kind, name, tuples):
        try:
            return [tuple(map(by_name.__getitem__, tup)) for tup in tuples]
        except KeyError as exc:
            raise ValidationError(
                f"{kind} {name} mentions unknown atom {exc.args[0]!r}"
            ) from None

    def resolve(kind, name, tuples):
        resolved = lookup(kind, name, tuples)
        arity = declared.get(name)
        if arity is None:
            if not resolved:
                raise ValidationError(f"empty {kind} {name} needs an explicit arity")
            arity = declared[name] = len(resolved[0])
        if any(len(tup) != arity for tup in resolved):
            raise ValidationError(f"{kind} {name} tuple arity mismatch")
        return resolved

    rels = {
        name: frozenset(resolve("relation", name, tuples)) for name, tuples in relations.items()
    }
    funs = {}
    for name, table in functions.items():
        args = resolve("function", name, table)
        expected = len(atoms) ** declared[name]
        if len(args) != expected:
            raise ValidationError(
                f"function {name} must be total on the universe"
                f" ({len(args)} of {expected} tuples)"
            )
        (values,) = lookup("function", name, [table.values()])
        funs[name] = dict(zip(args, values))
    return AtomStructure(atoms, rels, funs, declared, by_name)


_ATOM_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.+-]*$")


def _tuple_names(chunk: str) -> tuple:
    return tuple(map(str.strip, chunk.split(","))) if chunk.strip() else ()


def parse_structure_atoms(text: str) -> AtomStructure:
    """The ``.str`` reader that made one atom per listed name, kept as the
    differential oracle of ``parse_structure``: it reads every tuple the
    general way, chunk by chunk, and maps it onto atoms."""
    atom_names = None
    relations: dict = {}
    functions: dict = {}
    declared: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if line.startswith("atoms:"):
            if atom_names is not None:
                raise ParseError("duplicate atoms line", line_no)
            atom_names = line[len("atoms:"):].split()
            bad = next(itertools.filterfalse(_ATOM_NAME_RE.match, atom_names), None)
            if bad is not None:
                raise ParseError(f"bad name {bad!r}", line_no)
            continue
        m = re.match(r"(rel|fun)\s+([A-Za-z_][A-Za-z0-9_]*)/(\d+)\s*:(.*)$", line)
        if m is None:
            raise ParseError(f"unrecognized line {line!r}", line_no)
        kind, name, arity, rest = m.groups()
        if name in declared:
            raise ParseError(f"duplicate symbol {name!r}", line_no)
        declared[name] = int(arity)
        if kind == "rel":
            tuples = {_tuple_names(chunk) for chunk in re.findall(r"\(([^()]*)\)", rest)}
            leftover = re.sub(r"\([^()]*\)", "", rest).strip()
            if leftover:
                raise ParseError(f"stray text {leftover!r} in {name}", line_no)
            relations[name] = tuples
        else:
            cells = re.findall(r"\(([^()]*)\)\s*->\s*([A-Za-z0-9_.+-]+)", rest)
            table = {_tuple_names(chunk): out for chunk, out in cells}
            if len(table) != len(cells):
                raise ParseError(f"function {name} lists an argument tuple twice", line_no)
            leftover = re.sub(r"\([^()]*\)\s*->\s*[A-Za-z0-9_.+-]+", "", rest).strip()
            if leftover:
                raise ParseError(f"stray text {leftover!r} in {name}", line_no)
            functions[name] = table
    if atom_names is None:
        raise ParseError("missing atoms: line")
    try:
        return _build_atoms(atom_names, relations, functions, declared)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


# ------------------------------------------------ the set-based order readers


def preorder_classes_by_upward_sets(preorder):
    """The pre-order grouping ``cfi._analyze`` made before it read degree
    counts, verbatim: each element's upward set is built, the elements are
    grouped by identical upward sets, and every group's set must be itself
    and the later groups.  The classes earliest first, or None."""
    field_set = {x for pair in preorder for x in pair}
    if not field_set:
        return None
    before = {x: set() for x in field_set}  # everything x is ordered no later than
    for x, y in preorder:
        before[x].add(y)
    # group by identical upward sets; a linear pre-order makes each class's
    # upward set exactly the union of itself and the later classes
    by_upward: dict = {}
    for x in field_set:
        by_upward.setdefault(frozenset(before[x]), set()).add(x)
    ordered_keys = sorted(by_upward, key=len, reverse=True)
    classes = [frozenset(by_upward[key]) for key in ordered_keys]
    expected: set = set()
    for key, cls in zip(reversed(ordered_keys), reversed(classes)):
        expected |= cls
        if set(key) != expected:
            return None
    return classes


def leq_order_by_pair_set(segments, leq):
    """The segment order ``multipede.from_structure_lenient`` read before it
    read degree counts, verbatim: sort by the count of later segments and
    compare ``Leq`` with the n(n+1)/2 pairs of that order.  The order, or
    None when ``Leq`` is not a linear order on the segments."""
    later_counts = Counter(x for (x, _) in leq)
    order = tuple(sorted(segments, key=lambda s: -later_counts[s]))
    if leq != {(s, t) for i, s in enumerate(order) for t in order[i:]}:
        return None
    return order


# ---------------------------------------- the listing multipede generator


def _from_representatives(segments, hyperedges, representatives) -> Multipede2:
    """Build with feet named ``<segment>a`` / ``<segment>b``, expanding
    one representative triple per hyperedge into its full positivity
    class (the triples of even symmetric difference)."""
    segments = tuple(segments)
    feet = tuple(f"{s}{side}" for s in segments for side in ("a", "b"))
    segment_of = {f"{s}{side}": s for s in segments for side in ("a", "b")}
    positives: set = set()
    for edge, rep in representatives.items():
        edge = frozenset(edge)
        positives.update(_positivity_class(edge, frozenset(rep), segment_of))
    return Multipede2(segments, feet, segment_of, frozenset(map(frozenset, hyperedges)), frozenset(positives))


def _positivity_class(edge, rep, segment_of) -> set:
    """The four triples with even symmetric difference from the given one."""
    by_segment = {segment_of[f]: f for f in rep}
    if frozenset(by_segment) != edge:
        raise ValidationError(f"representative {set(rep)} does not cover {set(edge)}")
    pair_of = {}
    for f, s in segment_of.items():
        if s in by_segment:
            pair_of.setdefault(s, set()).add(f)
    out = set()
    segs = sorted(edge, key=str)
    for flip_two in [()] + list(itertools.combinations(segs, 2)):
        triple = set()
        for s in segs:
            chosen = by_segment[s]
            if s in flip_two:
                (chosen,) = pair_of[s] - {chosen}
            triple.add(chosen)
        out.add(frozenset(triple))
    return out


def random_multipede_listing(n_segments: int, n_hyperedges: int, seed) -> Multipede3:
    """The generator that lists every segment triple to sample from and
    expands one representative triple per hyperedge, kept as the
    differential oracle of ``random_multipede``."""
    if n_segments < 1 or n_hyperedges < 0:
        raise ValidationError("need at least one segment and a nonnegative hyperedge count")
    if n_segments < 3 and n_hyperedges > 0:
        raise ValidationError("hyperedges need at least three segments")
    total = (
        n_segments * (n_segments - 1) * (n_segments - 2) // 6 if n_segments >= 3 else 0
    )
    if n_hyperedges > total:
        raise ValidationError(
            f"requested {n_hyperedges} hyperedges, only {total} exist"
        )
    rng = random.Random(seed)
    segments = [f"s{i:02d}" for i in range(n_segments)]
    combos = list(itertools.combinations(segments, 3))
    hyperedges = [frozenset(c) for c in rng.sample(combos, n_hyperedges)]
    representatives = {}
    for h in hyperedges:
        rep = frozenset(f"{s}{rng.choice('ab')}" for s in h)
        representatives[h] = rep
    order = segments[:]
    rng.shuffle(order)
    base = _from_representatives(segments, hyperedges, representatives)
    return Multipede3(
        base.segments,
        base.feet,
        base.segment_of,
        base.hyperedges,
        base.positives,
        tuple(order),
    )


# ------------------------------------------------ the shape-record classifier


@dataclass(frozen=True, eq=False)
class _Shape:
    m: int
    classes: tuple  # ordered tuple of frozensets of block vertices
    pairs: dict  # (ci, cj) with ci < cj -> frozenset of the two pair vertices
    pair_neighbours: dict  # block vertex -> frozenset of its pair-vertex edges
    padding: int


def _analyze(structure):
    """Decompose a coherent twisted gadget over a complete base into
    ordered blocks, edge pairs and padding; None for anything else."""
    adj: dict = {}
    for a, b in structure.relations["Adj"]:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    classes = preorder_classes_by_upward_sets(structure.relations["Pre"])
    if not classes:
        return None
    m = len(classes) - 1
    if m < 1 or any(len(c) != 2 ** (m - 1) for c in classes):
        return None
    class_of = {x: i for i, c in enumerate(classes) for x in c}
    # every vertex on an edge or in the pre-order is an atom, so the atoms
    # on neither are the isolated ones
    linked = adj.keys() - class_of.keys()
    isolated = len(structure.atoms) - len(class_of) - len(linked)
    if isolated not in (0, 2 ** (m * m)):
        return None
    # group the linked extras into edge pairs by their incident class pair
    groups: dict = {}
    for w in linked:
        touched = {class_of.get(nb) for nb in adj[w]}
        if None in touched or len(touched) != 2:
            return None
        groups.setdefault(tuple(sorted(touched)), set()).add(w)
    want_pairs = {(i, j) for i in range(m + 1) for j in range(i + 1, m + 1)}
    if set(groups) != want_pairs or any(len(g) != 2 for g in groups.values()):
        return None
    pairs = {key: frozenset(g) for key, g in groups.items()}
    pair_neighbours = {}
    for ci, cls in enumerate(classes):
        touching = [p for key, p in pairs.items() if ci in key]
        for x in cls:
            # exactly one vertex of each touching pair, and nothing else
            neigh = frozenset(adj.get(x, ()))
            if len(neigh) != m or any(len(p & neigh) != 1 for p in touching):
                return None
            pair_neighbours[x] = neigh
        # coherence: members meet different vertices on len(N(x) ^ N(y)) // 2
        # pairs, and each two differ on a positive even number of them;
        # parity is additive, so evenness against one member suffices
        neighbourhoods = {pair_neighbours[x] for x in cls}
        first = next(iter(neighbourhoods))
        if len(neighbourhoods) != len(cls) or any(
            len(n ^ first) % 4 for n in neighbourhoods
        ):
            return None
    return _Shape(m, tuple(classes), pairs, pair_neighbours, isolated)


def _twist_parity(shape: _Shape) -> int:
    """The number of edge pairs whose two end blocks' members meet
    different vertices of the pair, mod 2, for any one member per block:
    members of one block differ on an even number of pairs."""
    member = [next(iter(cls)) for cls in shape.classes]
    meets = shape.pair_neighbours
    return sum(not meets[member[i]] & meets[member[j]] for i, j in shape.pairs) % 2


def classify_by_shape(structure):
    """The (m, padding, twist parity) of a coherent gadget, or None, read
    through the shape record ``cfi`` built before it returned the triple
    directly: ordered classes, edge pairs and every block vertex's
    neighbourhood, kept as the differential oracle of ``cfi._invariants``.
    The pre-order is read from upward sets, not degree counts."""
    shape = _analyze(structure)
    return None if shape is None else (shape.m, shape.padding, _twist_parity(shape))
