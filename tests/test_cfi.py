"""Gadget construction, boundary parity, automorphisms, classification."""

from __future__ import annotations

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiceless_lab import cfi
from choiceless_lab.cfi import (
    NOT_CFI,
    BaseGraph,
    build_twisted,
    complete_graph,
    from_structure,
    isomorphic_gadgets,
    pad,
    recognize_and_classify,
)
from choiceless_lab.errors import GuardExceeded, ValidationError
from choiceless_lab.structures import InputStructure, parse_structure, write_structure

from helpers import (
    GadgetLayout,
    edge_sets,
    gadget_layout,
    gadget_structure,
    partners,
    permuted_structure,
    twin_gadget,
)
from oracles import (
    automorphism_from_edges,
    classify_by_shape,
    distinguish_structure,
    gadget_iso_by_flips,
    odd_boundary,
    twist_parity_by_labelling,
)


def k(n):
    return complete_graph(n)


# ------------------------------------------------------------ construction


def test_build_twisted_counts_k3():
    plain = gadget_layout(build_twisted(k(3), []))
    # two even subsets per degree-2 vertex, two vertices per edge
    assert len(plain.blocks) == 6
    assert len(plain.pairs) == 6
    assert len(plain.structure.atoms) == 12
    twisted = gadget_layout(build_twisted(k(3), ["v1"]))
    assert len(twisted.blocks) == len(plain.blocks)
    odd_names = [t for t in twisted.blocks if t.startswith("u_v1")]
    assert len(odd_names) == 2
    assert all("none" not in t for t in odd_names)  # odd subsets are singletons


@pytest.mark.parametrize("m", [2, 3])
def test_block_count_independent_of_twist(m):
    base = k(m + 1)
    sizes = {
        len(gadget_layout(build_twisted(base, t)).blocks)
        for r in range(m + 2)
        for t in itertools.combinations(base.vertices, r)
    }
    assert sizes == {(m + 1) * 2 ** (m - 1)}


def test_base_graph_validation():
    with pytest.raises(ValidationError):
        BaseGraph(("a", "b"), frozenset())  # disconnected
    with pytest.raises(ValidationError):
        BaseGraph(("a",), frozenset({frozenset({"a"})}))  # loop
    with pytest.raises(ValidationError):
        build_twisted(k(3), ["zz"])


def test_incidence_matches_an_edge_scan():
    path = BaseGraph(tuple("abcde"), frozenset(map(frozenset, ["ab", "bc", "cd", "de"])))
    for base in [complete_graph(n) for n in range(1, 7)] + [path]:
        for v in base.vertices:
            assert base.incident(v) == frozenset(e for e in base.edges if v in e)
        assert base.incident("zz") == frozenset()


# ------------------------------------------------------------ odd boundary


def test_odd_boundary_examples():
    base = k(3)
    e01 = frozenset({"v0", "v1"})
    assert odd_boundary(base, [e01]) == frozenset({"v0", "v1"})
    assert odd_boundary(base, base.edges) == frozenset()  # triangle
    assert odd_boundary(base, []) == frozenset()


@pytest.mark.parametrize("n", [3, 4])
def test_odd_boundary_is_always_even(n):
    base = k(n)
    edges = sorted(base.edges, key=sorted)
    for bits in itertools.product((0, 1), repeat=len(edges)):
        subset = [e for e, on in zip(edges, bits) if on]
        assert len(odd_boundary(base, subset)) % 2 == 0


def test_every_even_set_is_a_boundary_k4():
    base = k(4)
    edges = sorted(base.edges, key=sorted)
    reachable = set()
    for bits in itertools.product((0, 1), repeat=len(edges)):
        subset = [e for e, on in zip(edges, bits) if on]
        reachable.add(odd_boundary(base, subset))
    evens = {
        frozenset(c)
        for r in range(0, 5, 2)
        for c in itertools.combinations(base.vertices, r)
    }
    assert reachable == evens


# ----------------------------------------------------------- automorphisms


def apply_mapping(structure: InputStructure, mapping) -> InputStructure:
    return InputStructure.build(
        [mapping[v] for v in structure.atoms],
        relations={
            name: [tuple(map(mapping.__getitem__, t)) for t in tuples]
            for name, tuples in structure.relations.items()
        },
        arities=structure.arities,
    )


def test_automorphism_identity():
    base = k(3)
    mapping = automorphism_from_edges(base, [], [])
    assert all(v == w for v, w in mapping.items())


def test_automorphism_maps_between_twists():
    base = k(3)
    e01 = frozenset({"v0", "v1"})
    mapping = automorphism_from_edges(base, [], [e01])
    source = build_twisted(base, [])
    target = build_twisted(base, odd_boundary(base, [e01]))
    moved = apply_mapping(source, mapping)
    assert set(moved.atoms) == set(target.atoms)
    assert moved.relations == target.relations


def test_automorphism_composition_is_symmetric_difference():
    base = k(3)
    edges = sorted(base.edges, key=sorted)
    rng = random.Random(3)
    for _ in range(10):
        s1 = frozenset(e for e in edges if rng.random() < 0.5)
        s2 = frozenset(e for e in edges if rng.random() < 0.5)
        t_mid = odd_boundary(base, s1)
        first = automorphism_from_edges(base, [], s1)
        second = automorphism_from_edges(base, t_mid, s2)
        combined = automorphism_from_edges(base, [], s1 ^ s2)
        source = build_twisted(base, [])
        for v in source.atoms:
            assert second[first[v]] == combined[v]


# ----------------------------------------------------------------- padding


def test_pad_counts():
    for n, padding in ((3, 16), (4, 512), (5, 2**16)):
        gadget = build_twisted(k(n), [])
        structure = pad(gadget)
        assert structure.atoms[:-padding] == gadget.atoms
        assert structure.relations == gadget.relations
    structure = pad(build_twisted(k(3), []))
    named = {x for pairs in structure.relations.values() for pair in pairs for x in pair}
    pads = tuple(f"pad{t}" for t in range(16))
    assert structure.atoms[-16:] == pads
    assert named.isdisjoint(pads)


def test_pad_guards():
    with pytest.raises(GuardExceeded, match="pad.max_m"):
        pad(build_twisted(k(6), []))  # m = 5
    path = BaseGraph(("a", "b", "c"), frozenset({frozenset("ab"), frozenset("bc")}))
    with pytest.raises(ValidationError):
        pad(build_twisted(path, []))  # base is not complete
    with pytest.raises(ValidationError):
        pad(pad(build_twisted(k(3), ["v1"])))
    with pytest.raises(ValidationError):
        pad(twin_gadget())
    for twist in ([], ["v0"]):  # a gadget over K2 classifies as not-CFI
        with pytest.raises(ValidationError):
            pad(build_twisted(k(2), twist))
    with pytest.raises(ValidationError):  # Adj one way
        pad(InputStructure.build(["a", "b"], {"Adj": [("a", "b")]}, arities={"Adj": 2, "Pre": 2}))
    with pytest.raises(ValidationError):  # no Adj or Pre
        pad(InputStructure.build(["a", "b"]))


@pytest.mark.parametrize("m", [2, 3])
def test_pad_of_a_renamed_gadget_is_a_renamed_padded_gadget(m):
    base = k(m + 1)
    for r in range(m + 2):
        for seed, twist in enumerate(itertools.combinations(base.vertices, r)):
            gadget = build_twisted(base, twist)
            renamed = permuted_structure(gadget, seed)
            padded = permuted_structure(pad(gadget), seed)
            assert recognize_and_classify(pad(renamed)) == recognize_and_classify(padded)
            assert recognize_and_classify(padded) == len(twist) % 2
            assert isomorphic_gadgets(pad(renamed), padded)


def test_build_twisted_refuses_degree_nine_before_making_a_block(monkeypatch):
    made = []
    monkeypatch.setattr(cfi, "_block_token", lambda *args: made.append(args))
    with pytest.raises(GuardExceeded, match="structure.max_m"):
        build_twisted(k(10), [])  # m = 9
    leaves = tuple(f"s{i}" for i in range(1, 10))
    star = BaseGraph(("s0", *leaves), frozenset(frozenset({"s0", s}) for s in leaves))
    with pytest.raises(GuardExceeded, match="structure.max_m"):
        build_twisted(star, ["s0"])
    assert made == []


# ------------------------------------------------------------ distinguish


def test_distinguish_padded_m2():
    even = pad(build_twisted(k(3), []))
    odd = pad(build_twisted(k(3), ["v0"]))
    assert distinguish_structure(even) == 0
    assert distinguish_structure(odd) == 1


def test_distinguish_invariant_under_renaming():
    even = pad(build_twisted(k(3), ["v0", "v2"]))
    odd = pad(build_twisted(k(3), ["v1"]))
    for seed in range(4):
        assert distinguish_structure(permuted_structure(even, seed)) == 0
        assert distinguish_structure(permuted_structure(odd, seed)) == 1


def test_distinguish_guard():
    big = build_twisted(k(6), [])
    with pytest.raises(ValueError):
        distinguish_structure(big)


# ---------------------------------------------------------------- classify


@pytest.mark.parametrize("m", [2, 3])
def test_classify_matches_twist_parity(m):
    base = k(m + 1)
    for r in range(m + 2):
        for t in itertools.combinations(base.vertices, r):
            structure = build_twisted(base, t)
            assert recognize_and_classify(structure) == len(t) % 2


def test_classify_order_independent():
    structure = build_twisted(k(3), ["v0"])
    rng = random.Random(5)
    for _ in range(6):
        order = list(structure.atoms)
        rng.shuffle(order)
        relisted = InputStructure.build(order, structure.relations, arities=structure.arities)
        assert recognize_and_classify(relisted) == 1
    for seed in range(4):
        moved = permuted_structure(structure, seed)
        assert recognize_and_classify(moved) == 1


def test_classify_rejects_malformed():
    structure = build_twisted(k(3), [])
    # drop one pair vertex: blocks no longer pair up
    keep = tuple(v for v in structure.atoms if not v.endswith("_p"))
    broken = gadget_structure(
        keep,
        {e for e in edge_sets(structure) if e <= set(keep)},
        structure.relations["Pre"],
    )
    assert recognize_and_classify(broken) == NOT_CFI
    lone = gadget_structure(("x", "y"), (), {("x", "x"), ("y", "y"), ("x", "y"), ("y", "x")})
    assert recognize_and_classify(lone) == NOT_CFI


def test_classify_accepts_padded():
    padded = pad(build_twisted(k(3), ["v0", "v1"]))
    assert recognize_and_classify(padded) == 0
    assert distinguish_structure(padded) == 0


def moved_edges(parts: GadgetLayout, picks) -> InputStructure:
    """The gadget with each picked block-pair edge moved to the other
    vertex of its pair: the shape stays, coherence may break."""
    other = partners(parts.pairs)
    edges = set(parts.edges)
    for e in picks:
        x, w = sorted(e, key=lambda v: v in other)
        edges.remove(e)
        edges.add(tuple(sorted((x, other[w]))))
    return gadget_structure(parts.structure.atoms, edges, parts.pre)


def with_pads(structure: InputStructure, m) -> InputStructure:
    """The structure with the 2**(m*m) isolated vertices that ``pad`` lists
    last, made here because ``pad`` refuses a gadget over K2, which
    classifies as not-CFI."""
    pads = tuple(f"pad{t}" for t in range(2 ** (m * m)))
    return InputStructure.build(
        structure.atoms + pads, structure.relations, arities=structure.arities
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_classify_matches_ordered_labelling(data):
    m = data.draw(st.sampled_from([1, 2, 3, 4]))
    base = k(m + 1)
    parts = built(m, frozenset(data.draw(st.sets(st.sampled_from(base.vertices)))), False)
    edges = parts.edges
    if data.draw(st.booleans()):  # moves at one vertex can make twins
        at = data.draw(st.sampled_from(parts.blocks))
        edges = [e for e in edges if at in e]
    picks = data.draw(st.lists(st.sampled_from(edges), max_size=3, unique=True))
    if picks:
        structure = moved_edges(parts, picks)
    else:
        structure = with_pads(parts.structure, m) if data.draw(st.booleans()) else parts.structure
    structure = permuted_structure(structure, data.draw(st.integers(0, 2**32)))
    order = list(structure.atoms)
    random.Random(data.draw(st.integers(0, 2**32))).shuffle(order)
    assert recognize_and_classify(structure) == twist_parity_by_labelling(structure, order)


@pytest.mark.parametrize("m", [2, 3])
def test_classifier_and_choice_search_agree_on_padded(m):
    base = k(m + 1)
    for twist in ([], [base.vertices[0]], list(base.vertices[:2])):
        padded = pad(build_twisted(base, twist))
        by_classifier = recognize_and_classify(padded)
        by_search = distinguish_structure(padded)
        assert by_classifier == by_search == len(twist) % 2


# ------------------------------------------------------------- isomorphism


def test_isomorphism_criterion_k3():
    base = k(3)
    structures = {}
    for r in range(4):
        for t in itertools.combinations(base.vertices, r):
            structures[t] = build_twisted(base, t)
    for t1, s1 in structures.items():
        for t2, s2 in structures.items():
            expected = (len(t1) % 2) == (len(t2) % 2)
            assert isomorphic_gadgets(s1, s2) == expected


def test_isomorphism_survives_renaming():
    s1 = build_twisted(k(3), ["v0"])
    s2 = permuted_structure(build_twisted(k(3), ["v0", "v1", "v2"]), 11)
    assert isomorphic_gadgets(s1, s2)
    s3 = permuted_structure(build_twisted(k(3), []), 12)
    assert not isomorphic_gadgets(s1, s3)


@pytest.mark.parametrize("m", [5, 6])
def test_isomorphism_criterion_large_bases(m):
    base = k(m + 1)
    even = build_twisted(base, [])
    odd = build_twisted(base, base.vertices[:1])
    odd_too = permuted_structure(build_twisted(base, base.vertices[1:4]), m)
    assert not isomorphic_gadgets(even, odd)
    assert isomorphic_gadgets(odd, odd_too)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_isomorphism_matches_flip_search(data):
    m = data.draw(st.sampled_from([2, 3]))
    base = k(m + 1)
    sides = []
    for _ in range(2):
        gadget = build_twisted(base, data.draw(st.sets(st.sampled_from(base.vertices))))
        padded = data.draw(st.booleans())
        structure = pad(gadget) if padded else gadget
        sides.append(permuted_structure(structure, data.draw(st.integers(0, 2**32))))
    x, y = sides
    assert isomorphic_gadgets(x, y) == gadget_iso_by_flips(x, y)


@pytest.mark.parametrize(
    "t1, t2",
    [
        ((), ("v0",)),
        (("v0", "v1"), ("v2", "v4")),
        (("v1",), ("v0", "v2", "v3")),
        (("v0", "v1", "v2"), ()),
    ],
)
def test_isomorphism_matches_flip_search_m4(t1, t2):
    x = build_twisted(k(5), t1)
    y = permuted_structure(build_twisted(k(5), t2), 4)
    expected = len(t1) % 2 == len(t2) % 2
    assert isomorphic_gadgets(x, y) == gadget_iso_by_flips(x, y) == expected


def test_isomorphism_rejects_twin_blocks():
    twin = twin_gadget()
    plain = build_twisted(k(5), [])
    assert recognize_and_classify(twin) == NOT_CFI
    assert not gadget_iso_by_flips(twin, plain)
    with pytest.raises(ValidationError):
        isomorphic_gadgets(twin, plain)
    with pytest.raises(ValidationError):
        isomorphic_gadgets(plain, twin)


_FAULTS = (
    "drop-adj",
    "add-adj",
    "move-adj",
    "rewire",
    "triangle",
    "reverse-pre",
    "move-block",
    "drop-pair",
    "isolated",
)


def faulted(parts: GadgetLayout, fault, rng) -> InputStructure:
    """The built gadget (padded or not) with one fault of the named kind
    at a place ``rng`` picks; None leaves it whole.  ``move-adj`` moves one
    or two edges at one block vertex, mostly to the other vertex of their
    pair (coherence or twins may break, or the twist may change).  Two
    faults keep every degree: ``rewire`` drops one pair edge at each of two
    block vertices of different classes and joins the two, and
    ``triangle`` joins block vertices of three classes and moves one edge
    of each to the other vertex of its pair.  ``isolated`` drops a padding
    vertex or adds one.  Last, the atoms are renamed and relisted.  A fault
    edits the layout's name lists, and one map renames them."""
    vertices, edges, pre = list(parts.structure.atoms), set(parts.edges), parts.pre
    other = partners(parts.pairs)

    def edge(x, y) -> tuple:
        return (x, y) if x < y else (y, x)

    def at(x) -> list:
        return sorted(e for e in edges if x in e)

    def move(e, x, to):
        edges.remove(e)
        edges.add(edge(x, to))

    def members(count) -> list:
        """One block vertex from each of ``count`` distinct classes."""
        ranks = rng.sample(sorted(set(parts.rank.values())), count)
        return [rng.choice([x for x in parts.blocks if parts.rank[x] == r]) for r in ranks]

    if fault == "move-adj":
        x = rng.choice(parts.blocks)
        for e in rng.sample(at(x), rng.choice([1, 2])):
            (w,) = set(e) - {x}
            anywhere = rng.choice([v for v in vertices if v != x])
            move(e, x, other[w] if rng.random() < 0.7 else anywhere)
    elif fault == "rewire":
        x, y = members(2)
        edges -= {rng.choice(at(x)), rng.choice(at(y))}
        edges.add(edge(x, y))
    elif fault == "triangle":
        triangle = members(3)
        for x in triangle:
            e = rng.choice(at(x))
            (w,) = set(e) - {x}
            move(e, x, other[w])
        edges |= {edge(*p) for p in itertools.combinations(triangle, 2)}
    elif fault == "isolated":
        pads = [v for v in vertices if v.startswith("pad")]
        if pads:
            vertices.remove(rng.choice(pads))
        else:
            vertices.append("extra")
    elif fault == "drop-adj":
        edges.remove(rng.choice(parts.edges))
    elif fault == "add-adj":
        e = edge(*rng.sample(vertices, 2))
        while e in edges:
            e = edge(*rng.sample(vertices, 2))
        edges.add(e)
    elif fault == "reverse-pre":
        a, b = rng.choice(pre)
        pre = set(pre)
        pre.remove((a, b))
        pre.add((b, a))
    elif fault == "move-block":
        x = rng.choice(parts.blocks)
        others = sorted(set(parts.rank.values()) - {parts.rank[x]})
        rank = {**parts.rank, x: rng.choice(others)}
        pre = [(a, b) for a in rank for b in rank if rank[a] <= rank[b]]
    elif fault == "drop-pair":
        w = rng.choice(parts.pairs)
        vertices.remove(w)
        edges = {e for e in edges if w not in e}
    name = dict(zip(vertices, rng.sample(vertices, len(vertices)))).__getitem__
    rng.shuffle(vertices)

    def renamed(pairs) -> list:
        names = map(name, itertools.chain.from_iterable(pairs))
        return list(zip(names, names))

    adj = renamed(edges)
    return InputStructure.build(
        list(map(name, vertices)),
        relations={"Adj": adj + [(b, a) for a, b in adj], "Pre": renamed(pre)},
        arities={"Adj": 2, "Pre": 2},
    )


@functools.lru_cache(maxsize=None)
def built(m, twist, padded) -> GadgetLayout:
    gadget = build_twisted(k(m + 1), twist)
    return gadget_layout(pad(gadget), 2 ** (m * m)) if padded else gadget_layout(gadget)


def drawn_gadget(data, m=None, padded=None) -> InputStructure:
    """A renamed gadget over K_{m+1}, m = 2-5, padded only for m <= 3, with
    a random twist and, half the time, one injected fault."""
    if m is None:
        m = data.draw(st.integers(2, 5))
    if padded is None:
        padded = m <= 3 and data.draw(st.booleans())
    twist = data.draw(st.sets(st.sampled_from(k(m + 1).vertices)))
    parts = built(m, frozenset(twist), padded)
    fault = data.draw(st.sampled_from(_FAULTS)) if data.draw(st.booleans()) else None
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    return faulted(parts, fault, rng)


@settings(max_examples=2000, deadline=None)
@given(st.data())
def test_invariants_match_the_shape_record(data):
    x = drawn_gadget(data)
    tx = classify_by_shape(x)
    assert recognize_and_classify(x) == (NOT_CFI if tx is None else tx[2])
    if data.draw(st.booleans()):
        y = drawn_gadget(data)
    else:  # the same m and padding, so that the parity decides
        y = drawn_gadget(data, m=tx[0] if tx else 3, padded=bool(tx and tx[1]))
    ty = classify_by_shape(y)
    if tx is None or ty is None:
        with pytest.raises(ValidationError):
            isomorphic_gadgets(x, y)
    else:
        assert isomorphic_gadgets(x, y) == (tx == ty)


# ------------------------------------------------------------ structure io


def test_structure_roundtrip():
    for structure in (build_twisted(k(3), ["v1"]), pad(build_twisted(k(3), ["v2"]))):
        back = from_structure(parse_structure(write_structure(structure)))
        assert back.relations == structure.relations
        assert recognize_and_classify(back) == recognize_and_classify(structure) == 1


def encode(structure: InputStructure, adj_pairs) -> InputStructure:
    return InputStructure.build(
        list(structure.atoms),
        relations={"Adj": adj_pairs, "Pre": structure.relations["Pre"]},
        arities={"Adj": 2, "Pre": 2},
    )


def test_from_structure_rejects_one_way_adjacency():
    structure = build_twisted(k(3), ["v0"])
    one_way = [(a, b) for a, b in structure.relations["Adj"] if a < b]
    both = one_way + [(b, a) for a, b in one_way]
    back = from_structure(encode(structure, both))
    assert recognize_and_classify(back) == 1
    for adj_pairs in (one_way, both[1:]):
        with pytest.raises(ValidationError, match="Adj is not symmetric"):
            from_structure(encode(structure, adj_pairs))


def test_from_structure_rejects_a_loop():
    structure = build_twisted(k(3), ["v0"])
    loop = (structure.atoms[0],) * 2
    with pytest.raises(ValidationError, match="adjacency contains a loop"):
        from_structure(encode(structure, [*structure.relations["Adj"], loop]))
