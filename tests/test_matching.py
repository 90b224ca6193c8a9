"""Matching pipeline: path algorithm, coloring, saturation, quotient."""

from __future__ import annotations

import collections
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiceless_lab import matching
from choiceless_lab.errors import ValidationError
from choiceless_lab.matching import (
    BipartiteGraph,
    StableColoring,
    decide_complete_matching,
    graph_from_structure,
    graph_to_structure,
    max_matching_size,
    path_algorithm,
    quotient,
    stable_coloring,
)

from helpers import run_child, saturate
from oracles import (
    hall_condition_direct,
    max_matching_brute,
    max_matching_by_padding,
    stable_coloring_dense,
)


def graph(a, b, edges):
    return BipartiteGraph.build(a, b, edges)


def gang_defector():
    """Two size-two gangs; one boy defects to the other gang while the
    girls stay put, destroying the matching."""
    boys = ["a1", "a2", "a3", "a4"]
    girls = ["b1", "b2", "b3", "b4"]
    edges = [("a2", "b1"), ("a2", "b2")]
    edges += [(a, b) for a in ("a1", "a3", "a4") for b in ("b3", "b4")]
    return graph(boys, girls, edges)


def all_graphs(na, nb):
    a = [f"a{i}" for i in range(na)]
    b = [f"b{j}" for j in range(nb)]
    cells = [(x, y) for x in a for y in b]
    for bits in itertools.product((0, 1), repeat=len(cells)):
        yield graph(a, b, [c for c, on in zip(cells, bits) if on])


def random_graph(rng, max_side=8):
    na, nb = rng.randrange(1, max_side + 1), rng.randrange(1, max_side + 1)
    a = [f"a{i}" for i in range(na)]
    b = [f"b{j}" for j in range(nb)]
    edges = [(x, y) for x in a for y in b if rng.random() < rng.choice([0.2, 0.5, 0.8])]
    return graph(a, b, edges)


# ----------------------------------------------------------- path algorithm


def test_path_algorithm_trivial_yes():
    g = graph(["a1", "a2"], ["b1", "b2"], [("a1", "b1"), ("a2", "b2")])
    ok, witness = path_algorithm(g, ["a1", "a2", "b1", "b2"])
    assert ok
    assert witness == frozenset({("a1", "b1"), ("a2", "b2")})


def test_path_algorithm_gang_defector_no():
    g = gang_defector()
    ok, x_set = path_algorithm(g, sorted(g.a_side | g.b_side))
    assert not ok
    neighbourhood = {b for a, b in g.edges if a in x_set}
    assert len(neighbourhood) < len(x_set)


def test_path_algorithm_augments_one_edge_at_a_time():
    # every yes-instance ends with |M| = |A|, so each augmentation added one
    rng = random.Random(5)
    for _ in range(50):
        g = random_graph(rng, max_side=6)
        ok, witness = path_algorithm(g, sorted(g.a_side | g.b_side))
        if ok:
            assert len(witness) == len(g.a_side)
            assert {a for a, _ in witness} == set(g.a_side)
            bs = [b for _, b in witness]
            assert len(bs) == len(set(bs))
            assert set(witness) <= set(g.edges)
        else:
            x_set = witness
            neigh = {b for a, b in g.edges if a in x_set}
            assert len(neigh) < len(x_set)


def test_path_algorithm_decision_independent_of_order():
    rng = random.Random(7)
    for _ in range(40):
        g = random_graph(rng, max_side=6)
        base = sorted(g.a_side | g.b_side)
        decisions = set()
        for _ in range(5):
            order = base[:]
            rng.shuffle(order)
            ok, _ = path_algorithm(g, order)
            decisions.add(ok)
        assert len(decisions) == 1


def test_path_algorithm_refuses_an_order_that_repeats_a_vertex():
    g = graph(["a1", "a2"], ["b1", "b2"], [("a1", "b1"), ("a2", "b2")])
    # a repeat, a vertex left out, and a vertex of no side
    orders = (["a1", "a2", "b1", "b2", "a1"], ["a1", "a2", "b1"], ["a1", "a2", "b1", "b2", "b"])
    for order in orders:
        with pytest.raises(ValidationError, match="order must enumerate all vertices"):
            path_algorithm(g, order)


def test_path_algorithm_long_chain_without_recursion():
    # every augmenting path runs back down the whole chain: a_{n-1} finds
    # b_{n-1} taken by a_{n-2}, which moves to b_{n-2}, and so on to b_0
    n = 1500
    a = [f"a{i}" for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    edges = [(a[i], b[i]) for i in range(n)] + [(a[i], b[i + 1]) for i in range(n - 1)]
    ok, witness = path_algorithm(graph(a, b, edges), a + b[::-1])
    assert ok
    assert witness == frozenset(zip(a, b))


# ---------------------------------------------------------- hall condition


def test_hall_oracle_examples():
    k22 = graph(["a1", "a2"], ["b1", "b2"], [(a, b) for a in ("a1", "a2") for b in ("b1", "b2")])
    lopsided = graph(["a1", "a2", "a3"], ["b1", "b2"], [("a1", "b1"), ("a2", "b2"), ("a3", "b1")])
    for g, expected in ((k22, True), (gang_defector(), False), (lopsided, False)):
        assert decide_complete_matching(g) == expected
        assert hall_condition_direct(g.a_side, g.edges) == expected


# ---------------------------------------------------------- stable coloring


def test_stable_coloring_no_edges():
    g = graph(["a1", "a2"], ["b1"], [])
    c = stable_coloring(g)
    assert c.a_blocks == (frozenset({"a1", "a2"}),)
    assert c.b_blocks == (frozenset({"b1"}),)


def test_stable_coloring_worked_example():
    g = graph(
        ["a1", "a2", "a3"],
        ["b1", "b2"],
        [("a1", "b1"), ("a2", "b1"), ("a2", "b2"), ("a3", "b2")],
    )
    c = stable_coloring(g)
    assert c.a_blocks == (frozenset({"a1", "a3"}), frozenset({"a2"}))
    assert c.b_blocks == (frozenset({"b1", "b2"}),)


def test_stable_coloring_is_fixpoint_and_uniform():
    rng = random.Random(13)
    for _ in range(60):
        g = random_graph(rng, max_side=6)
        c = stable_coloring(g)
        assert stable_coloring_blocks_stable(g, c)
        again = stable_coloring(g)
        assert again == c


def stable_coloring_blocks_stable(g, c):
    for a_block in c.a_blocks:
        for b_block in c.b_blocks:
            counts = {sum(1 for b in b_block if (a, b) in g.edges) for a in a_block}
            if len(counts) > 1:
                return False
            counts_b = {sum(1 for a in a_block if (a, b) in g.edges) for b in b_block}
            if len(counts_b) > 1:
                return False
    return True


def test_stable_coloring_respects_renaming():
    rng = random.Random(17)
    for _ in range(30):
        g = random_graph(rng, max_side=5)
        names = sorted(g.a_side | g.b_side)
        shuffled = names[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(names, shuffled))
        g2 = graph(
            [mapping[a] for a in g.a_side],
            [mapping[b] for b in g.b_side],
            [(mapping[a], mapping[b]) for a, b in g.edges],
        )
        c1 = stable_coloring(g)
        c2 = stable_coloring(g2)
        assert tuple(frozenset(mapping[v] for v in blk) for blk in c1.a_blocks) == c2.a_blocks
        assert tuple(frozenset(mapping[v] for v in blk) for blk in c1.b_blocks) == c2.b_blocks


@st.composite
def graphs_with_renaming(draw, max_side=10):
    na, nb = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    cells = st.tuples(st.integers(0, max(na - 1, 0)), st.integers(0, max(nb - 1, 0)))
    edges = draw(st.sets(cells, max_size=na * nb)) if na and nb else set()
    names = [f"a{i}" for i in range(na)] + [f"b{j}" for j in range(nb)]
    mapping = dict(zip(names, draw(st.permutations(names))))
    return (
        [f"a{i}" for i in range(na)],
        [f"b{j}" for j in range(nb)],
        [(f"a{i}", f"b{j}") for i, j in edges],
        mapping,
    )


def both_namings(example):
    """The drawn graph's sides and edges, then those of its renaming."""
    a, b, edges, mapping = example
    renamed = (
        [mapping[v] for v in a],
        [mapping[v] for v in b],
        [(mapping[x], mapping[y]) for x, y in edges],
    )
    return (a, b, edges), renamed


@settings(max_examples=300, deadline=None)
@given(graphs_with_renaming())
def test_stable_coloring_matches_dense_reference(example):
    for sides in both_namings(example):
        c = stable_coloring(graph(*sides))
        assert (c.a_blocks, c.b_blocks) == stable_coloring_dense(*sides)


def path_graph(n, extra=False):
    """a0 - b0 - a1 - b1 - ... - a(n-1) - b(n-1), then a(n) if extra."""
    a = [f"a{i}" for i in range(n + extra)]
    b = [f"b{i}" for i in range(n)]
    return a, b, [(a[i], b[i]) for i in range(n)] + [(a[i + 1], b[i]) for i in range(n - 1 + extra)]


def even_cycle(n):
    a, b, edges = path_graph(n)
    return a, b, edges + [(a[0], b[n - 1])]


def disjoint_union(*graphs):
    """Sides and edges of the graphs side by side, names tagged by part."""
    out = ([], [], [])
    for k, (a, b, edges) in enumerate(graphs):
        out[0].extend(f"{v}.{k}" for v in a)
        out[1].extend(f"{v}.{k}" for v in b)
        out[2].extend((f"{x}.{k}", f"{y}.{k}") for x, y in edges)
    return out


def spider(legs):
    """A centre a-vertex with legs of the given lengths: leg k alternates
    b, a, b, ... away from the centre."""
    a, b, edges = ["c"], [], []
    for k, length in enumerate(legs):
        previous = "c"
        for step in range(length):
            vertex = f"l{k}.{step}"
            (b if step % 2 == 0 else a).append(vertex)
            edges.append((previous, vertex) if step % 2 == 0 else (vertex, previous))
            previous = vertex
    return a, b, edges


def crown(n):
    """K_{n,n} minus a perfect matching."""
    a = [f"a{i}" for i in range(n)]
    b = [f"b{j}" for j in range(n)]
    return a, b, [(a[i], b[j]) for i in range(n) for j in range(n) if i != j]


def many_round_graphs():
    for n in range(1, 41):
        yield path_graph(n)
        yield path_graph(n, extra=True)
    for n in range(2, 31):
        yield even_cycle(n)
    for lengths in ([1, 2], [3, 5], [2, 2, 7], [4, 9, 1, 6], [10, 11], [6, 6, 13]):
        yield disjoint_union(*(path_graph(n) for n in lengths))
        yield disjoint_union(*(path_graph(n, extra=n % 2 == 0) for n in lengths))
    for legs in ([1], [2, 2], [1, 2, 3], [3, 3, 4], [2, 4, 6, 8], [5, 5, 5], [1, 7, 12]):
        yield spider(legs)
    for n in range(1, 9):
        yield crown(n)


def test_stable_coloring_matches_dense_reference_over_many_rounds():
    # the regime where few blocks split per round, under a random renaming
    rng = random.Random(29)
    for a, b, edges in many_round_graphs():
        names = a + b
        mapping = dict(zip(names, rng.sample(names, len(names))))
        example = (a, b, edges, mapping)
        for sides in both_namings(example):
            c = stable_coloring(graph(*sides))
            assert (c.a_blocks, c.b_blocks) == stable_coloring_dense(*sides)


def sparse_random_graph(rng, na, nb):
    """na and nb vertices, each edge present with probability 4 / max(na, nb),
    as in the benchmark's random family."""
    a = [f"a{i}" for i in range(na)]
    b = [f"b{j}" for j in range(nb)]
    p = 4 / max(na, nb)
    return a, b, [(x, y) for x in a for y in b if rng.random() < p]


def hall_by_path_algorithm(a_side, edges):
    """Hall's condition for A, decided by the ordered path algorithm."""
    g = graph(a_side, {y for _, y in edges}, edges)
    return path_algorithm(g, sorted(g.a_side | g.b_side, key=repr))[0]


@st.composite
def sparse_graphs_with_renaming(draw):
    """A sparse random graph, alone or beside a path, even cycle or crown
    whose blocks keep splitting while its own are already singletons."""
    rng = draw(st.randoms(use_true_random=False))
    parts = [sparse_random_graph(rng, draw(st.integers(10, 40)), draw(st.integers(10, 40)))]
    companion = draw(st.sampled_from([None, "path", "path+", "cycle", "crown"]))
    if companion == "crown":
        parts.append(crown(draw(st.integers(2, 8))))
    elif companion is not None:
        n = draw(st.integers(2, 40))
        parts.append(even_cycle(n) if companion == "cycle" else path_graph(n, companion == "path+"))
    a, b, edges = disjoint_union(*parts)
    names = a + b
    return a, b, edges, dict(zip(names, rng.sample(names, len(names))))


@settings(max_examples=150, deadline=None)
@given(sparse_graphs_with_renaming())
def test_sparse_graphs_match_dense_reference_and_padding(example):
    for a, b, edges in both_namings(example):
        g = graph(a, b, edges)
        c = stable_coloring(g)
        assert (c.a_blocks, c.b_blocks) == stable_coloring_dense(a, b, edges)
        assert max_matching_size(g) == max_matching_by_padding(
            a, b, edges, hall=hall_by_path_algorithm
        )


def test_stable_coloring_keys_no_vertex_alone_in_its_block(monkeypatch):
    # a graph like the benchmark's random ones: its coloring ends nearly
    # discrete, so later rounds reach many vertices already alone
    a, b, edges = sparse_random_graph(random.Random(5), 120, 120)
    calls = []  # (keys, keyed vertices alone in their block) per _split call
    split = matching._split

    def spy(keys, part):
        # both key sets are built before either side splits, so the
        # partition still holds the blocks the keys were built against
        block_of, _, _, members = part
        calls.append((len(keys), sum(len(members[block_of[v]]) == 1 for v in keys)))
        return split(keys, part)

    monkeypatch.setattr(matching, "_split", spy)
    c = stable_coloring(graph(a, b, edges))
    assert sum(len(block) == 1 for block in c.a_blocks + c.b_blocks) > 200
    # six calls key some vertex (key sizes 116, 117, 112, 115, 28, 18); a
    # call with no keys changes no block, so it is not counted
    assert sum(keys > 0 for keys, _ in calls) > 5
    assert [alone for _, alone in calls] == [0] * len(calls)


# -------------------------------------------------------------- saturation


def test_saturate_worked_example():
    g = graph(
        ["a1", "a2", "a3"],
        ["b1", "b2"],
        [("a1", "b1"), ("a2", "b1"), ("a2", "b2"), ("a3", "b2")],
    )
    plus = saturate(g)
    assert (plus.a_side, plus.b_side) == (g.a_side, g.b_side)
    assert plus.edges == g.edges | {("a1", "b2"), ("a3", "b1")}


def test_saturate_trivia():
    empty = graph(["a1"], ["b1"], [])
    assert saturate(empty).edges == frozenset()
    complete = graph(["a1", "a2"], ["b1"], [("a1", "b1"), ("a2", "b1")])
    assert saturate(complete).edges == complete.edges


def test_saturation_preserves_hall_condition():
    rng = random.Random(19)
    for _ in range(120):
        g = random_graph(rng, max_side=5)
        g_plus = saturate(g)
        assert g.edges <= g_plus.edges
        assert hall_condition_direct(g.a_side, g.edges) == hall_condition_direct(
            g_plus.a_side, g_plus.edges
        )


# ---------------------------------------------------------------- quotient


def test_quotient_worked_example():
    g = graph(
        ["a1", "a2", "a3"],
        ["b1", "b2"],
        [("a1", "b1"), ("a2", "b1"), ("a2", "b2"), ("a3", "b2")],
    )
    q = quotient(g)
    assert len(q.a_side) == 3
    assert len(q.b_side) == 2
    assert len(q.edges) == 6  # complete bipartite between the blocks


def test_quotient_single_vertices():
    linked = graph(["a1"], ["b1"], [("a1", "b1")])
    q = quotient(linked)
    assert (q.a_side, q.b_side) == ({(0, 0, 0)}, {(1, 0, 0)})
    assert q.edges == frozenset({((0, 0, 0), (1, 0, 0))})
    bare = graph(["a1"], ["b1"], [])
    assert quotient(bare).edges == frozenset()


def test_quotient_is_canonical_under_renaming():
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng, max_side=5)
        names = sorted(g.a_side | g.b_side)
        shuffled = names[:]
        rng.shuffle(shuffled)
        mapping = dict(zip(names, shuffled))
        g2 = graph(
            [mapping[a] for a in g.a_side],
            [mapping[b] for b in g.b_side],
            [(mapping[a], mapping[b]) for a, b in g.edges],
        )
        q, q2 = quotient(g), quotient(g2)
        assert (q.a_side, q.b_side, q.edges) == (q2.a_side, q2.b_side, q2.edges)


# ---------------------------------------------------------------- decision


def test_decide_examples():
    assert not decide_complete_matching(gang_defector())
    k33 = graph(
        ["a1", "a2", "a3"],
        ["b1", "b2", "b3"],
        [(a, b) for a in ("a1", "a2", "a3") for b in ("b1", "b2", "b3")],
    )
    assert decide_complete_matching(k33)
    assert decide_complete_matching(graph([], ["b1"], []))
    assert not decide_complete_matching(graph(["a1"], [], []))


def test_decision_agrees_with_oracles_exhaustively_small():
    for na in (1, 2):
        for nb in (1, 2):
            for g in all_graphs(na, nb):
                expected = hall_condition_direct(g.a_side, g.edges)
                assert decide_complete_matching(g) == expected
                ok, _ = path_algorithm(g, sorted(g.a_side | g.b_side))
                assert ok == expected


def test_max_matching_size():
    k22 = graph(["a1", "a2"], ["b1", "b2"], [(a, b) for a in ("a1", "a2") for b in ("b1", "b2")])
    assert max_matching_size(k22) == 2
    assert max_matching_size(graph(["a1", "a2"], ["b1"], [])) == 0
    assert max_matching_size(gang_defector()) == 3
    assert max_matching_size(graph([], [], [])) == 0


@settings(max_examples=300, deadline=None)
@given(graphs_with_renaming(max_side=7))
def test_max_matching_size_against_brute_force(example):
    for a, b, edges in both_namings(example):
        size = max_matching_size(graph(a, b, edges))
        assert size == max_matching_brute(a, edges)
        assert size == max_matching_by_padding(a, b, edges)


@settings(max_examples=300, deadline=None)
@given(graphs_with_renaming(max_side=7))
def test_decision_matches_path_algorithm_on_expanded_quotient(example):
    for sides in both_namings(example):
        g = graph(*sides)
        q = quotient(g)
        by_path, _ = path_algorithm(q, sorted(q.a_side | q.b_side))
        assert decide_complete_matching(g) == by_path
        assert by_path == hall_condition_direct(g.a_side, g.edges)


@settings(max_examples=300, deadline=None)
@given(graphs_with_renaming(max_side=6))
def test_saturation_and_quotient_keep_the_maximum_matching_size(example):
    for sides in both_namings(example):
        g = graph(*sides)
        size = max_matching_brute(g.a_side, g.edges)
        for h in (saturate(g), quotient(g)):
            assert max_matching_brute(h.a_side, h.edges) == size
            assert decide_complete_matching(h) == (size == len(g.a_side))


def refinement_of(g, coloring):
    """What the flow reads from the refinement, for the blocks of
    ``coloring`` in its order: the numbered vertices, each side's blocks as
    sets of numbers, and the linked pairs of block ranks."""
    sides = (coloring.a_blocks, coloring.b_blocks)
    names = [v for blocks in sides for block in blocks for v in block]
    number = {v: k for k, v in enumerate(names)}
    rank = {v: i for blocks in sides for i, block in enumerate(blocks) for v in block}
    blocks = [[{number[v] for v in block} for block in side] for side in sides]
    return names, blocks, {(rank[a], rank[b]) for a, b in g.edges}


def test_max_matching_size_takes_flow_back(monkeypatch):
    # any stable partition in any order gives the same flow value; in this
    # order the greedy first pass sends y to p, so x's search must take
    # that unit back and move y to q, and it can move only the one unit
    g = graph(
        ["x1", "x2", "y"],
        ["p", "q1", "q2"],
        [("x1", "p"), ("x2", "p"), ("y", "p"), ("y", "q1"), ("y", "q2")],
    )
    reordered = StableColoring(
        (frozenset({"y"}), frozenset({"x1", "x2"})), (frozenset({"p"}), frozenset({"q1", "q2"}))
    )
    assert stable_coloring(g) == StableColoring(reordered.a_blocks[::-1], reordered.b_blocks[::-1])
    monkeypatch.setattr(matching, "_refine", lambda _, decide=False: refinement_of(g, reordered))
    assert max_matching_size(g) == 2


@settings(max_examples=300, deadline=None)
@given(graphs_with_renaming(max_side=7), st.randoms(use_true_random=False))
def test_max_matching_size_under_any_block_order(example, rng):
    # shuffled block orders make the searches take flow back far more often
    # than the canonical order does, and leave the decision's first spare
    # A-block more often to an augmenting path
    a, b, edges, _ = example
    g = graph(a, b, edges)
    c = stable_coloring(g)
    shuffled = StableColoring(
        *(tuple(rng.sample(blocks, len(blocks))) for blocks in (c.a_blocks, c.b_blocks))
    )
    size = max_matching_brute(a, edges)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matching, "_refine", lambda _, decide=False: refinement_of(g, shuffled))
        assert max_matching_size(g) == size
        assert decide_complete_matching(g) == (size == len(a))


def test_max_matching_size_colors_once(monkeypatch):
    # deficiency 2: three A-vertices share the one B-vertex they reach
    g = graph(["a1", "a2", "a3"], ["b1", "b2"], [("a1", "b1"), ("a2", "b1"), ("a3", "b1")])
    calls = []
    refine = matching._refine

    def counted(graph_):
        calls.append(graph_)
        return refine(graph_)

    monkeypatch.setattr(matching, "_refine", counted)
    assert max_matching_size(g) == 1
    assert calls == [g]


@settings(max_examples=300, deadline=None)
@given(graphs_with_renaming(max_side=7))
def test_decision_agrees_with_flow_value_and_hall(example):
    # the decision stops at the first failed search; the flow value runs
    # every search to the end
    for a, b, edges in both_namings(example):
        g = graph(a, b, edges)
        decided = decide_complete_matching(g)
        assert decided == (max_matching_size(g) == len(g.a_side))
        assert decided == hall_condition_direct(g.a_side, g.edges)


def test_decision_stops_at_the_first_failed_search(monkeypatch):
    # an isolated A-vertex beside 300 + 300 vertices with a perfect
    # matching: its block comes first in canonical order, so the decision's
    # one search, from it, fails before any augmentation, while the flow
    # value needs augmenting paths to match the other 300
    rng = random.Random(3)
    a = [f"a{i}" for i in range(300)]
    b = [f"b{i}" for i in range(300)]
    edges = list(zip(a, b)) + [(x, y) for x in a for y in b if rng.random() < 0.01]
    g = graph(a + ["lone"], b, edges)
    found = []
    search = matching._search

    def spy(*args):
        found.append(search(*args))
        return found[-1]

    monkeypatch.setattr(matching, "_search", spy)
    assert not decide_complete_matching(g)
    assert found == [None]
    found.clear()
    assert max_matching_size(g) == 300
    assert found[-1] is None and None not in found[:-1] and len(found) > 1


@st.composite
def graphs_renamed_within_sides(draw, max_side=7):
    """Sides of up to ``max_side`` vertices, a drawn set of them kept
    isolated, edges among the rest, and a renaming of each side within
    itself."""
    na, nb = draw(st.integers(0, max_side)), draw(st.integers(0, max_side))
    a = [f"a{i}" for i in range(na)]
    b = [f"b{j}" for j in range(nb)]
    lone = draw(st.sets(st.sampled_from(a + b))) if na + nb else set()
    cells = [(x, y) for x in a for y in b if x not in lone and y not in lone]
    edges = sorted(draw(st.sets(st.sampled_from(cells)))) if cells else []
    mapping = {**dict(zip(a, draw(st.permutations(a)))), **dict(zip(b, draw(st.permutations(b))))}
    return a, b, edges, mapping


@settings(max_examples=400, deadline=None)
@given(graphs_renamed_within_sides())
def test_degree_partition_decision_agrees_with_the_stable_one(example):
    # the path the degree partition's check replaces: the first-spare
    # search on the stable coloring's blocks
    for a, b, edges in both_namings(example):
        g = graph(a, b, edges)
        decided = decide_complete_matching(g)
        _, blocks, linked = matching._refine(g)
        assert decided == (not matching._flow(blocks, linked, True))
        assert decided == (max_matching_size(g) == len(a))
        assert decided == (max_matching_brute(a, edges) == len(a))


@settings(max_examples=400, deadline=None)
@given(graphs_renamed_within_sides(), st.randoms(use_true_random=False))
def test_degree_partition_flow_bounds_the_matching_in_any_block_order(example, rng):
    # the degree classes in shuffled order: the flow bounds the maximum
    # matching from above, and a failed first search still proves no
    a, b, edges, _ = example
    degree = collections.Counter(v for edge in edges for v in edge)
    blocks = []
    for side in (a, b):
        classes = {}
        for v in side:
            classes.setdefault(degree[v], set()).add(v)
        blocks.append(rng.sample(list(classes.values()), len(classes)))
    rank = {v: i for side in blocks for i, block in enumerate(side) for v in block}
    linked = {(rank[x], rank[y]) for x, y in edges}
    size = max_matching_brute(a, edges)
    assert len(a) - matching._flow(blocks, linked, False) >= size
    if matching._flow(blocks, linked, True):
        assert size < len(a)


def counted_calls(monkeypatch, name):
    """The argument tuples of every call to the matching module's ``name``."""
    calls = []
    function = getattr(matching, name)

    def counted(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(matching, name, counted)
    return calls


def test_degree_partition_answers_no_without_refining(monkeypatch):
    # an isolated A-vertex, and a path with one A-vertex more than B: the
    # degree partition's flow already fails, so no later round runs
    touched = counted_calls(monkeypatch, "_touched_keys")
    flows = counted_calls(monkeypatch, "_flow")
    lone = graph(["a1", "a2", "lone"], ["b1", "b2"], [("a1", "b1"), ("a1", "b2"), ("a2", "b2")])
    assert not decide_complete_matching(lone)
    assert not decide_complete_matching(graph(*path_graph(40, extra=True)))
    assert touched == []
    assert len(flows) == 2


def test_regular_graph_runs_the_flow_once(monkeypatch):
    # round 1 splits neither side, so the degree partition is the stable
    # coloring and is not checked twice: a 3-regular circulant, and four
    # A-vertices of degree 1 sharing two B-vertices of degree 2
    flows = counted_calls(monkeypatch, "_flow")
    n = 30
    a = [f"a{i}" for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    assert decide_complete_matching(graph(a, b, [(a[i], b[(i + d) % n]) for i in range(n) for d in range(3)]))
    assert len(flows) == 1
    assert not decide_complete_matching(graph(a[:4], b[:2], [(a[i], b[i // 2]) for i in range(4)]))
    assert len(flows) == 2


def test_yes_path_still_refines_to_the_end(monkeypatch):
    # the degree partition's flow saturates A, so the decision refines on to
    # the stable coloring, in as many rounds as stable_coloring takes
    g = graph(*path_graph(40))
    touched = counted_calls(monkeypatch, "_touched_keys")
    flows = counted_calls(monkeypatch, "_flow")
    c = stable_coloring(g)
    keyed = len(touched)
    touched.clear()
    assert decide_complete_matching(g)
    assert keyed > 30 and len(touched) == keyed
    (degree_blocks, _, _), (stable_blocks, _, _) = flows
    assert len(degree_blocks[0]) < len(c.a_blocks)
    assert [len(side) for side in stable_blocks] == [len(c.a_blocks), len(c.b_blocks)]


def test_a_side_that_split_nothing_is_not_keyed(monkeypatch):
    # on a path with one A-vertex more than B, the rounds' splits alternate
    # sides, so each round keys one side only
    touched = counted_calls(monkeypatch, "_touched_keys")
    assert max_matching_size(graph(*path_graph(20, extra=True))) == 20
    assert len(touched) > 15
    assert all(splits for splits, _, _ in touched)


def test_coloring_and_flow_do_not_depend_on_the_hash_seed():
    # the internal numbering follows the sides' iteration order, which
    # changes with the hash seed; the blocks and answers may not
    child = [
        "-c",
        "import json, random; from choiceless_lab.matching import *; "
        "rng = random.Random(31); "
        "a = [f'a{i}' for i in range(200)]; b = [f'b{j}' for j in range(200)]; "
        "g = BipartiteGraph.build(a, b, [(x, y) for x in a for y in b if rng.random() < 0.02]); "
        "c = stable_coloring(g); "
        "print(json.dumps([[sorted(k) for k in c.a_blocks], [sorted(k) for k in c.b_blocks], "
        "max_matching_size(g), decide_complete_matching(g)]))",
    ]
    first, second = (json.loads(run_child(child, seed).stdout) for seed in "12")
    assert first == second
    assert len(first[0]) + len(first[1]) > 300


def test_decisions_build_no_quotient(monkeypatch):
    def refuse(*args):
        raise AssertionError("the decision expanded the quotient")

    monkeypatch.setattr(matching, "quotient", refuse)
    monkeypatch.setattr(matching, "path_algorithm", refuse)
    assert not decide_complete_matching(gang_defector())
    assert max_matching_size(gang_defector()) == 3


def test_max_matching_size_on_large_circulant():
    # one block per side, so the flow needs one augmentation, where the
    # expanded quotient would hold n * n = 4 million edges
    n = 2000
    a = [f"a{i}" for i in range(n)]
    b = [f"b{i}" for i in range(n)]
    g = graph(a, b, [(a[i], b[(i + d) % n]) for i in range(n) for d in range(3)])
    assert max_matching_size(g) == n
    assert decide_complete_matching(g)


# ------------------------------------------------------------ structure io


def test_structure_roundtrip():
    g = gang_defector()
    structure = graph_to_structure(g)
    back = graph_from_structure(structure)
    assert back.a_side == g.a_side
    assert back.b_side == g.b_side
    assert back.edges == g.edges
