"""Shared constructors for tests."""

from __future__ import annotations

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import choiceless_lab
from choiceless_lab.cfi import build_twisted, complete_graph
from choiceless_lab.linalg import intmatrix
from choiceless_lab.matching import BipartiteGraph, stable_coloring
from choiceless_lab.structures import InputStructure


def empty_structure(n: int) -> InputStructure:
    return InputStructure.build([f"a{i}" for i in range(n)])


def saturate(graph: BipartiteGraph) -> BipartiteGraph:
    """The graph with its edge relation completed to full block products
    wherever it meets a pair of blocks of the graph's stable coloring."""
    coloring = stable_coloring(graph)
    a_block, b_block = (
        {v: block for block in blocks for v in block}
        for blocks in (coloring.a_blocks, coloring.b_blocks)
    )
    linked = {(a_block[a], b_block[b]) for a, b in graph.edges}
    edges = frozenset(edge for blocks in linked for edge in itertools.product(*blocks))
    return BipartiteGraph(graph.a_side, graph.b_side, edges)


def largest_admitted(digit_count: int) -> int:
    """The largest n whose determinant ``det.max_work`` admits at this
    digit count."""
    n = 1
    while intmatrix.determinant_work(n + 1, digit_count) <= intmatrix.DET_MAX_WORK:
        n += 1
    return n


def power_structure(rows, r: int) -> InputStructure:
    """Structure encoding a Z/2 matrix (arc relation over index atoms) and
    an exponent r >= 1 (ordered digit atoms, one-bits marked)."""
    if r < 1:
        raise ValueError("exponent must be at least 1")
    n = len(rows)
    idx = [f"m{i}" for i in range(n)]
    digits = [f"d{s}" for s in range(r.bit_length())]
    arcs = [(idx[i], idx[j]) for i in range(n) for j in range(n) if rows[i][j] % 2]
    dless = [
        (digits[s], digits[t]) for s in range(len(digits)) for t in range(len(digits)) if s < t
    ]
    in_c = [(digits[s],) for s in range(len(digits)) if (r >> s) & 1]
    return InputStructure.build(
        idx + digits,
        relations={"Arc": arcs, "InC": in_c, "DLess": dless},
        arities={"Arc": 2, "InC": 1, "DLess": 2},
    )


def permuted_structure(structure: InputStructure, seed) -> InputStructure:
    """An isomorphic copy: atom names shuffled across both the listing
    order and every relation/function tuple."""
    rng = random.Random(seed)
    names = list(structure.atoms)
    shuffled = names[:]
    rng.shuffle(shuffled)
    mapping = dict(zip(names, shuffled))
    listing = names[:]
    rng.shuffle(listing)
    relations = {
        name: [tuple(map(mapping.__getitem__, tup)) for tup in tuples]
        for name, tuples in structure.relations.items()
    }
    functions = {
        name: {
            tuple(mapping[a] for a in args): mapping[out]
            for args, out in table.items()
        }
        for name, table in structure.functions.items()
    }
    return InputStructure.build(
        listing, relations=relations, functions=functions, arities=dict(structure.arities)
    )


def x_table(outcome, idx_names):
    """Read back the X table of a finished power run as a 0/1 grid."""
    from choiceless_lab.hfset import TRUE, ordinal

    state = outcome.final_state
    one = ordinal(1)
    by_name = state.structure.by_name
    grid = []
    for i in idx_names:
        row = []
        for j in idx_names:
            value = state.read("X", (by_name[i], by_name[j]))
            row.append(1 if value is one else 0)
        grid.append(row)
    return grid


def gadget_structure(vertices, edges, pre) -> InputStructure:
    """A gadget-shaped structure on ``vertices``: ``Adj`` lists each of the
    2-element sets ``edges`` both ways, and ``Pre`` is the pairs ``pre``."""
    return InputStructure.build(
        vertices,
        relations={"Adj": [(a, b) for e in edges for a in e for b in e if a != b], "Pre": pre},
        arities={"Adj": 2, "Pre": 2},
    )


def edge_sets(structure) -> set:
    """The edges of a gadget-shaped structure as 2-element sets."""
    return set(map(frozenset, structure.relations["Adj"]))


class GadgetLayout(NamedTuple):
    """A built gadget's parts, read from its structure in atom listing
    order: the block vertices, a pre-order class at a time, then the pair
    vertices, each pair's two listed together, then any padding."""

    structure: InputStructure
    blocks: tuple  # the atoms in Pre, in listing order
    rank: dict  # block vertex -> its class, earliest first
    pairs: tuple  # the atoms between the blocks and the padding
    edges: tuple  # each edge once as a sorted name pair, sorted
    pre: tuple  # the Pre pairs, sorted


def gadget_layout(structure, padding=0) -> GadgetLayout:
    """The layout of a built gadget whose last ``padding`` atoms pad it."""
    pre = structure.relations["Pre"]
    blocks = tuple(x for x in structure.atoms if (x, x) in pre)
    rank = {}
    for before, x in zip((None, *blocks), blocks):
        rank[x] = 0 if before is None else rank[before] + ((x, before) not in pre)
    pairs = structure.atoms[len(blocks) : len(structure.atoms) - padding]
    edges = tuple(sorted((a, b) for a, b in structure.relations["Adj"] if a < b))
    return GadgetLayout(structure, blocks, rank, pairs, edges, tuple(sorted(pre)))


def partners(pairs) -> dict:
    """Each pair vertex of a layout -> the other vertex of its pair."""
    return {**dict(zip(pairs[::2], pairs[1::2])), **dict(zip(pairs[1::2], pairs[::2]))}


def twin_gadget() -> InputStructure:
    """The untwisted gadget over K5 with its first block rewired: the four
    name-first block vertices meet the name-first vertex of every edge pair
    touching the block, the other four meet the second vertex.  Every other
    edge and the pre-order stay, so the structure is gadget-shaped but its
    first block holds two sets of four twins."""
    parts = gadget_layout(build_twisted(complete_graph(5), []))
    block = sorted(x for x in parts.blocks if parts.rank[x] == 0)
    edges = {e for e in parts.edges if set(block).isdisjoint(e)}
    met = {w for e in set(parts.edges) - edges for w in e}
    pairs = [
        sorted(pair) for pair in zip(parts.pairs[::2], parts.pairs[1::2]) if pair[0] in met
    ]
    for i, v in enumerate(block):
        edges |= {(v, pair[i >= len(block) // 2]) for pair in pairs}
    return gadget_structure(parts.structure.atoms, edges, parts.pre)


def run_child(args, hash_seed="0", check=True, env=()) -> subprocess.CompletedProcess:
    """Run ``python args...`` in a fresh process that imports this tree,
    with the variables ``env`` added to the environment."""
    src = str(Path(choiceless_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, **dict(env), "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
        timeout=60,
        check=check,
    )
