"""Seeded instances, request lists and expected answers for each workload.

:func:`build` writes every input file into a work directory and returns a
:class:`Plan`: one fixed warm-up request plus one pass of requests.  Sizes
are fixed per workload; the seed draws the random content (edges, entries,
twists, flips), the atom and index names and the order in which names are
listed.  Every expected answer comes from :mod:`oracle` or from how the
instance was built, never from the package under test.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field

import oracle

WORKLOADS = ("matching", "det", "bgs", "iso")

# Nominal seconds per untraced pass, measured when the benchmark was
# defined (2-core Intel Xeon container).  A run of --seconds S makes
# round(S / PASS_SECONDS) passes, a fixed amount of work per setting.
PASS_SECONDS = {"matching": 4.8, "det": 2.9, "bgs": 5.8, "iso": 4.6}


@dataclass
class Request:
    argv: list  # full argument vector for cli.dispatch, --out included
    expect: dict  # result keys and the values they must have
    command: str  # the subcommand, for error kinds per command
    family: str  # instance family inside the workload
    size: int  # the family's size parameter


@dataclass
class Plan:
    workload: str
    warmup: Request
    requests: list
    # (request index, program path, input path, index atom names, expected
    # 0/1 grid): power.bgs runs whose final X table is checked after timing
    x_checks: list = field(default_factory=list)


class _Writer:
    """Names, files and --out paths inside one work directory."""

    def __init__(self, workdir: str, rng: random.Random):
        self.workdir = workdir
        self.rng = rng
        self._used: set = set()
        self._files = 0
        os.makedirs(os.path.join(workdir, "out"), exist_ok=True)

    def names(self, k: int, prefix: str) -> list:
        out = []
        while len(out) < k:
            token = f"{prefix}{self.rng.getrandbits(36):x}"
            if token not in self._used:
                self._used.add(token)
                out.append(token)
        return out

    def write(self, suffix: str, text: str) -> str:
        self._files += 1
        path = os.path.join(self.workdir, f"in{self._files:03d}{suffix}")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def out(self, index) -> list:
        return ["--out", os.path.join(self.workdir, "out", f"{index}.json")]

    def shuffled(self, items) -> list:
        items = list(items)
        self.rng.shuffle(items)
        return items


def _structure_text(atoms, relations) -> str:
    """``.str`` text; ``relations`` maps "Name/arity" to tuples of names."""
    lines = ["atoms: " + " ".join(atoms)]
    for head, tuples in relations.items():
        cells = " ".join("(" + ",".join(t) + ")" for t in tuples)
        lines.append(f"rel {head}:" + (" " + cells if cells else ""))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- matching

# (family, size, --max-size); path sizes count A-vertices, the others count
# each side.  Random max-size instances have deficiency exactly 2 and path
# ones deficiency 1, so the padding rounds per request are fixed.  Path and
# regular costs do not depend on the seed: seven n=150 regular requests
# straddle the middle of the latency distribution and the n=90/100 paths
# and n=300 regular graphs hold its tail.
MATCHING_PASS = (
    [("random", n, False) for n in (60, 80, 100, 120, 140, 160, 180, 200)]
    + [("random", 100, True), ("random", 200, True)]
    + [("path", n, False) for n in (30, 40, 50, 60, 70, 80, 90, 100)]
    + [("path", 50, True), ("path", 100, True)]
    + [("regular", n, False) for n in (100,) + (150,) * 7 + (200, 250, 300)]
    + [("regular", 150, True)]
)
MATCHING_SMOKE = (("random", 60, False), ("path", 30, False), ("regular", 100, True))


def _bipartite(w: _Writer, na: int, nb: int, edges) -> str:
    a = w.names(na, "a")
    b = w.names(nb, "b")
    return w.write(
        ".str",
        _structure_text(
            w.shuffled(a + b),
            {
                "InA/1": [(x,) for x in a],
                "InB/1": [(y,) for y in b],
                "R/2": w.shuffled((a[i], b[j]) for i, j in edges),
            },
        ),
    )


def _max_matching(na: int, edges) -> int:
    adjacency = {i: [] for i in range(na)}
    for i, j in edges:
        adjacency[i].append(j)
    return oracle.max_matching(range(na), adjacency)


def _matching_instance(w: _Writer, family: str, n: int, max_size: bool, position: int):
    rng = w.rng
    if family == "random":
        while True:
            edges = [(i, j) for i in range(n) for j in range(n) if rng.random() < 4 / n]
            best = _max_matching(n, edges)
            if not max_size or best == n - 2:
                break
        na = nb = n
    elif family == "path":
        # a0 b0 a1 b1 ... ; an extra A-vertex at the end leaves one exposed
        extra = 1 if max_size or position % 2 else 0
        na, nb = n + extra, n
        edges = [(i, i) for i in range(n)] + [(i + 1, i) for i in range(n) if i + 1 < na]
        best = n
    else:
        degree = 2 + position % 2  # 2 is one long cycle, 3 a circulant
        na = nb = n
        edges = [(i, (i + k) % n) for i in range(n) for k in range(degree)]
        best = n
    path = _bipartite(w, na, nb, edges)
    if max_size:
        return ["solve", "matching", "--input", path, "--max-size"], {"max_matching": best}
    return ["solve", "matching", "--input", path], {"verdict": "yes" if best == na else "no"}


def _matching(w: _Writer, smoke: bool):
    warm_path = _bipartite(w, 5, 5, [(i, i) for i in range(5)] + [(i + 1, i) for i in range(4)])
    warmup = Request(
        w.out("warmup") + ["solve", "matching", "--input", warm_path],
        {"verdict": "yes"}, "solve matching", "warmup", 5,
    )
    requests = []
    for position, (family, n, max_size) in enumerate(MATCHING_SMOKE if smoke else MATCHING_PASS):
        argv, expect = _matching_instance(w, family, n, max_size, position)
        command = "solve matching" + (" --max-size" if max_size else "")
        requests.append(Request(w.out(len(requests)) + argv, expect, command, family, n))
    return warmup, requests, []


# --------------------------------------------------------------------- det

# (family, n, q or entry bound).  Field families run --method power; the
# integer ones run the prime scan.  Singular and divisor matrices have n
# at least their digit count, so each scans exactly 2 n^2 primes.  The
# n=7 GF(3) and GF(4) requests straddle the middle of the latency
# distribution, so its median falls among requests of one cost.
DET_PASS = (
    [("gf2", n, 2) for n in (8, 10, 12, 14, 16, 20)]
    + [("gf3", 5, 3), ("gf3", 7, 3), ("gf3", 7, 3), ("gf4", 5, 4), ("gf4", 7, 4), ("gf4", 7, 4)]
    + [("gf7", 4, 7), ("gf7", 6, 7), ("gf9", 4, 9), ("gf9", 5, 9)]
    + [("int-nonsingular", n, b) for n, b in ((3, 7), (4, 15), (5, 31), (6, 63))]
    + [("int-singular", n, b) for n, b in ((3, 7), (4, 7), (4, 15))]
    + [("int-divisors", n, b) for n, b in ((3, 7), (4, 15))]
)
DET_SMOKE = (("gf2", 4, 2), ("gf4", 3, 4), ("int-singular", 2, 3), ("int-divisors", 2, 3))


def _matrix_text(w: _Writer, header: str, grid) -> str:
    n = len(grid)
    idx = w.names(n, "i")
    lines = [header, "rows " + " ".join(w.shuffled(idx)), "square"]
    for i, j in w.shuffled(itertools.product(range(n), repeat=2)):
        if grid[i][j]:
            lines.append(f"{idx[i]} {idx[j]} {grid[i][j]}")
    return w.write(".mat", "\n".join(lines) + "\n")


def _triangular_by_construction(rng: random.Random, n: int, q: int, singular: bool):
    """A permuted upper-triangular matrix with a non-zero diagonal is
    non-singular over any field; copying one row onto another makes it
    singular.  Needs no field arithmetic, so it serves GF(4) and GF(9)."""
    upper = [[0] * n for _ in range(n)]
    for i in range(n):
        upper[i][i] = rng.randrange(1, q)
        for j in range(i + 1, n):
            upper[i][j] = rng.randrange(q)
    rows = rng.sample(range(n), n)
    cols = rng.sample(range(n), n)
    grid = [[upper[rows[i]][cols[j]] for j in range(n)] for i in range(n)]
    if singular:
        src, dst = rng.sample(range(n), 2)
        grid[dst] = list(grid[src])
    return grid


def _int_grid(rng: random.Random, n: int, bound: int, singular: bool):
    if not singular:
        while True:
            grid = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            if oracle.bareiss_det(grid):
                return grid
    half = bound // 2
    grid = [[rng.randint(-half, half) for _ in range(n)] for _ in range(n - 1)]
    grid.append([x - y for x, y in zip(grid[0], grid[1 % len(grid)])])
    rng.shuffle(grid)
    return grid


def _det_instance(w: _Writer, family: str, n: int, q: int, position: int):
    rng = w.rng
    if family.startswith("gf"):
        if q in (4, 9):
            grid = _triangular_by_construction(rng, n, q, singular=position % 2 == 1)
            nonsingular = position % 2 == 0
        else:
            grid = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            nonsingular = oracle.bareiss_det(grid) % q != 0
        path = _matrix_text(w, f"field {q}", grid)
        return ["solve", "det", "--matrix", path, "--method", "power"], {"nonsingular": nonsingular}
    grid = _int_grid(rng, n, q, singular=family == "int-singular")
    det = oracle.bareiss_det(grid)
    path = _matrix_text(w, "ring Z", grid)
    argv = ["solve", "det", "--matrix", path]
    if family != "int-divisors":
        return argv, {"nonsingular": det != 0}
    digits = max(1, max(abs(x).bit_length() for row in grid for x in row))
    scanned = oracle.first_primes(2 * max(n, digits) ** 2)
    divisors = [p for p in scanned if det % p == 0]
    return argv + ["--prime-divisors"], {
        "nonsingular": det != 0,
        "prime_divisors": divisors,
        "determinant_zero": det == 0,
    }


def _det(w: _Writer, smoke: bool):
    # singular with digit count 3, so the warm-up scans the first 18
    # primes and builds their fields
    warm = _matrix_text(w, "ring Z", [[1, 2, 3], [2, 4, 6], [3, 5, 7]])
    warmup = Request(
        w.out("warmup") + ["solve", "det", "--matrix", warm],
        {"nonsingular": False}, "solve det", "warmup", 3,
    )
    requests = []
    for position, (family, n, q) in enumerate(DET_SMOKE if smoke else DET_PASS):
        argv, expect = _det_instance(w, family, n, q, position)
        command = "solve det" + (" --prime-divisors" if family == "int-divisors" else "")
        requests.append(Request(w.out(len(requests)) + argv, expect, command, family, n))
    return warmup, requests, []


# --------------------------------------------------------------------- bgs

# power: (matrix n, exponent bits, one-bits); parity and doubling: atoms.
# Exponents have a fixed length and number of one-bits, so the step count
# varies little with the seed.  With three passes the eleventh-largest
# latency is a parity run, whose cost the seed does not change.
BGS_POWER = ((4, 10, 5), (5, 9, 5), (6, 8, 4), (7, 8, 4), (8, 7, 4), (9, 6, 3), (10, 6, 3))
BGS_PARITY = (100, 200, 250, 300, 400)
BGS_DOUBLING = (2, 3, 4, 5)
BGS_SMOKE = ((4, 3, 2), 5, 2)


def _program(src: str, name: str) -> str:
    return os.path.join(src, "choiceless_lab", "programs", f"{name}.bgs")


def _power_instance(w: _Writer, n: int, bits: int, ones: int):
    rng = w.rng
    grid = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
    low = rng.sample(range(bits - 1), ones - 1)
    r = (1 << (bits - 1)) | sum(1 << b for b in low)
    idx = w.names(n, "m")
    digits = w.names(bits, "d")
    path = w.write(
        ".str",
        _structure_text(
            w.shuffled(idx + digits),
            {
                "Arc/2": [(idx[i], idx[j]) for i in range(n) for j in range(n) if grid[i][j]],
                "InC/1": [(digits[s],) for s in range(bits) if (r >> s) & 1],
                "DLess/2": [(digits[s], digits[t]) for s in range(bits) for t in range(s + 1, bits)],
            },
        ),
    )
    return path, idx, oracle.mod2_power(grid, r)


def _atoms_only(w: _Writer, n: int) -> str:
    return w.write(".str", _structure_text(w.names(n, "x"), {}))


def _bgs(w: _Writer, smoke: bool, src: str):
    rng = w.rng
    warmup = Request(
        w.out("warmup") + ["bgs", "run", "--program", _program(src, "parity"), "--input", _atoms_only(w, 5)],
        {"verdict": "accept"}, "bgs run", "warmup", 5,
    )
    power_sizes, parity_sizes, doubling_sizes = (
        ([BGS_SMOKE[0]], [BGS_SMOKE[1]], [BGS_SMOKE[2]]) if smoke else (BGS_POWER, BGS_PARITY, BGS_DOUBLING)
    )
    requests = []
    x_checks = []

    def add(program, path, expect, family, size):
        argv = ["bgs", "run", "--program", _program(src, program), "--input", path]
        requests.append(Request(w.out(len(requests)) + argv, expect, "bgs run", family, size))

    for n, bits, ones in power_sizes:
        path, idx, grid = _power_instance(w, n, bits, ones)
        x_checks.append((len(requests), _program(src, "power"), path, idx, grid))
        add("power", path, {"verdict": "accept"}, "power", n)
    for n in parity_sizes:
        n += rng.randrange(2)
        add("parity", _atoms_only(w, n), {"verdict": "accept" if n % 2 else "reject"}, "parity", n)
    for n in doubling_sizes:
        add("doubling", _atoms_only(w, n), {"verdict": "bound-exceeded"}, "doubling", n)
    return warmup, requests, x_checks


# --------------------------------------------------------------------- iso

# multipede pairs and validations by segment count (1.5 hyperedges per
# segment); cfi requests by m.  Padded gadgets carry 2^(m*m) isolated
# atoms.  Isomorphic m=5 gadget pairs share their twist and non-isomorphic
# ones differ at one base vertex, so the flip search stops at its first
# candidate or runs through all 2^15 of them: a fixed cost either way.  The
# six m=5 classifications straddle the middle of the latency distribution
# and the three non-isomorphic m=5 pairs hold its tail.
ISO_MULTIPEDE = (40, 70, 100, 150)
ISO_VALIDATE = (40, 100, 170)
ISO_CLASSIFY = ((3, False), (3, False), (3, True), (4, False), (4, False), (4, False), (4, True)) + ((5, False),) * 6
ISO_CFI_PAIRS = ((4, True), (4, False), (5, True)) + ((5, False),) * 3
ISO_SMOKE = ((10,), (10,), ((2, True),), ((2, True), (2, False)))


def _multipede(w: _Writer, n: int):
    """A random multipede as (hyperedges over 0..n-1 in segment order, the
    positive representative foot side per hyperedge and segment)."""
    rng = w.rng
    chosen: set = set()
    while len(chosen) < (3 * n) // 2:
        chosen.add(tuple(sorted(rng.sample(range(n), 3))))
    hyperedges = sorted(chosen)
    sides = [{s: rng.randrange(2) for s in edge} for edge in hyperedges]
    return hyperedges, sides


def _multipede_text(w: _Writer, n: int, hyperedges, sides, flipped: int, shoe_side: int) -> str:
    """Encode with fresh names; the segments in bitmask ``flipped`` have
    their feet exchanged in every positive triple."""
    segs = w.names(n, "s")
    feet = [w.names(2, "f") for _ in range(n)]
    positives = []
    for edge, side in zip(hyperedges, sides):
        for flip_two in [()] + list(itertools.combinations(edge, 2)):
            triple = []
            for s in edge:
                bit = side[s] ^ (s in flip_two) ^ ((flipped >> s) & 1)
                triple.append(feet[s][bit])
            positives.append(triple)
    rel = {
        "Segment/1": [(s,) for s in segs],
        "Foot/1": [(f,) for pair in feet for f in pair],
        "S/2": [(f, segs[s]) for s in range(n) for f in feet[s]],
        "Hyper/3": [tuple(segs[s] for s in p) for e in hyperedges for p in itertools.permutations(e)],
        "Positive/3": [p for t in positives for p in itertools.permutations(t)],
        "Leq/2": [(segs[s], segs[t]) for s in range(n) for t in range(s, n)],
        "Shoe/1": [(feet[0][shoe_side],)],
    }
    return w.write(".str", _structure_text(w.shuffled(segs + [f for p in feet for f in p]), rel))


def _gadget_text(w: _Writer, m: int, twist, padded: bool) -> str:
    """A twisted gadget over the complete graph on m+1 vertices, encoded
    with symmetric Adj and the block pre-order Pre; fresh names, with each
    edge pair's two names sharing a prefix so that its minus vertex sorts
    first."""
    base = range(m + 1)
    edges = list(itertools.combinations(base, 2))
    pair = {}
    for e, prefix in zip(edges, w.names(len(edges), "w")):
        pair[e] = {True: prefix + "p", False: prefix + "m"}
    blocks = []  # (base vertex, name)
    adj = []
    for v in base:
        incident = [e for e in edges if v in e]
        subsets = [c for r in range(len(incident) + 1) for c in itertools.combinations(incident, r)]
        kept = [c for c in subsets if len(c) % 2 == (1 if v in twist else 0)]
        for c, name in zip(kept, w.names(len(kept), "u")):
            blocks.append((v, name))
            for e in incident:
                adj.append((name, pair[e][e in c]))
                adj.append((pair[e][e in c], name))
    pre = [(x, y) for (v, x) in blocks for (u, y) in blocks if v <= u]
    atoms = [name for _, name in blocks] + [n for e in edges for n in pair[e].values()]
    if padded:
        atoms += w.names(2 ** (m * m), "z")
    return w.write(".str", _structure_text(w.shuffled(atoms), {"Adj/2": adj, "Pre/2": pre}))


def _iso(w: _Writer, smoke: bool):
    rng = w.rng
    warm = _gadget_text(w, 2, {0}, padded=False)
    warmup = Request(
        w.out("warmup") + ["solve", "cfi-classify", "--input", warm], {"class": 1},
        "solve cfi-classify", "warmup", 2,
    )
    multipede_sizes, validate_sizes, classify, cfi_pairs = (
        ISO_SMOKE if smoke else (ISO_MULTIPEDE, ISO_VALIDATE, ISO_CLASSIFY, ISO_CFI_PAIRS)
    )
    requests = []

    def add(argv, expect, command, family, size):
        requests.append(Request(w.out(len(requests)) + argv, expect, command, family, size))

    pedes = {}
    for n in sorted(set(multipede_sizes) | set(validate_sizes)):
        hyperedges, sides = _multipede(w, n)
        shoe_side = rng.randrange(2)
        pedes[n] = (hyperedges, sides, _multipede_text(w, n, hyperedges, sides, 0, shoe_side), shoe_side)
    for n in multipede_sizes:
        hyperedges, sides, path_a, shoe_side = pedes[n]
        flipped = rng.getrandbits(n)
        path_b = _multipede_text(w, n, hyperedges, sides, flipped, shoe_side)
        expect = {"isomorphic": oracle.multipede_isomorphic(hyperedges, n, flipped, 0)}
        add(["iso", "multipede3", "--a", path_a, "--b", path_b], expect, "iso multipede3", "multipede3", n)
    for n in validate_sizes:
        hyperedges, _, path, _ = pedes[n]
        # odd exactly when the hyperedge-by-segment incidence has full column rank
        odd = oracle.gf2_rank([sum(1 << s for s in e) for e in hyperedges]) == n
        expect = {"valid": True, "odd": odd, "has_shoe": True}
        add(["validate", "multipede", "--input", path], expect, "validate multipede", "validate", n)
    for m, padded in classify:
        twist = {v for v in range(m + 1) if rng.random() < 0.5}
        path = _gadget_text(w, m, twist, padded)
        family = "classify-padded" if padded else "classify"
        add(["solve", "cfi-classify", "--input", path], {"class": len(twist) % 2}, "solve cfi-classify", family, m)
    for m, isomorphic in cfi_pairs:
        twist = {v for v in range(m + 1) if rng.random() < 0.5}
        other = set(twist) if isomorphic else twist ^ {rng.randrange(m + 1)}
        path_a = _gadget_text(w, m, twist, padded=False)
        path_b = _gadget_text(w, m, other, padded=False)
        add(["iso", "cfi", "--a", path_a, "--b", path_b], {"isomorphic": isomorphic}, "iso cfi", "iso-cfi", m)
    return warmup, requests, []


def build(workload: str, seed: int, workdir: str, src: str, smoke: bool = False) -> Plan:
    """Write the inputs of one workload into ``workdir`` and return its plan."""
    w = _Writer(workdir, random.Random(f"{workload}:{seed}"))
    if workload == "matching":
        warmup, requests, checks = _matching(w, smoke)
    elif workload == "det":
        warmup, requests, checks = _det(w, smoke)
    elif workload == "bgs":
        warmup, requests, checks = _bgs(w, smoke, src)
    elif workload == "iso":
        warmup, requests, checks = _iso(w, smoke)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(workload, warmup, requests, checks)
