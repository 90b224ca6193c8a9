"""Expected answers, computed by the benchmark's own code.

Nothing here imports the package under test: every verdict the benchmark
checks is fixed by one of these routines (or by how the instance was
built) before any request is timed.
"""

from __future__ import annotations


def max_matching(a_side, adjacency) -> int:
    """Size of a maximum matching by augmenting paths (Kuhn's algorithm,
    with an explicit stack so long paths cannot exhaust the recursion
    limit).  ``adjacency`` maps each A-vertex to its B-neighbours."""
    owner: dict = {}
    size = 0
    for root in a_side:
        # depth-first search for an augmenting path from root; the stack
        # holds (a, iterator over a's neighbours) and parent links record
        # which B-vertex led to each A-vertex
        seen_b: set = set()
        came_by: dict = {root: None}
        stack = [(root, iter(adjacency[root]))]
        end_b = None
        while stack and end_b is None:
            a, neighbours = stack[-1]
            for b in neighbours:
                if b in seen_b:
                    continue
                seen_b.add(b)
                nxt = owner.get(b)
                if nxt is None:
                    end_b = b
                    break
                came_by[nxt] = (a, b)
                stack.append((nxt, iter(adjacency[nxt])))
                break
            else:
                stack.pop()
        if end_b is None:
            continue
        a, b = stack[-1][0], end_b
        while True:
            owner[b] = a
            link = came_by[a]
            if link is None:
                break
            a, b = link
        size += 1
    return size


def bareiss_det(rows) -> int:
    """Exact integer determinant by fraction-free elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def first_primes(k: int) -> list:
    """The first ``k`` primes by trial division against earlier primes."""
    primes: list = []
    candidate = 2
    while len(primes) < k:
        if all(candidate % p for p in primes if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def gf2_rank(rows) -> int:
    """Rank over GF(2) of rows given as int bitmasks."""
    pivots: dict = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def gf2_solvable(rows, rhs) -> bool:
    """Whether the GF(2) system ``rows[i] . x = rhs[i]`` has a solution;
    rows are bitmasks over the unknowns, rhs bits are 0 or 1."""
    # append the right-hand side as bit 0 of a shifted row: the system is
    # inconsistent exactly when elimination leaves the row "0 = 1"
    return gf2_rank([r << 1 for r in rows]) == gf2_rank([(r << 1) | b for r, b in zip(rows, rhs)])


def multipede_isomorphic(hyperedges, n: int, flipped: int, first: int) -> bool:
    """Whether a shod multipede is isomorphic to its copy with the feet of
    the segments in bitmask ``flipped`` exchanged.

    Segments are 0 .. n-1 in the segment order and ``first`` is the shoe's
    segment.  Flipping the feet of a set Y changes the positive class of a
    hyperedge exactly when Y meets it oddly, so an isomorphism is a flip Y
    that avoids the shoe's segment and meets every hyperedge with the same
    parity as ``flipped`` does.
    """
    rows = []
    rhs = []
    for edge in hyperedges:
        mask = 0
        for s in edge:
            mask |= 1 << s
        rows.append(mask)
        rhs.append(bin(mask & flipped).count("1") % 2)
    rows.append(1 << first)
    rhs.append(0)
    return gf2_solvable(rows, rhs)


def mod2_power(rows, r: int) -> list:
    """``rows ** r`` over Z/2 for a 0/1 square matrix, by repeated
    squaring on row bitmasks."""
    n = len(rows)

    def mul(x, y):
        # row i of x*y is the xor of the rows of y selected by row i of x
        out = []
        for row in x:
            acc = 0
            for k in range(n):
                if (row >> k) & 1:
                    acc ^= y[k]
            out.append(acc)
        return out

    base = [sum((rows[i][j] & 1) << j for j in range(n)) for i in range(n)]
    result = [1 << i for i in range(n)]
    while r:
        if r & 1:
            result = mul(result, base)
        base = mul(base, base)
        r >>= 1
    return [[(result[i] >> j) & 1 for j in range(n)] for i in range(n)]
