"""Matrices over unordered index sets and the group-exponent singularity test.

A :class:`FieldMatrix` is a total function from ``rows x cols`` to field
elements, stored sparsely (absent entries are zero).  Index sets carry no
order; every verdict produced here is invariant under renaming the indices.
Matrices built from outside input are validated entry by entry; the
kernel's own results (products, powers, identities, transposes) are built
valid and skip that check.

Multiplication sums over an unordered index set: the (i, k) entry of
``M N`` is the field sum of ``M[i, j] * N[j, k]`` over the inner indices
``j`` where both entries are nonzero.  Over Z/2 this is exactly "the
number of common neighbours is odd".  Field addition is commutative and
associative, so the order in which the inner indices are visited cannot
influence the result.

Powers run on dense rows: the base matrix is packed once under an internal
numbering of the index set, the products multiply dense rows, and the
result is unpacked once.  Over GF(2) a row is one Python int, bit ``b``
standing for the ``b``-th index, and row i of ``P Q`` is the XOR of the
rows of ``Q`` picked by the bits of row i of ``P`` (Albrecht, Bard and
Hart, "Algorithm 898", ACM TOMS 2010); over the other fields a row is a
list of elements and the field supplies the product (``dense_mul``).  The
numbering is the index set's iteration order, and it decides nothing: the
same numbering packs and unpacks, so the power returned is the same map
``rows x cols -> field`` under any numbering, and only the time the
products take could depend on it, so it never leaves this module.

Non-singularity of an I-square matrix is decided without elimination, by
checking ``M**e == identity`` for ``e`` the exponent of GL_n(q), n = |I|:
``p**c * lcm(q**k - 1 : 1 <= k <= n)``, with p the characteristic and
``p**c`` the least power of p that is at least n.  An invertible M is the
commuting product of a semisimple part, whose eigenvalues lie in fields
GF(q**k) with k <= n and so have orders dividing ``q**k - 1``, and a
unipotent part ``I + N`` with ``N**n = 0``, whose ``p**c``-th power is
``I + N**(p**c) = I``; so ``M**e = I``.  No power of a singular matrix is
the identity, since its determinant stays zero.  The paper argues with the
group order |GL_n(q)| (Lagrange), a multiple of the exponent; every
multiple of the exponent decides the same way, so that argument is the
special case.  The exponent has about ``(3 / pi**2) n**2 log2 q`` bits
against ``n**2 log2 q`` for the order, and the number of products follows
the bit length.  The ordered Gaussian routines live alongside as the
independent oracle and as ``solve det --method gauss``; rank, solve and the
frequency experiment share one forward elimination, :func:`echelon`, over
the row operation the field supplies.  GF(2) rank on packed rows is
:func:`_rank_bitrows`, which the frequency experiment and the multipede
decisions read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ValidationError
from .fields import FiniteField

__all__ = [
    "FieldMatrix",
    "gl_exponent",
    "identity",
    "mat_mul",
    "mat_pow",
    "nonsingular_rect",
    "nonsingular_square",
    "rank_gaussian",
    "solve_gaussian",
    "transpose",
]


@dataclass(frozen=True, eq=False)
class FieldMatrix:
    """A total map ``rows x cols -> field``; zero entries may be omitted."""

    field: FiniteField
    rows: frozenset
    cols: frozenset
    entries: dict

    def __post_init__(self):
        zero = self.field.zero
        cleaned = {}
        for (i, j), v in self.entries.items():
            if i not in self.rows or j not in self.cols:
                raise ValidationError(f"entry {(i, j)} outside the index sets")
            if not (0 <= v < self.field.order):
                raise ValidationError(f"entry value {v} not a field element")
            if v != zero:
                cleaned[(i, j)] = v
        object.__setattr__(self, "entries", cleaned)

    @classmethod
    def _trusted(cls, field, rows, cols, entries) -> "FieldMatrix":
        """A kernel result: ``entries`` are already nonzero field elements
        on ``rows x cols``, so nothing is checked again."""
        m = object.__new__(cls)
        vars(m).update(field=field, rows=rows, cols=cols, entries=entries)
        return m

    @property
    def square(self) -> bool:
        """Whether the matrix is I-square: its row and column sets agree."""
        return self.rows == self.cols

    def entry(self, i, j):
        return self.entries.get((i, j), self.field.zero)

    def __eq__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (
            self.field.order == other.field.order
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return (
            f"FieldMatrix(q={self.field.order}, {len(self.rows)}x{len(self.cols)},"
            f" nnz={len(self.entries)})"
        )


def identity(field: FiniteField, index_set) -> FieldMatrix:
    idx = frozenset(index_set)
    eye = {(i, i): field.one for i in idx}
    return FieldMatrix._trusted(field, idx, idx, eye)


def transpose(m: FieldMatrix) -> FieldMatrix:
    return FieldMatrix._trusted(
        m.field, m.cols, m.rows, {(j, i): v for (i, j), v in m.entries.items()}
    )


def mat_mul(field: FiniteField, m: FieldMatrix, n: FieldMatrix) -> FieldMatrix:
    """Product as field sums over the common nonzero inner indices."""
    if m.cols != n.rows:
        raise ValidationError("inner index sets differ")
    zero = field.zero
    mul = field.mul
    add = field.add
    # nonzero columns of m per row, nonzero rows of n per column
    by_row: dict = {}
    for (i, j), v in m.entries.items():
        by_row.setdefault(i, []).append((j, v))
    by_col: dict = {}
    for (j, k), v in n.entries.items():
        by_col.setdefault(k, {})[j] = v
    out = {}
    for i, row in by_row.items():
        for k, col in by_col.items():
            acc = zero
            for j, a in row:
                b = col.get(j)
                if b is not None:
                    acc = add(acc, mul(a, b))
            if acc != zero:
                out[(i, k)] = acc
    return FieldMatrix._trusted(field, m.rows, n.cols, out)


def mat_pow(field: FiniteField, m: FieldMatrix, r: int) -> FieldMatrix:
    """``m**r`` by repeated squaring over the binary digits of ``r``
    (r >= 1), consuming them from the most significant; at most
    ``2 * r.bit_length()`` multiplications, on dense rows."""
    if r < 1:
        raise ValidationError("exponent must be at least 1")
    if not m.square:
        raise ValidationError("powers need a square matrix")
    index = list(m.rows)  # the internal numbering; see the module docstring
    position = {i: b for b, i in enumerate(index)}
    n = len(index)
    if field.order == 2:
        base = [0] * n
        for i, j in m.entries:  # every stored GF(2) entry is one
            base[position[i]] |= 1 << position[j]
        power = _square_and_multiply(_bitrows_mul, base, r)
        power = [[row >> c & 1 for c in range(n)] for row in power]
    else:
        base = [[0] * n for _ in index]
        for (i, j), v in m.entries.items():
            base[position[i]][position[j]] = v
        power = _square_and_multiply(field.dense_mul, base, r)
    entries = {
        (i, j): v for i, row in zip(index, power) for j, v in zip(index, row) if v
    }
    return FieldMatrix._trusted(field, m.rows, m.rows, entries)


def _square_and_multiply(mul, base, r: int):
    power = base
    # the leading bit is consumed by starting from the base itself
    for b in range(r.bit_length() - 2, -1, -1):
        power = mul(power, power)
        if r >> b & 1:
            power = mul(power, base)
    return power


def _bitrows_mul(p: list, q: list) -> list:
    """Product of packed GF(2) matrices: row a of ``P Q`` is the XOR of the
    rows of ``Q`` picked by the bits of row a of ``P``."""
    out = []
    for row in p:
        acc = 0
        while row:
            low = row & -row
            acc ^= q[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


def _rank_bitrows(rows) -> int:
    """Rank over GF(2) of rows packed as Python ints."""
    pivots: dict = {}  # leading bit -> reduced row
    rank = 0
    for row in rows:
        while row:
            top = row.bit_length() - 1
            other = pivots.get(top)
            if other is None:
                pivots[top] = row
                rank += 1
                break
            row ^= other
    return rank


def gl_exponent(field: FiniteField, n: int) -> int:
    """Exponent of the group of invertible n-by-n matrices over ``field``:
    ``p**c * lcm(q**k - 1 : 1 <= k <= n)`` for q the order, p the
    characteristic and ``p**c`` the least power of p that is at least n."""
    if n < 1:
        raise ValidationError("dimension must be at least 1")
    unipotent = 1
    while unipotent < n:
        unipotent *= field.characteristic
    q = field.order
    return unipotent * math.lcm(*(q**k - 1 for k in range(1, n + 1)))


def nonsingular_square(field: FiniteField, m: FieldMatrix) -> bool:
    """True iff ``m**e`` is the identity for ``e`` the exponent of the
    general linear group of its dimension.  Empty matrices are non-singular
    by convention."""
    if not m.square:
        raise ValidationError("nonsingular_square needs a square matrix")
    n = len(m.rows)
    if n == 0:
        return True
    e = gl_exponent(field, n)
    return mat_pow(field, m, e) == identity(field, m.rows)


def nonsingular_rect(field: FiniteField, m: FieldMatrix) -> bool:
    """Non-singularity of an I-by-J matrix with |I| = |J| via the square
    matrix ``M M^t``, whose determinant is the square of M's."""
    if len(m.rows) != len(m.cols):
        raise ValidationError("row and column sets must have equal size")
    return nonsingular_square(field, mat_mul(field, m, transpose(m)))


def _ordered_grid(field: FiniteField, m: FieldMatrix, row_order, col_order):
    rows = list(row_order)
    cols = list(col_order)
    if set(rows) != set(m.rows) or len(rows) != len(m.rows):
        raise ValidationError("row_order must enumerate the row set")
    if set(cols) != set(m.cols) or len(cols) != len(m.cols):
        raise ValidationError("col_order must enumerate the column set")
    grid = [[m.entry(i, j) for j in cols] for i in rows]
    return rows, cols, grid


def echelon(field: FiniteField, rows: list, width: int) -> list:
    """Forward elimination in place.

    ``rows`` are lists of ``width`` field elements, in a caller-chosen
    order.  Afterwards the first ``k`` rows are in row echelon form and the
    rest are zero; returns the ``k`` pivot columns in row order.  Column
    ``c`` is a pivot exactly when it is not a combination of the columns
    before it.
    """
    pivots = []
    r = 0
    for c in range(width):
        if r == len(rows):
            break
        for rr in range(r, len(rows)):
            if rows[rr][c]:
                break
        else:
            continue
        rows[r], rows[rr] = rows[rr], rows[r]
        pivot = rows[r]
        scale = field.neg(field.inv(pivot[c]))
        # rows below the pivot are zero left of column c
        tail = pivot[c:]
        for rr in range(r + 1, len(rows)):
            row = rows[rr]
            if row[c]:
                row[c:] = field.axpy(field.mul(row[c], scale), row[c:], tail)
        pivots.append(c)
        r += 1
    return pivots


def rank_gaussian(field: FiniteField, m: FieldMatrix, row_order, col_order) -> int:
    """Matrix rank by ordered Gaussian elimination (the oracle route)."""
    _, _, grid = _ordered_grid(field, m, row_order, col_order)
    return len(echelon(field, grid, len(col_order)))


def solve_gaussian(field: FiniteField, m: FieldMatrix, rhs: dict, row_order, col_order):
    """Solve ``m x = rhs`` over the field; returns a dict col -> element, or
    None when the system is inconsistent.  Columns that are not pivots in
    the given column order are set to zero, which makes the answer unique."""
    rows, cols, grid = _ordered_grid(field, m, row_order, col_order)
    n = len(cols)
    for i, row in zip(rows, grid):
        row.append(rhs.get(i, field.zero))
    pivots = echelon(field, grid, n + 1)
    if pivots and pivots[-1] == n:
        return None  # a pivot in the right-hand side reads 0 = nonzero
    x = [field.zero] * n
    for c, row in reversed(list(zip(pivots, grid))):
        acc = row[n]
        for k in range(c + 1, n):
            if row[k] and x[k]:
                acc = field.add(acc, field.neg(field.mul(row[k], x[k])))
        x[c] = field.mul(acc, field.inv(row[c]))
    return dict(zip(cols, x))
