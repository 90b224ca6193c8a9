"""Matrices over unordered index sets and the group-exponent singularity test.

A :class:`FieldMatrix` is a total function from ``rows x cols`` to field
elements, stored sparsely (absent entries are zero).  Index sets carry no
order; every verdict produced here is invariant under renaming the indices.
The constructor only drops zero entries: matrices from outside input are
checked by ``parse_matrix``, and the rest are built valid.

Products and powers run on a dense layout, rectangular shapes included:
the factors are laid out once under internal numberings of the row, inner
and column index sets, the products run on the layout, and the result is
read back once.  Over GF(2) a whole matrix is one Python int
(:func:`_to_bits`): entry (a, b) under the numberings is bit
``a * s + b``, with one stride ``s = max(|inner|, |cols|)`` shared by both
factors and the product.  For each inner index k, ``(P >> k) & COL``, with
``COL`` one bit at the start of each row, marks the rows of P whose bit k
is set, and multiplying it by row k of Q drops a copy of that row into
each of them; the copies are ``|cols| <= s`` bits wide and never carry
into each other, and ``P Q`` is the XOR of these |inner| products: a few
big-int operations per inner index (word-parallel arithmetic: Lamport,
"Multiple byte processing with full-word instructions", CACM 1975).  On
square matrices this beats XORing the rows of Q picked by each row of P up
to n = 200 to 250 (7 to 9 times faster at n = 40, 1.8 to 2.6 times slower
at n = 400, over three runs on a 2-core VM); at n = 200 one power test
already makes about 18,000 products.  Over the other fields a row is a
list of elements (:func:`_dense_rows`) and the field supplies the product
(``dense_mul``).  Each entry of a product is a field sum over the inner
indices, and field addition is commutative and associative, so the
numberings decide nothing: the same numbering lays out and reads back, so
the matrix returned is the same map under any numbering, and only the time
the products take could depend on it, so it never leaves this module.

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
        # equal maps have equal entry dicts: zero entries are never stored
        object.__setattr__(self, "entries", {k: v for k, v in self.entries.items() if v})

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
    return FieldMatrix(field, idx, idx, {(i, i): field.one for i in idx})


def transpose(m: FieldMatrix) -> FieldMatrix:
    return FieldMatrix(m.field, m.cols, m.rows, {(j, i): v for (i, j), v in m.entries.items()})


def _dense_rows(entries: dict, row_index: list, col_index: list) -> list:
    """``entries``, a map ``(i, j) -> value``, as one list of values per
    index of ``row_index``, in the order of ``col_index``; absent entries
    are zero."""
    col_at = {j: b for b, j in enumerate(col_index)}
    rows = {i: [0] * len(col_index) for i in row_index}
    for (i, j), v in entries.items():
        rows[i][col_at[j]] = v
    return list(rows.values())


def _from_dense_rows(field: FiniteField, row_index: list, col_index: list, rows) -> FieldMatrix:
    """The matrix whose row ``row_index[a]`` is ``rows[a]``, read in the
    order of ``col_index``."""
    entries = {
        (i, j): v for i, row in zip(row_index, rows) for j, v in zip(col_index, row) if v
    }
    return FieldMatrix(field, frozenset(row_index), frozenset(col_index), entries)


def _to_bits(entries: dict, row_index: list, col_index: list, stride: int) -> int:
    """The GF(2) matrix ``entries`` as one int: entry ``(row_index[a],
    col_index[b])`` is bit ``a * stride + b``."""
    row_at = {i: a * stride for a, i in enumerate(row_index)}
    col_at = {j: b for b, j in enumerate(col_index)}
    # digits[t] is bit t, and one spare digit reads an empty layout as 0
    digits = bytearray(b"0" * (len(row_index) * stride + 1))
    for i, j in entries:
        digits[row_at[i] + col_at[j]] = ord("1")
    return int(digits[::-1], 2)


def _from_bits(field: FiniteField, row_index: list, col_index: list, stride: int, bits: int):
    """The matrix that :func:`_to_bits` lays out as ``bits``."""
    digits = format(bits, "b")[::-1]  # digits[t] is bit t
    entries = {
        (row_index[t // stride], col_index[t % stride]): 1 for t, d in enumerate(digits) if d == "1"
    }
    return FieldMatrix(field, frozenset(row_index), frozenset(col_index), entries)


def _bits_mul(rows: int, inner: int, cols: int, stride: int):
    """The product of a ``rows x inner`` and an ``inner x cols`` matrix,
    both laid out by :func:`_to_bits` at a stride of at least ``inner``
    and ``cols``.  For each inner index k, P's column k, read as one bit at
    the start of each row, times Q's row k drops a copy of that row into
    every row of P whose bit k is set; the copies are ``cols <= stride``
    bits wide, so they never carry into each other."""
    column = sum(1 << a * stride for a in range(rows))
    row = (1 << cols) - 1

    def mul(p: int, q: int) -> int:
        acc = 0
        for k in range(inner):
            acc ^= (p >> k & column) * (q >> k * stride & row)
        return acc

    return mul


def mat_mul(field: FiniteField, m: FieldMatrix, n: FieldMatrix) -> FieldMatrix:
    """The product ``m n`` on the dense layout; see the module docstring."""
    if m.cols != n.rows:
        raise ValidationError("inner index sets differ")
    rows, inner, cols = list(m.rows), list(m.cols), list(n.cols)
    if field.order == 2:
        stride = max(len(inner), len(cols))
        mul = _bits_mul(len(rows), len(inner), len(cols), stride)
        a = _to_bits(m.entries, rows, inner, stride)
        b = _to_bits(n.entries, inner, cols, stride)
        return _from_bits(field, rows, cols, stride, mul(a, b))
    a = _dense_rows(m.entries, rows, inner)
    b = _dense_rows(n.entries, inner, cols)
    # with no inner index the rows come back empty, and read as zero
    return _from_dense_rows(field, rows, cols, field.dense_mul(a, b))


def mat_pow(field: FiniteField, m: FieldMatrix, r: int) -> FieldMatrix:
    """``m**r`` by repeated squaring over the binary digits of ``r``
    (r >= 1), consuming them from the most significant; at most
    ``2 * r.bit_length()`` multiplications, on the dense layout."""
    if r < 1:
        raise ValidationError("exponent must be at least 1")
    if not m.square:
        raise ValidationError("powers need a square matrix")
    index = list(m.rows)  # the internal numbering; see the module docstring
    if field.order == 2:
        n = len(index)
        power = _square_and_multiply(_bits_mul(n, n, n, n), _to_bits(m.entries, index, index, n), r)
        return _from_bits(field, index, index, n, power)
    power = _square_and_multiply(field.dense_mul, _dense_rows(m.entries, index, index), r)
    return _from_dense_rows(field, index, index, power)


def _square_and_multiply(mul, base, r: int):
    power = base
    # the leading bit is consumed by starting from the base itself
    for b in range(r.bit_length() - 2, -1, -1):
        power = mul(power, power)
        if r >> b & 1:
            power = mul(power, base)
    return power


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


def _ordered_grid(m: FieldMatrix, row_order, col_order):
    rows = list(row_order)
    cols = list(col_order)
    if set(rows) != set(m.rows) or len(rows) != len(m.rows):
        raise ValidationError("row_order must enumerate the row set")
    if set(cols) != set(m.cols) or len(cols) != len(m.cols):
        raise ValidationError("col_order must enumerate the column set")
    return rows, cols, _dense_rows(m.entries, rows, cols)


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
    _, _, grid = _ordered_grid(m, row_order, col_order)
    return len(echelon(field, grid, len(col_order)))


def solve_gaussian(field: FiniteField, m: FieldMatrix, rhs: dict, row_order, col_order):
    """Solve ``m x = rhs`` over the field; returns a dict col -> element, or
    None when the system is inconsistent.  Columns that are not pivots in
    the given column order are set to zero, which makes the answer unique."""
    rows, cols, grid = _ordered_grid(m, row_order, col_order)
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
