"""Matrices over unordered index sets and the group-exponent singularity test.

A :class:`FieldMatrix` is a total function from ``rows x cols`` to field
elements, stored sparsely (absent entries are zero).  It holds the only
copy of its field, which every question about it reads; :func:`mat_mul`,
alone given a field too, refuses factors over another.  Index sets carry
no order; every verdict produced here is invariant under renaming the
indices.  The constructor only drops zero entries: matrices from outside
input are checked by ``parse_matrix``, and the rest are built valid.

Products and powers run on a dense layout, rectangular shapes included
(:class:`_Layout`): the factors are laid out once under internal
numberings of the row, inner and column index sets, the products run on
the layout, and the result is read back once.  Every field runs over its
prime field GF(p).  A field of order ``p**d`` supplies its regular
representation (:mod:`.fields`): ``block(a)`` is the d-by-d GF(p) matrix
of ``x -> a x``.  A matrix over I x J is laid out as the GF(p) matrix over
``(I x {0..d-1}) x (J x {0..d-1})`` made of the blocks of its entries,
and a product is read back from column 0 of each block, which holds the
entry's base-p digits.  The lift is an injective ring homomorphism, so
``lift(M N) = lift(M) lift(N)`` and ``lift(M)**e = lift(M**e)``:
``M**e`` is the identity iff ``lift(M)**e`` is, with the same exponent and
the same number of products.  GF(4) and GF(8) thus run on GF(2), GF(9) on
GF(3), and a prime field (d = 1) is its own lift.

A GF(p) matrix is one Python int of w-bit slots: entry (a, b) under the
numberings is slot ``a * s + b``, with one stride
``s = max(|inner|, |cols|) * d`` shared by both factors and the product.
For each inner index k, ``(P >> k w) & COL``, with ``COL`` one full slot
at the start of each row, is column k of P, and multiplying it by row k of
Q drops a copy of that row, scaled, into every row of P; the copies are
``|cols| <= s`` slots wide and never overlap, and ``P Q`` is the sum of
these |inner| products: a few big-int operations per inner index
(word-parallel arithmetic: Lamport, "Multiple byte processing with
full-word instructions", CACM 1975; many small products in one big-int
product, as in Harvey, "Faster polynomial multiplication via multipoint
Kronecker substitution", J. Symb. Comp. 2009).  Over GF(2), w = 1 and the
sum is an XOR, so nothing carries.  On square matrices this beats XORing
the rows of Q picked by each row of P up to n = 200 to 250 (7 to 9 times
faster at n = 40, 1.8 to 2.6 times slower at n = 400, over three runs on
a 2-core VM); at n = 200 one power test already makes about 18,000
products.

Over odd p the slots must not carry either.  An entry is below p, so a
slot that holds a reduced entry plus k products of entries holds at most
``(p - 1) + k (p - 1)**2``.  For p <= 16 one product fits a byte with room
to spare, so w = 8, and every ``(255 - (p - 1)) // (p - 1)**2`` inner
indices (63 for p = 3, 6 for p = 7, 1 for p = 13) the sum is reduced
modulo p by one byte-translation pass (``bytes.translate``) over its
slots.  A larger p takes w = 16 while a slot holds all ``n (p - 1)**2``, n
the inner count over GF(p), and reduces once per product, reading and
writing the slots with :mod:`struct`.  Past that the layout is a list of
rows and the list product :func:`_list_mul`, shared with Z: 32-bit slots
were no reliable gain at n = 40 (0.6 to 1.2 times its time per product
over GF(251), GF(257) and GF(1021), across runs on a 2-core VM).  Byte
slots with reduction runs beat 16-bit slots with one pass wherever both
apply: their multiplications are a quarter the size (1.1 against 4.1 ms
per product over GF(3) at n = 64).  Over GF(9) the lift makes a product of
d**3 = 8 times the entry operations; it runs at about the speed of a
product entry by entry through GF(9)'s tables at n = 40 (2.8 against 2.9
ms per product) and faster below (0.9 against 1.3 ms at n = 30).

Each entry of a product is a field sum over the inner indices, and field
addition is commutative and associative, so the numberings decide
nothing: the same numbering lays out and reads back, so the matrix
returned is the same map under any numbering, and only the time the
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
the bit length: powers run by left-to-right sliding windows (Knuth, TAOCP
vol. 2, 4.6.3) of at most w digits, which take about ``bits + bits / (w +
1) + 2**(w - 1)`` products, with w in 1..5 the least of that for the bit
length, or by the binary method when the exponent has too few 1 digits
for windows to be sure of fewer.  The ordered Gaussian routines live
alongside as the independent oracle and as ``solve det --method gauss``;
rank, solve and the frequency experiment share one forward elimination,
:func:`echelon`, over the row operation the field supplies.  GF(2) rows
packed as ints are eliminated by :func:`_bitrow_pivots`, whose pivots the
frequency experiment and the multipede decisions read.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
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


@dataclass(frozen=True)
class FieldMatrix:
    """A total map ``rows x cols -> field``; zero entries may be omitted."""

    field: FiniteField
    rows: frozenset
    cols: frozenset
    entries: dict

    def __post_init__(self):
        # equal maps have equal entry dicts: zero entries are never stored,
        # and a dict that holds none is kept as given
        if not all(self.entries.values()):
            object.__setattr__(self, "entries", {k: v for k, v in self.entries.items() if v})

    @property
    def square(self) -> bool:
        """Whether the matrix is I-square: its row and column sets agree."""
        return self.rows == self.cols

    def entry(self, i, j):
        return self.entries.get((i, j), self.field.zero)

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


def _list_mul(a: list, b: list, p: int = 0) -> list:
    """The product of matrices as lists of rows: over Z, or modulo ``p``."""
    cols = list(zip(*b))
    product = [[sum(map(operator.mul, row, col)) for col in cols] for row in a]
    return [[v % p for v in row] for row in product] if p else product


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # slot values 0, 1 as binary digits
_VALUES = bytes.maketrans(b"01", b"\0\1")


def _slots_mul(p: int, width: int, run: int, rows: int, inner: int, cols: int, stride: int):
    """The product of a ``rows x inner`` and an ``inner x cols`` matrix
    over GF(p), both packed into ``width``-bit slots by :meth:`_Layout.pack`
    at a stride of at least ``inner`` and ``cols``.  For each inner index
    k, P's column k, read as one slot at the start of each row, times Q's
    row k drops a copy of that row, scaled, into every row of P; the copies
    are ``cols <= stride`` slots wide, so they never overlap.  Over GF(2)
    the copies are XORed.  Otherwise they are added, and each slot is
    reduced modulo p after every ``run`` inner indices, few enough that a
    slot never carries."""
    column = sum(((1 << width) - 1) << a * stride * width for a in range(rows))
    row = (1 << cols * width) - 1
    shifts = [(k * width, k * stride * width) for k in range(inner)]
    if width == 1:

        def xor_mul(x: int, y: int) -> int:
            acc = 0
            for at, row_at in shifts:
                acc ^= (x >> at & column) * (y >> row_at & row)
            return acc

        return xor_mul
    runs = [shifts[k : k + run] for k in range(0, inner, run)]
    size = rows * stride * width // 8
    if width == 8:
        table = (bytes(range(p)) * (256 // p + 1))[:256]  # byte v -> v % p

        def reduce(acc: int) -> int:
            return int.from_bytes(acc.to_bytes(size, "little").translate(table), "little")

    else:
        slots = struct.Struct(f"<{size // 2}H")

        def reduce(acc: int) -> int:
            values = slots.unpack(acc.to_bytes(size, "little"))
            return int.from_bytes(slots.pack(*[v % p for v in values]), "little")

    def mul(x: int, y: int) -> int:
        acc = 0
        for part in runs:
            for at, row_at in part:
                acc += (x >> at & column) * (y >> row_at & row)
            acc = reduce(acc)
        return acc

    return mul


class _Layout:
    """The dense layout of a ``rows x inner`` and an ``inner x cols``
    matrix over ``field``, and of their product, as matrices over its prime
    field GF(p): a matrix is packed once (:meth:`pack`), multiplied any
    number of times (``mul``) and read back once (:meth:`unpack`), or
    compared with another matrix packed alike; see the module docstring."""

    def __init__(self, field: FiniteField, rows: int, inner: int, cols: int):
        self.field = field
        d = self.degree = field.degree
        p = field.characteristic
        s = self.stride = max(inner, cols) * d
        rows, inner, cols = rows * d, inner * d, cols * d  # over GF(p)
        # a slot holds an entry below p plus `run` products of such entries
        if p == 2:
            self.width, run = 1, inner
        elif p - 1 + (p - 1) ** 2 < 1 << 8:
            self.width, run = 8, (255 - (p - 1)) // (p - 1) ** 2
        elif max(inner, 1) * (p - 1) ** 2 < 1 << 16:
            self.width, run = 16, max(inner, 1)
        else:
            self.width = None
        if self.width is None:
            self.mul = lambda x, y: _list_mul(x, y, p)
        else:
            self.mul = _slots_mul(p, self.width, run, rows, inner, cols, s)

    def pack(self, entries: dict, row_index: list, col_index: list):
        """``entries`` with the block of the entry at ``(row_index[a],
        col_index[b])`` from GF(p) row ``a * d`` and column ``b * d`` on,
        and GF(p) entry (r, c) in slot ``r * stride + c``."""
        d, s = self.degree, self.stride
        rows = len(row_index) * d
        slots = [0] * (rows * s)
        row_at = {i: a * d * s for a, i in enumerate(row_index)}
        col_at = {j: b * d for b, j in enumerate(col_index)}
        if d == 1:  # a prime field is its own regular representation
            for (i, j), v in entries.items():
                slots[row_at[i] + col_at[j]] = v
        else:
            block = self.field.block
            for (i, j), v in entries.items():
                at = row_at[i] + col_at[j]
                for line in block(v):
                    slots[at : at + d] = line
                    at += s
        if self.width is None:
            return [slots[r * s : r * s + s] for r in range(rows)]
        if self.width == 1:
            # slots[t] is bit t, and one spare digit reads an empty layout as 0
            return int(bytes(slots[::-1]).translate(_DIGITS) or b"0", 2)
        if self.width == 8:
            return int.from_bytes(bytes(slots), "little")
        return int.from_bytes(struct.pack(f"<{len(slots)}H", *slots), "little")

    def unpack(self, row_index: list, col_index: list, packed) -> FieldMatrix:
        """The matrix that :meth:`pack` lays out as ``packed``: the entry at
        ``(row_index[a], col_index[b])`` is the element whose base-p digits
        column 0 of its block holds."""
        d, s, w = self.degree, self.stride, self.width
        if w is None:
            slots = itertools.chain.from_iterable(packed)
        elif w == 1:
            slots = format(packed, "b").encode()[::-1].translate(_VALUES)
        else:
            count = len(row_index) * d * s
            slots = packed.to_bytes(count * w // 8, "little")
            slots = struct.unpack(f"<{count}H", slots) if w == 16 else slots
        if d == 1:
            entries = {
                (row_index[t // s], col_index[t % s]): v for t, v in enumerate(slots) if v
            }
        else:
            p = self.field.characteristic
            entries = {}
            for t, v in enumerate(slots):
                if v and not t % s % d:
                    r, c = divmod(t, s)
                    key = row_index[r // d], col_index[c // d]
                    entries[key] = entries.get(key, 0) + v * p ** (r % d)
        return FieldMatrix(self.field, frozenset(row_index), frozenset(col_index), entries)


def mat_mul(field: FiniteField, m: FieldMatrix, n: FieldMatrix) -> FieldMatrix:
    """The product ``m n`` of matrices over ``field``, on the dense layout."""
    if m.field is not field or n.field is not field:
        raise ValidationError("the factors must be over the given field")
    if m.cols != n.rows:
        raise ValidationError("inner index sets differ")
    rows, inner, cols = list(m.rows), list(m.cols), list(n.cols)
    layout = _Layout(field, len(rows), len(inner), len(cols))
    product = layout.mul(layout.pack(m.entries, rows, inner), layout.pack(n.entries, inner, cols))
    return layout.unpack(rows, cols, product)


def mat_pow(m: FieldMatrix, r: int) -> FieldMatrix:
    """``m**r`` (r >= 1) by sliding windows over the binary digits of
    ``r`` (:func:`_square_and_multiply`); at most ``2 * r.bit_length()``
    multiplications, on the dense layout."""
    if r < 1:
        raise ValidationError("exponent must be at least 1")
    if not m.square:
        raise ValidationError("powers need a square matrix")
    index = list(m.rows)  # the internal numbering; see the module docstring
    layout = _Layout(m.field, len(index), len(index), len(index))
    power = _square_and_multiply(layout.mul, layout.pack(m.entries, index, index), r)
    return layout.unpack(index, index, power)


def _square_and_multiply(mul, base, r: int):
    """``base**r`` (r >= 1) by sliding windows: the odd powers ``base,
    base**3, ..., base**(2**w - 1)``, then ``r``'s digits, from the most
    significant, in windows of at most w digits that start and end with a
    1.  Windows start at least w digits apart, so they take at most
    ``2**(w - 1) + bits + ceil(bits / w) - 2`` products; when that is more
    than the binary method's ``bits + ones - 2``, w = 1: the binary
    method, a plain left-to-right digit loop making the same products in
    the same order, so no ``r`` takes more."""
    bits = format(r, "b")
    # the w in 1..5 where bits / (w + 1) + 2**(w - 1) is least
    w = 1 + sum(len(bits) > bound for bound in (6, 24, 80, 240))
    if w == 1 or 2 ** (w - 1) - (-len(bits) // w) > r.bit_count():
        power = base
        for digit in bits[1:]:
            power = mul(power, power)
            if digit == "1":
                power = mul(power, base)
        return power
    odd = {"1": base}  # base**v at v's digits, for odd v below 2**w
    square, power = mul(base, base), base
    for v in range(3, 2**w, 2):
        odd[format(v, "b")] = power = mul(power, square)
    done = bits.rfind("1", 0, w) + 1
    power = odd[bits[:done]]
    while (start := bits.find("1", done)) >= 0:
        end = bits.rfind("1", start, start + w) + 1
        for _ in range(end - done):
            power = mul(power, power)
        power = mul(power, odd[bits[start:end]])
        done = end
    for _ in range(len(bits) - done):
        power = mul(power, power)
    return power


def _bitrow_pivots(rows) -> dict:
    """Forward elimination over GF(2) of rows packed as Python ints: leading
    bit -> reduced row, one pivot per independent row, so as many as the
    rank.  The rows span the int 1 exactly when a pivot leads at bit 0: in
    a sum of distinct pivots the highest leading bit survives."""
    pivots: dict = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            other = pivots.get(top)
            if other is None:
                pivots[top] = row
                break
            row ^= other
    return pivots


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


def nonsingular_square(m: FieldMatrix) -> bool:
    """True iff ``m**e`` is the identity for ``e`` the exponent of the
    general linear group of its dimension.  Empty matrices are non-singular
    by convention."""
    if not m.square:
        raise ValidationError("nonsingular_square needs a square matrix")
    n = len(m.rows)
    if n == 0:
        return True
    # the power and the identity are compared as laid out: the lift and the
    # packing are injective, and the lift of the identity is the identity
    index = list(m.rows)
    layout = _Layout(m.field, n, n, n)
    e = gl_exponent(m.field, n)
    power = _square_and_multiply(layout.mul, layout.pack(m.entries, index, index), e)
    return power == layout.pack({(i, i): m.field.one for i in index}, index, index)


def nonsingular_rect(m: FieldMatrix) -> bool:
    """Non-singularity of an I-by-J matrix: none if |I| != |J|, else that
    of ``M M^t``, whose determinant is the square of M's."""
    if len(m.rows) != len(m.cols):
        return False
    return nonsingular_square(mat_mul(m.field, m, transpose(m)))


def _ordered_grid(m: FieldMatrix, row_order, col_order):
    rows = list(row_order)
    cols = list(col_order)
    if set(rows) != set(m.rows) or len(rows) != len(m.rows):
        raise ValidationError("row_order must enumerate the row set")
    if set(cols) != set(m.cols) or len(cols) != len(m.cols):
        raise ValidationError("col_order must enumerate the column set")
    return rows, cols, _dense_rows(m.entries, rows, cols)


def echelon(field: FiniteField, rows: list) -> list:
    """Forward elimination in place.

    ``rows`` are lists of field elements of one length, in a caller-chosen
    order.  Afterwards the first ``k`` rows are in row echelon form and the
    rest are zero; returns the ``k`` pivot columns in row order.  Column
    ``c`` is a pivot exactly when it is not a combination of the columns
    before it.
    """
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
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


def rank_gaussian(m: FieldMatrix, row_order, col_order) -> int:
    """Matrix rank by ordered Gaussian elimination (the oracle route)."""
    _, _, grid = _ordered_grid(m, row_order, col_order)
    return len(echelon(m.field, grid))


def solve_gaussian(m: FieldMatrix, rhs: dict, row_order, col_order):
    """Solve ``m x = rhs`` over the field; returns a dict col -> element, or
    None when the system is inconsistent.  Columns that are not pivots in
    the given column order are set to zero, which makes the answer unique."""
    field = m.field
    rows, cols, grid = _ordered_grid(m, row_order, col_order)
    n = len(cols)
    for i, row in zip(rows, grid):
        row.append(rhs.get(i, field.zero))
    pivots = echelon(field, grid)
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
