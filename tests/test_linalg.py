"""Field fixtures, counting multiplication, powering, and the prime scans."""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiceless_lab import errors
from choiceless_lab.errors import (
    ChoicelessLabError,
    GuardExceeded,
    ParseError,
    ValidationError,
    read_decimal,
)
from choiceless_lab.linalg import intmatrix, matio
from choiceless_lab.linalg.fields import _is_prime, gf, zp
from choiceless_lab.linalg.intmatrix import (
    IntMatrix,
    determinant,
    determinant_work,
    nonsingular_int,
    prime_scan,
    scan_width,
)
from choiceless_lab.linalg.matio import parse_matrix, write_field_matrix, write_int_matrix
from choiceless_lab.linalg.matrix import (
    FieldMatrix,
    _Layout,
    _square_and_multiply,
    gl_exponent,
    mat_mul,
    mat_pow,
    nonsingular_square,
    rank_gaussian,
    solve_gaussian,
)
from choiceless_lab.linalg.primes import sieve_first_primes
from choiceless_lab.linalg.sampling import frequency_experiment, random_matrix

from helpers import identity, largest_admitted
from oracles import (
    bareiss_det,
    field_axiom_violations,
    gl_order,
    leibniz_det_mod,
    linear_solutions,
    mat_mul_mod,
    naive_mat_mul,
    partial_product,
)

GF2 = zp(2)
GF3 = zp(3)
MERSENNE61 = 2**61 - 1


def dense(field, rows, labels=None):
    n = len(rows)
    labels = labels or list(range(n))
    idx = frozenset(labels)
    entries = {
        (labels[i], labels[j]): rows[i][j] % field.order
        for i in range(n)
        for j in range(n)
    }
    return FieldMatrix(field, idx, idx, entries)


def as_rows(field, m, order):
    return [[m.entry(i, j) for j in order] for i in order]


def naive_product(field, m, n):
    """``m n`` by the ordered dot-product oracle, as a matrix."""
    entries = naive_mat_mul(field, m, n, m.rows, m.cols, n.cols)
    return FieldMatrix(field, m.rows, n.cols, entries)


# ---------------------------------------------------------------- fields


@pytest.mark.parametrize("q", [2, 3, 5, 7, 4, 8, 9, 11, 13])
def test_field_fixtures_satisfy_axioms(q):
    field = gf(q)
    assert field.order == q
    assert field_axiom_violations(field) == []
    els = list(range(q))
    for a in els:
        assert field.add(a, field.neg(a)) == field.zero
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one
    # the prime-subfield element r is one added to itself r times
    acc = field.zero
    for r in range(field.characteristic):
        assert acc == r
        acc = field.add(acc, field.one)
    xs, ys = zip(*itertools.product(els, repeat=2))
    for f in els:
        expected = [field.add(x, field.mul(f, y)) for x, y in zip(xs, ys)]
        assert field.axpy(f, xs, ys) == expected


@pytest.mark.parametrize("q", [4, 8, 9])
def test_regular_representation_is_an_injective_ring_homomorphism(q):
    """``a -> block(a)``, checked against the schoolbook product modulo p
    on every pair of elements; column 0 of a block holds the element's
    base-p digits, which is where products are read back from."""
    field = gf(q)
    p, d = field.characteristic, field.degree
    assert p**d == q
    block = {a: [list(row) for row in field.block(a)] for a in range(q)}
    assert all(len(m) == d and all(len(row) == d for row in m) for m in block.values())
    assert block[field.one] == [[int(i == j) for j in range(d)] for i in range(d)]
    assert len({repr(m) for m in block.values()}) == q
    for a, b in itertools.product(range(q), repeat=2):
        assert mat_mul_mod(p, block[a], block[b]) == block[field.mul(a, b)]
        summed = [[(x + y) % p for x, y in zip(r, s)] for r, s in zip(block[a], block[b])]
        assert summed == block[field.add(a, b)]
    for a in range(q):
        assert [row[0] for row in block[a]] == [a // p**i % p for i in range(d)]


@pytest.mark.parametrize("p", [2, 3, 251, MERSENNE61])
def test_prime_field_is_its_own_regular_representation(p):
    field = zp(p)
    assert field.degree == 1
    assert [field.block(a) for a in (0, 1, p - 1)] == [((0,),), ((1,),), ((p - 1,),)]


def test_field_addition_is_order_independent():
    field = gf(9)
    rng = random.Random(5)
    values = [rng.randrange(9) for _ in range(12)]
    totals = set()
    for _ in range(20):
        rng.shuffle(values)
        acc = field.zero
        for v in values:
            acc = field.add(acc, v)
        totals.add(acc)
    assert len(totals) == 1


def test_zp_rejects_composite():
    with pytest.raises(ValidationError):
        zp(6)
    for q in (4, 8, 9):  # made by gf first, a table field is still not Z/q
        assert gf(q).order == q
        with pytest.raises(ValidationError, match=f"{q} is not prime"):
            zp(q)


def test_prime_fields_are_cached_once():
    for p in (2, 3, 5, 7):
        assert gf(p) is zp(p)
    with pytest.raises(ValidationError, match="no field fixture of order 6"):
        gf(6)


# ---------------------------------------------------------------- mat_mul


@pytest.mark.parametrize("q", [2, 4, 7])
def test_matrix_stores_no_zero_entry(q):
    """Zero entries given to the constructor are dropped, so the matrix
    equals one built without them; a dict with no zero is kept as given."""
    field = gf(q)
    idx = frozenset("abc")
    nonzero = {("a", "b"): 1, ("c", "a"): q - 1, ("b", "b"): 1}
    zeros = {("a", "a"): 0, ("b", "c"): 0}
    with_zeros = FieldMatrix(field, idx, idx, {**zeros, **nonzero})
    without = FieldMatrix(field, idx, idx, nonzero)
    assert with_zeros.entries == nonzero
    assert with_zeros == without
    assert without.entries is nonzero
    assert FieldMatrix(field, idx, idx, zeros).entries == {}


def test_mat_mul_identity():
    m = dense(GF2, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert mat_mul(GF2, m, identity(GF2, m.rows)) == m
    assert mat_mul(GF2, identity(GF2, m.rows), m) == m


def test_mat_mul_hand_example():
    m = dense(GF2, [[0, 1], [1, 1]])
    sq = mat_mul(GF2, m, m)
    assert as_rows(GF2, sq, [0, 1]) == [[1, 1], [1, 0]]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_mat_mul_matches_naive_dot_product(q):
    field = gf(q)
    rng = random.Random(100 + q)
    for _ in range(100):
        n = rng.randrange(1, 5)
        a = dense(field, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
        b = dense(field, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
        got = mat_mul(field, a, b)
        order = list(range(n))
        expected = naive_mat_mul(field, a, b, order, order, order)
        assert got.entries == expected


def _random_matrix_on(data, field, rows, cols):
    cells = list(itertools.product(rows, cols))
    element = st.integers(0, field.order - 1)
    values = data.draw(st.lists(element, min_size=len(cells), max_size=len(cells)))
    return FieldMatrix(field, frozenset(rows), frozenset(cols), dict(zip(cells, values)))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mat_mul_matches_naive_on_every_shape_and_field(data):
    """Rows, inner and column sets of 0 to 4 indices each, under random
    names: the dense kernel agrees with the ordered dot product, and
    ``nonsingular_square`` with the rank on the same draws: a matrix with
    |I| != |J| has no inverse, so it is singular whatever its rank."""
    field = gf(data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9])))
    sizes = [data.draw(st.integers(0, 4)) for _ in range(3)]
    names = data.draw(
        st.lists(st.text(min_size=1, max_size=3), min_size=12, max_size=12, unique=True)
    )
    rows, inner, cols = (names[4 * k : 4 * k + size] for k, size in enumerate(sizes))
    a = _random_matrix_on(data, field, rows, inner)
    b = _random_matrix_on(data, field, inner, cols)
    assert mat_mul(field, a, b) == naive_product(field, a, b)
    for m in (a, b):
        rank = rank_gaussian(m, list(m.rows), list(m.cols))
        assert nonsingular_square(m) == (rank == len(m.rows) == len(m.cols))


def _random_gf2(rng, rows, cols):
    entries = {(i, j): rng.randrange(2) for i in rows for j in cols}
    return FieldMatrix(GF2, frozenset(rows), frozenset(cols), entries)


def _renamed(m, names):
    entries = {(names[i], names[j]): v for (i, j), v in m.entries.items()}
    return FieldMatrix(m.field, frozenset(map(names.get, m.rows)),
                       frozenset(map(names.get, m.cols)), entries)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_gf2_products_match_naive_across_digits(data):
    """GF(2) shapes of 0 to 40 indices per side with |inner| != |cols|, so
    a row spans several 30-bit digits and is narrower than the stride in
    one factor: the product agrees with the ordered dot product, on the
    factors and on a random renaming of their indices."""
    sizes = [data.draw(st.integers(0, 40)) for _ in range(2)]
    sizes.append(data.draw(st.integers(0, 40).filter(lambda c: c != sizes[1])))
    rows, inner, cols = ([f"{side}{k}" for k in range(size)] for side, size in zip("rkc", sizes))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    a, b = _random_gf2(rng, rows, inner), _random_gf2(rng, inner, cols)
    expected = naive_product(GF2, a, b)
    assert mat_mul(GF2, a, b) == expected
    everything = rows + inner + cols
    names = dict(zip(everything, rng.sample(range(len(everything)), len(everything))))
    assert mat_mul(GF2, _renamed(a, names), _renamed(b, names)) == _renamed(expected, names)


def _random_over(rng, field, rows, cols):
    """Entries drawn from zero, the largest element and uniformly, so that
    full rows reach the largest slot sums."""
    top = field.order - 1
    entries = {(i, j): rng.choice((0, top, rng.randrange(top + 1))) for i in rows for j in cols}
    return FieldMatrix(field, frozenset(rows), frozenset(cols), entries)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_mat_mul_matches_naive_over_odd_and_table_fields(data):
    """Shapes of 0 to 10 indices per side with |inner| != |cols|, over odd
    primes in byte slots with one run or several, in 16-bit slots and past
    them, and over GF(4), GF(8) and GF(9) through their prime fields: the
    product agrees with the ordered dot product, on the factors and on a
    random renaming of their indices."""
    fields = [3, 5, 7, 11, 13, 17, 101, 251, 257, MERSENNE61, 4, 8, 9]
    field = gf(data.draw(st.sampled_from(fields)))
    sizes = [data.draw(st.integers(0, 10)) for _ in range(2)]
    sizes.append(data.draw(st.integers(0, 10).filter(lambda c: c != sizes[1])))
    rows, inner, cols = ([f"{side}{k}" for k in range(size)] for side, size in zip("rkc", sizes))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    a, b = _random_over(rng, field, rows, inner), _random_over(rng, field, inner, cols)
    expected = naive_product(field, a, b)
    assert mat_mul(field, a, b) == expected
    everything = rows + inner + cols
    names = dict(zip(everything, rng.sample(range(len(everything)), len(everything))))
    assert mat_mul(field, _renamed(a, names), _renamed(b, names)) == _renamed(expected, names)


# (q, n, slot width) on both sides of each bound.  Over GF(p), n counted
# over GF(p), a byte holds a reduced entry plus (255 - (p - 1)) // (p - 1)**2
# products, and a product reduces its slots after every that many inner
# indices: 6 for p = 7 and 63 for p = 3.  Primes past 16 take 16-bit slots
# while a slot holds all n (p - 1)**2, and a list product past that.
SLOT_WIDTHS = [
    (4, 3, 1),
    (7, 6, 8),  # one run of 6
    (7, 7, 8),  # two runs
    (9, 31, 8),  # 62 over GF(3): one run of 63
    (9, 32, 8),  # 64: two runs
    (13, 1, 8),  # 12 + 144 = 156: one product per run
    (13, 2, 8),
    (17, 1, 16),  # 16 + 256 does not fit a byte
    (101, 6, 16),  # 60,000
    (101, 7, None),  # 70,000
    (251, 1, 16),  # 62,500
    (251, 2, None),  # 125,000
    (257, 1, None),  # 65,536
    (MERSENNE61, 1, None),
]


@pytest.mark.parametrize("q, n, width", SLOT_WIDTHS)
def test_slot_width_follows_the_largest_slot_sum(q, n, width):
    """The selection on both sides of each bound, and on each side a
    product and a power of full and of random matrices that agree with
    ordered dot products."""
    field = gf(q)
    assert _Layout(field, n, n, n).width == width
    labels = [f"x{k}" for k in range(n)]
    full = dense(field, [[q - 1] * n] * n, labels)
    drawn = _random_over(random.Random(q * n), field, labels, labels)
    for m in (full, drawn):
        assert mat_mul(field, m, m) == naive_product(field, m, m)
        assert mat_pow(m, 5) == _dict_pow(field, m, 5)


def test_mat_mul_dimension_mismatch():
    a = dense(GF2, [[1]])
    b = dense(GF2, [[1, 0], [0, 1]])
    with pytest.raises(ValidationError):
        mat_mul(GF2, a, b)


def test_mat_mul_refuses_factors_over_another_field():
    """A product is over the field it is asked for, so a factor over
    any other field is refused, even where its entries would fit."""
    m2 = dense(GF2, [[1, 1], [0, 1]])
    m3 = dense(GF3, [[1, 1], [0, 1]])
    for field, a, b in ((GF3, m2, m2), (GF2, m2, m3), (GF2, m3, m2), (gf(4), m2, m2)):
        with pytest.raises(ValidationError, match="over the given field"):
            mat_mul(field, a, b)
    assert mat_mul(GF3, m3, m3) == dense(GF3, [[1, 2], [0, 1]])


# ---------------------------------------------------------------- mat_pow


def test_mat_pow_examples():
    eye = identity(GF2, frozenset(range(3)))
    for r in (1, 2, 7, 100):
        assert mat_pow(eye, r) == eye
    swap = dense(GF2, [[0, 1], [1, 0]])
    assert mat_pow(swap, 2) == identity(GF2, swap.rows)
    shear = dense(GF2, [[1, 1], [0, 1]])
    assert mat_pow(shear, 2) == identity(GF2, shear.rows)
    fib = dense(GF2, [[0, 1], [1, 1]])
    assert mat_pow(fib, 3) == identity(GF2, fib.rows)


def test_mat_pow_matches_repeated_multiplication():
    rng = random.Random(11)
    for q in (2, 3):
        field = zp(q)
        for _ in range(20):
            n = rng.randrange(1, 4)
            m = dense(field, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
            acc = m
            for r in range(1, 9):
                assert mat_pow(m, r) == acc
                acc = naive_product(field, acc, m)


def _dict_pow(field, m, r):
    """``m**r`` by ordered dot products, least significant bit first."""
    result, square = None, m
    while True:
        if r & 1:
            result = square if result is None else naive_product(field, result, square)
        r >>= 1
        if not r:
            return result
        square = naive_product(field, square, square)


def _bit_grid(n):
    return st.lists(
        st.lists(st.integers(0, 1), min_size=n, max_size=n), min_size=n, max_size=n
    )


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_gf2_packed_power_matches_dict_products(data):
    n = data.draw(st.integers(min_value=1, max_value=8))
    grid = data.draw(_bit_grid(n))
    r = data.draw(
        st.one_of(st.integers(1, 300), st.just(gl_order(2, n)), st.just(gl_exponent(GF2, n)))
    )
    labels = data.draw(st.permutations([f"x{k}" for k in range(n)]))
    expected = _dict_pow(GF2, dense(GF2, grid), r)
    assert mat_pow(dense(GF2, grid), r) == expected
    renamed = {(labels[i], labels[j]): v for (i, j), v in expected.entries.items()}
    assert mat_pow(dense(GF2, grid, labels), r).entries == renamed


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_dense_power_matches_dict_products(data):
    q = data.draw(st.sampled_from([3, 4, 5, 7, 8, 9, 251, 257, MERSENNE61]))
    field = gf(q)
    n = data.draw(st.integers(min_value=1, max_value=6))
    element = st.one_of(st.just(0), st.integers(0, q - 1))
    grid = data.draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=n, max_size=n))
    r = data.draw(st.one_of(st.integers(1, 300), st.just(gl_exponent(field, n))))
    labels = data.draw(st.permutations([f"x{k}" for k in range(n)]))
    expected = _dict_pow(field, dense(field, grid), r)
    assert mat_pow(dense(field, grid), r) == expected
    renamed = {(labels[i], labels[j]): v for (i, j), v in expected.entries.items()}
    assert mat_pow(dense(field, grid, labels), r).entries == renamed


def _counted_power(r: int):
    """``3**r`` modulo a Mersenne prime by ``_square_and_multiply``, and
    the number of products it took."""
    products = []

    def mul(x, y):
        products.append(1)
        return x * y % MERSENNE61

    return _square_and_multiply(mul, 3, r), len(products)


def test_windowed_powers_match_pow_in_no_more_products_than_binary():
    rng = random.Random(46)
    for r in [*range(1, 4096), *(rng.randrange(1, 2**1300) for _ in range(200))]:
        power, products = _counted_power(r)
        assert power == pow(3, r, MERSENNE61)
        assert products <= r.bit_length() + r.bit_count() - 2  # the binary method's count


def _binary_falls_back(r: int) -> bool:
    """Whether windows of the width chosen for ``r``'s bit length could
    take more products than the binary method, which ``r`` then takes."""
    bits = r.bit_length()
    w = 1 + sum(bits > bound for bound in (6, 24, 80, 240))
    return 2 ** (w - 1) + bits + -(-bits // w) - 2 > bits + r.bit_count() - 2


def test_binary_method_squares_then_multiplies_digit_by_digit():
    """Up to six digits, and wherever windows would take more products,
    the power is the binary method: after the leading digit, a square per
    digit and then a product by the base at each 1, in that order
    (products traced as exponent pairs).  Checked at every such r below
    2**12 and at sparse r of up to 1,300 digits."""
    rng = random.Random(57)
    sparse = []
    for _ in range(200):
        bits = rng.randrange(1, 1301)
        ones = rng.sample(range(bits - 1), rng.randrange(bits // 8 + 1))
        sparse.append(sum(1 << k for k in [bits - 1, *ones]))
    small = [r for r in range(1, 2**12) if _binary_falls_back(r)]
    assert small[:63] == list(range(1, 64)) and len(small) > 63
    for r in [*small, 2**40 + 1, 2**100 + 2**50, *sparse]:
        assert _binary_falls_back(r)
        products = []

        def mul(x, y):
            products.append((x, y))
            return x + y

        want, power = [], 1
        for digit in format(r, "b")[1:]:
            want.append((power, power))
            power *= 2
            if digit == "1":
                want.append((power, 1))
                power += 1
        assert _square_and_multiply(mul, 1, r) == r
        assert products == want


# products the binary method takes: 206, 1,856 and 59
@pytest.mark.parametrize("q, n, products", [(2, 20, 169), (2, 64, 1485), (4, 7, 50)])
def test_gl_exponent_power_products(q, n, products):
    assert _counted_power(gl_exponent(gf(q), n))[1] == products


def test_mat_pow_rejects_zero_exponent():
    with pytest.raises(ValidationError):
        mat_pow(identity(GF2, frozenset([0])), 0)


# ---------------------------------------------------------------- gl_order


def test_gl_order_values():
    assert gl_order(2, 1) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 168
    assert gl_order(3, 2) == 48


def test_gl_order_matches_brute_enumeration_n2():
    for q in (2, 3):
        field = zp(q)
        count = 0
        for flat in itertools.product(range(q), repeat=4):
            rows = [[flat[0], flat[1]], [flat[2], flat[3]]]
            if (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % q != 0:
                count += 1
        assert gl_order(q, 2) == count


def test_gl_order_bit_bound():
    for q, n in [(2, 3), (2, 5), (3, 3), (5, 2)]:
        g = gl_order(q, n)
        bound = n * n * max(1, (q - 1).bit_length()) + n
        assert g.bit_length() - 1 < bound


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_gl_exponent_divides_order(q):
    for n in range(1, 7):
        assert gl_order(q, n) % gl_exponent(gf(q), n) == 0


def _bitrows_product(a, b):
    out = []
    for row in a:
        acc = 0
        for c, other in enumerate(b):
            if row >> c & 1:
                acc ^= other
        out.append(acc)
    return tuple(out)


def _gl_over_gf2(n):
    """Every invertible n-by-n matrix over GF(2) as packed rows, found as
    the row tuples whose XOR combinations span all 2**n vectors."""
    for rows in itertools.product(range(1 << n), repeat=n):
        span = {0}
        for row in rows:
            span |= {v ^ row for v in span}
        if len(span) == 1 << n:
            yield rows


def _gl2(field):
    """Every invertible 2-by-2 matrix over ``field`` as a row tuple."""
    els = range(field.order)
    for a, b, c, d in itertools.product(els, repeat=4):
        if field.add(field.mul(a, d), field.neg(field.mul(b, c))) != field.zero:
            yield ((a, b), (c, d))


def _gl2_product(field, x, y):
    return tuple(
        tuple(field.add(field.mul(x[i][0], y[0][k]), field.mul(x[i][1], y[1][k])) for k in range(2))
        for i in range(2)
    )


def _element_orders(elements, product, one):
    """The order of each group element, by multiplying until the identity."""
    for m in elements:
        power, order = m, 1
        while power != one:
            power, order = product(power, m), order + 1
        yield order


@pytest.mark.parametrize("q, n", [(2, 3), (3, 2), (4, 2), (5, 2), (2, 4)])
def test_every_element_order_divides_gl_exponent(q, n):
    """Enumerates all of GL_n(q): its size is the group order, and the
    element orders have the exponent as their least common multiple, so
    every one divides it and no smaller exponent would do."""
    field = gf(q)
    if q == 2:
        elements = list(_gl_over_gf2(n))
        one = tuple(1 << i for i in range(n))
        orders = list(_element_orders(elements, _bitrows_product, one))
    else:
        elements = list(_gl2(field))
        one = ((1, 0), (0, 1))
        product = functools.partial(_gl2_product, field)
        orders = list(_element_orders(elements, product, one))
    assert len(elements) == gl_order(q, n)
    assert math.lcm(*orders) == gl_exponent(field, n)


# ------------------------------------------------------- nonsingularity


def test_nonsingular_square_examples():
    assert nonsingular_square(identity(GF2, frozenset("abc")))
    assert not nonsingular_square(dense(GF2, [[1, 1], [1, 1]]))
    assert nonsingular_square(dense(GF2, [[0, 1], [1, 1]]))
    assert nonsingular_square(dense(GF2, []))  # empty convention


def test_exhaustive_sweep_2x2_and_3x3_gf2():
    for flat in itertools.product((0, 1), repeat=4):
        rows = [list(flat[:2]), list(flat[2:])]
        m = dense(GF2, rows)
        expected = rank_gaussian(m, [0, 1], [0, 1]) == 2
        assert nonsingular_square(m) == expected
    for flat in itertools.product((0, 1), repeat=9):
        rows = [list(flat[:3]), list(flat[3:6]), list(flat[6:])]
        m = dense(GF2, rows)
        expected = rank_gaussian(m, [0, 1, 2], [0, 1, 2]) == 3
        assert nonsingular_square(m) == expected


def test_exhaustive_sweep_2x2_gf3():
    for flat in itertools.product((0, 1, 2), repeat=4):
        rows = [list(flat[:2]), list(flat[2:])]
        m = dense(GF3, rows)
        expected = rank_gaussian(m, [0, 1], [0, 1]) == 2
        assert nonsingular_square(m) == expected


def test_singularity_absorbs_in_powers():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randrange(1, 4)
        m = dense(GF2, [[rng.randrange(2) for _ in range(n)] for _ in range(n)])
        order = list(range(n))
        if rank_gaussian(m, order, order) < n:
            power = m
            for _ in range(4):
                assert rank_gaussian(power, order, order) < n
                assert power != identity(GF2, m.rows)
                power = naive_product(GF2, power, m)


def test_verdicts_invariant_under_index_renaming():
    rng = random.Random(23)
    for q in (2, 3):
        field = zp(q)
        for _ in range(30):
            n = rng.randrange(1, 5)
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            plain = dense(field, rows)
            renamed = dense(field, rows, labels=[f"x{i}" for i in range(n)])
            assert nonsingular_square(plain) == nonsingular_square(renamed)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_nonsingular_square_matches_rank_every_field(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    field = gf(q)
    n = data.draw(st.integers(min_value=1, max_value=6))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    grid = data.draw(st.lists(row, min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):
        # a row that is a multiple of another makes the matrix singular
        src, dst = data.draw(st.permutations(range(n)))[:2]
        f = data.draw(st.integers(0, q - 1))
        grid[dst] = field.axpy(f, [0] * n, grid[src])
    labels = data.draw(st.permutations([f"x{k}" for k in range(n)]))
    m = dense(field, grid, labels)
    expected = rank_gaussian(m, labels, labels) == n
    assert nonsingular_square(m) == expected


def test_gf2_matrix_of_integer_determinant_two_is_singular_over_its_field():
    """Rows 110, 011, 101 have determinant 2 over Z, so 0 over GF(2): the
    matrix is singular over its own field, rank 2, by every route that
    reads the field from it, under renamings of its indices, square and
    as an I-by-J matrix."""
    grid = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert bareiss_det(grid) == 2
    m = dense(GF2, grid)
    rng = random.Random(2)
    for labels in itertools.permutations(["a", "b", "c"]):
        renamed = _renamed(m, dict(enumerate(labels)))
        order = sorted(renamed.rows)
        assert not nonsingular_square(renamed)
        assert rank_gaussian(renamed, order, order) == 2
        rows = dict(enumerate(rng.sample(["r0", "r1", "r2"], 3)))
        cols = dict(enumerate(rng.sample(["c0", "c1", "c2"], 3)))
        rect = FieldMatrix(GF2, frozenset(rows.values()), frozenset(cols.values()),
                           {(rows[i], cols[j]): v for (i, j), v in m.entries.items()})
        assert not nonsingular_square(rect)
        assert rank_gaussian(rect, sorted(rect.rows), sorted(rect.cols)) == 2
    assert nonsingular_square(dense(GF3, grid))  # 2 is a unit of GF(3)


@pytest.mark.parametrize("n", [20, 31, 32, 45, 64])
def test_gf2_nonsingular_square_matches_rank_across_digits(n):
    """Rows of up to 64 bits span up to three 30-bit digits: a random
    non-singular matrix, and that matrix with one row copied onto another,
    decide as their rank does, and so do random renamings of them."""
    rng = random.Random(n)
    index = list(range(n))
    while True:
        m = _random_gf2(rng, index, index)
        if rank_gaussian(m, index, index) == n:
            break
    src, dst = rng.sample(index, 2)
    copied = {(i, j): v for (i, j), v in m.entries.items() if i != dst}
    copied.update({(dst, j): v for (i, j), v in m.entries.items() if i == src})
    singular = FieldMatrix(GF2, m.rows, m.cols, copied)
    assert rank_gaussian(singular, index, index) < n
    names = dict(zip(index, rng.sample([f"x{k}" for k in index], n)))
    for matrix, expected in ((m, True), (singular, False)):
        assert nonsingular_square(matrix) is expected
        assert nonsingular_square(_renamed(matrix, names)) is expected


# ---------------------------------------------------------------- gauss


def test_rank_gaussian_basics():
    z = dense(GF2, [[0, 0], [0, 0]])
    assert rank_gaussian(z, [0, 1], [0, 1]) == 0
    eye = identity(GF3, frozenset(range(4)))
    assert rank_gaussian(eye, list(range(4)), list(range(4))) == 4


def test_rank_gaussian_order_independent():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randrange(1, 5)
        m = dense(GF3, [[rng.randrange(3) for _ in range(n)] for _ in range(n)])
        base = list(range(n))
        ranks = set()
        for _ in range(4):
            ro, co = base[:], base[:]
            rng.shuffle(ro)
            rng.shuffle(co)
            ranks.add(rank_gaussian(m, ro, co))
        assert len(ranks) == 1


def test_solve_gaussian():
    m = FieldMatrix(
        GF2,
        frozenset(["h1", "h2"]),
        frozenset(["s1", "s2", "s3"]),
        {("h1", "s1"): 1, ("h1", "s2"): 1, ("h2", "s2"): 1, ("h2", "s3"): 1},
    )
    sol = solve_gaussian(m, {"h1": 1, "h2": 0}, ["h1", "h2"], ["s1", "s2", "s3"])
    assert sol is not None
    assert (sol["s1"] + sol["s2"]) % 2 == 1
    assert (sol["s2"] + sol["s3"]) % 2 == 0
    # inconsistent: rows sum to zero but rhs sums to one
    m2 = FieldMatrix(
        GF2,
        frozenset(["a", "b"]),
        frozenset(["x"]),
        {("a", "x"): 1, ("b", "x"): 1},
    )
    assert solve_gaussian(m2, {"a": 1, "b": 0}, ["a", "b"], ["x"]) is None


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_gaussian_matches_enumeration(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 9]))
    field = gf(q)
    n_rows = data.draw(st.integers(min_value=0, max_value=3))
    n_cols = data.draw(st.integers(min_value=0, max_value=3))
    grid = data.draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=n_cols, max_size=n_cols),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    rhs = data.draw(st.lists(st.integers(0, q - 1), min_size=n_rows, max_size=n_rows))
    names = data.draw(st.lists(st.text(min_size=1, max_size=3), min_size=6, max_size=6, unique=True))
    row_names, col_names = names[:n_rows], names[3 : 3 + n_cols]
    m = FieldMatrix(
        field,
        frozenset(row_names),
        frozenset(col_names),
        {(i, j): grid[a][b] for a, i in enumerate(row_names) for b, j in enumerate(col_names)},
    )
    row_order = data.draw(st.permutations(row_names))
    col_order = data.draw(st.permutations(col_names))

    kernel = linear_solutions(field, grid, [field.zero] * n_rows, n_cols)
    rank = rank_gaussian(m, row_order, col_order)
    assert q ** (n_cols - rank) == len(kernel)

    solutions = linear_solutions(field, grid, rhs, n_cols)
    solution = solve_gaussian(m, dict(zip(row_names, rhs)), row_order, col_order)
    assert (solution is not None) == bool(solutions)
    if solution is not None:
        assert set(solution) == set(col_names)
        assert tuple(solution[j] for j in col_names) in solutions


# ---------------------------------------------------------------- primes


def test_sieve_examples():
    assert sieve_first_primes(5) == [2, 3, 5, 7, 11]
    assert sieve_first_primes(8)[-1] == 19
    assert sieve_first_primes(32)[-1] == 131
    assert sieve_first_primes(1)[0] == 2


def test_short_sieves_are_prefixes_of_a_long_one():
    # Rosser's bound sizes the sieve from k = 6 on, a fixed 13 below
    primes = sieve_first_primes(10_000)
    assert all(sieve_first_primes(k) == primes[:k] for k in range(1, 2001))


def test_field_orders_are_tested_by_miller_rabin():
    primes = set(sieve_first_primes(10_000))  # every prime below 104,730
    assert all(_is_prime(n) == (n in primes) for n in range(104_730))
    # strong pseudoprimes to the first 4, 9 and 11 prime bases, a Carmichael
    # number, a Mersenne prime and the largest prime below 2**64
    assert not any(map(_is_prime, [3215031751, 3825123056546413051, 561]))
    assert _is_prime(2**61 - 1) and _is_prime(2**64 - 59)
    assert not _is_prime((2**32 - 5) * (2**32 - 17))


# ---------------------------------------------------------- int matrices


def test_int_matrix_roundtrip():
    entries = {(0, 0): 5, (0, 1): -3, (1, 0): 0, (1, 1): 256}
    m = IntMatrix.from_int_entries(entries, index_set={0, 1})
    assert m.entry(0, 0) == 5
    assert m.entry(0, 1) == -3
    assert m.entry(1, 0) == 0
    assert m.entry(1, 1) == 256
    assert m.digit_count == 9
    assert scan_width(m) == 9


def test_int_matrix_rejects_entry_outside_index_set():
    with pytest.raises(ValidationError):
        IntMatrix.from_int_entries({(0, 2): 1}, index_set={0, 1})


def test_nonsingular_int_examples():
    sing = IntMatrix.from_int_entries({(0, 0): 2, (0, 1): 4, (1, 0): 1, (1, 1): 2})
    assert not nonsingular_int(sing)
    unim = IntMatrix.from_int_entries({(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert nonsingular_int(unim)


def test_nonsingular_int_matches_exact_determinant():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-8, 9) for _ in range(n)] for _ in range(n)]
        m = IntMatrix.from_int_entries(
            {(i, j): rows[i][j] for i in range(n) for j in range(n)},
            index_set=set(range(n)),
        )
        assert nonsingular_int(m) == (bareiss_det(rows) != 0)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_prime_decision_matches_group_order_and_leibniz(data):
    n = data.draw(st.integers(min_value=1, max_value=5))
    entries = st.integers(-(2**40), 2**40)
    rows = data.draw(
        st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    if data.draw(st.booleans()):  # make it singular over Z
        dst = data.draw(st.integers(0, n - 1))
        src = data.draw(st.integers(0, n - 1).filter(lambda k: k != dst or n == 1))
        scale = 0 if src == dst else data.draw(st.integers(-3, 3))
        rows[dst] = [scale * x for x in rows[src]]
    labels = data.draw(st.permutations([f"x{k}" for k in range(n)]))
    plain = IntMatrix.from_int_entries(
        {(i, j): rows[i][j] for i in range(n) for j in range(n)}, index_set=range(n)
    )
    renamed = IntMatrix.from_int_entries(
        {(labels[i], labels[j]): rows[i][j] for i in range(n) for j in range(n)},
        index_set=labels,
    )
    det = determinant(plain)
    assert det == bareiss_det(rows)
    assert determinant(renamed) == det
    # the exact determinant against the field route: 2 and 3 are at most
    # |I| for the larger sizes, where Newton's identities mod p would fail
    for p in sieve_first_primes(6):
        assert nonsingular_square(plain.reduce_mod(p)) == (det % p != 0)
        assert nonsingular_square(renamed.reduce_mod(p)) == (det % p != 0)
        assert leibniz_det_mod(rows, p) == det % p


def test_prime_scan_examples():
    diag = IntMatrix.from_int_entries({(0, 0): 2, (0, 1): 0, (1, 0): 0, (1, 1): 3})
    assert prime_scan(diag) == (6, [2, 3])
    eye = IntMatrix.from_int_entries({(0, 0): 1, (1, 1): 1}, index_set={0, 1})
    assert prime_scan(eye) == (1, [])
    zero = IntMatrix.from_int_entries({(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1})
    assert prime_scan(zero) == (0, sieve_first_primes(2 * scan_width(zero) ** 2))


def test_nonsingular_int_invariant_under_renaming():
    rng = random.Random(53)
    for _ in range(15):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-16, 17) for _ in range(n)] for _ in range(n)]
        plain = IntMatrix.from_int_entries(
            {(i, j): rows[i][j] for i in range(n) for j in range(n)},
            index_set=set(range(n)),
        )
        renamed = IntMatrix.from_int_entries(
            {(f"x{i}", f"x{j}"): rows[i][j] for i in range(n) for j in range(n)},
            index_set={f"x{i}" for i in range(n)},
        )
        assert nonsingular_int(plain) == nonsingular_int(renamed)


def test_crt_soundness_some_prime_misses_nonzero_determinants():
    # the determinant bound guarantees a nonzero determinant cannot be
    # divisible by every scanned prime
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-256, 257) for _ in range(n)] for _ in range(n)]
        d = bareiss_det(rows)
        if d == 0:
            continue
        m = IntMatrix.from_int_entries(
            {(i, j): rows[i][j] for i in range(n) for j in range(n)},
            index_set=set(range(n)),
        )
        listed = sieve_first_primes(2 * scan_width(m) ** 2)
        assert any(d % p != 0 for p in listed)


def test_prime_scan_matches_trial_division():
    rng = random.Random(43)
    for _ in range(10):
        n = rng.randrange(1, 4)
        rows = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        m = IntMatrix.from_int_entries(
            {(i, j): rows[i][j] for i in range(n) for j in range(n)},
            index_set=set(range(n)),
        )
        d = bareiss_det(rows)
        listed = sieve_first_primes(2 * scan_width(m) ** 2)
        assert prime_scan(m) == (d, [p for p in listed if d % p == 0])


def _diagonal(names, digit_count):
    top = 2**digit_count - 1
    return IntMatrix.from_int_entries({(i, i): top for i in names}, index_set=names)


@pytest.mark.parametrize("digits", [1, 9, 64, 1024, 14_284])
def test_determinant_guard_admits_its_boundary(monkeypatch, digits):
    """The largest admitted n passes the check and n + 1 does not, under
    any names; a shape whose work is the limit itself passes.  The products
    are stubbed out, so only the check runs."""
    monkeypatch.setattr(intmatrix, "_power_sums", lambda m: [0] * len(m.index_set))
    n = largest_admitted(digits)
    for names in (range(n), [f"z{n - k}" for k in range(n)]):
        assert determinant(_diagonal(names, digits)) == 0
    for names in (range(n + 1), [f"z{n - k}" for k in range(n + 1)]):
        with pytest.raises(GuardExceeded, match="det.max_work"):
            determinant(_diagonal(names, digits))
    at = determinant_work(n + 1, digits)
    monkeypatch.setattr(intmatrix, "DET_MAX_WORK", at)
    assert determinant(_diagonal(range(n + 1), digits)) == 0
    monkeypatch.setattr(intmatrix, "DET_MAX_WORK", at - 1)
    with pytest.raises(GuardExceeded, match="det.max_work"):
        nonsingular_int(_diagonal(range(n + 1), digits))


def test_determinant_guard_admits_the_shapes_in_use():
    """The benchmark's integer requests (n <= 6, entries of 6 bits) and the
    1000-bit 2x2 and 257-bit 1x1 matrices of the console checks."""
    for n, digits in [(6, 6), (2, 1000), (1, 257)]:
        assert determinant_work(n, digits) <= intmatrix.DET_MAX_WORK


# ------------------------------------------------------------ matrix files

# names a writer must refuse, one of each kind
_UNWRITABLE_NAMES = ["field", "ring", "rows", "cols", "square", "a b", "a\tb", "x\n", "a//b", ""]

_legal_names = st.text(alphabet="abrsw/-_:.019Rq", min_size=1, max_size=6).filter(
    lambda name: name not in _UNWRITABLE_NAMES and "//" not in name
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matrix_files_round_trip_legal_names(data):
    rows = data.draw(st.sets(_legal_names, min_size=1, max_size=4))
    square = data.draw(st.booleans())
    cols = rows if square else data.draw(st.sets(_legal_names, min_size=1, max_size=4))
    cells = st.tuples(st.sampled_from(sorted(rows)), st.sampled_from(sorted(cols)))
    q = data.draw(st.sampled_from([2, 3, 4]))
    field_entries = data.draw(st.dictionaries(cells, st.integers(0, q - 1)))
    m = FieldMatrix(gf(q), frozenset(rows), frozenset(cols), field_entries)
    assert parse_matrix(write_field_matrix(m)) == m
    square_cells = st.tuples(st.sampled_from(sorted(rows)), st.sampled_from(sorted(rows)))
    int_entries = data.draw(st.dictionaries(square_cells, st.integers(-300, 300)))
    back = parse_matrix(write_int_matrix(IntMatrix.from_int_entries(int_entries, rows)))
    nonzero = {cell: value for cell, value in int_entries.items() if value}
    assert isinstance(back, IntMatrix)
    assert (back.index_set, back.entries) == (rows, nonzero)


def _shown(m):
    """A matrix as ``_reading`` shows it."""
    if isinstance(m, IntMatrix):
        return m.index_set, m.entries, m.digit_count
    return m


def _reading(text):
    """What ``parse_matrix`` makes of ``text``: the matrix, or the error."""
    try:
        m = parse_matrix(text)
    except ChoicelessLabError as exc:
        return type(exc), str(exc)
    return _shown(m)


def _benchmark_layout(header: str, m, rng: random.Random) -> str:
    """``m`` as the benchmark writes a matrix: rows and cells shuffled."""
    rows = sorted(map(str, m.rows if header != "ring Z" else m.index_set))
    rng.shuffle(rows)
    cols = "square" if header == "ring Z" or m.square else "cols " + " ".join(sorted(m.cols))
    cells = list(m.entries.items())
    rng.shuffle(cells)
    lines = [header, "rows " + " ".join(rows), cols, *(f"{i} {j} {v}" for (i, j), v in cells)]
    return "\n".join(lines) + "\n"


# each takes an entry line, the field order (None over Z) and a random source
_CORRUPTIONS = {
    "unknown index": lambda line, q, rng: line.replace(" ", "~ ", 1),  # no name holds "~"
    "repeated cell": lambda line, q, rng: line + "\n" + line.rsplit(" ", 1)[0] + " 1",
    "value past q": lambda line, q, rng: line.rsplit(" ", 1)[0] + f" {q or 0}",
    "minus": lambda line, q, rng: line.rsplit(" ", 1)[0] + " -1",
    "minus zero": lambda line, q, rng: line.rsplit(" ", 1)[0] + " -0",
    "non-ASCII digit": lambda line, q, rng: line + rng.choice(["\u0663", "\u00b2", "\uff11"]),
    "4,301 digits": lambda line, q, rng: line.rsplit(" ", 1)[0] + " " + "1" * 4301,
    "fourth field": lambda line, q, rng: line + " 1",
    "missing field": lambda line, q, rng: line.rsplit(" ", 1)[0],
    "tab": lambda line, q, rng: line.replace(" ", "\t", 1),
    "comment": lambda line, q, rng: line + " // note",
    "blank line": lambda line, q, rng: "\n" + line,
    "doubled space": lambda line, q, rng: line.replace(" ", "  ", 1),
    "empty value": lambda line, q, rng: line.rsplit(" ", 1)[0] + " ",
    "misplaced minus": lambda line, q, rng: line + "-",
    "carriage return": lambda line, q, rng: line + "\r",
    "header name": lambda line, q, rng: line.replace(line.split(" ")[0], "cols"),
}

_LAYOUT_ONLY = {"tab", "comment", "blank line", "doubled space", "carriage return"}


def _corrupted_reading(kind: str, matrix, lines: list, at: int, written: str):
    """What a written matrix text, ``lines`` with its headers on the first
    three, must read to once its entry line ``written`` at index ``at`` is
    corrupted by ``kind``: the matrix itself, the matrix as the edit
    changed it, or the error at its line."""
    i, j, _ = written.split(" ")
    q = None if isinstance(matrix, IntMatrix) else matrix.field.order

    def error(message, line_no=at + 1):
        return ParseError, f"{message} at line {line_no}"

    if kind in _LAYOUT_ONLY:
        return _shown(matrix)
    if kind in ("minus", "minus zero", "value past q"):
        value = {"minus": "-1", "minus zero": "-0", "value past q": str(q or 0)}[kind]
        if q is None:  # a ring entry may be negative or zero
            entries = {**matrix.entries, (i, j): int(value)}
            return _shown(IntMatrix.from_int_entries(entries, matrix.index_set))
        return error(f"entry {value} is not an element index below {q}")
    if kind == "unknown index":
        return error(f"entry ({i}~, {j}) outside the index sets")
    if kind == "repeated cell":
        return error(f"entry ({i}, {j}) listed twice", at + 2)
    if kind in ("fourth field", "missing field", "empty value"):
        return error(f"unrecognized line {lines[at].strip()!r}")
    if kind == "header name":  # a second cols header, or one that is not the rows
        if q is not None and not matrix.square:
            first = next(k for k, line in enumerate(lines) if line.startswith("cols "))
            return error(f"second cols header, after line {first + 1}")
        names = lines[at].split(" ")[1:]
        if names[0] == names[1]:
            return error("duplicate index names")
        return error("square matrices need rows == cols", lines.index("square") + 1)
    digits = lines[at].rsplit(" ", 1)[1].removeprefix("-")  # not a decimal
    shown = repr(digits) if len(digits) <= 20 else f"{digits[:20]!r}... ({len(digits)} characters)"
    return error(f"entry value {shown} is not a decimal of at most 4300 ASCII digits")


# every kind of corruption gets the same share of the examples
@pytest.mark.parametrize("corruption", sorted(_CORRUPTIONS))
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_matrix_file_corruptions_read_as_expected(corruption, data):
    q = data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 11, 251, 257, None]))
    n = data.draw(st.integers(1, 6))
    names = data.draw(st.lists(_legal_names, min_size=2 * n, max_size=2 * n, unique=True))
    rows = names[:n]
    square = q is None or data.draw(st.booleans())
    cols = rows if square else names[n : n + data.draw(st.integers(1, n))]
    cells = st.tuples(st.sampled_from(rows), st.sampled_from(cols))
    # nonzero, so every file has an entry line to corrupt
    values = st.integers(-(10**30), 10**30).filter(bool) if q is None else st.integers(1, q - 1)
    entries = data.draw(st.dictionaries(cells, values, min_size=1))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    renamed = dict(zip(names, rng.sample(names, len(names))))  # a renaming of the indices
    if q is None:
        m = IntMatrix.from_int_entries(entries, rows)
        header, write = "ring Z", write_int_matrix
        relabel = IntMatrix.from_int_entries(
            {(renamed[i], renamed[j]): v for (i, j), v in entries.items()}, map(renamed.get, rows)
        )
    else:
        m = FieldMatrix(gf(q), frozenset(rows), frozenset(cols), entries)
        header, write = f"field {q}", write_field_matrix
        relabel = FieldMatrix(
            gf(q),
            frozenset(map(renamed.get, rows)),
            frozenset(map(renamed.get, cols)),
            {(renamed[i], renamed[j]): v for (i, j), v in entries.items()},
        )
    for matrix in (m, relabel):
        for text in (write(matrix), _benchmark_layout(header, matrix, rng)):
            assert _reading(text) == _shown(matrix)
            lines = text.splitlines()
            at = rng.randrange(3, len(lines))
            written = lines[at]
            lines[at] = _CORRUPTIONS[corruption](lines[at], q, rng)
            if data.draw(st.booleans()):  # the headers in another order
                lines[:3] = rng.sample(lines[:3], 3)
            expected = _corrupted_reading(corruption, matrix, lines, at, written)
            assert _reading("\n".join(lines) + "\n") == expected


def test_field_entries_carry_no_sign():
    """An element index is unsigned: ``-0`` names no element, although a
    ring entry ``-0`` is zero."""
    for value in ("-0", "-00"):
        text = f"field 3\nrows a b\nsquare\na a {value}\na b 1\nb a 1\n"
        with pytest.raises(ParseError) as raised:
            parse_matrix(text)
        assert str(raised.value) == "entry -0 is not an element index below 3 at line 4"
        ring = parse_matrix(text.replace("field 3", "ring Z"))
        assert ring.entries == {("a", "b"): 1, ("b", "a"): 1}
    with pytest.raises(ParseError, match="^entry -1 is not an element index below 3 at line 5$"):
        parse_matrix("field 3\nrows a b\nsquare\na b 1\na a -01\n")


def _hand_layout(text: str, rng: random.Random) -> str:
    """``text`` laid out by hand: its lines in any order, among comment and
    blank lines, fields apart by runs of blanks and tabs, a comment after a
    line, and any of the line breaks ``str.splitlines`` knows."""
    lines = text.splitlines()
    lines += ["// a note", "", "  \t", "//"]
    rng.shuffle(lines)
    blanks = [" ", "\t", "  ", " \t ", "\u3000"]
    laid = [
        rng.choice(["", " ", "\t"])
        + "".join(field + rng.choice(blanks) for field in line.split(" "))
        + rng.choice(["", "// after"])
        for line in lines
    ]
    breaks = ["\n", "\r\n", "\r", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    return "".join(line + rng.choice(breaks) for line in laid)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_matrix_files_read_alike_in_any_layout(data):
    rows = data.draw(st.sets(_legal_names, min_size=1, max_size=4))
    square = data.draw(st.booleans())
    cols = rows if square else data.draw(st.sets(_legal_names, min_size=1, max_size=4))
    cells = st.tuples(st.sampled_from(sorted(rows)), st.sampled_from(sorted(cols)))
    q = data.draw(st.sampled_from([2, 3, 4, 11]))
    field_entries = data.draw(st.dictionaries(cells, st.integers(0, q - 1)))
    square_cells = st.tuples(st.sampled_from(sorted(rows)), st.sampled_from(sorted(rows)))
    int_entries = data.draw(st.dictionaries(square_cells, st.integers(-300, 300)))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for written in (
        write_field_matrix(FieldMatrix(gf(q), frozenset(rows), frozenset(cols), field_entries)),
        write_int_matrix(IntMatrix.from_int_entries(int_entries, rows)),
    ):
        hand = _hand_layout(written, rng)
        assert _reading(hand) == _reading(written), hand


def test_matrix_entries_read_no_decimal_one_by_one(monkeypatch):
    """A legal file reads every entry at once, in any layout and with
    entries of any width: the only decimal read on its own is the field
    order."""
    rng = random.Random(3)
    calls = []
    monkeypatch.setattr(matio, "read_decimal", lambda *a: calls.append(a) or read_decimal(*a))
    names = [f"v{k}" for k in range(20)]
    widths = {"field 3": range(3), "field 251": range(251), "ring Z": range(-99, 99)}
    for header, values in widths.items():
        cells = [f"{i}\t{j}  {rng.choice(values)}" for i in names for j in names]
        lines = ["// a hand-laid copy", header, *cells, "rows " + " ".join(names), "square"]
        calls.clear()
        m = parse_matrix("\r\n".join(lines))
        assert len(m.entries) > 200
        assert calls == ([(header[6:], "field order", 2)] if header != "ring Z" else [])


# These tests keep the names they had when a bulk reader and a line reader
# split the texts between them; each pins its texts to the readings they
# had then.


@pytest.mark.parametrize("separator", ["\r", "\x85", "\u2028", "\x0c"])
def test_bulk_reader_leaves_other_line_breaks_to_the_line_reader(separator):
    """Lines break at more than newlines: an entry joined to a header, or
    to another entry, by such a break is still an entry."""
    for text, entries in (
        (f"field 2\nrows a b\nsquare{separator}a b 1\nb a 1\n", {("a", "b"): 1, ("b", "a"): 1}),
        (f"field 3\nrows a b\nsquare\na b 1{separator}b a 2\n", {("a", "b"): 1, ("b", "a"): 2}),
    ):
        m = parse_matrix(text)
        assert (m.rows, m.cols, m.entries) == ({"a", "b"}, {"a", "b"}, entries)


def test_bulk_reader_keeps_the_digit_limit_when_int_has_none():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no limit on the digits int converts")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        digits = "7" * 4300
        m = parse_matrix(f"ring Z\nrows a\nsquare\na a -{digits}\n")
        assert m.entries == {("a", "a"): -int(digits)}
        with pytest.raises(ParseError, match=f"^entry {digits} is not an element index below 2 "):
            parse_matrix(f"field 2\nrows a\nsquare\na a {digits}\n")
        for text in ("ring Z\nrows a\nsquare\na a -", "field 2\nrows a\nsquare\na a "):
            with pytest.raises(ParseError) as raised:
                parse_matrix(text + digits + "7\n")
            assert str(raised.value) == (
                "entry value '77777777777777777777'... (4301 characters)"
                " is not a decimal of at most 4300 ASCII digits at line 4"
            )
    finally:
        sys.set_int_max_str_digits(limit)


def test_bulk_reader_reads_a_matrix_without_entries():
    m = parse_matrix("field 3\nrows a b\nsquare\n")
    assert (m.field.order, m.rows, m.cols, m.entries) == (3, {"a", "b"}, {"a", "b"}, {})
    m = parse_matrix("ring Z\nrows a\nsquare\n")
    assert (m.index_set, m.entries, m.digit_count) == ({"a"}, {}, 1)


def test_bulk_reader_leaves_a_last_line_without_newline_to_the_line_reader():
    text = "field 2\nrows a b\nsquare\na b 1\nb a 1"
    assert parse_matrix(text).entries == {("a", "b"): 1, ("b", "a"): 1}


_HEADER_WORD_ERRORS = {
    "field": "second ring header, after line 1 at line 4",
    "ring": "second ring header, after line 1 at line 4",
    "rows": "second rows header, after line 2 at line 4",
    "cols": "square matrices need rows == cols at line 3",
}


@pytest.mark.parametrize("head", ["field", "ring", "rows", "cols", "square"])
def test_bulk_reader_leaves_header_words_as_row_names_to_the_line_reader(head):
    """A header word names no row the writers write, but a file may use
    one: a line of three fields that starts with it is a header, except
    for ``square``, which heads a header line only alone."""
    field_text = f"field 2\nrows {head} a\nsquare\n{head} a 1\n"
    int_text = f"ring Z\nrows {head} a\nsquare\n{head} a 2\na {head} -3\n"
    if head == "square":
        assert parse_matrix(field_text).entries == {("square", "a"): 1}
        assert parse_matrix(int_text).entries == {("square", "a"): 2, ("a", "square"): -3}
    else:
        for text in (field_text, int_text):
            assert _reading(text) == (ParseError, _HEADER_WORD_ERRORS[head])


def test_matrix_entries_look_up_no_digit_limit(monkeypatch):
    """``read_decimal`` looks up the interpreter's digit limit only to
    report an error, not once per entry."""
    calls = []
    monkeypatch.setattr(errors, "_max_digits", lambda: calls.append(1) or 4300)
    text = "ring Z\nrows a b\nsquare\n" + "".join(f"{r} {c} 12\n" for r in "ab" for c in "ab")
    assert parse_matrix(text).entries == {(r, c): 12 for r in "ab" for c in "ab"}
    assert calls == []
    with pytest.raises(ParseError, match="at most 4300 ASCII digits at line 4"):
        parse_matrix(text.replace(" 12\n", " 1_2\n", 1))
    assert calls == [1]


@pytest.mark.parametrize("name", _UNWRITABLE_NAMES)
def test_matrix_writers_refuse_names_their_reader_misreads(name):
    field_matrix = FieldMatrix(gf(2), frozenset({name, "b"}), frozenset({"b"}), {(name, "b"): 1})
    with pytest.raises(ValidationError, match="cannot be written"):
        write_field_matrix(field_matrix)
    with pytest.raises(ValidationError, match="cannot be written"):
        write_field_matrix(FieldMatrix(gf(2), frozenset({"b"}), frozenset({name}), {}))
    with pytest.raises(ValidationError, match="cannot be written"):
        write_int_matrix(IntMatrix.from_int_entries({(name, "b"): 1}, {name, "b"}))


def test_matrix_writers_refuse_names_written_alike():
    with pytest.raises(ValidationError, match="written alike"):
        write_field_matrix(FieldMatrix(gf(2), frozenset({1, "1"}), frozenset({"x"}), {}))
    with pytest.raises(ValidationError, match="written alike"):
        write_int_matrix(IntMatrix.from_int_entries({}, {1, "1"}))


# ---------------------------------------------------------- rectangular


def test_nonsingular_rect_hand_example():
    field = GF3
    m = FieldMatrix(
        field,
        frozenset(["i1", "i2"]),
        frozenset(["j1", "j2"]),
        {
            ("i1", "j1"): 1,
            ("i1", "j2"): 2,
            ("i2", "j1"): 2,
            ("i2", "j2"): 1,
        },
    )
    transposed = {(j, i): v for (i, j), v in m.entries.items()}
    gram = mat_mul(field, m, FieldMatrix(field, m.cols, m.rows, transposed))
    assert gram.entry("i1", "i1") == 2
    assert gram.entry("i1", "i2") == 1
    assert gram.entry("i2", "i2") == 2
    assert not nonsingular_square(m)


def test_nonsingular_rect_bijection_matrix():
    m = FieldMatrix(
        GF2,
        frozenset(["i1", "i2"]),
        frozenset(["j1", "j2"]),
        {("i1", "j2"): 1, ("i2", "j1"): 1},
    )
    assert nonsingular_square(m)


def test_rect_agrees_with_rank_and_block():
    rng = random.Random(71)
    for q in (2, 3, 5):
        field = zp(q)
        for _ in range(40):
            n = rng.randrange(1, 5)
            row_labels = [f"r{i}" for i in range(n)]
            col_labels = [f"c{j}" for j in range(n)]
            m = FieldMatrix(
                field,
                frozenset(row_labels),
                frozenset(col_labels),
                {
                    (row_labels[i], col_labels[j]): rng.randrange(q)
                    for i in range(n)
                    for j in range(n)
                },
            )
            by_rank = rank_gaussian(m, row_labels, col_labels) == n
            assert nonsingular_square(m) == by_rank


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_nonsingular_square_agrees_with_the_gram_route_and_rank(data):
    """I x J matrices with |I| = |J| <= 6, over fields in 1-bit, byte,
    16-bit and list layouts, with I and J named independently from a pool
    small enough that they often share names or are equal: the verdict is
    that of ``M M^t``, whose determinant is the square of M's, and that of
    the rank.  Half the draws copy a multiple of one row onto another."""
    field = gf(data.draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 17, 251])))
    n = data.draw(st.integers(0, 6))
    labels = st.lists(st.integers(0, 7), min_size=n, max_size=n, unique=True)
    rows, cols = data.draw(labels), data.draw(labels)
    element = st.integers(0, field.order - 1)
    grid = data.draw(st.lists(st.lists(element, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and data.draw(st.booleans()):
        src, dst = data.draw(st.permutations(range(n)))[:2]
        grid[dst] = field.axpy(data.draw(element), [0] * n, grid[src])
    entries = {(i, j): grid[a][b] for a, i in enumerate(rows) for b, j in enumerate(cols)}
    m = FieldMatrix(field, frozenset(rows), frozenset(cols), entries)
    transposed = FieldMatrix(field, m.cols, m.rows, {(j, i): v for (i, j), v in entries.items()})
    verdict = nonsingular_square(m)
    assert verdict == nonsingular_square(mat_mul(field, m, transposed))
    assert verdict == (rank_gaussian(m, rows, cols) == n)


# ---------------------------------------------------------------- random


def test_random_matrix_deterministic():
    a = random_matrix(GF2, 4, seed=9)
    b = random_matrix(GF2, 4, seed=9)
    assert a == b
    c = random_matrix(GF2, 4, seed=10)
    assert a != c


def test_frequency_experiment_reference_constants():
    frac2 = frequency_experiment(GF2, 20, 4000, seed=1)
    assert abs(frac2 - partial_product(2.0)) < 0.02
    frac3 = frequency_experiment(GF3, 15, 1500, seed=1)
    assert abs(frac3 - partial_product(3.0)) < 0.03
    frac4 = frequency_experiment(gf(4), 15, 1500, seed=1)
    assert abs(frac4 - partial_product(4.0)) < 0.03
    assert frequency_experiment(GF2, 20, 500, seed=2) == frequency_experiment(
        GF2, 20, 500, seed=2
    )


def test_power_criterion_matches_leibniz_mod_p():
    rng = random.Random(77)
    for p in (2, 3, 5, 7, 11):
        field = zp(p)
        for _ in range(8):
            n = rng.randrange(1, 5)
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
            m = dense(field, rows)
            assert nonsingular_square(m) == (leibniz_det_mod(rows, p) != 0)
