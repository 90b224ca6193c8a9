"""Finite fields presented as element lists with operation tables.

Elements are the integers ``0 .. q-1``; that numbering is also the field's
linear ordering (used only where an order is an explicit part of a contract,
never to decide singularity).  Prime fields compute arithmetically; the
non-prime orders 4, 8 and 9 ship as explicit table fixtures built from
polynomial arithmetic.  In both, the integers ``0 .. p-1`` are the prime
subfield: the element ``r < p`` is ``1`` added to itself ``r`` times.

This module is the only one that knows how a field is stored; the rest of
the package uses ``add``, ``mul``, ``neg``, ``inv``, the row operation
``axpy`` and the regular representation: a field of order ``p**d`` has
``degree`` d, and ``block(a)`` is the d-by-d matrix over the integers
modulo p of ``x -> a x`` in the basis ``1, x, .., x**(d-1)``, as a tuple
of rows.  Column 0 of ``block(a)`` holds the coordinates of ``a`` itself,
which are its base-p digits, lowest first.  ``a -> block(a)`` is an
injective ring homomorphism (Lidl and Niederreiter, *Finite Fields*,
ch. 2), so matrix products over any field can run over its prime field;
a prime field has degree 1 and ``block(a) = ((a,),)``.  A field carries
no matrix product: every product runs in :mod:`.matrix`.  The field
axioms of every fixture, and the homomorphism, are checked by brute force
in the test suite (``tests/oracles.py``), not at run time.
"""

from __future__ import annotations

import functools

from ..errors import GuardExceeded, ValidationError


class FiniteField:
    """A finite field of order ``q`` with elements ``0 .. q-1``."""

    zero = 0
    one = 1
    degree = 1

    def __init__(self, q, characteristic):
        self.order = q
        self.characteristic = characteristic

    @property
    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"FiniteField(q={self.order})"


class _PrimeField(FiniteField):
    """The integers modulo a prime ``p``, computed arithmetically."""

    def __init__(self, p):
        super().__init__(p, p)

    def add(self, a, b):
        return (a + b) % self.order

    def mul(self, a, b):
        return a * b % self.order

    def neg(self, a):
        return -a % self.order

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return pow(a, -1, self.order)

    def axpy(self, f, x, y):
        """The row ``[x_k + f * y_k]`` for rows ``x`` and ``y``."""
        p = self.order
        return [(a + f * b) % p for a, b in zip(x, y)]

    def block(self, a):
        return ((a,),)


class _TableField(FiniteField):
    """A field given by dense q-by-q addition and multiplication tables."""

    def __init__(self, q, characteristic, add_table, mul_table):
        super().__init__(q, characteristic)
        self.add_table = add_table
        self.mul_table = mul_table
        self._neg = tuple(row.index(0) for row in add_table)
        self._inv = (None,) + tuple(row.index(1) for row in mul_table[1:])
        p = characteristic
        powers = [1]  # the basis 1, x, .., x**(d-1): x**j is the element p**j
        while powers[-1] * p < q:
            powers.append(powers[-1] * p)
        self.degree = len(powers)
        # block(a)[i][j] is digit i of a * x**j
        self._blocks = tuple(
            tuple(tuple(mul_table[a][x] // y % p for x in powers) for y in powers)
            for a in range(q)
        )

    def add(self, a, b):
        return self.add_table[a][b]

    def mul(self, a, b):
        return self.mul_table[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._inv[a]

    def axpy(self, f, x, y):
        """The row ``[x_k + f * y_k]`` for rows ``x`` and ``y``."""
        add, times_f = self.add_table, self.mul_table[f]
        return [add[a][times_f[b]] for a, b in zip(x, y)]

    def block(self, a):
        return self._blocks[a]


# Miller-Rabin on the twelve primes up to 37 as bases is exact below 2**64
# (Sorenson and Webster, Math. Comp. 2017), so no larger order is read
FIELD_MAX_ORDER = 2**64 - 1
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for ``n <= FIELD_MAX_ORDER``."""
    if n < 2:
        return False
    for p in _BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def zp(p: int) -> FiniteField:
    """The prime field of integers modulo ``p``, made once per order."""
    if p > FIELD_MAX_ORDER:
        raise GuardExceeded("field.max_order", FIELD_MAX_ORDER, p)
    if not _is_prime(p):
        raise ValidationError(f"{p} is not prime")
    return _PrimeField(p)


def _poly_field(p: int, e: int, modulus: tuple) -> FiniteField:
    """Tables for GF(p^e) as polynomials over Z/p modulo the given monic
    irreducible (coefficient tuple, low degree first, length e+1)."""
    q = p**e

    def encode(coeffs):
        return sum(c * p**i for i, c in enumerate(coeffs))

    def decode(n):
        out = []
        for _ in range(e):
            out.append(n % p)
            n //= p
        return out

    def poly_add(x, y):
        return [(a + b) % p for a, b in zip(x, y)]

    def poly_mul(x, y):
        prod = [0] * (2 * e - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    prod[i + j] = (prod[i + j] + a * b) % p
        # reduce by the modulus: x^e = -(lower coefficients)
        for i in range(len(prod) - 1, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * modulus[j]) % p
        return prod[:e]

    add_table = tuple(
        tuple(encode(poly_add(decode(a), decode(b))) for b in range(q)) for a in range(q)
    )
    mul_table = tuple(
        tuple(encode(poly_mul(decode(a), decode(b))) for b in range(q)) for a in range(q)
    )
    return _TableField(q, p, add_table, mul_table)


# irreducible moduli (low-degree-first coefficients) for the shipped fixtures
_GF_MODULI = {
    4: (2, (1, 1, 1)),      # x^2 + x + 1 over Z/2
    8: (2, (1, 1, 0, 1)),   # x^3 + x + 1 over Z/2
    9: (3, (1, 0, 1)),      # x^2 + 1 over Z/3
}


@functools.cache
def gf(q: int) -> FiniteField:
    """A field of order q, made once per order: prime orders
    arithmetically, 4/8/9 from tables."""
    if q not in _GF_MODULI:
        try:
            return zp(q)
        except ValidationError:
            raise ValidationError(f"no field fixture of order {q}") from None
    p, modulus = _GF_MODULI[q]
    return _poly_field(p, len(modulus) - 1, modulus)
