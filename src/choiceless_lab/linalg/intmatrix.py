"""Integer square matrices and the many-primes test.

An :class:`IntMatrix` maps pairs over an unordered index set I to
integers, stored sparsely; its digit count is the largest binary length
of an entry, so every entry is below ``2**digit_count`` in absolute value.

Non-singularity is decided by reducing modulo each of the first ``2 n**2``
primes (n the larger of |I| and the digit count) and asking whether any
reduction is non-singular: the determinant's absolute value is at most
``n! * 2**(n**2) <= 2**(2 n**2)``, which is smaller than the product of the
scanned primes, so a nonzero determinant must miss at least one of them.

Each prime is decided by one of two routes.  The power sums
``s_k = tr(M**k)``, k = 1 .. |I|, are computed once over Z.  For a prime
p > |I| the determinant mod p is ``e_|I|`` from Newton's identities
``k e_k = sum_{i=1..k} (-1)**(i-1) e_{k-i} s_i`` (Csanky, SIAM J. Comput.
1976), which divide by every k <= |I|, and each such k is invertible mod
p.  For p <= |I| some k is zero mod p, so those primes keep the
group-exponent test on the reduction mod p (``M**e == I`` for ``e`` the
exponent of GL_|I|(p); see ``matrix``).  A trace sums over the unordered
diagonal, so no route chooses anything.  The integer products behind the
power sums run over an internal numbering of I (its iteration order); a
trace does not depend on the numbering, so the power sums, and every
verdict, are the same under any of them.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from ..errors import ValidationError
from .fields import zp
from .matrix import FieldMatrix, _dense_rows, nonsingular_square
from .primes import sieve_first_primes

__all__ = ["IntMatrix", "nonsingular_int", "det_prime_divisors", "scan_width"]


@dataclass(frozen=True, eq=False)
class IntMatrix:
    """Square integer matrix over I x I, stored sparsely."""

    index_set: frozenset
    entries: dict  # (i, j) -> nonzero int
    digit_count: int  # the largest binary length of an entry, at least 1

    @staticmethod
    def from_int_entries(entries: dict, index_set=None) -> "IntMatrix":
        """Build from a dense/sparse dict ``(i, j) -> int``, the only
        constructor; every entry key must lie in ``index_set`` (by default
        the indices the keys mention)."""
        mentioned = {k for pair in entries for k in pair}
        idx = frozenset(mentioned if index_set is None else index_set)
        if not mentioned <= idx:
            raise ValidationError("an entry lies outside the index set")
        nonzero = {pair: value for pair, value in entries.items() if value}
        width = max((abs(value).bit_length() for value in nonzero.values()), default=1)
        return IntMatrix(idx, nonzero, width)

    def entry(self, i, j) -> int:
        return self.entries.get((i, j), 0)

    def reduce_mod(self, p: int) -> FieldMatrix:
        entries = {pair: value % p for pair, value in self.entries.items()}
        return FieldMatrix(zp(p), self.index_set, self.index_set, entries)


def scan_width(m: IntMatrix) -> int:
    """The parameter n bounding both the dimension and the digit run."""
    return max(len(m.index_set), m.digit_count)


def _power_sums(m: IntMatrix) -> list:
    """``tr(M**k)`` for k = 1 .. |I|, with |I| - 1 integer products."""
    index = list(m.index_set)  # the internal numbering; see the module docstring
    n = len(index)
    base = _dense_rows(m.entries, index, index)
    columns = list(zip(*base))
    power = base
    sums = []
    for k in range(n):
        if k:
            power = [[sum(map(operator.mul, row, col)) for col in columns] for row in power]
        sums.append(sum(power[d][d] for d in range(n)))
    return sums


def _nonsingular_mod(m: IntMatrix, p: int, power_sums: list) -> bool:
    """Whether the reduction of ``m`` modulo the prime ``p`` is non-singular.
    ``power_sums`` is :func:`_power_sums` of ``m``."""
    n = len(power_sums)
    if p <= n:
        return nonsingular_square(zp(p), m.reduce_mod(p))
    e = [1]  # e_k mod p, by Newton's identities
    for k in range(1, n + 1):
        acc = 0
        for i in range(1, k + 1):
            term = e[k - i] * power_sums[i - 1]
            acc += term if i % 2 else -term
        e.append(acc * pow(k, -1, p) % p)
    return e[n] != 0


def nonsingular_int(m: IntMatrix) -> bool:
    """True iff some reduction modulo the first ``2 n**2`` primes is
    non-singular."""
    sums = _power_sums(m)
    primes = sieve_first_primes(2 * scan_width(m) ** 2)
    return any(_nonsingular_mod(m, p, sums) for p in primes)


def det_prime_divisors(m: IntMatrix) -> frozenset:
    """The scanned primes modulo which the matrix is singular.

    For a non-singular matrix these are scanned primes dividing the
    determinant.  When every scanned prime divides, the matrix itself is
    singular (determinant zero); compare the result against the full scan
    list to detect that case.
    """
    sums = _power_sums(m)
    primes = sieve_first_primes(2 * scan_width(m) ** 2)
    return frozenset(p for p in primes if not _nonsingular_mod(m, p, sums))
