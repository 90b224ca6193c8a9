"""Integer square matrices and their exact determinant.

An :class:`IntMatrix` maps pairs over an unordered index set I to
integers, stored sparsely; its digit count is the largest binary length
of an entry, so every entry is below ``2**digit_count`` in absolute value.

The determinant is ``e_|I|``, the constant coefficient of the characteristic
polynomial up to sign, from the power sums ``s_k = tr(M**k)``, k = 1 .. |I|,
by Newton's identities ``k e_k = sum_{i=1..k} (-1)**(i-1) e_{k-i} s_i``
(Csanky, SIAM J. Comput. 1976).  Every ``e_k`` is an integer, so each
division by k is exact over Z and no prime or field is needed.  The integer
products are :func:`.matrix._list_mul`, shared with the large primes, on an
internal numbering of I (its iteration order); a trace sums over the
unordered diagonal and does not depend on it, so neither does any verdict.

Their time grows with |I|**5 and about the square of the digit count, and
``det.max_work`` refuses a shape whose :func:`determinant_work` passes
``DET_MAX_WORK`` before the first product; it reads |I| and the digit
count alone, so renaming the indices does not move it.

:func:`prime_scan` lists which of the first ``2 n**2`` primes (n the larger
of |I| and the digit count) divide the determinant; the sieve grows with n
squared, so ``SCAN_MAX_WIDTH`` bounds n, and both guards run before it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import GuardExceeded, ValidationError
from .fields import zp
# nonsingular_square is not called here: bench/tests/test_bench.py checks
# that its tracer rebinds this from-import
from .matrix import FieldMatrix, _dense_rows, _list_mul, nonsingular_square  # noqa: F401
from .primes import sieve_first_primes

__all__ = ["IntMatrix", "determinant", "determinant_work", "nonsingular_int",
           "prime_scan", "scan_width"]

# sieving the first 2 * 256**2 primes takes 0.05-0.09 s on one Xeon core (0.4 s at 512)
SCAN_MAX_WIDTH = 256
# the largest shapes this admits took 0.7 to 2.1 s on one core of a 2-core
# Xeon VM: 2.1 s at n = 14 with 2048-bit entries, 1.6 s at n = 58 with 1 bit
DET_MAX_WORK = 2_500_000_000_000


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
    base = power = _dense_rows(m.entries, index, index)
    sums = []
    for k in range(n):
        if k:
            power = _list_mul(power, base)
        sums.append(sum(power[d][d] for d in range(n)))
    return sums


def determinant_work(n: int, digit_count: int) -> int:
    """A model of the time :func:`determinant` takes on an n-by-n matrix:
    ``n**3`` multiply-adds in each of n - 1 products, the k-th of entries
    of about ``k (b + log2 n)`` bits by entries of ``b`` bits, b the digit
    count; the added 8 and 256 bits are the fixed costs of one
    multiply-add.  It is within a factor 1.5 of timings from n = 6 to 72
    and b = 1 to 14,284."""
    b = digit_count
    return n**4 * (n - 1) * (b + n.bit_length() + 8) * (b + 256)


def determinant(m: IntMatrix) -> int:
    """``det M`` over Z, as ``e_|I|`` from the power sums by Newton's
    identities (1 for the empty matrix); a shape whose
    :func:`determinant_work` passes ``DET_MAX_WORK`` raises
    ``GuardExceeded`` before any product is made."""
    work = determinant_work(len(m.index_set), m.digit_count)
    if work > DET_MAX_WORK:
        raise GuardExceeded("det.max_work", DET_MAX_WORK, work)
    sums = _power_sums(m)
    e = [1]  # e_0 .. e_{k-1}: the characteristic polynomial, up to sign
    for k in range(1, len(sums) + 1):
        acc = sum((-1) ** (i - 1) * e[k - i] * sums[i - 1] for i in range(1, k + 1))
        e.append(acc // k)  # exact: acc is k times the integer e_k
    return e[-1]


def nonsingular_int(m: IntMatrix) -> bool:
    """True iff the determinant is nonzero."""
    return determinant(m) != 0


def prime_scan(m: IntMatrix) -> tuple:
    """The determinant, and which of the first ``2 n**2`` primes divide it
    in increasing order (all of them exactly when it is zero), n =
    :func:`scan_width`.  Both guards run before the sieve: ``det.scan_width``
    first, then ``det.max_work`` in :func:`determinant`."""
    width = scan_width(m)
    if width > SCAN_MAX_WIDTH:
        raise GuardExceeded("det.scan_width", SCAN_MAX_WIDTH, width)
    det = determinant(m)
    return det, [p for p in sieve_first_primes(2 * width * width) if det % p == 0]
