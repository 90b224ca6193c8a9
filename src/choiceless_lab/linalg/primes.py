"""Prime generation by the sieve of Eratosthenes."""

from __future__ import annotations

import itertools
import math


def sieve_first_primes(k: int) -> list:
    """The first ``k`` primes, from one sieve up to Rosser's bound
    p_k < k (ln k + ln ln k), which holds for k >= 6 (Rosser 1941)."""
    if k < 1:
        raise ValueError("k must be positive")
    bound = int(k * (math.log(k) + math.log(math.log(k)))) + 1 if k >= 6 else 13
    is_prime = bytearray([1]) * (bound + 1)
    is_prime[:2] = b"\0\0"
    for n in range(2, math.isqrt(bound) + 1):
        if is_prime[n]:
            is_prime[n * n :: n] = bytes(len(range(n * n, bound + 1, n)))
    return list(itertools.islice(itertools.compress(itertools.count(), is_prime), k))
