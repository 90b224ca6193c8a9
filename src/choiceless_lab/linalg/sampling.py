"""Random square matrices and the non-singularity frequency experiment."""

from __future__ import annotations

import random

from ..errors import ValidationError
from .fields import FiniteField
from .matrix import FieldMatrix, _bitrow_pivots, echelon

__all__ = ["random_matrix", "frequency_experiment"]


def random_matrix(field: FiniteField, n: int, seed) -> FieldMatrix:
    """Uniform n-by-n matrix over the field, indexed by 0 .. n-1."""
    rng = random.Random(seed)
    idx = frozenset(range(n))
    entries = {
        (i, j): rng.randrange(field.order) for i in range(n) for j in range(n)
    }
    return FieldMatrix(field, idx, idx, entries)


def frequency_experiment(field: FiniteField, n: int, trials: int, seed) -> float:
    """Fraction of uniformly random n-by-n matrices over the field that are
    non-singular.

    Uses the rank criterion internally (verdict-equivalent to the power
    test, which the exhaustive sweeps confirm) so that large trial counts
    stay cheap.  Deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValidationError("trials must be positive")
    if n < 0:
        raise ValidationError("size must not be negative")
    rng = random.Random(seed)
    q = field.order
    hits = 0
    if q == 2:
        # rows as bit masks: xor is far faster than the generic row operation
        for _ in range(trials):
            rows = [rng.getrandbits(n) for _ in range(n)]
            if len(_bitrow_pivots(rows)) == n:
                hits += 1
    else:
        for _ in range(trials):
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
            if len(echelon(field, rows)) == n:
                hits += 1
    return hits / trials
