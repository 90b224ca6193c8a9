"""Linear algebra over unordered index sets.

Matrices are total maps from (unordered) index sets to field elements; no
operation in this package consults an ordering of the indices to produce its
verdict.  Where an order is genuinely part of the input contract (Gaussian
elimination), it is an explicit argument.  A matrix carries its field, and
every question about it reads the field from it; only ``mat_mul`` takes a
field too, and it refuses factors over another.
"""

from .fields import FiniteField, gf, zp
from .intmatrix import IntMatrix, nonsingular_int
from .matrix import (
    FieldMatrix,
    gl_exponent,
    identity,
    mat_mul,
    mat_pow,
    nonsingular_rect,
    nonsingular_square,
    rank_gaussian,
    solve_gaussian,
    transpose,
)
from .primes import sieve_first_primes
from .sampling import frequency_experiment, random_matrix

__all__ = [
    "FiniteField",
    "FieldMatrix",
    "IntMatrix",
    "frequency_experiment",
    "gf",
    "gl_exponent",
    "identity",
    "mat_mul",
    "mat_pow",
    "nonsingular_int",
    "nonsingular_rect",
    "nonsingular_square",
    "random_matrix",
    "rank_gaussian",
    "sieve_first_primes",
    "solve_gaussian",
    "transpose",
    "zp",
]
