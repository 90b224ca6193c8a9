"""Linear algebra over unordered index sets.

Matrices are total maps from (unordered) index sets to field elements; no
operation in this package consults an ordering of the indices to produce its
verdict.  Where an order is genuinely part of the input contract (Gaussian
elimination), it is an explicit argument.  A matrix carries its field, and
every question about it reads the field from it; only ``mat_mul`` takes a
field too, and it refuses factors over another.

The package re-exports nothing, so a command loads only the modules it
imports: ``fields``, ``matrix``, ``intmatrix``, ``matio``, ``primes`` and
``sampling``.
"""
