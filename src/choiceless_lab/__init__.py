"""Order-invariant computation toolkit.

Subpackages and modules:

- ``hfset``: canonical hereditarily finite sets over an atom universe.
- ``bgs``: parser and interpreter for the set-machine language, with
  polynomial step/active budgets and an optional cardinality builtin.
- ``matching``: bipartite matching via stable coloring and a maximum flow
  over its blocks, plus the ordered path algorithm.
- ``cfi``: twisted gadget graphs, padding, and the parity classifier.
- ``multipede``: segment/feet structures with hyperedges, rigidity checks
  and the isomorphism decider ``iso3_decide``, which ``iso multipede3``
  and ``iso multipede4`` share.
- ``linalg``: matrices over unordered index sets, finite fields (prime
  fields by arithmetic, orders 4, 8 and 9 as explicit tables), powering
  to the exponent of the general linear group, prime sieve and the exact
  determinant of an integer matrix.
- ``cli``: the ``choiceless-lab`` command line front end.
"""

__version__ = "0.1.0"
