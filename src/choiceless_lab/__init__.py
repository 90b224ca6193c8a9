"""Order-invariant computation toolkit.

Subpackages and modules:

- ``hfset``: canonical hereditarily finite sets over an atom universe.
- ``structures``: finite input structures and their ``.str`` files, read
  by every decider and by the set machine.
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
  determinant of an integer matrix.  The package re-exports nothing;
  each name is imported from the module that defines it.
- ``cli``: the ``choiceless-lab`` command line front end.
- ``record``: the one base of the classes that are equal by value.
"""

__version__ = "0.1.0"
