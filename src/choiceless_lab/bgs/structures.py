"""An alias of :mod:`choiceless_lab.structures`, which defines these names.

The benchmark's tracer (``bench/spans.py``) names this module as the one
that defines ``parse_structure``, so the alias stays until the benchmark
names ``choiceless_lab.structures`` instead.
"""

from ..structures import InputStructure, parse_structure, preorder_classes, write_structure

__all__ = ["InputStructure", "parse_structure", "preorder_classes", "write_structure"]
