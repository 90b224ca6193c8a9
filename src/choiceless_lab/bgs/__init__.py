"""Parser and interpreter for the set-machine language.

Programs are rules over hereditarily finite sets: terms built from the
fixed builtins plus comprehension, rules built from skip, update,
conditional, bounded forall and parallel blocks.  A program artifact also
carries its polynomial step and active-element budgets and whether it
needs the cardinality builtin.

The input structures the machine runs on are defined in
:mod:`choiceless_lab.structures`; their three public names are re-exported
here.
"""

from ..structures import InputStructure, parse_structure, write_structure
from .interp import RunOutcome, State, fire, run
from .parser import parse_program
from .syntax import (
    App,
    Compr,
    Cond,
    Forall,
    Lit,
    Par,
    Program,
    Rule,
    RunBounds,
    Skip,
    Term,
    Update,
    Var,
)

__all__ = [
    "App",
    "Compr",
    "Cond",
    "Forall",
    "InputStructure",
    "Lit",
    "Par",
    "Program",
    "Rule",
    "RunBounds",
    "RunOutcome",
    "Skip",
    "State",
    "Term",
    "Update",
    "Var",
    "fire",
    "parse_program",
    "parse_structure",
    "run",
    "write_structure",
]
