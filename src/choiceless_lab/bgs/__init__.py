"""Parser and interpreter for the set-machine language.

Programs are rules over hereditarily finite sets: terms built from the
fixed builtins plus comprehension, rules built from skip, update,
conditional, bounded forall and parallel blocks.  A program artifact also
carries its polynomial step and active-element budgets and whether it
needs the cardinality builtin.
"""

from importlib import resources

from .interp import RunOutcome, State, active_count, fire, run
from .parser import parse_program
from .structures import InputStructure, parse_structure, write_structure
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
    "active_count",
    "fire",
    "load_builtin_program",
    "parse_program",
    "parse_structure",
    "run",
    "write_structure",
]


def load_builtin_program(name: str) -> Program:
    """Parse one of the programs shipped with the package (by stem name)."""
    text = (
        resources.files("choiceless_lab")
        .joinpath("programs")
        .joinpath(f"{name}.bgs")
        .read_text()
    )
    return parse_program(text)
