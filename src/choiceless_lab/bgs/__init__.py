"""Parser and interpreter for the set-machine language.

Programs are rules over hereditarily finite sets: terms built from the
fixed builtins plus comprehension, rules built from skip, update,
conditional, bounded forall and parallel blocks.  A program artifact also
carries its polynomial step and active-element budgets and whether it
needs the cardinality builtin.

Importing the package loads only ``structures``, which the matching, CFI
and multipede code read their inputs with.  The other names in
``__all__`` (from ``interp``, ``parser`` and ``syntax``) resolve on first
use through the module ``__getattr__``, which imports their module then.
None is cached here: each access reads the defining module, so a function
rebound there, and put back later, is seen as it is at that moment.
"""

from importlib import import_module

from .structures import InputStructure, parse_structure, write_structure

# module -> the names of __all__ that it defines and __getattr__ resolves
_LAZY = {
    "interp": ("RunOutcome", "State", "fire", "run"),
    "parser": ("parse_program",),
    "syntax": (
        "App",
        "Compr",
        "Cond",
        "Forall",
        "Lit",
        "Par",
        "Program",
        "Rule",
        "RunBounds",
        "Skip",
        "Term",
        "Update",
        "Var",
    ),
}


def __getattr__(name):
    for module, names in _LAZY.items():
        if name in names:
            return getattr(import_module(f".{module}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
