"""Abstract syntax for set-machine programs.

Terms: variables, integer literals (von Neumann ordinals), applications of
builtin / input / dynamic symbols, and comprehension
``{ t(v) : v in r : phi(v) }``.

Rules: ``Skip``, update ``f(t1, ..., tj) := t0``, conditional, bounded
``do forall v in r``, and parallel blocks whose updates are the union of
their children's.  A program is a closed rule plus its run budgets.

Boolean discipline: the Boolean symbols are the logical builtins, the
membership tests, the input relations, and the dynamic symbols Halt and
Output.  A term is Boolean when its outermost constructor is one of these.
The static rules (binding, arities, Boolean positions, ``Card``) are
checked by the parser as it reads a program; whether an input symbol used
in a Boolean position is a relation is checked when a run starts.
"""

from __future__ import annotations

from ..record import Record

__all__ = [
    "BUILTIN_ARITY",
    "BOOLEAN_BUILTINS",
    "BOOLEAN_DYNAMICS",
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
    "poly_eval",
]

BUILTIN_ARITY = {
    "true": 0,
    "false": 0,
    "not": 1,
    "and": 2,
    "or": 2,
    "eq": 2,
    "in": 2,
    "empty": 0,
    "Atoms": 0,
    "Union": 1,
    "TheUnique": 1,
    "Pair": 2,
    "Card": 1,
}

BOOLEAN_BUILTINS = frozenset({"true", "false", "not", "and", "or", "eq", "in"})

BOOLEAN_DYNAMICS = frozenset({"Halt", "Output"})


class Var(Record):
    _fields = ("name",)


class Lit(Record):
    _fields = ("value",)


class App(Record):
    _fields = ("symbol", "args")

    def __init__(self, symbol: str, args: tuple = ()):
        self.symbol = symbol
        self.args = args


class Compr(Record):
    _fields = ("element", "var", "source", "guard")


Term = Var | Lit | App | Compr


class Skip(Record):
    pass


class Update(Record):
    _fields = ("symbol", "args", "value")


class Cond(Record):
    _fields = ("guard", "then_rule", "else_rule")


class Forall(Record):
    _fields = ("var", "source", "body")


class Par(Record):
    _fields = ("rules",)


Rule = Skip | Update | Cond | Forall | Par


def poly_eval(coeffs, n: int) -> int:
    """Value of the polynomial with the given coefficient vector at n."""
    total = 0
    power = 1
    for c in coeffs:
        total += c * power
        power *= n
    return total


class RunBounds(Record):
    """Step and active-element budgets as coefficient vectors, plus the
    cardinality switch."""

    _fields = ("steps", "active", "card_enabled")

    def __init__(self, steps: tuple, active: tuple, card_enabled: bool = False):
        self.steps = steps
        self.active = active
        self.card_enabled = card_enabled

    def max_steps(self, n: int) -> int:
        return poly_eval(self.steps, n)

    def max_active(self, n: int) -> int:
        return poly_eval(self.active, n)


class Program:
    """A closed rule with budgets and its inferred symbol usage.

    ``dynamic_arity`` maps assigned symbols to arities (always including
    Halt and Output at arity 0); ``static_arity`` maps input symbols to
    arities; ``boolean_static_uses`` are the input symbols that appear in
    Boolean positions and therefore must be relations in any structure the
    program runs on.  A program is equal only to itself: ``parse_program``
    returns one program per text to every caller, with both maps
    read-only.  ``factory`` is ``None`` until the program's first run
    stores there the step factory it generates and compiles, so a program
    holds its factory for as long as it lives.
    """

    def __init__(
        self,
        rule: Rule,
        bounds: RunBounds,
        dynamic_arity,
        static_arity,
        boolean_static_uses: frozenset,
    ):
        self.rule = rule
        self.bounds = bounds
        self.dynamic_arity = dynamic_arity
        self.static_arity = static_arity
        self.boolean_static_uses = boolean_static_uses
        self.factory = None
