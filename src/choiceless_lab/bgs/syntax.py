"""Abstract syntax and static checks for set-machine programs.

Terms: variables, integer literals (von Neumann ordinals), applications of
builtin / input / dynamic symbols, and comprehension
``{ t(v) : v in r : phi(v) }`` where ``phi`` must be Boolean-shaped and
``v`` must not occur free in ``r``.

Rules: ``Skip``, update ``f(t1, ..., tj) := t0``, conditional, bounded
``do forall v in r``, and parallel blocks whose updates are the union of
their children's.  A program is a closed rule plus its run budgets.

Boolean discipline: the Boolean symbols are the logical builtins, the
membership tests, the input relations, and the dynamic symbols Halt and
Output.  A term is Boolean when its outermost constructor is one of these.
Updates of Boolean symbols, conditional guards and comprehension guards
must be Boolean terms.  Whether an input symbol names a relation (Boolean)
or a function is only known once a structure is present, so those uses are
recorded and re-checked when a run starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

from ..errors import ValidationError

__all__ = [
    "BUILTIN_ARITY",
    "BOOLEAN_BUILTINS",
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
    "check_program",
    "free_variables",
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


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple = ()


@dataclass(frozen=True)
class Compr:
    element: "Term"
    var: str
    source: "Term"
    guard: "Term"


Term = Union[Var, Lit, App, Compr]


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Update:
    symbol: str
    args: tuple
    value: "Term"


@dataclass(frozen=True)
class Cond:
    guard: "Term"
    then_rule: "Rule"
    else_rule: "Rule"


@dataclass(frozen=True)
class Forall:
    var: str
    source: "Term"
    body: "Rule"


@dataclass(frozen=True)
class Par:
    rules: tuple


Rule = Union[Skip, Update, Cond, Forall, Par]


def poly_eval(coeffs, n: int) -> int:
    """Value of the polynomial with the given coefficient vector at n."""
    total = 0
    power = 1
    for c in coeffs:
        total += c * power
        power *= n
    return total


@dataclass(frozen=True)
class RunBounds:
    """Step and active-element budgets as coefficient vectors, plus the
    cardinality switch."""

    steps: tuple
    active: tuple
    card_enabled: bool = False

    def __post_init__(self):
        for coeffs in (self.steps, self.active):
            if not coeffs or any(c < 0 for c in coeffs):
                raise ValidationError("budget polynomials need nonnegative coefficients")

    def max_steps(self, n: int) -> int:
        return poly_eval(self.steps, n)

    def max_active(self, n: int) -> int:
        return poly_eval(self.active, n)


@dataclass(frozen=True)
class Program:
    """A closed rule with budgets and its inferred symbol usage.

    ``dynamic_arity`` maps assigned symbols to arities (always including
    Halt and Output at arity 0); ``static_arity`` maps input symbols to
    arities; ``boolean_static_uses`` are the input symbols that appear in
    Boolean positions and therefore must be relations in any structure the
    program runs on.
    """

    rule: Rule
    bounds: RunBounds
    dynamic_arity: Mapping[str, int] = field(default_factory=dict)
    static_arity: Mapping[str, int] = field(default_factory=dict)
    boolean_static_uses: frozenset = frozenset()


def free_variables(node) -> frozenset:
    if isinstance(node, Var):
        return frozenset([node.name])
    if isinstance(node, Lit):
        return frozenset()
    if isinstance(node, App):
        out: frozenset = frozenset()
        for a in node.args:
            out |= free_variables(a)
        return out
    if isinstance(node, Compr):
        inner = free_variables(node.element) | free_variables(node.guard)
        return (inner - {node.var}) | free_variables(node.source)
    if isinstance(node, Skip):
        return frozenset()
    if isinstance(node, Update):
        out = free_variables(node.value)
        for a in node.args:
            out |= free_variables(a)
        return out
    if isinstance(node, Cond):
        return (
            free_variables(node.guard)
            | free_variables(node.then_rule)
            | free_variables(node.else_rule)
        )
    if isinstance(node, Forall):
        return (free_variables(node.body) - {node.var}) | free_variables(node.source)
    if isinstance(node, Par):
        out = frozenset()
        for r in node.rules:
            out |= free_variables(r)
        return out
    raise TypeError(f"not a term or rule: {node!r}")


class _Checker:
    """Arity, binding, Boolean-typing, comprehension-range and Card checks.
    The parser runs it on every program it builds, and its errors carry no
    line or column: only the parser's own grammar errors are positioned."""

    def __init__(self, program: Program):
        self.program = program
        self.boolean_static_uses: set = set()

    def is_boolean(self, term) -> bool:
        if isinstance(term, App):
            if term.symbol in BOOLEAN_BUILTINS or term.symbol in BOOLEAN_DYNAMICS:
                return True
            if term.symbol in self.program.static_arity:
                # assumed to be a relation; re-checked against the structure
                self.boolean_static_uses.add(term.symbol)
                return True
        return False

    def term(self, node, bound):
        if isinstance(node, Var):
            if node.name not in bound:
                raise ValidationError(f"unbound variable {node.name!r}")
            return
        if isinstance(node, Lit):
            if node.value < 0:
                raise ValidationError("ordinal literals are nonnegative")
            return
        if isinstance(node, App):
            arity = BUILTIN_ARITY.get(node.symbol)
            if arity is None:
                arity = self.program.dynamic_arity.get(node.symbol)
            if arity is None:
                arity = self.program.static_arity.get(node.symbol)
            if arity is None:
                raise ValidationError(f"unknown symbol {node.symbol!r}")
            if node.symbol == "Card" and not self.program.bounds.card_enabled:
                raise ValidationError("Card used but the program does not enable it")
            if len(node.args) != arity:
                raise ValidationError(
                    f"{node.symbol} expects {arity} arguments, got {len(node.args)}"
                )
            for a in node.args:
                self.term(a, bound)
            return
        if isinstance(node, Compr):
            if node.var in free_variables(node.source):
                raise ValidationError(
                    f"comprehension variable {node.var!r} occurs free in its range"
                )
            self.term(node.source, bound)
            inner = bound | {node.var}
            self.term(node.element, inner)
            self.term(node.guard, inner)
            if not self.is_boolean(node.guard):
                raise ValidationError("comprehension guard must be Boolean")
            return
        raise TypeError(f"not a term: {node!r}")

    def rule(self, node, bound):
        if isinstance(node, Skip):
            return
        if isinstance(node, Update):
            arity = self.program.dynamic_arity.get(node.symbol)
            if arity is None:
                raise ValidationError(f"update target {node.symbol!r} is not dynamic")
            if len(node.args) != arity:
                raise ValidationError(f"{node.symbol} update arity mismatch")
            for a in node.args:
                self.term(a, bound)
            self.term(node.value, bound)
            if node.symbol in BOOLEAN_DYNAMICS and not self.is_boolean(node.value):
                raise ValidationError(f"{node.symbol} only takes Boolean values")
            return
        if isinstance(node, Cond):
            self.term(node.guard, bound)
            if not self.is_boolean(node.guard):
                raise ValidationError("conditional guard must be Boolean")
            self.rule(node.then_rule, bound)
            self.rule(node.else_rule, bound)
            return
        if isinstance(node, Forall):
            if node.var in free_variables(node.source):
                raise ValidationError(
                    f"forall variable {node.var!r} occurs free in its range"
                )
            self.term(node.source, bound)
            self.rule(node.body, bound | {node.var})
            return
        if isinstance(node, Par):
            for r in node.rules:
                self.rule(r, bound)
            return
        raise TypeError(f"not a rule: {node!r}")


def check_program(program: Program) -> Program:
    """Validate invariants and return the program with its Boolean-position
    input-symbol uses recorded."""
    import dataclasses

    if free_variables(program.rule):
        raise ValidationError("a program must have no free variables")
    for name in BOOLEAN_DYNAMICS:
        if program.dynamic_arity.get(name, 0) != 0:
            raise ValidationError(f"{name} must be nullary")
    checker = _Checker(program)
    checker.rule(program.rule, frozenset())
    return dataclasses.replace(
        program, boolean_static_uses=frozenset(checker.boolean_static_uses)
    )
