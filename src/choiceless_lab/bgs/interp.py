"""Evaluation of terms and rules, update firing, and budgeted runs.

A state is the input structure plus one table per dynamic symbol mapping
argument tuples to values; absent locations read as ordinal 0, which also
makes the initial state "constantly 0".  One step collects the update set
of the whole program under the pre-step state and fires it: if two updates
clash (same location, different values) nothing at all is applied.

A run fires steps until Halt reads 1, then reports accept or reject from
Output.  Two budgets police the run: a step polynomial, and an
active-element polynomial applied to the cumulative count of elements
involved in updates so far, where "involved" closes off under membership
(the transitive closure of every updated value and every argument).
Exhausting either budget yields the bound-exceeded verdict.

All reads within a step see the pre-step state, including nested reads of
dynamic symbols.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError
from ..hfset import (
    EMPTY,
    TRUE,
    Atom,
    HfSet,
    HfValue,
    card,
    make_set,
    ordinal,
    pair,
    the_unique,
    union_all,
)
from .structures import InputStructure
from .syntax import (
    App,
    BOOLEAN_DYNAMICS,
    Compr,
    Cond,
    Forall,
    Lit,
    Par,
    Program,
    Skip,
    Update,
    Var,
)

__all__ = [
    "RunOutcome",
    "State",
    "active_count",
    "collect_updates",
    "eval_term",
    "fire",
    "run",
]


@dataclass(frozen=True, eq=False)
class State:
    """Input structure plus dynamic function tables (default ordinal 0)."""

    structure: InputStructure
    tables: dict = field(default_factory=dict)
    atoms_value: HfValue = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.atoms_value is None:
            object.__setattr__(self, "atoms_value", make_set(self.structure.atoms))

    def read(self, symbol: str, args: tuple) -> HfValue:
        table = self.tables.get(symbol)
        if table is None:
            return EMPTY
        return table.get(args, EMPTY)


def _as_flag(value: HfValue) -> int:
    """Interpret a value as a truth flag: 1 for ordinal 1, 0 otherwise."""
    return 1 if value is TRUE else 0


def eval_term(state: State, env: dict, term) -> HfValue:
    """Evaluate a term under variable bindings from ``env``."""
    if isinstance(term, Var):
        try:
            return env[term.name]
        except KeyError:
            raise ValidationError(f"unbound variable {term.name!r}") from None
    if isinstance(term, Lit):
        return ordinal(term.value)
    if isinstance(term, Compr):
        source = eval_term(state, env, term.source)
        collected = []
        inner = dict(env)
        for member in source.members:
            inner[term.var] = member
            if _as_flag(eval_term(state, inner, term.guard)):
                collected.append(eval_term(state, inner, term.element))
        return make_set(collected)
    if not isinstance(term, App):
        raise TypeError(f"not a term: {term!r}")

    symbol = term.symbol
    if symbol == "true":
        return TRUE
    if symbol == "false":
        return EMPTY
    if symbol == "empty":
        return EMPTY
    if symbol == "Atoms":
        return state.atoms_value

    args = [eval_term(state, env, a) for a in term.args]

    if symbol == "not":
        (x,) = args
        if x is TRUE:
            return EMPTY
        if x is EMPTY:
            return TRUE
        return EMPTY  # off-domain convention
    if symbol == "and":
        x, y = args
        return TRUE if (x is TRUE and y is TRUE) else EMPTY
    if symbol == "or":
        x, y = args
        ok = (x is TRUE or y is TRUE) and (x in (TRUE, EMPTY) and y in (TRUE, EMPTY))
        return TRUE if ok else EMPTY
    if symbol == "eq":
        x, y = args
        return TRUE if x is y else EMPTY
    if symbol == "in":
        x, y = args
        return TRUE if (isinstance(y, HfSet) and x in y) else EMPTY
    if symbol == "Union":
        return union_all(args[0])
    if symbol == "TheUnique":
        return the_unique(args[0])
    if symbol == "Pair":
        return pair(args[0], args[1])
    if symbol == "Card":
        return card(args[0])

    structure = state.structure
    if symbol in structure.relations:
        tup = tuple(args)
        for a in tup:
            if not isinstance(a, Atom):
                return EMPTY  # off-universe arguments read as 0
        return TRUE if tup in structure.relations[symbol] else EMPTY
    if symbol in structure.functions:
        tup = tuple(args)
        return structure.functions[symbol].get(tup, EMPTY)
    # dynamic symbol
    return state.read(symbol, tuple(args))


def collect_updates(state: State, env: dict, rule) -> frozenset:
    """The update set a rule produces under the given bindings, as
    (symbol, argument tuple, value) triples."""
    out: set = set()
    _collect(state, env, rule, out)
    return frozenset(out)


def _collect(state: State, env: dict, rule, out: set) -> None:
    if isinstance(rule, Skip):
        return
    if isinstance(rule, Update):
        args = tuple(eval_term(state, env, a) for a in rule.args)
        value = eval_term(state, env, rule.value)
        if rule.symbol in BOOLEAN_DYNAMICS and value not in (TRUE, EMPTY):
            raise ValidationError(f"{rule.symbol} assigned a non-Boolean value")
        out.add((rule.symbol, args, value))
        return
    if isinstance(rule, Cond):
        flag = _as_flag(eval_term(state, env, rule.guard))
        branch = rule.then_rule if flag else rule.else_rule
        _collect(state, env, branch, out)
        return
    if isinstance(rule, Forall):
        source = eval_term(state, env, rule.source)
        inner = dict(env)
        for member in source.members:
            inner[rule.var] = member
            _collect(state, inner, rule.body, out)
        return
    if isinstance(rule, Par):
        for sub in rule.rules:
            _collect(state, env, sub, out)
        return
    raise TypeError(f"not a rule: {rule!r}")


def _has_clash(updates: frozenset) -> bool:
    seen: dict = {}
    for symbol, args, value in updates:
        if seen.setdefault((symbol, args), value) is not value:
            return True
    return False


def fire(state: State, updates: frozenset) -> State:
    """Apply all updates simultaneously; a clash leaves the state as is."""
    if not updates or _has_clash(updates):
        return state
    tables = dict(state.tables)
    touched: set = set()
    for symbol, args, value in updates:
        if symbol not in touched:
            tables[symbol] = dict(tables.get(symbol, ()))
            touched.add(symbol)
        if value is EMPTY:
            tables[symbol].pop(args, None)  # default reads are already 0
        else:
            tables[symbol][args] = value
    return State(state.structure, tables, state.atoms_value)


def active_count(trace) -> int:
    """Number of elements hereditarily involved in the traced update sets."""
    active: set = set()
    for updates in trace:
        _accumulate_active(updates, active)
    return len(active)


def _accumulate_active(updates: frozenset, active: set) -> None:
    # active is closed under membership, so the walk stops at any element
    # already counted: its members are counted too
    stack: list = []
    for _, args, value in updates:
        stack.append(value)
        stack.extend(args)
    while stack:
        v = stack.pop()
        if v not in active:
            active.add(v)
            stack.extend(v.members)


@dataclass(frozen=True)
class RunOutcome:
    """Verdict plus the resources the run consumed."""

    verdict: str  # "accept" | "reject" | "bound-exceeded"
    steps: int
    peak_active: int
    output: int
    final_state: State = field(repr=False, compare=False, default=None)  # type: ignore[assignment]


def _vocabulary_check(program: Program, structure: InputStructure) -> None:
    for name, arity in program.static_arity.items():
        declared = structure.arities.get(name)
        if declared is None:
            raise ValidationError(f"input symbol {name!r} missing from the structure")
        if declared != arity:
            raise ValidationError(
                f"input symbol {name!r} has arity {declared}, program uses {arity}"
            )
    for name in program.boolean_static_uses:
        if name not in structure.relations:
            raise ValidationError(
                f"input symbol {name!r} used as a relation but is not one"
            )


def run(program: Program, structure: InputStructure) -> RunOutcome:
    """Fire the program from the initial state under its own budgets."""
    _vocabulary_check(program, structure)

    n = len(structure.atoms)
    max_steps = program.bounds.max_steps(n)
    max_active = program.bounds.max_active(n)

    state = State(structure)
    active: set = set()
    steps = 0
    while True:
        if state.read("Halt", ()) is TRUE:
            out = state.read("Output", ())
            verdict = "accept" if out is TRUE else "reject"
            return RunOutcome(verdict, steps, len(active), _as_flag(out), state)
        if steps >= max_steps:
            return RunOutcome(
                "bound-exceeded", steps, len(active), _as_flag(state.read("Output", ())), state
            )
        updates = collect_updates(state, {}, program.rule)
        new_state = fire(state, updates)
        steps += 1
        if new_state is not state:
            _accumulate_active(updates, active)
            if len(active) > max_active:
                return RunOutcome(
                    "bound-exceeded",
                    steps,
                    len(active),
                    _as_flag(new_state.read("Output", ())),
                    new_state,
                )
        state = new_state
