"""The tree-walking evaluator, kept as the differential oracle of the
compiled interpreter in ``choiceless_lab.bgs.interp``, and the
match-per-token tokenizer, kept as the oracle of the parser's one-pass
tokenizer.

``eval_term`` and ``collect_updates`` walk the syntax tree on every
evaluation, dispatching on node type, with variables in a dict copied at
each binder.  ``run_oracle`` is ``interp.run`` with that walker in place
of the compiled step and a plain ``fire`` of its own: it shares only the
vocabulary check and both budgets, so any difference between the two
runs is the compiler's, ``fire``'s or the active count's.  The oracle
counts active elements member by member with ``accumulate_active``,
ordinals included, where ``interp`` holds the active ordinals as one
number.
"""

from __future__ import annotations

import re

from choiceless_lab.bgs.interp import (
    RunOutcome,
    State,
    _vocabulary_check,
)
from choiceless_lab.bgs.syntax import (
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
from choiceless_lab.errors import ValidationError
from choiceless_lab.hfset import (
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
from choiceless_lab.structures import InputStructure


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<assign>:=)
  | (?P<noteq>!=)
  | (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[(){},;:=])
    """,
    re.VERBOSE,
)


def tokenize(text: str) -> list:
    """The (kind, text, line, column) of each token of a program body, one
    ``match`` per token and per run of whitespace or comment; a character
    no token starts with is a "bad" token, and the last token is "eof"."""
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            tokens.append(("bad", text[pos], line, pos - line_start + 1))
            pos += 1
            continue
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append((kind, chunk, line, pos - line_start + 1))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rfind("\n") + 1
        pos = m.end()
    tokens.append(("eof", "", line, pos - line_start + 1))
    return tokens


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
        return make_set(state.structure.by_name.values())

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
        names = _names_of(structure, args)
        if names is None:
            return EMPTY  # off-universe arguments read as 0
        return TRUE if names in structure.relations[symbol] else EMPTY
    if symbol in structure.functions:
        names = _names_of(structure, args)
        value = None if names is None else structure.functions[symbol].get(names)
        return EMPTY if value is None else structure.by_name[value]
    # dynamic symbol
    return state.read(symbol, tuple(args))


def _names_of(structure: InputStructure, args) -> tuple | None:
    """The names of the structure's atoms ``args``, or None when some
    argument is not one of them."""
    by_name = structure.by_name
    for a in args:
        if not isinstance(a, Atom) or by_name.get(a.name) is not a:
            return None
    return tuple(a.name for a in args)


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


def fire(state: State, updates) -> State:
    """Apply all updates simultaneously, or none if two of them give one
    location different values: check every location first, then copy the
    tables and write, dropping the locations written 0."""
    values: dict = {}
    for symbol, args, value in updates:
        if values.setdefault((symbol, args), value) is not value:
            return state
    if not values:
        return state
    tables = {symbol: dict(table) for symbol, table in state.tables.items()}
    for (symbol, args), value in values.items():
        table = tables.setdefault(symbol, {})
        if value is EMPTY:
            table.pop(args, None)
        else:
            table[args] = value
    return State(state.structure, tables)


def accumulate_active(updates: frozenset, active: set) -> None:
    """Add every element hereditarily involved in ``updates`` to ``active``,
    visiting the members of each value it has not counted yet."""
    stack: list = []
    for _, args, value in updates:
        stack.append(value)
        stack.extend(args)
    while stack:
        v = stack.pop()
        if v not in active:
            active.add(v)
            stack.extend(v.members)


def run_oracle(program: Program, structure: InputStructure) -> RunOutcome:
    """``interp.run`` with the tree-walker collecting each step's updates."""
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
            accumulate_active(updates, active)
            if len(active) > max_active:
                return RunOutcome(
                    "bound-exceeded",
                    steps,
                    len(active),
                    _as_flag(new_state.read("Output", ())),
                    new_state,
                )
        state = new_state
