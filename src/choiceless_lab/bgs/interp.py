"""Set-machine runs: compile the program once per run, then fire it.

A state is the input structure plus one table per dynamic symbol mapping
argument tuples to values; absent locations read as ordinal 0, which also
makes the initial state "constantly 0".  One step collects the update set
of the whole program under the pre-step state and fires it: if two updates
clash (same location, different values) nothing at all is applied, and
otherwise each is written into its table in place.  The update set is held
as write maps, one ``{args: value}`` dict per updated symbol made once per
run and emptied before each step: an update writes itself into its
symbol's map, and a second value for a location there is the clash, which
ends the step's collection at once.  All reads within a step see the
pre-step state, including nested reads of dynamic symbols.

A run takes what ``parse_program`` returns, a closed program that gives
``Halt`` and ``Output`` only Boolean terms, and checks neither again.  It
first checks the program's vocabulary against the structure: every
input symbol must be there with its arity, every input symbol in a Boolean
position must be a relation, and no dynamic symbol (Halt and Output
included) may be a relation or function of the structure, so each name
means one thing for the whole run.  It then compiles the rule once into
nested closures, in the manner of Feeley and Lapalme, "Using closures for
code generation" (1987): a term becomes ``f(tables, env)``, a guard a
predicate ``f(tables, env) -> bool`` that tells whether the term reads 1,
and a rule ``f(tables, env)``, writing its updates into the write maps.  The
logical builtins compile to predicates (``and`` to Python's ``and``,
``eq`` to ``is``) and are boxed into ordinals 0 and 1 only where a value is
needed.  Builtins, ``Atoms`` and literals are resolved while compiling.
Every other symbol is read as ``tables[symbol]``, from the one dict of
tables each step gets: the input's relations and functions are the
static part of the vocabulary, made into tables once per run over the
structure's ``by_name`` atoms (a relation reads 1 at its tuples), and
each dynamic symbol has the pre-step table, or a shared empty one until
first written.  Variables live in one list ``env`` allocated per run: a
binder's slot is its nesting depth, the number of binders around it, so a
shadowing binder takes a fresh slot and the outer binding survives.

A construct compiles one way, except where programs spend their steps:
fused forms exist only for reads at up to two bound variables, and for
comprehensions, counts and searches, and a conditional with no else
branch calls none.  A read at no more than two bound variables
makes no call of its own where a test reads it as a truth value,
compares it with a literal or asks whether it holds a literal: the
consumer's closure reads the table itself, as an update's closure builds
its key.

A comprehension over ``Atoms``, and a ``do forall v in Atoms, if g then
r endif`` with no else branch, whose guard starts with a lookup of its
binder (a symbol read as a truth value, as a nonzero literal, or as
holding a literal, ``k in S(...)``) visits only the atoms that lookup can
hold, through an index of the symbol's table, dropped when a step writes
the symbol, which an input symbol never is.  For a truth value or
``= k`` the index holds exactly the atoms at which that first conjunct
reads the wanted value, so the visited atoms are tested against the rest
of the guard only, and a count with no rest is the length of the index
entry; for ``k in`` it holds the atoms at which the read is not 0, and
the conjunct is tested again.
``Card({ v : v in S : g })`` counts what passes, and
``x in { e : v in S : g }`` searches and stops at the first hit; neither
builds the set.  No value can change and no order can leak: every
comprehension ends as a set, a count or a yes/no answer, so which members
are visited first, or whether one that fails the guard is visited at all,
cannot show, and no term of a checked program raises, so a term left
unevaluated changes nothing.

A run fires steps until Halt reads 1, then reports accept or reject from
Output.  Two budgets police the run: a step polynomial, and an
active-element polynomial applied to the cumulative count of elements
involved in updates so far, where "involved" closes off under membership
(the transitive closure of every updated value and every argument).
Exhausting either budget yields the bound-exceeded verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

from ..errors import ValidationError
from ..hfset import (
    EMPTY,
    TRUE,
    HfSet,
    HfValue,
    Ordinal,
    card,
    make_set,
    ordinal,
    pair,
    the_unique,
    union_all,
)
from ..structures import InputStructure
from .syntax import (
    App,
    BOOLEAN_BUILTINS,
    BUILTIN_ARITY,
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
    "Updates",
    "fire",
    "run",
]


@dataclass(eq=False)
class State:
    """Input structure plus function tables (default ordinal 0): the
    dynamic ones, and while a run fires steps the input's as well.  Not a
    snapshot: ``fire`` writes a state's tables in place."""

    structure: InputStructure
    tables: dict = field(default_factory=dict)
    # symbol -> {(argument position, by value): [index] over its table},
    # each emptied by ``fire`` when it writes the symbol
    indexes: dict = field(default_factory=dict)

    def read(self, symbol: str, args: tuple) -> HfValue:
        table = self.tables.get(symbol)
        if table is None:
            return EMPTY
        return table.get(args, EMPTY)


def _as_flag(value: HfValue) -> int:
    """Interpret a value as a truth flag: 1 for ordinal 1, 0 otherwise."""
    return 1 if value is TRUE else 0


def _constant(value: HfValue):
    def constant(tables, env):
        return value

    return constant


_NO_TABLE: dict = {}  # the table of a dynamic symbol not yet written; never written


class _Compiler:
    """Turns terms and rules into closures against one structure, and
    records in ``slots`` how long ``env`` must be."""

    def __init__(self, structure: InputStructure):
        self.atoms = make_set(structure.by_name.values())
        self.indexes: dict = {}  # the run's State.indexes
        self.updates = Updates({})  # the run's write maps
        self.slots = 0

    def bind(self, scope: dict, name: str, depth: int) -> dict:
        self.slots = max(self.slots, depth + 1)
        return {**scope, name: depth}

    def term(self, node, scope: dict, depth: int):
        if isinstance(node, Var):
            slot = scope[node.name]

            def var(tables, env):
                return env[slot]

            return var
        if isinstance(node, Lit):
            return _constant(ordinal(node.value))
        if isinstance(node, Compr):
            return self.comprehension(node, scope, depth)
        if isinstance(node, App):
            return self.application(node, scope, depth)
        raise TypeError(f"not a term: {node!r}")

    def test(self, node, scope: dict, depth: int):
        """The closure ``f(tables, env) -> bool`` telling whether a term
        reads 1: what guards compile to, with no truth value boxed."""
        symbol = node.symbol if isinstance(node, App) else None
        if symbol == "true":
            return _true
        if symbol == "false":
            return lambda tables, env: False
        if symbol == "and":
            x, y = (self.test(a, scope, depth) for a in node.args)
            # short-circuit: no term of a checked program raises, so skipping
            # the right operand when the left one is not 1 changes no value
            return lambda tables, env: x(tables, env) and y(tables, env)
        if symbol == "or":
            # "or" reads 1 when one operand reads 1 and neither reads
            # anything but 0 or 1, so its operands are not Boolean
            # positions: "true or 5" reads 0
            x, y = (self.term(a, scope, depth) for a in node.args)

            def disjunction(tables, env):
                u = x(tables, env)
                v = y(tables, env)
                if u is TRUE:
                    return v is TRUE or v is EMPTY
                return u is EMPTY and v is TRUE

            return disjunction
        if symbol == "not":
            x = self.term(node.args[0], scope, depth)
            return lambda tables, env: x(tables, env) is EMPTY
        if symbol == "eq":
            return self.equality(*node.args, scope, depth)
        if symbol == "in":
            return self.membership(*node.args, scope, depth)
        slots = _read_slots(node, scope)
        if slots is not None:
            return _read_is(symbol, slots, TRUE)
        x = self.term(node, scope, depth)
        return lambda tables, env: x(tables, env) is TRUE

    def equality(self, left, right, scope: dict, depth: int):
        if isinstance(left, Lit):
            left, right = right, left
        slots = _read_slots(left, scope) if isinstance(right, Lit) else None
        if slots is not None:
            return _read_is(left.symbol, slots, ordinal(right.value))
        x = self.term(left, scope, depth)
        y = self.term(right, scope, depth)
        return lambda tables, env: x(tables, env) is y(tables, env)

    def membership(self, left, right, scope: dict, depth: int):
        if isinstance(right, Compr):
            return self.search(left, right, scope, depth)
        slots = _read_slots(right, scope) if isinstance(left, Lit) else None
        if slots is not None:
            return _read_holds(right.symbol, slots, left.value)
        x = self.term(left, scope, depth)
        y = self.term(right, scope, depth)

        def member(tables, env):
            u = x(tables, env)
            v = y(tables, env)
            return isinstance(v, HfSet) and u in v

        return member

    def ranged(self, node: Compr, scope: dict, depth: int) -> tuple:
        """A comprehension's parts: the closure listing the members its
        binder visits, the binder's slot, the guard those members must
        still pass as a test, and its element."""
        inner = self.bind(scope, node.var, depth)
        element = self.term(node.element, inner, depth + 1)
        found = self.lookup(node.var, node.source, node.guard, scope, depth)
        members, guard = found or (None, node.guard)
        if members is None:
            source = self.term(node.source, scope, depth)
            members = lambda tables, env: source(tables, env).members  # noqa: E731
        return members, depth, self.test(guard, inner, depth + 1), element

    def comprehension(self, node: Compr, scope: dict, depth: int):
        members, slot, guard, element = self.ranged(node, scope, depth)

        def comprehension(tables, env):
            collected = []
            for member in members(tables, env):
                env[slot] = member
                if guard(tables, env):
                    collected.append(element(tables, env))
            return make_set(collected)

        return comprehension

    def count(self, node: Compr, scope: dict, depth: int):
        """``Card({ v : v in S : g })`` with no set built: the members of S
        are distinct, so the count is how many of them pass."""
        members, slot, guard, _ = self.ranged(node, scope, depth)
        if guard is _true:
            return lambda tables, env: ordinal(len(members(tables, env)))

        def count(tables, env):
            n = 0
            for member in members(tables, env):
                env[slot] = member
                if guard(tables, env):
                    n += 1
            return ordinal(n)

        return count

    def search(self, left, node: Compr, scope: dict, depth: int):
        """``x in { e : v in S : g }`` with no set built: whether some v in
        S passes g with e(v) = x, stopping at the first found."""
        x = self.term(left, scope, depth)
        members, slot, guard, element = self.ranged(node, scope, depth)

        def search(tables, env):
            wanted = x(tables, env)
            for member in members(tables, env):
                env[slot] = member
                if guard(tables, env) and element(tables, env) is wanted:
                    return True
            return False

        return search

    def lookup(self, var: str, source, guard, scope: dict, depth: int):
        """For a range of ``var`` over Atoms, the closure listing only the
        atoms at which the first conjunct of ``guard`` can hold, and the
        guard those atoms must still pass; or None.

        That conjunct must read a symbol ``= k`` with k not 0, as a truth
        value (= 1), or as ``k in`` it with k a literal, with the binder
        as exactly one argument and bound variables or literals as the
        others.  For ``= k`` and truth values the index holds exactly the
        atoms at which the conjunct reads the wanted value: a table holds
        no 0, so an atom outside the index reads something else there.
        So the index nested-loop join of Selinger et al., "Access path
        selection in a relational database management system" (1979),
        visits fewer atoms and gives the same answer, and a visited atom
        is tested against the rest of the guard only.  For ``k in`` the
        index holds the atoms at which the read is not 0, since 0 holds
        nothing; k need not be in every such value, so the conjunct is
        tested again."""
        if source != App("Atoms"):
            return None
        first = guard
        while isinstance(first, App) and first.symbol == "and":
            first = first.args[0]
        wanted = TRUE  # the value read, or None for any value but 0
        if isinstance(first, App) and first.symbol == "eq":
            first, k = first.args
            if isinstance(first, Lit):
                first, k = k, first
            if not isinstance(k, Lit) or k.value == 0:
                return None
            wanted = ordinal(k.value)
        elif isinstance(first, App) and first.symbol == "in" and isinstance(first.args[0], Lit):
            first = first.args[1]
            wanted = None
        if (
            not isinstance(first, App)
            or first.symbol in BUILTIN_ARITY
            or first.args.count(Var(var)) != 1
        ):
            return None
        p = first.args.index(Var(var))
        rest = first.args[:p] + first.args[p + 1:]
        if not all(isinstance(a, Lit) or (isinstance(a, Var) and a.name in scope) for a in rest):
            return None
        symbol = first.symbol
        built, build = self.table_index(symbol, p, wanted is not None)
        if wanted is not None:
            guard = _without_first_conjunct(guard)
        slots = _bound_slots(rest, scope)
        if slots is not None and len(slots) == 1:  # the key built inline
            (s0,) = slots
            return (
                lambda tables, env: (built or build(tables[symbol]))[0]
                .get(((env[s0],), wanted), ())
            ), guard
        key = self.arguments(rest, scope, depth)
        return (
            lambda tables, env: (built or build(tables[symbol]))[0]
            .get((key(tables, env), wanted), ())
        ), guard

    def table_index(self, symbol: str, p: int, by_value: bool):
        """The cell holding the index of the table of ``symbol``, its atoms
        at argument ``p`` by the other arguments and the value (or None
        when not ``by_value``), and the function building it into the
        cell.  ``fire`` empties the cell when it writes the symbol's table,
        which an input table never is."""
        atoms = self.atoms.members
        built = self.indexes.setdefault(symbol, {}).setdefault((p, by_value), [])

        def build(table):
            index: dict = {}
            for args, value in table.items():
                if args[p] in atoms:  # the binder ranges over atoms only
                    key = (args[:p] + args[p + 1:], value if by_value else None)
                    index.setdefault(key, []).append(args[p])
            built.append(index)
            return built

        return built, build

    def arguments(self, nodes: tuple, scope: dict, depth: int):
        """A closure building the argument tuple, left to right."""
        slots = _bound_slots(nodes, scope)
        if slots == ():
            return _constant(())
        if slots is not None:  # a lookup's key at two bound variables, read directly
            s0, s1 = slots
            return lambda tables, env: (env[s0], env[s1])
        fns = [self.term(a, scope, depth) for a in nodes]
        return lambda tables, env: tuple([f(tables, env) for f in fns])

    def application(self, node: App, scope: dict, depth: int):
        symbol = node.symbol
        if symbol == "true":
            return _constant(TRUE)
        if symbol in ("false", "empty"):
            return _constant(EMPTY)
        if symbol == "Atoms":
            return _constant(self.atoms)
        if symbol in BOOLEAN_BUILTINS:
            holds = self.test(node, scope, depth)
            return lambda tables, env: TRUE if holds(tables, env) else EMPTY
        if symbol == "Card":
            (arg,) = node.args
            if isinstance(arg, Compr) and arg.element == Var(arg.var):
                return self.count(arg, scope, depth)
        builtin = _BUILTINS.get(symbol)
        if builtin is not None:
            return builtin(*[self.term(a, scope, depth) for a in node.args])
        # a symbol's read: reads of at most two bound variables take one call
        slots = _read_slots(node, scope)
        if slots is None:
            key = self.arguments(node.args, scope, depth)
            return lambda tables, env: tables[symbol].get(key(tables, env), EMPTY)
        if not slots:
            return lambda tables, env: tables[symbol].get((), EMPTY)
        if len(slots) == 1:
            (s0,) = slots
            return lambda tables, env: tables[symbol].get((env[s0],), EMPTY)
        s0, s1 = slots
        return lambda tables, env: tables[symbol].get((env[s0], env[s1]), EMPTY)

    def rule(self, node, scope: dict, depth: int):
        if isinstance(node, Skip):
            return _skip
        if isinstance(node, Update):
            return self.update(node, scope, depth)
        if isinstance(node, Cond):
            guard = self.test(node.guard, scope, depth)
            then_rule = self.rule(node.then_rule, scope, depth)
            else_rule = self.rule(node.else_rule, scope, depth)
            if guard is _true:
                return then_rule
            if else_rule is _skip:

                def when(tables, env):
                    if guard(tables, env):
                        then_rule(tables, env)

                return when

            def cond(tables, env):
                (then_rule if guard(tables, env) else else_rule)(tables, env)

            return cond
        if isinstance(node, Forall):
            body = node.body
            found = None
            if isinstance(body, Cond) and body.else_rule == Skip():
                found = self.lookup(node.var, node.source, body.guard, scope, depth)
            if found is not None:  # visit the atoms an index lists
                members, guard = found
                body = Cond(guard, body.then_rule, body.else_rule)
            else:
                source = self.term(node.source, scope, depth)
                members = lambda tables, env: source(tables, env).members  # noqa: E731
            body = self.rule(body, self.bind(scope, node.var, depth), depth + 1)
            slot = depth

            def forall(tables, env):
                for member in members(tables, env):
                    env[slot] = member
                    body(tables, env)

            return forall
        if isinstance(node, Par):
            rules = [self.rule(r, scope, depth) for r in node.rules]

            def par(tables, env):
                for r in rules:
                    r(tables, env)

            return par
        raise TypeError(f"not a rule: {node!r}")

    def update(self, node: Update, scope: dict, depth: int):
        """The closure writing the update into its symbol's write map; it
        raises ``_Clash`` when the map holds another value at the location
        (values are interned, so equal values are the same object)."""
        written = self.updates.maps.setdefault(node.symbol, {})
        value = self.term(node.value, scope, depth)
        slots = _bound_slots(node.args, scope)
        # the key built inline at up to two bound variables
        if slots == ():

            def update(tables, env):
                v = value(tables, env)
                if written.setdefault((), v) is not v:
                    raise _Clash

        elif slots is not None and len(slots) == 1:
            (s0,) = slots

            def update(tables, env):
                v = value(tables, env)
                if written.setdefault((env[s0],), v) is not v:
                    raise _Clash

        elif slots is not None:
            s0, s1 = slots

            def update(tables, env):
                v = value(tables, env)
                if written.setdefault((env[s0], env[s1]), v) is not v:
                    raise _Clash

        else:
            key = self.arguments(node.args, scope, depth)

            def update(tables, env):
                k = key(tables, env)
                v = value(tables, env)
                if written.setdefault(k, v) is not v:
                    raise _Clash

        return update


def _read_slots(node, scope: dict):
    """The ``env`` slots of a symbol's read at no more than two bound
    variables, which its consumer reads inline, or None."""
    if not isinstance(node, App) or node.symbol in BUILTIN_ARITY:
        return None
    return _bound_slots(node.args, scope)


def _bound_slots(nodes: tuple, scope: dict):
    """The ``env`` slots of ``nodes`` when they are at most two bound
    variables, else None."""
    slots = tuple(scope.get(a.name) if isinstance(a, Var) else None for a in nodes)
    return slots if len(slots) <= 2 and None not in slots else None


def _without_first_conjunct(guard):
    """A guard with its leftmost conjunct dropped, ``true`` if it had one."""
    if not (isinstance(guard, App) and guard.symbol == "and"):
        return App("true")
    left, right = guard.args
    rest = _without_first_conjunct(left)
    return right if rest == App("true") else App("and", (rest, right))


def _true(tables, env):
    return True


def _read_is(symbol: str, slots: tuple, k: HfValue):
    """The test that ``symbol`` at the bound variables ``slots`` reads
    ``k``, the table read inline."""
    if not slots:
        return lambda tables, env: tables[symbol].get((), EMPTY) is k
    if len(slots) == 1:
        (s0,) = slots
        return lambda tables, env: tables[symbol].get((env[s0],), EMPTY) is k
    s0, s1 = slots
    return lambda tables, env: tables[symbol].get((env[s0], env[s1]), EMPTY) is k


def _read_holds(symbol: str, slots: tuple, k: int):
    """The test ``k in symbol(...)`` for a literal k and the bound
    variables ``slots``, the table read inline; ordinal n holds the
    literals below n, and an atom's members are ()."""
    literal = ordinal(k)
    if not slots:

        def holds(tables, env):
            v = tables[symbol].get((), EMPTY)
            return v.n > k if type(v) is Ordinal else literal in v.members

    elif len(slots) == 1:
        (s0,) = slots

        def holds(tables, env):
            v = tables[symbol].get((env[s0],), EMPTY)
            return v.n > k if type(v) is Ordinal else literal in v.members

    else:
        s0, s1 = slots

        def holds(tables, env):
            v = tables[symbol].get((env[s0], env[s1]), EMPTY)
            return v.n > k if type(v) is Ordinal else literal in v.members

    return holds


def _skip(tables, env):
    pass


def _lifted(f):
    """A one-argument builtin as the function taking its argument's
    closure to the closure of its application."""
    return lambda x: lambda tables, env: f(x(tables, env))


# builtins with arguments that are not truth values: name -> closure over
# the argument closures
_BUILTINS = {
    "Union": _lifted(union_all),
    "TheUnique": _lifted(the_unique),
    "Card": _lifted(card),
    "Pair": lambda x, y: lambda tables, env: pair(x(tables, env), y(tables, env)),
}


class _Clash(Exception):
    """Raised by the update that gives a location a second value."""


class Updates:
    """One step's update set as write maps: ``maps`` takes each updated
    symbol to its ``{args: value}`` dict, and ``clash`` tells whether an
    update gave a location a second value, which ended the collection.
    ``len()`` is the number of distinct updates collected: all of the
    step's, or on a clash those collected before it, at least one."""

    __slots__ = ("maps", "clash")

    def __init__(self, maps: dict):
        self.maps = maps
        self.clash = False

    def __len__(self) -> int:
        return sum(map(len, self.maps.values()))


def collect_updates(step, tables: dict, env: list, updates: Updates) -> Updates:
    """One step's updates: ``updates`` emptied, then written by the
    compiled rule ``step`` run on the pre-step tables, each update into
    its symbol's write map.  A clash ends the collection and marks the
    step clashed.  A function of its own, so a step can be timed apart
    from ``fire``."""
    for written in updates.maps.values():
        if written:
            written.clear()
    updates.clash = False
    try:
        step(tables, env)
    except _Clash:
        updates.clash = True
    return updates


def fire(state: State, updates: Updates) -> State:
    """Apply a step's updates simultaneously; a clash leaves the state as is.

    The collection found any clash, so a clashed or empty step returns
    ``state`` with nothing written.  Otherwise each written symbol's table
    takes its write map in one ``dict.update``, a symbol's first write
    giving it a table of its own, and the locations written 0 are taken
    out, since absent locations already read 0; the indexes over each
    written table are emptied.  The result is a new State over the same
    tables, so a step costs its number of updates, not the size of what
    it writes."""
    if updates.clash:
        return state
    tables, indexes = state.tables, state.indexes
    wrote = False
    for symbol, written in updates.maps.items():
        if not written:
            continue
        wrote = True
        table = tables.get(symbol, _NO_TABLE)
        if table is _NO_TABLE:
            table = tables[symbol] = {}
        table.update(written)
        if EMPTY in written.values():
            for args in [args for args, value in written.items() if value is EMPTY]:
                del table[args]
        if symbol in indexes:
            for built in indexes[symbol].values():
                built.clear()
    return State(state.structure, tables, indexes) if wrote else state


def _accumulate_active(updates: Updates, active: set, ordinals: int) -> int:
    """Add the non-ordinals that ``updates`` involve to ``active`` and return
    the new count of active ordinals.  The active elements are closed under
    membership, so the active ordinals are always 0, ..., ordinals - 1, and
    nothing already counted is walked again: not a write map's argument
    tuples when all their members are counted, nor one such tuple, nor a
    set whose members are counted with it."""
    counted = active.issuperset
    stack: list = []
    for written in updates.maps.values():
        if not written:
            continue
        if not counted(chain.from_iterable(written)):
            for args in written:
                if not counted(args):
                    stack.extend(args)
        for value in written.values():
            if type(value) is Ordinal:
                if value.n >= ordinals:
                    ordinals = value.n + 1
            elif value not in active:
                stack.append(value)
    while stack:
        v = stack.pop()
        if type(v) is Ordinal:
            if v.n >= ordinals:
                ordinals = v.n + 1
        elif v not in active:
            active.add(v)
            stack.extend(v.members)
    return ordinals


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
    for name in sorted(program.boolean_static_uses):
        if name not in structure.relations:
            raise ValidationError(
                f"input symbol {name!r} used as a relation but is not one"
            )
    for name in program.dynamic_arity:
        if name in structure.relations or name in structure.functions:
            raise ValidationError(
                f"dynamic symbol {name!r} is also an input symbol of the structure"
            )


def _input_tables(structure: InputStructure, symbols) -> dict:
    """Each input symbol's table over the run's atoms: a function's map,
    or a relation's tuples reading 1.  A relation holds atom tuples only,
    so a tuple with a set in it reads 0."""
    atom = structure.by_name.__getitem__
    relations, functions = structure.relations, structure.functions
    return {
        symbol: dict.fromkeys((tuple(map(atom, t)) for t in relations[symbol]), TRUE)
        if symbol in relations
        else {tuple(map(atom, args)): atom(v) for args, v in functions[symbol].items()}
        for symbol in symbols
    }


def run(program: Program, structure: InputStructure) -> RunOutcome:
    """Fire a parsed program from the initial state under its own budgets.

    The run's state holds the tables every step reads, input tables
    included, and ``fire`` writes them in place; the final state holds
    the dynamic tables written."""
    _vocabulary_check(program, structure)
    compiler = _Compiler(structure)
    step = compiler.rule(program.rule, {}, 0)
    env: list = [None] * compiler.slots
    # the tables a step reads, and the state's, which fire writes: an empty
    # one for each dynamic symbol until it is first written, then each
    # input symbol's (a key set disjoint from the first by the
    # vocabulary check)
    tables = {
        **dict.fromkeys(program.dynamic_arity, _NO_TABLE),
        **_input_tables(structure, program.static_arity),
    }

    n = len(structure.atoms)
    max_steps = program.bounds.max_steps(n)
    max_active = program.bounds.max_active(n)

    state = State(structure, tables, compiler.indexes)
    active: set = set()  # the active non-ordinals
    ordinals = 0  # the active ordinals are 0, ..., ordinals - 1
    steps = 0
    while True:
        if state.read("Halt", ()) is TRUE:
            verdict = "accept" if state.read("Output", ()) is TRUE else "reject"
            break
        if steps >= max_steps:
            verdict = "bound-exceeded"
            break
        updates = collect_updates(step, tables, env, compiler.updates)
        new_state = fire(state, updates)
        steps += 1
        if new_state is not state:
            ordinals = _accumulate_active(updates, active, ordinals)
            state = new_state
            if len(active) + ordinals > max_active:
                verdict = "bound-exceeded"
                break
    output = _as_flag(state.read("Output", ()))
    written = {s: tables[s] for s in program.dynamic_arity if tables[s] is not _NO_TABLE}
    return RunOutcome(verdict, steps, len(active) + ordinals, output, State(structure, written))
