"""Set-machine runs: compile the program once per run, then fire it.

A state is the input structure plus one table per dynamic symbol mapping
argument tuples to values; absent locations read as ordinal 0, which also
makes the initial state "constantly 0".  One step collects the update set
of the whole program under the pre-step state and fires it: if two updates
clash (same location, different values) nothing at all is applied.  All
reads within a step see the pre-step state, including nested reads of
dynamic symbols.

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
and a rule ``f(tables, env, out)``, adding its updates to ``out``.  The
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

A comprehension over ``Atoms`` whose guard starts with a lookup of its
binder (a symbol read as a truth value or as a nonzero literal) visits
only the atoms that lookup can hold, through an index of the symbol's
table, remade when the table changes, which an input table never does.
The index holds exactly the atoms at which that first conjunct reads the
wanted value, so the visited atoms are tested against the rest of the
guard only, and a count with no rest is the length of the index entry.
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
    "fire",
    "run",
]


@dataclass(frozen=True, eq=False)
class State:
    """Input structure plus dynamic function tables (default ordinal 0)."""

    structure: InputStructure
    tables: dict = field(default_factory=dict)

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
        self.indexes: dict = {}  # (symbol, argument position) -> its index
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
        members, guard = self.lookup(node, scope, depth) or (None, node.guard)
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

    def lookup(self, node: Compr, scope: dict, depth: int):
        """For a comprehension over Atoms, the closure listing only the
        atoms at which the first conjunct of its guard holds, and the rest
        of the guard (``true`` when nothing is left); or None.

        That conjunct must read a symbol ``= k`` with k not 0, or as a
        truth value (= 1), with the binder as exactly one argument and
        bound variables or literals as the others.  The index holds exactly
        the atoms at which the conjunct reads the wanted value: a table
        holds no 0, so an atom outside the index reads something else
        there.  So the index nested-loop join of Selinger et al., "Access
        path selection in a relational database management system"
        (1979), visits fewer atoms and gives the same set, and a
        visited atom is tested against the rest of the guard only: the
        conjunct the index answered is not tested again."""
        if node.source != App("Atoms"):
            return None
        first = node.guard
        while isinstance(first, App) and first.symbol == "and":
            first = first.args[0]
        wanted = TRUE
        if isinstance(first, App) and first.symbol == "eq":
            first, k = first.args
            if isinstance(first, Lit):
                first, k = k, first
            if not isinstance(k, Lit) or k.value == 0:
                return None
            wanted = ordinal(k.value)
        if (
            not isinstance(first, App)
            or first.symbol in BUILTIN_ARITY
            or first.args.count(Var(node.var)) != 1
        ):
            return None
        p = first.args.index(Var(node.var))
        rest = first.args[:p] + first.args[p + 1:]
        if not all(isinstance(a, Lit) or (isinstance(a, Var) and a.name in scope) for a in rest):
            return None
        symbol = first.symbol
        index_of = self.table_index(symbol, p)
        guard = _without_first_conjunct(node.guard)
        slots = _bound_slots(rest, scope)
        if slots is not None and len(slots) == 1:  # the key built inline
            (s0,) = slots
            return (
                lambda tables, env: index_of(tables[symbol])
                .get(((env[s0],), wanted), ())
            ), guard
        key = self.arguments(rest, scope, depth)
        return (
            lambda tables, env: index_of(tables[symbol])
            .get((key(tables, env), wanted), ())
        ), guard

    def table_index(self, symbol: str, p: int):
        """The function taking a table of ``symbol`` to its atoms at
        argument ``p`` by the other arguments and the value, remade only
        when it is handed a table other than the last one.  An input
        table is the same dict all run, and ``fire`` copies a table before
        it writes to it, so the last table is unchanged; holding it keeps
        any other dict from taking its identity."""
        found = self.indexes.get((symbol, p))
        if found is None:
            atoms = self.atoms.members
            last = [None, None]  # the table last indexed, and its index

            def found(table):
                if table is not last[0]:
                    index: dict = {}
                    for args, value in table.items():
                        if args[p] in atoms:  # the binder ranges over atoms only
                            index.setdefault((args[:p] + args[p + 1:], value), []).append(args[p])
                    last[:] = table, index
                return last[1]

            self.indexes[(symbol, p)] = found
        return found

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

            if else_rule is _skip:

                def when(tables, env, out):
                    if guard(tables, env):
                        then_rule(tables, env, out)

                return when

            def cond(tables, env, out):
                (then_rule if guard(tables, env) else else_rule)(tables, env, out)

            return cond
        if isinstance(node, Forall):
            source = self.term(node.source, scope, depth)
            body = self.rule(node.body, self.bind(scope, node.var, depth), depth + 1)
            slot = depth

            def forall(tables, env, out):
                for member in source(tables, env).members:
                    env[slot] = member
                    body(tables, env, out)

            return forall
        if isinstance(node, Par):
            rules = [self.rule(r, scope, depth) for r in node.rules]

            def par(tables, env, out):
                for r in rules:
                    r(tables, env, out)

            return par
        raise TypeError(f"not a rule: {node!r}")

    def update(self, node: Update, scope: dict, depth: int):
        symbol = node.symbol
        value = self.term(node.value, scope, depth)
        slots = _bound_slots(node.args, scope)
        if slots is not None:  # the key built inline
            if not slots:
                return lambda tables, env, out: out.add((symbol, (), value(tables, env)))
            if len(slots) == 1:
                (s0,) = slots
                return lambda tables, env, out: out.add((symbol, (env[s0],), value(tables, env)))
            s0, s1 = slots
            return lambda tables, env, out: out.add(
                (symbol, (env[s0], env[s1]), value(tables, env))
            )
        key = self.arguments(node.args, scope, depth)
        return lambda tables, env, out: out.add(
            (symbol, key(tables, env), value(tables, env))
        )


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


def _skip(tables, env, out):
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


def collect_updates(step, tables: dict, env: list) -> set:
    """The update set of one step, as (symbol, argument tuple, value)
    triples: the compiled rule ``step`` run on the pre-step tables.  A
    function of its own, so a step can be timed apart from ``fire``."""
    out: set = set()
    step(tables, env, out)
    return out


def fire(state: State, updates) -> State:
    """Apply all updates simultaneously; a clash leaves the state as is.

    One pass over the updates groups them by symbol and stops at the
    first location given two values; each written table is then its old
    table with the step's writes laid over it, and the locations written
    0 taken out, since absent locations already read 0."""
    if not updates:
        return state
    writes: dict = {}  # symbol -> {args: value} of this step
    zeros: list = []  # the (symbol, args) written 0
    for symbol, args, value in updates:
        written = writes.get(symbol)
        if written is None:
            written = writes[symbol] = {}
        if written.setdefault(args, value) is not value:
            return state
        if value is EMPTY:
            zeros.append((symbol, args))
    tables = dict(state.tables)
    for symbol, written in writes.items():
        tables[symbol] = {**tables.get(symbol, _NO_TABLE), **written}
    for symbol, args in zeros:
        del tables[symbol][args]
    return State(state.structure, tables)


def _accumulate_active(updates, active: set, ordinals: int) -> int:
    """Add the non-ordinals that ``updates`` involve to ``active`` and return
    the new count of active ordinals.  The active elements are closed under
    membership, so the active ordinals are always 0, ..., ordinals - 1, and
    nothing already counted is walked again: not an argument tuple whose
    members are all counted, nor a set whose members are counted with it."""
    counted = active.issuperset
    stack: list = []
    for _, args, value in updates:
        if not counted(args):
            stack.extend(args)
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
    """Fire a parsed program from the initial state under its own budgets."""
    _vocabulary_check(program, structure)
    compiler = _Compiler(structure)
    step = compiler.rule(program.rule, {}, 0)
    env: list = [None] * compiler.slots
    # the tables a step reads, {**unwritten, **inputs, **state.tables}: an
    # empty one for each dynamic symbol, then each input symbol's (a key set
    # disjoint from the first by the vocabulary check), then the state's,
    # laid over them after each step that changes the state
    tables = {
        **dict.fromkeys(program.dynamic_arity, _NO_TABLE),
        **_input_tables(structure, program.static_arity),
    }

    n = len(structure.atoms)
    max_steps = program.bounds.max_steps(n)
    max_active = program.bounds.max_active(n)

    state = State(structure)
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
        updates = collect_updates(step, tables, env)
        new_state = fire(state, updates)
        steps += 1
        if new_state is not state:
            ordinals = _accumulate_active(updates, active, ordinals)
            state = new_state
            tables.update(state.tables)
            if len(active) + ordinals > max_active:
                verdict = "bound-exceeded"
                break
    output = _as_flag(state.read("Output", ()))
    return RunOutcome(verdict, steps, len(active) + ordinals, output, state)
