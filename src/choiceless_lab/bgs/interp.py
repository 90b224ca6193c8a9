"""Set-machine runs: generate each program's step once, then fire it.

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
means one thing for the whole run.

The rule then runs as generated Python.  The first run of a program in a
process writes the source of one factory function for its rule and
compiles it, 1.6 ms for power.bgs on a 2-core VM; the parsed program
holds the factory, and ``parse_program`` returns one program per text,
so a later run of the same text neither parses nor generates.  Each
run calls the factory with its atoms, its index cells and its write maps,
and gets its step, ``step(tables)``.  A program's rule is closed, so the
step reads no variable bound outside it.  A step first takes each
symbol's table from ``tables``, the one dict of tables it is handed: the
input's relations and functions, made into tables once per run over the
structure's ``by_name`` atoms (a relation reads 1 at its tuples), and
each dynamic symbol's pre-step table, or a shared empty one until first
written.  The rule is then inline Python: a read is a ``get`` on its
table, a binder a ``for`` loop over a local named by its nesting depth
(so a shadowing binder takes a fresh local and the outer binding
survives), a guard a Python condition (``and`` short-circuits, ``eq`` is
``is``), and an update a ``setdefault`` on its symbol's write map.  Truth
values are boxed into ordinals 0 and 1 only where a value is needed;
``Union``, ``TheUnique``, ``Card`` and ``Pair`` call
:mod:`choiceless_lab.hfset`.  A name from the program enters the source
only as a string constant.  CPython allows 20 nested loops in a function
and 100 levels of indentation in a file, so a rule or term nested deeper
than ``_MAX_LOOPS`` loops or ``_MAX_INDENT`` levels becomes a function of
its own, taking the binders in scope, and an expression with more than
``_MAX_PARENS`` parentheses is held in a local first.

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
unevaluated, or evaluated before it is needed, changes nothing.

A run fires steps until Halt reads 1, then reports accept or reject from
Output.  Two budgets police the run: a step polynomial, and an
active-element polynomial applied to the cumulative count of elements
involved in updates so far, where "involved" closes off under membership
(the transitive closure of every updated value and every argument).
Exhausting either budget yields the bound-exceeded verdict.
"""

from __future__ import annotations

from contextlib import contextmanager
from itertools import chain

from ..errors import ValidationError
from ..hfset import (  # the generated steps read most of these from here
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
from ..record import Record
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


class State:
    """Input structure plus function tables (default ordinal 0): the
    dynamic ones, and while a run fires steps the input's as well.  Not a
    snapshot: ``fire`` writes a state's tables in place."""

    def __init__(self, structure: InputStructure, tables=None, indexes=None):
        self.structure = structure
        self.tables = {} if tables is None else tables
        # symbol -> {(argument position, by value): [index] over its table},
        # each emptied by ``fire`` when it writes the symbol
        self.indexes = {} if indexes is None else indexes

    def read(self, symbol: str, args: tuple) -> HfValue:
        table = self.tables.get(symbol)
        if table is None:
            return EMPTY
        return table.get(args, EMPTY)


_NO_TABLE: dict = {}  # the table of a dynamic symbol not yet written; never written

# how deep one generated function may nest before a rule or term goes into
# a function of its own: CPython allows 20 nested loops in a function and
# 100 indentation levels in a file, and a generated step starts at level 2
_MAX_LOOPS = 12
_MAX_INDENT = 32
# the parentheses an expression may hold before a local takes its value
# (the tokenizer allows 200 nested ones)
_MAX_PARENS = 24

# builtins with arguments that are not truth values: name -> hfset function
_BUILTINS = {"Union": "union_all", "TheUnique": "the_unique", "Card": "card", "Pair": "pair"}


class _Generator:
    """Writes the source of the factory of one closed rule: see
    :func:`_generate`.  Terms become Python expressions, written after
    the lines that compute their parts; a guard becomes an expression
    that is true exactly when the term reads 1, with no truth value
    boxed; a rule becomes lines.  Names are made here: ``t`` a table,
    ``w`` a write map, ``c`` an index cell, ``k`` a literal, ``b<depth>``
    a binder, ``h`` a split-off function, and the rest locals."""

    def __init__(self):
        self.made = 0  # names made so far
        self.prelude: list = []  # the factory's lines: write maps, index cells, literals
        self.tables: dict = {}  # symbol read -> the step's local holding its table
        self.maps: dict = {}  # symbol written -> its write map's local
        self.cells: dict = {}  # (symbol, position, by value) -> the index cell's local
        self.literals: dict = {}  # n -> the local holding ordinal(n)
        self.helpers: list = []  # (name, parameters, lines) of each split-off function
        # the function being written: its lines as (indentation, text), and
        # the indentation and loop nesting of the next line
        self.lines: list = []
        self.indent = 0
        self.loops = 0

    # -- writing lines ----------------------------------------------------

    def fresh(self, prefix: str) -> str:
        self.made += 1
        return f"{prefix}{self.made}"

    def emit(self, text: str) -> None:
        self.lines.append((self.indent, text))

    @contextmanager
    def block(self, header: str, loop: bool = False):
        """The lines written inside are the body of ``header``."""
        self.emit(header)
        start = len(self.lines)
        self.indent += 1
        self.loops += loop
        yield
        if len(self.lines) == start:
            self.emit("pass")
        self.indent -= 1
        self.loops -= loop

    @contextmanager
    def guarded(self, guard, scope: dict, depth: int):
        """The lines written inside run when ``guard`` holds."""
        test = self.test(guard, scope, depth)
        if test == "True":
            yield
        else:
            with self.block(f"if {test}:"):
                yield

    def local(self, expr: str) -> str:
        """A name holding the value of the term ``expr``."""
        if expr.isidentifier():
            return expr
        name = self.fresh("v")
        self.emit(f"{name} = {expr}")
        return name

    def split(self, write, node, scope: dict, depth: int):
        """``write(node, scope, depth)`` as the body of a new function of
        the binders in scope, defined at the top of the step; returns the
        call of a term or test, and writes the call of a rule."""
        name = self.fresh("h")
        params = ", ".join(sorted(set(scope.values()), key=lambda b: int(b[1:])))
        outer = self.lines, self.indent, self.loops
        self.lines, self.indent, self.loops = [], 0, 0
        result = write(node, scope, depth)
        if result is not None:
            self.emit(f"return {result}")
        self.helpers.append((name, params, self.lines))
        self.lines, self.indent, self.loops = outer
        call = f"{name}({params})"
        if result is None:
            self.emit(call)
        return call

    def deep(self) -> bool:
        return self.indent >= _MAX_INDENT or self.loops >= _MAX_LOOPS

    def settled(self, expr: str) -> str:
        return expr if expr.count("(") <= _MAX_PARENS else self.local(expr)

    # -- names made once per run ----------------------------------------------

    def table(self, symbol: str) -> str:
        if symbol not in self.tables:
            self.tables[symbol] = self.fresh("t")
        return self.tables[symbol]

    def write_map(self, symbol: str) -> str:
        if symbol not in self.maps:
            name = self.maps[symbol] = self.fresh("w")
            self.prelude.append(f"{name} = maps.setdefault({symbol!r}, {{}})")
        return self.maps[symbol]

    def cell(self, symbol: str, p: int, by_value: bool) -> str:
        key = (symbol, p, by_value)
        if key not in self.cells:
            name = self.cells[key] = self.fresh("c")
            self.prelude.append(
                f"{name} = indexes.setdefault({symbol!r}, {{}}).setdefault(({p}, {by_value}), [])"
            )
        return self.cells[key]

    def literal(self, n: int) -> str:
        if n < 2:
            return ("EMPTY", "TRUE")[n]
        if n not in self.literals:
            name = self.literals[n] = self.fresh("k")
            self.prelude.append(f"{name} = ordinal({int(n)})")
        return self.literals[n]

    # -- terms and tests --------------------------------------------------------

    def term(self, node, scope: dict, depth: int) -> str:
        """The expression of a term's value, its parts' lines written."""
        if self.deep() and not isinstance(node, (Var, Lit)):
            return self.split(self.term, node, scope, depth)
        return self.settled(self.value(node, scope, depth))

    def test(self, node, scope: dict, depth: int) -> str:
        """The expression telling whether a term reads 1: what guards
        become, with no truth value boxed."""
        if self.deep():
            return self.split(self.test, node, scope, depth)
        return self.settled(self.condition(node, scope, depth))

    def value(self, node, scope: dict, depth: int) -> str:
        if isinstance(node, Var):
            return scope[node.name]
        if isinstance(node, Lit):
            return self.literal(node.value)
        if isinstance(node, Compr):
            return self.comprehension(node, scope, depth)
        if not isinstance(node, App):
            raise TypeError(f"not a term: {node!r}")
        symbol = node.symbol
        if symbol == "true":
            return "TRUE"
        if symbol in ("false", "empty"):
            return "EMPTY"
        if symbol == "Atoms":
            return "atoms"
        if symbol in BOOLEAN_BUILTINS:
            return f"(TRUE if {self.test(node, scope, depth)} else EMPTY)"
        if symbol == "Card":
            (arg,) = node.args
            if isinstance(arg, Compr) and arg.element == Var(arg.var):
                return self.count(arg, scope, depth)
        args = [self.term(a, scope, depth) for a in node.args]
        if symbol in _BUILTINS:
            return f"{_BUILTINS[symbol]}({', '.join(args)})"
        return f"{self.table(symbol)}.get({_tuple(args)}, EMPTY)"

    def condition(self, node, scope: dict, depth: int) -> str:
        symbol = node.symbol if isinstance(node, App) else None
        if symbol == "true":
            return "True"
        if symbol == "false":
            return "False"
        if symbol == "and":
            left, right = node.args
            x = self.test(left, scope, depth)
            # the right operand's lines run only when the left one holds
            outer, self.lines = self.lines, []
            self.indent += 1
            y = self.test(right, scope, depth)
            lines, self.lines = self.lines, outer
            self.indent -= 1
            if not lines:
                return f"({x} and {y})"
            held = self.fresh("g")
            self.emit(f"{held} = {x}")
            self.emit(f"if {held}:")
            self.lines += lines
            self.lines.append((self.indent + 1, f"{held} = {y}"))
            return held
        if symbol == "or":
            # "or" reads 1 when one operand reads 1 and neither reads
            # anything but 0 or 1, so its operands are not Boolean
            # positions: "true or 5" reads 0
            u, v = (self.local(self.term(a, scope, depth)) for a in node.args)
            return f"(({v} is TRUE or {v} is EMPTY) if {u} is TRUE else ({u} is EMPTY and {v} is TRUE))"
        if symbol == "not":
            return f"({self.term(node.args[0], scope, depth)} is EMPTY)"
        if symbol == "eq":
            x, y = (self.term(a, scope, depth) for a in node.args)
            return f"({x} is {y})"
        if symbol == "in":
            left, right = node.args
            if isinstance(right, Compr):
                return self.search(left, right, scope, depth)
            if isinstance(left, Lit):
                # ordinal n holds the literals below n, and an atom's members are ()
                v = self.fresh("v")
                read = self.term(right, scope, depth)
                k = self.literal(left.value)
                return f"({v}.n > {int(left.value)} if type({v} := {read}) is Ordinal else {k} in {v}.members)"
            u = self.local(self.term(left, scope, depth))
            v = self.local(self.term(right, scope, depth))
            return (
                f"({u} in {v}.members if type({v}) is HfSet"
                f" else (type({v}) is Ordinal and type({u}) is Ordinal and {u}.n < {v}.n))"
            )
        return f"({self.term(node, scope, depth)} is TRUE)"

    # -- comprehensions ---------------------------------------------------------

    def members(self, node, scope: dict, depth: int) -> str:
        """The expression listing the members of the term ``node``."""
        if node == App("Atoms"):
            return "atom_members"
        return f"{self.term(node, scope, depth)}.members"

    def ranged(self, node: Compr, scope: dict, depth: int) -> tuple:
        """What a comprehension's binder visits, the guard those members
        must still pass, the binder's local and the scope inside."""
        found = self.lookup(node.var, node.source, node.guard, scope, depth)
        members, guard = found or (self.members(node.source, scope, depth), node.guard)
        binder = f"b{depth}"
        return members, guard, binder, {**scope, node.var: binder}

    def comprehension(self, node: Compr, scope: dict, depth: int) -> str:
        members, guard, binder, inner = self.ranged(node, scope, depth)
        collected = self.fresh("s")
        self.emit(f"{collected} = []")
        with self.block(f"for {binder} in {members}:", loop=True):
            with self.guarded(guard, inner, depth + 1):
                self.emit(f"{collected}.append({self.term(node.element, inner, depth + 1)})")
        return f"make_set({collected})"

    def count(self, node: Compr, scope: dict, depth: int) -> str:
        """``Card({ v : v in S : g })`` with no set built: the members of S
        are distinct, so the count is how many of them pass."""
        members, guard, binder, inner = self.ranged(node, scope, depth)
        if guard == App("true"):
            return f"ordinal(len({members}))"
        n = self.fresh("n")
        self.emit(f"{n} = 0")
        with self.block(f"for {binder} in {members}:", loop=True):
            with self.guarded(guard, inner, depth + 1):
                self.emit(f"{n} += 1")
        return f"ordinal({n})"

    def search(self, left, node: Compr, scope: dict, depth: int) -> str:
        """``x in { e : v in S : g }`` with no set built: whether some v in
        S passes g with e(v) = x, stopping at the first found."""
        wanted = self.local(self.term(left, scope, depth))
        members, guard, binder, inner = self.ranged(node, scope, depth)
        found = self.fresh("f")
        self.emit(f"{found} = False")
        with self.block(f"for {binder} in {members}:", loop=True):
            with self.guarded(guard, inner, depth + 1):
                with self.block(f"if {self.term(node.element, inner, depth + 1)} is {wanted}:"):
                    self.emit(f"{found} = True")
                    self.emit("break")
        return found

    def lookup(self, var: str, source, guard, scope: dict, depth: int):
        """For a range of ``var`` over Atoms, the expression listing only
        the atoms at which the first conjunct of ``guard`` can hold, and
        the guard those atoms must still pass; or None.

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
        wanted = "TRUE"  # the value read, or None for any value but 0
        if isinstance(first, App) and first.symbol == "eq":
            first, k = first.args
            if isinstance(first, Lit):
                first, k = k, first
            if not isinstance(k, Lit) or k.value == 0:
                return None
            wanted = self.literal(k.value)
        elif isinstance(first, App) and first.symbol == "in" and isinstance(first.args[0], Lit):
            first = first.args[1]
            wanted = "None"
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
        by_value = wanted != "None"
        cell = self.cell(first.symbol, p, by_value)
        table = self.table(first.symbol)
        key = _tuple([self.term(a, scope, depth) for a in rest])
        index = f"({cell} or _index({cell}, {table}, {p}, {by_value}, atom_members))[0]"
        return f"{index}.get(({key}, {wanted}), ())", _without_first_conjunct(guard) if by_value else guard

    # -- rules ----------------------------------------------------------------

    def rule(self, node, scope: dict, depth: int) -> None:
        if self.deep():
            self.split(self.rule, node, scope, depth)
        elif isinstance(node, Update):
            # a second value at the location is the clash (values are
            # interned, so equal values are the same object)
            written = self.write_map(node.symbol)
            key = _tuple([self.term(a, scope, depth) for a in node.args])
            value = self.local(self.term(node.value, scope, depth))
            self.emit(f"if {written}.setdefault({key}, {value}) is not {value}: raise _Clash")
        elif isinstance(node, Cond):
            if node.guard == App("true"):
                self.rule(node.then_rule, scope, depth)
                return
            test = self.test(node.guard, scope, depth)
            with self.block(f"if {test}:"):
                self.rule(node.then_rule, scope, depth)
            if node.else_rule != Skip():
                with self.block("else:"):
                    self.rule(node.else_rule, scope, depth)
        elif isinstance(node, Forall):
            body = node.body
            found = None
            if isinstance(body, Cond) and body.else_rule == Skip():
                found = self.lookup(node.var, node.source, body.guard, scope, depth)
            if found is not None:  # visit the atoms an index lists
                members, guard = found
                body = Cond(guard, body.then_rule, body.else_rule)
            else:
                members = self.members(node.source, scope, depth)
            binder = f"b{depth}"
            with self.block(f"for {binder} in {members}:", loop=True):
                self.rule(body, {**scope, node.var: binder}, depth + 1)
        elif isinstance(node, Par):
            for r in node.rules:
                self.rule(r, scope, depth)
        elif not isinstance(node, Skip):
            raise TypeError(f"not a rule: {node!r}")


def _tuple(items: list) -> str:
    return f"({items[0]},)" if len(items) == 1 else f"({', '.join(items)})"


def _without_first_conjunct(guard):
    """A guard with its leftmost conjunct dropped, ``true`` if it had one."""
    if not (isinstance(guard, App) and guard.symbol == "and"):
        return App("true")
    left, right = guard.args
    rest = _without_first_conjunct(left)
    return right if rest == App("true") else App("and", (rest, right))


def _generate(rule) -> str:
    """The source of ``factory(atoms, indexes, maps)`` for a closed rule.

    The factory takes a run's atoms, its ``State.indexes`` (for an index
    cell per symbol read through an index) and its write maps (one per
    symbol the rule updates), and returns ``step(tables)``, which writes
    the rule's updates into the write maps and raises ``_Clash`` at a
    second value for a location."""
    gen = _Generator()
    gen.rule(rule, {}, 0)
    lines = ["def factory(atoms, indexes, maps):", "    atom_members = atoms.members"]
    lines += [f"    {line}" for line in gen.prelude]
    lines.append("    def step(tables):")
    lines += [f"        {name} = tables[{symbol!r}]" for symbol, name in gen.tables.items()]
    for name, params, body in gen.helpers:
        lines.append(f"        def {name}({params}):")
        lines += [" " * (12 + 4 * indent) + text for indent, text in body or [(0, "pass")]]
    lines += [" " * (8 + 4 * indent) + text for indent, text in gen.lines or [(0, "pass")]]
    lines.append("    return step")
    return "\n".join(lines) + "\n"


def _compile(rule):
    """The factory of a closed rule (see :func:`_generate`), compiled.
    Its names other than its own resolve in this module when it runs."""
    namespace: dict = {}
    exec(compile(_generate(rule), "<set-machine step>", "exec"), globals(), namespace)
    return namespace["factory"]


def _index(cell: list, table: dict, p: int, by_value: bool, atoms) -> list:
    """``cell`` holding the index of ``table`` for a binder at argument
    ``p``: its atoms at ``p`` by the other arguments and the value (or
    None when not ``by_value``).  ``fire`` empties the cell when it writes
    the table, which an input table never is."""
    index: dict = {}
    for args, value in table.items():
        if args[p] in atoms:  # the binder ranges over atoms only
            key = (args[:p] + args[p + 1:], value if by_value else None)
            index.setdefault(key, []).append(args[p])
    cell.append(index)
    return cell


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


def collect_updates(step, tables: dict, updates: Updates) -> Updates:
    """One step's updates: ``updates`` emptied, then written by the
    generated ``step`` run on the pre-step tables, each update into
    its symbol's write map.  A clash ends the collection and marks the
    step clashed.  A function of its own, so a step can be timed apart
    from ``fire``."""
    for written in updates.maps.values():
        if written:
            written.clear()
    updates.clash = False
    try:
        step(tables)
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


class RunOutcome(Record):
    """Verdict plus the resources the run consumed; the final state is
    neither compared nor shown."""

    _fields = ("verdict", "steps", "peak_active", "output")

    def __init__(self, verdict: str, steps: int, peak_active: int, output: int, final_state=None):
        self.verdict = verdict  # "accept" | "reject" | "bound-exceeded"
        self.steps = steps
        self.peak_active = peak_active
        self.output = output
        self.final_state = final_state


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

    state = State(structure, tables)
    updates = Updates({})  # the run's write maps
    factory = program.factory
    if factory is None:  # the program's first run
        factory = program.factory = _compile(program.rule)
    step = factory(make_set(structure.by_name.values()), state.indexes, updates.maps)
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
        updates = collect_updates(step, tables, updates)
        new_state = fire(state, updates)
        steps += 1
        if new_state is not state:
            ordinals = _accumulate_active(updates, active, ordinals)
            state = new_state
            if len(active) + ordinals > max_active:
                verdict = "bound-exceeded"
                break
    output = 1 if state.read("Output", ()) is TRUE else 0
    written = {s: tables[s] for s in program.dynamic_arity if tables[s] is not _NO_TABLE}
    return RunOutcome(verdict, steps, len(active) + ordinals, output, State(structure, written))
