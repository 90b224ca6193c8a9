"""Finite input structures and their on-disk ``.str`` form.

A structure is names: a finite universe of atom names with named
relations (sets of name tuples) and named functions (total maps from name
tuples to names).  Atoms belong to the set machine.  A structure makes
them on first use, one :class:`~choiceless_lab.hfset.Atom` per name, and
keeps them in :attr:`InputStructure.by_name`, so every run on one
structure shares its atoms and ``by_name`` names a run's atoms.  The
deciders read names only and never make an atom.  A structure holds one
string per atom: every name in its relation tuples and function tables is
the very string in :attr:`InputStructure.atoms`.

File format, whitespace separated, ``//`` comments allowed::

    atoms: a b c
    rel Edge/2: (a,b) (b,c)
    fun F/1: (a)->b (b)->c (c)->a

Symbol lines may list no tuples (empty relation).  The atom listing order
is internal bookkeeping only; programs cannot observe it.

:meth:`InputStructure.build` is the one check of a structure, whether it
comes from a file or from code: unique names, one kind per symbol, tuple
arities, known atoms and total functions.  It flattens its callers' tuples
and hands them to the routine that checks flat name lists, and
:func:`parse_structure` hands its name lists to that routine directly.
The reader checks only the text's grammar and name syntax, with line
numbers, and reports what the check rejects as a :class:`ParseError`.  A
relation line in the written layout ``(a,b) (c,d)`` is read in one pass:
split once into names, its punctuation (its bytes with the ASCII name
characters deleted) compared as a whole, and its names swapped for the
atoms' strings by one ``itemgetter`` call.  An ``atoms:`` line of name
characters and blanks is checked as a whole: its least name shows
whether any name starts badly.  Other lines go through the general
reader, cell by cell or name by name.

The check pauses the cyclic collector while it builds the tables, with
:func:`collector_paused`, which the command line holds around each whole
command.

:func:`preorder_classes` reads a total pre-order listed pair by pair, a
gadget's ``Pre`` or a multipede's ``Leq``, from its degree counts.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import itertools
import re
from collections import Counter
from operator import itemgetter

from .errors import ParseError, ValidationError, read_decimal
from .hfset import Atom

__all__ = [
    "InputStructure",
    "collector_paused",
    "parse_structure",
    "preorder_classes",
    "write_structure",
]


class InputStructure:
    """Atom names in listing order, plus relation and function
    interpretations over those names.

    ``arities`` records the declared arity of every symbol, which matters
    for symbols whose interpretation happens to be empty.  Construct with
    :meth:`build`, which checks what the fields promise.
    """

    def __init__(self, atoms: tuple, relations: dict, functions: dict, arities: dict):
        self.atoms = atoms
        self.relations = relations
        self.functions = functions
        self.arities = arities

    @functools.cached_property
    def by_name(self) -> dict:
        """Name -> :class:`Atom`, made on first use and then kept: the
        atoms of every set-machine run on this structure."""
        return dict(zip(self.atoms, map(Atom, self.atoms)))

    def relations_with(self, arities: dict) -> list:
        """The tuples of each relation named in ``arities``, in that order,
        after checking that all are there with those arities."""
        for name in arities:
            if name not in self.relations:
                raise ValidationError(f"structure lacks relation {name}")
        for name, arity in arities.items():
            if self.arities[name] != arity:
                raise ValidationError(f"relation {name} must have arity {arity}")
        return [self.relations[name] for name in arities]

    @staticmethod
    def build(atom_names, relations=None, functions=None, arities=None) -> "InputStructure":
        """Construct from plain names: relations as name -> iterable of name
        tuples, functions as name -> dict of name tuple -> name.

        This is the one check of a structure: names are unique, no symbol
        is both a relation and a function, every tuple has its symbol's
        arity (taken from the first tuple when undeclared), every name is an
        atom (the least unknown one is named), and every function is total.
        The lookup that checks a name also swaps it for the atom's string.
        """
        declared = dict(arities or {})
        rels = {name: _flat(name, tuples, declared) for name, tuples in (relations or {}).items()}
        funs = {
            name: (*_flat(name, table, declared), table.values())
            for name, table in (functions or {}).items()
        }
        return _from_flat(tuple(map(str, atom_names)), rels, funs, declared)


def _flat(name, tuples, arities) -> tuple:
    """A symbol's tuples as its names one after another and the tuple
    count, None when some tuple's length is not the symbol's arity.  An
    undeclared arity is taken from the first tuple."""
    tuples = list(tuples)
    if tuples:
        arities.setdefault(name, len(tuples[0]))
    uniform = set(map(len, tuples)) <= {arities.get(name)}
    return list(itertools.chain.from_iterable(tuples)), len(tuples) if uniform else None


def _from_flat(atoms: tuple, relations: dict, functions: dict, arities: dict) -> InputStructure:
    """The check behind :meth:`InputStructure.build`, on flat name lists:
    each relation is (names, count) and each function (names, count,
    values), as :func:`_flat` gives them.  A symbol missing from
    ``arities`` is an empty one whose arity was never declared."""
    shared = dict(zip(atoms, atoms))  # each name -> the atoms tuple's own string
    if len(shared) != len(atoms):
        raise ValidationError("atom names must be unique")
    both = relations.keys() & functions.keys()
    if both:
        raise ValidationError(f"symbol {min(both)!r} is both a relation and a function")

    def share(kind, name, names) -> tuple:
        """Every name, swapped for the atom's string."""
        try:
            if len(names) > 1:
                return itemgetter(*names)(shared)
            return tuple(map(shared.__getitem__, names))  # one name: itemgetter returns it bare
        except KeyError:
            unknown = min(x for x in names if x not in shared)
            raise ValidationError(f"{kind} {name} mentions unknown atom {unknown!r}") from None

    def group(kind, name, names, count):
        """The shared names, grouped into the symbol's tuples."""
        names = share(kind, name, names)
        arity = arities.get(name)
        if arity is None:
            raise ValidationError(f"empty {kind} {name} needs an explicit arity")
        if count is None:
            raise ValidationError(f"{kind} {name} tuple arity mismatch")
        # no tuples, or tuples of no names: never a list as long as the arity
        return zip(*[iter(names)] * arity) if arity and count else [()] * count

    # the tables' tuples hold only strings, so no cycle can form among
    # them: the cyclic collector is paused while they are built
    with collector_paused():
        rels = {
            name: frozenset(group("relation", name, names, count))
            for name, (names, count) in relations.items()
        }
        funs = {}
        for name, (names, count, values) in functions.items():
            args = group("function", name, names, count)
            size, arity = len(atoms), arities[name]
            # size ** arity > count once 2 ** arity is: past arity 64 it is
            # neither computed nor printed
            huge = size > 1 and arity > max(64, count.bit_length())
            if huge or count != size**arity:
                expected = f"{size}^{arity}" if huge else size**arity
                raise ValidationError(
                    f"function {name} must be total on the universe ({count} of {expected} tuples)"
                )
            funs[name] = dict(zip(args, share("function", name, values)))
    return InputStructure(atoms, rels, funs, arities)


@contextlib.contextmanager
def collector_paused():
    """Pause the cyclic garbage collector for the block, and leave it as it
    was found however the block ends.  Only for code that makes no
    reference cycles: what it makes is freed by reference counts, and each
    object freed lowers the count of allocations that would start the next
    collection."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def preorder_classes(pairs):
    """The classes, earliest first, of the total pre-order whose pairs
    (x, y), x no later than y, are the set ``pairs``; None if there is none
    on the elements they mention.  Linear in the pairs: the elements are
    grouped by out-degree, and each class's out- and in-degree must be the
    staircase's, which no other 0/1 relation has (see :mod:`choiceless_lab.cfi`)."""
    out = Counter(map(itemgetter(0), pairs))
    into = Counter(map(itemgetter(1), pairs))
    if out.keys() != into.keys():
        return None
    by_out: dict = {}
    for x, degree in out.items():
        by_out.setdefault(degree, []).append(x)
    classes = []
    earlier = 0  # elements in the earlier classes
    for degree in sorted(by_out, reverse=True):
        cls = by_out[degree]
        if degree != len(out) - earlier:
            return None
        earlier += len(cls)
        if set(map(into.__getitem__, cls)) != {earlier}:
            return None
        classes.append(frozenset(cls))
    return classes


_NAME_BYTES = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.+-"
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.+-]*$")
_SYMBOL = r"[A-Za-z_][A-Za-z0-9_]*"
_SEPARATORS = str.maketrans("(),", "   ")


def _names(chunk: str) -> tuple:
    """The comma-separated names inside one pair of parentheses."""
    return tuple(map(str.strip, chunk.split(","))) if chunk.strip() else ()


def _atom_names(rest: str, line_no: int) -> list:
    """The names listed after ``atoms:``; the first one that is not a name
    is rejected.  A line of name characters and blanks on which no name
    starts with a digit, ``.``, ``+`` or ``-`` needs no check name by
    name.  Those bad first characters all sort before ``A``, and the good
    ones, letters and ``_``, at or after it, so the least name tells."""
    names = rest.split()
    if rest.encode().translate(None, _NAME_BYTES + b" \t") or min(names, default="A") < "A":
        bad = next(itertools.filterfalse(_NAME_RE.match, names), None)
        if bad is not None:
            raise ParseError(f"bad name {bad!r}", line_no)
    return names


def _relation_names(rest: str, name: str, arities: dict, line_no: int) -> tuple:
    """The names of the tuples listed after a relation's colon, one after
    another, and the tuple count (see :func:`_flat`)."""
    arity = arities[name]
    body = rest.strip()
    if arity and body:
        # The written layout "(a,b) (c,d)", checked without building tuples:
        # a name holds no "(", ")", "," or blank, so with the names deleted
        # the line is k cells "(,)" of the arity, single-spaced (a line
        # that is not ASCII keeps its other bytes, and is read below).  Name
        # characters may then stand only inside the cells, if the line
        # starts and ends with a cell and no ") (" has one between; and no
        # cell has an empty slot if there are k * arity names.
        punctuation = body.encode().translate(None, _NAME_BYTES)
        count = (len(punctuation) + 1) // (arity + 2)
        names = body.translate(_SEPARATORS).split()
        if (
            count
            and len(names) == count * arity
            and punctuation + b" " == (b"(" + b"," * (arity - 1) + b") ") * count
            and body[0] == "("
            and body[-1] == ")"
            and body.count(") (") == count - 1
        ):
            return names, count
    tuples = [_names(chunk) for chunk in re.findall(r"\(([^()]*)\)", rest)]
    leftover = re.sub(r"\([^()]*\)", "", rest).strip()
    if leftover:
        raise ParseError(f"stray text {leftover!r} in {name}", line_no)
    return _flat(name, tuples, arities)


def parse_structure(text: str) -> InputStructure:
    atom_names = None
    relations: dict = {}
    functions: dict = {}
    declared: dict = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if line.startswith("atoms:"):
            if atom_names is not None:
                raise ParseError("duplicate atoms line", line_no)
            atom_names = _atom_names(line[len("atoms:"):], line_no)
            continue
        m = re.match(rf"(rel|fun)\s+({_SYMBOL})/(\d+)\s*:(.*)$", line)
        if m is None:
            raise ParseError(f"unrecognized line {line!r}", line_no)
        kind, name, arity, rest = m.groups()
        if name in declared:
            raise ParseError(f"duplicate symbol {name!r}", line_no)
        declared[name] = read_decimal(arity, f"arity of {name}", line_no)
        if kind == "rel":
            relations[name] = _relation_names(rest, name, declared, line_no)
        else:
            cells = re.findall(r"\(([^()]*)\)\s*->\s*([A-Za-z0-9_.+-]+)", rest)
            table = {_names(chunk): out for chunk, out in cells}
            if len(table) != len(cells):
                raise ParseError(f"function {name} lists an argument tuple twice", line_no)
            leftover = re.sub(r"\([^()]*\)\s*->\s*[A-Za-z0-9_.+-]+", "", rest).strip()
            if leftover:
                raise ParseError(f"stray text {leftover!r} in {name}", line_no)
            functions[name] = (*_flat(name, table, declared), table.values())
    if atom_names is None:
        raise ParseError("missing atoms: line")
    try:
        return _from_flat(tuple(atom_names), relations, functions, declared)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def write_structure(structure: InputStructure) -> str:
    """Deterministic ``.str`` serialization (sorted symbols and tuples),
    once every name is one that :func:`parse_structure` reads back as that
    name."""
    bad = next(itertools.filterfalse(_NAME_RE.fullmatch, structure.atoms), None)
    if bad is not None:
        raise ValidationError(f"atom name {bad!r} cannot be written to a structure file")
    for name in itertools.chain(structure.relations, structure.functions):
        if not re.fullmatch(_SYMBOL, name):
            raise ValidationError(f"symbol name {name!r} cannot be written to a structure file")
    lines = ["atoms: " + " ".join(structure.atoms)]
    for name in sorted(structure.relations):
        tuples = structure.relations[name]
        arity = structure.arities[name]
        cells = sorted("(" + ",".join(tup) + ")" for tup in tuples)
        lines.append(f"rel {name}/{arity}:" + ("" if not cells else " " + " ".join(cells)))
    for name in sorted(structure.functions):
        table = structure.functions[name]
        arity = structure.arities[name]
        cells = sorted("(" + ",".join(args) + ")->" + out for args, out in table.items())
        lines.append(f"fun {name}/{arity}:" + ("" if not cells else " " + " ".join(cells)))
    return "\n".join(lines) + "\n"
