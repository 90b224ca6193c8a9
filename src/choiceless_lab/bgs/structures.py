"""Finite input structures and their on-disk ``.str`` form.

A structure is a finite universe of atoms with named relations (sets of
atom tuples) and named functions (total maps from atom tuples to atoms).

File format, whitespace separated, ``//`` comments allowed::

    atoms: a b c
    rel Edge/2: (a,b) (b,c)
    fun F/1: (a)->b (b)->c (c)->a

Symbol lines may list no tuples (empty relation).  The atom listing order
is internal bookkeeping only; programs cannot observe it.

:meth:`InputStructure.build` is the one check of a structure, whether it
comes from a file or from code: unique names, tuple arities, known atoms
and total functions.  :func:`parse_structure` checks only the text's
grammar and name syntax, with line numbers, and reports what ``build``
rejects as a :class:`ParseError`.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from ..errors import ParseError, ValidationError
from ..hfset import Atom

__all__ = ["InputStructure", "parse_structure", "write_structure"]


@dataclass(frozen=True, eq=False)
class InputStructure:
    """Universe plus relation and function interpretations.

    ``arities`` records the declared arity of every symbol, which matters
    for symbols whose interpretation happens to be empty.  Construct with
    :meth:`build`, which checks what the fields promise.
    """

    atoms: tuple
    relations: dict
    functions: dict
    arities: dict
    by_name: dict = field(repr=False)

    @staticmethod
    def build(atom_names, relations=None, functions=None, arities=None) -> "InputStructure":
        """Construct from plain names: relations as name -> iterable of name
        tuples, functions as name -> dict of name tuple -> name.

        This is the one check of a structure: names are unique, every tuple
        has its symbol's arity (taken from the first tuple when undeclared),
        every name is an atom, and every function is total.
        """
        atoms = tuple(map(Atom, atom_names))
        by_name = {a.name: a for a in atoms}
        if len(by_name) != len(atoms):
            raise ValidationError("atom names must be unique")
        declared = dict(arities or {})

        def lookup(kind, name, tuples):
            try:
                return [tuple(map(by_name.__getitem__, tup)) for tup in tuples]
            except KeyError as exc:
                raise ValidationError(
                    f"{kind} {name} mentions unknown atom {exc.args[0]!r}"
                ) from None

        def resolve(kind, name, tuples):
            resolved = lookup(kind, name, tuples)
            arity = declared.get(name)
            if arity is None:
                if not resolved:
                    raise ValidationError(f"empty {kind} {name} needs an explicit arity")
                arity = declared[name] = len(resolved[0])
            if any(len(tup) != arity for tup in resolved):
                raise ValidationError(f"{kind} {name} tuple arity mismatch")
            return resolved

        rels = {
            name: frozenset(resolve("relation", name, tuples))
            for name, tuples in (relations or {}).items()
        }
        funs = {}
        for name, table in (functions or {}).items():
            args = resolve("function", name, table)
            expected = len(atoms) ** declared[name]
            if len(args) != expected:
                raise ValidationError(
                    f"function {name} must be total on the universe"
                    f" ({len(args)} of {expected} tuples)"
                )
            (values,) = lookup("function", name, [table.values()])
            funs[name] = dict(zip(args, values))
        return InputStructure(atoms, rels, funs, declared, by_name)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.+-]*$")


def _names(chunk: str) -> tuple:
    """The comma-separated names inside one pair of parentheses."""
    return tuple(map(str.strip, chunk.split(","))) if chunk.strip() else ()


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
            atom_names = line[len("atoms:"):].split()
            bad = next(itertools.filterfalse(_NAME_RE.match, atom_names), None)
            if bad is not None:
                raise ParseError(f"bad name {bad!r}", line_no)
            continue
        m = re.match(r"(rel|fun)\s+([A-Za-z_][A-Za-z0-9_]*)/(\d+)\s*:(.*)$", line)
        if m is None:
            raise ParseError(f"unrecognized line {line!r}", line_no)
        kind, name, arity, rest = m.groups()
        if name in declared:
            raise ParseError(f"duplicate symbol {name!r}", line_no)
        declared[name] = int(arity)
        if kind == "rel":
            tuples = {_names(chunk) for chunk in re.findall(r"\(([^()]*)\)", rest)}
            leftover = re.sub(r"\([^()]*\)", "", rest).strip()
            if leftover:
                raise ParseError(f"stray text {leftover!r} in {name}", line_no)
            relations[name] = tuples
        else:
            cells = re.findall(r"\(([^()]*)\)\s*->\s*([A-Za-z0-9_.+-]+)", rest)
            table = {_names(chunk): out for chunk, out in cells}
            if len(table) != len(cells):
                raise ParseError(f"function {name} lists an argument tuple twice", line_no)
            leftover = re.sub(r"\([^()]*\)\s*->\s*[A-Za-z0-9_.+-]+", "", rest).strip()
            if leftover:
                raise ParseError(f"stray text {leftover!r} in {name}", line_no)
            functions[name] = table
    if atom_names is None:
        raise ParseError("missing atoms: line")
    try:
        return InputStructure.build(atom_names, relations, functions, declared)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def write_structure(structure: InputStructure) -> str:
    """Deterministic ``.str`` serialization (sorted symbols and tuples)."""
    lines = ["atoms: " + " ".join(a.name for a in structure.atoms)]
    for name in sorted(structure.relations):
        tuples = structure.relations[name]
        arity = structure.arities[name]
        cells = sorted("(" + ",".join(a.name for a in tup) + ")" for tup in tuples)
        lines.append(f"rel {name}/{arity}:" + ("" if not cells else " " + " ".join(cells)))
    for name in sorted(structure.functions):
        table = structure.functions[name]
        arity = structure.arities[name]
        cells = sorted(
            "(" + ",".join(a.name for a in args) + ")->" + out.name
            for args, out in table.items()
        )
        lines.append(f"fun {name}/{arity}:" + ("" if not cells else " " + " ".join(cells)))
    return "\n".join(lines) + "\n"
