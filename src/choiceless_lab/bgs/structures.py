"""Finite input structures and their on-disk ``.str`` form.

A structure is a finite universe of atoms with named relations (sets of
atom tuples) and named functions (total maps from atom tuples to atoms).

File format, whitespace separated, ``//`` comments allowed::

    atoms: a b c
    rel Edge/2: (a,b) (b,c)
    fun F/1: (a)->b (b)->c (c)->a

Symbol lines may list no tuples (empty relation).  The atom listing order
is internal bookkeeping only; programs cannot observe it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import ParseError, ValidationError
from ..hfset import Atom

__all__ = ["InputStructure", "parse_structure", "write_structure"]


@dataclass(frozen=True, eq=False)
class InputStructure:
    """Universe plus relation and function interpretations.

    ``arities`` records the declared arity of every symbol, which matters
    for symbols whose interpretation happens to be empty.
    """

    atoms: tuple
    relations: dict
    functions: dict
    arities: dict
    by_name: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        names = [a.name for a in self.atoms]
        if len(set(names)) != len(names):
            raise ValidationError("atom names must be unique")
        object.__setattr__(self, "by_name", {a.name: a for a in self.atoms})
        universe = set(self.atoms)
        for name, tuples in self.relations.items():
            arity = self.arities.get(name)
            if arity is None:
                raise ValidationError(f"relation {name} lacks a declared arity")
            for tup in tuples:
                if len(tup) != arity:
                    raise ValidationError(f"relation {name} tuple arity mismatch")
                if not set(tup) <= universe:
                    raise ValidationError(f"relation {name} mentions foreign atoms")
        for name, table in self.functions.items():
            arity = self.arities.get(name)
            if arity is None:
                raise ValidationError(f"function {name} lacks a declared arity")
            for args, out in table.items():
                if len(args) != arity:
                    raise ValidationError(f"function {name} tuple arity mismatch")
                if not set(args) <= universe or out not in universe:
                    raise ValidationError(f"function {name} mentions foreign atoms")
            expected = len(self.atoms) ** arity
            if len(table) != expected:
                raise ValidationError(
                    f"function {name} must be total on the universe"
                    f" ({len(table)} of {expected} tuples)"
                )

    @staticmethod
    def build(atom_names, relations=None, functions=None, arities=None) -> "InputStructure":
        """Construct from plain names: relations as name -> iterable of name
        tuples, functions as name -> dict of name tuple -> name."""
        atoms = tuple(Atom(n) for n in atom_names)
        by_name = {a.name: a for a in atoms}
        rels = {}
        declared = dict(arities or {})
        for name, tuples in (relations or {}).items():
            resolved = frozenset(
                tuple(by_name[str(x)] for x in tup) for tup in tuples
            )
            rels[name] = resolved
            if name not in declared:
                if not resolved:
                    raise ValidationError(
                        f"empty relation {name} needs an explicit arity"
                    )
                declared[name] = len(next(iter(resolved)))
        funs = {}
        for name, table in (functions or {}).items():
            resolved_f = {
                tuple(by_name[str(x)] for x in args): by_name[str(out)]
                for args, out in table.items()
            }
            funs[name] = resolved_f
            if name not in declared:
                if not resolved_f:
                    raise ValidationError(
                        f"empty function {name} needs an explicit arity"
                    )
                declared[name] = len(next(iter(resolved_f)))
        return InputStructure(atoms, rels, funs, declared)


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.+-]*$")


def _check_name(name: str, line_no: int) -> str:
    if not _NAME_RE.match(name):
        raise ParseError(f"bad name {name!r}", line_no)
    return name


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
            atom_names = [
                _check_name(n, line_no) for n in line[len("atoms:"):].split()
            ]
            continue
        m = re.match(r"(rel|fun)\s+([A-Za-z_][A-Za-z0-9_]*)/(\d+)\s*:(.*)$", line)
        if m is None:
            raise ParseError(f"unrecognized line {line!r}", line_no)
        kind, name, arity_s, rest = m.groups()
        arity = int(arity_s)
        if name in declared:
            raise ParseError(f"duplicate symbol {name!r}", line_no)
        declared[name] = arity
        if kind == "rel":
            tuples = set()
            for chunk in re.findall(r"\(([^()]*)\)", rest):
                parts = [p.strip() for p in chunk.split(",")] if chunk.strip() else []
                if len(parts) != arity:
                    raise ParseError(f"tuple arity mismatch in {name}", line_no)
                tuples.add(tuple(parts))
            leftover = re.sub(r"\([^()]*\)", "", rest).strip()
            if leftover:
                raise ParseError(f"stray text {leftover!r} in {name}", line_no)
            relations[name] = tuples
        else:
            table = {}
            for args_chunk, out in re.findall(
                r"\(([^()]*)\)\s*->\s*([A-Za-z0-9_.+-]+)", rest
            ):
                parts = [p.strip() for p in args_chunk.split(",")] if args_chunk.strip() else []
                if len(parts) != arity:
                    raise ParseError(f"tuple arity mismatch in {name}", line_no)
                table[tuple(parts)] = out
            leftover = re.sub(r"\([^()]*\)\s*->\s*[A-Za-z0-9_.+-]+", "", rest).strip()
            if leftover:
                raise ParseError(f"stray text {leftover!r} in {name}", line_no)
            functions[name] = table
    if atom_names is None:
        raise ParseError("missing atoms: line")
    try:
        return InputStructure.build(atom_names, relations, functions, declared)
    except KeyError as exc:
        raise ParseError(f"unknown atom {exc.args[0]!r}") from exc
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
