"""Structures hold names; only the set machine makes atoms.

The reader is checked against the atom-making reader it replaced, kept as
``oracles.parse_structure_atoms``: over random ``.str`` texts, with and
without one injected fault, both accept and reject the same texts with the
same error, and read the same tuples.  The deciders must make no atom at
all, and a set-machine run makes one atom per listed name, the very atoms
``InputStructure.by_name`` hands out.
"""

from __future__ import annotations

import itertools
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiceless_lab import hfset
from choiceless_lab.bgs import InputStructure, parse_structure, run, write_structure
from choiceless_lab.cli import EXIT_OK, EXIT_PARSE, dispatch
from choiceless_lab.errors import ParseError, ValidationError
from choiceless_lab.hfset import TRUE

from helpers import power_structure
from oracles import load_builtin_program, parse_structure_atoms

NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.+-]{0,3}", fullmatch=True)
SYMBOLS = st.from_regex(r"[A-Z][a-z0-9_]{0,2}", fullmatch=True)
# inside parentheses, mostly the written layout with no whitespace
INNER_SPACE = st.sampled_from(["", "", "", " ", "\t", "  "])
# between tuples, mostly the written single space
OUTER_SPACE = st.sampled_from([" ", " ", " ", "  ", "\t"])
FAULTS = (
    None,
    "bad name",
    "unknown name",
    "arity mismatch",
    "duplicate symbol",
    "duplicate atoms line",
    "stray text",
    "repeated function cell",
    "non-total function",
)


def _cell(draw, names) -> str:
    """One parenthesized tuple with random whitespace around its names."""
    if not names:
        return "(" + draw(INNER_SPACE) + ")"
    parts = [draw(INNER_SPACE) + n + draw(INNER_SPACE) for n in names]
    return "(" + ",".join(parts) + ")"


def _line(draw, kind, symbol, arity, cells) -> str:
    body = "".join(draw(OUTER_SPACE) + c for c in cells)
    return f"{kind} {symbol}/{arity}:{body}"


@st.composite
def structure_texts(draw):
    """A rendered structure and the fault injected into it, if any."""
    atoms = draw(st.lists(NAMES, unique=True, max_size=4))
    symbols = draw(st.lists(SYMBOLS, unique=True, max_size=4))
    fault = draw(st.sampled_from(FAULTS))
    some_atom = draw(st.sampled_from(atoms)) if atoms else None
    lines = []  # symbol lines, rendered
    for symbol in symbols:
        if draw(st.booleans()) or not atoms:
            arity = draw(st.integers(0, 3))
            universe = list(itertools.product(atoms, repeat=arity))
            tuples = []
            if universe:
                tuples = draw(st.lists(st.sampled_from(universe), unique=True, max_size=6))
            lines.append(_line(draw, "rel", symbol, arity, [_cell(draw, t) for t in tuples]))
        else:
            arity = draw(st.integers(0, 2))
            args = draw(st.permutations(list(itertools.product(atoms, repeat=arity))))
            arrow = lambda: draw(INNER_SPACE) + "->" + draw(INNER_SPACE)  # noqa: E731
            cells = [_cell(draw, a) + arrow() + draw(st.sampled_from(atoms)) for a in args]
            lines.append(_line(draw, "fun", symbol, arity, cells))
    unused = next(f"F{i}" for i in itertools.count() if f"F{i}" not in symbols)
    known = some_atom or "v"  # a name for faults that need one
    if fault == "bad name":
        bad = draw(st.sampled_from(["9z", "a$", ".b", "+", "x/y"]))
        atoms.insert(draw(st.integers(0, len(atoms))), bad)
    elif fault == "unknown name":
        stranger = next(f"q{i}" for i in itertools.count() if f"q{i}" not in atoms)
        lines.append(_line(draw, "rel", unused, 1, [_cell(draw, (stranger,))]))
    elif fault == "arity mismatch":
        wrong = (known, known) if atoms else ()
        lines.append(_line(draw, "rel", unused, 1, [_cell(draw, wrong)]))
    elif fault == "duplicate symbol":
        again = draw(st.sampled_from(symbols)) if symbols else unused
        if not symbols:
            lines.append(f"rel {again}/0:")
        lines.append(f"rel {again}/0:")
    elif fault == "stray text":
        if lines and draw(st.booleans()):
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] += draw(OUTER_SPACE) + draw(st.sampled_from(["junk", "a b", "(x", "->"]))
        else:
            lines.append(f"rel {unused}/1: zz")
    elif fault == "repeated function cell":
        twice = f"(){draw(INNER_SPACE)}->{known}"
        lines.append(f"fun {unused}/0: ()->{known}{draw(OUTER_SPACE)}{twice}")
    elif fault == "non-total function":
        # one argument tuple short: a missing atom, or the one empty tuple
        cells = [f"({a})->{known}" for a in atoms[1:]]
        lines.append(_line(draw, "fun", unused, 1 if atoms else 0, cells))
    atoms_line = "atoms:" + "".join(draw(OUTER_SPACE) + a for a in atoms)
    lines.insert(draw(st.integers(0, len(lines))), atoms_line)
    if fault == "duplicate atoms line":
        lines.insert(draw(st.integers(0, len(lines))), "atoms: " + known)
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "// a comment")
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return "\n".join(lines) + "\n", fault


def _outcome(reader, text):
    try:
        return reader(text), None
    except ParseError as exc:
        return None, (str(exc), exc.line)


@settings(max_examples=400, deadline=None)
@given(structure_texts())
def test_reader_matches_atom_reader(case):
    text, fault = case
    new, new_error = _outcome(parse_structure, text)
    old, old_error = _outcome(parse_structure_atoms, text)
    assert new_error == old_error, text
    assert (new_error is None) == (fault is None), text
    if new is None:
        return
    names = lambda tup: tuple(a.name for a in tup)  # noqa: E731
    assert new.atoms == names(old.atoms)
    assert new.relations == {k: frozenset(map(names, v)) for k, v in old.relations.items()}
    assert new.functions == {
        k: {names(args): out.name for args, out in table.items()}
        for k, table in old.functions.items()
    }
    assert new.arities == old.arities
    assert parse_structure(write_structure(new)).relations == new.relations


# ------------------------------------------------------------- writing back

# names the reader reads, and text it splits, drops or misreads
ANY_NAMES = st.one_of(NAMES, st.text(st.sampled_from("ab9_.,:()/ \t\n->$"), max_size=4))
ANY_SYMBOLS = st.one_of(SYMBOLS, NAMES, st.text(st.sampled_from("Eb9_.,/ \n"), max_size=3))


@st.composite
def built_structures(draw):
    """The arguments of ``InputStructure.build``: any names, relations of
    arity 0 to 2 and total functions of arity 0 or 1."""
    atoms = draw(st.lists(ANY_NAMES, unique=True, max_size=4))
    relations, functions, arities = {}, {}, {}
    for symbol in draw(st.lists(ANY_SYMBOLS, max_size=4)):
        if draw(st.booleans()) or not atoms:
            arity = draw(st.integers(0, 2))
            universe = list(itertools.product(atoms, repeat=arity))
            relations[symbol] = draw(st.lists(st.sampled_from(universe))) if universe else []
        else:
            arity = draw(st.integers(0, 1))
            functions[symbol] = {
                args: draw(st.sampled_from(atoms))
                for args in itertools.product(atoms, repeat=arity)
            }
        arities[symbol] = arity
    return atoms, relations, functions, arities


@settings(max_examples=400, deadline=None)
@given(built_structures())
def test_written_structures_read_back(args):
    """``write_structure`` refuses what it cannot write faithfully, and
    everything else reads back as the same structure."""
    try:
        structure = InputStructure.build(*args)
    except ValidationError:
        return
    try:
        text = write_structure(structure)
    except ValidationError:
        return
    again = parse_structure(text)
    assert again.atoms == structure.atoms, text
    assert again.relations == structure.relations, text
    assert again.functions == structure.functions, text
    assert again.arities == structure.arities, text


def test_writer_refuses_names_its_reader_misreads():
    spaced = InputStructure.build(["a b", "c"], relations={"E": [("a b", "c")]})
    with pytest.raises(ValidationError, match="atom name 'a b'"):
        write_structure(spaced)
    with pytest.raises(ValidationError, match="atom name 'a\\\\n'"):
        write_structure(InputStructure.build(["a\n", "b"]))  # the line would end after "a"
    with pytest.raises(ValidationError, match="symbol name 'E.1'"):
        write_structure(InputStructure.build(["a"], relations={"E.1": [("a",)]}))
    with pytest.raises(ValidationError, match="both a relation and a function"):
        InputStructure.build(["a"], relations={"E": [("a",)]}, functions={"E": {("a",): "a"}})


# ------------------------------------------------------------ atom identity


def test_run_atoms_are_by_name_atoms():
    """The X table of a power run reads back through the parsed
    structure's ``by_name``, as the benchmark reads it."""
    rows = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    structure = parse_structure(write_structure(power_structure(rows, 2)))
    state = run(load_builtin_program("power"), structure).final_state
    by_name = structure.by_name
    idx = ["m0", "m1", "m2"]
    table = [
        [1 if state.read("X", (by_name[i], by_name[j])) is TRUE else 0 for j in idx] for i in idx
    ]
    square = [
        [sum(rows[i][k] * rows[k][j] for k in range(3)) % 2 for j in range(3)] for i in range(3)
    ]
    assert table == square
    atoms = set(map(id, by_name.values()))
    assert {id(a) for args in state.tables["X"] for a in args} <= atoms


def test_two_parses_share_no_atom():
    text = "atoms: a b c\nrel E/2: (a,b) (b,c)\n"
    first, second = parse_structure(text), parse_structure(text)
    assert first.by_name is first.by_name
    assert set(map(id, first.by_name.values())).isdisjoint(map(id, second.by_name.values()))


@pytest.fixture()
def atoms_made(monkeypatch):
    """A list that grows by one name per ``Atom`` constructed."""
    made = []
    init = hfset.Atom.__init__

    def counting_init(self, name):
        made.append(name)
        init(self, name)

    monkeypatch.setattr(hfset.Atom, "__init__", counting_init)
    return made


def _dispatch(argv, capsys):
    code, report = dispatch(argv)
    capsys.readouterr()
    assert code == EXIT_OK, report
    return report["result"]


def test_deciders_make_no_atoms(tmp_path, capsys, atoms_made):
    files = {kind: str(tmp_path / f"{kind}.str") for kind in ("cfi", "multipede", "bipartite")}
    for argv in (
        ["gen", "cfi", "--m", "3", "--twist", "odd", "--pad"],
        ["gen", "multipede", "--segments", "8", "--hyperedges", "12", "--seed", "2", "--shoe"],
        ["gen", "bipartite", "--na", "6", "--nb", "6", "--seed", "3"],
    ):
        _dispatch(argv + ["--file", files[argv[1]]], capsys)
    assert atoms_made == []
    commands = [
        ["solve", "cfi-classify", "--input", files["cfi"]],
        ["iso", "cfi", "--a", files["cfi"], "--b", files["cfi"]],
        ["iso", "multipede3", "--a", files["multipede"], "--b", files["multipede"]],
        ["validate", "multipede", "--input", files["multipede"]],
        ["validate", "structure", "--input", files["cfi"]],
        ["solve", "matching", "--input", files["bipartite"]],
    ]
    for argv in commands:
        _dispatch(argv, capsys)
        assert atoms_made == [], argv


def test_bgs_run_makes_one_atom_per_name(tmp_path, capsys, atoms_made):
    text = write_structure(power_structure([[1, 1], [0, 1]], 5))
    path = tmp_path / "power.str"
    path.write_text(text)
    program = resources.files("choiceless_lab").joinpath("programs", "power.bgs")
    argv = ["bgs", "run", "--program", str(program), "--input", str(path)]
    assert _dispatch(argv, capsys)["verdict"] == "accept"
    assert sorted(atoms_made) == sorted(parse_structure(text).atoms)


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "solve cfi-classify",
            "atoms: a b\nrel Adj/2: (a,b) (b,a)\nrel Pre/3: (a,a,a)\n",
            "Pre must have arity 2",
        ),
        (
            "solve matching",
            "atoms: a b\nrel InA/1: (a)\nrel InB/1: (b)\nrel R/1: (a)\n",
            "R must have arity 2",
        ),
        (
            "validate multipede",
            "atoms: s f g\nrel Segment/1: (s)\nrel Foot/1: (f) (g)\nrel S/3: (f,s,s) (g,s,s)\n"
            "rel Hyper/3:\nrel Positive/3:\nrel Leq/2: (s,s)\nrel Shoe/1: (f)\n",
            "S must have arity 2",
        ),
    ],
)
def test_decoders_reject_wrong_arities(tmp_path, capsys, command, text, message):
    """A relation of the wrong arity is a parse error (exit 3) naming it."""
    path = tmp_path / "in.str"
    path.write_text(text)
    code, report = dispatch(command.split() + ["--input", str(path)])
    capsys.readouterr()
    assert code == EXIT_PARSE
    assert message in report["error"]["message"]
