"""Structures hold names; only the set machine makes atoms.

The reader is checked against the atom-making reader it replaced, kept as
``oracles.parse_structure_atoms``: over random ``.str`` texts, with and
without one injected fault, both accept and reject the same texts with the
same error, and read the same tuples.  A read or built structure holds one
string per atom.  The deciders must make no atom at all, and a set-machine
run makes one atom per listed name, the very atoms ``InputStructure.by_name``
hands out.  The order recognizer, which reads a listed total pre-order from
its degree counts, is checked against the set-based readers it replaced.
"""

from __future__ import annotations

import itertools
import tracemalloc
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choiceless_lab import cfi, hfset, multipede
from choiceless_lab.bgs import run
from choiceless_lab.cli import EXIT_OK, EXIT_PARSE, dispatch
from choiceless_lab.errors import ParseError, ValidationError
from choiceless_lab.hfset import TRUE
from choiceless_lab.structures import (
    InputStructure,
    parse_structure,
    preorder_classes,
    write_structure,
)

from helpers import power_structure
from oracles import (
    leq_order_by_pair_set,
    load_builtin_program,
    parse_structure_atoms,
    preorder_classes_by_upward_sets,
)

NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.+-]{0,3}", fullmatch=True)
SYMBOLS = st.from_regex(r"[A-Z][a-z0-9_]{0,2}", fullmatch=True)
# inside parentheses, mostly the written layout with no whitespace
INNER_SPACE = st.sampled_from(["", "", "", " ", "\t", "  "])
# between tuples, mostly the written single space
OUTER_SPACE = st.sampled_from([" ", " ", " ", "  ", "\t"])
# each fault injected into a text, and whether the text must be rejected
FAULTS = {
    None: False,
    "bad name": True,
    "bad first character deep in a long atoms line": True,
    "unknown name": True,
    "arity mismatch": True,
    "misaligned cells": True,
    "empty slot": True,
    "name outside the cells": True,
    "duplicate symbol": True,
    "duplicate atoms line": True,
    "stray text": True,
    "repeated function cell": True,
    "non-total function": True,
    # str.split and str.strip take these for blanks; str.splitlines ends a
    # line at the file separator
    "no-break space": False,
    "em space": False,
    "file separator": True,
}
ODD_BLANKS = {"no-break space": "\xa0", "em space": "\u2003", "file separator": "\x1c"}


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
    fault = draw(st.sampled_from(list(FAULTS)))
    if fault in ODD_BLANKS and not atoms:
        atoms.append("v")  # a blank between two atoms
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
    elif fault == "bad first character deep in a long atoms line":
        filler = [f"w{i}" for i in range(400) if f"w{i}" not in atoms]
        bad = draw(st.sampled_from(["9z", "0", ".b", "+", "-a"]))
        atoms += filler[:200] + [bad] + filler[200:]
    elif fault == "unknown name":
        stranger = next(f"q{i}" for i in itertools.count() if f"q{i}" not in atoms)
        lines.append(_line(draw, "rel", unused, 1, [_cell(draw, (stranger,))]))
    elif fault == "arity mismatch":
        wrong = (known, known) if atoms else ()
        lines.append(_line(draw, "rel", unused, 1, [_cell(draw, wrong)]))
    elif fault == "misaligned cells":
        lines.append(f"rel {unused}/2: ({known},{known},{known}) ({known})")
    elif fault == "empty slot":
        cells = [f"(,{known})"]  # with no atoms, '' is the least unknown name
        if atoms:
            cells = [f"({known},{known})", draw(st.sampled_from([f"(,{known})", f"({known},)"]))]
        lines.append(f"rel {unused}/2: " + " ".join(cells))
    elif fault == "name outside the cells":
        # as many names as slots, one of them outside the cells
        k = known
        bodies = [f"{k}(,{k}) ({k},{k})", f"({k},{k}){k} (,{k})"]
        bodies += [f"({k},{k}) {k}(,{k})", f"(,{k}) ({k},{k}){k}"]
        lines.append(f"rel {unused}/2: " + draw(st.sampled_from(bodies)))
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
    blanks = [draw(OUTER_SPACE) for _ in atoms]
    if fault in ODD_BLANKS:
        blank = ODD_BLANKS[fault]
        blanks[draw(st.integers(0, len(atoms) - 1))] = blank
        lines.append(f"rel {unused}/1: ({known}){blank}({known})")
    atoms_line = "atoms:" + "".join(map(str.__add__, blanks, atoms))
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
    assert (new_error is not None) == FAULTS[fault], text
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


def test_empty_relation_of_huge_arity_costs_no_memory():
    """An empty relation's names are never grouped into tuples, so nothing
    as long as its arity is made."""
    tracemalloc.start()
    try:
        read = parse_structure("atoms: a\nrel R/10000000:\n")
        built = InputStructure.build(["a"], relations={"R": []}, arities={"R": 10**7})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read.relations == built.relations == {"R": frozenset()}
    assert peak < 1_000_000


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


# ------------------------------------------------------------ name sharing


def _copy(name: str) -> str:
    """An equal string that is a different object."""
    return (name + "!")[:-1]


def _with_function(structure: InputStructure) -> InputStructure:
    """The structure rebuilt from copies of every name, with a unary
    function added."""
    atoms = structure.atoms
    successor = {(_copy(a),): _copy(b) for a, b in zip(atoms, atoms[1:] + atoms[:1])}
    return InputStructure.build(
        list(map(_copy, atoms)),
        {name: [tuple(map(_copy, t)) for t in ts] for name, ts in structure.relations.items()},
        {"Next": successor},
        dict(structure.arities, Next=1),
    )


def _assert_names_are_atoms(structure: InputStructure):
    own = dict(zip(structure.atoms, structure.atoms))
    tuples = itertools.chain.from_iterable(structure.relations.values())
    names = list(itertools.chain.from_iterable(tuples))
    for table in structure.functions.values():
        names += itertools.chain.from_iterable(table)
        names += table.values()
    assert len(names) > len(own)
    assert all(own[x] is x for x in names)


@pytest.mark.parametrize(
    "structure",
    [
        cfi.pad(cfi.build_twisted(cfi.complete_graph(4), ["v0"])),
        multipede.to_structure(multipede.shoe_expansions(multipede.random_multipede(12, 20, 3))[1]),
    ],
    ids=["padded-gadget-m3", "multipede"],
)
def test_structures_hold_one_string_per_atom(structure):
    """Every name in a relation tuple, a function argument and a function
    value is the string in ``atoms``, after ``build`` and after reading."""
    built = _with_function(structure)
    _assert_names_are_atoms(built)
    read = parse_structure(write_structure(built))
    assert read.relations == built.relations and read.functions == built.functions
    _assert_names_are_atoms(read)


# ------------------------------------------------------------ listed orders

ORDER_CHANGES = (None, "drop", "add", "reverse", "move", "outside")


@st.composite
def listed_orders(draw, linear: bool):
    """The pairs of a total pre-order with 1-6 classes, or of a linear
    order, over shuffled names, perhaps with one change: a pair dropped,
    added or reversed, an element moved to another class with the pair
    count kept, or a pair added that names an element outside the field.
    Returns the pairs and the names of the order's field."""
    sizes = draw(st.lists(st.integers(1, 1 if linear else 3), min_size=1, max_size=6))
    names = draw(st.permutations([f"e{i}" for i in range(sum(sizes))]))
    rank, start = {}, 0
    for i, size in enumerate(sizes):
        rank.update((x, i) for x in names[start:start + size])
        start += size
    pairs = {(x, y) for x in names for y in names if rank[x] <= rank[y]}
    absent = sorted(set(itertools.product(names, repeat=2)) - pairs)
    change = draw(st.sampled_from(ORDER_CHANGES))
    if change == "drop":
        pairs.remove(draw(st.sampled_from(sorted(pairs))))
    elif change == "add" and absent:
        pairs.add(draw(st.sampled_from(absent)))
    elif change == "reverse" and absent:
        y, x = draw(st.sampled_from(absent))  # x is in an earlier class than y
        pairs.remove((x, y))
        pairs.add((y, x))
    elif change == "move" and len(sizes) > 1:
        x = draw(st.sampled_from(names))
        rank[x] = draw(st.sampled_from([i for i in range(len(sizes)) if i != rank[x]]))
        moved = {(a, b) for a in names for b in names if rank[a] <= rank[b]}
        # then drop pairs of it, or add absent ones, to keep the count
        surplus = len(moved) - len(pairs)
        pool = moved if surplus > 0 else set(itertools.product(names, repeat=2)) - moved
        pairs = moved ^ set(draw(st.permutations(sorted(pool)))[: abs(surplus)])
    elif change == "outside":
        x = draw(st.sampled_from(names))
        pairs.add(draw(st.sampled_from([(x, "out"), ("out", x)])))
    return frozenset(pairs), names


def _renamed(pairs, names, draw):
    """A random renaming of the pairs' elements onto fresh names."""
    field = sorted({x for pair in pairs for x in pair} | set(names))
    to = dict(zip(field, draw(st.permutations([f"z{i}" for i in range(len(field))]))))
    return frozenset((to[x], to[y]) for x, y in pairs), to


@settings(max_examples=400, deadline=None)
@given(st.booleans(), st.data())
def test_preorder_classes_match_upward_sets(linear, data):
    """The degree-count recognizer returns the set-based grouping's ordered
    classes, or rejects where it rejects, and commutes with renaming."""
    pairs, names = data.draw(listed_orders(linear))
    classes = preorder_classes(pairs)
    assert (classes or None) == preorder_classes_by_upward_sets(pairs)
    renamed, to = _renamed(pairs, names, data.draw)
    again = preorder_classes(renamed)
    assert (again or None) == preorder_classes_by_upward_sets(renamed)
    if classes is not None:
        assert again == [frozenset(map(to.__getitem__, c)) for c in classes]


def test_preorder_classes_need_both_degree_counts():
    """Everything is before x, y and z; each of a, b and c is before the
    other two, and x, y and z are before a, b and c in turn.  The in-degrees,
    3 for a, b, c and 6 for x, y, z, are those of {a, b, c} < {x, y, z}, but
    the out-degrees are 5 and 4, not 6 and 3: no pre-order."""
    pairs = {(u, v) for u in "abcxyz" for v in "xyz"}
    pairs |= {(u, v) for u in "abc" for v in "abc" if u != v}
    pairs |= {("x", "a"), ("y", "b"), ("z", "c")}
    assert preorder_classes(pairs) is None
    assert preorder_classes_by_upward_sets(pairs) is None


@settings(max_examples=300, deadline=None)
@given(st.booleans(), st.data())
def test_leq_is_read_as_the_pair_set_reads_it(linear, data):
    """``from_structure_lenient`` reads the segment order the set-based
    comparison reads, or rejects ``Leq`` where it rejects, under renaming."""
    pairs, names = data.draw(listed_orders(linear))
    leq, to = _renamed(pairs, names, data.draw)
    segments = sorted(map(to.__getitem__, names))
    structure = InputStructure.build(
        sorted(to.values()),
        {name: [] for name in multipede._ARITIES} | {
            "Segment": [(s,) for s in segments], "Leq": leq,
        },
        arities=multipede._ARITIES,
    )
    expected = leq_order_by_pair_set(segments, structure.relations["Leq"])
    try:
        pede, _ = multipede.from_structure_lenient(structure)
    except ValidationError as exc:
        assert expected is None and "Leq is not a linear order" in str(exc)
    else:
        assert pede.segment_order == expected


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


_TWO_SEGMENTS = (
    "atoms: s0 s1 s0a s0b s1a s1b\nrel Segment/1: (s0) (s1)\nrel Foot/1: (s0a) (s0b) (s1a) (s1b)\n"
    "rel S/2: (s0a,s0) (s0b,s0) (s1a,s1) (s1b,s1)\nrel Hyper/3:\nrel Positive/3:\n"
    "rel Leq/2: (s0,s0) (s0,s1) (s1,s1)\n"
)


@pytest.mark.parametrize(
    "command, text, message",
    [
        (
            "solve matching",
            "atoms: a b\nrel InA/1: (a)\nrel InB/1: (a) (b)\nrel R/2: (a,b)\n",
            "the two sides must be disjoint",
        ),
        (
            "solve matching",
            "atoms: a b\nrel InA/1: (a)\nrel InB/1: (b)\nrel R/2: (b,a)\n",
            "edge ('b', 'a') leaves the vertex sets",
        ),
        ("iso multipede3", _TWO_SEGMENTS + "rel Shoe/1: (s0)\n", "the shoe must be a foot"),
        ("validate multipede", _TWO_SEGMENTS + "rel Shoe/1: (s0a) (s1a)\n", "at most one shoe is allowed"),
        ("iso multipede3", _TWO_SEGMENTS + "rel Shoe/1:\n", "exactly one shoe is required"),
    ],
)
def test_decoders_reject_structures_outside_their_type(tmp_path, capsys, command, text, message):
    """A well-formed structure that breaks a bipartite graph's or a
    multipede's rules on sides and shoes is a parse error (exit 3) naming
    the fault."""
    path = tmp_path / "in.str"
    path.write_text(text)
    name = str(path)
    inputs = ["--a", name, "--b", name] if command.startswith("iso") else ["--input", name]
    code, report = dispatch(command.split() + inputs)
    capsys.readouterr()
    assert code == EXIT_PARSE
    assert report["error"]["message"] == message
