"""Parser and interpreter: syntax, update semantics, budgets, invariance."""

from __future__ import annotations

import io
import itertools
import json
import random
import re
import sys
import time
import tokenize
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import choiceless_lab
from choiceless_lab import cli
from choiceless_lab.bgs import (
    App,
    Compr,
    Cond,
    Lit,
    Par,
    Program,
    RunBounds,
    RunOutcome,
    Skip,
    State,
    Update,
    Var,
    fire,
    parse_program,
    run,
)
from choiceless_lab.bgs import interp
from choiceless_lab.bgs import parser as parser_module
from choiceless_lab.bgs.parser import MAX_NESTING
from choiceless_lab.bgs.syntax import BOOLEAN_BUILTINS, BOOLEAN_DYNAMICS, Forall
from choiceless_lab.cfi import build_twisted, complete_graph, pad
from choiceless_lab.errors import ParseError, ValidationError
from choiceless_lab.hfset import EMPTY, TRUE, Atom, make_set, ordinal, pair, transitive_closure
from choiceless_lab.linalg.fields import zp
from choiceless_lab.linalg.matrix import FieldMatrix, mat_pow
from choiceless_lab.structures import InputStructure, parse_structure, write_structure

import bgs_oracle
from bgs_oracle import run_oracle
from fo_compile import compile_sentence, random_sentence
from helpers import (
    empty_structure,
    permuted_structure,
    power_structure,
    run_child,
    twin_gadget,
    x_table,
)
from oracles import active_count, fo_model_check, load_builtin_program

HEADERS = "#steps 10 1\n#active 50 10\n"


def parse(body: str, headers: str = HEADERS):
    return parse_program(headers + body)


# ---------------------------------------------------------------- parsing


def test_parse_minimal_update():
    prog = parse("Output := true")
    assert isinstance(prog.rule, Update)
    assert prog.rule.symbol == "Output"
    assert prog.rule.args == ()
    assert prog.dynamic_arity == {"Output": 0, "Halt": 0}


def test_parse_comprehension_shape():
    prog = parse("Flag := 0 in { 0 : v in Atoms : Edge(v, v) }")
    update = prog.rule
    compr = update.value.args[1]
    assert isinstance(compr, Compr)
    assert compr.var == "v"
    assert compr.guard == App("Edge", (Var("v"), Var("v")))
    assert prog.static_arity == {"Edge": 2}
    assert "Edge" in prog.boolean_static_uses


def test_power_program_is_par_of_three_conditionals():
    prog = load_builtin_program("power")
    assert isinstance(prog.rule, Par)
    assert len(prog.rule.rules) == 3
    assert all(isinstance(r, Cond) for r in prog.rule.rules)
    assert prog.bounds.card_enabled


def test_a_text_parses_to_one_shared_read_only_program():
    text = HEADERS + "do in parallel Seen(A) := 1; Halt := true enddo"
    prog = parse_program(text)
    assert parse_program(text) is prog
    assert parse_program(text + "\n") is not prog
    with pytest.raises(TypeError):
        prog.dynamic_arity["Halt"] = 1
    with pytest.raises(TypeError):
        prog.static_arity["A"] = 2
    with pytest.raises(TypeError):
        del prog.static_arity["A"]
    assert prog.dynamic_arity == {"Halt": 0, "Output": 0, "Seen": 1}
    assert prog.static_arity == {"A": 0}
    # errors are not kept: each call parses again and raises again
    broken = HEADERS + "Output := Pair(1)"
    for _ in range(3):
        with pytest.raises(ParseError, match="Pair expects 2 arguments"):
            parse_program(broken)


def test_a_program_text_is_generated_once_per_process(tmp_path, monkeypatch, capsys):
    """Twenty ``bgs run`` requests of one power.bgs text on changing
    inputs parse the text once and generate and compile its step once:
    the work is counted, not timed."""
    program = tmp_path / "power.bgs"
    program.write_text((Path(choiceless_lab.__file__).parent / "programs" / "power.bgs").read_text())
    parse_program.cache_clear()
    generated: list = []
    compile_step = interp._compile
    monkeypatch.setattr(interp, "_compile", lambda *args: generated.append(args) or compile_step(*args))
    rng = random.Random(54)
    for i in range(20):
        n = 2 + i % 5
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        r = rng.randrange(1, 40)
        path = tmp_path / f"power{i}.str"
        path.write_text(write_structure(power_structure(rows, r)))
        code, report = cli.dispatch(["bgs", "run", "--program", str(program), "--input", str(path)])
        assert code == 0 and report["result"]["verdict"] == "accept", report
    capsys.readouterr()
    assert len(generated) == 1
    info = parse_program.cache_info()
    assert (info.misses, info.hits) == (1, 19)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse("Output :=")  # syntax
    with pytest.raises(ParseError):
        parse("if Atoms then skip endif")  # guard not Boolean
    with pytest.raises(ParseError):
        parse("Output := Pair(1)")  # builtin arity
    with pytest.raises(ParseError):
        parse("Output := x = x")  # unbound variable
    with pytest.raises(ParseError):
        parse("N := Card(Atoms)")  # Card without the header flag
    with pytest.raises(ParseError):
        parse("Halt := Atoms")  # Boolean update typing
    with pytest.raises(ParseError):
        parse_program("#steps 1\nskip")  # missing #active
    with pytest.raises(ParseError):
        parse("do forall v in v, skip enddo")  # range uses the unbound binder
    with pytest.raises(ParseError) as err:
        parse(
            "do forall v in Atoms, do forall v in Pair(v, v), skip enddo enddo"
        )  # binder free in its own range
    assert "range" in str(err.value)


@pytest.mark.parametrize(
    "body, fragment, line, column",
    [
        ("Output := Pair(1)", "Pair expects 2 arguments, got 1", 3, 11),
        ("do forall x in Atoms,\n  Halt := true(x)\nenddo", "true expects 0", 4, 11),
        ("do in parallel\n  N := Card(Atoms);\n  Halt := true\nenddo", "Card", 4, 8),
        ("do in parallel\n  Halt := true;\n  if Atoms then skip endif\nenddo",
         "conditional guard", 5, 6),
        # A becomes dynamic only after the guard that reads it
        ("do in parallel\n  if A then skip endif;\n  A := 1\nenddo", "conditional guard", 4, 6),
        ("A := { x : x in Atoms : Pair(x, x) }", "comprehension guard", 3, 25),
        ("Halt := Atoms", "Halt only takes Boolean values", 3, 9),
        ("do in parallel Halt := true;\n  Output := 1 enddo", "Output only takes Boolean", 4, 13),
        ("do forall v in Atoms,\n  do forall v in Pair(v, v), skip enddo\nenddo",
         "forall variable 'v' occurs free in its range", 4, 23),
        ("do forall v in Atoms,\n  A(v) := { v : v in Pair(v, v) }\nenddo",
         "comprehension variable 'v' occurs free in its range", 4, 27),
        ("if Halt(1) then skip endif", "Halt expects 0 arguments, got 1", 3, 4),
        # the first error in the text wins over a later one
        ("do in parallel\nOutput := x = x;\nF(1) := 1;\nF(1, 2) := 1\nenddo",
         "unbound variable 'x'", 4, 11),
        ("do in parallel\nif Mode then Halt := true endif;\nMode := 1;\nX := Pair(1)\nenddo",
         "conditional guard", 4, 4),
        # an application's own fault sits at its token, ahead of its arguments
        ("X := Pair(x)", "Pair expects 2 arguments, got 1", 3, 6),
        ("if { x : y in Atoms } then skip endif", "conditional guard", 3, 4),
        ("Pair(x) := 1", "cannot assign to builtin 'Pair'", 3, 1),
        # a character no token starts with is an error where it stands
        ("Output := x = x $", "unbound variable 'x'", 3, 11),
        ("do forall 1 in Atoms, skip enddo", "expected a variable name", 3, 11),
        ("do in parallel\n  A := F(1);\n  B := F(1, 2)\nenddo", "'F' used with arities 1 and 2", 5, 8),
        ("do forall x in Atoms,\n  A := x(1)\nenddo", "variable 'x' cannot be applied", 4, 8),
    ],
)
def test_semantic_errors_carry_their_position(body, fragment, line, column):
    with pytest.raises(ParseError, match=re.escape(fragment)) as err:
        parse(body)
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "body, boolean_uses",
    [
        # the inner v rebinds the name, so reading it in the range is fine
        ("do forall v in Atoms,\n  do forall v in { v : v in Atoms }, A(v) := v enddo\nenddo",
         set()),
        ("do forall v in Atoms,\n  A(v) := { v : v in { v : v in Atoms } }\nenddo", set()),
        ("if E(0, 1) then Halt := true endif", {"E"}),
        ("Halt := 0 in { 0 : v in Atoms : P(v) }", {"P"}),
    ],
)
def test_programs_that_still_parse(body, boolean_uses):
    assert parse(body).boolean_static_uses == boolean_uses


def test_parse_error_reports_position():
    try:
        parse_program(HEADERS + "if true then skip else skip endif endif")
    except ParseError as exc:
        assert exc.line == 3
        assert exc.column is not None
    else:
        pytest.fail("expected a parse error")


@pytest.mark.parametrize(
    "headers, line",
    [
        ("#steps 1.5\n#active 50 10\n", 1),
        ("#steps 3\n#active x\n", 2),
        ("// budgets\n#steps -1\n#active 5\n", 2),
        ("#steps 3\n#active\n", 2),
    ],
)
def test_malformed_budget_coefficient_is_a_parse_error(headers, line):
    with pytest.raises(ParseError) as err:
        parse_program(headers + "Halt := true")
    assert err.value.line == line


@pytest.mark.parametrize(
    "headers, fragment, line",
    [
        ("#steps 1\n# // a comment only\n#active 2\n", "empty header line", 2),
        ("#steps 1\n#active 2\n#budget 3\n", "unknown header 'budget'", 3),
        ("#requires choice\n#steps 1\n#active 2\n", "unknown requirement ['choice']", 1),
    ],
)
def test_unknown_header_is_a_parse_error_at_its_line(headers, fragment, line):
    with pytest.raises(ParseError, match=re.escape(fragment)) as err:
        parse_program(headers + "Halt := true")
    assert err.value.line == line


@pytest.mark.parametrize(
    "headers, head, line, first",
    [
        ("#steps 1\n#active 2\n#steps 7 1\n", "steps", 3, 1),
        ("#steps 1\n// budgets\n#active 2\n#active 3\n", "active", 4, 3),
        ("#requires card\n#steps 1\n#active 2\n#requires card // again\n", "requires", 4, 1),
    ],
)
def test_repeated_header_is_a_parse_error(headers, head, line, first):
    with pytest.raises(ParseError, match=f"second {head} header, after line {first}") as err:
        parse_program(headers + "Halt := true")
    assert err.value.line == line


def test_readme_example_with_header_comments():
    prog = parse_program(
        "#steps 4 1          // step budget 4 + n\n"
        "#active 20 3        // active-element budget 20 + 3n\n"
        "#requires card      // enables the cardinality builtin\n"
        "\n"
        "do in parallel\n"
        "  if Mode = 0 then\n"
        "    do in parallel N := Card(Atoms); Mode := 1 enddo\n"
        "  endif;\n"
        "  if Mode = 1 then\n"
        "    if 1 in N then\n"
        "      N := Union(Union(N))\n"
        "    else\n"
        "      do in parallel Halt := true; Output := N = 1 enddo\n"
        "    endif\n"
        "  endif\n"
        "enddo\n"
    )
    assert prog.bounds == RunBounds((4, 1), (20, 3), card_enabled=True)
    assert run(prog, empty_structure(5)).verdict == "accept"
    assert run(prog, empty_structure(4)).verdict == "reject"


def nested_body(shape: str, depth: int) -> str:
    """A program body whose deepest parser nesting is exactly ``depth``
    levels: the update rule is one level and its value term another."""
    k = depth - 2
    if shape == "not":
        return "Halt := " + "not " * k + "false"
    if shape == "parentheses":
        return "Halt := " + "(" * k + "true" + ")" * k
    if shape == "and":
        return "Halt := " + " and ".join(["true"] * (k + 1))
    if shape == "or":
        return "Halt := " + " or ".join(["false"] * (k + 1))
    if shape == "arguments":
        return "Halt := 0 in " + "Pair(0, " * k + "0" + ")" * k
    if shape == "comprehension range":
        return "Halt := 0 in " + "{ 0 : x in " * k + "Atoms" + " }" * k
    if shape == "comprehension element":
        return "Halt := 0 in " + "{ " * k + "0" + " : x in 1 }" * k
    if shape == "if":
        return "if true then " * k + "Halt := true" + " endif" * k
    if shape == "forall":
        return "do forall x in 1, " * k + "Halt := true" + " enddo" * k
    if shape == "parallel":
        return "do in parallel " * k + "Halt := true" + " enddo" * k
    raise ValueError(shape)


NESTED_SHAPES = [
    "not",
    "parentheses",
    "and",
    "or",
    "arguments",
    "comprehension range",
    "comprehension element",
    "if",
    "forall",
    "parallel",
]


@pytest.mark.parametrize("shape", NESTED_SHAPES)
def test_nesting_cap(shape):
    prog = parse(nested_body(shape, MAX_NESTING))
    outcome = run(prog, empty_structure(3))
    assert outcome.verdict in ("accept", "reject", "bound-exceeded")
    with pytest.raises(ParseError) as err:
        parse(nested_body(shape, MAX_NESTING + 1))
    assert "nesting" in str(err.value)
    assert err.value.line == 3 and err.value.column is not None


def deep_body(shape: str, depth: int) -> str:
    """A program body nested about ``depth`` parser levels deep in which
    every level opens a block of the generated step, so that the step is
    written as several functions: guards that are not constant, else
    branches, "and" operands that need lines of their own, loops over the
    atoms, and searches in the guards of searches."""
    k = depth - 2
    if shape == "if":
        return "if not Halt then " * k + "Halt := true" + " endif" * k
    if shape == "else":
        return "if Halt then skip else " * k + "Halt := true" + " endif" * k
    if shape == "and":
        k //= 2
        return "Halt := " + "(0 in { 0 : x in Atoms : true } and " * k + "true" + ")" * k
    if shape == "forall":
        return "do forall x in Atoms, " * k + "Halt := true" + " enddo" * k
    if shape == "search":
        k -= 1
        return "Halt := 0 in " + "{ 0 : x in Atoms : 0 in " * k + "Pair(0, x) }" + " }" * (k - 1)
    raise ValueError(shape)


@pytest.mark.parametrize("shape", ["if", "else", "and", "forall", "search"])
def test_deep_nesting_is_split_into_functions(shape):
    """Python allows a function 20 nested loops and a file 100 levels of
    indentation: a program nested as deep as the parser admits runs as the
    oracle does, its step written as more than one function.  The first
    step reaches the innermost rule, which halts the run."""
    prog = parse(deep_body(shape, MAX_NESTING))
    assert "def h" in interp._generate(prog.rule)
    assert assert_runs_agree(prog, empty_structure(1))[:2] == ("reject", 1)


_BAD_COEFFICIENTS = ["1.5", "x", "-1", "2.0", ""]
_LEAF_TERMS = [
    "true", "false", "empty", "Atoms", "0", "1", "2", "x", "y", "A", "N", "E(x, y)", "F(x)",
]
_BINARY = ["and", "or", "=", "!=", "in", "notin"]
_TOKENS = _LEAF_TERMS + _BINARY + [
    "not", "(", ")", "{", "}", ":", ",", ";", ":=", "Pair", "Union", "TheUnique",
    "Card", "skip", "if", "then", "else", "endif", "do", "forall", "parallel", "enddo",
    "Halt", "Output", "B(x)",
]

terms = st.recursive(
    st.sampled_from(_LEAF_TERMS),
    lambda inner: st.one_of(
        inner.map(lambda t: f"not {t}"),
        inner.map(lambda t: f"({t})"),
        st.tuples(inner, st.sampled_from(_BINARY), inner).map(" ".join),
        st.tuples(st.sampled_from(["Union", "TheUnique", "Card"]), inner).map(
            lambda a: f"{a[0]}({a[1]})"
        ),
        st.tuples(inner, inner).map(lambda a: f"Pair({a[0]}, {a[1]})"),
        st.tuples(inner, st.sampled_from(["x", "y"]), inner, inner).map(
            lambda a: f"{{ {a[0]} : {a[1]} in {a[2]} : {a[3]} }}"
        ),
    ),
    max_leaves=8,
)
rules = st.recursive(
    st.one_of(
        st.just("skip"),
        st.tuples(st.sampled_from(["Halt", "Output", "A", "N", "B(x)"]), terms).map(
            lambda a: f"{a[0]} := {a[1]}"
        ),
    ),
    lambda inner: st.one_of(
        st.tuples(terms, inner, st.none() | inner).map(
            lambda a: f"if {a[0]} then {a[1]}" + (f" else {a[2]}" if a[2] else "") + " endif"
        ),
        st.tuples(st.sampled_from(["x", "y"]), terms, inner).map(
            lambda a: f"do forall {a[0]} in {a[1]}, {a[2]} enddo"
        ),
        st.lists(inner, min_size=1, max_size=3).map(
            lambda rs: "do in parallel " + "; ".join(rs) + " enddo"
        ),
    ),
    max_leaves=6,
)
bodies = st.one_of(
    rules,
    st.tuples(
        st.sampled_from(NESTED_SHAPES), st.integers(1, 2 * MAX_NESTING)
    ).map(lambda a: nested_body(*a)),
    st.lists(st.sampled_from(_TOKENS), max_size=30).map(" ".join),
)


# characters of every token kind, whitespace of several kinds, non-ASCII
# digits and letters, and characters no token starts with
_TOKEN_PIECES = st.sampled_from(
    list("aZ_09 \t\r\n\x0b\u2028(){},;:=!/#\u00e9\u0663\u00b2")
    + ["//", ":=", "!=", "// c\n", "x1", "12"]
)


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.lists(_TOKEN_PIECES, max_size=40).map("".join), st.text(max_size=40)))
def test_tokenizer_matches_match_per_token_tokenizer(text):
    got = [(t.kind, t.text, t.line, t.col) for t in parser_module._tokenize(text)]
    assert got == bgs_oracle.tokenize(text)


def test_tokenizer_on_shipped_programs():
    for name in ("power", "parity", "doubling"):
        text = (Path(choiceless_lab.__file__).parent / "programs" / f"{name}.bgs").read_text()
        got = [(t.kind, t.text, t.line, t.col) for t in parser_module._tokenize(text)]
        assert got == bgs_oracle.tokenize(text)


@st.composite
def program_texts(draw):
    body = draw(bodies)
    for _ in range(draw(st.integers(0, 2))):  # token-level damage
        at = draw(st.integers(0, len(body)))
        if draw(st.booleans()):
            body = body[:at] + " " + draw(st.sampled_from(_TOKENS)) + " " + body[at:]
        else:
            body = body[:at] + body[at + draw(st.integers(1, 8)):]
    steps = draw(st.sampled_from(["3", "2", "0 1"]))  # at most 3 steps on 3 atoms
    active = draw(st.sampled_from(["50 10", "4", "0 1"]))
    bad = draw(st.sampled_from([None] * 6 + _BAD_COEFFICIENTS))
    if bad is not None:
        steps, active = (bad, active) if draw(st.booleans()) else (steps, bad)
    card = "#requires card\n" if draw(st.booleans()) else ""
    return f"#steps {steps}\n#active {active}\n{card}{body}"


_THREE_ATOMS = InputStructure.build(
    ["a", "b", "c"],
    relations={"E": [("a", "b"), ("b", "c")]},
    functions={"F": {("a",): "b", ("b",): "c", ("c",): "a"}},
)


@settings(max_examples=300, deadline=None)
@given(program_texts())
def test_parser_robustness(text):
    try:
        prog = parse_program(text)
    except ParseError:
        return
    assert isinstance(prog, Program)
    assert prog.bounds.max_steps(3) <= 3
    try:
        outcome = run(prog, _THREE_ATOMS)
    except ValidationError:
        return  # an input symbol the structure lacks
    assert isinstance(outcome, RunOutcome)


# ------------------------------------------- compiled run against the oracle


def outcome_key(outcome):
    return (
        outcome.verdict,
        outcome.steps,
        outcome.peak_active,
        outcome.output,
        outcome.final_state.tables,
    )


def assert_runs_agree(program, structure):
    """``run`` and the tree-walking ``run_oracle`` give the same outcome and
    final tables, or raise the same ``ValidationError``."""
    try:
        expected = outcome_key(run_oracle(program, structure))
    except ValidationError as exc:
        with pytest.raises(ValidationError) as err:
            run(program, structure)
        assert str(err.value) == str(exc)
        return None
    got = outcome_key(run(program, structure))
    assert got == expected
    return got


_VARS = ("x", "y", "z")


@st.composite
def closed_terms(draw, bound, depth):
    leaves = ["empty", "Atoms", "0", "1", "2", "A"]
    for v in sorted(bound):
        leaves += [v, f"F({v})", f"B({v})"]
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(leaves))
    kind = draw(st.sampled_from(["compr", "guard", "Pair", "Union", "TheUnique", "Card"]))
    if kind == "compr":
        v = draw(st.sampled_from(_VARS))
        element = draw(closed_terms(bound | {v}, depth - 1))
        guard = draw(closed_guards(bound | {v}, depth - 1, subject=v))
        return f"{{ {element} : {v} in Atoms : {guard} }}"
    if kind == "guard":
        return draw(closed_guards(bound, depth - 1))
    args = [draw(closed_terms(bound, depth - 1)) for _ in range(2 if kind == "Pair" else 1)]
    return f"{kind}({', '.join(args)})"


@st.composite
def closed_guards(draw, bound, depth, subject=None):
    """A Boolean term; with a ``subject``, its atoms are E, F and = of it."""
    if subject is None:
        atoms = ["true", "false", "Halt", "Output", "A = empty", "empty in A"]
        atoms += [f"E({v}, F({v}))" for v in sorted(bound)]
    else:
        v = subject
        atoms = [f"E({v}, {v})", f"E({v}, F({v}))", f"F({v}) = {v}"]
        atoms += [f"E({v}, {w})" for w in sorted(bound - {v})]
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(atoms))
    kinds = ["not", "and", "or", "term and"] + (["=", "in"] if subject is None else [])
    kind = draw(st.sampled_from(kinds))
    if kind in ("=", "in"):
        left, right = (draw(closed_terms(bound, depth - 1)) for _ in range(2))
        return f"({left}) {kind} ({right})"
    right = draw(closed_guards(bound, depth - 1, subject))
    if kind == "not":
        return f"not ({right})"
    if kind == "term and":
        return f"({draw(closed_terms(bound, depth - 1))}) and ({right})"
    return f"({draw(closed_guards(bound, depth - 1, subject))}) {kind} ({right})"


@st.composite
def closed_rules(draw, bound, depth):
    kinds = ["skip", "A", "Halt", "Output"] + (["B"] if bound else [])
    kind = draw(st.sampled_from(kinds + (["if", "forall", "par"] if depth else [])))
    if kind == "skip":
        return "skip"
    if kind in ("Halt", "Output"):
        return f"{kind} := {draw(closed_guards(bound, depth))}"
    if kind in ("A", "B"):
        target = "A" if kind == "A" else f"B({draw(st.sampled_from(sorted(bound)))})"
        return f"{target} := {draw(closed_terms(bound, depth))}"
    if kind == "if":
        guard = draw(closed_guards(bound, depth - 1))
        then_rule, else_rule = (draw(closed_rules(bound, depth - 1)) for _ in range(2))
        return f"if {guard} then {then_rule} else {else_rule} endif"
    if kind == "forall":
        v = draw(st.sampled_from(_VARS))
        return f"do forall {v} in Atoms, {draw(closed_rules(bound | {v}, depth - 1))} enddo"
    rules_ = draw(st.lists(closed_rules(bound, depth - 1), min_size=1, max_size=3))
    return "do in parallel " + "; ".join(rules_) + " enddo"


@st.composite
def runnable_texts(draw):
    """Closed programs that always parse: every guard is Boolean, every
    comprehension ranges over Atoms under a guard about its variable, and
    some ``and`` terms have a non-Boolean left operand.  A and B are always
    assigned, so reading them never names an input symbol."""
    a = draw(closed_terms(frozenset(), 2))
    b = draw(closed_terms(frozenset({"x"}), 2))
    halt = draw(closed_guards(frozenset(), 2))
    rest = draw(closed_rules(frozenset(), 2))
    return (
        "#steps 3\n#active 50 10\n#requires card\ndo in parallel "
        f"A := {a}; do forall x in Atoms, B(x) := {b} enddo; Halt := {halt}; {rest} enddo"
    )


@settings(max_examples=200, deadline=None)
@given(runnable_texts())
def test_runnable_texts_parse(text):
    assert isinstance(parse_program(text), Program)


def checked_nodes(program: Program) -> int:
    """Walk a parsed program and check what the compiler relies on: each
    variable is bound by an enclosing binder (a comprehension's in its
    element and guard, a forall's in its body), and each Halt or Output
    update gives a Boolean application, of a logical builtin, Halt, Output
    or an input symbol of ``boolean_static_uses``.  Returns how many
    variables and such updates it checked."""
    boolean = BOOLEAN_BUILTINS | BOOLEAN_DYNAMICS | program.boolean_static_uses
    checked = 0

    def term(node, bound):
        nonlocal checked
        if isinstance(node, Var):
            assert node.name in bound, node
            checked += 1
        elif isinstance(node, App):
            for arg in node.args:
                term(arg, bound)
        elif isinstance(node, Compr):
            term(node.source, bound)
            term(node.element, bound | {node.var})
            term(node.guard, bound | {node.var})

    def rule(node, bound):
        nonlocal checked
        if isinstance(node, Update):
            for arg in node.args:
                term(arg, bound)
            term(node.value, bound)
            if node.symbol in BOOLEAN_DYNAMICS:
                assert isinstance(node.value, App) and node.value.symbol in boolean, node
                checked += 1
        elif isinstance(node, Cond):
            term(node.guard, bound)
            rule(node.then_rule, bound)
            rule(node.else_rule, bound)
        elif isinstance(node, Forall):
            term(node.source, bound)
            rule(node.body, bound | {node.var})
        elif isinstance(node, Par):
            for r in node.rules:
                rule(r, bound)

    rule(program.rule, frozenset())
    return checked


@settings(max_examples=200, deadline=None)
@given(runnable_texts())
def test_parsed_programs_are_closed_and_give_halt_and_output_boolean_values(text):
    assert checked_nodes(parse_program(text)) > 0  # Halt is always assigned


def test_shipped_programs_are_closed_and_give_halt_and_output_boolean_values():
    for name in ("power", "parity", "doubling"):
        assert checked_nodes(load_builtin_program(name)) > 0


# damaged texts seldom parse, so grammar-built bodies and closed programs
# join them
_RUNNABLE_TEXTS = st.one_of(
    program_texts(),
    rules.map(lambda body: "#steps 3\n#active 50 10\n#requires card\n" + body),
    runnable_texts(),
)


@settings(max_examples=500, deadline=None)
@given(_RUNNABLE_TEXTS, st.integers(0, 2**32 - 1))
def test_compiled_run_matches_oracle(text, seed):
    try:
        prog = parse_program(text)
    except ParseError:
        return
    assert_runs_agree(prog, _THREE_ATOMS)
    assert_runs_agree(prog, permuted_structure(_THREE_ATOMS, seed))


def test_compiled_shadowed_binder():
    prog = parse(
        "do in parallel\n"
        "  A := { { x : x in Atoms : true } : x in Pair(Atoms, empty) : true };\n"
        "  N := { Pair({ x : x in Atoms : true }, x) : x in Pair(Atoms, empty) : true };\n"
        "  do forall x in Atoms,\n"
        "    D(x) := { { Pair(x, z) : z in Atoms : true } : x in Atoms : true }\n"
        "  enddo;\n"
        "  Halt := true\n"
        "enddo"
    )
    structure = empty_structure(3)
    tables = assert_runs_agree(prog, structure)[4]
    atoms = make_set(structure.by_name.values())
    assert tables["A"][()] is make_set([atoms])
    assert tables["N"][()] is make_set([make_set([atoms]), make_set([atoms, EMPTY])])
    # z sits one binder below the shadowing x, so their slots differ
    listed = list(structure.by_name.values())
    grid = make_set(make_set(pair(b, z) for z in listed) for b in listed)
    for a in listed:
        assert tables["D"][(a,)] is grid


def test_compiled_binder_after_nested_shadowing_binder():
    # the second comprehension binds y at the depth where the first one
    # shadowed x, so it reuses that slot; x must still read the forall's atom
    prog = parse(
        "do in parallel\n"
        "  do forall x in Atoms,\n"
        "    do in parallel\n"
        "      A := { x : x in Atoms : true };\n"
        "      B(x) := { y : y in Atoms : y = x };\n"
        "      C(x) := Pair({ x : x in Atoms : true }, { y : y in Atoms : y = x })\n"
        "    enddo\n"
        "  enddo;\n"
        "  Halt := true\n"
        "enddo"
    )
    structure = empty_structure(3)
    tables = assert_runs_agree(prog, structure)[4]
    atoms = make_set(structure.by_name.values())
    for a in structure.by_name.values():
        assert tables["B"][(a,)] is make_set([a])
        assert tables["C"][(a,)] is make_set([atoms, make_set([a])])


# every symbol and binder is a name with a meaning in Python, or one the
# generated step uses for its own locals; each binder also shadows a symbol
_PYTHON_NAMES = (
    "if Mode = 0 then do in parallel\n"
    "  do forall def in Atoms, do forall lambda in Atoms,\n"
    "    if None(def, lambda) then tables(def, lambda) := Pair(def, lambda) endif\n"
    "  enddo enddo;\n"
    "  do forall env in Atoms, lambda(env) := Card({ tables : tables in Atoms : None(env, tables) }) enddo;\n"
    "  Mode := 1\n"
    "enddo else if Mode = 1 then do in parallel\n"
    "  env := { Pair(None, lambda(None)) : None in Atoms : __builtins__(None) };\n"
    "  def := 0 in { 0 : __builtins__ in Atoms : 1 in lambda(__builtins__)\n"
    "    and tables(__builtins__, __builtins__) = Pair(__builtins__, __builtins__) };\n"
    "  Mode := 2\n"
    "enddo else do in parallel\n"
    "  Output := def = 1 and 0 in { 0 : lambda in env : true };\n"
    "  Halt := true\n"
    "enddo endif endif\n"
)
_PYTHON_NAME_ATOMS = InputStructure.build(
    ["a", "b", "c", "d"],
    relations={
        "None": [("a", "a"), ("a", "b"), ("b", "b"), ("c", "a"), ("d", "d")],
        "__builtins__": [("a",), ("c",), ("d",)],
    },
)


def _code_tokens(source: str) -> list:
    """The tokens of Python source other than its string constants."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [(t.type, t.string) for t in tokens if t.type != tokenize.STRING]


def test_program_names_enter_the_step_as_strings_only():
    """Symbols and binders named def, None, lambda, tables, env and
    __builtins__ run as the oracle runs them, under renamings of the
    atoms; and renaming each of them changes only string constants of
    the generated source."""
    prog = parse(_PYTHON_NAMES, "#steps 4\n#active 200 20\n#requires card\n")
    assert set(prog.dynamic_arity) >= {"def", "lambda", "tables", "env"}
    assert set(prog.static_arity) == {"None", "__builtins__"}
    assert assert_runs_agree(prog, _PYTHON_NAME_ATOMS)[0] == "accept"
    for seed in range(5):
        assert_runs_agree(prog, permuted_structure(_PYTHON_NAME_ATOMS, seed))
    renames = {"def": "d1", "None": "N1", "lambda": "l1", "tables": "t1", "env": "e1"}
    renames["__builtins__"] = "B1"
    renamed = re.sub(
        r"\b(def|None|lambda|tables|env|__builtins__)\b",
        lambda m: renames[m.group()],
        _PYTHON_NAMES,
    )
    other = parse(renamed, "#steps 4\n#active 200 20\n#requires card\n")
    source, other_source = (interp._generate(p.rule) for p in (prog, other))
    assert source != other_source
    assert _code_tokens(source) == _code_tokens(other_source)


def test_compiled_shipped_programs_match_oracle():
    rng = random.Random(1010)
    power = load_builtin_program("power")
    for n in (4, 5, 6):
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        structure = power_structure(rows, rng.randrange(2, 64))
        assert assert_runs_agree(power, structure)[0] == "accept"
    parity = load_builtin_program("parity")
    for n in (0, 1, 6, 9):
        expected = "accept" if n % 2 else "reject"
        assert assert_runs_agree(parity, empty_structure(n))[0] == expected
    doubling = load_builtin_program("doubling")
    for n in (2, 5):
        assert assert_runs_agree(doubling, empty_structure(n))[0] == "bound-exceeded"


# ------------------------------------------ fast paths against the oracle

# Step 1 of a two-step program fills D/2, U/1 and B/1, some entries at
# set-valued keys; step 2 reads them through each fast path of the
# generated step (comprehensions over Atoms whose first conjunct is an
# indexed lookup, Card counts, "x in { ... }" searches, and tests of reads
# at bound variables) and through the general forms beside them: "or"
# with Boolean and non-Boolean right operands, literal membership and
# equality on terms that are not reads, and each builtin.
_FILL_VALUES = ("0", "1", "2", "2", "true", "x", "Pair(x, y)", "{ z : z in Atoms : E(x, z) }")
_FILL_CONDITIONS = ("true", "E(x, y)", "not E(x, y)", "F(x) = y", "x = y", "E(y, x) or F(y) = x")
# what y ranges over while step 2 reads: atoms, and sets and numbers too
_OUTER_RANGES = ("Atoms", "Pair(Atoms, 1)", "Union(Pair(Atoms, Pair(2, Atoms)))")


# where atoms recur in one argument position of E, so an index bucket
# holds several atoms
_DENSE_ATOMS = InputStructure.build(
    ["a", "b", "c", "d"],
    relations={"E": [("a", "b"), ("a", "c"), ("b", "b"), ("c", "b"), ("d", "b"), ("d", "d")]},
    functions={"F": {("a",): "b", ("b",): "c", ("c",): "a", ("d",): "d"}},
)


@st.composite
def _fill_rules(draw):
    value = lambda: draw(st.sampled_from(_FILL_VALUES))  # noqa: E731
    cond = lambda: draw(st.sampled_from(_FILL_CONDITIONS))  # noqa: E731
    pairwise = [
        f"if {cond()} then D(x, y) := {value()} endif",
        f"if {cond()} then D(Pair(x, y), y) := {value()} endif",
    ]
    single = [
        f"if {cond().replace('y', 'x')} then U(x) := {value().replace('y', 'x')} endif",
        f"U(Pair(x, x)) := {value().replace('y', 'x')}",
        f"B(x) := {draw(st.sampled_from(['true', 'false', '1', '2', 'F(x)', 'E(x, F(x))']))}",
        f"D(Atoms, x) := {draw(st.sampled_from(['1', '2', 'x']))}",
    ]
    return (
        "do forall x in Atoms, do in parallel "
        f"do forall y in Atoms, do in parallel {'; '.join(pairwise)} enddo enddo; "
        f"{'; '.join(single)} enddo enddo"
    )


@st.composite
def _indexed_guards(draw, v, o):
    """A guard on binder ``v`` whose first conjunct is a lookup the
    compiler may index, with ``o`` as the other argument."""
    k = draw(st.sampled_from(["0", "1", "2"]))
    first = draw(
        st.sampled_from(
            [
                f"E({o}, {v})", f"E({v}, {o})", f"E({v}, {v})", f"E({v}, 1)",
                f"D({o}, {v}) = {k}", f"{k} = D({v}, {o})", f"D({v}, {v}) = {k}",
                f"D(Pair({o}, {o}), {v}) = {k}", f"D({v}, 2) = {k}", f"D(Atoms, {v}) = {k}",
                f"B({v})", f"U({v}) = {k}", f"{k} = U({v})", f"U({v})",
                # served by the atoms that read nonzero, then tested again
                f"{k} in D({o}, {v})", f"{k} in U({v})", f"{k} in B({v})",
                # the binder inside another argument: no index can serve
                f"D(F({v}), {v}) = {k}", f"E({v}, F({v}))",
            ]
        )
    )
    more = draw(
        st.lists(
            st.sampled_from(
                [
                    "true", f"not E({v}, {o})", f"not D({o}, {v})", f"F({v}) = {o}",
                    f"D({v}, {o}) = 1",
                    f"1 in D({o}, {v})", f"0 in U({v})", f"2 in B({v})",
                    f"(E({v}, {o}) or D({o}, {v}) = 1)", f"(D({o}, {v}) or 2)",
                    f"(D({v}, {o}) or B({v}))", f"({o} in {{ F(w) : w in Atoms : E({v}, w) }})",
                    f"Card({{ w : w in Atoms : D({v}, w) = 1 }}) = 1",
                    # binders that shadow v and o
                    f"1 = Card({{ {v} : {v} in Atoms : D({v}, {o}) = 1 }})",
                    f"{{ {o} : {o} in Atoms : E({v}, {o}) }} = empty",
                ]
            ),
            max_size=2,
        )
    )
    if not more and first in (f"B({v})", f"U({v})"):
        more = ["true"]  # a dynamic symbol is no guard on its own
    return " and ".join([first, *more])


@st.composite
def _reads(draw, o):
    """A term reading the step-1 tables with ``o`` bound."""
    v = draw(st.sampled_from(["v", "w", "x"]))  # "x" may shadow o
    guard = draw(_indexed_guards(v, o))
    element = draw(st.sampled_from([v, o, f"F({v})", f"Pair({v}, {o})", "0", f"D({o}, {v})"]))
    wanted = draw(st.sampled_from([o, "0", "1", f"F({o})", f"Pair({o}, {o})"]))
    return draw(
        st.sampled_from(
            [
                f"{{ {element} : {v} in Atoms : {guard} }}",
                f"Card({{ {v} : {v} in Atoms : {guard} }})",
                f"Card({{ {element} : {v} in Atoms : {guard} }})",
                f"{wanted} in {{ {element} : {v} in Atoms : {guard} }}",
                f"1 in D({o}, {o})", f"2 in U({o})", f"0 in B({o})",
                f"D({o}, {o}) or B({o})", f"E({o}, {o}) or 2", f"U({o}) or E({o}, F({o}))",
                f"not U({o})", f"not B({o}) and not (1 in U({o}))",
                f"0 in Union(D({o}, {o}))", f"0 in Pair({o}, U({o}))",
                f"1 in Card({{ w : w in Atoms : E({o}, w) }})",
                f"1 in F(F({o}))", f"Union(U({o})) = 1",
                f"TheUnique(Pair({o}, {o}))", f"TheUnique(Pair({o}, Pair({o}, {o})))",
            ]
        )
    )


@st.composite
def two_step_programs(draw):
    fill = draw(_fill_rules())
    outer = draw(st.sampled_from(_OUTER_RANGES))
    reads = draw(st.lists(_reads("y"), min_size=1, max_size=3))
    # a guarded forall whose guard an index may serve
    when = draw(_indexed_guards("v", "y"))
    written = draw(st.sampled_from(["1", "v", "Pair(v, y)", "D(y, v)"]))
    body = "; ".join(
        [
            *(f"R{i}(x, y) := {t}" for i, t in enumerate(reads)),
            f"do forall v in Atoms, if {when} then W(x, y, v) := {written} endif enddo",
        ]
    )
    halt = draw(_indexed_guards("v", "x"))
    return (
        "#steps 3\n#active 200 20\n#requires card\n"
        f"if Mode = 0 then do in parallel {fill}; Mode := 1 enddo\n"
        "else do in parallel\n"
        f"  do forall x in Atoms, do forall y in {outer},\n"
        f"    do in parallel {body} enddo\n"
        "  enddo enddo;\n"
        f"  Output := 0 in {{ 0 : x in Atoms : 0 in {{ 0 : v in Atoms : {halt} }} }};\n"
        "  Halt := true\n"
        "enddo endif\n"
    )


@settings(max_examples=300, deadline=None)
@given(two_step_programs(), st.integers(0, 2**32 - 1))
def test_fast_paths_match_oracle(text, seed):
    prog = parse_program(text)
    got = assert_runs_agree(prog, _THREE_ATOMS)
    assert got is not None and got[0] in ("accept", "reject"), text
    assert_runs_agree(prog, permuted_structure(_THREE_ATOMS, seed))
    assert_runs_agree(prog, permuted_structure(_DENSE_ATOMS, seed))


def test_indexed_table_read_after_it_changes():
    """One comprehension reads D through its index in every step while D
    changes from empty to E to E's transpose; an index kept from an
    earlier step would repeat that step's set."""
    prog = parse(
        "do in parallel\n"
        "  do forall x in Atoms,\n"
        "    do in parallel\n"
        "      R(x, Mode) := { v : v in Atoms : D(x, v) = 1 };\n"
        "      N(x, Mode) := Card({ v : v in Atoms : D(v, x) = 1 and true })\n"
        "    enddo\n"
        "  enddo;\n"
        "  do forall x in Atoms,\n"
        "    do forall y in Atoms,\n"
        "      if Mode = 0 then D(x, y) := E(x, y) else D(x, y) := D(y, x) endif\n"
        "    enddo\n"
        "  enddo;\n"
        "  if Mode = 0 then Mode := 1 endif;\n"
        "  if Mode = 1 then Mode := 2 endif;\n"
        "  if Mode = 2 then Halt := true endif\n"
        "enddo",
        HEADERS + "#requires card\n",
    )
    tables = assert_runs_agree(prog, _THREE_ATOMS)[4]
    a, b, c = (_THREE_ATOMS.by_name[name] for name in "abc")
    one, two = ordinal(1), ordinal(2)
    read = lambda symbol, *args: tables[symbol].get(args, EMPTY)  # noqa: E731
    # E is (a, b) and (b, c): step 2 reads E, step 3 its transpose
    assert [read("R", x, one) for x in (a, b, c)] == [make_set([b]), make_set([c]), EMPTY]
    assert [read("R", x, two) for x in (a, b, c)] == [EMPTY, make_set([a]), make_set([b])]
    assert [read("N", x, one) for x in (a, b, c)] == [EMPTY, one, one]
    assert [read("N", x, two) for x in (a, b, c)] == [one, one, EMPTY]


# Each fast-path shape of the generated step, against the oracle under
# renamings:
# comprehensions, counts and searches whose first conjunct an index
# answers (a relation, a dynamic "= k" or a dynamic truth value) and is
# not tested again, followed by 0, 1 or 2 more conjuncts; "= k" and
# "k in" on reads of two bound variables; updates with zero, one and two
# bound argument slots, values 0 among them; and clashing update sets.
# Input symbols are read from the same tables as dynamic ones: the
# ternary T at three bound variables, the function F as an indexed first
# conjunct, and the nullary Q and G.
_FUSED_ATOMS = InputStructure.build(
    ["a", "b", "c", "d", "e"],
    relations={
        "E": [("a", "b"), ("a", "c"), ("b", "b"), ("c", "b"), ("d", "b"), ("d", "e"), ("e", "a")],
        "P": [("a",), ("c",), ("d",)],
        "T": [
            ("a", "b", "c"), ("a", "b", "b"), ("b", "b", "a"), ("c", "a", "b"),
            ("d", "e", "a"), ("e", "a", "e"), ("b", "c", "d"), ("d", "b", "b"), ("c", "c", "c"),
        ],
        "Q": [()],
    },
    functions={
        "F": {("a",): "b", ("b",): "c", ("c",): "a", ("d",): "d", ("e",): "a"},
        "G": {(): "c"},
    },
)
_FUSED_VALUES = ("0", "1", "1", "2", "true", "x", "Pair(x, y)", "F(y)")


@st.composite
def _fused_guards(draw, v, o):
    """A guard on binder ``v`` with ``o`` bound outside: a first conjunct
    an index may answer and 0, 1 or 2 more."""
    k = lambda: draw(st.sampled_from(["0", "1", "2"]))  # noqa: E731
    first = draw(
        st.sampled_from(
            [
                f"E({o}, {v})", f"E({v}, {o})", f"E({v}, {o}) = {k()}",
                f"P({v})", f"P({v}) = {k()}",
                f"D({o}, {v}) = {k()}", f"{k()} = D({v}, {o})", f"U({v}) = {k()}",
                f"D({v}, {o})", f"B({v})", f"U({v})",
                f"T({o}, {v}, x)", f"T({v}, x, {o}) = {k()}",
                f"F({v})", f"F({v}) = {k()}", f"{k()} = F({v})",
            ]
        )
    )
    more = [
        f"E({v}, {o})", f"not B({v})", f"D({v}, {o}) = {k()}", f"{k()} in D({o}, {v})",
        f"B({v})", f"F({v}) = {o}", f"P({v})", f"{k()} in U({v})", "true",
        f"T(x, {o}, {v})", f"not T({v}, {v}, {o})", "Q", f"F({v}) = G",
    ]
    more = draw(st.lists(st.sampled_from(more), max_size=2))
    if not more and first in (f"D({v}, {o})", f"B({v})", f"U({v})", f"F({v})"):
        more = ["true"]  # a dynamic symbol or a function is no guard on its own
    return " and ".join([first, *more])


@st.composite
def _fused_reads(draw, o):
    """A term with ``x`` and ``o`` bound that reads the step-1 tables."""
    v = draw(st.sampled_from(["v", "w"]))
    guard = draw(_fused_guards(v, o))
    element = draw(st.sampled_from([v, "0", f"F({v})", f"Pair({v}, {o})"]))
    wanted = draw(st.sampled_from([o, "0", "x", f"F({o})"]))
    k = draw(st.sampled_from(["0", "1", "2"]))
    return draw(
        st.sampled_from(
            [
                f"{{ {element} : {v} in Atoms : {guard} }}",
                f"Card({{ {v} : {v} in Atoms : {guard} }})",
                f"{wanted} in {{ {element} : {v} in Atoms : {guard} }}",
                f"D(x, {o}) = {k}", f"{k} = D({o}, x)", f"{k} in D(x, {o})", f"{k} in D({o}, {o})",
                f"D({o}, x)", f"{k} in U({o})", f"U({o}) = {k}",
                f"T(x, {o}, {o})", "Q", f"Pair(G, {o})", f"F(G) = {o}",
            ]
        )
    )


@st.composite
def fused_shape_programs(draw):
    value = lambda: draw(st.sampled_from(_FUSED_VALUES))  # noqa: E731
    conditions = ["true", "E(x, y)", "not E(y, x)", "P(y)", "F(x) = y", "T(x, y, y)", "Q"]
    cond = lambda: draw(st.sampled_from(conditions))  # noqa: E731
    pairs = draw(st.lists(_fused_reads("y"), min_size=1, max_size=3))
    singles = draw(st.lists(_fused_reads("x"), max_size=2))
    step2 = "; ".join(
        [
            "do forall y in Atoms, do in parallel "
            + "; ".join(f"R{i}(x, y) := {t}" for i, t in enumerate(pairs))
            + " enddo enddo",
            *(f"S{i}(x) := {t}" for i, t in enumerate(singles)),
        ]
    )
    step2 = f"do forall x in Atoms, do in parallel {step2} enddo enddo"
    if draw(st.booleans()):  # a clash when two atoms pass
        clash = draw(_fused_guards("x", "x"))
        step2 += f"; do forall x in Atoms, if {clash} then C := x endif enddo"
    output = draw(_fused_guards("y", "x"))
    output = f"0 in {{ 0 : x in Atoms : 0 in {{ 0 : y in Atoms : {output} }} }}"
    fill_b = draw(st.sampled_from(["true", "false", "2", "P(x)", "E(x, F(x))", "Q", "G"]))
    return (
        "#steps 4\n#active 600 60\n#requires card\n"
        "if Mode = 0 then do in parallel\n"
        "  do forall x in Atoms, do in parallel\n"
        f"    do forall y in Atoms, if {cond()} then D(x, y) := {value()} endif enddo;\n"
        f"    if {cond().replace('y', 'x')} then U(x) := {value().replace('y', 'x')} endif;\n"
        f"    B(x) := {fill_b}\n"
        "  enddo enddo;\n"
        "  Mode := 1\n"
        "enddo else if Mode = 1 then do in parallel\n"
        f"  {step2};\n"
        "  Mode := 2\n"
        "enddo else do in parallel\n"
        f"  Output := {output};\n"
        "  Halt := true\n"
        "enddo endif endif\n"
    )


@settings(max_examples=300, deadline=None)
@given(fused_shape_programs(), st.integers(0, 2**32 - 1))
def test_fused_shapes_match_oracle(text, seed):
    prog = parse_program(text)
    got = assert_runs_agree(prog, _FUSED_ATOMS)
    # a clash in step 2 leaves Mode at 1 until the step budget runs out
    assert got is not None and (got[0] in ("accept", "reject") or "C := x" in text), text
    assert_runs_agree(prog, permuted_structure(_FUSED_ATOMS, seed))


_TWO_STEPS = (
    "#steps 3\n#active 20 1\n"
    "if Mode = 0 then\n"
    "  do in parallel E := 1; Mode := 1 enddo\n"
    "else\n"
    "  do in parallel Output := E = 1; Halt := true enddo\n"
    "endif\n"
)


@pytest.mark.parametrize(
    "symbol_line",
    ["rel E/0:", "rel E/0: ()", "fun Mode/0: ()->a", "rel Halt/0: ()", "rel Output/0:"],
)
def test_structure_may_not_interpret_a_dynamic_symbol(symbol_line):
    prog = parse_program(_TWO_STEPS)
    assert run(prog, parse_structure("atoms: a b\nrel Q/0:\n")).verdict == "accept"
    structure = parse_structure(f"atoms: a b\n{symbol_line}\n")
    name = symbol_line.split()[1].split("/")[0]
    with pytest.raises(ValidationError, match=f"dynamic symbol '{name}'"):
        run(prog, structure)
    with pytest.raises(ValidationError, match=f"dynamic symbol '{name}'"):
        run_oracle(prog, structure)


# ------------------------------------------------------------- evaluation


class _StepTables(dict):
    """The tables a generated step reads: the structure's input tables
    under the state's, and an empty table for a symbol not yet written."""

    def __init__(self, state):
        structure = state.structure
        super().__init__(interp._input_tables(structure, structure.arities), **state.tables)

    def __missing__(self, symbol):
        return {}


def _atoms(structure):
    return make_set(structure.by_name.values())


def _bound(node, names):
    """``node`` inside ``do forall x in <x>`` for each variable x in
    ``names``, the first outermost.  ``<x>`` is a nullary table holding
    the singleton of x's value (:func:`_binding_tables`), so x is bound to
    that value as the binder ``b0``, ``b1``, ... of its depth."""
    for name in reversed(list(names)):
        node = Forall(name, App(f"<{name}>"), node)
    return node


def _binding_tables(env: dict) -> dict:
    """The table ``<x>`` of :func:`_bound` for each variable x of ``env``."""
    return {f"<{name}>": {(): make_set([value])} for name, value in env.items()}


def compiled_eval(state, env, term):
    """``eval_term``'s signature over the generated path: the value that
    ``<out> := term`` writes, with ``env``'s variables bound by
    :func:`_bound`."""
    return compiled_collect(state, env, Update("<out>", (), term)).maps["<out>"][()]


def compiled_collect(state, env, rule):
    """``collect_updates``' tree-walker signature over the generated path,
    with ``env``'s variables bound by :func:`_bound`."""
    updates = interp.Updates({})
    step = interp._compile(_bound(rule, env))(_atoms(state.structure), {}, updates.maps)
    tables = _StepTables(state)
    tables.update(_binding_tables(env))
    return interp.collect_updates(step, tables, updates)


def triples(updates: interp.Updates) -> frozenset:
    """The write maps of ``updates`` as (symbol, argument tuple, value)
    triples, the oracle's form of an update set."""
    return frozenset(
        (symbol, args, value)
        for symbol, written in updates.maps.items()
        for args, value in written.items()
    )


def compiled_updates(updates) -> interp.Updates:
    """The (symbol, argument tuple, value) triples ``updates`` collected
    in their order by generated rules ``S(x0, ..., xk) := v``, one per
    symbol and arity, with the value and the arguments bound to their
    variables by :func:`_bound`: a clash ends the collection, as it ends
    a step's."""
    updates = list(updates)
    collected = interp.Updates({})
    steps: dict = {}
    for symbol, args, _ in updates:
        if (symbol, len(args)) not in steps:
            names = ["v", *(f"x{i}" for i in range(len(args)))]
            node = _bound(Update(symbol, tuple(map(Var, names[1:])), Var("v")), names)
            steps[symbol, len(args)] = names, interp._compile(node)(EMPTY, {}, collected.maps)

    def step(tables):
        for symbol, args, value in updates:
            names, bound_step = steps[symbol, len(args)]
            bound_step(_binding_tables(dict(zip(names, (value, *args)))))

    return interp.collect_updates(step, {}, collected)


# each evaluator test checks the tree-walking oracle and the generated path
EVALUATORS = (bgs_oracle.eval_term, compiled_eval)
# each collector test fires the oracle's triples with the oracle's fire and
# the generated path's write maps with the interpreter's
COLLECTORS = (
    (bgs_oracle.collect_updates, bgs_oracle.fire, frozenset),
    (compiled_collect, fire, triples),
)


@pytest.fixture()
def five_atoms():
    return empty_structure(5)


def test_eval_builtins(five_atoms):
    state = State(five_atoms)
    x = make_set([five_atoms.by_name["a0"]])
    for eval_term in EVALUATORS:
        assert eval_term(state, {}, App("Card", (App("Atoms"),))) is ordinal(5)
        env = {"x": x}
        got = eval_term(state, env, App("TheUnique", (App("Pair", (Var("x"), Var("x"))),)))
        assert got is x
        assert eval_term(state, {}, App("eq", (Lit(2), Lit(2)))) is TRUE
        assert eval_term(state, {}, App("in", (Lit(1), Lit(3)))) is TRUE
        assert eval_term(state, {}, App("in", (Lit(3), Lit(1)))) is EMPTY


def test_eval_comprehension_existential_coding():
    structure = InputStructure.build(
        ["a", "b"], relations={"Loop": [("a",)]}, arities={"Loop": 1}
    )
    state = State(structure)
    some = App("in", (Lit(0), Compr(Lit(0), "v", App("Atoms"), App("Loop", (Var("v"),)))))
    none = App(
        "in",
        (Lit(0), Compr(Lit(0), "v", App("Atoms"), App("not", (App("Loop", (Var("v"),)),)))),
    )
    for eval_term in EVALUATORS:
        assert eval_term(state, {}, some) is TRUE
        assert eval_term(state, {}, none) is TRUE


def test_off_domain_convention(five_atoms):
    state = State(five_atoms)
    structure = InputStructure.build(
        ["a"], relations={"P": [("a",)]}, arities={"P": 1}
    )
    st2 = State(structure)
    for eval_term in EVALUATORS:
        # relation applied to a set argument reads as 0
        assert eval_term(st2, {}, App("P", (Lit(3),))) is EMPTY
        # logical connectives off 0/1 read as 0
        assert eval_term(state, {}, App("not", (Lit(2),))) is EMPTY
        assert eval_term(state, {}, App("and", (Lit(1), Lit(2)))) is EMPTY
        assert eval_term(state, {}, App("Union", (Lit(4),))) is ordinal(3)


def test_unbound_variable_is_reported_when_evaluated(five_atoms):
    # no parsed program holds these trees, so the compiled path, which takes
    # what parse_program returns, is not asked: only the oracle checks them
    state = State(five_atoms)
    with pytest.raises(ValidationError, match="unbound variable 'y'"):
        bgs_oracle.eval_term(state, {}, App("Pair", (Var("y"), Var("z"))))
    with pytest.raises(ValidationError, match="unbound variable 'u'"):
        bgs_oracle.collect_updates(state, {}, Update("F", (Var("u"),), Var("w")))
    with pytest.raises(ValidationError, match="non-Boolean"):
        bgs_oracle.collect_updates(state, {}, Update("Halt", (), Lit(2)))


# ----------------------------------------------------- updates and firing


def test_collect_updates_by_rule_kind(five_atoms):
    state = State(five_atoms)
    for collect_updates, fire_, as_triples in COLLECTORS:
        assert as_triples(collect_updates(state, {}, Skip())) == frozenset()
        forall_empty = collect_updates(
            state, {}, Forall("v", App("empty"), Update("F", (Var("v"),), Lit(1)))
        )
        assert as_triples(forall_empty) == frozenset()
        par = Par((Update("F", (), Lit(1)), Update("G", (), Lit(2))))
        got = collect_updates(state, {}, par)
        assert as_triples(got) == frozenset(
            {("F", (), ordinal(1)), ("G", (), ordinal(2))}
        )
        assert fire_(state, got) is not state
        clash = collect_updates(
            state, {}, Par((Update("F", (), Lit(1)), Update("F", (), Lit(0))))
        )
        assert fire_(state, clash) is state


def test_fire_semantics(five_atoms):
    a = five_atoms.by_name["a0"]
    b = five_atoms.by_name["a1"]
    ok = frozenset({("F", (a,), ordinal(1)), ("F", (b,), ordinal(1))})
    clash = frozenset({("F", (a,), ordinal(1)), ("F", (a,), ordinal(0))})
    for fire_, in_place, collect in (
        (fire, True, compiled_updates),
        (bgs_oracle.fire, False, frozenset),
    ):
        state = State(five_atoms)
        new = fire_(state, collect(ok))
        assert new is not state
        assert new.read("F", (a,)) is ordinal(1)
        assert new.read("F", (b,)) is ordinal(1)
        # fire writes the tables it is given; the oracle's fire copies them
        assert state.read("F", (a,)) is (ordinal(1) if in_place else EMPTY)
        assert fire_(new, collect(clash)) is new
        assert new.read("F", (a,)) is ordinal(1)


def test_clash_on_one_symbol_writes_no_other():
    """An update set that is valid on F but gives G two values writes
    nothing to F, in whichever order its distinct updates come."""
    a, b = _FIRE_ATOMS[:2]
    updates = [
        ("F", (a,), EMPTY),
        ("F", (b,), ordinal(2)),
        ("G", (), ordinal(1)),
        ("G", (), ordinal(2)),
    ]
    for order in itertools.permutations(updates):
        state = fire(State(empty_structure(0)), compiled_updates([("F", (a,), TRUE)]))
        f = state.tables["F"]
        assert fire(state, compiled_updates(order)) is state
        assert state.tables == {"F": {(a,): TRUE}} and state.tables["F"] is f


_FIRE_ATOMS = [Atom(f"f{i}") for i in range(3)]
_fire_updates = st.tuples(
    st.sampled_from(["F", "G", "N"]),
    st.lists(st.sampled_from(_FIRE_ATOMS), max_size=2).map(tuple),
    st.sampled_from([EMPTY, TRUE, ordinal(2), _FIRE_ATOMS[0]]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sets(_fire_updates, max_size=6), max_size=4))
def test_fire_matches_oracle_fire(steps):
    """The compiled collection plus ``fire`` and the oracle's copying
    ``fire`` agree step by step on the same updates: writes, writes of 0,
    clashes and empty update sets.  ``fire`` writes the tables it is
    given: after a step with no clash they equal the oracle's new tables,
    and after a clash, or an empty update set, they are unchanged and
    ``fire`` returns the state it got."""
    got = want = State(empty_structure(0))
    for updates in steps:
        before = {symbol: dict(table) for symbol, table in got.tables.items()}
        new_got = fire(got, compiled_updates(updates))
        new_want = bgs_oracle.fire(want, updates)
        assert (new_got is got) == (new_want is want)
        assert got.tables == (before if new_got is got else new_want.tables)
        assert new_got.tables == new_want.tables
        got, want = new_got, new_want


# fill B, then steps whose first rules are valid and whose last one gives
# Mode a second value
_CLASH_LAST = (
    "if Mode = 0 then do in parallel\n"
    "  do forall x in Atoms, B(x) := x enddo;\n"
    "  Mode := 1\n"
    "enddo else do in parallel\n"
    "  do forall x in Atoms, B(x) := Pair(x, x) enddo;\n"
    "  Halt := true;\n"
    "  Mode := 2;\n"
    "  Mode := 3\n"
    "enddo endif\n"
)
# nine copies of one update, then writes of 0, then steps with no update
_EMPTY_LAST = (
    "if Mode = 0 then do in parallel\n"
    "  do forall x in Atoms, do forall y in Atoms, D := 1 enddo enddo;\n"
    "  do forall x in Atoms, B(x) := x enddo;\n"
    "  Mode := 1\n"
    "enddo else if Mode = 1 then do in parallel\n"
    "  do forall x in Atoms, B(x) := 0 enddo;\n"
    "  Mode := 2\n"
    "enddo endif endif\n"
)


def test_clash_in_the_last_rule_writes_nothing():
    """The writes to B and Halt collected before the clash on Mode are not
    applied: every step after the fill clashes, so the run exhausts its
    steps with the tables the fill left, and its steps and peak_active are
    the oracle's."""
    prog = parse(_CLASH_LAST, "#steps 4\n#active 10 1\n")
    structure = empty_structure(3)
    got, want = run(prog, structure), run_oracle(prog, structure)
    assert (got.verdict, got.steps, got.peak_active) == ("bound-exceeded", 4, 5)
    assert (want.verdict, want.steps, want.peak_active) == ("bound-exceeded", 4, 5)
    fill = {"B": {(a,): a for a in structure.by_name.values()}, "Mode": {(): TRUE}}
    assert got.final_state.tables == want.final_state.tables == fill


@pytest.mark.parametrize("body", [_CLASH_LAST, _EMPTY_LAST], ids=["clash", "empty"])
def test_step_counts_read_by_the_span_counters(body, monkeypatch):
    """What ``bench/spans.py`` reads off a step: the ``len()`` of what
    ``collect_updates`` returns is the step's number of distinct updates,
    as in the oracle's update set, or on a clash a positive count; and
    ``fire`` returns the very State it got exactly when the step clashed
    or was empty."""
    prog = parse(body, "#steps 5\n#active 20 1\n")
    structure = empty_structure(3)
    collect_updates, fire_ = interp.collect_updates, interp.fire
    oracle_collect = bgs_oracle.collect_updates
    # per step: len() after collecting and after firing, and whether fire
    # returned the state it got
    got: list = []
    want: list = []  # per step: the oracle's update set

    def counted_collect(*args):
        updates = collect_updates(*args)
        got.append([len(updates)])
        return updates

    def counted_fire(state, updates):
        new = fire_(state, updates)
        got[-1] += [len(updates), new is state]
        return new

    def oracle_steps(*args):
        want.append(oracle_collect(*args))
        return want[-1]

    with monkeypatch.context() as patch:
        patch.setattr(interp, "collect_updates", counted_collect)
        patch.setattr(interp, "fire", counted_fire)
        patch.setattr(bgs_oracle, "collect_updates", oracle_steps)
        outcome, oracle = run(prog, structure), run_oracle(prog, structure)
    assert outcome.steps == oracle.steps == 5
    assert outcome.peak_active == oracle.peak_active
    assert len(got) == len(want) == 5
    kinds = set()
    for (collected, fired, kept), updates in zip(got, want):
        clash = len({(symbol, args) for symbol, args, _ in updates}) < len(updates)
        kinds.add("clash" if clash else len(updates) and "written" or "empty")
        assert collected == fired
        assert collected > 0 if clash else collected == len(updates)
        assert kept == (clash or not updates)
    assert kinds == ({"written", "clash"} if body is _CLASH_LAST else {"written", "empty"})


# fill B over every atom, then rewrite the one B entry at the First atom
_ONE_WRITE = (
    "if Mode = 0 then do in parallel\n"
    "  do forall x in Atoms, B(x) := x enddo;\n"
    "  Mode := 1\n"
    "enddo else\n"
    "  do forall x in Atoms, if First(x) then B(x) := Pair(B(x), B(x)) endif enddo\n"
    "endif\n"
)


def _one_write_work(n: int, monkeypatch) -> tuple:
    """The one-write program run for six steps on n atoms: the calls of
    Python and of C functions (such as a write map's ``setdefault``) each
    step makes while collecting its updates, and for each step after the
    fill whether B kept its dict and how many B entries changed."""
    prog = parse(_ONE_WRITE, "#steps 6\n#active 10 1\n")
    names = [f"a{i}" for i in range(n)]
    structure = InputStructure.build(names, relations={"First": [(names[n // 2],)]})
    collect_updates, fire_ = interp.collect_updates, interp.fire
    calls: list = []
    writes: list = []

    def counted_collect(step, tables, updates):
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event in ("call", "c_call")

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            return collect_updates(step, tables, updates)
        finally:
            sys.setprofile(previous)
            calls.append(count)

    def watched_fire(state, updates):
        table = state.tables.get("B", {})
        before = dict(table)
        new = fire_(state, updates)
        if before:
            after = new.tables["B"]
            changed = sum(before.get(args) is not value for args, value in after.items())
            writes.append((after is table, len(after) - len(before), changed))
        return new

    with monkeypatch.context() as patch:
        patch.setattr(interp, "collect_updates", counted_collect)
        patch.setattr(interp, "fire", watched_fire)
        outcome = run(prog, structure)
    assert (outcome.verdict, outcome.steps) == ("bound-exceeded", 6)
    return calls, writes


def test_one_write_step_costs_the_same_at_any_size(monkeypatch):
    """After B is filled over every atom, a step rewrites one B entry: the
    forall visits the First atom alone, through First's index, and fire
    writes that entry into B in place.  Work is counted, not timed: each
    step after the fill makes as many calls at 10,000 atoms as at 100,
    keeps B's dict and changes one entry of it."""
    small_calls, small_writes = _one_write_work(100, monkeypatch)
    large_calls, large_writes = _one_write_work(10_000, monkeypatch)
    assert small_calls[1:] == large_calls[1:]
    assert large_calls[0] > 100 * small_calls[1]  # the fill visits every atom
    assert small_writes == large_writes == [(True, 0, 1)] * 5


def test_active_count_examples(five_atoms):
    a = five_atoms.by_name["a0"]
    assert active_count([]) == 0
    single = frozenset({("F", (a,), make_set([a]))})
    assert active_count([single]) == 2
    for n in range(6):
        upd = frozenset({("F", (), ordinal(n))})
        assert active_count([upd]) == n + 1


_TRACE_ATOMS = [Atom(f"x{i}") for i in range(3)]

# leaves are atoms and ordinals up to 40, so sets mix the two and the
# active walk's ordinal shortcut meets ordinals inside other sets
nested_values = st.recursive(
    st.sampled_from(_TRACE_ATOMS) | st.integers(0, 40).map(ordinal),
    lambda kids: st.lists(kids, max_size=4).map(make_set),
    max_leaves=10,
)
traced_updates = st.tuples(
    st.sampled_from(["F", "G"]),
    st.lists(nested_values, max_size=2).map(tuple),
    nested_values,
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(traced_updates, max_size=4), max_size=5))
def test_active_count_matches_transitive_closure_union(trace):
    trace = [frozenset(step) for step in trace]
    expected: set = set()
    for updates in trace:
        for _, args, value in updates:
            for v in (value,) + args:
                expected |= transitive_closure(v)
    assert active_count(trace) == len(expected)


# ------------------------------------------------------------------ runs


def test_parity_program_accepts_odd_sizes():
    prog = load_builtin_program("parity")
    for n in range(13):
        outcome = run(prog, empty_structure(n))
        expected = "accept" if n % 2 == 1 else "reject"
        assert outcome.verdict == expected, f"n={n}"
        assert outcome.output == (n % 2)


def test_parity_hand_trace_five_atoms():
    # Card(Atoms) = 5, then 3, then 1: three subtractions by two via the
    # double-Union trick, halting when 1 is no longer a member.
    prog = load_builtin_program("parity")
    outcome = run(prog, empty_structure(5))
    assert outcome.verdict == "accept"
    assert outcome.steps == 4


@pytest.mark.parametrize(
    "n, verdict, steps, peak_active",
    [(5, "accept", 4, 6), (100, "reject", 52, 101), (401, "accept", 202, 402)],
)
def test_parity_run_counts(n, verdict, steps, peak_active):
    # Card(Atoms) puts ordinals 0..n in play, and every later value is one
    # of them, so the active count is n + 1 throughout
    outcome = run(load_builtin_program("parity"), empty_structure(n))
    assert (outcome.verdict, outcome.steps, outcome.peak_active) == (verdict, steps, peak_active)


# the probe reports its own peak RSS as VmHWM, not ru_maxrss: on Linux,
# exec carries the forking process's peak into ru_maxrss, so a child of a
# large pytest process would report the parent's size
_PROBE = """
import json, re, sys
from choiceless_lab.bgs import parse_program, run
from choiceless_lab.structures import InputStructure
outcome = run(parse_program(sys.argv[1]), InputStructure.build(["a"]))
with open("/proc/self/status") as status:
    peak_kb = int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
report = {"verdict": outcome.verdict, "peak_active": outcome.peak_active, "peak_kb": peak_kb}
print(json.dumps(report))
"""


def probe(program_text: str) -> tuple:
    """The probe's report on one run over one atom, and its wall time."""
    start = time.perf_counter()
    done = run_child(["-c", _PROBE, program_text])
    return json.loads(done.stdout), time.perf_counter() - start


def test_large_literal_costs_no_memory():
    # a literal is a number until something iterates it, so a program that
    # only compares one stays small and fails on its budget, not on memory
    report, elapsed = probe("#steps 1\n#active 0 1\nOutput := 100000 = 0")
    assert report["verdict"] == "bound-exceeded"
    assert elapsed < 2.0
    assert report["peak_kb"] < 60 * 1024


def test_large_update_counts_its_ordinals_without_making_them():
    # the ordinals 0, ..., 10^7 all become active, and are counted as one
    # number rather than made one by one
    report, elapsed = probe("#steps 1\n#active 0 1\nN := 10000000")
    assert (report["verdict"], report["peak_active"]) == ("bound-exceeded", 10000001)
    assert elapsed < 2.0
    assert report["peak_kb"] < 60 * 1024


def test_bgs_run_result_is_identical_across_processes(tmp_path):
    # set iteration follows memory addresses and string hashes, which differ
    # from process to process, so a result that read that order would differ
    # between runs; each case runs under two hash seeds
    programs = Path(choiceless_lab.__file__).parent / "programs"
    k4 = complete_graph(4)
    inputs = {
        "power": power_structure(
            [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]], 5
        ),
        "parity": empty_structure(9),
        "odd_padded": pad(build_twisted(k4, ["v0", "v1", "v3"])),
        "twin": twin_gadget(),
    }
    for name, twist, seed in (("a", ["v1"], 1), ("b", ["v0", "v2", "v3"], 2)):
        gadget = build_twisted(k4, twist)
        inputs[name] = permuted_structure(gadget, seed)
    path = {name: str(tmp_path / f"{name}.str") for name in inputs}
    for name, structure in inputs.items():
        Path(path[name]).write_text(write_structure(structure))
    cases = [
        (["bgs", "run", "--program", str(programs / f"{name}.bgs"), "--input", path[name]],
         {"verdict": "accept"})
        for name in ("power", "parity")
    ]
    cases += [
        (["solve", "cfi-classify", "--input", path["odd_padded"]], {"class": 1}),
        (["solve", "cfi-classify", "--input", path["twin"]], {"class": "not-CFI"}),
        (["iso", "cfi", "--a", path["a"], "--b", path["b"]], {"isomorphic": True}),
    ]
    for argv, expected in cases:
        argv = ["-m", "choiceless_lab", *argv]
        results = [json.loads(run_child(argv, seed).stdout)["result"] for seed in "12"]
        assert results[0] == results[1], argv
        assert expected.items() <= results[0].items(), argv


def test_run_determinism():
    prog = load_builtin_program("parity")
    runs = [run(prog, empty_structure(7)) for _ in range(3)]
    assert len({(r.verdict, r.steps, r.peak_active, r.output) for r in runs}) == 1


def test_doubling_program_exceeds_active_bound():
    prog = load_builtin_program("doubling")
    outcome = run(prog, empty_structure(6))
    assert outcome.verdict == "bound-exceeded"
    # |S| grows 1, 3, 7, ...; with q(n) = n = 6 the third step must trip
    assert outcome.steps <= 4


def _with_bounds(program: Program, bounds: RunBounds) -> Program:
    """The program with other run budgets."""
    return Program(
        program.rule, bounds, program.dynamic_arity, program.static_arity, program.boolean_static_uses
    )


def test_bound_monotonicity():
    prog = load_builtin_program("parity")
    for n in (4, 7):
        base = run(prog, empty_structure(n))
        wide = RunBounds(
            tuple(c * 10 for c in prog.bounds.steps),
            tuple(c * 10 for c in prog.bounds.active),
            card_enabled=True,
        )
        again = run(_with_bounds(prog, wide), empty_structure(n))
        assert again.verdict == base.verdict
        assert again.steps == base.steps
    doubling = load_builtin_program("doubling")
    raised = RunBounds((2000,), (0, 4), card_enabled=False)
    raised_run = run(_with_bounds(doubling, raised), empty_structure(6))
    assert raised_run.verdict == "bound-exceeded"


def test_power_program_matches_mat_pow():
    prog = load_builtin_program("power")
    gf2 = zp(2)
    rng = random.Random(99)
    for _ in range(6):
        n = rng.choice([2, 3])
        r = rng.randrange(1, 16)
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
        structure = power_structure(rows, r)
        outcome = run(prog, structure)
        assert outcome.verdict == "accept"
        got = x_table(outcome, [f"m{i}" for i in range(n)])
        idx = frozenset(range(n))
        m = FieldMatrix(
            gf2,
            idx,
            idx,
            {(i, j): rows[i][j] for i in range(n) for j in range(n)},
        )
        expected = mat_pow(m, r)
        assert got == [[expected.entry(i, j) for j in range(n)] for i in range(n)]


def test_power_program_spec_trace_m_cubed():
    # [[0,1],[1,1]] cubed over Z/2 is the identity (hand multiplication:
    # square is [[1,1],[1,0]], and multiplying once more gives I).
    prog = load_builtin_program("power")
    outcome = run(prog, power_structure([[0, 1], [1, 1]], 3))
    assert outcome.verdict == "accept"
    assert x_table(outcome, ["m0", "m1"]) == [[1, 0], [0, 1]]


def test_isomorphism_invariance_of_shipped_programs():
    parity = load_builtin_program("parity")
    for seed in range(5):
        structure = empty_structure(6)
        assert run(parity, structure).verdict == run(
            parity, permuted_structure(structure, seed)
        ).verdict
    power = load_builtin_program("power")
    rows = [[0, 1, 1], [1, 0, 0], [1, 1, 1]]
    structure = power_structure(rows, 6)
    base = run(power, structure).verdict
    for seed in range(5):
        assert run(power, permuted_structure(structure, seed)).verdict == base


# ------------------------------------------------------- FO simulation


def test_first_order_simulation_unary():
    rng = random.Random(2024)
    arities = {"P": 1}
    for _ in range(20):
        sentence = random_sentence(rng, arities)
        program = compile_sentence(sentence, arities)
        for n in range(1, 5):
            names = [f"a{i}" for i in range(n)]
            for bits in itertools.product((0, 1), repeat=n):
                tuples = [(names[i],) for i in range(n) if bits[i]]
                structure = InputStructure.build(
                    names, relations={"P": tuples}, arities={"P": 1}
                )
                outcome = run(program, structure)
                truth = fo_model_check(
                    sentence, list(range(n)), {"P": {(i,) for i in range(n) if bits[i]}}
                )
                assert (outcome.verdict == "accept") == truth


def test_first_order_simulation_binary():
    rng = random.Random(77)
    arities = {"E": 2}
    sentences = [random_sentence(rng, arities) for _ in range(20)]
    # exhaustive over two atoms, random structures at three and four
    cases = []
    for bits in itertools.product((0, 1), repeat=4):
        pairs = list(itertools.product(range(2), repeat=2))
        cases.append((2, {pairs[i] for i in range(4) if bits[i]}))
    for n in (3, 4):
        pairs = list(itertools.product(range(n), repeat=2))
        for _ in range(25):
            cases.append((n, {p for p in pairs if rng.random() < 0.4}))
    for sentence in sentences:
        program = compile_sentence(sentence, arities)
        for n, rel in cases:
            names = [f"a{i}" for i in range(n)]
            structure = InputStructure.build(
                names,
                relations={"E": [(names[i], names[j]) for (i, j) in rel]},
                arities={"E": 2},
            )
            outcome = run(program, structure)
            truth = fo_model_check(sentence, list(range(n)), {"E": rel})
            assert (outcome.verdict == "accept") == truth


# ------------------------------------------------------------- structures


def test_structure_roundtrip():
    text = "atoms: a b c\nrel E/2: (a,b) (b,c)\nrel P/1: (a)\nfun F/1: (a)->b (b)->c (c)->a\n"
    structure = parse_structure(text)
    assert [a.name for a in structure.by_name.values()] == ["a", "b", "c"]
    again = parse_structure(write_structure(structure))
    assert write_structure(again) == write_structure(structure)


def test_structure_validation():
    with pytest.raises(ParseError):
        parse_structure("rel E/2: (a,b)\n")  # no atoms line
    with pytest.raises(ParseError):
        parse_structure("atoms: a\nrel E/2: (a)\n")  # arity mismatch
    with pytest.raises(ParseError):
        parse_structure("atoms: a b\nfun F/1: (a)->b\n")  # not total
    with pytest.raises(ParseError):
        parse_structure("atoms: a\nrel E/1: (b)\n")  # unknown atom


_BAD_STRUCTURE_TEXTS = {
    "missing atoms line": "rel E/2: (a,b)\n",
    "second atoms line": "atoms: a\natoms: b\n",
    "bad name": "atoms: a 1b\n",
    "duplicate name": "atoms: a a\n",
    "unrecognized line": "atoms: a\nedge a a\n",
    "duplicate symbol": "atoms: a\nrel E/1: (a)\nfun E/1: (a)->a\n",
    "rel tuple arity": "atoms: a\nrel E/2: (a)\n",
    "fun tuple arity": "atoms: a\nfun F/1: (a,a)->a\n",
    "stray text in rel": "atoms: a\nrel E/1: (a) a\n",
    "stray text in fun": "atoms: a\nfun F/1: (a)->a (a)\n",
    "unknown atom in tuple": "atoms: a\nrel E/1: (b)\n",
    "unknown atom in argument": "atoms: a\nfun F/1: (b)->a\n",
    "unknown function value": "atoms: a\nfun F/1: (a)->b\n",
    "function not total": "atoms: a b\nfun F/1: (a)->b\n",
    "function argument twice": "atoms: a b\nfun F/1: (a)->a (b)->a (a)->b\n",
}

_BAD_BUILDS = {
    "duplicate names": (["a", "a"], {}),
    "rel arity differs from declared": (
        ["a"], {"relations": {"E": [("a",)]}, "arities": {"E": 2}}
    ),
    "fun arity differs from declared": (
        ["a"], {"functions": {"F": {("a", "a"): "a"}}, "arities": {"F": 1}}
    ),
    "mixed rel arities": (["a"], {"relations": {"E": [("a",), ("a", "a")]}}),
    "empty relation without arity": (["a"], {"relations": {"E": []}}),
    "empty function without arity": (["a"], {"functions": {"F": {}}}),
    "function not total": (["a", "b"], {"functions": {"F": {("a",): "b"}}}),
    "unknown name in tuple": (["a"], {"relations": {"E": [("b",)]}}),
    "unknown function value": (["a"], {"functions": {"F": {("a",): "b"}}}),
}


@pytest.mark.parametrize(
    "reader, case",
    [("parse_structure", name) for name in _BAD_STRUCTURE_TEXTS]
    + [("build", name) for name in _BAD_BUILDS],
)
def test_structure_rejections(reader, case):
    """Every malformed ``.str`` text is a ``ParseError``; every malformed
    ``build`` call is a ``ValidationError``."""
    if reader == "parse_structure":
        with pytest.raises(ParseError):
            parse_structure(_BAD_STRUCTURE_TEXTS[case])
    else:
        names, kwargs = _BAD_BUILDS[case]
        with pytest.raises(ValidationError):
            InputStructure.build(names, **kwargs)


def test_run_vocabulary_check():
    prog = parse("Output := 0 in { 0 : v in Atoms : Edge(v, v) }")
    with pytest.raises(Exception):
        run(prog, empty_structure(2))  # Edge missing
    wrong = InputStructure.build(
        ["a"], functions={"Edge": {("a", "a"): "a"}}, arities={"Edge": 2}
    )
    with pytest.raises(Exception):
        run(prog, wrong)  # Edge must be a relation
