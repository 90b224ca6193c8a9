"""Compile tiny first-order sentences into one-step programs.

A sentence evaluates to a Boolean term using the existential coding
``0 in { 0 : v in Atoms : phi(v) }``; universal quantifiers go through
double negation.  The compiled program is text, read by the parser like
any program file: it writes the term to Output and halts immediately.
"""

from __future__ import annotations

import random

from choiceless_lab.bgs import Program, parse_program


def _term(node) -> str:
    tag = node[0]
    if tag == "ex":
        return f"0 in {{ 0 : {node[1]} in Atoms : {_term(node[2])} }}"
    if tag == "all":
        return _term(("not", ("ex", node[1], ("not", node[2]))))
    if tag == "not":
        return f"not ({_term(node[1])})"
    if tag in ("and", "or"):
        return f"({_term(node[1])}) {tag} ({_term(node[2])})"
    if tag == "rel":
        return f"{node[1]}({', '.join(node[2])})"
    if tag == "eq":
        return f"{node[1]} = {node[2]}"
    raise ValueError(f"bad sentence node {node!r}")


def compile_sentence(sentence, relation_arities: dict) -> Program:
    """The one-step program for a sentence; its input symbols are the
    relations the sentence mentions."""
    program = parse_program(
        "#steps 2\n#active 40 10\n"
        f"do in parallel Output := {_term(sentence)}; Halt := true enddo\n"
    )
    assert program.static_arity.items() <= relation_arities.items()
    return program


def random_sentence(rng: random.Random, relation_arities: dict, depth: int = 3, scope=()):
    """A random closed sentence over the given relations and equality."""
    scope = list(scope)
    if depth == 0 or (scope and rng.random() < 0.3):
        choices = []
        if scope:
            for name, arity in relation_arities.items():
                choices.append(("rel", name, arity))
            choices.append(("eq",))
        if not choices:
            var = f"v{len(scope)}"
            return (rng.choice(["ex", "all"]), var, random_sentence(rng, relation_arities, 0, scope + [var]))
        pick = rng.choice(choices)
        if pick[0] == "eq":
            return ("eq", rng.choice(scope), rng.choice(scope))
        _, name, arity = pick
        return ("rel", name, tuple(rng.choice(scope) for _ in range(arity)))
    shape = rng.choice(["ex", "all", "and", "or", "not"])
    if shape in ("ex", "all"):
        var = f"v{len(scope)}"
        return (shape, var, random_sentence(rng, relation_arities, depth - 1, scope + [var]))
    if shape == "not":
        return ("not", random_sentence(rng, relation_arities, depth - 1, scope))
    return (
        shape,
        random_sentence(rng, relation_arities, depth - 1, scope),
        random_sentence(rng, relation_arities, depth - 1, scope),
    )
