"""Concrete syntax for set-machine program files, and every static rule.

Header lines (before the body):

    #steps <c0> <c1> ...       step budget polynomial, low degree first
    #active <c0> <c1> ...      active-element budget polynomial
    #requires card             enables the cardinality builtin

A header line may end in a ``//`` comment, and each header appears at most
once.

Body grammar (keywords are reserved):

    rule  := "skip"
           | lhs ":=" term
           | "if" term "then" rule ["else" rule] "endif"
           | "do" "forall" NAME "in" term "," rule "enddo"
           | "do" "in" "parallel" rule {";" rule} [";"] "enddo"
    lhs   := NAME ["(" term {"," term} ")"]
    term  := disjunction with infix "or" / "and", prefix "not",
             comparisons "=", "!=", "in", "notin",
             applications NAME["(" args ")"], integer literals,
             "(" term ")" and comprehension "{" term ":" NAME "in" term
             [":" term] "}"

``x != y`` and ``x notin y`` are sugar for negated ``eq`` / ``in``.
Full-line comments start with ``//``.

The parser is the only checker: a program it returns is closed and
well-formed, and every error in the body names the line and column of
the token where it happens.  A broken rule is recorded and the parse goes
on until the text ends or its syntax fails; of the errors met by then,
the first in the text is raised.  The rules:

- A bare name is a bound variable when a ``forall`` or comprehension
  binder is in scope, otherwise a nullary symbol; an unbound lowercase
  name that is never assigned is an unbound variable (upper-case
  initials name input constants).  A variable cannot be applied.
- A binder may not be read in its own range: ``do forall v in r`` and
  ``{ t : v in r }`` reject an outer ``v`` read in ``r``, unless a binder
  inside ``r`` rebinds it.
- Symbols ever assigned to are dynamic, all other non-builtin symbols
  are input symbols, and each symbol keeps one arity.  Builtins have
  their fixed arity and cannot be assigned; ``Halt`` and ``Output`` are
  nullary; ``Card`` needs ``#requires card``.
- ``if`` guards, comprehension guards and the values given to ``Halt``
  and ``Output`` are Boolean: an application of a logical builtin, a
  membership test, ``Halt``, ``Output`` or an input symbol.  The input
  symbols used so form ``Program.boolean_static_uses`` and must be
  relations in any structure the program runs on.

The assigned symbols are collected in one pass over the tokens before the
parse, so every rule is decided as the parse meets it: a name at its own
token, an application's arity once its arguments are read, a Boolean
position as soon as its term is read.  The last two are reported at the
term's first token, ahead of any error inside the term.

Nesting is capped at ``MAX_NESTING`` levels (each rule and each term is a
level, and each ``not``, ``and`` and ``or`` adds one within its term), so
no program that parses can exhaust the recursion limit downstream.
"""

from __future__ import annotations

import re

from ..errors import ParseError, read_decimal
from .syntax import (
    App,
    BOOLEAN_BUILTINS,
    BOOLEAN_DYNAMICS,
    BUILTIN_ARITY,
    Compr,
    Cond,
    Forall,
    Lit,
    Par,
    Program,
    RunBounds,
    Skip,
    Update,
    Var,
)

__all__ = ["MAX_NESTING", "parse_program"]

MAX_NESTING = 100

_KEYWORDS = {
    "skip",
    "if",
    "then",
    "else",
    "endif",
    "do",
    "forall",
    "in",
    "parallel",
    "enddo",
    "notin",
    "and",
    "or",
    "not",
}

# one match per token, the whitespace and ``//`` comments before it
# skipped inside the match: every character starts some token, a "bad"
# one if nothing else, and the empty token at the end is "eof"
_TOKEN_RE = re.compile(
    r"((?:\s+|//[^\n]*)*)(:=|!=|\d+|[A-Za-z_][A-Za-z0-9_]*|[(){},;:=]|.|\Z)",
    re.DOTALL,
)
# a token's kind by its text, else by its first character; any other
# token of digits is a "num" of non-ASCII digits, and the rest are "bad"
_KINDS = {
    ":=": "assign",
    "!=": "noteq",
    "": "eof",
    **dict.fromkeys("(){},;:=", "punct"),
    **dict.fromkeys("0123456789", "num"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_", "name"),
}


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str):
    """The tokens of a program body, each with its line and column, in
    one regex pass; the last token is "eof".  Only skipped text holds a
    newline, so a token's line and column follow from the lengths of the
    tokens and skips before it."""
    tokens = []
    line = 1
    line_start = 0  # where the current line begins
    pos = 0  # where the current token begins
    for skipped, chunk in _TOKEN_RE.findall(text):
        pos += len(skipped)
        if "\n" in skipped:
            line += skipped.count("\n")
            line_start = pos - len(skipped) + skipped.rindex("\n") + 1
        kind = _KINDS.get(chunk) or _KINDS.get(chunk[0]) or ("num" if chunk.isdecimal() else "bad")
        tokens.append(_Token(kind, chunk, line, pos - line_start + 1))
        if not chunk:
            return tokens
        pos += len(chunk)


class _Parser:
    """Recursive descent over the body tokens.  ``bound`` maps each
    variable in scope to None or, inside the range of a binder of the same
    name, to that binder's kind ("forall" or "comprehension"): reading the
    variable there is an error."""

    def __init__(self, tokens, card_enabled):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.card_enabled = card_enabled
        self.dynamic = _assigned_names(tokens)
        self.assigned: dict = {}  # dynamic symbol -> arity
        self.applied: dict = {}  # any applied symbol -> arity (consistency)
        self.boolean_static_uses: set = set()
        self.errors: list = []  # the rule violations met so far

    # -- token helpers -------------------------------------------------

    def peek(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind == "bad":
            raise ParseError(f"unexpected character {tok.text!r}", tok.line, tok.col)
        return tok

    def advance(self) -> _Token:
        """The token just peeked at, consumed."""
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return self.advance()

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def report(self, message: str, tok: _Token) -> None:
        """Record a broken rule at its token and parse on, so that an error
        found later but sitting earlier in the text can still come first."""
        self.errors.append(ParseError(message, tok.line, tok.col))

    def descend(self):
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"nesting deeper than {MAX_NESTING} levels")

    # -- terms ----------------------------------------------------------

    def term(self, bound) -> object:
        # every not / and / or of this term adds a level until it ends
        self.descend()
        outer = self.depth
        node = self.and_term(bound)
        while self.at("or"):
            self.descend()
            self.advance()
            node = App("or", (node, self.and_term(bound)))
        self.depth = outer - 1
        return node

    def and_term(self, bound):
        node = self.not_term(bound)
        while self.at("and"):
            self.descend()
            self.advance()
            node = App("and", (node, self.not_term(bound)))
        return node

    def not_term(self, bound):
        if self.at("not"):
            self.descend()
            self.advance()
            return App("not", (self.not_term(bound),))
        return self.comparison(bound)

    def comparison(self, bound):
        node = self.atom(bound)
        tok = self.peek()
        if tok.text == "=":
            self.advance()
            return App("eq", (node, self.atom(bound)))
        if tok.text == "!=":
            self.advance()
            return App("not", (App("eq", (node, self.atom(bound))),))
        if tok.text == "in":
            self.advance()
            return App("in", (node, self.atom(bound)))
        if tok.text == "notin":
            self.advance()
            return App("not", (App("in", (node, self.atom(bound))),))
        return node

    def atom(self, bound):
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Lit(read_decimal(tok.text, "literal", tok.line, tok.col))
        if tok.text == "(":
            self.advance()
            inner = self.term(bound)
            self.expect(")")
            return inner
        if tok.text == "{":
            return self.comprehension(bound)
        if tok.kind == "name":
            if tok.text in _KEYWORDS:
                self.fail(f"unexpected keyword {tok.text!r}")
            self.advance()
            if tok.text == "Card" and not self.card_enabled:
                self.report("Card used but the program does not enable it", tok)
            if self.at("("):
                if tok.text in bound:
                    self.report(f"variable {tok.text!r} cannot be applied", tok)
                args = self.arguments(bound)
                self.note_applied(tok, len(args))
                return App(tok.text, tuple(args))
            if tok.text in bound:
                kind = bound[tok.text]
                if kind:
                    self.report(f"{kind} variable {tok.text!r} occurs free in its range", tok)
                return Var(tok.text)
            self.note_applied(tok, 0)
            lower = tok.text[0].islower()
            if lower and tok.text not in BUILTIN_ARITY and tok.text not in self.dynamic:
                self.report(f"unbound variable {tok.text!r}", tok)
            return App(tok.text, ())
        self.fail(f"expected a term, found {tok.text or 'end of input'!r}")

    def arguments(self, bound):
        self.expect("(")
        args = [self.term(bound)]
        while self.at(","):
            self.advance()
            args.append(self.term(bound))
        self.expect(")")
        return args

    def comprehension(self, bound):
        self.expect("{")
        open_tok = self.tokens[self.pos - 1]
        # the element term sees the binder, which is only known after the
        # first ':' -- parse speculatively by scanning for the binder name
        save = self.pos
        depth = 0
        binder = None
        while True:
            tok = self.tokens[self.pos]
            if tok.kind == "eof":
                raise ParseError("unterminated comprehension", open_tok.line, open_tok.col)
            if tok.text in "({":
                depth += 1
            elif tok.text in ")}":
                if depth == 0 and tok.text == "}":
                    break
                depth -= 1
            elif tok.text == ":" and depth == 0:
                nxt = self.tokens[self.pos + 1]
                if nxt.kind == "name" and nxt.text not in _KEYWORDS:
                    binder = nxt.text
                break
            self.pos += 1
        if binder is None:
            raise ParseError("comprehension needs ': name in range'", open_tok.line, open_tok.col)
        self.pos = save
        inner = {**bound, binder: None}
        element = self.term(inner)
        self.expect(":")
        var_tok = self.advance()
        self.expect("in")
        source = self.term(_range_scope(bound, binder, "comprehension"))
        if self.at(":"):
            self.advance()
            guard = self.boolean(inner, "comprehension guard must be Boolean")
        else:
            guard = App("true", ())
        self.expect("}")
        return Compr(element, var_tok.text, source, guard)

    # -- rules ----------------------------------------------------------

    def rule(self, bound):
        self.descend()
        tok = self.peek()
        if tok.text == "skip":
            self.advance()
            node = Skip()
        elif tok.text == "if":
            self.advance()
            guard = self.boolean(bound, "conditional guard must be Boolean")
            self.expect("then")
            then_rule = self.rule(bound)
            if self.at("else"):
                self.advance()
                else_rule = self.rule(bound)
            else:
                else_rule = Skip()
            self.expect("endif")
            node = Cond(guard, then_rule, else_rule)
        elif tok.text == "do":
            self.advance()
            if self.at("forall"):
                self.advance()
                var_tok = self.peek()
                if var_tok.kind != "name" or var_tok.text in _KEYWORDS:
                    raise ParseError("expected a variable name", var_tok.line, var_tok.col)
                self.advance()
                self.expect("in")
                source = self.term(_range_scope(bound, var_tok.text, "forall"))
                self.expect(",")
                body = self.rule({**bound, var_tok.text: None})
                self.expect("enddo")
                node = Forall(var_tok.text, source, body)
            else:
                self.expect("in")
                self.expect("parallel")
                rules = [self.rule(bound)]
                while self.at(";"):
                    self.advance()
                    if self.at("enddo"):
                        break
                    rules.append(self.rule(bound))
                self.expect("enddo")
                node = Par(tuple(rules))
        elif tok.kind == "name" and tok.text not in _KEYWORDS:
            self.advance()
            args = self.arguments(bound) if self.at("(") else []
            assign = self.peek()
            if assign.text != ":=":
                raise ParseError(
                    f"expected ':=' after {tok.text!r}", assign.line, assign.col
                )
            self.note_assigned(tok, len(args))
            self.advance()
            if tok.text in BOOLEAN_DYNAMICS:
                value = self.boolean(bound, f"{tok.text} only takes Boolean values")
            else:
                value = self.term(bound)
            node = Update(tok.text, tuple(args), value)
        else:
            self.fail(f"expected a rule, found {tok.text or 'end of input'!r}")
        self.depth -= 1
        return node

    # -- symbol bookkeeping ----------------------------------------------

    def boolean(self, bound, message):
        """A term in a Boolean position, rejected at its first token unless
        it is a logical builtin, a membership test, ``Halt``, ``Output`` or
        an input symbol."""
        tok = self.peek()
        node = self.term(bound)
        symbol = node.symbol if isinstance(node, App) else None
        if symbol in BOOLEAN_BUILTINS or symbol in BOOLEAN_DYNAMICS:
            return node
        if symbol is None or symbol in BUILTIN_ARITY or symbol in self.dynamic:
            self.report(message, tok)
        else:
            self.boolean_static_uses.add(symbol)
        return node

    def note_applied(self, tok, arity):
        fixed = 0 if tok.text in BOOLEAN_DYNAMICS else BUILTIN_ARITY.get(tok.text)
        if fixed is not None and arity != fixed:
            self.report(f"{tok.text} expects {fixed} arguments, got {arity}", tok)
        elif tok.text not in BUILTIN_ARITY:
            prev = self.applied.setdefault(tok.text, arity)
            if prev != arity:
                self.report(f"{tok.text!r} used with arities {prev} and {arity}", tok)

    def note_assigned(self, tok, arity):
        if tok.text in BUILTIN_ARITY:
            self.report(f"cannot assign to builtin {tok.text!r}", tok)
            return
        prev = self.assigned.setdefault(tok.text, arity)
        if prev != arity:
            self.report(f"{tok.text!r} assigned with arities {prev} and {arity}", tok)
        else:
            self.note_applied(tok, arity)


def _assigned_names(tokens) -> frozenset:
    """The names a program assigns: each name before ``:=``, or before the
    balanced argument list that precedes ``:=``."""
    names = set()
    for k, tok in enumerate(tokens):
        if tok.text != ":=":
            continue
        depth = 0
        k -= 1
        while k > 0 and (depth or tokens[k].text == ")"):
            depth += (tokens[k].text == ")") - (tokens[k].text == "(")
            k -= 1
        if k >= 0 and tokens[k].kind == "name":
            names.add(tokens[k].text)
    return frozenset(names)


def _range_scope(bound, var, kind):
    """The scope of a binder's range: an outer ``var`` stays bound, so it
    is not read as a symbol, but reading it is an error."""
    return {**bound, var: kind} if var in bound else bound


def _parse_headers(text: str):
    budgets: dict = {}
    header_line: dict = {}  # header -> line number
    body_lines = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("#"):
            parts = line[1:].split("//", 1)[0].split()
            if not parts:
                raise ParseError("empty header line", line_no)
            head, rest = parts[0], parts[1:]
            if head in header_line:
                raise ParseError(f"second {head} header, after line {header_line[head]}", line_no)
            header_line[head] = line_no
            if head in ("steps", "active"):
                if not rest:
                    raise ParseError("budget coefficients must be nonnegative integers", line_no)
                budgets[head] = tuple(read_decimal(x, "budget coefficient", line_no) for x in rest)
            elif head == "requires":
                if rest != ["card"]:
                    raise ParseError(f"unknown requirement {rest!r}", line_no)
            else:
                raise ParseError(f"unknown header {head!r}", line_no)
            body_lines.append("")
        else:
            body_lines.append(raw)
    if len(budgets) < 2:
        raise ParseError("program needs #steps and #active headers")
    bounds = RunBounds(budgets["steps"], budgets["active"], card_enabled="requires" in header_line)
    return bounds, "\n".join(body_lines)


def parse_program(text: str) -> Program:
    """Parse program text into a checked :class:`Program`."""
    bounds, body = _parse_headers(text)
    parser = _Parser(_tokenize(body), bounds.card_enabled)
    try:
        rule = parser.rule({})
        eof = parser.peek()
        if eof.kind != "eof":
            raise ParseError(f"trailing input {eof.text!r}", eof.line, eof.col)
    except ParseError as exc:  # a syntax error: the parse stops here
        parser.errors.append(exc)
    if parser.errors:
        raise min(parser.errors, key=lambda exc: (exc.line, exc.column))
    dynamic = {"Halt": 0, "Output": 0, **parser.assigned}
    static = {name: arity for name, arity in parser.applied.items() if name not in dynamic}
    return Program(rule, bounds, dynamic, static, frozenset(parser.boolean_static_uses))
