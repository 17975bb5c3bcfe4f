"""A small statement language for the intersection numerics, so single
checks can be run from the command line.

Grammar::

    statement := HEAD CONTEXT ':' expr (',' expr)*
    HEAD      := 'chi' | 'pair' | 'triple' | 'genus'
    CONTEXT   := 'E(2)' | 'E(3)' | 'F' INT
    expr      := ['-'] term (('+' | '-') term)*
    term      := factor ('*' factor)*
    factor    := INT | INT SYMBOL | SYMBOL | '(' expr ')'

The symbols are D and F on the third symmetric product E(3), h and f on the
second symmetric product E(2), C0 and L on the Hirzebruch surface of the
given index, and K everywhere, expanding to the canonical class of the
context.  A product of two classes is the intersection pairing where that
is a number (E(2) and the Hirzebruch surfaces); a product of three classes
in one term is the triple product on E(3).  The head picks the quantity:
'chi' and 'genus' apply to a class, 'pair' and 'triple' assert that the
expression already multiplied out to a number.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

from .covers import FeClass, fe_canonical, fe_chi, fe_genus, fe_pair
from .rings import (
    E2_CANONICAL,
    E3_CANONICAL,
    chi_symmetric_power,
    genus_e2,
    pair_e2,
    triple_product_e3,
)


class DslError(ValueError):
    """Base for statement-language failures."""


class ParseError(DslError):
    """Malformed statement text."""


class SemanticError(DslError):
    """Well-formed statement that asks for an undefined quantity."""


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------

class Lit(NamedTuple):
    value: int


class Sym(NamedTuple):
    name: str


class Scaled(NamedTuple):
    value: int
    name: str


class Term(NamedTuple):
    factors: tuple


class Sum(NamedTuple):
    terms: tuple   # of (sign, Term) with sign '+' or '-'


Factor = Union[Lit, Sym, Scaled, Sum]

HEADS = ("chi", "pair", "triple", "genus")

_STATEMENT = re.compile(
    r"^\s*(chi|pair|triple|genus)\s+(E\(2\)|E\(3\)|F\d+)\s*:(.*)$", re.S)


class Statement(NamedTuple):
    head: str
    context: str
    exprs: tuple   # of Sum

    def evaluate(self) -> tuple:
        ctx = _Context(self.context)
        return tuple(_apply_head(self.head, ctx, _eval_sum_value(e, ctx))
                     for e in self.exprs)


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(C0|[DFhfLK]|\d+|[-+*(),])")

# Each nesting level costs the parser and the evaluator three stack frames,
# so this bound keeps both well inside the interpreter's recursion limit.
MAX_NESTING = 100


def _tokenize(text: str) -> list:
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _integer(digits: str) -> int:
    """A digit string as an int; Python converts at most
    sys.get_int_max_str_digits() digits."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long") from None


class _Parser:
    def __init__(self, tokens, symbols):
        self.tokens = tokens
        self.symbols = symbols
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        token = self.peek()
        if token is None:
            raise ParseError("unexpected end of statement")
        self.pos += 1
        return token

    def parse_exprs(self) -> tuple:
        exprs = [self.parse_sum()]
        while self.peek() == ",":
            self.take()
            exprs.append(self.parse_sum())
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return tuple(exprs)

    def parse_sum(self) -> Sum:
        sign = "+"
        if self.peek() == "-":
            self.take()
            sign = "-"
        terms = [(sign, self.parse_term())]
        while self.peek() in ("+", "-"):
            sign = self.take()
            terms.append((sign, self.parse_term()))
        return Sum(tuple(terms))

    def parse_term(self) -> Term:
        factors = [self.parse_factor()]
        while self.peek() == "*":
            self.take()
            factors.append(self.parse_factor())
        return Term(tuple(factors))

    def parse_factor(self) -> Factor:
        token = self.take()
        if token == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}")
            self.depth += 1
            inner = self.parse_sum()
            self.depth -= 1
            if self.take() != ")":
                raise ParseError("missing closing parenthesis")
            return inner
        if token.isdigit():
            if self.peek() in self.symbols:
                return Scaled(_integer(token), self.take())
            return Lit(_integer(token))
        if token in self.symbols:
            return Sym(token)
        raise ParseError(f"unexpected token {token!r}")


_CONTEXT_SYMBOLS = {
    "E(3)": ("D", "F", "K"),
    "E(2)": ("h", "f", "K"),
}


def _context_symbols(context: str) -> tuple:
    if context in _CONTEXT_SYMBOLS:
        return _CONTEXT_SYMBOLS[context]
    return ("C0", "L", "K")


def parse_statement(text: str) -> Statement:
    m = _STATEMENT.match(text)
    if m is None:
        raise ParseError(
            "statement must look like 'chi E(3): 4D - F' "
            f"(heads: {', '.join(HEADS)})")
    head, context, rest = m.groups()
    tokens = _tokenize(rest)
    if not tokens:
        raise ParseError("statement has no expression")
    parser = _Parser(tokens, _context_symbols(context))
    return Statement(head, context, parser.parse_exprs())


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

class _Context:
    """Classes as (a, b) coefficient pairs on the context's generators; on
    F_e a pair becomes an `FeClass` only where a number is read off it."""

    def __init__(self, name: str):
        self.name = name
        if name == "E(3)":
            self.kind = "E3"
            self.classes = {"D": (1, 0), "F": (0, 1), "K": E3_CANONICAL}
        elif name == "E(2)":
            self.kind = "E2"
            self.classes = {"h": (1, 0), "f": (0, 1), "K": E2_CANONICAL}
        else:
            self.kind = "Fe"
            self.e = _integer(name[1:])
            canonical = fe_canonical(self.e)
            self.classes = {"C0": (1, 0), "L": (0, 1),
                            "K": (canonical.c0, canonical.l)}

    def fe(self, cls) -> FeClass:
        return FeClass(self.e, cls[0], cls[1])

    def pair(self, c1, c2) -> int:
        if self.kind == "E2":
            return pair_e2(c1, c2)
        if self.kind == "Fe":
            return fe_pair(self.fe(c1), self.fe(c2))
        raise SemanticError(
            "a product of two classes is not a number on E(3); "
            "multiply three classes")

    def triple(self, c1, c2, c3) -> int:
        if self.kind != "E3":
            raise SemanticError(
                f"a product of three classes is not defined on {self.name}")
        return triple_product_e3(c1, c2, c3)


def _scale(scalar: int, cls) -> tuple:
    return (scalar * cls[0], scalar * cls[1])


def _eval_factor(factor: Factor, ctx: _Context):
    if isinstance(factor, Lit):
        return ("scalar", factor.value)
    if isinstance(factor, Sym):
        return ("class", ctx.classes[factor.name])
    if isinstance(factor, Scaled):
        return ("class", _scale(factor.value, ctx.classes[factor.name]))
    return _eval_sum_value(factor, ctx)


def _eval_term(term: Term, ctx: _Context):
    scalar = 1
    classes = []
    for factor in term.factors:
        kind, value = _eval_factor(factor, ctx)
        if kind == "scalar":
            scalar *= value
        else:
            classes.append(value)
    if not classes:
        return ("scalar", scalar)
    if len(classes) == 1:
        return ("class", _scale(scalar, classes[0]))
    if len(classes) == 2:
        return ("scalar", scalar * ctx.pair(*classes))
    if len(classes) == 3:
        return ("scalar", scalar * ctx.triple(*classes))
    raise SemanticError("a term may multiply at most three classes")


def _eval_sum_value(expr: Sum, ctx: _Context):
    total_kind = None
    total = None
    for sign, term in expr.terms:
        kind, value = _eval_term(term, ctx)
        if sign == "-":
            value = -value if kind == "scalar" else _scale(-1, value)
        if total_kind is None:
            total_kind, total = kind, value
        elif kind != total_kind:
            raise SemanticError("cannot add a number to a divisor class")
        elif kind == "scalar":
            total += value
        else:
            total = (total[0] + value[0], total[1] + value[1])
    return (total_kind, total)


def _apply_head(head: str, ctx: _Context, result):
    kind, value = result
    if head == "chi":
        if kind != "class":
            raise SemanticError("'chi' needs a divisor class, not a number")
        if ctx.kind == "E3":
            return chi_symmetric_power(3, value[0], value[1])
        if ctx.kind == "E2":
            return chi_symmetric_power(2, value[0], value[1])
        return fe_chi(ctx.fe(value))
    if head == "genus":
        if kind != "class":
            raise SemanticError("'genus' needs a divisor class, not a number")
        if ctx.kind == "E2":
            return genus_e2(value)
        if ctx.kind == "Fe":
            return fe_genus(ctx.fe(value))
        raise SemanticError("'genus' is not defined on E(3)")
    # 'pair' and 'triple' assert the expression already multiplied out
    if kind != "scalar":
        raise SemanticError(f"'{head}' needs a fully multiplied expression")
    if head == "pair" and ctx.kind == "E3":
        raise SemanticError("'pair' is not defined on E(3); use 'triple'")
    if head == "triple" and ctx.kind != "E3":
        raise SemanticError(f"'triple' is only defined on E(3), not {ctx.name}")
    return value


def evaluate_statement(text: str) -> tuple:
    """Parse and evaluate; returns one integer per comma-separated
    expression."""
    return parse_statement(text).evaluate()
