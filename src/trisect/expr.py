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
from typing import Callable, NamedTuple, Optional, Union

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


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------

class _Context(NamedTuple):
    """One context as a row: its classes as (a, b) coefficient pairs on the
    generators, K among them, and the integer each quantity gives on
    classes, None where the context does not define the quantity."""

    name: str
    classes: dict
    chi: Optional[Callable]      # class -> int
    pair: Optional[Callable]     # class, class -> int
    triple: Optional[Callable]   # class, class, class -> int
    genus: Optional[Callable]    # class -> int


_E3 = _Context("E(3)", {"D": (1, 0), "F": (0, 1), "K": E3_CANONICAL},
               chi=lambda c: chi_symmetric_power(3, *c), pair=None,
               triple=triple_product_e3, genus=None)
_E2 = _Context("E(2)", {"h": (1, 0), "f": (0, 1), "K": E2_CANONICAL},
               chi=lambda c: chi_symmetric_power(2, *c), pair=pair_e2,
               triple=None, genus=genus_e2)
_FIXED_CONTEXTS = {ctx.name: ctx for ctx in (_E3, _E2)}


def _fe_context(name: str) -> _Context:
    """The Hirzebruch surface F<e>: a pair becomes an `FeClass` only where a
    number is read off it."""
    e = _integer(name[1:])
    canonical = fe_canonical(e)
    return _Context(
        name, {"C0": (1, 0), "L": (0, 1), "K": (canonical.c0, canonical.l)},
        lambda c: fe_chi(FeClass(e, *c)),
        lambda c1, c2: fe_pair(FeClass(e, *c1), FeClass(e, *c2)),
        None,   # no triple product
        lambda c: fe_genus(FeClass(e, *c)))


# a head names the quantity of the row it reads
HEADS = _Context._fields[2:]

_STATEMENT = re.compile(
    rf"^\s*({'|'.join(HEADS)})"
    rf"\s+({'|'.join(map(re.escape, _FIXED_CONTEXTS))}|F\d+)\s*:(.*)$", re.S)


class Statement(NamedTuple):
    head: str
    context: str
    exprs: tuple   # of Sum

    def evaluate(self) -> tuple:
        ctx = _FIXED_CONTEXTS.get(self.context) or _fe_context(self.context)
        return tuple(_apply_head(self.head, ctx, _eval_sum_value(e, ctx))
                     for e in self.exprs)


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

# a symbol is letters with an optional index, as C0; the context's classes
# say which symbols it knows
_TOKEN = re.compile(r"\s*([A-Za-z]+\d*|\d+|[-+*(),])")

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
        self.tokens = tokens + [None]   # None marks the end
        self.symbols = symbols
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        token = self.tokens[self.pos]
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


# the parser reads only a context's symbols, and every F<e> has those of F0
_F0 = _fe_context("F0")


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
    parser = _Parser(tokens, _FIXED_CONTEXTS.get(context, _F0).classes)
    return Statement(head, context, parser.parse_exprs())


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _scale(scalar: int, cls) -> tuple:
    return (scalar * cls[0], scalar * cls[1])


# A value is an int (a number) or an (a, b) tuple (a class).

def _eval_factor(factor: Factor, ctx: _Context):
    if isinstance(factor, Lit):
        return factor.value
    if isinstance(factor, Sym):
        return ctx.classes[factor.name]
    if isinstance(factor, Scaled):
        return _scale(factor.value, ctx.classes[factor.name])
    return _eval_sum_value(factor, ctx)


def _eval_term(term: Term, ctx: _Context):
    scalar = 1
    classes = []
    for factor in term.factors:
        value = _eval_factor(factor, ctx)
        if isinstance(value, tuple):
            classes.append(value)
        else:
            scalar *= value
    if not classes:
        return scalar
    if len(classes) == 1:
        return _scale(scalar, classes[0])
    product = {2: ctx.pair, 3: ctx.triple}.get(len(classes))
    if product is None:
        raise SemanticError(
            f"a product of {len(classes)} classes is not a number on {ctx.name}")
    return scalar * product(*classes)


def _eval_sum_value(expr: Sum, ctx: _Context):
    total = None
    for sign, term in expr.terms:
        value = _eval_term(term, ctx)
        is_class = isinstance(value, tuple)
        if sign == "-":
            value = _scale(-1, value) if is_class else -value
        if total is None:
            total = value
        elif is_class != isinstance(total, tuple):
            raise SemanticError("cannot add a number to a divisor class")
        elif is_class:
            total = (total[0] + value[0], total[1] + value[1])
        else:
            total += value
    return total


def _apply_head(head: str, ctx: _Context, value):
    takes_class = head in ("chi", "genus")
    if isinstance(value, tuple) != takes_class:
        raise SemanticError(f"'{head}' needs a divisor class" if takes_class
                            else f"'{head}' needs a fully multiplied expression")
    quantity = getattr(ctx, head)
    if quantity is None:
        raise SemanticError(f"'{head}' is not defined on {ctx.name}")
    # 'pair' and 'triple' assert the expression already multiplied out
    return quantity(value) if takes_class else value


def evaluate_statement(text: str) -> tuple:
    """Parse and evaluate; returns one integer per comma-separated
    expression."""
    return parse_statement(text).evaluate()
