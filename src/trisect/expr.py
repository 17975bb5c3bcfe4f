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
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .covers import hirzebruch
from .rings import (E2, E3_CANONICAL, chi_e2, chi_symmetric_power,
                    triple_product_e3)


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
    factors: tuple   # of Lit, Sym, Scaled or Sum


class Sum(NamedTuple):
    terms: tuple   # of (sign, Term) with sign '+' or '-'



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
_E2 = _Context("E(2)", {"h": (1, 0), "f": (0, 1), "K": E2.canonical},
               chi=chi_e2, pair=E2.pair, triple=None, genus=E2.genus)
_FIXED_CONTEXTS = {ctx.name: ctx for ctx in (_E3, _E2)}


@lru_cache(maxsize=64)
def _fe_context(name: str) -> _Context:
    """The Hirzebruch surface F<e>, with the quantities of its rank-two
    row."""
    surface = hirzebruch(_integer(name[1:]))
    return _Context(
        name, {"C0": (1, 0), "L": (0, 1), "K": surface.canonical},
        surface.chi, surface.pair, None, surface.genus)


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
        return tuple([_apply_head(self.head, ctx, _eval_sum(e, ctx))
                      for e in self.exprs])


# ---------------------------------------------------------------------------
# Tokenizer and parser
# ---------------------------------------------------------------------------

# a symbol is letters with an optional index, as C0; the context's classes
# say which symbols it knows
_TOKEN = re.compile(r"[A-Za-z]+\d*|\d+|[-+*(),]")
# a character that is no whitespace and starts no token; \d is any decimal
# digit here as in _TOKEN, so a number may be written as '٣'
_STRAY = re.compile(r"[^\sA-Za-z\d+*(),-]")

# Each nesting level costs the parser one stack frame and the evaluator two,
# so this bound keeps both well inside the interpreter's recursion limit.
MAX_NESTING = 100


def _tokenize(text: str) -> list:
    stray = _STRAY.search(text)
    if stray is not None:
        raise ParseError(f"unexpected character {stray.group()!r}")
    return _TOKEN.findall(text)


def _integer(digits: str) -> int:
    """A digit string as an int; Python converts at most
    sys.get_int_max_str_digits() digits."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"integer of {len(digits)} digits is too long") from None


def _parse_sum(tokens: list, i: int, symbols: dict, depth: int) -> tuple:
    """The sum that starts at tokens[i], and the index of the token after
    it.  `symbols` maps each symbol of the context to its one Sym node."""
    sign = "+"
    if tokens[i] == "-":
        sign, i = "-", i + 1
    terms, factors = [], []
    while True:
        token = tokens[i]
        i += 1
        factor = symbols.get(token)
        if factor is None:
            if token is None:
                raise ParseError("unexpected end of statement")
            if token == "(":
                if depth == MAX_NESTING:
                    raise ParseError(
                        f"parentheses nest deeper than {MAX_NESTING}")
                factor, i = _parse_sum(tokens, i, symbols, depth + 1)
                if tokens[i] != ")":
                    raise ParseError("missing closing parenthesis" if tokens[i]
                                     else "unexpected end of statement")
                i += 1
            elif not token.isdigit():
                raise ParseError(f"unexpected token {token!r}")
            elif tokens[i] in symbols:
                factor, i = Scaled(_integer(token), tokens[i]), i + 1
            else:
                factor = Lit(_integer(token))
        factors.append(factor)
        op = tokens[i]
        if op == "*":
            i += 1
            continue
        terms.append((sign, Term(tuple(factors))))
        if op != "+" and op != "-":
            return Sum(tuple(terms)), i
        sign, factors, i = op, [], i + 1


# the parser reads only a context's symbols, and every F<e> has those of F0
_SYMBOLS = {ctx.name: {name: Sym(name) for name in ctx.classes}
            for ctx in (_E3, _E2, _fe_context("F0"))}


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
    tokens.append(None)   # marks the end
    symbols = _SYMBOLS.get(context) or _SYMBOLS["F0"]
    expr, i = _parse_sum(tokens, 0, symbols, 0)
    exprs = [expr]
    while tokens[i] == ",":
        expr, i = _parse_sum(tokens, i + 1, symbols, 0)
        exprs.append(expr)
    if tokens[i] is not None:
        raise ParseError(f"trailing input at {tokens[i]!r}")
    return Statement(head, context, tuple(exprs))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# A value is an int (a number) or an (a, b) tuple (a class).

def _eval_term(term: Term, ctx: _Context):
    # the products are multilinear, so a scaled symbol's multiplier joins
    # the scalar
    scalar = 1
    found = []
    classes = ctx.classes
    for factor in term.factors:
        kind = type(factor)
        if kind is Sym:
            found.append(classes[factor.name])
        elif kind is Scaled:
            scalar *= factor.value
            found.append(classes[factor.name])
        elif kind is Lit:
            scalar *= factor.value
        else:
            value = _eval_sum(factor, ctx)
            if type(value) is tuple:
                found.append(value)
            else:
                scalar *= value
    count = len(found)
    if count == 1:
        a, b = found[0]
        return (scalar * a, scalar * b)
    if not count:
        return scalar
    product = ctx.pair if count == 2 else ctx.triple if count == 3 else None
    if product is None:
        raise SemanticError(
            f"a product of {count} classes is not a number on {ctx.name}")
    return scalar * product(*found)


def _eval_sum(expr: Sum, ctx: _Context):
    total = None
    for sign, term in expr.terms:
        value = _eval_term(term, ctx)
        is_class = type(value) is tuple
        if sign == "-":
            value = (-value[0], -value[1]) if is_class else -value
        if total is None:
            total = value
        elif is_class != (type(total) is tuple):
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
