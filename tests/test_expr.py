"""The statement language: parsing, evaluation, and print round-trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trisect.covers import FeClass, fe_canonical, fe_chi, fe_genus, fe_pair
from trisect.expr import (
    Lit,
    ParseError,
    Scaled,
    SemanticError,
    Statement,
    Sum,
    Sym,
    Term,
    evaluate_statement,
    parse_statement,
)
from trisect.rings import (
    E2_CANONICAL,
    E3_CANONICAL,
    chi_symmetric_power,
    genus_e2,
    pair_e2,
    triple_product_e3,
)

from helpers import statement_text


def test_worked_examples():
    assert evaluate_statement("chi E(3): 4D - F") == (5,)
    assert evaluate_statement("pair E(2): (4h - 2f)*f") == (4,)
    assert evaluate_statement("chi F2: 2C0 + 6L") == (15,)
    assert evaluate_statement("triple E(3): D*D*F") == (1,)
    assert evaluate_statement("genus E(2): 4h - f") == (4,)
    assert evaluate_statement("genus F2: 2C0 + 7L") == (4,)
    assert evaluate_statement("chi E(3): 4D - F, 3D - F") == (5, 0)
    assert evaluate_statement("triple E(3): K*K*K") == (0,)
    assert evaluate_statement("triple E(3): (4D - F)*(4D - F)*(4D - F)") == (16,)
    assert evaluate_statement("pair F2: (2C0 + 7L)*(2C0 + 7L) - 14") == (6,)
    assert evaluate_statement("genus E(2): K + (4h - f)") == (2,)
    assert evaluate_statement("genus E(2): h") == (1,)


def test_scalar_arithmetic():
    assert evaluate_statement("pair E(2): 2*3 + 1") == (7,)
    assert evaluate_statement("pair E(2): h*f - f*f") == (1,)
    assert evaluate_statement("triple E(3): 2*(D*D*F)") == (2,)


def test_parse_errors():
    for bad in (
        "chi E(3) 4D - F",          # missing colon
        "chi G(3): D",              # unknown context
        "frobnicate E(3): D",       # unknown head
        "chi E(3):",                # empty expression
        "chi E(3): 4D - f",         # symbol from the wrong context
        "chi E(3): (4D - F",        # unbalanced parenthesis
        "chi E(3): 4D - F)",        # trailing input
        "chi E(3): 4D ! F",         # stray character
        "chi E(3): 4D - F,",        # dangling comma
    ):
        with pytest.raises(ParseError):
            parse_statement(bad)


def test_semantic_errors():
    for bad in (
        "pair E(3): D*F",           # pairing is not a number on E(3)
        "pair E(3): D",             # and the head is wrong there anyway
        "triple E(2): h*f",         # no triple product on E(2)
        "genus E(3): D",            # genus undefined on E(3)
        "chi E(2): h*f",            # chi of a number
        "pair E(2): h",             # unfinished pairing
        "chi E(3): D*D*D*D",        # too many class factors
        "chi E(3): D + 1",          # class plus number
    ):
        with pytest.raises(SemanticError):
            evaluate_statement(bad)


def test_statement_str_examples():
    stmt = parse_statement("chi E(3): 4D - F, 3D - F")
    assert statement_text(stmt) == "chi E(3): 4D - F, 3D - F"
    assert parse_statement(statement_text(stmt)) == stmt
    nested = parse_statement("pair E(2): (4h - 2f)*f")
    assert statement_text(nested) == "pair E(2): (4h - 2f)*f"
    assert parse_statement(statement_text(nested)) == nested


# ---------------------------------------------------------------------------
# Round-trip property over generated syntax trees
# ---------------------------------------------------------------------------

_CONTEXTS = ("E(3)", "E(2)", "F2", "F0", "F11")
_SYMBOLS = {"E(3)": ("D", "F", "K"), "E(2)": ("h", "f", "K")}


def _symbols(context):
    return _SYMBOLS.get(context, ("C0", "L", "K"))


def _statements():
    def flat_factor(context):
        sym = st.sampled_from(_symbols(context))
        return st.one_of(
            st.integers(0, 40).map(Lit),
            sym.map(Sym),
            st.tuples(st.integers(0, 40), sym).map(lambda t: Scaled(*t)),
        )

    def term(context, factor):
        return st.lists(factor, min_size=1, max_size=3).map(
            lambda fs: Term(tuple(fs)))

    def sum_of(context, factor):
        signed = st.tuples(st.sampled_from("+-"), term(context, factor))
        return st.lists(signed, min_size=1, max_size=3).map(
            lambda ts: Sum(tuple(ts)))

    def statement(context):
        inner = sum_of(context, flat_factor(context))
        factor = st.one_of(flat_factor(context), inner)
        exprs = st.lists(sum_of(context, factor), min_size=1, max_size=3)
        return st.tuples(st.sampled_from(("chi", "pair", "triple", "genus")),
                         exprs).map(
            lambda t: Statement(t[0], context, tuple(t[1])))

    return st.sampled_from(_CONTEXTS).flatmap(statement)


@given(_statements())
def test_print_parse_round_trip(stmt):
    assert parse_statement(statement_text(stmt)) == stmt


# ---------------------------------------------------------------------------
# Differential tests: statements against the library called directly
# ---------------------------------------------------------------------------

def _class_text(cls, gens) -> str:
    """a*g0 + b*g1 in the grammar: a leading minus sign, and every
    coefficient written, zero included."""
    (a, b), (g0, g1) = cls, gens
    head = f"-{-a}{g0}" if a < 0 else f"{a}{g0}"
    return f"{head} {'-' if b < 0 else '+'} {abs(b)}{g1}"


class _Drawn:
    """A class drawn as k*(c1) + sign*c2 [+ K], its statement text, and the
    coefficient pair the text stands for."""

    def __init__(self, context, k, c1, sign, c2, with_k):
        gens = _symbols(context)[:2]
        self.text = (f"{k}*({_class_text(c1, gens)}) {sign} "
                     f"({_class_text(c2, gens)})" + (" + K" if with_k else ""))
        s = 1 if sign == "+" else -1
        canonical = _canonical(context) if with_k else (0, 0)
        self.pair = (k * c1[0] + s * c2[0] + canonical[0],
                     k * c1[1] + s * c2[1] + canonical[1])


def _canonical(context):
    if context == "E(3)":
        return E3_CANONICAL
    if context == "E(2)":
        return E2_CANONICAL
    k = fe_canonical(int(context[1:]))
    return (k.c0, k.l)


# the library's value of each head on each context that defines it, from the
# classes x, y, z; every other pair of a head and a context is undefined
_DEFINED = {
    ("chi", "E(3)"): lambda x, y, z: chi_symmetric_power(3, *x),
    ("triple", "E(3)"): lambda x, y, z: triple_product_e3(x, y, z),
    ("chi", "E(2)"): lambda x, y, z: chi_symmetric_power(2, *x),
    ("pair", "E(2)"): lambda x, y, z: pair_e2(x, y),
    ("genus", "E(2)"): lambda x, y, z: genus_e2(x),
    ("chi", "F2"): lambda x, y, z: fe_chi(FeClass(2, *x)),
    ("pair", "F2"): lambda x, y, z: fe_pair(FeClass(2, *x), FeClass(2, *y)),
    ("genus", "F2"): lambda x, y, z: fe_genus(FeClass(2, *x)),
}


def test_every_head_on_every_context():
    classes = ((4, -1), (-3, 2), (1, 5))
    for context in ("E(3)", "E(2)", "F2"):
        x, y, z = (f"({_class_text(c, _symbols(context)[:2])})"
                   for c in classes)
        for head, text in (("chi", x), ("pair", f"{x}*{y}"),
                           ("triple", f"{x}*{y}*{z}"), ("genus", x)):
            statement = f"{head} {context}: {text}"
            if (head, context) in _DEFINED:
                assert evaluate_statement(statement) == (
                    _DEFINED[head, context](*classes),), statement
            else:
                with pytest.raises(SemanticError):
                    evaluate_statement(statement)


_coefficients = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


def _drawn(context):
    return st.builds(_Drawn, st.just(context), st.integers(0, 5),
                     _coefficients, st.sampled_from("+-"), _coefficients,
                     st.booleans())


_EVAL_CONTEXTS = st.sampled_from(
    ("E(3)", "E(2)") + tuple(f"F{e}" for e in range(5)))


@given(_EVAL_CONTEXTS.flatmap(
    lambda ctx: st.tuples(st.just(ctx), st.lists(_drawn(ctx), min_size=3,
                                                 max_size=3))))
def test_statements_match_the_library(drawn):
    context, (x, y, z) = drawn
    if context == "E(3)":
        assert evaluate_statement(f"chi E(3): {x.text}") == (
            chi_symmetric_power(3, *x.pair),)
        assert evaluate_statement(
            f"triple E(3): ({x.text})*({y.text})*({z.text})") == (
            triple_product_e3(x.pair, y.pair, z.pair),)
        return
    if context == "E(2)":
        chi = chi_symmetric_power(2, *x.pair)
        genus = genus_e2(x.pair)
        pair = pair_e2(x.pair, y.pair)
    else:
        e = int(context[1:])
        d1, d2 = FeClass(e, *x.pair), FeClass(e, *y.pair)
        chi, genus, pair = fe_chi(d1), fe_genus(d1), fe_pair(d1, d2)
    assert evaluate_statement(f"chi {context}: {x.text}") == (chi,)
    assert evaluate_statement(f"genus {context}: {x.text}") == (genus,)
    assert evaluate_statement(
        f"pair {context}: ({x.text})*({y.text})") == (pair,)
