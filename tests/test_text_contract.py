"""The text-input contract: every entry point that reads text returns a
value or raises its documented exception, on seeded statements and
literals that are mostly malformed.  `evaluate_statement` raises only
`DslError`; `parse_eis` and `parse_form` raise only `ValueError`."""

import random

from trisect.curves import Form, parse_form
from trisect.expr import DslError, evaluate_statement
from trisect.field import Eis, parse_eis

_SYMBOLS = {"E(3)": ("D", "F", "K"), "E(2)": ("h", "f", "K"),
            "F": ("C0", "L", "K")}
_HEADS = {"E(3)": ("chi", "triple"), "E(2)": ("chi", "genus", "pair"),
          "F": ("chi", "genus", "pair")}


def _class_text(rng, symbols, nested):
    """A sum of three terms, as the benchmark's statements are: a multiple
    of a symbol, a multiple of a parenthesised sum or of a symbol, and a
    bare symbol."""
    terms = []
    for index in range(3):
        if index == 1 and nested:
            text = f"{rng.randint(2, 3)}*({_class_text(rng, symbols, False)})"
        elif index < 2:
            text = f"{rng.randint(2, 5)}{rng.choice(symbols)}"
        else:
            text = rng.choice(symbols)
        terms.append(text if not index else f"{rng.choice('+-')} {text}")
    return " ".join(terms)


def _statement(rng):
    family = rng.choice(sorted(_SYMBOLS))
    context = f"F{rng.randint(0, 3)}" if family == "F" else family
    head = rng.choice(_HEADS[family])
    arity = {"pair": 2, "triple": 3}.get(head, 1)
    parts = [_class_text(rng, _SYMBOLS[family], True) for _ in range(arity)]
    body = parts[0] if arity == 1 else "*".join(f"({p})" for p in parts)
    return f"{head} {context}: {body}"


# edits: the grammar's own characters, other contexts and heads, and
# characters it must refuse or treat as whitespace or digits
_EDITS = (list("0123456789DFhfCLK+-*(),: ") +
          ["C0", "E(2)", "F1", "chi ", "genus ", "\t", "\n", " ",
           "٣", "!", "/", "x", "é", "²"])


def _mutated(rng, text):
    for _ in range(rng.randint(0, 3)):
        pos = rng.randint(0, len(text))
        edit = rng.random()
        if edit < 0.4:
            text = text[:pos] + rng.choice(_EDITS) + text[pos:]
        elif edit < 0.7:
            text = text[:pos] + text[pos + 1:]
        else:
            text = text[:pos] + rng.choice(_EDITS) + text[pos + 1:]
    return text


def test_mutated_statements_give_integers_or_a_dsl_error():
    rng = random.Random(2101)
    outcomes = {"value": 0, "error": 0}
    for _ in range(5000):
        text = _mutated(rng, _statement(rng))
        try:
            value = evaluate_statement(text)
        except DslError:
            outcomes["error"] += 1
            continue
        assert type(value) is tuple and value, text
        assert all(type(v) is int for v in value), text
        outcomes["value"] += 1
    # both outcomes are well represented, so the test sees each route
    assert min(outcomes.values()) > 500, outcomes


def _random_strings(rng, alphabet, count):
    return ["".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
            for _ in range(count)]


def test_random_literals_give_a_value_or_a_value_error():
    rng = random.Random(2102)
    for parse, kind, alphabet in (
            (parse_eis, Eis, "0123/+-w·* "),
            (parse_form, Form, "x0123^*+-()/w· ")):
        parsed = 0
        for text in _random_strings(rng, alphabet, 5000):
            try:
                value = parse(text)
            except ValueError:
                continue
            assert isinstance(value, kind), text
            parsed += 1
        assert parsed > 100, (parse.__name__, parsed)
