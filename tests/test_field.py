import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from trisect.curves import Form
from trisect.field import Eis, W, parse_eis, w_pow


def rand_eis(rng, span=9):
    num = lambda: Fraction(rng.randint(-span, span), rng.randint(1, span))
    return Eis(num(), num())


def test_defining_relation():
    assert W * W * W == Eis(1)
    assert W * W + W + 1 == Eis(0)
    assert w_pow(2) == Eis(-1, -1)
    assert w_pow(-1) == w_pow(2)


def test_field_axioms_bulk():
    # 10_000 pseudo-random triples, fixed seed: the axioms are exercised on a
    # broad sample without hypothesis shrinking overhead.
    rng = random.Random(0)
    one = Eis(1)
    for _ in range(10_000):
        x, y, z = (rand_eis(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        assert x + 0 == x and x * 1 == x
        assert x + (-x) == Eis(0)
        if x:
            assert x * x.inverse() == one


def test_norm_is_multiplicative_and_rational():
    rng = random.Random(1)
    for _ in range(2_000):
        x, y = rand_eis(rng), rand_eis(rng)
        assert (x * y).norm() == x.norm() * y.norm()
        assert x.norm() == x.a * x.a - x.a * x.b + x.b * x.b
        assert x * x.conj() == Eis(x.norm())


def test_conjugation_is_an_automorphism():
    rng = random.Random(2)
    for _ in range(2_000):
        x, y = rand_eis(rng), rand_eis(rng)
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()
        assert x.conj().conj() == x
    assert W.conj() == W * W


def test_rational_elements_hash_like_their_rationals():
    rng = random.Random(3)
    values = [0, 1, -1, 7, 2 ** 70, Fraction(1, 3), Fraction(-22, 7)]
    values += [Fraction(rng.randint(-99, 99), rng.randint(1, 99))
               for _ in range(200)]
    for r in values:
        x = Eis(r)
        assert x == r and hash(x) == hash(r)
        assert x in {r} and r in {x}
    assert W not in {0, 1} and Eis(1, 1) != 1


def test_division_and_pow():
    x = Eis(2, 3)
    assert x / x == Eis(1)
    assert 1 / W == W ** 2
    assert W ** -2 == W
    assert x ** 0 == Eis(1)
    assert x ** 3 == x * x * x
    with pytest.raises(ZeroDivisionError):
        Eis(0).inverse()


def test_print_format():
    assert str(Eis(0)) == "0"
    assert str(Eis(5)) == "5"
    assert str(W) == "w"
    assert str(-W) == "-w"
    assert str(Eis(3, 5)) == "3 + 5·w"
    assert str(Eis(3, -5)) == "3 - 5·w"
    assert str(Eis(-1, -1)) == "-1 - w"
    assert str(Eis(Fraction(1, 3), Fraction(-2, 3))) == "1/3 - 2/3·w"


fractions_st = st.fractions(min_value=-50, max_value=50, max_denominator=20)


@given(fractions_st, fractions_st)
def test_parse_round_trip(a, b):
    x = Eis(a, b)
    assert parse_eis(str(x)) == x


def test_floats_are_refused():
    # Eis(0.1) would otherwise be 3602879701896397/36028797018963968
    for args in ((0.1,), (1, 0.5), (0.0, 0)):
        with pytest.raises(TypeError):
            Eis(*args)
    with pytest.raises(TypeError):
        Form({(1, 0, 0): 0.5})


def test_parse_variants_and_errors():
    assert parse_eis("2*w") == Eis(0, 2)
    assert parse_eis(" -1-w ") == Eis(-1, -1)
    assert parse_eis("w+w") == Eis(0, 2)
    for bad in ("", "z", "1 +", "w w", "7516/0", "1 + 3/0·w"):
        with pytest.raises(ValueError):
            parse_eis(bad)


@given(fractions_st, fractions_st, fractions_st, fractions_st)
def test_mul_matches_complex_model(a, b, c, d):
    # Independent oracle: w acts like the matrix [[0, -1], [1, -1]] on the
    # basis (1, w); multiplication must agree with that linear action.
    x, y = Eis(a, b), Eis(c, d)
    z = x * y
    assert z.a == a * c - b * d
    assert z.b == a * d + b * c - b * d


# ---------------------------------------------------------------------------
# Differential test against a Fraction-only reference
# ---------------------------------------------------------------------------

def _matrix(p):
    """a + b*w as the matrix of multiplication by it on the basis (1, w):
    1 -> a + b*w and w -> -b + (a - b)*w, since w^2 = -1 - w."""
    a, b = p
    return ((a, -b), (b, a - b))


def _ref_mul(p, q):
    (m00, m01), (m10, m11) = _matrix(p)
    c, d = q
    return (m00 * c + m01 * d, m10 * c + m11 * d)


def _ref_norm(p):
    (m00, m01), (m10, m11) = _matrix(p)
    return m00 * m11 - m01 * m10


def _ref_inverse(p):
    # first column of the inverse matrix: the adjugate over the determinant
    (m00, m01), (m10, m11) = _matrix(p)
    det = _ref_norm(p)
    return (m11 / det, -m10 / det)


def _ref_pow(p, k):
    base = _ref_inverse(p) if k < 0 else p
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = _ref_mul(out, base)
    return out


def _ref_value(rng, integral: bool):
    if integral:
        return Fraction(rng.randint(-40, 40))
    return Fraction(rng.randint(-40, 40), rng.randint(1, 12))


def _pair_of(x: Eis) -> tuple:
    return (x.a, x.b)


def test_operations_match_a_fraction_pair_reference():
    # values with and without denominators, so that an integer fast path
    # inside Eis is compared with plain Fraction arithmetic on both
    rng = random.Random(15)
    for index in range(600):
        integral = index % 2 == 0
        p = (_ref_value(rng, integral), _ref_value(rng, integral))
        q = (_ref_value(rng, integral), _ref_value(rng, not integral))
        n = rng.randint(-9, 9)
        x, y = Eis(*p), Eis(*q)
        assert _pair_of(x + y) == (p[0] + q[0], p[1] + q[1])
        assert _pair_of(x - y) == (p[0] - q[0], p[1] - q[1])
        assert _pair_of(-x) == (-p[0], -p[1])
        assert _pair_of(x * y) == _ref_mul(p, q)
        assert _pair_of(x + n) == (p[0] + n, p[1])
        assert _pair_of(n - x) == (n - p[0], -p[1])
        assert _pair_of(n * x) == _ref_mul((n, 0), p)
        assert _pair_of(x.conj()) == (p[0] - p[1], -p[1])
        norm = x.norm()
        assert type(norm) is Fraction and norm == _ref_norm(p)
        k = rng.randint(0, 5)
        assert _pair_of(x ** k) == _ref_pow(p, k)
        if not x:
            continue
        assert _pair_of(x.inverse()) == _ref_inverse(p)
        assert _pair_of(y / x) == _ref_mul(q, _ref_inverse(p))
        assert _pair_of(n / x) == _ref_mul((n, 0), _ref_inverse(p))
        assert _pair_of(x ** -k) == _ref_pow(p, -k)
        if n:
            assert _pair_of(x / n) == (p[0] / n, p[1] / n)
