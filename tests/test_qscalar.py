"""Exact-arithmetic core: oracle-checked q-combinatorics and field axioms."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import q_pochhammer
from evaluation import eval_laurent
from qweyl.opcalc import QPolynomial, poly_from_text
from qweyl.qscalar import (InexactDivisionError, LaurentPoly, QDivisionByZero,
                           ScalarQ, q_binomial, q_factorial, q_integer)


# --- independent dict-level oracles -----------------------------------------

def dict_mul(a, b):
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, Fraction(0)) + v1 * v2
    return {e: v for e, v in out.items() if v}


def dict_divexact(a, b):
    """Brute-force exact Laurent division, independent of the library."""
    lo_a, lo_b = min(a), min(b)
    da = [Fraction(0)] * (max(a) - lo_a + 1)
    for e, v in a.items():
        da[e - lo_a] = v
    db = [Fraction(0)] * (max(b) - lo_b + 1)
    for e, v in b.items():
        db[e - lo_b] = v
    quo = [Fraction(0)] * (len(da) - len(db) + 1)
    for i in range(len(da) - 1, len(db) - 2, -1):
        c = da[i] / db[-1]
        quo[i - len(db) + 1] = c
        for j in range(len(db)):
            da[i - len(db) + 1 + j] -= c * db[j]
    assert not any(da), "oracle division not exact"
    return {i + lo_a - lo_b: v for i, v in enumerate(quo) if v}


def rand_laurent(rng, max_terms=4, span=5):
    return LaurentPoly({rng.randint(-span, span): rng.randint(-6, 6)
                        for _ in range(rng.randint(1, max_terms))})


# --- q-integers --------------------------------------------------------------

def test_q_integer_trivial():
    assert q_integer(0) == LaurentPoly.zero()
    assert q_integer(1) == LaurentPoly.one()


def test_q_integer_three_by_division_oracle():
    expected = dict_divexact({3: Fraction(1), -3: Fraction(-1)},
                             {1: Fraction(1), -1: Fraction(-1)})
    assert q_integer(3) == LaurentPoly(expected)
    assert q_integer(3) == LaurentPoly({2: 1, 0: 1, -2: 1})


def test_q_integer_negative_antisymmetric():
    expected = dict_divexact({-2: Fraction(1), 2: Fraction(-1)},
                             {1: Fraction(1), -1: Fraction(-1)})
    assert q_integer(-2) == LaurentPoly(expected)
    for a in range(-8, 9):
        assert q_integer(-a) == -q_integer(a)


@pytest.mark.parametrize("a", range(-20, 21))
def test_q_integer_at_one(a):
    assert eval_laurent(q_integer(a), 1) == a


# --- q-factorials ------------------------------------------------------------

def test_q_factorial_empty_product():
    assert q_factorial(0, 2) == LaurentPoly.one()


def test_q_factorial_by_multiplication_oracle():
    four = {3: Fraction(1), 1: Fraction(1), -1: Fraction(1), -3: Fraction(1)}
    two = {1: Fraction(1), -1: Fraction(1)}
    assert q_factorial(2, 2) == LaurentPoly(dict_mul(four, two))
    three = {2: Fraction(1), 0: Fraction(1), -2: Fraction(1)}
    one = {0: Fraction(1)}
    assert q_factorial(3, 1) == LaurentPoly(dict_mul(dict_mul(three, two), one))


def test_q_factorial_rejects_bad_arguments():
    with pytest.raises(ValueError):
        q_factorial(-1, 1)
    with pytest.raises(ValueError):
        q_factorial(2, 0)


def test_q_factorial_negative_deformation_sign():
    # [a]^{-1}! = (-1)^a [a]!
    for a in range(6):
        assert q_factorial(a, -1) == q_factorial(a, 1) * ((-1) ** a)


def test_gaussian_integrality():
    # [a+b]! is divisible by [a]! [b]! in Z[q, q^-1]
    for a in range(7):
        for b in range(7):
            quotient = q_factorial(a + b, 1).divexact(
                q_factorial(a, 1) * q_factorial(b, 1))
            assert quotient == q_binomial(a + b, a)


# --- Gaussian binomials ------------------------------------------------------

def test_q_binomial_stated_cases():
    assert q_binomial(5, 0) == LaurentPoly.one()
    assert q_binomial(5, -1) == LaurentPoly.zero()


def test_q_binomial_by_division_oracle():
    numer = dict_mul({3: Fraction(1), 1: Fraction(1), -1: Fraction(1), -3: Fraction(1)},
                     {2: Fraction(1), 0: Fraction(1), -2: Fraction(1)})
    denom = dict_mul({1: Fraction(1), -1: Fraction(1)}, {0: Fraction(1)})
    assert q_binomial(4, 2) == LaurentPoly(dict_divexact(numer, denom))
    assert q_binomial(4, 2) == LaurentPoly({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})


def test_q_binomial_at_one_matches_binomial():
    for n in range(13):
        for d in range(n + 1):
            assert eval_laurent(q_binomial(n, d), 1) == math.comb(n, d)


def test_q_binomial_negative_upper_index():
    # still a Laurent polynomial; values at q=1 follow the usual extension
    assert eval_laurent(q_binomial(-1, 2), 1) == 1
    assert eval_laurent(q_binomial(-2, 3), 1) == -4


# --- Pochhammer --------------------------------------------------------------

def test_q_pochhammer_zero_and_one_factors():
    a = ScalarQ.q_power(5)
    x = ScalarQ.q_power(-2)
    assert q_pochhammer(a, x, 0) == ScalarQ.one()
    assert q_pochhammer(a, x, 1) == ScalarQ.one() - a


def test_q_pochhammer_two_factors_direct_product():
    q2 = ScalarQ.q_power(2)
    expected = (ScalarQ.one() - q2) * (ScalarQ.one() - ScalarQ.q_power(4))
    assert q_pochhammer(q2, q2, 2) == expected


def test_q_pochhammer_rejects_negative_length():
    with pytest.raises(ValueError):
        q_pochhammer(ScalarQ.one(), ScalarQ.one(), -1)


# --- ScalarQ field arithmetic ------------------------------------------------

def test_scalar_cancellation_example():
    qq = LaurentPoly({1: 1, -1: -1})
    lhs = ScalarQ(qq) * ScalarQ(q_integer(2)) / ScalarQ(LaurentPoly({2: 1, -2: -1}))
    assert lhs == ScalarQ.one()


def test_scalar_additive_inverse_and_invert():
    x = ScalarQ(q_integer(3), q_integer(2))
    assert (x + (-x)).is_zero
    assert ScalarQ.q_power(1).invert() == ScalarQ.q_power(-1)


def test_scalar_division_by_zero_is_distinct_error():
    with pytest.raises(QDivisionByZero):
        ScalarQ.one() / ScalarQ.zero()
    with pytest.raises(QDivisionByZero):
        ScalarQ.zero().invert()
    with pytest.raises(QDivisionByZero):
        ScalarQ(1, LaurentPoly.zero())
    assert issubclass(QDivisionByZero, ZeroDivisionError)


def test_scalar_equality_matches_cross_multiplication():
    rng = random.Random(20240)
    pairs = 0
    while pairs < 200:
        n1, d1 = rand_laurent(rng), rand_laurent(rng)
        n2, d2 = rand_laurent(rng), rand_laurent(rng)
        if d1.is_zero or d2.is_zero:
            continue
        pairs += 1
        s1, s2 = ScalarQ(n1, d1), ScalarQ(n2, d2)
        assert (s1 == s2) == (n1 * d2 == n2 * d1)
        # and a guaranteed-equal pair built by scaling
        scale = rand_laurent(rng)
        if not scale.is_zero:
            assert ScalarQ(n1 * scale, d1 * scale) == s1


def test_scalar_canonical_denominator_shape():
    s = ScalarQ(LaurentPoly({0: 1}), LaurentPoly({-3: Fraction(-2, 3), -2: Fraction(-4, 3)}))
    # denominator: ordinary, primitive integer coefficients, positive leading
    assert s.den.min_exp() == 0
    assert all(v.denominator == 1 for _, v in s.den.items())
    assert s.den._c[s.den.max_exp()] > 0


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_scalar_field_axioms(a, b, c):
    x = ScalarQ(q_integer(a) + 1, q_integer(2))
    y = ScalarQ(LaurentPoly({b: 1}))
    z = ScalarQ(q_integer(c) + LaurentPoly({1: 1}))
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    if not y.is_zero:
        assert (x / y) * y == x


# --- text round trips --------------------------------------------------------

def constant(c) -> QPolynomial:
    """c as a polynomial over no variables, which ``poly_from_text`` reads
    from scalar text."""
    return QPolynomial(0, {(): c})


def test_laurent_text_round_trip():
    rng = random.Random(99)
    for _ in range(50):
        p = rand_laurent(rng)
        assert poly_from_text(str(p), 0) == constant(p)
    assert str(LaurentPoly({2: 3, 0: -1, -4: 2})) == "3*q^2 - 1 + 2*q^-4"


def test_scalar_text_round_trip():
    s = ScalarQ(q_integer(3), q_integer(2) * q_integer(2))
    assert poly_from_text(str(s), 0) == constant(s)
    assert poly_from_text(str(ScalarQ(q_integer(2))), 0) == constant(q_integer(2))


def test_exponents_must_be_integers():
    # An exponent is read exactly: a float is refused, as a float
    # coefficient is, never truncated to an int.
    for build in (lambda: LaurentPoly({1.5: 1}), lambda: ScalarQ.q_power(2.7),
                  lambda: LaurentPoly.q_power(2.0)):
        with pytest.raises(TypeError):
            build()
    with pytest.raises(TypeError):
        LaurentPoly({1: 0.5})


def test_divexact_raises_on_inexact():
    with pytest.raises(InexactDivisionError):
        q_integer(3).divexact(q_integer(2))


def test_q_binomial_vanishes_above_the_upper_index():
    assert q_binomial(2, 5) == LaurentPoly.zero()
    assert q_binomial(0, 1) == LaurentPoly.zero()


def test_scalar_negative_powers():
    s = ScalarQ.q_power(2) ** -2
    assert s == ScalarQ.q_power(-4)
    t = ScalarQ(q_integer(2)) ** -1
    assert t * ScalarQ(q_integer(2)) == ScalarQ.one()


@pytest.mark.parametrize("cls,base", [
    (LaurentPoly, q_integer(3)),
    (ScalarQ, ScalarQ(q_integer(2), q_integer(3)))])
def test_power_by_squaring_makes_no_spare_product(monkeypatch, cls, base):
    # x ** n takes bit_length(n) - 1 squarings and at most popcount(n) - 1
    # other products: none by one and no square after the top bit.
    mul = cls.__mul__
    products = []

    def counting(self, other):
        products.append(None)
        return mul(self, other)

    powers = [cls.one()]
    for _ in range(16):
        powers.append(mul(powers[-1], base))
    monkeypatch.setattr(cls, "__mul__", counting)
    for n, want in enumerate(powers):
        del products[:]
        assert base ** n == want
        assert len(products) <= max(0, n.bit_length() - 1 + bin(n).count("1")
                                    - 1), n


def test_laurent_power_and_identity():
    assert q_integer(2) ** 0 == LaurentPoly.one()
    assert q_integer(2) ** 3 == q_integer(2) * q_integer(2) * q_integer(2)
    with pytest.raises(ValueError):
        q_integer(2) ** -1
