"""Property tests for the Q(q) kernel, with sympy as an independent oracle.

Covers the field laws, agreement with ``sympy.cancel`` after evaluation at
rational points of q, agreement of every fast path with the general
``_canonical`` reduction, the run product against the double loop and
sympy, ``q_product`` against one product per factor on both of its kernels
and at each lane-width edge of the packed one, the stored coefficient
types, the rule that equal values hash alike across int, Fraction,
LaurentPoly and ScalarQ, the one-pass text of a Laurent polynomial against
the joined formatter, and the text round trip of polynomials with such
coefficients.
"""

from fractions import Fraction
from math import prod
from unittest.mock import patch

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closed_forms import _run, reference_laurent_str, reference_q_product
from evaluation import eval_laurent, eval_scalar
from qweyl import qscalar
from qweyl.opcalc import QPolynomial, poly_from_text, poly_to_text
from qweyl.qscalar import (LaurentPoly, ScalarQ, _canonical, factorial_steps,
                           q_factorial, q_integer, q_product)

Q = sympy.Symbol("q")
SAMPLE_POINTS = (Fraction(2), Fraction(-3), Fraction(1, 3), Fraction(-5, 7),
                 Fraction(7, 2))

coefficients = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=6))
laurent = st.dictionaries(st.integers(-4, 4), coefficients, max_size=4).map(LaurentPoly)
nonzero_laurent = laurent.filter(bool)
monomial = st.builds(lambda e, c: LaurentPoly({e: c}), st.integers(-4, 4),
                     coefficients.filter(bool))
scalar = st.builds(ScalarQ, laurent, nonzero_laurent)
nonzero_scalar = st.builds(ScalarQ, nonzero_laurent, nonzero_laurent)

props = settings(max_examples=100, deadline=None)


def to_sympy(p: LaurentPoly):
    return sympy.Add(*[sympy.Rational(v.numerator, v.denominator) * Q ** e
                       for e, v in p.items()])


def parts(num: LaurentPoly, den: LaurentPoly):
    """(num, den) as plain dicts, with each coefficient's type."""
    return ({e: (type(v), v) for e, v in num.items()},
            {e: (type(v), v) for e, v in den.items()})


def assert_coefficient_types(*polys):
    for p in polys:
        for _, v in p.items():
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1), v


# --- field laws ----------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(scalar, scalar, scalar)
def test_field_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    assert x - x == ScalarQ.zero()
    assert x * ScalarQ.one() == x


@props
@given(nonzero_scalar)
def test_multiplicative_inverse(x):
    assert x * x.invert() == ScalarQ.one()
    assert (x * x.invert()).is_one


# --- sympy oracle ----------------------------------------------------------------

@props
@given(laurent, nonzero_laurent)
def test_scalar_matches_sympy_cancel(n, d):
    assert_matches_sympy_cancel(ScalarQ(n, d), n, d)


def assert_matches_sympy_cancel(s, n, d):
    """s is the value n/d, with the denominator sympy's cancel reduces to."""
    expected = sympy.cancel(to_sympy(n) / to_sympy(d))
    for point in SAMPLE_POINTS:
        if eval_laurent(d, point) == 0 or eval_laurent(s.den, point) == 0:
            continue
        value = expected.subs(Q, sympy.Rational(point.numerator, point.denominator))
        assert eval_scalar(s, point) == Fraction(int(value.p), int(value.q))
    # The reduced denominator agrees with sympy's up to a constant and a
    # power of q (which the canonical form moves onto the numerator).
    _, sden = sympy.fraction(expected)
    sden = sympy.Poly(sden, Q)
    lowest = min(m[0] for m in sden.monoms())
    sden = sympy.Poly(sympy.expand(sden.as_expr() / Q ** lowest), Q)
    ratio = sympy.cancel(to_sympy(s.den) / sden.as_expr())
    assert ratio.is_number and ratio != 0


# --- fast paths agree with _canonical ----------------------------------------------

@props
@given(laurent, monomial)
def test_monomial_denominator_fast_path(n, d):
    s = ScalarQ(n, d)
    assert parts(s.num, s.den) == parts(*_canonical(n, d))


multi_term = laurent.filter(lambda p: len(p.items()) >= 2)


@props
@given(multi_term)
def test_ratio_equal_to_its_denominator_is_one(p):
    s = ScalarQ(p, p)
    assert s.is_one and s == ScalarQ.one()
    assert parts(s.num, s.den) == parts(*_canonical(p, p))


@props
@given(multi_term, nonzero_laurent)
def test_ratio_unequal_to_its_denominator_still_reduces(p, u):
    if u == LaurentPoly.one():
        u = u + LaurentPoly.q_power(1)
    s = ScalarQ(p * u, p)
    assert parts(s.num, s.den) == parts(*_canonical(p * u, p))
    assert parts(s.num, s.den) == parts(u, LaurentPoly.one())


@props
@given(monomial, nonzero_laurent)
def test_one_term_numerator_skips_only_the_gcd(n, d):
    # c*q^k shares no factor with d: the gcd-free reduction keeps content
    # and sign normalisation, and lands where the full gcd path does.
    s = ScalarQ(n, d)
    assert parts(s.num, s.den) == parts(*_canonical(n, d))
    assert_matches_sympy_cancel(s, n, d)


@props
@given(monomial, nonzero_laurent, monomial, nonzero_laurent)
def test_product_of_one_term_numerators_is_canonical(a, b, c, d):
    x, y = ScalarQ(a, b), ScalarQ(c, d)
    product = x * y
    assert parts(product.num, product.den) == parts(
        *_canonical(x.num * y.num, x.den * y.den))
    assert_matches_sympy_cancel(product, a * c, b * d)


@props
@given(laurent, laurent)
def test_polynomial_sum_and_product_fast_paths(a, b):
    one = LaurentPoly.one()
    product, total = ScalarQ(a) * ScalarQ(b), ScalarQ(a) + ScalarQ(b)
    assert parts(product.num, product.den) == parts(*_canonical(a * b, one))
    assert parts(total.num, total.den) == parts(*_canonical(a + b, one))


@props
@given(laurent, laurent)
def test_single_term_product_matches_full_expansion(a, b):
    expected = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            expected[e1 + e2] = expected.get(e1 + e2, 0) + Fraction(v1) * v2
    expected = {e: v for e, v in expected.items() if v}
    assert dict((a * b).items()) == expected
    assert dict((b * a).items()) == expected


# --- run products ------------------------------------------------------------------

def dense_product(a, b):
    """The double loop over two coefficient maps, in exact Fractions."""
    out = {}
    for e1, v1 in a.items():
        for e2, v2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + Fraction(v1) * v2
    return {e: v for e, v in out.items() if v}


def run_poly(lo, m, v):
    """v*q^lo*(1 + q^2 + ... + q^(2(m-1)))."""
    return LaurentPoly({lo + 2 * j: v for j in range(m)})


run_values = st.one_of(st.integers(-5, 5).filter(bool),
                       st.fractions(min_value=-3, max_value=3,
                                    max_denominator=5).filter(bool))
run_params = st.tuples(st.integers(-9, 9), st.integers(1, 40), run_values)
# consecutive exponents, so both parities, zero coefficients allowed inside
dense_factor = st.builds(
    lambda lo, vs: LaurentPoly({lo + i: v for i, v in enumerate(vs)}),
    st.integers(-12, 12), st.lists(coefficients, max_size=30))
sparse_factor = st.dictionaries(st.integers(-40, 40), coefficients,
                                max_size=8).map(LaurentPoly)
any_factor = st.one_of(dense_factor, sparse_factor, laurent)


def assert_run_product(p, lo, m, v):
    run = run_poly(lo, m, v)
    expected = dense_product(p, run)
    for product in (p * run, run * p):
        assert dict(product.items()) == expected
        assert_coefficient_types(product)
    # the run is v*q^(lo+m-1)*[m]: q_product's window pass, alone and beside
    # the factors [1] = 1, [-1] = -1 and [0] = 0, on the start p*v*q^(lo+m-1)
    start = p._term_mul(lo + m - 1, v)
    for ns, sign in (([m], 1), ([-m], -1), ([1, m, 1], 1), ([m, -1], -1),
                     ([-1, -m, 1], 1)):
        direct = q_product(ns, start)
        assert dict(direct.items()) == {e: sign * w
                                        for e, w in expected.items()}
        assert_coefficient_types(direct)
    assert q_product([m, 0, 1], start).is_zero
    assert q_product([0, -1], start).is_zero


@settings(max_examples=300, deadline=None)
@given(any_factor, run_params)
def test_run_product_matches_double_loop(p, params):
    assert_run_product(p, *params)


@pytest.mark.parametrize("m", range(1, 41))
def test_run_product_every_length(m):
    # an int, a negative and a Fraction v at odd and even lo, on a dense
    # mixed-parity factor
    p = LaurentPoly({e: (e % 7) - 3 for e in range(-5, 20)})
    for lo in (-7, 0, 4):
        for v in (1, -2, Fraction(3, 4)):
            assert_run_product(p, lo, m, v)


def test_run_product_of_a_sparse_factor():
    # two terms 80 apart: the kernel's dense lists span the gap
    p = LaurentPoly({40: 1, -40: -1})
    assert_run_product(p, 0, 3, 1)
    assert_run_product(LaurentPoly({-9: 2, 0: Fraction(1, 3), 1: -1, 30: 5}),
                       1, 12, -1)


@settings(max_examples=60, deadline=None)
@given(st.one_of(dense_factor, sparse_factor), run_params)
def test_run_product_matches_sympy(p, params):
    run = run_poly(*params)
    assert sympy.expand(to_sympy(p * run) - to_sympy(p) * to_sympy(run)) == 0


@settings(max_examples=200, deadline=None)
@given(run_params)
def test_runs_are_detected_from_the_factor(params):
    lo, m, v = params
    c = dict(run_poly(lo, m, v).items())
    assert _run(c) == (lo + m - 1, v, m)        # v*q^(lo+m-1)*[m]
    if m > 1:
        assert _run({**c, lo: v + 1}) is None        # a coefficient differs
        assert _run({**c, lo + 1: v}) is None        # a term of the other parity
        gap = dict(c)
        del gap[lo + 2]
        assert _run({**gap, lo + 2 * m: v}) is None  # a gap
    assert _run({lo: v, lo + 1: v}) is None


def test_zero_factors():
    zero = LaurentPoly.zero()
    for p in (zero, q_integer(40), run_poly(3, 25, Fraction(-1, 2)),
              LaurentPoly({e: 1 for e in range(50)})):
        assert (p * zero).is_zero and (zero * p).is_zero
    assert q_product([3, 0, 5]).is_zero
    assert q_product([3, 5], zero).is_zero
    assert q_product([]) == LaurentPoly.one()


def old_q_factorial(a, k):
    """[k][2k]...[ka] by the double loop, one q-integer at a time."""
    out = {0: Fraction(1)}
    for t in range(1, a + 1):
        out = dense_product(out, dict(q_integer(k * t).items()))
    return out


@pytest.mark.parametrize("k", [-3, -1, 1, 2, 3])
def test_q_product_matches_the_factorial_loop(k):
    for a in range(13):
        assert dict(q_factorial(a, k).items()) == old_q_factorial(a, k)
        assert q_product([k * t for t in range(1, a + 1)]) == q_factorial(a, k)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-9, 9), max_size=6), laurent)
def test_q_product_with_a_start(ns, start):
    expected = dict(start.items())
    for n in ns:
        expected = dense_product(expected, dict(q_integer(n).items()))
    product = q_product(ns, start)
    assert dict(product.items()) == expected
    assert_coefficient_types(product)


# int, Fraction and mixed-parity starts; the chains run past one factor
chain_starts = st.one_of(st.integers(-6, 6), st.fractions(
    min_value=-4, max_value=4, max_denominator=6), laurent, dense_factor)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(-14, 14), max_size=9), chain_starts)
@example([], 1)
@example([1, -1, 1], Fraction(2, 3))
@example([4, 0, 3], 5)
@example([-3, -5, 2], LaurentPoly({-3: 1, 0: Fraction(-1, 2), 2: 4}))
@example([7, 7, -7], LaurentPoly({0: 1, 1: 1}))
def test_q_product_matches_the_reference(ns, start):
    product = q_product(ns, start)
    assert dict(product.items()) == dict(reference_q_product(ns, start).items())
    assert_coefficient_types(product)


# --- packed lanes ------------------------------------------------------------------

def windowed(ns, start):
    """q_product(ns, start) and the widths of the window passes it ran."""
    with patch.object(qscalar, "_windows", wraps=qscalar._windows) as windows:
        product = q_product(ns, start)
    return product, [call.args[1] for call in windows.call_args_list]


def packs(ns) -> bool:
    """Whether a one-term start times ns, no factor 0, takes the packed
    lanes: B = prod m / max m < 2^64 over the m = |n| >= 2."""
    widths = [abs(n) for n in ns if abs(n) > 1]
    return bool(widths) and prod(widths) // max(widths) < 2 ** 64


edge_starts = (1, -3, LaurentPoly({5: Fraction(2, 3)}))


def signed(ns):
    """ns as it is and with its first factor negated."""
    return (ns, [-ns[0]] + ns[1:])


# Each pair straddles one lane switch: 8 -> 16 bits (the central
# coefficient of [255]^2 is B = 255), 64 bits -> the window kernel
# (B = 2^63, then 2^64).  A lane one size too narrow aliases the centre.
@pytest.mark.parametrize("ns, packed", [
    ([255, 255], True), ([256, 256], True),
    ([2] * 64, True), ([2] * 65, False)],
    ids=["255x2", "256x2", "2x64", "2x65"])
def test_lane_edges_match_the_reference(ns, packed):
    for start in edge_starts:
        for factors in signed(ns):
            product, passes = windowed(factors, start)
            assert passes == ([] if packed else [abs(n) for n in factors])
            assert dict(product.items()) == dict(
                reference_q_product(factors, start).items())
            assert_coefficient_types(product)


@pytest.mark.parametrize("a", [65535, 65536])
def test_sixteen_bit_lane_edge_matches_the_triangle(a):
    # [a]^2 = sum_i min(i + 1, 2a - 1 - i) q^(2i - 2(a - 1)): its centre a
    # needs 16-bit lanes at a = 65535 and 32-bit ones at 65536.
    triangle = [min(i + 1, 2 * a - 1 - i) for i in range(2 * a - 1)]
    for start in edge_starts:
        (k, v), = LaurentPoly(start).items()
        for factors in signed([a, a]):
            product, passes = windowed(factors, start)
            assert passes == []
            w = v if factors[0] > 0 else -v
            assert dict(product.items()) == {
                k + 2 * (i - a + 1): qscalar._norm(w * t)
                for i, t in enumerate(triangle)}
            assert_coefficient_types(product)


# The length first, so that draws land on both sides of B = 2^64.
chains = st.integers(0, 30).flatmap(
    lambda t: st.lists(st.integers(-40, 40), min_size=t, max_size=t))
one_term_starts = st.builds(
    lambda e, v: LaurentPoly({e: v}), st.integers(-6, 6),
    st.one_of(st.integers(-5, 5), st.fractions(
        min_value=-3, max_value=3, max_denominator=5)).filter(bool))


@settings(max_examples=60, deadline=None)
@given(chains, one_term_starts)
@example([40] * 13, LaurentPoly({0: 1}))          # B = 40^12 < 2^64
@example([40] * 14, LaurentPoly({0: 1}))          # B = 40^13 > 2^64
@example([-39, 2] + [40] * 11,                  # 64-bit lanes, a Fraction
         LaurentPoly({-3: Fraction(-3, 2)}))
def test_packed_and_window_chains_match_the_reference(ns, start):
    product, passes = windowed(ns, start)
    assert dict(product.items()) == dict(reference_q_product(ns, start).items())
    assert_coefficient_types(product)
    if all(ns):
        assert passes == ([] if packs(ns) else
                          [abs(n) for n in ns if abs(n) > 1])


def test_factorial_steps():
    assert factorial_steps((2, -1, 3), (0, 1, 4), (2, 3, 1)) == [2, 4, -2, -3]
    assert q_product(factorial_steps((1, 2), (2, 0), (5, 2))) \
        == q_factorial(5, 1).divexact(q_factorial(2, 1)) * q_factorial(2, 2)


# --- stored coefficient types --------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(scalar, scalar, laurent, coefficients)
def test_coefficients_are_int_or_proper_fraction(x, y, p, c):
    results = [x + y, x - y, x * y, -x, ScalarQ(p), ScalarQ(p, q_integer(2))]
    if not y.is_zero:
        results.append(x / y)
    for s in results:
        assert_coefficient_types(s.num, s.den)
    assert_coefficient_types(p, p * c, p + c, p * p, p.shift(3), -p,
                             LaurentPoly({0: Fraction(4, 2)}))


def test_integral_fraction_input_is_stored_as_int():
    p = LaurentPoly({1: Fraction(6, 3), 0: Fraction(1, 2)})
    assert type(dict(p.items())[1]) is int
    assert type(dict((p * Fraction(2)).items())[0]) is int
    assert type(dict(ScalarQ(p, 2).num.items())[1]) is int


# --- equality and hashing agree --------------------------------------------------------

constants = st.sampled_from([0, 1, 2, -1, Fraction(1, 2), Fraction(-3, 2)])
exponents = st.integers(-2, 2)


@st.composite
def representations(draw):
    """One value of Q(q) drawn from a small pool, in a random representation."""
    v = draw(constants)
    e = draw(exponents)
    term = LaurentPoly({e: v})
    scale = draw(st.sampled_from([LaurentPoly({1: 3}), q_integer(2),
                                  LaurentPoly({0: 1, 2: Fraction(1, 2)})]))
    options = [Fraction(v), LaurentPoly(v), ScalarQ(v), term, ScalarQ(term),
               ScalarQ(term * scale, scale), ScalarQ(term, scale),
               ScalarQ(term * 3, scale * 3)]
    if Fraction(v).denominator == 1:
        options.append(int(v))
    return draw(st.sampled_from(options))


@settings(max_examples=400, deadline=None)
@given(representations(), representations())
def test_equal_values_hash_alike(a, b):
    if a == b:
        assert b == a
        assert hash(a) == hash(b)
        assert {a: "v"}.get(b) == "v"


def test_constant_lookup_across_types():
    assert {ScalarQ(2): "v"}.get(2) == "v"
    assert {LaurentPoly(2): "v"}.get(2) == "v"
    assert {2: "v"}.get(ScalarQ(LaurentPoly({0: Fraction(4, 2)}))) == "v"
    assert {Fraction(1, 2): "v"}.get(ScalarQ(1, 2)) == "v"
    assert hash(ScalarQ.zero()) == hash(LaurentPoly.zero()) == hash(0)


@pytest.mark.parametrize("value", [ScalarQ(q_integer(3), q_integer(2)),
                                   ScalarQ(1, LaurentPoly({0: 1, 1: 1}))])
def test_non_polynomial_scalar_is_not_equal_to_its_numerator(value):
    assert value != value.num


# --- text --------------------------------------------------------------------------

text_coefficients = st.one_of(coefficients, st.integers(-10 ** 30, 10 ** 30),
                              st.sampled_from([1, -1]))


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(-12, 12), text_coefficients, max_size=8),
       text_coefficients, text_coefficients)
@example({}, 0, 0)
@example({}, 1, -1)
@example({2: -1, -1: 1}, Fraction(-1, 2), 1)
def test_one_pass_text_matches_the_joined_formatter(terms, at_0, at_1):
    # q^0 and q^1 print without an exponent: put them among the terms
    p = LaurentPoly({**terms, 0: at_0, 1: at_1})
    assert str(p) == reference_laurent_str(p)
    assert str(ScalarQ(p)) == str(p)


# --- text round trip --------------------------------------------------------------


def polynomials(nvars: int):
    """QPolynomials over nvars variables with quotient coefficients: multi-term
    numerators and denominators, rational contents, negative q-powers."""
    monomials = st.tuples(*[st.integers(0, 3)] * nvars)
    return st.dictionaries(monomials, scalar, max_size=4).map(
        lambda terms: QPolynomial(nvars, terms))


@props
@given(st.integers(0, 3).flatmap(polynomials))
def test_poly_text_round_trips_every_polynomial(p):
    assert poly_from_text(poly_to_text(p), p.nvars) == p
