"""Exact arithmetic in Z[q, q^-1] and Q(q), plus the q-combinatorial primitives.

``LaurentPoly`` is a sparse Laurent polynomial in one variable q with exact
rational coefficients.  ``ScalarQ`` is a quotient of two Laurent polynomials
kept in a canonical form (denominator an ordinary primitive integer polynomial
with positive leading coefficient, coprime to the numerator), so equality and
hashing are structural.  No floating point anywhere.

Almost every value met in practice is a Laurent polynomial with integer
coefficients, so the common cases skip the general machinery: coefficients
are stored as ``int`` whenever they are integral, a product with a single
term is a relabelling of exponents, a chain of q-integers is multiplied
out once (``q_product``, which also expands each path v*q^k*[n_1]...[n_t]
of ``opcalc.apply``), and a denominator c*q^k is divided out directly.
A chain on a one-term start whose coefficients all fit in 64 bits is one
int of machine-word lanes (Kronecker substitution, q^2 -> 2^w): every
coefficient of prod [m] is at most B = prod m / max m, so w is the
narrowest of 8/16/32/64 bits with 2^w > B, each factor is one exact
division g*(2^(wm) - 1)/(2^w - 1) with no carry between lanes, and the
lanes are read back once in the machine's byte order.  Any other chain
runs strided window sums on dense lists, which beat lanes wider than a
machine word.
Only a denominator with two or more terms needs a polynomial gcd, and not
even then when it equals the numerator (the ratio is 1) or when the
numerator is a single term (the gcd is 1), which covers coefficients such
as 1/[n]!.  A product of two such single-term quotients is already
canonical.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, count
from math import gcd as _int_gcd
from math import prod
from operator import index, sub
from struct import calcsize
from sys import byteorder


class InexactDivisionError(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""


class QDivisionByZero(ZeroDivisionError):
    """Division by the zero element of Q(q)."""


def _fr(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError("expected int or Fraction, got %r" % (v,))


def _coeff(v):
    """Validate a coefficient and store it as an int when it is integral."""
    if type(v) is int:
        return v
    return _norm(_fr(v))


def _norm(v):
    """An int or Fraction result of exact arithmetic, as an int if integral."""
    if type(v) is int or v.denominator != 1:
        return v
    return v.numerator


def _fdiv(a, b):
    """a / b for ints or Fractions, exact: an int when b divides a, else a
    Fraction (int / int would be a float)."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _norm(a / b)


def _power(base, n: int, one):
    """base ** n for n >= 0 by squaring: bit_length(n) - 1 squarings and
    popcount(n) - 1 other products, none of them by ``one``."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


class LaurentPoly:
    """Sparse Laurent polynomial in q over the rationals.

    Stored as a map exponent -> nonzero coefficient, an int when integral and
    a Fraction otherwise.  Instances are treated as immutable; all operations
    return new objects (or ``self`` when nothing changes).
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            if isinstance(coeffs, LaurentPoly):
                c = dict(coeffs._c)
            elif isinstance(coeffs, dict):
                for e, v in coeffs.items():
                    v = _coeff(v)
                    if v != 0:
                        c[index(e)] = v
            else:
                v = _coeff(coeffs)
                if v != 0:
                    c[0] = v
        self._c = c

    @classmethod
    def q_power(cls, exp: int, coeff=1) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    def items(self):
        return self._c.items()

    @property
    def is_zero(self) -> bool:
        return not self._c

    def min_exp(self):
        return min(self._c) if self._c else None

    def max_exp(self):
        return max(self._c) if self._c else None

    def __bool__(self):
        return bool(self._c)

    def __add__(self, other):
        other = other if isinstance(other, LaurentPoly) else LaurentPoly(other)
        c = dict(self._c)
        for e, v in other._c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = _norm(w)
            else:
                c.pop(e, None)
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    __radd__ = __add__

    def __neg__(self):
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: -v for e, v in self._c.items()}
        return out

    def __sub__(self, other):
        other = other if isinstance(other, LaurentPoly) else LaurentPoly(other)
        return self + (-other)

    def __rsub__(self, other):
        return LaurentPoly(other) - self

    def _term_mul(self, k: int, v) -> "LaurentPoly":
        """Multiply by the single term v*q^k (v a nonzero int or Fraction)."""
        if v == 1:
            if k == 0:
                return self
            c = {e + k: w for e, w in self._c.items()}
        else:
            c = {e + k: _norm(w * v) for e, w in self._c.items()}
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        return out

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            v = _coeff(other)
            return self._term_mul(0, v) if v else LaurentPoly.zero()
        a, b = self._c, other._c
        long, short = (self, b) if len(b) <= len(a) else (other, a)
        if len(short) == 1:
            (k, v), = short.items()
            return long._term_mul(k, v)
        c = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = {e: _norm(v) for e, v in c.items() if v}
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a LaurentPoly; use ScalarQ")
        return _power(self, n, LaurentPoly.one())

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return self._term_mul(k, 1)

    def divexact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises InexactDivisionError on a remainder."""
        if other.is_zero:
            raise QDivisionByZero("division by the zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero()
        sa, a = _to_ordinary(self)
        sb, b = _to_ordinary(other)
        quo, rem = _divmod_dense(a, b)
        if any(rem):
            raise InexactDivisionError("polynomial division is not exact")
        return _from_dense(quo).shift(sa - sb)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        # A constant hashes like the int or Fraction it equals.
        c = self._c
        if not c:
            return hash(0)
        if len(c) == 1 and 0 in c:
            return hash(c[0])
        return hash(frozenset(c.items()))

    def __str__(self):
        c = self._c
        if not c:
            return "0"
        pieces = []
        add = pieces.append
        for e in sorted(c, reverse=True):
            v = c[e]
            if v > 0:
                add(" + ")
            else:
                add(" - ")
                v = -v
            if e == 0:
                add(str(v))
            elif e == 1:
                add("q" if v == 1 else "%s*q" % v)
            else:
                add("q^%d" % e if v == 1 else "%s*q^%d" % (v, e))
        pieces[0] = "" if pieces[0] == " + " else "-"
        return "".join(pieces)

    def __repr__(self):
        return "LaurentPoly(%r)" % (self._c,)


def _windows(seq, m: int) -> list:
    """The m-wide window sums of seq, zero-padded on both sides: entry j is
    seq[j] + seq[j-1] + ... + seq[j-m+1], for j = 0..len(seq)+m-2, each read
    off two running prefix sums."""
    pad = [0] * m
    sums = list(accumulate(pad + seq + pad[1:]))
    return list(map(sub, sums[m:], sums))


# Lane width in bits and memoryview code of each machine word, narrowest
# first, read off the native item sizes once: 8/16/32/64 bits for B/H/I/Q.
_LANES = sorted((8 * calcsize(code), code) for code in "BHIQ")


def _packed_chain(widths, span: int) -> list:
    """The span + 1 coefficients of prod (1 + x + ... + x^(m-1)) over
    widths, span = sum (m - 1), lowest first, read off one int of
    machine-word lanes as ``q_product`` states; None when
    B = prod m / max m is 2^64 or more."""
    bound = prod(widths) // max(widths)
    for w, code in _LANES:
        if not bound >> w:
            break
    else:
        return None
    g, d = 1, (1 << w) - 1
    for m in widths:
        g = ((g << w * m) - g) // d
    size = (span + 1) * (w >> 3)
    return memoryview(g.to_bytes(size, byteorder)).cast(code).tolist()


def _to_ordinary(p: LaurentPoly):
    """Return (shift, dense coefficient list) with constant term at index 0."""
    lo = p.min_exp()
    hi = p.max_exp()
    dense = [0] * (hi - lo + 1)
    for e, v in p.items():
        dense[e - lo] = v
    return lo, dense


def _from_dense(dense) -> LaurentPoly:
    return LaurentPoly({i: v for i, v in enumerate(dense) if v})


def _divmod_dense(a, b):
    """Dense polynomial division over the rationals."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    if len(a) < len(b):
        return [], a
    quo = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            c = _fdiv(a[i], lb)
            quo[i - db] = c
            for j in range(db + 1):
                a[i - db + j] -= c * b[j]
    return quo, a


def _gcd_ordinary(a, b):
    """Monic gcd of two dense rational polynomials (either may be [])."""
    a = _trim(a)
    b = _trim(b)
    while b:
        _, r = _divmod_dense(a, b)
        a, b = b, _trim(r)
    if not a:
        return []
    lead = a[-1]
    return [_fdiv(v, lead) for v in a]


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


Q_MINUS_QINV = LaurentPoly({1: 1, -1: -1})
ONE = LaurentPoly.one()
_UNIT = ONE._c  # compare a denominator's terms with this to test for 1


def _polynomial(num: LaurentPoly) -> "ScalarQ":
    """The ScalarQ num/1; a Laurent polynomial is already canonical."""
    out = ScalarQ.__new__(ScalarQ)
    out.num, out.den = num, ONE
    return out


class ScalarQ:
    """An element of Q(q) as a canonical ratio of Laurent polynomials.

    Canonical form: the denominator is an ordinary polynomial with coprime
    integer coefficients, nonzero constant term and positive leading
    coefficient; numerator and denominator share no polynomial factor.
    A ScalarQ with denominator 1 is exactly a Laurent polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=ONE):
        num = num if isinstance(num, LaurentPoly) else LaurentPoly(num)
        den = den if isinstance(den, LaurentPoly) else LaurentPoly(den)
        if den.is_zero:
            raise QDivisionByZero("zero denominator")
        if len(den._c) > 1:
            # num/num is 1, the unique canonical form _canonical would reach.
            if num._c == den._c:
                self.num, self.den = ONE, ONE
            elif len(num._c) == 1:
                # A single term c*q^k has no factor in common with den once
                # den's lowest power of q is moved onto it: no gcd.
                k = min(den._c)
                self.num, self.den = _primitive(num.shift(-k), den.shift(-k))
            else:
                self.num, self.den = _canonical(num, den)
            return
        # A single-term denominator c*q^k reduces to (num*q^-k/c, 1), which
        # is what _canonical returns for it, without a gcd.
        (k, c), = den._c.items()
        self.num = num._term_mul(-k, _fdiv(1, c))
        self.den = ONE

    @classmethod
    def one(cls):
        return _polynomial(ONE)

    @classmethod
    def zero(cls):
        return _polynomial(LaurentPoly())

    @classmethod
    def q_power(cls, e: int):
        return _polynomial(LaurentPoly.q_power(e))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_one(self) -> bool:
        return self.den._c == _UNIT and self.num._c == _UNIT

    @property
    def is_polynomial(self) -> bool:
        return self.den._c == _UNIT

    def as_laurent(self) -> LaurentPoly:
        if not self.is_polynomial:
            raise ValueError("not a Laurent polynomial: %s" % self)
        return self.num

    def __add__(self, other):
        other = other if isinstance(other, ScalarQ) else ScalarQ(other)
        if self.den._c == _UNIT and other.den._c == _UNIT:
            return _polynomial(self.num + other.num)
        if self.den == other.den:
            return ScalarQ(self.num + other.num, self.den)
        return ScalarQ(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = ScalarQ.__new__(ScalarQ)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        other = other if isinstance(other, ScalarQ) else ScalarQ(other)
        return self + (-other)

    def __rsub__(self, other):
        return ScalarQ(other) - self

    def __mul__(self, other):
        if not isinstance(other, ScalarQ):
            other = ScalarQ(other)
        if self.den._c == _UNIT and other.den._c == _UNIT:
            return _polynomial(self.num * other.num)
        if len(self.num._c) == 1 and len(other.num._c) == 1:
            # By Gauss's lemma b*d is again primitive, with positive leading
            # coefficient and nonzero constant term, so the single term a*c
            # over it is already canonical.
            out = ScalarQ.__new__(ScalarQ)
            out.num, out.den = self.num * other.num, self.den * other.den
            return out
        return ScalarQ(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, ScalarQ) else ScalarQ(other)
        if other.is_zero:
            raise QDivisionByZero("division by zero in Q(q)")
        return ScalarQ(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return ScalarQ(other) / self

    def invert(self) -> "ScalarQ":
        if self.is_zero:
            raise QDivisionByZero("inverting zero in Q(q)")
        return ScalarQ(self.den, self.num)

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        return _power(self, n, ScalarQ.one())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = ScalarQ(other)
        if not isinstance(other, ScalarQ):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # A Laurent polynomial hashes like its numerator, so that equal ints,
        # Fractions, LaurentPolys and ScalarQs share one hash.
        if self.den._c == _UNIT:
            return hash(self.num)
        return hash((self.num, self.den))

    def __str__(self):
        if self.is_polynomial:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "ScalarQ(%s)" % self


def _canonical(num: LaurentPoly, den: LaurentPoly):
    if num.is_zero:
        return LaurentPoly.zero(), LaurentPoly.one()
    # Move the whole q-power shift onto the numerator.
    dshift = den.min_exp()
    den = den.shift(-dshift)
    num = num.shift(-dshift)
    if den != LaurentPoly.one():
        nshift, ndense = _to_ordinary(num)
        _, ddense = _to_ordinary(den)
        g = _gcd_ordinary(list(ndense), list(ddense))
        if len(g) > 1:
            ndense, _ = _divmod_dense(ndense, g)
            ddense, _ = _divmod_dense(ddense, g)
            num = _from_dense(ndense).shift(nshift)
            den = _from_dense(ddense)
    return _primitive(num, den)


def _primitive(num: LaurentPoly, den: LaurentPoly):
    """num/den scaled so that den, an ordinary polynomial with nonzero
    constant term, has coprime integer coefficients and a positive leading
    coefficient."""
    _, ddense = _to_ordinary(den)
    nums = [v.numerator for v in ddense if v]
    dens = [v.denominator for v in ddense if v]
    g = 0
    for n in nums:
        g = _int_gcd(g, abs(n))
    l = 1
    for d in dens:
        l = l * d // _int_gcd(l, d)
    scale = Fraction(l, g)
    if ddense[-1] < 0:
        scale = -scale
    if scale != 1:
        num = num * scale
        den = den * scale
    return num, den


def q_integer(a: int) -> LaurentPoly:
    """The balanced q-integer (q^a - q^-a)/(q - q^-1); satisfies [-a] = -[a]."""
    if a == 0:
        return LaurentPoly.zero()
    n = abs(a)
    out = LaurentPoly.__new__(LaurentPoly)
    out._c = dict.fromkeys(range(n - 1, -n, -2), 1 if a > 0 else -1)
    return out


def q_factorial(a: int, k: int) -> LaurentPoly:
    """The k-deformed q-factorial [ka][k(a-1)]...[2k][k]; empty product is 1."""
    if a < 0:
        raise ValueError("q_factorial needs a >= 0, got %d" % a)
    if k == 0:
        raise ValueError("q_factorial needs k != 0")
    return q_product([k * t for t in range(1, a + 1)])


def q_product(ns, start=1) -> LaurentPoly:
    """start times [n] for each n in ns, multiplied out once.

    [n] is sign(n) times q^(1-|n|) + q^(3-|n|) + ... + q^(|n|-1), which never
    mixes the two parity classes of exponents.  One rule picks the kernel,
    with m = |n| over the factors with |n| >= 2 and span = sum (m - 1).

    Bound: every coefficient of the chain prod (1 + x + ... + x^(m-1)),
    x = q^2, is a positive integer at most B = prod m / max m, since
    convolving with the widest window sums at most all the coefficients of
    the other factors' product, and those sum to B.

    Packed lanes, when start is one term v*q^k and B < 2^64: the chain is
    one int g with w-bit lanes, w the narrowest of 8/16/32/64 with 2^w > B,
    so that x = 2^w and no lane overflows.  Each factor is
    g = ((g << w*m) - g) // (2^w - 1), the exact division
    g*(x^m - 1)/(x - 1), with no carry between lanes.  The lanes
    are read back once, ``g.to_bytes`` in the machine's byte order cast to
    the native B/H/I/Q words, and placed at q^(k-span), q^(k-span+2), ...,
    q^(k+span) times v*sign.  The limit is 64 bits: wider lanes can only
    be read back one int at a time, and packing the chain [2]...[100] of
    ``act --diagram I:r=0`` with d0 x100 on X0^100 in byte-multiple lanes
    took about 125 ms against the window kernel's 15 ms (in process, Python
    3.11 on a 2-vCPU VM).

    Window kernel, for every other start or B >= 2^64: each parity class of
    start is one dense list with stride 2, each m is one pass of m-wide
    window sums over it (``_windows``), and the dict is built once at the
    end.  With int inputs every coefficient is already an int.
    """
    start = start if isinstance(start, LaurentPoly) else LaurentPoly(start)
    sign, widths = 1, []
    for n in ns:
        if not n:
            return LaurentPoly.zero()
        if n < 0:
            sign = -sign
        if n > 1 or n < -1:
            widths.append(abs(n))
    c = start._c
    if not (c and widths):
        return start._term_mul(0, sign)
    low, high = min(c), max(c)
    span = sum(widths) - len(widths)        # [m] reaches down to q^(1-m)
    chain = _packed_chain(widths, span) if low == high else None
    res = LaurentPoly.__new__(LaurentPoly)
    if chain is not None:
        v = c[low] * sign
        exps = range(low - span, low + span + 1, 2)
        if v == 1:
            res._c = dict(zip(exps, chain))
        elif type(v) is int:
            res._c = {e: v * w for e, w in zip(exps, chain)}
        else:
            res._c = {e: _norm(v * w) for e, w in zip(exps, chain)}
        return res
    ints = all(type(w) is int for w in c.values())
    dense = [0] * (high - low + 1)
    for e, w in c.items():
        dense[e - low] = w
    low -= span
    out = {}
    for p in (0, 1):
        seq = dense[p::2]
        if not any(seq):
            continue
        for m in widths:
            seq = _windows(seq, m)
        exps = count(low + p, 2)
        out.update({e: w * sign if ints else _norm(w * sign)
                    for e, w in zip(exps, seq) if w})
    res._c = out
    return res


def factorial_steps(xi, lo, hi) -> list:
    """xi_j * t for t = lo_j + 1..hi_j, slot by slot: the q-integers of
    prod_j [hi_j]^{xi_j}! / [lo_j]^{xi_j}! (none where lo_j >= hi_j)."""
    return [k * t for k, a, b in zip(xi, lo, hi) for t in range(a + 1, b + 1)]


def q_binomial(n: int, d: int) -> LaurentPoly:
    """Gaussian binomial [n][n-1]...[n-d+1]/[d]!, with 1 at d=0 and 0 at d<0."""
    if d < 0:
        return LaurentPoly.zero()
    if d == 0:
        return LaurentPoly.one()
    return q_product(range(n - d + 1, n + 1)).divexact(q_factorial(d, 1))
