"""Shift-vector form of the q-Weyl generators, and a relation compiler.

Every generator of the q-Weyl core with exponents xi sends a monomial X^a to
a single monomial c(q, u) X^{a+delta}, where c is a Laurent polynomial in q
and u_i = q^{a_i}, possibly over q - q^-1:

* d_i: delta = -e_i, c = (u_i^{xi_i} - u_i^{-xi_i}) / (q - q^-1);
* x_i: delta = +e_i, c = 1;
* m_i^{+-1}: delta = 0, c = u_i^{+-xi_i}.

A ``ShiftRule`` holds one such generator; evaluated at u = q^a it is the
generator's monomial action, so it serves directly as an action-table
entry.  A word applied to the generic monomial X^a is again a sum over shift
vectors: a generator applied after the word so far has shifted the exponents
by s turns u^m into q^{m.s} u^m.  ``compose`` builds the form of one word;
a ``ShiftWord`` evaluates a single scaled word as an action-table entry, and
``compile_relation`` turns a whole operator expression into these
components.  An expression vanishes on every monomial iff every component is
zero, because distinct characters a -> q^{m.a} are linearly independent on
N^n.  The guard "d_i kills X^a when a_i = 0" needs no special case: the
factor [xi_i * 0] is already 0.
"""

from __future__ import annotations

from math import prod
from typing import Dict, NamedTuple, Optional, Tuple

from .qscalar import (Q_MINUS_QINV, InexactDivisionError, LaurentPoly,
                      ScalarQ)

Vector = Tuple[int, ...]
# (q exponent, u exponent vector) -> nonzero int or Fraction coefficient
ShiftPoly = Dict[Tuple[int, Vector], object]


def _image(tgt, num, divided):
    """[(tgt, c)] for c = (sum of v q^e over num's e -> v) / (q - q^-1)^divided,
    or [] when c is 0.  Each division is the running sum Q_{e-1} = P_e +
    Q_{e+1} down from P's top exponent, per parity; exact iff both end at 0.
    """
    for _ in range(divided):
        if not num:
            break
        low, high, quo = min(num), max(num), {}
        for top in (high, high - 1):
            acc = 0
            for e in range(top, low - 1, -2):
                acc += num.get(e, 0)
                if acc:
                    quo[e - 1] = acc
            if acc:
                raise InexactDivisionError("not divisible by q - q^-1")
        num = quo
    c = LaurentPoly(num)
    return [] if c.is_zero else [(tgt, ScalarQ(c))]


class ShiftRule(NamedTuple):
    """A generator sending X^a to c X^{a + step*e_slot}.

    c is the sum of coeff * u_slot^e over ``terms`` (pairs (coeff, e)),
    divided by q - q^-1 when ``divided``.  Calling the rule on a monomial
    evaluates c at u = q^a and returns the action-table term list.
    """

    slot: int
    step: int
    terms: Tuple[Tuple[int, int], ...]
    divided: bool = False

    def __call__(self, mon):
        a, i = mon[self.slot], self.slot
        num = {}
        for c, e in self.terms:
            num[e * a] = num.get(e * a, 0) + c
        tgt = mon[:i] + (a + self.step,) + mon[i + 1:] if self.step else mon
        return _image(tgt, num, self.divided)


def compose(rules, nvars: int, coeff: LaurentPoly = LaurentPoly.one()
            ) -> Tuple[Vector, ShiftPoly, int]:
    """The form of coeff(q) times a word of ShiftRules, rightmost first.

    Returns (delta, P, D): the word sends X^a to P(q, q^a) / (q - q^-1)^D
    times X^{a+delta}, with D the number of divided rules (d-letters).
    """
    shift = [0] * nvars
    poly: ShiftPoly = {(qe, (0,) * nvars): v for qe, v in coeff.items()}
    for rule in reversed(rules):
        i = rule.slot
        s_i = shift[i]
        nxt: ShiftPoly = {}
        for (qe, uv), v in poly.items():
            for tc, e in rule.terms:
                key = (qe + e * s_i,
                       (uv[:i] + (uv[i] + e,) + uv[i + 1:]) if e else uv)
                nxt[key] = nxt.get(key, 0) + v * tc
        poly = nxt
        shift[i] += rule.step
    return tuple(shift), poly, sum(rule.divided for rule in rules)


class ShiftWord(NamedTuple):
    """A word of ShiftRules times a Laurent polynomial, composed once.

    It sends X^a to c X^{a + delta}, c the sum of v q^{qe + u.a} over
    ``terms`` (v, qe, u), divided by (q - q^-1)^``divided``.  The vectors
    delta and u are sparse: pairs (slot, nonzero value).  It is not one
    generator, so ``compile_relation`` refuses it.
    """

    delta: Tuple[Tuple[int, int], ...]
    terms: Tuple[Tuple[object, int, Tuple[Tuple[int, int], ...]], ...]
    divided: int

    @classmethod
    def of(cls, rules, coeff: LaurentPoly, nvars: int) -> "ShiftWord":
        """The word of ``rules``, rightmost acting first, times ``coeff``."""
        delta, poly, divided = compose(rules, nvars, coeff)
        return cls(_sparse(delta), tuple([(v, qe, _sparse(uv)) for (qe, uv), v
                                          in poly.items() if v]), divided)

    def __call__(self, mon):
        num = {}
        for c, e, us in self.terms:
            for j, m in us:
                e += m * mon[j]
            num[e] = num.get(e, 0) + c
        tgt = list(mon)
        for j, s in self.delta:
            tgt[j] += s
        return _image(tuple(tgt), num, self.divided)


def _sparse(v: Vector) -> Tuple[Tuple[int, int], ...]:
    return tuple([(j, x) for j, x in enumerate(v) if x])


class ShiftForm(NamedTuple):
    """A compiled expression: ``scale`` times it maps X^a to the sum over
    ``components`` of P_delta(q, q^a) X^{a+delta}, where each component
    P_delta maps (q exponent, u exponent vector) to a coefficient.

    Only nonzero components are kept, so the expression is the zero operator
    iff ``components`` is empty.
    """

    components: Dict[Vector, ShiftPoly]
    scale: LaurentPoly


def compile_relation(expr, table) -> Optional[ShiftForm]:
    """The shift-vector form of an OperatorExpr over an ActionTable.

    Returns None, so that the caller falls back to checking monomials, when
    some symbol of ``expr`` has no ShiftRule in the table: an unknown symbol,
    a ``ShiftWord`` or other composite action, or a wrapped entry.

    The expression is first multiplied by L, the product of the distinct
    denominators of its coefficients, and by (q - q^-1)^D, D the largest
    number of d-letters in one word, so that every component has Laurent
    coefficients in q.  Both factors are nonzero; ``scale`` records them.
    """
    n = table.nvars
    words = []
    for word, c in expr.terms.items():
        rules = tuple(table.entries.get(sym) for sym in word)
        if not all(isinstance(rule, ShiftRule) for rule in rules):
            return None
        words.append((compose(rules, n), c))
    dens = {c.den for _, c in words if not c.is_polynomial}
    # c * L is c.num times every other denominator: no gcd is needed.
    rest = {den: prod((d for d in dens if d != den), start=LaurentPoly.one())
            for den in dens | {LaurentPoly.one()}}
    depth = max((divided for (_, _, divided), _ in words), default=0)
    powers = [Q_MINUS_QINV ** k for k in range(depth + 1)]
    components: Dict[Vector, ShiftPoly] = {}
    for (shift, poly, divided), c in words:
        coeff = c.num * rest[c.den] * powers[depth - divided]
        comp = components.setdefault(shift, {})
        for qc, vc in coeff.items():
            for (qe, uv), v in poly.items():
                key = (qe + qc, uv)
                comp[key] = comp.get(key, 0) + v * vc
    for delta in list(components):
        comp = {key: v for key, v in components[delta].items() if v}
        if comp:
            components[delta] = comp
        else:
            del components[delta]
    scale = prod(dens, start=LaurentPoly.one()) * powers[depth]
    return ShiftForm(components, scale)
