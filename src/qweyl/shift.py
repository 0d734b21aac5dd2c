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
by s turns u^m into q^{m.s} u^m.  ``compile_relation`` turns a whole operator
expression into these components; it vanishes on every monomial iff every
component is zero, because distinct characters a -> q^{m.a} are linearly
independent on N^n.  The guard "d_i kills X^a when a_i = 0" needs no special
case: the factor [xi_i * 0] is already 0.
"""

from __future__ import annotations

from math import prod
from typing import Dict, NamedTuple, Optional, Tuple

from .qscalar import Q_MINUS_QINV, LaurentPoly, ScalarQ

Vector = Tuple[int, ...]
# (q exponent, u exponent vector) -> nonzero int or Fraction coefficient
ShiftPoly = Dict[Tuple[int, Vector], object]


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
        a = mon[self.slot]
        num = {}
        for c, e in self.terms:
            num[e * a] = num.get(e * a, 0) + c
        c = LaurentPoly(num)
        if c.is_zero:
            return []
        if self.divided:
            c = c.divexact(Q_MINUS_QINV)
        tgt = mon
        if self.step:
            tgt = mon[:self.slot] + (a + self.step,) + mon[self.slot + 1:]
        return [(tgt, ScalarQ(c))]


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
    a closed-form or composite action, or a wrapped entry.

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
        words.append((rules, c, sum(rule.divided for rule in rules)))
    dens = {c.den for _, c, _ in words if not c.is_polynomial}
    # c * L is c.num times every other denominator: no gcd is needed.
    rest = {den: prod((d for d in dens if d != den), start=LaurentPoly.one())
            for den in dens | {LaurentPoly.one()}}
    depth = max((divided for _, _, divided in words), default=0)
    powers = [Q_MINUS_QINV ** k for k in range(depth + 1)]
    zero_u = (0,) * n
    components: Dict[Vector, ShiftPoly] = {}
    for rules, c, divided in words:
        shift = [0] * n
        poly: ShiftPoly = {(0, zero_u): 1}
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
        coeff = c.num * rest[c.den] * powers[depth - divided]
        comp = components.setdefault(tuple(shift), {})
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
