"""Shift-vector form of q-Weyl operators, and a relation compiler.

Every generator of the q-Weyl core with exponents xi sends a monomial X^a to
a single monomial c(q, u) X^{a+delta}, where c is a Laurent polynomial in q
and u_i = q^{a_i}, possibly over q - q^-1:

* d_i: delta = -e_i, c = (u_i^{xi_i} - u_i^{-xi_i}) / (q - q^-1);
* x_i: delta = +e_i, c = 1;
* m_i^{+-1}: delta = 0, c = u_i^{+-xi_i}.

A ``ShiftWord`` holds one such operator; evaluated at u = q^a it is the
monomial action.  An action-table entry is one whose every image is one
term v q^k [n] (``ShiftWord.is_run``), [n] = (q^n - q^-n)/(q - q^-1) the
balanced q-integer with n >= 0, read in that form by ``ShiftWord.run``.  A
generator is a one-letter ``ShiftWord``, built, like every image entry,
when its table first looks it up.  A word of them applied to the generic
monomial X^a is again of this form: a letter applied after the word so far
has shifted the exponents by s turns its term q^e u^m into q^{e + m.s} u^m.
``_word_form`` reads the form of a word from its table's memo, which steps
each suffix once, and ``_add_terms`` adds a form times a Laurent
coefficient into a sum.
``opcalc.image_table`` so sums an image, words with one shift vector and one
d-count, into one ``ShiftWord``, and ``compile_relation`` turns a relation's
two sides, lhs - rhs, into components.  The sides agree on every monomial
iff every component is zero, because distinct characters a -> q^{m.a} are
linearly independent on N^n.  The guard "d_i kills X^a when a_i = 0" needs
no special case: the factor [xi_i * 0] is already 0.
"""

from __future__ import annotations

from functools import cache
from math import comb, prod
from typing import Dict, NamedTuple, Tuple

from .qscalar import ONE, InexactDivisionError, LaurentPoly, ScalarQ, _coeff

Vector = Tuple[int, ...]
Sparse = Tuple[Tuple[int, int], ...]
# (q exponent, u exponent vector) -> nonzero int or Fraction coefficient
ShiftPoly = Dict[Tuple[int, Vector], object]


Form = Tuple[Vector, ShiftPoly, int]


def _step(letter: "ShiftWord", form: Form) -> Form:
    """The form (delta, P, D) of ``letter`` applied after a word of ``form``.

    The word has shifted the exponents by delta, so each term q^e u^m of the
    letter becomes q^{e + m.delta} u^m; the letter's own shift and d-count
    add to delta and D.  Returns a new form and leaves ``form`` as it is.
    """
    shift, poly, divided = form
    nxt: ShiftPoly = {}
    for tv, dq, tu in letter.terms:
        for j, m in tu:
            dq += m * shift[j]
        for (qe, uv), v in poly.items():
            w = uv
            for j, m in tu:
                w = w[:j] + (w[j] + m,) + w[j + 1:]
            key = (qe + dq, w)
            nxt[key] = nxt.get(key, 0) + v * tv
    if letter.delta:
        moved = list(shift)
        for j, s in letter.delta:
            moved[j] += s
        shift = tuple(moved)
    return shift, nxt, divided + letter.divided


class ShiftWord(NamedTuple):
    """An operator sending X^a to c X^{a + delta}, composed once.

    c is the sum of v q^{qe + u.a} over ``terms`` (v, qe, u), divided by
    (q - q^-1)^``divided``.  The vectors delta and u are sparse: pairs
    (slot, nonzero value).
    """

    delta: Sparse
    terms: Tuple[Tuple[object, int, Sparse], ...]
    divided: int

    @classmethod
    def generator(cls, slot: int, step: int, terms, divided: bool = False
                  ) -> "ShiftWord":
        """X^a to c X^{a + step*e_slot}, c the sum of coeff * u_slot^e over
        ``terms`` (pairs (coeff, e)), divided by q - q^-1 when ``divided``."""
        return cls(((slot, step),) if step else (),
                   tuple([(c, 0, ((slot, e),) if e else ()) for c, e in terms]),
                   int(divided))

    @classmethod
    def from_poly(cls, delta: Vector, poly: ShiftPoly, divided: int = 0
                  ) -> "ShiftWord":
        """X^a to P(q, q^a) / (q - q^-1)^divided times X^{a + delta}."""
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
        # Divide by q - q^-1 as the running sum Q_{e-1} = P_e + Q_{e+1}
        # down from the top exponent, per parity; exact iff both end at 0.
        for _ in range(self.divided):
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
        return [] if c.is_zero else [(tuple(tgt), ScalarQ(c))]

    @property
    def is_run(self) -> bool:
        """Whether every image is a run: one undivided term, or c and -c over
        one q - q^-1 whose q and u exponents differ by even numbers, with
        c != 0.  O(terms); ``ActionTable`` stores no other entry."""
        terms = self.terms
        if not self.divided and len(terms) == 1:
            return bool(terms[0][0])
        if self.divided != 1 or len(terms) != 2:
            return False
        (v, a, us), (w, b, ws) = terms
        # a u gap is even iff both terms have the same slots of odd exponent
        return (bool(v) and not v + w and not (a - b) & 1
                and {j for j, e in us if e & 1} == {j for j, e in ws if e & 1})

    def run(self, mon):
        """(target, k, v, n): X^mon goes to v*q^k*[n]*X^target, to zero if
        n = 0, in O(touched slots), where [n] = (q^n - q^-n)/(q - q^-1) and
        n >= 0.  The word must be a run (``is_run``): one undivided term
        v*q^k, n = 1, or (v*q^a - v*q^b)/(q - q^-1), k = (a+b)/2 and
        n = (a-b)/2, a negative n folding its sign into v."""
        v, k, us = self.terms[0]
        for j, e in us:
            k += e * mon[j]
        n = 1
        if self.divided:
            _, b, ws = self.terms[1]
            for j, e in ws:
                b += e * mon[j]
            k, n = (k + b) // 2, (k - b) // 2
            if n < 0:
                v, n = -v, -n
        tgt = list(mon)
        for j, s in self.delta:
            tgt[j] += s
        return tuple(tgt), k, _coeff(v), n


def _sparse(v: Vector) -> Sparse:
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


def _word_form(word, table) -> Form:
    """The form of a word of symbols over ``table``, read from its memo
    ``table.forms``, which maps words to their forms over that table and
    starts with the empty word's, the identity.  A missing word is its first
    letter stepped onto the form of the rest: each suffix is composed once
    per table.
    """
    forms = table.forms
    form = forms.get(word)
    if form is None:
        i = 0
        while word[i:] not in forms:
            i += 1
        form = forms[word[i:]]
        while i:
            i -= 1
            form = forms[word[i:]] = _step(table.entry(word[i]), form)
    return form


def _add_terms(comp, poly, coeff, sign=1):
    """Add sign * coeff(q) times ``poly`` into ``comp``: a term v q^qc of
    coeff moves each term q^qe u^m of ``poly`` to q^(qe + qc) u^m."""
    for qc, vc in coeff.items():
        vc *= sign
        for (qe, uv), v in poly.items():
            key = (qe + qc, uv)
            comp[key] = comp.get(key, 0) + v * vc


@cache
def _q_minus_qinv_power(n: int) -> LaurentPoly:
    """(q - q^-1)^n, the sum of (-1)^k C(n, k) q^(n - 2k), built once per
    process from its binomial coefficients, with no product."""
    return LaurentPoly({n - 2 * k: (-1) ** k * comb(n, k)
                        for k in range(n + 1)})


def compile_relation(lhs, rhs, table) -> ShiftForm:
    """The shift-vector form of lhs - rhs, two OperatorExprs, over an
    ActionTable: ``_add_terms`` adds the terms of ``lhs``, and subtracts
    those of ``rhs``, into the same components, never into an expression.

    Every entry of an ``ActionTable`` is a ``ShiftWord``.  A symbol the
    table does not know raises the ``KeyError`` of ``ActionTable.entry``.

    Each word's form is read from the table's memo (``_word_form``), so the
    calls over one table compose each suffix of each word once.

    Both sides are first multiplied by L, the product of the distinct
    denominators of their coefficients, and by (q - q^-1)^D, D the largest
    number of divisions in one word, so that every component has Laurent
    coefficients in q.  Both factors are nonzero; ``scale`` records them.
    """
    words, dens, depth = [], [], 0
    for expr, sign in ((lhs, 1), (rhs, -1)):
        for word, c in expr.terms.items():
            form = _word_form(word, table)
            if form[2] > depth:
                depth = form[2]
            k = -1                      # a polynomial c: the last co-factor
            if not c.is_polynomial:
                try:                    # compared, never hashed
                    k = dens.index(c.den)
                except ValueError:
                    k = len(dens)
                    dens.append(c.den)
            words.append((form, c.num, k, sign))
    if dens:    # c * L is c.num times every other denominator: no gcd
        rest = [prod(dens[:k] + dens[k + 1:], start=ONE)
                for k in range(len(dens))]
        rest.append(prod(dens, start=ONE))
    components: Dict[Vector, ShiftPoly] = {}
    for (shift, poly, divided), coeff, k, sign in words:
        if dens:
            coeff = coeff * rest[k]
        if divided < depth:
            coeff = coeff * _q_minus_qinv_power(depth - divided)
        _add_terms(components.setdefault(shift, {}), poly, coeff, sign)
    for delta in list(components):
        comp = {key: v for key, v in components[delta].items() if v}
        if comp:
            components[delta] = comp
        else:
            del components[delta]
    return ShiftForm(components,
                     prod(dens, start=_q_minus_qinv_power(depth)))
