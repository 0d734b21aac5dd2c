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
``sum_of_products`` so sums an image of ``opcalc.image_table``, words with
one shift vector and one d-count, into one ``ShiftWord``, multiplying the
sparse terms of its letters directly.  ``compile_relation`` instead reads
a relation as two sides of rows (word, coefficient), the form in which the
relation builders emit it, takes the form of each word from its table's
memo (``_word_form``), which steps each suffix once, adds it times its
Laurent coefficient into a sum that its side owns (``_add_terms``; a side
copies what it reads from the memo), compares the sides' components, and
subtracts only unequal sides.  A coefficient over q^2 - 1, such as
1/(q - q^-1), counts as one more division of its word, like a d letter,
so no other word is multiplied by q^2 - 1.
The sides agree on every monomial iff every component of lhs - rhs is zero,
because distinct characters a -> q^{m.a} are linearly independent on N^n.
The guard "d_i kills X^a when a_i = 0" needs no special case: the factor
[xi_i * 0] is already 0.

A polynomial P compiled by ``compile_relation`` maps each term q^e u^m,
over slots 0..r+1, to its coefficient, keyed by one int, the Kronecker
substitution e + sum_j m_j 2^(24 (j+1)): e, m_0, m_1, ... are its balanced
base-2^24 digits, each in (-2^23, 2^23), so a step moves a term by adding
one int and costs O(touched slots), whatever the rank.  Only this module
knows the format: ``_decode`` reads a key back, for ``ShiftForm.residuals``.
A key never aliases: each form carries a bound on the size of its digits,
which every letter step and every coefficient raises, and a step or
coefficient that could let a digit reach 2^23 raises a ValueError before it
packs such a key; a digit of 2^23 - 1 packs.  Words in the relations qweyl
builds stay far inside it, but a caller may compile a word of any length.
"""

from __future__ import annotations

from functools import cache
from math import comb, prod
from operator import add
from typing import Dict, NamedTuple, Optional, Tuple

from .qscalar import _UNIT, ONE, Q_MINUS_QINV, LaurentPoly, ScalarQ, _coeff

Vector = Tuple[int, ...]
Sparse = Tuple[Tuple[int, int], ...]
# packed key q^e u^m (see the module docstring) -> nonzero int or Fraction
ShiftPoly = Dict[int, object]

_BITS = 24
_HALF = 1 << (_BITS - 1)    # every digit of a key lies in (-_HALF, _HALF)
_MASK = (1 << _BITS) - 1

# (delta, P, D, bound): shift vector, polynomial, d-count, and a bound below
# _HALF on the size of every digit of P's keys
Form = Tuple[Vector, ShiftPoly, int, int]


def _identity(nvars: int) -> Form:
    """The form of the empty word over ``nvars`` slots: 1, unshifted."""
    return (0,) * nvars, {0: 1}, 0, 0


def _decode(key: int) -> Tuple[int, Sparse]:
    """(e, m) of a packed key q^e u^m, m as (slot, nonzero exponent) pairs;
    reads digits only up to the highest nonzero slot.  With 2^23 added, the
    low 24 bits of a key are its lowest digit plus 2^23, and the bits above
    them are the key of its higher digits."""
    key += _HALF
    e = (key & _MASK) - _HALF
    key >>= _BITS
    us, j = [], 0
    while key:
        key += _HALF
        m = (key & _MASK) - _HALF
        if m:
            us.append((j, m))
        key >>= _BITS
        j += 1
    return e, tuple(us)


def _unpackable(bound: int) -> ValueError:
    return ValueError("a compiled exponent could reach 2^%d (%d > %d): the "
                      "word is too long or its exponents too large"
                      % (_BITS - 1, bound, _HALF - 1))


def _step(letter: "ShiftWord", form: Form) -> Form:
    """The form (delta, P, D, bound) of ``letter`` applied after a word of
    ``form``.

    The word has shifted the exponents by delta, so each term q^e u^m of the
    letter becomes q^{e + m.delta} u^m, which moves every key of P by one
    int; the letter's own shift and d-count add to delta and D.  The bound
    grows by the largest digit of any such move, and a term whose move
    could take a digit to 2^23 raises a ValueError before it packs a key.
    Returns a new form and leaves ``form`` as it is.
    """
    shift, poly, divided, bound = form
    nxt: ShiftPoly = {}
    top = bound
    for tv, dq, tu in letter.terms:
        off = 0
        for j, m in tu:
            dq += m * shift[j]
            off += m << _BITS * (j + 1)
            if bound + abs(m) > top:
                top = bound + abs(m)
        if bound + abs(dq) > top:
            top = bound + abs(dq)
        if top >= _HALF:
            raise _unpackable(top)
        off += dq
        for key, v in poly.items():
            key += off
            nxt[key] = nxt.get(key, 0) + v * tv
    if letter.delta:
        moved = list(shift)
        for j, s in letter.delta:
            moved[j] += s
        shift = tuple(moved)
    return shift, nxt, divided + letter.divided, top


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


def _merged(us: Sparse, tu: Sparse) -> Sparse:
    """us + tu, slots ascending and zero exponents dropped."""
    out = dict(us)
    for j, m in tu:
        out[j] = out.get(j, 0) + m
    return tuple(sorted([(j, m) for j, m in out.items() if m]))


def sum_of_products(words) -> ShiftWord:
    """The sum over ``words``, pairs (letters, coeff), of the LaurentPoly
    coeff times the product of the ShiftWords ``letters`` (each u with slots
    ascending), composed on their sparse terms: rightmost letter first, a
    term (v, qe, u) after a shift s is v q^{qe + u.s} u^u, like terms merging
    by (q exponent, u), with coefficient terms outer, then each letter's
    terms outer over those before it.  Words of two shift vectors or
    d-counts raise a ValueError; no word is ShiftWord((), (), 0)."""
    shape, total = None, {}
    for letters, coeff in words:
        shift, terms, divided = {}, {(0, ()): 1}, 0
        for letter in reversed(letters):
            nxt = {}
            for tv, qe, tu in letter.terms:
                for j, m in tu:
                    qe += m * shift.get(j, 0)
                for (e, us), v in terms.items():
                    key = e + qe, _merged(us, tu) if us and tu else us or tu
                    nxt[key] = nxt.get(key, 0) + v * tv
            terms = nxt
            for j, s in letter.delta:
                shift[j] = s = shift.get(j, 0) + s
                if not s:
                    del shift[j]
            divided += letter.divided
        if shape is None:
            shape = shift, divided
        elif shape != (shift, divided):
            raise ValueError("words differ in shift vector or d-count")
        for qc, vc in coeff.items():
            for (e, us), v in terms.items():
                key = e + qc, us
                total[key] = total.get(key, 0) + v * vc
    shift, divided = shape or ({}, 0)
    return ShiftWord(tuple(sorted(shift.items())), tuple(
        [(v, e, us) for (e, us), v in total.items() if v]), divided)


class ShiftForm(NamedTuple):
    """A compiled expression: ``scale`` times it maps X^a to the sum over
    ``components`` of P_delta(q, q^a) X^{a+delta}, where each component
    P_delta maps the packed key of each term q^e u^m to its coefficient;
    ``residuals`` reads them back.

    Only nonzero components are kept, so the expression is the zero operator
    iff ``components`` is empty; its ``scale`` is then None.  Each compiled
    form owns its dicts: ``compile_relation`` builds a new zero form
    whenever its two sides compare equal, and copies what a side reads from
    a table's memo of word forms, so a caller may change any component.
    """

    components: Dict[Vector, ShiftPoly]
    scale: Optional[LaurentPoly]

    def residuals(self, monomials):
        """The expression on ``monomials``, in their order: yields (a,
        {a + delta: P_delta(q, q^a) / scale}) for each X^a it does not kill,
        each key read once by ``_decode``; no two components share a delta.
        A zero form draws no monomial."""
        if not self.components:
            return
        comps = [(delta, [(v, *_decode(key)) for key, v in poly.items()])
                 for delta, poly in self.components.items()]
        for a in monomials:
            out = {}
            for delta, terms in comps:
                num = {}
                for v, e, us in terms:
                    for j, m in us:
                        e += m * a[j]
                    num[e] = num.get(e, 0) + v
                c = LaurentPoly(num)
                if not c.is_zero:
                    out[tuple(map(add, a, delta))] = ScalarQ(c, self.scale)
            if out:
                yield a, out


def _word_form(word, table) -> Form:
    """The form of a word of symbols over ``table``, read from its memo
    ``table.forms``, which maps words to their forms over that table and
    starts with the empty word's, the identity.  A missing word is its first
    letter stepped onto the form of the rest: each suffix is composed once
    per table.  Only ``compile_relation`` reads or fills the memo.
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


def _add_terms(comp, form: Form, coeff):
    """Add coeff(q) times the polynomial of ``form`` into ``comp``: a
    term v q^qc of coeff moves each key of it by qc, its q digit.  A qc that
    could take a digit past the form's bound to 2^23 raises a ValueError
    before any key is packed."""
    poly, room = form[1], _HALF - form[3]
    for qc, vc in coeff.items():
        if not -room < qc < room:
            raise _unpackable(form[3] + abs(qc))
        for key, v in poly.items():
            key += qc
            comp[key] = comp.get(key, 0) + v * vc


# The terms of q^2 - 1, the canonical denominator of 1/(q - q^-1):
# ``compile_relation`` reads a coefficient over it as one more division.
_FOLDED = ScalarQ(1, Q_MINUS_QINV).den._c


@cache
def _q_minus_qinv_power(n: int) -> LaurentPoly:
    """(q - q^-1)^n, the sum of (-1)^k C(n, k) q^(n - 2k), built once per
    process from its binomial coefficients, with no product."""
    return LaurentPoly({n - 2 * k: (-1) ** k * comb(n, k)
                        for k in range(n + 1)})


def compile_relation(lhs, rhs, table) -> ShiftForm:
    """The shift-vector form of lhs - rhs over an ActionTable.  Each side is
    a sequence of rows (word, coeff): a tuple of symbols and a nonzero
    ScalarQ, no word twice on one side, and an empty side is zero.  A
    caller holding an ``OperatorExpr`` passes ``expr.terms.items()``.  Each
    side is summed into its own components by ``_add_terms``; two equal
    sides give the zero form at once, and only unequal ones are subtracted.

    Every entry of an ``ActionTable`` is a ``ShiftWord``.  A symbol the
    table does not know raises the ``KeyError`` of ``ActionTable.entry``.

    Each word's form is read from the table's memo (``_word_form``), so the
    calls over one table compose each suffix of each word once.  The memo
    is never changed: a word whose coefficient is 1, once scaled, and that
    is the first on its shift vector on its side, starts that side's
    component as a copy of its polynomial; every other word is added into
    a component the side owns.

    A coefficient over q^2 - 1, the canonical denominator of 1/(q - q^-1),
    is read as its numerator times q^-1 over one more division by
    q - q^-1: the fold adds to its word's d-count.  Both sides are then
    multiplied by L, the product of the other distinct denominators of
    their coefficients, and by (q - q^-1)^D, D the largest d-count of one
    word, so that every component has Laurent coefficients in q.  Both
    factors are nonzero; ``scale`` records them, and is built only for a
    nonzero form.

    A word or coefficient whose exponents could reach 2^23 in a packed key
    raises a ValueError (see the module docstring).
    """
    sides, dens, depth = ([], []), [], 0
    for rows, words in zip((lhs, rhs), sides):
        for word, c in rows:
            form = _word_form(word, table)
            num, den, divided, k = c.num, c.den, form[2], -1
            if den._c != _UNIT:
                if den._c == _FOLDED:
                    num, divided = num.shift(-1), divided + 1
                else:
                    try:                # compared, never hashed
                        k = dens.index(den)
                    except ValueError:
                        k = len(dens)
                        dens.append(den)
            if divided > depth:
                depth = divided
            words.append((form, num, divided, k))
    if dens:    # c * L is c.num times every other denominator: no gcd
        rest = [prod(dens[:k] + dens[k + 1:], start=ONE)
                for k in range(len(dens))]
        rest.append(prod(dens, start=ONE))
    summed = []
    for words in sides:
        comps: Dict[Vector, ShiftPoly] = {}
        for form, coeff, divided, k in words:
            if dens:
                coeff = coeff * rest[k]
            if divided < depth:
                coeff = coeff * _q_minus_qinv_power(depth - divided)
            delta = form[0]
            comp = comps.get(delta)
            if comp is None:
                if coeff._c == _UNIT:
                    comps[delta] = dict(form[1])
                    continue
                comp = comps[delta] = {}
            _add_terms(comp, form, coeff)
        summed.append(comps)
    left, right = summed
    if left == right:
        return ShiftForm({}, None)
    components: Dict[Vector, ShiftPoly] = {}
    for delta, comp in left.items():
        sub = right.get(delta)
        if sub:
            for key, v in sub.items():
                comp[key] = comp.get(key, 0) - v
        comp = {key: v for key, v in comp.items() if v}
        if comp:
            components[delta] = comp
    for delta, comp in right.items():
        if delta not in left:
            comp = {key: -v for key, v in comp.items() if v}
            if comp:
                components[delta] = comp
    return ShiftForm(components, prod(dens, start=_q_minus_qinv_power(depth))
                     if components else None)
