"""The per-kind closed forms of the alias actions, kept as a test oracle.

``closed_form_action`` is the explicit ladder/diagonal table written out
kind by kind with each kind's default counts and k-exponents.  It never reads
``diagram.xi``, so it equals the phi-derived ``iqg.oscillator_action`` at the
default xi only; off it, the two part ways.  ``action_discrepancies``
compares two such tables monomial by monomial through ``apply``.
"""

from qweyl.iqg import e_, f_, k_, t_
from qweyl.opcalc import (ActionTable, OperatorExpr, QPolynomial, apply,
                          monomials_up_to)
from qweyl.qscalar import ScalarQ, q_factorial, q_integer
from qweyl.satake import SatakeDiagram, build_diagram


def xi_variants(kind, r):
    """The diagram with one xi slot set to 1, 2 or 3, for every slot."""
    d = build_diagram(kind, r)
    return [d.with_xi(slot, xi) for slot in range(d.nslots) for xi in (1, 2, 3)]


def _delta(i, j):
    return 1 if i == j else 0


def closed_form_action(diagram: SatakeDiagram) -> ActionTable:
    """Closed-form monomial actions of the aliases on the polynomial ring.

    These are the explicit ladder/diagonal formulas; they are required (and
    tested) to coincide with composing phi with the direct modified-Weyl
    action.
    """
    kind, r = diagram.kind, diagram.r
    nvars = diagram.nslots
    entries = {}

    def ladder(sym, src, dst, count_factor, sign=1):
        def act(mon, src=src, dst=dst, cf=count_factor, sign=sign):
            c = q_integer(cf * mon[src]) * sign
            if c.is_zero:
                return []
            tgt = tuple(e + _delta(j, dst) - _delta(j, src)
                        for j, e in enumerate(mon))
            return [(tgt, ScalarQ(c))]
        entries[sym] = act

    def diagonal(sym, eig):
        entries[sym] = lambda mon, eig=eig: [(mon, eig(mon))]

    q = ScalarQ.q_power
    if kind == "V":
        for i in range(1, r + 2):
            e_cf = 2 if i == r + 1 else 1
            f_sign = -1 if i == 1 else 1
            ladder(e_(i), i, i - 1, e_cf)
            ladder(f_(i), i - 1, i, f_sign)
            k_sign = ScalarQ(-1 if i == 1 else 1)
            for sym, s in ((k_(i), 1), (k_(i, True), -1)):
                diagonal(sym, lambda mon, i=i, e_cf=e_cf, ks=k_sign, s=s:
                         ks * q(s * (mon[i - 1] - e_cf * mon[i])))
        diagonal(t_(0), lambda mon: ScalarQ(-q_integer(mon[0])))
        return ActionTable(nvars, entries)

    lo, hi = (1, r) if kind == "VI" else (0, r)
    for i in range(lo, hi + 1):
        if kind in ("I", "III"):
            e_cf, e_sign = (2 if i == r else 1), 1
        elif kind == "A1AFF":
            e_cf, e_sign = 3, 1
        else:  # II, IV, VI
            e_cf, e_sign = 1, (-1 if i == r else 1)
        if kind in ("III", "IV"):
            f_cf = 2 if i == 0 else 1
        else:
            f_cf = 1
        ladder(e_(i), i + 1, i, e_cf, e_sign)
        ladder(f_(i), i, i + 1, f_cf)
        if kind in ("II", "IV", "VI"):
            k_sign = ScalarQ(-1 if i == r else 1)
        else:
            k_sign = ScalarQ.one()
        shift = -2 * _delta(i, 0) if kind in ("III", "IV") else 0
        if kind == "A1AFF":
            shift = -1
        for sym, s in ((k_(i), 1), (k_(i, True), -1)):
            diagonal(sym, lambda mon, i=i, f_cf=f_cf, e_cf=e_cf, ks=k_sign,
                     sh=shift, s=s:
                     ks * q(s * (f_cf * mon[i] - e_cf * mon[i + 1] + sh)))
    if kind in ("II", "IV", "VI"):
        diagonal(t_(r + 1), lambda mon: ScalarQ(-q_integer(mon[r + 1])))
    if kind == "VI":
        diagonal(t_(0), lambda mon: ScalarQ(q_integer(mon[1])))
    return ActionTable(nvars, entries)


def action_discrepancies(images, table, reference, max_s):
    """Compare two realizations of the same symbols on P_{<=max_s}.

    Each symbol acts once as its image in ``images`` applied through
    ``table`` and once directly through ``reference``.  Returns
    (symbol label, monomial, via images, via reference) for each
    disagreement, monomials outermost; empty means the two agree.
    """
    report = []
    for mon in monomials_up_to(table.nvars, max_s):
        p = QPolynomial.monomial(mon)
        for sym, expr in images.items():
            via_images = apply(expr, p, table)
            direct = apply(OperatorExpr.symbol(sym), p, reference)
            if via_images != direct:
                report.append((sym.label, mon, via_images, direct))
    return report


def witness_coefficients(diagram: SatakeDiagram, a):
    """The (up, down) witness coefficients of X^a as quotients of factorials.

    Up is prod_{i=1}^{r+1} [a_i + ... + a_{r+1}]^{xi_i}!; down is
    prod_{i=0}^{r} [a_i + ... + a_{r+1}]^{xi_i}! / [a_i]^{xi_i}!, each
    quotient taken in Q(q), which needs a gcd.
    """
    xi, s = diagram.xi, sum(a)
    up = ScalarQ.one()
    for i in range(1, diagram.r + 2):
        up = up * ScalarQ(q_factorial(sum(a[i:]), xi[i]))
    down = ScalarQ(q_factorial(s, xi[0])) / ScalarQ(q_factorial(a[0], xi[0]))
    for i in range(1, diagram.r + 1):
        down = down * ScalarQ(q_factorial(s - sum(a[:i]), xi[i])) \
            / ScalarQ(q_factorial(a[i], xi[i]))
    return up, down
