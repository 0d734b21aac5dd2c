"""The per-kind closed forms of the alias actions, kept as a test oracle.

``closed_form_action`` is the explicit ladder/diagonal table written out
kind by kind with each kind's default counts and k-exponents.  It never reads
``diagram.xi``, so it equals the phi-derived ``iqg.oscillator_action`` at the
default xi only; off it, the two part ways.  ``action_discrepancies``
compares two such tables monomial by monomial through ``apply``.
``per_node_crystal_edges`` and ``per_node_axioms_check`` are the crystal
graph and its axiom audit by the per-node Kashiwara formula, without string
walks.  ``reference_compile_relation`` is ``shift.compile_relation`` as it
was before it skipped its products by 1: every coefficient times the product
of the other denominators and times a power of q - q^-1, that power and the
product taken even when they are 1.  ``reference_q_product`` is
``qscalar.q_product`` as it was before it ran on dense lists: one
``LaurentPoly`` product per q-integer.  ``reference_apply`` is
``opcalc.apply`` as it was before it walked each word in factored form:
one ``ScalarQ`` product per letter and term.
"""

from math import comb, prod

from qweyl.crystal import combinatorial_rule
from qweyl.iqg import e_, f_, k_, t_
from qweyl.opcalc import (ActionTable, OperatorExpr, QPolynomial, apply,
                          apply_word, monomials_of_degree, monomials_up_to)
from qweyl.qscalar import (Q_MINUS_QINV, LaurentPoly, ScalarQ, factorial_steps,
                           q_factorial, q_integer, q_product)
from qweyl.satake import SatakeDiagram, build_diagram
from qweyl.shift import ShiftForm, _letter, compose


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


def per_node_coords(diagram: SatakeDiagram, i, a, n, table):
    """Divided coordinates of f_i^{(n)_{xi_{i+1}}} X^(b), b the head of the
    i-string through a, computed from scratch for one node.

    This is the formula ``crystal_graph`` used before it walked strings:
    the word f_i^n acts on the plain monomial X^b and each coordinate is
    c_t D(t) / (D(b) [n]^{xi_{i+1}}!), with D(min(t, b)) left out of both
    sides.
    """
    if n < 0:
        return {}
    b = tuple(e + (a[i + 1] if j == i else 0) - (a[i + 1] if j == i + 1 else 0)
              for j, e in enumerate(a))
    img = apply_word((f_(i),) * n, QPolynomial.monomial(b), table)
    xi = diagram.xi
    steps = [xi[i + 1] * u for u in range(1, n + 1)]
    return {t: ScalarQ(q_product(factorial_steps(xi, b, t), c.num),
                       q_product(steps + factorial_steps(xi, t, b), c.den))
            for t, c in img.terms.items()}


def per_node_crystal_edges(diagram: SatakeDiagram, s, table):
    """The edges of the degree-s crystal graph, one ``per_node_coords``
    call per node and color, nodes in decreasing order.  The first image
    that is not zero or one basis vector with coefficient 1 raises the
    ``ArithmeticError`` that ``crystal_graph`` raises."""
    edges = []
    for a in sorted(monomials_of_degree(diagram.nslots, s), reverse=True):
        for i in range(diagram.r + 1):
            coords = per_node_coords(diagram, i, a, a[i + 1] + 1, table)
            if not coords:
                continue
            (b, c), *rest = coords.items()
            if rest or not c.is_one:
                raise ArithmeticError("Kashiwara image is not a basis vector "
                                      "with coefficient 1: %r" % coords)
            edges.append((a, i, b))
    return tuple(edges)


def per_node_axioms_check(diagram: SatakeDiagram, s, table):
    """``crystal_axioms_check`` over ``table``, with both images of every
    node and color computed by ``per_node_coords``: the audit as it was
    before it shared the string walks of ``crystal_graph``."""
    nodes = monomials_of_degree(diagram.nslots, s)
    report = {"diagram": diagram.spec_string, "s": s,
              "closure_ok": True, "b5_ok": True, "weight_ok": True,
              "rule_agreement_ok": True, "rank_ok": True, "failures": []}

    def fail(kind, detail):
        report[kind] = False
        report["failures"].append((kind, detail))

    fmap = {}
    emap = {}
    for a in nodes:
        for i in range(diagram.r + 1):
            for direction, n in (("f", a[i + 1] + 1), ("e", a[i + 1] - 1)):
                coords = per_node_coords(diagram, i, a, n, table)
                target = defect = None
                if len(coords) > 1:
                    defect = "not a basis vector"
                elif coords:
                    (target, c), = coords.items()
                    defect = None if c.is_one else str(c)
                if defect is not None:
                    fail("closure_ok", (direction, i, a, defect))
                    if target is None:
                        continue
                (fmap if direction == "f" else emap)[i, a] = target
                if target is not None and direction == "f":
                    step = tuple(t - u for t, u in zip(target, a))
                    want = tuple((j == i + 1) - (j == i)
                                 for j in range(diagram.nslots))
                    if step != want:
                        fail("weight_ok", (i, a, target))
                if combinatorial_rule(i, a, direction) != target:
                    fail("rule_agreement_ok", (direction, i, a, target))
    for (i, a), b in fmap.items():
        if b is not None and emap.get((i, b)) != a:
            fail("b5_ok", ("f then e", i, a, b))
    for (i, b), a in emap.items():
        if a is not None and fmap.get((i, a)) != b:
            fail("b5_ok", ("e then f", i, b, a))
    if len(nodes) != comb(s + diagram.r + 1, diagram.r + 1):
        fail("rank_ok", (len(nodes),))
    report["all_ok"] = not report["failures"]
    return report


def reference_compile_relation(expr, table) -> ShiftForm:
    """``compile_relation`` with every product by 1 still taken."""
    n = table.nvars
    words = [(compose([_letter(table, sym) for sym in word], n), c)
             for word, c in expr.terms.items()]
    dens = {c.den for _, c in words if not c.is_polynomial}
    rest = {den: prod((d for d in dens if d != den), start=LaurentPoly.one())
            for den in dens | {LaurentPoly.one()}}
    depth = max((divided for (_, _, divided), _ in words), default=0)
    powers = [LaurentPoly.one()]
    for _ in range(depth):
        powers.append(powers[-1] * Q_MINUS_QINV)
    components = {}
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


def reference_q_product(ns, start=1) -> LaurentPoly:
    """start times [n] for each n in ns, one run product per factor."""
    out = start if isinstance(start, LaurentPoly) else LaurentPoly(start)
    for n in ns:
        out = out * q_integer(n)
    return out


def reference_apply(expr: OperatorExpr, p: QPolynomial,
                    table: ActionTable) -> QPolynomial:
    """Apply an operator expression to a polynomial, rightmost symbol first."""
    acc = {}
    for word, c in expr.terms.items():
        pending = list(p.terms.items())
        for sym in reversed(word):
            nxt = []
            for mon, coeff in pending:
                for mon2, coeff2 in table.act(sym, mon):
                    nxt.append((mon2, coeff * coeff2))
            pending = nxt
            if not pending:
                break
        for mon, coeff in pending:
            v = coeff * c
            w = acc.get(mon)
            w = v if w is None else w + v
            if w.is_zero:
                acc.pop(mon, None)
            else:
                acc[mon] = w
    out = QPolynomial.__new__(QPolynomial)
    out.nvars, out.terms = p.nvars, acc
    return out
