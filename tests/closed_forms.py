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
product taken even when they are 1.  It composes each word afresh with
``compose``, ``shift``'s fold of one word before the compiler read word
forms from a memo.  ``reference_q_product`` is ``qscalar.q_product`` as it
was before it ran on dense lists: one ``LaurentPoly`` product per
q-integer.  ``reference_apply`` is
``opcalc.apply`` as it was before it walked each word in factored form:
one ``ScalarQ`` product per letter and term.  ``reference_relation_instances``,
``reference_algebra_relations`` and ``reference_uqsl_relation_instances``
are ``iqg.relation_instances``, ``weyl.algebra_relations`` and
``weyl.uqsl_relation_instances`` as they were before they built their
coefficients once per call: every Serre term a product of two
``divided_power`` quotients, every R5 side a ``q_pochhammer`` over
[-c]! (q - q^-1), and every side an ``OperatorExpr`` sum, difference or
scaling.
"""

from functools import partial
from math import comb, prod

from qweyl.crystal import combinatorial_rule
from qweyl.iqg import B_, H_, e_, f_, k_, presentation, t_
from qweyl.opcalc import (ActionTable, GeneratorSymbol, OperatorExpr,
                          QPolynomial, apply, apply_word, monomials_of_degree,
                          monomials_up_to)
from qweyl.qscalar import (ONE, Q_MINUS_QINV, LaurentPoly, ScalarQ,
                           factorial_steps, q_binomial, q_factorial, q_integer,
                           q_product)
from qweyl.satake import SatakeDiagram, build_diagram
from qweyl.shift import Form, ShiftForm, _letter, _step
from qweyl.weyl import E, F, K, cartan_entry


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


def compose(letters, nvars: int, coeff: LaurentPoly = ONE) -> Form:
    """The form of coeff(q) times a word of ShiftWords, rightmost first.

    Returns (delta, P, D): the word sends X^a to P(q, q^a) / (q - q^-1)^D
    times X^{a+delta}, with D the sum of the letters' ``divided``.
    """
    zero = (0,) * nvars
    form = zero, {(qe, zero): v for qe, v in coeff.items()}, 0
    for letter in reversed(letters):
        form = _step(letter, form)
    return form


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


def divided_power(g: GeneratorSymbol, n: int) -> OperatorExpr:
    """g^n / [n]!; negative n gives the zero operator by convention."""
    if n < 0:
        return OperatorExpr.zero()
    if n == 0:
        return OperatorExpr.identity()
    return OperatorExpr.word((g,) * n, ScalarQ(1, q_factorial(n, 1)))


def q_pochhammer(a: ScalarQ, x: ScalarQ, n: int) -> ScalarQ:
    """The product (1-a)(1-ax)...(1-ax^{n-1}); n = 0 gives 1."""
    if n < 0:
        raise ValueError("q_pochhammer needs n >= 0, got %d" % n)
    a = a if isinstance(a, ScalarQ) else ScalarQ(a)
    x = x if isinstance(x, ScalarQ) else ScalarQ(x)
    out = ScalarQ.one()
    factor = a
    for _ in range(n):
        out = out * (ScalarQ.one() - factor)
        factor = factor * x
    return out


def _serre_sum(i: int, j: int, c: int, parity: int = 0) -> OperatorExpr:
    """sum_{n=0}^{1-c} (-1)^(n + parity) B_i^(n) B_j B_i^(1-c-n), with the
    divided powers B^(n) = B^n/[n]!: the Serre-type left side for a_ij = c."""
    out = OperatorExpr.zero()
    for n in range(2 - c):
        term = (divided_power(B_(i), n) * OperatorExpr.symbol(B_(j))
                * divided_power(B_(i), 1 - c - n))
        out = out + term.scale(ScalarQ(-1 if (n + parity) % 2 else 1))
    return out


def reference_relation_instances(diagram: SatakeDiagram):
    """Every defining relation of the presentation, instantiated literally.

    Returns (group_id, indices, lhs, rhs) tuples over B/H symbols.  The long
    relation is emitted for both orderings of each two-node orbit, so the
    asymmetric varsigma placement is exercised from both sides.
    """
    pres = presentation(diagram)
    word = OperatorExpr.word
    one = OperatorExpr.identity()
    qq_inv = ScalarQ(Q_MINUS_QINV).invert()
    out = []

    for i in pres.nodes:
        out.append(("iqg.R1_inv", [i], word([H_(i), H_(pres.tau[i])]), one))
    for i in pres.nodes:
        for j in pres.nodes:
            if i < j:
                out.append(("iqg.R1_comm", [i, j],
                            word([H_(i), H_(j)]), word([H_(j), H_(i)])))

    for j in pres.nodes:
        for i in pres.nodes:
            exp = pres.pairing(i, pres.tau[j]) - pres.pairing(i, j)
            out.append(("iqg.R2", [j, i], word([H_(j), B_(i)]),
                        word([B_(i), H_(j)], ScalarQ.q_power(exp))))

    for i in pres.nodes:
        for j in pres.nodes:
            if i < j and pres.pairing(i, j) == 0 and pres.tau[i] != j:
                out.append(("iqg.R3", [i, j],
                            word([B_(i), B_(j)]), word([B_(j), B_(i)])))

    for i in pres.nodes:
        if pres.tau[i] == i:
            continue
        for j in pres.nodes:
            if j == i or j == pres.tau[i]:
                continue
            lhs = _serre_sum(i, j, pres.pairing(i, j))
            out.append(("iqg.R4", [i, j], lhs, OperatorExpr.zero()))

    eps_active = 0 in pres.tau and pres.pairing(0, pres.tau[0]) == -1
    for i in pres.nodes:
        ti = pres.tau[i]
        if ti == i:
            continue
        c = pres.pairing(i, ti)
        lhs = _serre_sum(i, ti, c, c)
        eps = 0
        if eps_active:
            eps = 3 * ((i == 0) - (i == pres.tau[0]))
        qm2 = ScalarQ.q_power(-2)
        qp2 = ScalarQ.q_power(2)
        first = (divided_power(B_(i), -c) * OperatorExpr.symbol(H_(i))).scale(
            ScalarQ.q_power(c + eps) * q_pochhammer(qm2, qm2, -c)
            * pres.varsigma[ti])
        second = (divided_power(B_(i), -c) * OperatorExpr.symbol(H_(ti))).scale(
            ScalarQ.q_power(-eps) * q_pochhammer(qp2, qp2, -c)
            * pres.varsigma[i])
        rhs = (first - second).scale(qq_inv)
        out.append(("iqg.R5", [i], lhs, rhs))

    for i in pres.nodes:
        if pres.tau[i] != i:
            continue
        for j in pres.nodes:
            if j == i:
                continue
            cij = pres.pairing(i, j)
            n_top = 1 - cij
            lhs = OperatorExpr.zero()
            for n in range(n_top + 1):
                coeff = ScalarQ(q_binomial(n_top, n) * ((-1) ** n))
                lhs = lhs + OperatorExpr.word(
                    (B_(i),) * n + (B_(j),) + (B_(i),) * (n_top - n), coeff)
            if cij == -1:
                rhs = OperatorExpr.symbol(
                    B_(j), ScalarQ.q_power(1) * pres.varsigma[i])
            else:
                rhs = OperatorExpr.zero()
            out.append(("iqg.R6", [i, j], lhs, rhs))
    return out


def reference_algebra_relations(xi, names: str, prefix: str):
    """All defining relation instances of the algebra with exponents xi.

    ``names`` holds the d/x/m letters, and group ids are spelled in them:
    "DXM" with prefix "weyl" gives ``weyl.DX_same``, "dxm" with prefix
    "modweyl" gives ``modweyl.dx_same``.  Returns tuples
    (group_id, indices, lhs, rhs) of operator expressions.
    """
    d, x, m = (partial(GeneratorSymbol, fam) for fam in names)
    rename = str.maketrans("DXM", names)

    def gid(name):
        return "%s.%s" % (prefix, name.translate(rename))

    n = len(xi)
    one = OperatorExpr.identity()
    word = OperatorExpr.word
    out = []
    for i in range(n):
        out.append((gid("MMinv"), [i], word([m(i), m(i, True)]), one))
        out.append((gid("MinvM"), [i], word([m(i, True), m(i)]), one))
    for i in range(n):
        for j in range(i + 1, n):
            out.append((gid("MM_comm"), [i, j],
                        word([m(i), m(j)]), word([m(j), m(i)])))
            out.append((gid("DD_comm"), [i, j],
                        word([d(i), d(j)]), word([d(j), d(i)])))
            out.append((gid("XX_comm"), [i, j],
                        word([x(i), x(j)]), word([x(j), x(i)])))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            out.append((gid("DM_comm"), [i, j],
                        word([d(i), m(j)]), word([m(j), d(i)])))
            out.append((gid("XM_comm"), [i, j],
                        word([x(i), m(j)]), word([m(j), x(i)])))
            out.append((gid("DX_comm"), [i, j],
                        word([d(i), x(j)]), word([x(j), d(i)])))
    qq = ScalarQ(Q_MINUS_QINV)
    for i in range(n):
        out.append((gid("DM_same"), [i], word([d(i), m(i)]),
                    word([m(i), d(i)], ScalarQ.q_power(xi[i]))))
        out.append((gid("XM_same"), [i], word([x(i), m(i)]),
                    word([m(i), x(i)], ScalarQ.q_power(-xi[i]))))
        out.append((gid("DX_same"), [i], word([d(i), x(i)]),
                    (word([m(i)], ScalarQ.q_power(xi[i]))
                     - word([m(i, True)], ScalarQ.q_power(-xi[i])))
                    .scale(qq.invert())))
        out.append((gid("XD_same"), [i], word([x(i), d(i)]),
                    (word([m(i)]) - word([m(i, True)])).scale(qq.invert())))
    return out


def reference_uqsl_relation_instances(r: int):
    """All defining relation instances of U_q(sl_{r+2}), as E/F/K expressions."""
    word = OperatorExpr.word
    one = OperatorExpr.identity()
    qq = ScalarQ(Q_MINUS_QINV)
    out = []
    for i in range(r + 1):
        out.append(("uqsl.KKinv", [i], word([K(i), K(i, True)]), one))
        out.append(("uqsl.KinvK", [i], word([K(i, True), K(i)]), one))
    for i in range(r + 1):
        for j in range(i + 1, r + 1):
            out.append(("uqsl.KK_comm", [i, j],
                        word([K(i), K(j)]), word([K(j), K(i)])))
    for i in range(r + 1):
        for j in range(r + 1):
            c = cartan_entry(i, j)
            out.append(("uqsl.KEK", [i, j],
                        word([K(i), E(j), K(i, True)]),
                        word([E(j)], ScalarQ.q_power(c))))
            out.append(("uqsl.KFK", [i, j],
                        word([K(i), F(j), K(i, True)]),
                        word([F(j)], ScalarQ.q_power(-c))))
    for i in range(r + 1):
        for j in range(r + 1):
            lhs = word([E(i), F(j)]) - word([F(j), E(i)])
            if i == j:
                rhs = (word([K(i)]) - word([K(i, True)])).scale(qq.invert())
            else:
                rhs = OperatorExpr.zero()
            out.append(("uqsl.EF", [i, j], lhs, rhs))
    two = ScalarQ(q_integer(2))
    for i in range(r + 1):
        for j in range(r + 1):
            if abs(i - j) > 1:
                out.append(("uqsl.EE_far", [i, j],
                            word([E(i), E(j)]), word([E(j), E(i)])))
                out.append(("uqsl.FF_far", [i, j],
                            word([F(i), F(j)]), word([F(j), F(i)])))
            elif abs(i - j) == 1:
                out.append(("uqsl.serre_E", [i, j],
                            word([E(i), E(i), E(j)])
                            - word([E(i), E(j), E(i)], two)
                            + word([E(j), E(i), E(i)]),
                            OperatorExpr.zero()))
                out.append(("uqsl.serre_F", [i, j],
                            word([F(i), F(i), F(j)])
                            - word([F(i), F(j), F(i)], two)
                            + word([F(j), F(i), F(i)]),
                            OperatorExpr.zero()))
    return out
