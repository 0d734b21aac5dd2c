"""The per-kind closed forms of the alias actions, kept as a test oracle.

``closed_form_action`` is the explicit ladder/diagonal table written out
kind by kind with each kind's default counts and k-exponents, as a plain
mapping of symbols to functions of a monomial, which no ``ActionTable``
holds.  It never reads ``diagram.xi``, so it equals the phi-derived
``iqg.oscillator_action`` at the default xi only; off it, the two part ways.
``action_discrepancies`` compares an image table with it monomial by
monomial.  ``closed_form_table`` is the same formulas as an ``ActionTable``
of run-shaped ``ShiftWord`` entries, for the crystal walks.
``per_node_crystal_edges`` and ``per_node_axioms_check`` are the crystal
graph and its axiom audit by the per-node Kashiwara formula, without string
walks.  ``reference_compile_relation`` is ``shift.compile_relation`` as it
was before it skipped its products by 1: every coefficient times the product
of the other denominators and times a power of q - q^-1, that power and the
product taken even when they are 1.  It composes each word afresh with
``compose``, ``shift``'s fold of one word before the compiler read word
forms from a memo, and reads each key back by ``shift._decode`` (as
``decoded`` reads compiled components) and packs it again by ``packed``,
one letter stepped by the compiler: no test knows the key format.
``evaluate`` is ``ShiftWord.__call__`` as it was before it left the
division by (q - q^-1)^D to its caller: the image of any entry.
``reference_q_product`` is ``qscalar.q_product`` as it was before it ran on
dense lists or packed lanes: one ``LaurentPoly`` product per q-integer.
``reference_laurent_str`` is ``LaurentPoly.__str__`` as it was before it
printed in one pass: one joined piece per term.  ``reference_apply`` is
``opcalc.apply`` as it was before it walked each word in factored form:
one ``ScalarQ`` product per letter and term, each read from the table's
entry itself, so it shares nothing with ``ActionTable.act``.  ``_run`` is
the reference reader of a term v q^k [n] from a Laurent polynomial's terms,
the form in which ``ActionTable.act`` reads each letter.  ``reference_relation_instances``,
``reference_algebra_relations`` and ``reference_uqsl_relation_instances``
are ``iqg.relation_instances``, ``weyl.algebra_relations`` and
``weyl.uqsl_relation_instances`` as they were before they built their
coefficients once per call: every Serre term a product of two
``divided_power`` quotients, every R5 side a ``q_pochhammer`` over
[-c]! (q - q^-1), and every side an ``OperatorExpr`` sum, difference or
scaling; the uqsl reference reads A_{r+1} off its own ``cartan_entry``.
The iqg reference keeps R5's shifts q^(+-3) on the orbit that closes the
cycle of III and IV, as the builder did before they were folded into
varsigma: ``unfolded`` gives it the varsigma it reads.
``cyclic_chi_map`` is chi with its indices read mod n, the realization of
U_q of an affine type A Cartan matrix on n slots, and ``coideal_embedding``
sends a presentation's B/H generators through chi or cyclic chi into the
classical q-Weyl algebra.  ``reference_mul`` is
``QPolynomial.__mul__`` as it was before ``QPolynomial`` and
``OperatorExpr`` shared one linear-combination core: a sum of
``mul_monomial`` products, one per term of the right factor.
``reference_build_diagram`` is ``satake.build_diagram`` as it was before the
six shapes came from one rule: one branch per kind, with varsigma read off
each node's pairing by ``reference_varsigma``, as before the diagram was
built in one construction.  ``eager_algebra_table``
and ``eager_image_table`` are ``weyl.algebra_table`` and
``opcalc.image_table`` as they were before a table built each entry on its
first lookup: every entry built when the table is, into a dict that the
table reads.  ``overridden`` is a table with some entries replaced: one
rule that tries the replacements first.
"""

from functools import partial
from itertools import chain
from math import comb, prod

from qweyl.crystal import combinatorial_rule
from qweyl.iqg import B_, H_, e_, f_, k_, presentation, t_
from qweyl.opcalc import (ActionTable, GeneratorSymbol, OperatorExpr,
                          QPolynomial, apply, expr_map, monomials_of_degree,
                          monomials_up_to)
from qweyl.qscalar import (Q_MINUS_QINV, InexactDivisionError, LaurentPoly,
                           ScalarQ, factorial_steps, q_binomial, q_factorial,
                           q_integer, q_product)
from qweyl.satake import SatakeDiagram, build_diagram
from qweyl.shift import (Form, ShiftForm, ShiftWord, _add_terms, _decode,
                         _identity, _step, _word_form)
from qweyl.weyl import D, E, F, K, M, X, chi_map, weyl_table


def xi_variants(kind, r):
    """The diagram with one xi slot set to 1, 2 or 3, for every slot."""
    d = build_diagram(kind, r)
    return [d.with_xi(slot, xi) for slot in range(d.nslots) for xi in (1, 2, 3)]


def _delta(i, j):
    return 1 if i == j else 0


def _closed_forms(diagram: SatakeDiagram):
    """The closed-form action of each alias on X^a, one of:

    * ("ladder", src, dst, cf, sign): sign [cf a_src] X^(a - e_src + e_dst);
    * ("k", sign, qexp, exps): sign q^(qexp + sum of e a_j over exps (j, e))
      X^a;
    * ("t", slot, sign): sign [a_slot] X^a.
    """
    kind, r = diagram.kind, diagram.r
    forms = {}
    if kind == "V":
        for i in range(1, r + 2):
            e_cf = 2 if i == r + 1 else 1
            f_sign = -1 if i == 1 else 1
            forms[e_(i)] = ("ladder", i, i - 1, e_cf, 1)
            forms[f_(i)] = ("ladder", i - 1, i, f_sign, 1)
            k_sign = -1 if i == 1 else 1
            for sym, s in ((k_(i), 1), (k_(i, True), -1)):
                forms[sym] = ("k", k_sign, 0, ((i - 1, s), (i, -s * e_cf)))
        forms[t_(0)] = ("t", 0, -1)
        return forms

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
        forms[e_(i)] = ("ladder", i + 1, i, e_cf, e_sign)
        forms[f_(i)] = ("ladder", i, i + 1, f_cf, 1)
        k_sign = -1 if kind in ("II", "IV", "VI") and i == r else 1
        shift = -2 * _delta(i, 0) if kind in ("III", "IV") else 0
        if kind == "A1AFF":
            shift = -1
        for sym, s in ((k_(i), 1), (k_(i, True), -1)):
            forms[sym] = ("k", k_sign, s * shift,
                          ((i, s * f_cf), (i + 1, -s * e_cf)))
    if kind in ("II", "IV", "VI"):
        forms[t_(r + 1)] = ("t", r + 1, -1)
    if kind == "VI":
        forms[t_(0)] = ("t", 1, 1)
    return forms


def _plain(form):
    """A closed form as a function of a monomial, returning its one term."""
    tag, *args = form
    if tag == "ladder":
        src, dst, cf, sign = args

        def act(mon):
            c = q_integer(cf * mon[src]) * sign
            if c.is_zero:
                return []
            tgt = tuple(e + _delta(j, dst) - _delta(j, src)
                        for j, e in enumerate(mon))
            return [(tgt, ScalarQ(c))]
        return act
    if tag == "k":
        sign, qexp, exps = args
        return lambda mon: [(mon, ScalarQ(LaurentPoly(
            {qexp + sum(e * mon[j] for j, e in exps): sign})))]
    slot, sign = args
    return lambda mon: [(mon, ScalarQ(q_integer(mon[slot]) * sign))]


def _run_word(form) -> ShiftWord:
    """A closed form as a run-shaped ``ShiftWord``."""
    tag, *args = form
    if tag == "ladder":
        src, dst, cf, sign = args
        return ShiftWord(((src, -1), (dst, 1)), ((sign, 0, ((src, cf),)),
                                                 (-sign, 0, ((src, -cf),))), 1)
    if tag == "k":
        sign, qexp, exps = args
        return ShiftWord((), ((sign, qexp, tuple((j, e) for j, e in exps
                                                 if e)),), 0)
    slot, sign = args
    return ShiftWord((), ((sign, 0, ((slot, 1),)), (-sign, 0, ((slot, -1),))),
                     1)


def closed_form_action(diagram: SatakeDiagram) -> dict:
    """Closed-form monomial actions of the aliases on the polynomial ring,
    each a plain function of a monomial that returns its image's terms.

    These are the explicit ladder/diagonal formulas; they are required (and
    tested) to coincide with composing phi with the direct modified-Weyl
    action.
    """
    return {sym: _plain(form) for sym, form in _closed_forms(diagram).items()}


def closed_form_table(diagram: SatakeDiagram) -> ActionTable:
    """The closed forms of ``closed_form_action`` as an ``ActionTable``: a
    ladder entry sign [cf a_src] is (sign u_src^cf - sign u_src^-cf) /
    (q - q^-1), a k entry one undivided term, a t entry a divided run."""
    entries = {sym: _run_word(form)
               for sym, form in _closed_forms(diagram).items()}
    return ActionTable(diagram.nslots, entries.get, entries.keys)


def scaled_word(word: ShiftWord, factor) -> ShiftWord:
    """``word`` times the Laurent polynomial whose terms (w, k) are w*q^k:
    each term (v, qe, u) becomes (v*w, qe + k, u) for each (w, k).  Times
    one term a run stays one; times more it is no run."""
    return word._replace(terms=tuple((v * w, qe + k, u) for v, qe, u
                                     in word.terms for w, k in factor))


def scaled_steps(table: ActionTable, factor) -> ActionTable:
    """``table`` with every e/f entry times ``factor`` (``scaled_word``),
    which the new table refuses, where it first looks it up, unless it
    stays a run."""
    return overridden(table, {sym: scaled_word(table.entry(sym), factor)
                              for sym in table.symbols
                              if sym.fam in ("e", "f")})


def overridden(table: ActionTable, entries: dict) -> ActionTable:
    """``table`` with the dict ``entries`` in place of its own entries: one
    rule that tries ``entries`` first, then ``table``.  The new table checks
    each entry where it first looks it up; ``table`` is left as it is."""
    return ActionTable(table.nvars,
                       lambda sym: entries.get(sym) or table.get(sym),
                       lambda: chain(entries, table.symbols))


def action_discrepancies(images, table, reference, max_s):
    """Compare two realizations of the same symbols on P_{<=max_s}.

    Each symbol acts once as its image in ``images`` applied through
    ``table`` and once directly through ``reference``, a mapping of symbols
    to functions of a monomial that return its image's terms (such as
    ``closed_form_action`` or an ``ActionTable``'s entries).  Returns
    (symbol label, monomial, via images, via reference) for each
    disagreement, monomials outermost; empty means the two agree.
    """
    report = []
    for mon in monomials_up_to(table.nvars, max_s):
        p = QPolynomial.monomial(mon)
        for sym, expr in images.items():
            via_images = apply(expr, p, table)
            direct = QPolynomial(table.nvars, dict(reference[sym](mon)))
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
    the word f_i^n acts on the plain monomial X^b, each letter expanded
    through its entry's call by ``reference_apply``, and each coordinate is
    c_t D(t) / (D(b) [n]^{xi_{i+1}}!), with D(min(t, b)) left out of both
    sides.
    """
    if n < 0:
        return {}
    b = tuple(e + (a[i + 1] if j == i else 0) - (a[i + 1] if j == i + 1 else 0)
              for j, e in enumerate(a))
    img = reference_apply(OperatorExpr.word((f_(i),) * n),
                          QPolynomial.monomial(b), table)
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


def packed(qe: int, us, nvars: int) -> int:
    """The key of the term q^qe u^us (``us`` as (slot, exponent) pairs) in
    ``nvars`` slots, as the compiler packs it: one letter of that one term
    stepped onto the identity."""
    letter = ShiftWord((), ((1, qe, tuple(us)),), 0)
    (key,) = _step(letter, _identity(nvars))[1]
    return key


def decoded(components) -> dict:
    """Compiled components with every key read by ``shift._decode``, as
    (q exponent, sparse u exponents)."""
    return {delta: {_decode(key): v for key, v in poly.items()}
            for delta, poly in components.items()}


def evaluate(word: ShiftWord, mon):
    """``word``'s image of X^mon as [(target, c)], [] if c = 0: its
    numerator, divided by q - q^-1 ``word.divided`` times as the running sum
    Q_{e-1} = P_e + Q_{e+1} down from the top exponent, per parity, exact
    iff both sums end at 0 (else an ``InexactDivisionError``)."""
    image = word._replace(divided=0)(mon)
    if not image:
        return []
    (tgt, c), = image
    num = dict(c.num.items())
    for _ in range(word.divided):
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
    return [(tgt, ScalarQ(LaurentPoly(num)))]


def compose(letters, nvars: int) -> Form:
    """The form of a word of ShiftWords, rightmost first.

    Returns (delta, P, D, bound): the word sends X^a to P(q, q^a) /
    (q - q^-1)^D times X^{a+delta}, with D the sum of the letters'
    ``divided``.
    """
    form = _identity(nvars)
    for letter in reversed(letters):
        form = _step(letter, form)
    return form


def reference_compile_relation(expr, table) -> ShiftForm:
    """``compile_relation`` with every product by 1 still taken, on keys
    read back as (q exponent, sparse u exponents) and packed again at the
    end; ``scale`` is None for the zero form, as there."""
    n = table.nvars
    words = [(compose([table.entry(sym) for sym in word], n), c)
             for word, c in expr.terms.items()]
    dens = {c.den for _, c in words if not c.is_polynomial}
    rest = {den: prod((d for d in dens if d != den), start=LaurentPoly.one())
            for den in dens | {LaurentPoly.one()}}
    depth = max((form[2] for form, _ in words), default=0)
    powers = [LaurentPoly.one()]
    for _ in range(depth):
        powers.append(powers[-1] * Q_MINUS_QINV)
    components = {}
    for (shift, poly, divided, _), c in words:
        coeff = c.num * rest[c.den] * powers[depth - divided]
        comp = components.setdefault(shift, {})
        terms = [(_decode(key), v) for key, v in poly.items()]
        for qc, vc in coeff.items():
            for (qe, us), v in terms:
                key = (qe + qc, us)
                comp[key] = comp.get(key, 0) + v * vc
    for delta in list(components):
        comp = {packed(qe, us, n): v
                for (qe, us), v in components[delta].items() if v}
        if comp:
            components[delta] = comp
        else:
            del components[delta]
    scale = prod(dens, start=LaurentPoly.one()) * powers[depth]
    return ShiftForm(components, scale if components else None)


def reference_q_product(ns, start=1) -> LaurentPoly:
    """start times [n] for each n in ns, one ``LaurentPoly`` product per
    factor: the oracle of both of ``q_product``'s kernels, the packed lanes
    of a one-term start and the window sums of any other, whichever side
    of the 2^64 bound the chain falls on.  Quadratic in the span, so the
    widest lane edges are checked against closed forms instead."""
    out = start if isinstance(start, LaurentPoly) else LaurentPoly(start)
    for n in ns:
        out = out * q_integer(n)
    return out


def reference_laurent_str(p: LaurentPoly) -> str:
    """The text of p, top power first, one piece per term joined by spaces."""
    c = dict(p.items())
    if not c:
        return "0"
    parts = []
    for e in sorted(c, reverse=True):
        v = c[e]
        mag = abs(v)
        if e == 0:
            body = str(mag)
        else:
            qpart = "q" if e == 1 else "q^%d" % e
            body = qpart if mag == 1 else "%s*%s" % (mag, qpart)
        if not parts:
            parts.append(body if v > 0 else "-" + body)
        else:
            parts.append(("+ " if v > 0 else "- ") + body)
    return " ".join(parts)


def _run(c):
    """(k, v, n) if c is v*q^k*[n] with n >= 1, else None: n terms v, two
    exponents apart, centred on q^k."""
    lo, hi, n = min(c), max(c), len(c)
    v = c[lo]
    if hi - lo == 2 * (n - 1) and all(
            w == v and not (e - lo) & 1 for e, w in c.items()):
        return (lo + hi) // 2, v, n
    return None


def reference_apply(expr: OperatorExpr, p: QPolynomial,
                    table: ActionTable) -> QPolynomial:
    """Apply an operator expression to a polynomial, rightmost symbol first."""
    acc = {}
    for word, c in expr.terms.items():
        pending = list(p.terms.items())
        for sym in reversed(word):
            nxt = []
            for mon, coeff in pending:
                for mon2, coeff2 in evaluate(table.entry(sym), mon):
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


def reference_mul(p: QPolynomial, other: QPolynomial) -> QPolynomial:
    """p times other, summed over other's terms by ``mul_monomial``."""
    def mul_monomial(mon, coeff=1):
        out = QPolynomial(p.nvars)
        coeff = coeff if isinstance(coeff, ScalarQ) else ScalarQ(coeff)
        if not coeff.is_zero:
            out.terms = {tuple(x + y for x, y in zip(m, mon)): c * coeff
                         for m, c in p.terms.items()}
        return out

    if p.nvars != other.nvars:
        raise ValueError("mixing polynomial rings")
    out = QPolynomial.zero(p.nvars)
    for mon, c in other.terms.items():
        out = out + mul_monomial(mon, c)
    return out


def _path_edges(nodes):
    return {frozenset((nodes[i], nodes[i + 1])) for i in range(len(nodes) - 1)}


def _cycle_edges(nodes):
    e = _path_edges(nodes)
    e.add(frozenset((nodes[0], nodes[-1])))
    return e


def reference_varsigma(d: SatakeDiagram) -> dict:
    """varsigma per node, keyed by the pairing of a node with its partner:
    the orbit representative (node 0 on A1AFF, else the smaller node of
    its orbit) receives the first component of each pair.  The orbit
    {0, n - 1} that closes the cycle of III and IV takes (q^-2, q^3)."""
    q = ScalarQ.q_power
    out = {}
    for i in d.nodes:
        j = d.tau[i]
        p = d.pairing(i, j)
        rep = i == 0 if d.kind == "A1AFF" else i <= j
        if p == 2:
            out[i] = q(-1)
        elif p == 0:
            out[i] = ScalarQ.one()
        elif d.kind in ("III", "IV") and {i, j} == {0, len(d.nodes) - 1}:
            out[i] = q(-2) if rep else q(3)
        elif p == -1:
            out[i] = q(1) if rep else ScalarQ.one()
        else:  # p == -2, the double bond
            out[i] = q(1)
    return out


def reference_build_diagram(kind: str, r: int = None) -> SatakeDiagram:
    """The diagram of the given family and rank, one branch per kind, each
    field set by its own copy of the diagram (``_replace``): xi from the
    pairing, then varsigma by ``reference_varsigma``."""
    if kind == "A1AFF":
        d = SatakeDiagram("A1AFF", 0, (0, 1), frozenset(_path_edges((0, 1))),
                          {0: 1, 1: 0}, (1, 3), {})
        return d._replace(varsigma=reference_varsigma(d))

    if kind == "I":
        nodes = tuple(range(2 * r + 4))
        edges = _path_edges(nodes)
        tau = {i: 2 * r + 3 - i for i in nodes}
    elif kind == "II":
        nodes = tuple(range(2 * r + 3))
        edges = _path_edges(nodes)
        tau = {i: 2 * r + 2 - i for i in nodes}
    elif kind == "III":
        nodes = tuple(range(2 * r + 4))
        edges = _cycle_edges(nodes)
        tau = {i: 2 * r + 3 - i for i in nodes}
    elif kind == "IV":
        nodes = tuple(range(2 * r + 3))
        edges = _cycle_edges(nodes)
        tau = {i: 2 * r + 2 - i for i in nodes}
    elif kind == "V":
        nodes = tuple(range(2 * r + 3))
        edges = _cycle_edges(nodes)
        tau = {0: 0}
        tau.update({i: 2 * r + 3 - i for i in nodes if i != 0})
    else:  # VI
        nodes = tuple(range(2 * r + 2))
        edges = _cycle_edges(nodes)
        tau = {0: 0, r + 1: r + 1}
        tau.update({i: 2 * r + 2 - i for i in nodes if i not in (0, r + 1)})

    d = SatakeDiagram(kind, r, nodes, frozenset(edges), tau, (), {})
    xi = [None] * (r + 2)
    for i in nodes:
        xi[min(i, tau[i])] = 1 - d.pairing(i, tau[i])
    d = d._replace(xi=tuple(xi))
    return d._replace(varsigma=reference_varsigma(d))


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
                            word([E(j), E(i), E(i)])
                            - word([E(i), E(j), E(i)], two)
                            + word([E(i), E(i), E(j)]),
                            OperatorExpr.zero()))
                out.append(("uqsl.serre_F", [i, j],
                            word([F(j), F(i), F(i)])
                            - word([F(i), F(j), F(i)], two)
                            + word([F(i), F(i), F(j)]),
                            OperatorExpr.zero()))
    return out


def cartan_entry(i: int, j: int) -> int:
    """The Cartan matrix of type A: 2 on the diagonal, -1 beside it."""
    return 2 * (i == j) - (i == j + 1) - (i + 1 == j)


def cyclic_chi_map(n: int):
    """chi on n slots with indices mod n: E_j = X_j D_{j+1}, F_j =
    X_{j+1} D_j and K_j^{+-1} = M_j^{+-1} M_{j+1}^{-+1}, j = 0..n-1."""
    word = OperatorExpr.word
    mapping = {}
    for j in range(n):
        nxt = (j + 1) % n
        mapping[E(j)] = word([X(j), D(nxt)])
        mapping[F(j)] = word([X(nxt), D(j)])
        mapping[K(j)] = word([M(j), M(nxt, True)])
        mapping[K(j, True)] = word([M(j, True), M(nxt)])
    return mapping


def coideal_embedding(pres: SatakeDiagram):
    """The standard coideal embedding of the presentation ``pres`` into the
    classical q-Weyl algebra, as (images, table): with j = n minus the first
    node, B_n -> F_j + varsigma_n E_{tau j} K_j^-1 and H_n -> K_j K_{tau j}^-1
    (Letzter, J. Algebra 1999; Kolb, arXiv:1207.6036), pushed through chi
    on len(nodes) + 1 slots for kinds I and II and through cyclic chi on
    len(nodes) slots for the others; ``table`` is ``weyl_table`` on those
    slots.  Each image is a sum of two words of different shifts, so it is
    read by ``expr_map``, not by an image table."""
    n, first = len(pres.nodes), pres.nodes[0]
    chi, slots = ((chi_map(n - 1), n + 1) if pres.kind in ("I", "II")
                  else (cyclic_chi_map(n), n))
    word = OperatorExpr.word
    images = {}
    for node in pres.nodes:
        j, tj = node - first, pres.tau[node] - first
        images[B_(node)] = expr_map(word([F(j)]) + word(
            [E(tj), K(j, True)], pres.varsigma[node]), chi)
        images[H_(node)] = expr_map(word([K(j), K(tj, True)]), chi)
    return images, weyl_table(slots)


def unfolded(d: SatakeDiagram) -> SatakeDiagram:
    """``d`` with the varsigma that the eps form of R5 in
    ``reference_relation_instances`` reads: on the orbit {0, n - 1} that
    closes the cycle of III and IV, varsigma_0 q^3 and varsigma_{n-1} q^-3,
    which that form's shifts q^(+-3) take back.  Other kinds keep theirs."""
    if d.kind not in ("III", "IV"):
        return d
    last, q = len(d.nodes) - 1, ScalarQ.q_power
    return d._replace(varsigma={**d.varsigma, 0: d.varsigma[0] * q(3),
                                last: d.varsigma[last] * q(-3)})


def eager_algebra_table(xi, names: str) -> ActionTable:
    """Every d/x/m generator with exponents xi, each a one-letter
    ``ShiftWord``, built at once."""
    d, x, m = (partial(GeneratorSymbol, fam) for fam in names)
    gen = ShiftWord.generator
    entries = {}
    for i, xi_i in enumerate(xi):
        entries[d(i)] = gen(i, -1, ((1, xi_i), (-1, -xi_i)), True)
        entries[x(i)] = gen(i, 1, ((1, 0),))
        entries[m(i)] = gen(i, 0, ((1, xi_i),))
        entries[m(i, True)] = gen(i, 0, ((1, -xi_i),))
    return ActionTable(len(xi), entries.get, entries.keys)


def eager_image_table(images, table: ActionTable) -> ActionTable:
    """The homomorphism ``images`` followed by ``table``'s action, every
    image summed into one ``ShiftWord`` at once, from ``table``'s memo of
    word forms."""
    n, entries = table.nvars, {}
    for sym, image in images.items():
        shapes, total = set(), {}
        for word, c in image.terms.items():
            form = _word_form(word, table)
            shapes.add((form[0], form[2]))
            _add_terms(total, form, c.as_laurent())
        if len(shapes) > 1:
            raise ValueError("words differ in shift vector or d-count")
        delta, divided = shapes.pop() if shapes else ((0,) * n, 0)
        entries[sym] = ShiftWord.from_poly(delta, total, divided)
    return ActionTable(n, entries.get, entries.keys)
