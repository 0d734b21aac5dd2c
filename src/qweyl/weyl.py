"""The q-Weyl algebra with exponents xi acting on Q(q)[X_0..X_{r+1}].

Generators d_i (q-difference), x_i (multiplication), m_i^{+-1} (q-scaling)
act by d_i X^a = [xi_i a_i] X^{a-e_i} and m_i^{+-1} X^a = q^{+-xi_i a_i} X^a.
At xi = 1 this is the classical algebra, written D_i, X_i, M_i^{+-1}; the
modified algebra of a Satake diagram takes the diagram's xi.  The map chi
sends the Chevalley generators E_i, F_i, K_i of U_q(sl_{r+2}) to X_i D_{i+1},
X_{i+1} D_i and M_i M_{i+1}^{-1}.  ``quantum_relations`` builds the relations
of U_q from a symmetric Cartan matrix, and the uqsl suite on A_{r+1}.
"""

from __future__ import annotations

from .opcalc import ActionTable, GeneratorSymbol, OperatorExpr, QPolynomial
from .qscalar import Q_MINUS_QINV, ScalarQ, q_binomial
from .shift import ShiftWord


def D(i: int) -> GeneratorSymbol:
    return GeneratorSymbol("D", i)


def X(i: int) -> GeneratorSymbol:
    return GeneratorSymbol("X", i)


def M(i: int, inv: bool = False) -> GeneratorSymbol:
    return GeneratorSymbol("M", i, inv)


def E(i: int) -> GeneratorSymbol:
    return GeneratorSymbol("E", i)


def F(i: int) -> GeneratorSymbol:
    return GeneratorSymbol("F", i)


def K(i: int, inv: bool = False) -> GeneratorSymbol:
    return GeneratorSymbol("K", i, inv)


def algebra_table(xi, names: str) -> ActionTable:
    """Monomial actions with exponents xi, on the d/x/m letters in ``names``:
    each entry is built by ``algebra_rule`` when it is first looked up."""
    return ActionTable(len(xi), *algebra_rule(xi, names))


def algebra_rule(xi, names: str):
    """The build rule of ``algebra_table`` and the function listing its
    symbols, as a pair.

    The rule gives each generator as a one-letter ``ShiftWord``, and None
    for any other symbol: d_i X^a = [xi_i a_i] X^{a-e_i}, x_i appends,
    m_i^{+-1} scales by q^{+-xi_i a_i}.
    """
    d, x, m = names
    n, gen = len(xi), ShiftWord.generator

    def build(sym):
        fam, i, inv = sym
        if not 0 <= i < n:
            return None
        if fam == m:
            return gen(i, 0, ((1, -xi[i] if inv else xi[i]),))
        if inv:
            return None
        if fam == d:
            return gen(i, -1, ((1, xi[i]), (-1, -xi[i])), True)
        return gen(i, 1, ((1, 0),)) if fam == x else None

    def symbols():
        return [GeneratorSymbol(fam, i, inv) for i in range(n)
                for fam, inv in ((d, False), (x, False), (m, False), (m, True))]

    return build, symbols


def weyl_table(nvars: int) -> ActionTable:
    """The classical algebra: D_i X^a = [a_i] X^{a-e_i}, X_i appends, M_i scales."""
    return algebra_table((1,) * nvars, "DXM")


def d_substitution(i: int, p: QPolynomial) -> QPolynomial:
    """q-differentiation as the literal difference quotient.

    (p with X_i -> qX_i) minus (p with X_i -> q^-1 X_i), divided by
    (q - q^-1) X_i.  Coincides with the monomial rule [a_i] X^{a-e_i}.
    """
    diff = p.scale_var(i, +1) - p.scale_var(i, -1)
    denom = ScalarQ(Q_MINUS_QINV)
    out = QPolynomial.zero(p.nvars)
    for mon, c in diff.terms.items():
        if mon[i] == 0:
            raise ArithmeticError("difference quotient not divisible by X_%d" % i)
        tgt = tuple(e - 1 if j == i else e for j, e in enumerate(mon))
        out = out + QPolynomial.monomial(tgt, c / denom)
    return out


def leibniz_check(i: int, f: QPolynomial, g: QPolynomial) -> bool:
    """D_i(fg) = D_i(f) g(..q^-1 X_i..) + f(..q X_i..) D_i(g), exactly."""
    lhs = d_substitution(i, f * g)
    rhs = d_substitution(i, f) * g.scale_var(i, -1) \
        + f.scale_var(i, +1) * d_substitution(i, g)
    return lhs == rhs


def algebra_relations(xi, names: str, prefix: str):
    """All defining relation instances of the algebra with exponents xi.

    ``names`` holds the d/x/m letters, and group ids are spelled in them:
    "DXM" with prefix "weyl" gives ``weyl.DX_same``, "dxm" with prefix
    "modweyl" gives ``modweyl.dx_same``.  Returns tuples
    (group_id, indices, lhs, rhs) of operator expressions.  Each symbol
    and group id is built once per call.
    """
    n = len(xi)
    dn, xn, mn = names
    d = [GeneratorSymbol(dn, i) for i in range(n)]
    x = [GeneratorSymbol(xn, i) for i in range(n)]
    m = [GeneratorSymbol(mn, i) for i in range(n)]
    minv = [GeneratorSymbol(mn, i, True) for i in range(n)]
    rename = str.maketrans("DXM", names)
    gid = {name: "%s.%s" % (prefix, name.translate(rename)) for name in (
        "MMinv", "MinvM", "MM_comm", "DD_comm", "XX_comm", "DM_comm",
        "XM_comm", "DX_comm", "DM_same", "XM_same", "DX_same", "XD_same")}
    one = OperatorExpr.identity()
    word = OperatorExpr.word
    out = []
    for i in range(n):
        out.append((gid["MMinv"], [i], word((m[i], minv[i])), one))
        out.append((gid["MinvM"], [i], word((minv[i], m[i])), one))
    for i in range(n):
        for j in range(i + 1, n):
            out.append((gid["MM_comm"], [i, j],
                        word((m[i], m[j])), word((m[j], m[i]))))
            out.append((gid["DD_comm"], [i, j],
                        word((d[i], d[j])), word((d[j], d[i]))))
            out.append((gid["XX_comm"], [i, j],
                        word((x[i], x[j])), word((x[j], x[i]))))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            out.append((gid["DM_comm"], [i, j],
                        word((d[i], m[j])), word((m[j], d[i]))))
            out.append((gid["XM_comm"], [i, j],
                        word((x[i], m[j])), word((m[j], x[i]))))
            out.append((gid["DX_comm"], [i, j],
                        word((d[i], x[j])), word((x[j], d[i]))))
    qq_inv = ScalarQ(1, Q_MINUS_QINV)
    same = {}  # xi_i -> q^xi_i, q^-xi_i and the DX_same rhs coefficients
    for i, v in enumerate(xi):
        if v not in same:
            up, down = ScalarQ.q_power(v), ScalarQ.q_power(-v)
            same[v] = up, down, up * qq_inv, -(down * qq_inv)
        up, down, dx_m, dx_minv = same[v]
        out.append((gid["DM_same"], [i], word((d[i], m[i])),
                    word((m[i], d[i]), up)))
        out.append((gid["XM_same"], [i], word((x[i], m[i])),
                    word((m[i], x[i]), down)))
        out.append((gid["DX_same"], [i], word((d[i], x[i])),
                    OperatorExpr({(m[i],): dx_m, (minv[i],): dx_minv})))
        out.append((gid["XD_same"], [i], word((x[i], d[i])),
                    OperatorExpr({(m[i],): qq_inv, (minv[i],): -qq_inv})))
    return out


def weyl_relation_instances(r: int):
    """All defining relation instances of the classical algebra on r+2 slots."""
    return algebra_relations((1,) * (r + 2), "DXM", "weyl")


def chi_map(r: int):
    """Images of the Chevalley generators of U_q(sl_{r+2}) under chi."""
    word = OperatorExpr.word
    mapping = {}
    for i in range(r + 1):
        mapping[E(i)] = word([X(i), D(i + 1)])
        mapping[F(i)] = word([X(i + 1), D(i)])
        mapping[K(i)] = word([M(i), M(i + 1, True)])
        mapping[K(i, True)] = word([M(i, True), M(i + 1)])
    return mapping


def _sandwich(gi: GeneratorSymbol, gj: GeneratorSymbol, coeffs):
    """The sum over n of coeffs[n] gi^n gj gi^(m-n), m = len(coeffs) - 1."""
    m = len(coeffs) - 1
    return OperatorExpr({(gi,) * n + (gj,) + (gi,) * (m - n): v
                         for n, v in enumerate(coeffs)})


# (-1)^n [m choose n], n = 0..m: through ``_sandwich``, row m is the q-Serre
# sum of order m = 1 - a_ij, for a_ij in 0, -1, -2.  Built at import with
# the q-powers of K-conjugation, since they depend on no diagram.
SERRE_ROWS = {m: tuple([ScalarQ(q_binomial(m, n) * (-1) ** n)
                        for n in range(m + 1)]) for m in (1, 2, 3)}
_Q_POWERS = {c: ScalarQ.q_power(c) for c in range(-2, 3)}


def quantum_relations(cartan):
    """All defining relation instances of U_q of the symmetric Cartan
    matrix ``cartan`` (rows of ints, off-diagonal 0, -1 or -2) on the nodes
    0..n-1, as E/F/K expressions: K K^-1, the K commutators, K-conjugation
    of E and F by q^(+-a_ij), [E_i, F_j], the E and F commutators where
    a_ij = 0 and the q-Serre sums of order 1 - a_ij (``SERRE_ROWS``) where
    a_ij < 0.  Each symbol is built once per call."""
    n = len(cartan)
    word = OperatorExpr.word
    one = OperatorExpr.identity()
    plus, minus = ScalarQ.one(), -ScalarQ.one()
    qq_inv = ScalarQ(1, Q_MINUS_QINV)
    e, f = [E(i) for i in range(n)], [F(i) for i in range(n)]
    k, kinv = [K(i) for i in range(n)], [K(i, True) for i in range(n)]
    out = []
    for i in range(n):
        out.append(("uqsl.KKinv", [i], word((k[i], kinv[i])), one))
        out.append(("uqsl.KinvK", [i], word((kinv[i], k[i])), one))
    for i in range(n):
        for j in range(i + 1, n):
            out.append(("uqsl.KK_comm", [i, j],
                        word((k[i], k[j])), word((k[j], k[i]))))
    for i in range(n):
        for j in range(n):
            c = cartan[i][j]
            out.append(("uqsl.KEK", [i, j], word((k[i], e[j], kinv[i])),
                        word((e[j],), _Q_POWERS[c])))
            out.append(("uqsl.KFK", [i, j], word((k[i], f[j], kinv[i])),
                        word((f[j],), _Q_POWERS[-c])))
    for i in range(n):
        for j in range(n):
            lhs = OperatorExpr({(e[i], f[j]): plus, (f[j], e[i]): minus})
            rhs = (OperatorExpr({(k[i],): qq_inv, (kinv[i],): -qq_inv})
                   if i == j else OperatorExpr.zero())
            out.append(("uqsl.EF", [i, j], lhs, rhs))
    for i in range(n):
        for j in range(n):
            c = cartan[i][j]
            if c == 0:
                out.append(("uqsl.EE_far", [i, j],
                            word((e[i], e[j])), word((e[j], e[i]))))
                out.append(("uqsl.FF_far", [i, j],
                            word((f[i], f[j])), word((f[j], f[i]))))
            elif c < 0:
                for g, group in ((e, "uqsl.serre_E"), (f, "uqsl.serre_F")):
                    out.append((group, [i, j],
                                _sandwich(g[i], g[j], SERRE_ROWS[1 - c]),
                                OperatorExpr.zero()))
    return out


def uqsl_relation_instances(r: int):
    """The relation instances of U_q(sl_{r+2}): those of type A_{r+1}."""
    return quantum_relations([[2 * (i == j) - (abs(i - j) == 1)
                               for j in range(r + 1)] for i in range(r + 1)])
