"""Coideal-subalgebra presentations over Satake diagrams and their realization.

``presentation`` reads the diagram carrying the B_i, H_i presentation off the
Satake diagram: nodes, Cartan pairing, involution and varsigma.
Kinds I and III draw more nodes than the realization has generators: I keeps
its interior subpath 1..2r+2 with its labels, and III drops the orbit
{1, 2r+2}, numbers the remaining nodes in order and closes the cycle.  Every
other kind is its own presentation.  So the varsigma of a dropped node is
inert, and every other varsigma enters the relations.

``_ladder`` gives each two-node orbit a colour and a slot pair, where the
ladder aliases e_c, f_c, k_c^{+-1} act; each involution-fixed node n carries
t_n.  ``phi`` sends every generator to a word in the modified q-Weyl algebra,
and ``verify_homomorphism`` checks all defining relations on the polynomial
ring, each in every degree at once.  The oscillator representation is phi
composed with that algebra's action: ``oscillator_action`` is one table of
the d/x/m letters and the alias images composed over them, each built into
a ``ShiftWord`` when it is first looked up, so it follows the diagram's xi.
"""

from __future__ import annotations

from functools import cache
from typing import Callable, Dict, List, Optional, Tuple

from . import weyl
from .modweyl import d_, m_, modweyl_table, x_
from .opcalc import (ActionTable, GeneratorSymbol, OperatorExpr, QPolynomial,
                     apply_word, image_table, verify_relations)
from .qscalar import (Q_MINUS_QINV, LaurentPoly, ScalarQ, factorial_steps,
                      q_factorial, q_product)
from .satake import SatakeDiagram
from .weyl import SERRE_ROWS, _sandwich


def B_(n: int) -> GeneratorSymbol:
    return GeneratorSymbol("B", n)


def H_(n: int) -> GeneratorSymbol:
    return GeneratorSymbol("H", n)


def e_(i: int) -> GeneratorSymbol:
    return GeneratorSymbol("e", i)


def f_(i: int) -> GeneratorSymbol:
    return GeneratorSymbol("f", i)


def k_(i: int, inv: bool = False) -> GeneratorSymbol:
    return GeneratorSymbol("k", i, inv)


def t_(i: int) -> GeneratorSymbol:
    return GeneratorSymbol("t", i)


def presentation(diagram: SatakeDiagram) -> SatakeDiagram:
    """The diagram carrying the B/H presentation, read field by field.

    Kind I keeps its interior subpath 1..2r+2 with its labels: the drawn end
    pair carries no generators.  Kind III drops the orbit {1, 2r+2}, numbers
    the remaining nodes in order and closes the cycle.  Every other kind is
    its own presentation.
    """
    if diagram.kind == "I":
        drop = {0, 2 * diagram.r + 3}
    elif diagram.kind == "III":
        drop = {1, 2 * diagram.r + 2}
    else:
        return diagram
    kept = [n for n in diagram.nodes if n not in drop]
    new = {n: kept[0] + i for i, n in enumerate(kept)}
    edges = {frozenset(new[n] for n in e) for e in diagram.edges
             if not e & drop}
    if diagram.kind == "III":
        # Close the cycle: the two neighbours of a dropped node become adjacent.
        for gone in drop:
            edges.add(frozenset(new[n] for e in diagram.edges if gone in e
                                for n in e - {gone}))
    tau, varsigma = diagram.tau, diagram.varsigma
    return SatakeDiagram(diagram.kind, diagram.r, tuple(new.values()),
                         frozenset(edges), {new[n]: new[tau[n]] for n in kept},
                         diagram.xi, {new[n]: varsigma[n] for n in kept})


def _ladder(pres: SatakeDiagram) -> List[Tuple[int, int, int, int]]:
    """(n, colour, lower slot, upper slot) for each two-node orbit {n < tau n}.

    The colour is n minus the presentation's first node.  Its e/f aliases
    move between the slots (colour - 1, colour) for kind V and
    (colour, colour + 1) otherwise.
    """
    out = []
    for n in pres.nodes:
        if n < pres.tau[n]:
            c = n - pres.nodes[0]
            lo = c - 1 if pres.kind == "V" else c
            out.append((n, c, lo, lo + 1))
    return out


def _r5_constants(c: int):
    """(q^-2; q^-2)_n and (q^2; q^2)_n over [n]! (q - q^-1), n = -c: the R5
    coefficients of B_i^n H_i and B_i^n H_{tau i} less q-power and varsigma.
    As 1 - q^(-+2k) = +-q^(-+k) (q - q^-1) [k], they are (+-1)^n
    q^(-+n(n+1)/2) (q - q^-1)^(n-1), which is 1/(q - q^-1) at n = 0."""
    n = -c
    if n == 0:
        return (ScalarQ(1, Q_MINUS_QINV),) * 2
    body, t = Q_MINUS_QINV ** (n - 1), n * (n + 1) // 2
    return ScalarQ(body.shift(-t)), ScalarQ(body.shift(t) * (-1) ** n)


# R4 and R5 read Serre-type sums over divided powers B^(n) = B^n/[n]!: the
# q-Serre row of order m = 1 - c times (-1)^parity/[m]!, which is
# (-1)^(n + parity)/([n]! [m-n]!) at B_i^n B_j B_i^(m-n).  These and R5's
# constants are built at import, for each c in 0, -1, -2: no diagram enters.
_SERRE = {(c, p): tuple([v * ScalarQ((-1) ** p, q_factorial(1 - c, 1))
                         for v in SERRE_ROWS[1 - c]])
          for c in (0, -1, -2) for p in (0, 1)}
_R5 = {c: _r5_constants(c) for c in (0, -1, -2)}


def relation_instances(pres: SatakeDiagram):
    """Every defining relation of the presentation ``pres``, a diagram's
    ``presentation``, instantiated literally.

    Returns (group_id, indices, lhs, rhs) tuples over B/H symbols.  The long
    relation is emitted for both orderings of each two-node orbit, so the
    asymmetric varsigma placement is exercised from both sides.

    Each side is one dict of words and coefficients, and each B/H symbol and
    q-power is built once per call.  The Serre, R5 and R6 constants are
    built once per process, from Cartan integers alone (``_SERRE``, ``_R5``,
    ``SERRE_ROWS``), so an instance only multiplies in its varsigma.
    """
    word = OperatorExpr.word
    one = OperatorExpr.identity()
    q = cache(ScalarQ.q_power)
    nodes, tau, varsigma, pairing = (pres.nodes, pres.tau, pres.varsigma,
                                     pres.pairing)
    B = {n: B_(n) for n in nodes}
    H = {n: H_(n) for n in nodes}
    out = []

    for i in nodes:
        out.append(("iqg.R1_inv", [i], word([H[i], H[tau[i]]]), one))
    for i in nodes:
        for j in nodes:
            if i < j:
                out.append(("iqg.R1_comm", [i, j],
                            word([H[i], H[j]]), word([H[j], H[i]])))

    for j in nodes:
        for i in nodes:
            exp = pairing(i, tau[j]) - pairing(i, j)
            out.append(("iqg.R2", [j, i], word([H[j], B[i]]),
                        word([B[i], H[j]], q(exp))))

    for i in nodes:
        for j in nodes:
            if i < j and pairing(i, j) == 0 and tau[i] != j:
                out.append(("iqg.R3", [i, j],
                            word([B[i], B[j]]), word([B[j], B[i]])))

    for i in nodes:
        if tau[i] == i:
            continue
        for j in nodes:
            if j == i or j == tau[i]:
                continue
            lhs = _sandwich(B[i], B[j], _SERRE[pairing(i, j), 0])
            out.append(("iqg.R4", [i, j], lhs, OperatorExpr.zero()))

    for i in nodes:
        ti = tau[i]
        if ti == i:
            continue
        c = pairing(i, ti)
        lhs = _sandwich(B[i], B[ti], _SERRE[c, c % 2])
        first, second = _R5[c]
        power = (B[i],) * -c
        rhs = OperatorExpr({
            power + (H[i],): q(c) * first * varsigma[ti],
            power + (H[ti],): -(second * varsigma[i])})
        out.append(("iqg.R5", [i], lhs, rhs))

    for i in nodes:
        if tau[i] != i:
            continue
        for j in nodes:
            if j == i:
                continue
            cij = pairing(i, j)
            lhs = _sandwich(B[i], B[j], SERRE_ROWS[1 - cij])
            rhs = (OperatorExpr.symbol(B[j], q(1) * varsigma[i])
                   if cij == -1 else OperatorExpr.zero())
            out.append(("iqg.R6", [i, j], lhs, rhs))
    return out


def _k_data(kind: str, r: int, c: int):
    """k_c = sign * q^qexp * m_lo^a * m_hi^b on its slot pair, as
    (sign, qexp, a, b).

    The last colour of II, IV and VI and colour 1 of V flip a sign; colour 0
    of III and IV carries q^-2, and A1AFF carries q^-1.
    """
    flip = c == 1 if kind == "V" else c == r and kind in ("II", "IV", "VI")
    sign = -1 if flip else 1
    qexp = (-1 if kind == "A1AFF"
            else -2 if c == 0 and kind in ("III", "IV") else 0)
    a, b = (sign, -1) if kind == "V" else (1, -sign)
    return sign, qexp, a, b


def _xd(i: int, j: int) -> OperatorExpr:
    """The word x_i d_j."""
    return OperatorExpr.word([x_(i), d_(j)])


def _k_image(pres: SatakeDiagram, c: int, lo: int, hi: int,
             inv: bool) -> OperatorExpr:
    """k_c, or k_c^{-1} if ``inv``, on the slot pair (lo, hi) of colour c:
    the inverse negates the exponents of q, m_lo and m_hi, and keeps the
    sign."""
    sign, qexp, a, b = _k_data(pres.kind, pres.r, c)
    if inv:
        qexp, a, b = -qexp, -a, -b
    return OperatorExpr.word([m_(lo, a < 0), m_(hi, b < 0)],
                             ScalarQ(LaurentPoly({qexp: sign})))


def _alias_symbols(pres: SatakeDiagram) -> List[GeneratorSymbol]:
    """The ladder aliases: e_c, f_c, k_c and k_c^{-1} for each colour c of
    ``_ladder``, then t_n for each fixed node n.  ``pres`` is the diagram's
    ``presentation``."""
    out = []
    for _, c, _, _ in _ladder(pres):
        out += [e_(c), f_(c), k_(c), k_(c, True)]
    return out + [t_(n) for n in pres.nodes if pres.tau[n] == n]


def _alias_rule(pres: SatakeDiagram
                ) -> Callable[[GeneratorSymbol], Optional[OperatorExpr]]:
    """The one rule that builds a ladder alias's image inside the modified
    q-Weyl algebra: called with a symbol, it returns its image, or None for
    a symbol that is no alias (see ``_alias_symbols``).

    ``pres`` is the diagram's ``presentation``.  Each colour's e/f/k^{+-1}
    act on its slot pair from ``_ladder``; a fixed node n carries
    t_n = x_n d_n, except that kind VI's t_0 is x_1 d_1.
    """
    pairs = {c: (lo, hi) for _, c, lo, hi in _ladder(pres)}
    tau = pres.tau

    def image(sym: GeneratorSymbol) -> Optional[OperatorExpr]:
        fam, c, inv = sym
        if fam == "t":
            if inv or tau.get(c) != c:
                return None
            slot = 1 if pres.kind == "VI" and c == 0 else c
            return _xd(slot, slot)
        pair = pairs.get(c)
        if pair is None:
            return None
        if fam == "k":
            return _k_image(pres, c, *pair, inv)
        if inv:
            return None
        if fam == "e":
            return _xd(*pair)
        return _xd(pair[1], pair[0]) if fam == "f" else None

    return image


def _alias_images(pres: SatakeDiagram) -> Dict[GeneratorSymbol, OperatorExpr]:
    """Images of the ladder aliases inside the modified q-Weyl algebra, all
    built (see ``_alias_rule``)."""
    rule = _alias_rule(pres)
    return {sym: rule(sym) for sym in _alias_symbols(pres)}


def phi(pres: SatakeDiagram) -> Dict[GeneratorSymbol, OperatorExpr]:
    """The algebra homomorphism on generators, for B/H and all aliases, of
    the presentation ``pres``, a diagram's ``presentation``.

    On each two-node orbit {n < tau n} of colour c, B_n and B_{tau n} map to
    f_c and e_c, H_n and H_{tau n} to k_c and k_c^{-1}.  A fixed node n maps
    B_n to t_n and H_n to the identity operator: the first relation group
    forces such an H to be a central square root of 1.
    """
    img = _alias_images(pres)
    for n, c, _, _ in _ladder(pres):
        img[B_(n)] = img[f_(c)]
        img[B_(pres.tau[n])] = img[e_(c)]
        img[H_(n)] = img[k_(c)]
        img[H_(pres.tau[n])] = img[k_(c, True)]
    for n in pres.nodes:
        if pres.tau[n] == n:
            img[B_(n)] = img[t_(n)]
            img[H_(n)] = OperatorExpr.identity()
    return img


def verify_homomorphism(diagram: SatakeDiagram, max_s: int):
    """Check every relation instance over phi's image table.

    Returns the verify_relations report.  Each verdict is read off the
    relation's compiled form, so it covers every degree; ``max_s`` only
    bounds where a failing relation's first residual is looked for.  All
    entries ok means every defining relation holds on the whole polynomial
    ring under phi.  The presentation is built once, for both.
    """
    pres = presentation(diagram)
    table = image_table(phi(pres), modweyl_table(diagram))
    return verify_relations(relation_instances(pres), table, max_s)


def oscillator_action(diagram: SatakeDiagram, pres: SatakeDiagram = None
                      ) -> ActionTable:
    """Monomial actions of the aliases, and of d/x/m, on the polynomial ring.

    One table, whose rule gives a d/x/m letter by ``weyl.algebra_rule`` at
    the diagram's xi and an alias as its image under phi, one word in d/x/m
    times +-q^k, which the table composes into a ``ShiftWord`` over its own
    letters and memo of word forms.  Each entry is built, checked and
    stored when its symbol is first looked up, and no other is built.  The
    table is phi composed with the modified q-Weyl action, at whatever xi
    the diagram carries; its symbols are the aliases, then d/x/m.
    ``pres``, if given, is ``presentation(diagram)``.
    """
    pres = pres or presentation(diagram)
    aliases = _alias_rule(pres)
    letters, letter_symbols = weyl.algebra_rule(diagram.xi, "dxm")
    return ActionTable(diagram.nslots,
                       lambda sym: aliases(sym) or letters(sym),
                       lambda: _alias_symbols(pres) + letter_symbols())


def witness_steps(diagram: SatakeDiagram, a: Tuple[int, ...], up: bool,
                  pres: SatakeDiagram = None):
    """A witness word and the signed q-integers whose product it predicts.

    Up (raising), the e-word carries X^a to a multiple of X_0^s: the
    operators empty the slots one by one into slot 0, and the coefficient is
    prod_{i=1}^{r+1} [a_i + ... + a_{r+1}]^{xi_i}!.  Down (lowering), the
    f-word carries X_0^s to a multiple of X^a, with coefficient
    prod_{i=0}^{r} [a_i + ... + a_{r+1}]^{xi_i}! divided by [a_i]^{xi_i}!,
    whose q-integers are those the quotient keeps: no gcd.  Kind VI has no
    raising operator into slot 0, so no such witness exists there.
    ``pres``, if given, is ``presentation(diagram)``.
    """
    a = _witness_vector(diagram, a)
    ladder = _ladder(pres or presentation(diagram))
    top = [sum(a[i:]) for i in range(len(a))]
    if up:
        word = [e_(c) for _, c, _, hi in ladder for _ in range(top[hi])]
        return tuple(word), factorial_steps(diagram.xi[1:],
                                            [0] * (len(a) - 1), top[1:])
    word = [f_(c) for _, c, _, hi in reversed(ladder) for _ in range(top[hi])]
    return tuple(word), factorial_steps(diagram.xi, a, top)


def irreducibility_witness(diagram: SatakeDiagram, a: Tuple[int, ...]):
    """The e-word carrying X^a to a predicted nonzero multiple of X_0^s, and
    that multiple, one running q-product (see ``witness_steps``)."""
    word, steps = witness_steps(diagram, a, True)
    return word, ScalarQ(q_product(steps))


def spanning_witness(diagram: SatakeDiagram, b: Tuple[int, ...]):
    """The f-word carrying X_0^s to a predicted nonzero multiple of X^b, and
    that multiple, one running q-product (see ``witness_steps``)."""
    word, steps = witness_steps(diagram, b, False)
    return word, ScalarQ(q_product(steps))


MAX_WITNESS_DEGREE = 256  # witness words and coefficients grow with it


def _witness_vector(diagram, a):
    """``a`` as an exponent vector of ``diagram``, whose kind has witnesses."""
    a = tuple(int(x) for x in a)
    if len(a) != diagram.nslots:
        raise ValueError("exponent vector length %d != %d slots"
                         % (len(a), diagram.nslots))
    if any(x < 0 for x in a):
        raise ValueError("negative exponent in %r" % (a,))
    if sum(a) > MAX_WITNESS_DEGREE:
        raise ValueError("total degree %d of %r is above %d" % (
            sum(a), a, MAX_WITNESS_DEGREE))
    if diagram.kind == "VI":
        raise ValueError("kind VI ladder operators never move slot 0; "
                         "the constant-slot witness does not exist")
    return a


def apply_witness(diagram: SatakeDiagram, word, poly: QPolynomial) -> QPolynomial:
    return apply_word(word, poly, oscillator_action(diagram))

