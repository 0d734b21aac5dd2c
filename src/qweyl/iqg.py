"""Coideal-subalgebra presentations over Satake diagrams and their realization.

``presentation`` reads the diagram carrying the B_i, H_i presentation off the
Satake diagram: nodes, Cartan pairing, involution, orbit labels and varsigma.
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
composed with that algebra's action: ``oscillator_action`` is the image
table of the alias images, each built and composed into a ``ShiftWord``
when the alias is first looked up, so it follows the diagram's xi.
"""

from __future__ import annotations

from dataclasses import replace
from functools import cache, partial
from typing import Callable, Dict, List, Tuple

from .modweyl import d_, m_, modweyl_table, x_
from .opcalc import (ActionTable, GeneratorSymbol, OperatorExpr, QPolynomial,
                     apply_word, image_table, verify_relations)
from .qscalar import (Q_MINUS_QINV, LaurentPoly, ScalarQ, factorial_steps,
                      q_binomial, q_product)
from .satake import SatakeDiagram


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
    return replace(diagram, nodes=tuple(new.values()), edges=frozenset(edges),
                   tau={new[n]: new[diagram.tau[n]] for n in kept},
                   orbit_label={new[n]: new[diagram.orbit_label[n]]
                                for n in kept},
                   varsigma={new[n]: diagram.varsigma[n] for n in kept})


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


def _serre_coefficients(c: int, parity: int):
    """(-1)^(n + parity) / ([n]! [1-c-n]!) for n = 0..1-c: the coefficient
    of B_i^n B_j B_i^(1-c-n) in the Serre-type sum for a_ij = c, whose
    divided powers are B^(n) = B^n/[n]!."""
    return [ScalarQ(-1 if (n + parity) % 2 else 1,
                    q_product([*range(1, n + 1), *range(1, 2 - c - n)]))
            for n in range(2 - c)]


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


def _sandwich(i: int, j: int, coeffs) -> OperatorExpr:
    """The sum over n of coeffs[n] B_i^n B_j B_i^(m-n), m = len(coeffs) - 1."""
    bi, bj, m = B_(i), B_(j), len(coeffs) - 1
    return OperatorExpr({(bi,) * n + (bj,) + (bi,) * (m - n): v
                         for n, v in enumerate(coeffs)})


def relation_instances(diagram: SatakeDiagram):
    """Every defining relation of the presentation, instantiated literally.

    Returns (group_id, indices, lhs, rhs) tuples over B/H symbols.  The long
    relation is emitted for both orderings of each two-node orbit, so the
    asymmetric varsigma placement is exercised from both sides.

    Each side is one dict of words and coefficients.  The coefficients
    that depend on integers alone (Serre, R5 and R6 constants, q-powers) are
    built once per call, so an instance only multiplies in its varsigma.
    """
    pres = presentation(diagram)
    word = OperatorExpr.word
    one = OperatorExpr.identity()
    q, serre, r5, binomials = map(cache, (
        ScalarQ.q_power, _serre_coefficients, _r5_constants,
        lambda m: [ScalarQ(q_binomial(m, n) * (-1) ** n)
                   for n in range(m + 1)]))
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
                        word([B_(i), H_(j)], q(exp))))

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
            lhs = _sandwich(i, j, serre(pres.pairing(i, j), 0))
            out.append(("iqg.R4", [i, j], lhs, OperatorExpr.zero()))

    eps_active = 0 in pres.tau and pres.pairing(0, pres.tau[0]) == -1
    for i in pres.nodes:
        ti = pres.tau[i]
        if ti == i:
            continue
        c = pres.pairing(i, ti)
        lhs = _sandwich(i, ti, serre(c, c % 2))
        eps = 3 * ((i == 0) - (i == pres.tau[0])) if eps_active else 0
        first, second = r5(c)
        power = (B_(i),) * -c
        rhs = OperatorExpr({
            power + (H_(i),): q(c + eps) * first * pres.varsigma[ti],
            power + (H_(ti),): -(q(-eps) * second * pres.varsigma[i])})
        out.append(("iqg.R5", [i], lhs, rhs))

    for i in pres.nodes:
        if pres.tau[i] != i:
            continue
        for j in pres.nodes:
            if j == i:
                continue
            cij = pres.pairing(i, j)
            lhs = _sandwich(i, j, binomials(1 - cij))
            rhs = (OperatorExpr.symbol(B_(j), q(1) * pres.varsigma[i])
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


def _alias_builders(pres: SatakeDiagram
                    ) -> Dict[GeneratorSymbol, Callable[[], OperatorExpr]]:
    """The ladder aliases, each with a function of no arguments that builds
    its image inside the modified q-Weyl algebra.

    ``pres`` is the diagram's ``presentation``.  Each colour's e/f/k^{+-1}
    act on its slot pair from ``_ladder``; a fixed node n carries
    t_n = x_n d_n, except that kind VI's t_0 is x_1 d_1.
    """
    img = {}
    for _, c, lo, hi in _ladder(pres):
        img[e_(c)] = partial(_xd, lo, hi)
        img[f_(c)] = partial(_xd, hi, lo)
        img[k_(c)] = partial(_k_image, pres, c, lo, hi, False)
        img[k_(c, True)] = partial(_k_image, pres, c, lo, hi, True)
    for n in pres.nodes:
        if pres.tau[n] == n:
            slot = 1 if pres.kind == "VI" and n == 0 else n
            img[t_(n)] = partial(_xd, slot, slot)
    return img


def _alias_images(pres: SatakeDiagram) -> Dict[GeneratorSymbol, OperatorExpr]:
    """Images of the ladder aliases inside the modified q-Weyl algebra, all
    built (see ``_alias_builders``)."""
    return {sym: build() for sym, build in _alias_builders(pres).items()}


def phi(diagram: SatakeDiagram) -> Dict[GeneratorSymbol, OperatorExpr]:
    """The algebra homomorphism on generators, for B/H and all aliases.

    On each two-node orbit {n < tau n} of colour c, B_n and B_{tau n} map to
    f_c and e_c, H_n and H_{tau n} to k_c and k_c^{-1}.  A fixed node n maps
    B_n to t_n and H_n to the identity operator: the first relation group
    forces such an H to be a central square root of 1.
    """
    pres = presentation(diagram)
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
    ring under phi.
    """
    table = image_table(phi(diagram), modweyl_table(diagram))
    return verify_relations(relation_instances(diagram), table, max_s)


def oscillator_action(diagram: SatakeDiagram, pres: SatakeDiagram = None
                      ) -> ActionTable:
    """Monomial actions of the aliases, and of d/x/m, on the polynomial ring.

    Each alias image under phi, one word in d/x/m times +-q^k, is built and
    composed by ``image_table`` over ``modweyl_table`` into a ``ShiftWord``
    when the alias is first looked up, and no other alias image is built;
    the same ``modweyl_table`` serves the d/x/m symbols.  The table is phi
    composed with the modified q-Weyl action, at whatever xi the diagram
    carries.  ``pres``, if given, is ``presentation(diagram)``.
    """
    base = modweyl_table(diagram)
    return image_table(_alias_builders(pres or presentation(diagram)),
                       base).merged(base)


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

