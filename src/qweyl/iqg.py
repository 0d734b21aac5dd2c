"""Coideal-subalgebra presentations over Satake diagrams and their realization.

For each diagram the presentation is generated by B_i, H_i over a node set
carrying a Cartan pairing and involution; the generators acquire ladder
aliases e_i, f_i, k_i^{+-1} (one triple per two-node orbit used by the
realization) and t_j (one per involution-fixed node).  ``phi`` sends every
generator to a word in the modified q-Weyl algebra, and
``verify_homomorphism`` checks all defining relations degree by degree on the
polynomial ring.  The oscillator representation is phi composed with that
algebra's action: ``oscillator_action`` composes each alias image, a single
scaled word, once into an action-table entry, so it follows the diagram's xi.

For the path and cycle families whose drawn node count exceeds the generator
count of the realized presentation (kinds I and III), the presentation lives
on the smaller diagram of the same shape: the interior subpath for I, and the
cycle with one orbit fewer for III.  Everything else uses the diagram's own
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Tuple

from .modweyl import d_, m_, modweyl_table, x_
from .opcalc import (ActionTable, GeneratorSymbol, OperatorExpr, QPolynomial,
                     apply_word, divided_power, verify_relations)
from .qscalar import (Q_MINUS_QINV, ScalarQ, q_binomial, q_factorial,
                      q_pochhammer)
from .satake import SatakeDiagram
from .shift import ShiftWord


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


@dataclass(frozen=True)
class Presentation(SatakeDiagram):
    """The diagram carrying the B/H presentation, plus the alias assignment.

    ``triples`` lists (alias index, f-node, e-node); ``tnodes`` lists
    (alias index, fixed node).  Varsigma is per presentation node.
    """

    triples: Tuple[Tuple[int, int, int], ...] = ()
    tnodes: Tuple[Tuple[int, int], ...] = ()


def presentation(diagram: SatakeDiagram) -> Presentation:
    kind, r = diagram.kind, diagram.r
    own = {f.name: getattr(diagram, f.name) for f in fields(SatakeDiagram)}
    tnodes = ()
    if kind == "I":
        # Interior subpath 1..2r+2; the drawn end pair carries no generators.
        nodes = tuple(range(1, 2 * r + 3))
        tau = {n: diagram.tau[n] for n in nodes}
        edges = frozenset(e for e in diagram.edges if e <= tau.keys())
        vs = {n: diagram.varsigma[n] for n in nodes}
        triples = tuple((i, i + 1, 2 * r + 2 - i) for i in range(r + 1))
    elif kind == "III":
        # Cycle on 2r+2 nodes with two adjacent folded pairs, at 0 and at r.
        nodes = tuple(range(2 * r + 2))
        tau = {n: 2 * r + 1 - n for n in nodes}
        edges = frozenset(frozenset((n, (n + 1) % len(nodes))) for n in nodes)
        vs = dict.fromkeys(nodes, ScalarQ.one())
        vs[0] = ScalarQ.q_power(1)
        vs[r] = ScalarQ.q_power(1)
        triples = tuple((i, i, 2 * r + 1 - i) for i in range(r + 1))
    elif kind == "A1AFF":
        triples = ((0, 0, 1),)
    elif kind in ("II", "IV"):
        triples = tuple((i, i, 2 * r + 2 - i) for i in range(r + 1))
        tnodes = ((r + 1, r + 1),)
    elif kind == "V":
        triples = tuple((i, i, 2 * r + 3 - i) for i in range(1, r + 2))
        tnodes = ((0, 0),)
    else:  # VI
        triples = tuple((i, i, 2 * r + 2 - i) for i in range(1, r + 1))
        tnodes = ((0, 0), (r + 1, r + 1))
    if kind in ("I", "III"):
        own.update(nodes=nodes, edges=edges, tau=tau, varsigma=vs,
                   orbit_label={n: min(n, tau[n]) for n in nodes})
    return Presentation(**own, triples=triples, tnodes=tnodes)


def relation_instances(diagram: SatakeDiagram):
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
            n_top = 1 - pres.pairing(i, j)
            lhs = OperatorExpr.zero()
            for n in range(n_top + 1):
                term = (divided_power(B_(i), n) * OperatorExpr.symbol(B_(j))
                        * divided_power(B_(i), n_top - n))
                lhs = lhs + term.scale(ScalarQ((-1) ** n))
            out.append(("iqg.R4", [i, j], lhs, OperatorExpr.zero()))

    eps_active = False
    if 0 in pres.tau:
        eps_active = pres.pairing(0, pres.tau[0]) == -1
    for i in pres.nodes:
        ti = pres.tau[i]
        if ti == i:
            continue
        c = pres.pairing(i, ti)
        n_top = 1 - c
        lhs = OperatorExpr.zero()
        for n in range(n_top + 1):
            term = (divided_power(B_(i), n) * OperatorExpr.symbol(B_(ti))
                    * divided_power(B_(i), n_top - n))
            lhs = lhs + term.scale(ScalarQ(-1 if (n + c) % 2 else 1))
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


def _mword(pairs):
    return tuple(m_(slot, p < 0) for slot, p in pairs)


def _alias_images(diagram: SatakeDiagram) -> Dict[GeneratorSymbol, OperatorExpr]:
    """Images of the ladder aliases inside the modified q-Weyl algebra."""
    kind, r = diagram.kind, diagram.r
    word = OperatorExpr.word
    img: Dict[GeneratorSymbol, OperatorExpr] = {}

    def put_k(i, coeff, pairs):
        img[k_(i)] = word(_mword(pairs), coeff)
        img[k_(i, True)] = word(_mword([(s, -p) for s, p in pairs]),
                                coeff.invert())

    if kind == "V":
        for i in range(1, r + 2):
            img[e_(i)] = word([x_(i - 1), d_(i)])
            img[f_(i)] = word([x_(i), d_(i - 1)])
            sign = -1 if i == 1 else 1
            put_k(i, ScalarQ(sign), [(i - 1, sign), (i, -1)])
        img[t_(0)] = word([x_(0), d_(0)])
        return img

    lo, hi = (1, r) if kind == "VI" else (0, r)
    for i in range(lo, hi + 1):
        img[e_(i)] = word([x_(i), d_(i + 1)])
        img[f_(i)] = word([x_(i + 1), d_(i)])
        if kind == "I":
            put_k(i, ScalarQ.one(), [(i, 1), (i + 1, -1)])
        elif kind in ("II", "VI"):
            sign = -1 if i == r else 1
            put_k(i, ScalarQ(sign), [(i, 1), (i + 1, -sign)])
        elif kind == "III":
            put_k(i, ScalarQ.q_power(-2 if i == 0 else 0),
                  [(i, 1), (i + 1, -1)])
        elif kind == "A1AFF":
            put_k(i, ScalarQ.q_power(-1), [(0, 1), (1, -1)])
        else:  # IV
            sign = -1 if i == r else 1
            coeff = ScalarQ(sign) * ScalarQ.q_power(-2 if i == 0 else 0)
            put_k(i, coeff, [(i, 1), (i + 1, -sign)])
    if kind in ("II", "IV"):
        img[t_(r + 1)] = word([x_(r + 1), d_(r + 1)])
    elif kind == "VI":
        img[t_(0)] = word([x_(1), d_(1)])
        img[t_(r + 1)] = word([x_(r + 1), d_(r + 1)])
    return img


def phi(diagram: SatakeDiagram) -> Dict[GeneratorSymbol, OperatorExpr]:
    """The algebra homomorphism on generators, for B/H and all aliases.

    H at an involution-fixed node maps to the identity operator: the first
    relation group forces such an H to be a central square root of 1.
    """
    pres = presentation(diagram)
    img = _alias_images(diagram)
    for idx, fnode, enode in pres.triples:
        img[B_(fnode)] = img[f_(idx)]
        img[B_(enode)] = img[e_(idx)]
        img[H_(fnode)] = img[k_(idx)]
        img[H_(enode)] = img[k_(idx, True)]
    for idx, node in pres.tnodes:
        img[B_(node)] = img[t_(idx)]
        img[H_(node)] = OperatorExpr.identity()
    return img


def verify_homomorphism(diagram: SatakeDiagram, max_s: int):
    """Push every relation instance through phi and check it on P_{<=max_s}.

    Returns the verify_relations report; all entries ok means the generator
    assignment extends to an algebra homomorphism at this desk scale.
    """
    instances = relation_instances(diagram)
    table = modweyl_table(diagram)
    return verify_relations(instances, table, max_s, push=phi(diagram))


def oscillator_action(diagram: SatakeDiagram) -> ActionTable:
    """Monomial actions of the aliases on the polynomial ring.

    Each alias image under phi is one word in d/x/m times +-q^k; the word's
    ``ShiftRule``s from ``modweyl_table`` are composed once into a
    ``ShiftWord``.  The table is phi composed with the modified q-Weyl
    action, at whatever xi the diagram carries.
    """
    table = modweyl_table(diagram)
    entries = {}
    for sym, image in _alias_images(diagram).items():
        (word, coeff), = image.terms.items()
        entries[sym] = ShiftWord.of([table.entries[g] for g in word],
                                    coeff.as_laurent(), diagram.nslots)
    return ActionTable(diagram.nslots, entries)


def alias_symbols(diagram: SatakeDiagram) -> List[GeneratorSymbol]:
    """The ladder/diagonal alias symbols available for this diagram."""
    return sorted(_alias_images(diagram),
                  key=lambda s: (s.fam, s.idx, s.inv))


def irreducibility_witness(diagram: SatakeDiagram, a: Tuple[int, ...]):
    """The e-word carrying X^a to a predicted nonzero multiple of X_0^s.

    Raising operators empty the slots one by one into slot 0; the predicted
    coefficient is prod_{i=1}^{r+1} [a_i + ... + a_{r+1}]^{xi_i}!.  Kind VI
    has no raising operator into slot 0, so no such witness exists there.
    """
    a = _check_vector(diagram, a)
    r = diagram.r
    if diagram.kind == "VI":
        raise ValueError("kind VI ladder operators never move slot 0; "
                         "the constant-slot witness does not exist")
    if diagram.kind == "V":
        word = []
        for i in range(1, r + 2):
            word.extend([e_(i)] * sum(a[i:]))
    else:
        word = []
        for i in range(r + 1):
            word.extend([e_(i)] * sum(a[i + 1:]))
    predicted = ScalarQ.one()
    for i in range(1, r + 2):
        predicted = predicted * ScalarQ(q_factorial(sum(a[i:]), diagram.xi[i]))
    return tuple(word), predicted


def spanning_witness(diagram: SatakeDiagram, b: Tuple[int, ...]):
    """The f-word carrying X_0^s to a predicted nonzero multiple of X^b."""
    b = _check_vector(diagram, b)
    r = diagram.r
    s = sum(b)
    if diagram.kind == "VI":
        raise ValueError("kind VI ladder operators never move slot 0; "
                         "the constant-slot witness does not exist")
    word = []
    if diagram.kind == "V":
        for i in range(r + 1, 0, -1):
            word.extend([f_(i)] * (s - sum(b[:i])))
    else:
        for i in range(r, -1, -1):
            word.extend([f_(i)] * (s - sum(b[:i + 1])))
    predicted = ScalarQ(q_factorial(s, diagram.xi[0])) \
        / ScalarQ(q_factorial(b[0], diagram.xi[0]))
    for i in range(1, r + 1):
        predicted = predicted * ScalarQ(q_factorial(s - sum(b[:i]), diagram.xi[i])) \
            / ScalarQ(q_factorial(b[i], diagram.xi[i]))
    return tuple(word), predicted


def _check_vector(diagram, a):
    a = tuple(int(x) for x in a)
    if len(a) != diagram.nslots:
        raise ValueError("exponent vector length %d != %d slots"
                         % (len(a), diagram.nslots))
    if any(x < 0 for x in a):
        raise ValueError("negative exponent in %r" % (a,))
    return a


def apply_witness(diagram: SatakeDiagram, word, poly: QPolynomial) -> QPolynomial:
    return apply_word(word, poly, oscillator_action(diagram))

