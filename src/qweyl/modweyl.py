"""The modified q-Weyl algebra of a Satake diagram.

It is the q-Weyl core of ``weyl`` at the diagram's deformation exponents xi,
with generators d_i, x_i, m_i^{+-1}: d_i X^a = [xi_i a_i] X^{a-e_i},
m_i X^a = q^{xi_i a_i} X^a.  The embedding iota realizes them inside the
classical q-Weyl algebra, and the constant-reduction witness extracts the
constructive content of the irreducibility argument: hitting the lex-leading
term with the matching d-word produces an explicit nonzero multiple of 1.
"""

from __future__ import annotations

from itertools import chain

from .opcalc import (ActionTable, GeneratorSymbol, OperatorExpr, QPolynomial,
                     image_table, report_failures, verify_relations)
from .qscalar import ScalarQ, factorial_steps, q_product
from .satake import SatakeDiagram
from . import weyl


def d_(i: int) -> GeneratorSymbol:
    return GeneratorSymbol("d", i)


def x_(i: int) -> GeneratorSymbol:
    return GeneratorSymbol("x", i)


def m_(i: int, inv: bool = False) -> GeneratorSymbol:
    return GeneratorSymbol("m", i, inv)


def modweyl_table(diagram: SatakeDiagram) -> ActionTable:
    return weyl.algebra_table(diagram.xi, "dxm")


def modweyl_relation_instances(diagram: SatakeDiagram):
    """All defining relation instances, with xi taken from the diagram."""
    return weyl.algebra_relations(diagram.xi, "dxm", "modweyl")


def _m_power(i: int, p: int):
    """The word for M_i^p in the classical algebra (empty word for p = 0)."""
    if p >= 0:
        return (weyl.M(i),) * p
    return (weyl.M(i, True),) * (-p)


def iota_map(diagram: SatakeDiagram):
    """Images of the modified generators inside the classical q-Weyl algebra.

    x_i goes to X_i, m_i^{+-1} to M_i^{+-xi_i}, and d_i to
    (sign of xi_i) D_i * sum_k M_i^{|xi_i|-1-2k}.
    """
    word = OperatorExpr.word
    mapping = {}
    for i, xi_i in enumerate(diagram.xi):
        a = abs(xi_i)
        d_image = OperatorExpr.zero()
        for k in range(a):
            d_image = d_image + word((weyl.D(i),) + _m_power(i, a - 1 - 2 * k))
        mapping[d_(i)] = d_image.scale(1 if xi_i > 0 else -1)
        mapping[x_(i)] = word([weyl.X(i)])
        mapping[m_(i)] = word(_m_power(i, xi_i))
        mapping[m_(i, True)] = word(_m_power(i, -xi_i))
    return mapping


def iota_table(diagram: SatakeDiagram) -> ActionTable:
    """Action table realizing each modified generator through its iota image."""
    return image_table(iota_map(diagram), weyl.weyl_table(diagram.nslots))


def iota_consistency(diagram: SatakeDiagram, max_s: int,
                     classical: ActionTable, modified: ActionTable):
    """Check the relations iota(g) = g, one per generator g of ``iota_map``.

    ``classical`` and ``modified`` are the diagram's ``weyl.weyl_table`` and
    ``modweyl_table``, whose built entries are read again here.  D/X/M and
    d/x/m symbols never clash, so one table whose rule reads a symbol from
    either holds both sides, and each relation is compiled once: it holds
    in every degree or fails.  Its left side is the rows of iota(g), its
    right side the one row (g, 1).  Returns the failing report entries of
    ``verify_relations`` (relation id ``modweyl.iota_consistency``, indices
    [label], residual up to ``max_s``); empty means iota realizes every
    generator.
    """
    table = ActionTable(diagram.nslots,
                        lambda sym: modified.get(sym) or classical.get(sym),
                        lambda: chain(classical.symbols, modified.symbols))
    instances = [("modweyl.iota_consistency", [sym.label],
                  tuple(image.terms.items()), (((sym,), ScalarQ.one()),))
                 for sym, image in iota_map(diagram).items()]
    return report_failures(verify_relations(instances, table, max_s))


def constant_reduction_witness(diagram: SatakeDiagram, p: QPolynomial):
    """The d-word flattening the lex-leading term of p to a constant.

    Picks the lexicographically maximal exponent vector k with nonzero
    coefficient c_k and returns (word, c_k * prod_i [k_i]^{xi_i}!).  Applying
    the word d_0^{k_0} ... d_{r+1}^{k_{r+1}} to p yields exactly that constant
    times X^0: every other term dies against some d-power.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has no reduction witness")
    k = max(p.terms)
    word = tuple(d_(i) for i, e in enumerate(k) for _ in range(e))
    steps = factorial_steps(diagram.xi, [0] * len(k), k)
    return word, p.terms[k] * ScalarQ(q_product(steps))
