"""Modified q-Weyl algebras: actions, embedding, consistency, reduction."""

import random

import pytest

from closed_forms import evaluate
from qweyl import modweyl
from qweyl.modweyl import (constant_reduction_witness, d_, iota_consistency,
                           iota_map, iota_table, m_,
                           modweyl_relation_instances, modweyl_table, x_)
from qweyl.opcalc import (OperatorExpr, QPolynomial, apply, apply_word,
                          report_failures, verify_relations)
from qweyl.qscalar import ScalarQ, q_factorial, q_integer
from qweyl.satake import build_diagram
from qweyl.weyl import D, M, X, weyl_table

SMALL = [("I", 0), ("I", 1), ("II", 0), ("II", 1), ("III", 1),
         ("A1AFF", None), ("IV", 0), ("IV", 1), ("V", 0), ("V", 1), ("VI", 1)]


def rand_poly(rng, nvars, max_deg):
    out = {}
    for _ in range(rng.randint(1, 5)):
        mon = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            mon[rng.randrange(nvars)] += 1
        out[tuple(mon)] = ScalarQ(rng.randint(-5, 5) or 1)
    return QPolynomial(nvars, out)


def test_direct_action_formulas():
    d = build_diagram("A1AFF")  # xi = (1, 3)
    table = modweyl_table(d)
    assert evaluate(table.entry(d_(1)), (0, 2)) == [
        ((0, 1), ScalarQ(q_integer(6)))]
    assert evaluate(table.entry(d_(1)), (2, 0)) == []
    assert evaluate(table.entry(x_(0)), (1, 1)) == [((2, 1), ScalarQ.one())]
    assert evaluate(table.entry(m_(1)), (0, 2)) == [
        ((0, 2), ScalarQ.q_power(6))]
    assert evaluate(table.entry(m_(1, True)), (0, 2)) == [
        ((0, 2), ScalarQ.q_power(-6))]


def test_act_reads_run_entries_as_steps():
    # act reads each ShiftWord entry as one step (target, k, v, n):
    # v*q^k*[n], [xi_1 a_1] = [6] here; a zero image is None
    table = modweyl_table(build_diagram("A1AFF"))  # xi = (1, 3)
    assert table.act(d_(1), (0, 2)) == ((0, 1), 0, 1, 6)
    assert table.act(d_(1), (2, 0)) is None
    assert table.act(d_(0), (3, 0)) == ((2, 0), 0, 1, 3)
    assert table.act(x_(0), (1, 1)) == ((2, 1), 0, 1, 1)
    assert table.act(m_(1), (0, 2)) == ((0, 2), 6, 1, 1)
    assert table.act(m_(1, True), (0, 2)) == ((0, 2), -6, 1, 1)


def test_iota_images_per_branch():
    d1 = iota_map(build_diagram("I", 1))       # xi = (1, 1, 2)
    assert list(d1)[:4] == [d_(0), x_(0), m_(0), m_(0, True)]
    assert d1[d_(0)] == OperatorExpr.word((D(0),))
    assert d1[d_(2)] == (OperatorExpr.word((D(2), M(2)))
                         + OperatorExpr.word((D(2), M(2, True))))
    assert d1[m_(2)] == OperatorExpr.word((M(2), M(2)))
    assert d1[m_(2, True)] == OperatorExpr.word((M(2, True), M(2, True)))
    assert d1[x_(1)] == OperatorExpr.word((X(1),))
    d2 = iota_map(build_diagram("II", 0))      # xi = (1, -1)
    assert d2[d_(1)] == OperatorExpr.word((D(1),), ScalarQ(-1))
    assert d2[m_(1)] == OperatorExpr.word((M(1, True),))
    a1 = iota_map(build_diagram("A1AFF"))      # xi = (1, 3)
    expected = (OperatorExpr.word((D(1), M(1), M(1)))
                + OperatorExpr.word((D(1),))
                + OperatorExpr.word((D(1), M(1, True), M(1, True))))
    assert a1[d_(1)] == expected


def test_iota_consistency_spot_values():
    # xi = 2: iota(d)(X_i^2) = (q^2 + q^-2)[2] X_i = [4] X_i
    d = build_diagram("I", 0)  # xi = (1, 2)
    p = QPolynomial.monomial((0, 2))
    through = apply(iota_map(d)[d_(1)], p, weyl_table(2))
    assert through == QPolynomial.monomial((0, 1), ScalarQ(q_integer(4)))
    # xi = -1: iota(d)(X_i) = -D X_i = [-1] = direct
    d2 = build_diagram("II", 0)
    through = apply(iota_map(d2)[d_(1)], QPolynomial.monomial((0, 1)),
                    weyl_table(2))
    assert through == QPolynomial.monomial((0, 0), ScalarQ(q_integer(-1)))


@pytest.mark.parametrize("kind,r", SMALL)
def test_relations_hold_under_both_interpretations(kind, r):
    d = build_diagram(kind, r)
    instances = modweyl_relation_instances(d)
    assert not report_failures(verify_relations(instances, modweyl_table(d), 3))
    assert not report_failures(verify_relations(instances, iota_table(d), 3))


@pytest.mark.parametrize("kind,r", SMALL)
def test_iota_consistency_empty(kind, r):
    d = build_diagram(kind, r)
    assert iota_consistency(d, 3, weyl_table(d.nslots), modweyl_table(d)) == []


def test_iota_consistency_reports_each_discrepancy(monkeypatch):
    # scale the iota image of d_1 by q: the relation iota(d_1) = d_1 fails,
    # with its residual at the first monomial d_1 does not kill,
    # (q - 1)[2] X^0 at X_1
    original = modweyl.iota_map

    def scaled(diagram):
        images = original(diagram)
        images[d_(1)] = images[d_(1)].scale(ScalarQ.q_power(1))
        return images

    monkeypatch.setattr(modweyl, "iota_map", scaled)
    d = build_diagram("I", 0)  # xi = (1, 2)
    assert iota_consistency(d, 2, weyl_table(d.nslots), modweyl_table(d)) == [
        {"relation_id": "modweyl.iota_consistency", "instance_indices": ["d1"],
         "ok": False, "residual_monomial": [0, 1],
         "residual_coefficient": "q^2 - q + 1 - q^-1"}]


def test_xi_all_ones_reduces_to_classical_relation_set():
    # with every exponent 1, the instance list coincides with the classical
    # one under the symbol renaming d->D, x->X, m->M
    from qweyl.opcalc import GeneratorSymbol
    from qweyl.weyl import weyl_relation_instances

    def classicalize(expr):
        out = {}
        for word, c in expr.terms.items():
            out[tuple(GeneratorSymbol(s.fam.upper(), s.idx, s.inv)
                      for s in word)] = c
        renamed = OperatorExpr.__new__(OperatorExpr)
        renamed.terms = out
        return renamed

    d = build_diagram("I", 0).with_xi(1, 1)
    deformed = {(g.split(".")[1].lower(), tuple(i)): (classicalize(l), classicalize(r))
                for g, i, l, r in modweyl_relation_instances(d)}
    classical = {(g.split(".")[1].lower(), tuple(i)): (l, r)
                 for g, i, l, r in weyl_relation_instances(0)}
    assert deformed.keys() == classical.keys()
    for key, (lhs, rhs) in classical.items():
        assert deformed[key] == (lhs, rhs), key


def test_constant_reduction_examples():
    d = build_diagram("I", 0)  # xi = (1, 2)
    word, predicted = constant_reduction_witness(d, QPolynomial.monomial((0, 0), 7))
    assert word == () and predicted == ScalarQ(7)
    # X_{r+1}^2 with xi_{r+1} = 2: word d1 d1, predicted [2]^2! = [4][2]
    word, predicted = constant_reduction_witness(d, QPolynomial.monomial((0, 2)))
    assert word == (d_(1), d_(1))
    assert predicted == ScalarQ(q_factorial(2, 2))
    assert predicted == ScalarQ(q_integer(4) * q_integer(2))
    # leading term selection is lexicographic
    p = QPolynomial(2, {(1, 0): ScalarQ.one(), (0, 1): ScalarQ.one()})
    word, predicted = constant_reduction_witness(d, p)
    assert word == (d_(0),) and predicted == ScalarQ.one()
    out = apply_word(word, p, modweyl_table(d))
    assert out == QPolynomial.monomial((0, 0), predicted)


@pytest.mark.parametrize("kind,r", SMALL)
def test_constant_reduction_random(kind, r):
    d = build_diagram(kind, r)
    table = modweyl_table(d)
    rng = random.Random(hash((kind, r)) & 0xFFFF)
    for _ in range(12):
        p = rand_poly(rng, d.nslots, 4)
        word, predicted = constant_reduction_witness(d, p)
        assert not predicted.is_zero
        target = QPolynomial.monomial((0,) * d.nslots, predicted)
        assert apply_word(word, p, table) == target


def test_constant_reduction_rejects_zero():
    d = build_diagram("I", 0)
    with pytest.raises(ValueError):
        constant_reduction_witness(d, QPolynomial.zero(2))
