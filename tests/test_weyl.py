"""Classical q-Weyl algebra, q-Leibniz rule and the quantum-group image."""

import random

import pytest

from qweyl.opcalc import (OperatorExpr, QPolynomial, apply, image_table,
                          monomials_up_to, report_failures, verify_relations)
from qweyl.qscalar import ScalarQ, q_integer
from qweyl.weyl import (D, E, F, K, M, X, chi_map, d_substitution,
                        leibniz_check, uqsl_relation_instances, weyl_table,
                        weyl_relation_instances)


def rand_poly(rng, nvars, max_deg):
    out = {}
    for _ in range(rng.randint(1, 5)):
        mon = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            mon[rng.randrange(nvars)] += 1
        out[tuple(mon)] = ScalarQ(rng.randint(-5, 5) or 3)
    return QPolynomial(nvars, out)


def test_d_substitution_examples():
    p = QPolynomial.monomial((3, 0))
    assert d_substitution(0, p) == QPolynomial.monomial((2, 0), ScalarQ(q_integer(3)))
    assert d_substitution(0, QPolynomial.monomial((0, 0))).is_zero
    assert d_substitution(0, QPolynomial.monomial((0, 2))).is_zero


@pytest.mark.parametrize("r", [0, 1, 2])
def test_d_substitution_matches_monomial_rule(r):
    nvars = r + 2
    table = weyl_table(nvars)
    for mon in monomials_up_to(nvars, 6):
        p = QPolynomial.monomial(mon)
        for i in range(nvars):
            via_rule = apply(OperatorExpr.symbol(D(i)), p, table)
            assert d_substitution(i, p) == via_rule


def test_leibniz_examples():
    x0 = QPolynomial.variable(0, 2)
    assert leibniz_check(0, x0, x0)
    one = QPolynomial.monomial((0, 0))
    g = QPolynomial(2, {(1, 1): ScalarQ(2), (0, 3): ScalarQ(-1)})
    assert leibniz_check(0, one, g)


def test_leibniz_seeded_random_pairs():
    rng = random.Random(4242)
    for _ in range(30):
        f = rand_poly(rng, 3, 5)
        g = rand_poly(rng, 3, 5)
        for i in range(3):
            assert leibniz_check(i, f, g)


def test_weyl_relation_count_matches_schema():
    # closed-form count per relation group over n = r + 2 slots
    for r in (0, 1, 2):
        n = r + 2
        pairs = n * (n - 1) // 2
        expected = 2 * n + 3 * pairs + 3 * n * (n - 1) + 4 * n
        assert len(weyl_relation_instances(r)) == expected
    assert len(weyl_relation_instances(0)) == 21


@pytest.mark.parametrize("r", [0, 1])
def test_weyl_relations_hold(r):
    report = verify_relations(weyl_relation_instances(r), weyl_table(r + 2), 3)
    assert not report_failures(report)


def test_specific_weyl_relations_present():
    groups = {g for g, _, _, _ in weyl_relation_instances(1)}
    assert {"weyl.MMinv", "weyl.MinvM", "weyl.DM_same", "weyl.DX_same"} <= groups


def test_chi_images():
    chi = chi_map(2)
    assert list(chi)[:4] == [E(0), F(0), K(0), K(0, True)]
    assert chi[E(0)] == OperatorExpr.word((X(0), D(1)))
    assert chi[K(1, True)] == OperatorExpr.word((M(1, True), M(2)))
    assert chi[F(2)] == OperatorExpr.word((X(3), D(2)))
    assert E(3) not in chi


def test_uqsl_relation_instances_cover_groups():
    groups0 = {g for g, _, _, _ in uqsl_relation_instances(0)}
    assert "uqsl.EF" in groups0 and "uqsl.serre_E" not in groups0
    groups2 = {g for g, _, _, _ in uqsl_relation_instances(2)}
    assert {"uqsl.serre_E", "uqsl.serre_F", "uqsl.EE_far", "uqsl.FF_far"} <= groups2


@pytest.mark.parametrize("r", [0, 1])
def test_uqsl_relations_hold_through_chi(r):
    report = verify_relations(uqsl_relation_instances(r),
                              image_table(chi_map(r), weyl_table(r + 2)), 3)
    assert not report_failures(report)


def test_chi_images_preserve_degree():
    r = 2
    table = weyl_table(r + 2)
    for sym, expr in chi_map(r).items():
        for mon in monomials_up_to(r + 2, 4):
            img = apply(expr, QPolynomial.monomial(mon), table)
            for tgt in img.terms:
                assert sum(tgt) == sum(mon)
