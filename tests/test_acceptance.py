"""Acceptance suite: one test per criterion, exact equality, zero tolerance.

Every check is pure algebra over Q(q); each test prints a PASS line so the
suite doubles as a checklist when run with ``pytest -s``.
"""

import json
import random

from qweyl.cli import main as cli_main
from qweyl.crystal import crystal_axioms_check, crystal_graph, parse_json
from qweyl.iqg import (apply_witness, e_, f_, irreducibility_witness,
                       spanning_witness, verify_homomorphism)
from qweyl.modweyl import (constant_reduction_witness, iota_consistency,
                           iota_table, modweyl_relation_instances,
                           modweyl_table)
from qweyl.opcalc import (QPolynomial, apply_word, image_table,
                          monomials_of_degree, report_failures,
                          verify_relations)
from qweyl.qscalar import LaurentPoly, ScalarQ, q_factorial, q_integer
from qweyl.satake import build_diagram
from qweyl.weyl import (chi_map, leibniz_check, uqsl_relation_instances,
                        weyl_relation_instances, weyl_table)

ALL_DIAGRAMS = [("I", 0), ("I", 1), ("I", 2),
                ("II", 0), ("II", 1), ("II", 2),
                ("III", 1), ("III", 2),
                ("A1AFF", None),
                ("IV", 0), ("IV", 1), ("IV", 2),
                ("V", 0), ("V", 1), ("V", 2),
                ("VI", 1), ("VI", 2)]

# Raising/lowering witnesses need a ladder that reaches slot 0; kind VI's
# ladders never touch it (its two diagonal operators sit at slots 1 and r+1),
# so the constant-slot witnesses are asserted to not exist there instead.
WITNESS_DIAGRAMS = [(k, r) for k, r in ALL_DIAGRAMS if k != "VI"]

CRYSTAL_DIAGRAMS = [("I", 0), ("I", 1), ("I", 2), ("III", 1), ("III", 2),
                    ("A1AFF", None)]


def _passes(label, ok):
    print("CRITERION %s %s" % (label, "PASS" if ok else "FAIL"))
    assert ok, "criterion %s failed" % label


def rand_poly(rng, nvars, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        mon = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            mon[rng.randrange(nvars)] += 1
        terms[tuple(mon)] = ScalarQ(rng.randint(-6, 6) or 1)
    return QPolynomial(nvars, terms)


def test_criterion_1_iqg_relations_all_diagrams():
    ok = True
    for kind, r in ALL_DIAGRAMS:
        report = verify_homomorphism(build_diagram(kind, r), 4)
        failures = report_failures(report)
        if failures:
            ok = False
            print("  %s r=%s: %d failures, first %s"
                  % (kind, r, len(failures), failures[0]))
    _passes("1 (coideal relations, degree <= 4)", ok)


def test_criterion_2_crystal_graph_reproduction():
    g = crystal_graph(build_diagram("I", 1), 3)
    f0 = {(a, b) for a, i, b in g.edges if i == 0}
    f1 = {(a, b) for a, i, b in g.edges if i == 1}
    expected_f0 = {((3, 0, 0), (2, 1, 0)), ((2, 1, 0), (1, 2, 0)),
                   ((1, 2, 0), (0, 3, 0)), ((2, 0, 1), (1, 1, 1)),
                   ((1, 1, 1), (0, 2, 1)), ((1, 0, 2), (0, 1, 2))}
    expected_f1 = {((2, 1, 0), (2, 0, 1)), ((1, 2, 0), (1, 1, 1)),
                   ((1, 1, 1), (1, 0, 2)), ((0, 3, 0), (0, 2, 1)),
                   ((0, 2, 1), (0, 1, 2)), ((0, 1, 2), (0, 0, 3))}
    ok = (len(g.nodes) == 10 and len(g.edges) == 12
          and set(g.nodes) == set(monomials_of_degree(3, 3))
          and f0 == expected_f0 and f1 == expected_f1)
    _passes("2 (rank-1 degree-3 crystal graph, node- and edge-exact)", ok)


def test_criterion_3_crystal_axioms():
    ok = True
    for kind, r in CRYSTAL_DIAGRAMS:
        d = build_diagram(kind, r)
        for s in range(6):
            report = crystal_axioms_check(d, s)
            if not report["all_ok"]:
                ok = False
                print("  %s r=%s s=%d: %s" % (kind, r, s,
                                              report["failures"][:2]))
    _passes("3 (crystal axioms, s <= 5)", ok)


def test_criterion_4_witness_identities():
    ok = True
    # the two pinned coefficient instances
    d0 = build_diagram("I", 0)
    word, predicted = irreducibility_witness(d0, (1, 2))
    ok &= word == (e_(0), e_(0)) and predicted == ScalarQ(q_factorial(2, 2))
    word, predicted = spanning_witness(d0, (1, 2))
    ok &= word == (f_(0), f_(0)) \
        and predicted == ScalarQ(q_integer(3) * q_integer(2))
    # exhaustive raising/lowering witnesses over every weight, s <= 5
    for kind, r in WITNESS_DIAGRAMS:
        d = build_diagram(kind, r)
        n = d.nslots
        for s in range(6):
            top = tuple([s] + [0] * (n - 1))
            for a in monomials_of_degree(n, s):
                word, predicted = irreducibility_witness(d, a)
                got = apply_witness(d, word, QPolynomial.monomial(a))
                if predicted.is_zero or got != QPolynomial.monomial(top, predicted):
                    ok = False
                    print("  up witness failed at %s r=%s a=%s" % (kind, r, a))
                word, predicted = spanning_witness(d, a)
                got = apply_witness(d, word, QPolynomial.monomial(top))
                if predicted.is_zero or got != QPolynomial.monomial(a, predicted):
                    ok = False
                    print("  down witness failed at %s r=%s b=%s" % (kind, r, a))
    # kind VI is the documented exception: no ladder reaches slot 0
    try:
        irreducibility_witness(build_diagram("VI", 1), (1, 1, 1))
        ok = False
    except ValueError:
        pass
    # constant reduction on 100 seeded random polynomials across all kinds
    rng = random.Random(20260613)
    count = 0
    for kind, r in ALL_DIAGRAMS:
        d = build_diagram(kind, r)
        table = modweyl_table(d)
        for _ in range(7):
            p = rand_poly(rng, d.nslots, 4)
            word, predicted = constant_reduction_witness(d, p)
            got = apply_word(word, p, table)
            if predicted.is_zero or got != QPolynomial.monomial(
                    (0,) * d.nslots, predicted):
                ok = False
                print("  reduction witness failed at %s r=%s" % (kind, r))
            count += 1
    ok &= count >= 100
    _passes("4 (witness identities, s <= 5 plus %d random polynomials)" % count, ok)


def test_criterion_5_iota_consistency():
    ok = True
    for kind, r in ALL_DIAGRAMS:
        d = build_diagram(kind, r)
        if iota_consistency(d, 4, weyl_table(d.nslots), modweyl_table(d)):
            ok = False
            print("  iota mismatch for %s r=%s" % (kind, r))
        instances = modweyl_relation_instances(d)
        direct = report_failures(verify_relations(instances, modweyl_table(d), 4))
        through = report_failures(verify_relations(instances, iota_table(d), 4))
        if direct or through:
            ok = False
            print("  relation failure for %s r=%s" % (kind, r))
    _passes("5 (embedding consistency and relations, degree <= 4)", ok)


def test_criterion_6_classical_baseline():
    ok = True
    for r in (0, 1, 2):
        table = weyl_table(r + 2)
        if report_failures(verify_relations(weyl_relation_instances(r), table, 4)):
            ok = False
            print("  q-Weyl relations failed at r=%d" % r)
        if report_failures(verify_relations(
                uqsl_relation_instances(r), image_table(chi_map(r), table), 4)):
            ok = False
            print("  quantum-group relations failed at r=%d" % r)
    rng = random.Random(31337)
    for _ in range(200):
        f = rand_poly(rng, 3, 5)
        g = rand_poly(rng, 3, 5)
        i = rng.randrange(3)
        if not leibniz_check(i, f, g):
            ok = False
            print("  Leibniz failed for i=%d" % i)
    _passes("6 (q-Weyl + quantum-group relations, 200 Leibniz pairs)", ok)


def test_criterion_7_mutation_sensitivity():
    flipped = build_diagram("A1AFF").with_varsigma(
        1, ScalarQ(LaurentPoly({-3: -1})))
    sigma_detected = bool(report_failures(verify_homomorphism(flipped, 2)))
    bent = build_diagram("I", 1).with_xi(2, 1)
    xi_detected = bool(report_failures(verify_homomorphism(bent, 2)))
    _passes("7 (mutation sensitivity)", sigma_detected and xi_detected)


def test_criterion_8_cli_contract(capsys, tmp_path):
    ok = True

    def run(*argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    code1, dot1 = run("crystal", "--diagram", "I:r=1", "--s", "3",
                      "--format", "dot")
    code2, dot2 = run("crystal", "--diagram", "I:r=1", "--s", "3",
                      "--format", "dot")
    ok &= code1 == 0 and code2 == 0 and dot1 == dot2
    ok &= dot1.count("->") == 12 and dot1.count('";') == 10

    code, js = run("crystal", "--diagram", "I:r=1", "--s", "3",
                   "--format", "json")
    ok &= code == 0
    ok &= parse_json(js) == crystal_graph(build_diagram("I", 1), 3)

    report_path = tmp_path / "report.json"
    code, _ = run("verify", "--diagram", "A1AFF", "--max-degree", "2",
                  "--suite", "iqg", "--json", str(report_path))
    ok &= code == 0
    ok &= json.loads(report_path.read_text())["ok"] is True

    code, _ = run("verify", "--diagram", "A1AFF", "--max-degree", "2",
                  "--suite", "iqg", "--mutate", "varsigma1")
    ok &= code == 1

    code, _ = run("verify", "--diagram", "I:r=-1", "--max-degree", "2")
    ok &= code == 2
    code, _ = run("crystal", "--diagram", "II:r=1", "--s", "2")
    ok &= code == 2

    capsys.readouterr()
    _passes("8 (CLI byte-stability, JSON round trip, exit codes)", ok)
