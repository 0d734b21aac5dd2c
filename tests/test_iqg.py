"""Coideal presentations, the homomorphism into the modified algebra, and
the raising/lowering witness words."""

from functools import partial

import pytest

from closed_forms import (action_discrepancies, as_expr, closed_form_action,
                          evaluate, witness_coefficients, xi_variants)
from evaluation import eval_scalar
from qweyl import iqg
from qweyl.iqg import (B_, H_, _alias_images, apply_witness,
                       e_, f_, irreducibility_witness, k_, oscillator_action,
                       phi, presentation, relation_instances, spanning_witness,
                       t_, verify_homomorphism, witness_steps)
from qweyl.modweyl import d_, m_, modweyl_table, x_
from qweyl.opcalc import (OperatorExpr, QPolynomial, monomials_of_degree,
                          monomials_up_to, operator_equal_on_degrees,
                          report_failures, walk_word)
from qweyl.qscalar import LaurentPoly, Q_MINUS_QINV, ScalarQ, q_factorial, q_integer
from qweyl.satake import SatakeDiagram, build_diagram, parse_spec
from qweyl.shift import ShiftWord

W = OperatorExpr.word

ALL_SMALL = [("I", 0), ("I", 1), ("II", 0), ("II", 1), ("III", 1),
             ("A1AFF", None), ("IV", 0), ("IV", 1), ("V", 0), ("V", 1),
             ("VI", 1)]


# --- presentation structure ---------------------------------------------------

def _assert_ladder(d, orbits, fixed):
    # phi sends B/H of each orbit {n < tau n} of colour c to f_c, e_c, k_c and
    # k_c^-1, and B/H of a fixed node n to t_n and the identity
    img = phi(presentation(d))
    for c, (n, m) in orbits.items():
        assert img[B_(n)] == img[f_(c)] and img[B_(m)] == img[e_(c)]
        assert img[H_(n)] == img[k_(c)] and img[H_(m)] == img[k_(c, True)]
    for n in fixed:
        assert img[B_(n)] == img[t_(n)]
        assert img[H_(n)] == OperatorExpr.identity()


def test_presentation_shapes():
    d = build_diagram("I", 2)
    p = presentation(d)
    assert type(p) is SatakeDiagram
    assert p.nodes == tuple(range(1, 7))
    _assert_ladder(d, {0: (1, 6), 1: (2, 5), 2: (3, 4)}, ())
    d = build_diagram("II", 1)
    assert presentation(d) is d
    assert d.nodes == tuple(range(5))
    _assert_ladder(d, {0: (0, 4), 1: (1, 3)}, (2,))
    d = build_diagram("III", 1)
    p = presentation(d)
    assert p.nodes == tuple(range(4))
    _assert_ladder(d, {0: (0, 3), 1: (1, 2)}, ())
    assert p.pairing(0, 3) == -1 and p.pairing(1, 2) == -1
    _assert_ladder(build_diagram("V", 1), {1: (1, 4), 2: (2, 3)}, (0,))
    _assert_ladder(build_diagram("VI", 1), {1: (1, 3)}, (0, 2))
    d = build_diagram("A1AFF")
    _assert_ladder(d, {0: (0, 1)}, ())
    assert presentation(d).pairing(0, 1) == -2


def test_fold_pair_lands_on_last_triple_for_kind_I():
    # the adjacent involution pair (r+1, r+2) carries the alias colour r
    for r in (0, 1, 2):
        d = build_diagram("I", r)
        _assert_ladder(d, {r: (r + 1, r + 2)}, ())
        assert presentation(d).pairing(r + 1, r + 2) == -1


def test_presentation_of_III_drops_one_orbit_and_closes_the_cycle():
    # the drawn diagram's orbit {1, 2r+2} goes; the rest is renumbered in
    # order, so tau is n -> 2r+1-n on a cycle with q at r, and q^-2 and q^3
    # on the orbit {0, 2r+1} that closes it
    for r in (1, 2, 3):
        d = build_diagram("III", r)
        p = presentation(d)
        nodes = tuple(range(2 * r + 2))
        assert p.nodes == nodes
        assert p.tau == {n: 2 * r + 1 - n for n in nodes}
        assert p.edges == {frozenset((n, (n + 1) % len(nodes))) for n in nodes}
        assert {n: p.varsigma[n] for n in nodes
                if p.varsigma[n] != ScalarQ.one()} == {
            0: ScalarQ.q_power(-2), r: ScalarQ.q_power(1),
            2 * r + 1: ScalarQ.q_power(3)}


def test_long_relation_emitted_for_both_orderings():
    inst = [t for t in relation_instances(presentation(build_diagram("I", 1)))
            if t[0] == "iqg.R5"]
    assert sorted(i for _, (i,), _, _ in inst) == [1, 2, 3, 4]


def test_relation_instance_counts_frozen():
    # group-by-group enumeration over the presentation node sets
    def census(kind, r):
        out = {}
        pres = presentation(build_diagram(kind, r))
        for g, _, _, _ in relation_instances(pres):
            out[g] = out.get(g, 0) + 1
        return out

    assert census("I", 1) == {"iqg.R1_inv": 4, "iqg.R1_comm": 6, "iqg.R2": 16,
                              "iqg.R3": 2, "iqg.R4": 8, "iqg.R5": 4}
    assert census("VI", 1) == {"iqg.R1_inv": 4, "iqg.R1_comm": 6, "iqg.R2": 16,
                               "iqg.R3": 1, "iqg.R4": 4, "iqg.R5": 2,
                               "iqg.R6": 6}
    assert census("A1AFF", None) == {"iqg.R1_inv": 2, "iqg.R1_comm": 1,
                                     "iqg.R2": 4, "iqg.R5": 2}


def test_relations_numerically_at_rational_q():
    # independent cross-check: evaluate residual coefficients at q = 2 and
    # q = -3/5 instead of trusting symbolic equality alone
    from fractions import Fraction
    from qweyl.modweyl import modweyl_table
    from qweyl.opcalc import apply, expr_map

    d = build_diagram("A1AFF")
    table = modweyl_table(d)
    push = phi(presentation(d))
    for _, _, lhs, rhs in relation_instances(presentation(d)):
        left = expr_map(as_expr(lhs), push)
        right = expr_map(as_expr(rhs), push)
        for mon in monomials_up_to(2, 3):
            p = QPolynomial.monomial(mon)
            lp = apply(left, p, table)
            rp = apply(right, p, table)
            for value in (Fraction(2), Fraction(-3, 5)):
                lvals = {m: eval_scalar(c, value) for m, c in lp.terms.items()}
                rvals = {m: eval_scalar(c, value) for m, c in rp.terms.items()}
                assert lvals == rvals


# --- specialized display identities, checked directly on the module -----------

def _check_identity(diagram, lhs, rhs, max_s=3):
    table = oscillator_action(diagram)
    assert operator_equal_on_degrees(lhs, rhs, table, max_s) == []


def test_kind_I_fold_relation_display():
    # e_r^2 f_r + f_r e_r^2 = (q+q^-1)(e_r f_r e_r - e_r(q k_r + q^-1 k_r^-1))
    d = build_diagram("I", 1)
    e, f, k, kv = e_(1), f_(1), k_(1), k_(1, True)
    lhs = W((e, e, f)) + W((f, e, e))
    inner = W((e, f, e)) - W((e, k), ScalarQ.q_power(1)) \
        - W((e, kv), ScalarQ.q_power(-1))
    rhs = inner.scale(ScalarQ(q_integer(2)))
    _check_identity(d, lhs, rhs)
    # and the lowering-side version, with the k-factors on the left
    lhs2 = W((f, f, e)) + W((e, f, f))
    inner2 = W((f, e, f)) - W((k, f), ScalarQ.q_power(1)) \
        - W((kv, f), ScalarQ.q_power(-1))
    _check_identity(d, lhs2, inner2.scale(ScalarQ(q_integer(2))))


def test_a1aff_cubic_relation_display():
    # e^3 f - [3] e^2 f e + [3] e f e^2 - f e^3
    #   = [3]!(q - q^-1) e (k - k^-1) e
    d = build_diagram("A1AFF")
    e, f, k, kv = e_(0), f_(0), k_(0), k_(0, True)
    three = ScalarQ(q_integer(3))
    lhs = W((e, e, e, f)) - W((e, e, f, e)).scale(three) \
        + W((e, f, e, e)).scale(three) - W((f, e, e, e))
    coeff = ScalarQ(q_factorial(3, 1) * Q_MINUS_QINV)
    rhs = (W((e, k, e)) - W((e, kv, e))).scale(coeff)
    _check_identity(d, lhs, rhs, max_s=4)


def test_kind_II_fixed_node_relation_display():
    # t^2 e + e t^2 = [2] t e t + e
    d = build_diagram("II", 0)
    t, e = t_(1), e_(0)
    lhs = W((t, t, e)) + W((e, t, t))
    rhs = W((t, e, t), ScalarQ(q_integer(2))) + W((e,))
    _check_identity(d, lhs, rhs)


# --- phi ----------------------------------------------------------------------

def test_phi_images():
    table = phi(presentation(build_diagram("I", 1)))
    assert table[e_(1)] == W((x_(1), d_(2)))
    assert table[f_(0)] == W((x_(1), d_(0)))
    assert table[k_(1)] == W((m_(1), m_(2, True)))
    a1 = phi(presentation(build_diagram("A1AFF")))
    assert a1[k_(0)] == W((m_(0), m_(1, True)), ScalarQ.q_power(-1))
    assert a1[k_(0, True)] == W((m_(0, True), m_(1)), ScalarQ.q_power(1))
    v = phi(presentation(build_diagram("V", 1)))
    assert v[f_(1)] == W((x_(1), d_(0)))
    assert v[e_(1)] == W((x_(0), d_(1)))
    assert v[t_(0)] == W((x_(0), d_(0)))
    vi = phi(presentation(build_diagram("VI", 1)))
    assert vi[t_(0)] == W((x_(1), d_(1)))
    assert vi[t_(2)] == W((x_(2), d_(2)))


def test_phi_covers_all_presentation_generators():
    for kind, r in ALL_SMALL:
        d = build_diagram(kind, r)
        pres = presentation(d)
        table = phi(presentation(d))
        for n in pres.nodes:
            assert B_(n) in table and H_(n) in table


def test_phi_resolves_fixed_H_to_identity():
    table = phi(presentation(build_diagram("II", 1)))
    assert table[H_(2)] == OperatorExpr.identity()


# --- homomorphism verification -------------------------------------------------

@pytest.mark.parametrize("kind,r", ALL_SMALL)
def test_verify_homomorphism_empty(kind, r):
    report = verify_homomorphism(build_diagram(kind, r), 3)
    assert report and not report_failures(report)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_every_kept_varsigma_of_III_is_detected(r):
    # the dropped orbit {1, 2r+2} carries no generator; every other node's
    # varsigma enters a relation
    d = build_diagram("III", r)
    flipped = ScalarQ(LaurentPoly({-3: -1}))
    for n in d.nodes:
        failed = report_failures(
            verify_homomorphism(d.with_varsigma(n, flipped), 3))
        assert bool(failed) == (n not in (1, 2 * r + 2)), n


def test_mutation_breaks_verification():
    flipped = build_diagram("A1AFF").with_varsigma(1, ScalarQ(LaurentPoly({-3: -1})))
    assert report_failures(verify_homomorphism(flipped, 2))
    bent = build_diagram("I", 1).with_xi(2, 1)
    assert report_failures(verify_homomorphism(bent, 2))


ALL_R2 = [("I", 0), ("I", 1), ("I", 2), ("II", 0), ("II", 1), ("II", 2),
          ("III", 1), ("III", 2), ("A1AFF", None), ("IV", 0), ("IV", 1),
          ("IV", 2), ("V", 0), ("V", 1), ("V", 2), ("VI", 1), ("VI", 2)]


@pytest.mark.parametrize("kind,r", ALL_R2)
def test_oscillator_action_matches_phi(kind, r):
    # the generated table against the per-kind closed forms, alias by alias
    d = build_diagram(kind, r)
    table = oscillator_action(d)
    images = {sym: OperatorExpr.word((sym,))
              for sym in _alias_images(presentation(d))}
    assert action_discrepancies(images, table, closed_form_action(d), 5) == []


def test_oscillator_matches_phi_reports_each_discrepancy():
    # scale the closed form of k_0 by q: every monomial is reported, in
    # monomial order, as (label, monomial, via phi, direct)
    d = build_diagram("I", 0)  # k_0 X^a = q^(a_0 - 2 a_1) X^a
    oracle = closed_form_action(d)
    act = oracle[k_(0)]
    oracle[k_(0)] = lambda mon: [(tgt, c * ScalarQ.q_power(1))
                                 for tgt, c in act(mon)]
    expected = [("k0", mon, QPolynomial.monomial(mon, ScalarQ.q_power(e)),
                 QPolynomial.monomial(mon, ScalarQ.q_power(e + 1)))
                for mon, e in (((0, 0), 0), ((1, 0), 1), ((0, 1), -2))]
    assert action_discrepancies(_alias_images(presentation(d)),
                                modweyl_table(d), oracle, 1) == expected


@pytest.mark.parametrize("kind,r", ALL_R2)
def test_oscillator_action_follows_phi_off_the_default_xi(kind, r):
    for d in xi_variants(kind, r):
        table = oscillator_action(d)
        assert action_discrepancies(_alias_images(presentation(d)),
                                    modweyl_table(d),
                                    {sym: partial(evaluate, table.entry(sym))
                                     for sym in table.symbols}, 3) == [], \
            d.xi


def test_H_times_H_tau_acts_as_identity():
    for kind, r in (("I", 1), ("II", 1), ("V", 0)):
        d = build_diagram(kind, r)
        pres = presentation(d)
        table = phi(presentation(d))
        from qweyl.modweyl import modweyl_table
        mt = modweyl_table(d)
        for n in pres.nodes:
            expr = table[H_(n)] * table[H_(pres.tau[n])]
            assert operator_equal_on_degrees(
                expr, OperatorExpr.identity(), mt, 5) == []


def test_alias_images_preserve_degree():
    for kind, r in ALL_SMALL:
        d = build_diagram(kind, r)
        table = oscillator_action(d)
        for mon in monomials_up_to(d.nslots, 3):
            for sym in _alias_images(presentation(d)):
                for tgt, _ in evaluate(table.entry(sym), mon):
                    assert sum(tgt) == sum(mon)


# --- oscillator action spot values --------------------------------------------

def test_oscillator_spot_values():
    d = build_diagram("I", 1)
    table = oscillator_action(d)
    assert evaluate(table.entry(e_(1)), (0, 0, 1)) == [
        ((0, 1, 0), ScalarQ(q_integer(2)))]
    d2 = build_diagram("II", 0)
    table2 = oscillator_action(d2)
    assert evaluate(table2.entry(f_(0)), (0, 1)) == []
    assert evaluate(table2.entry(t_(1)), (0, 1)) == [((0, 1), ScalarQ(-1))]
    a1 = build_diagram("A1AFF")
    t = oscillator_action(a1)
    assert evaluate(t.entry(k_(0)), (0, 0)) == [((0, 0), ScalarQ.q_power(-1))]
    assert evaluate(t.entry(e_(0)), (0, 1)) == [
        ((1, 0), ScalarQ(q_integer(3)))]


@pytest.mark.parametrize("spec,mon,up", [
    ("IV:r=2", (1, 2, 3, 4), True), ("IV:r=2", (1, 2, 3, 4), False),
    ("V:r=2", (0, 3, 4, 5), True), ("A1AFF", (2, 7), True),
    ("I:r=2", (2, 0, 1, 3), False)])
def test_witness_walk_builds_only_the_letters_it_reads(monkeypatch, spec, mon,
                                                       up):
    # A fresh oscillator table lists every symbol and has built nothing.  A
    # witness walk builds the image of each distinct letter of its word once,
    # and the d/x generators those images read once each; a second walk
    # builds nothing more.
    d = parse_spec(spec)
    images = _alias_images(presentation(d))
    built_images, built_generators = [], []
    real_xd, real_k, real_gen = iqg._xd, iqg._k_image, ShiftWord.generator

    def generator(slot, step, terms, divided=False):
        built_generators.append((slot, step))
        return real_gen(slot, step, terms, divided)

    monkeypatch.setattr(iqg, "_xd", lambda i, j: built_images.append(
        (x_(i), d_(j))) or real_xd(i, j))
    monkeypatch.setattr(iqg, "_k_image", lambda *args: built_images.append(
        args) or real_k(*args))
    monkeypatch.setattr(ShiftWord, "generator", generator)
    word, _ = witness_steps(d, mon, up)
    top = (sum(mon),) + (0,) * (d.nslots - 1)
    table = oscillator_action(d)
    assert len(table.symbols) == len(images) + 4 * d.nslots
    assert built_images == built_generators == []
    walk_word(word, mon if up else top, table)
    letters = [w for sym in set(word) for w in images[sym].terms]
    assert sorted(built_images) == sorted(letters)
    assert sorted(built_generators) == sorted(
        {(g.idx, 1 if g.fam == "x" else -1) for w in letters for g in w})
    built_images.clear()
    built_generators.clear()
    walk_word(word, mon if up else top, table)
    assert built_images == built_generators == []


def test_letters_never_reach_the_alias_rule(monkeypatch):
    # The oscillator table tries the letter rule first: the d/x/m and
    # e/f/k/t families are disjoint, so looking up every d/x/m letter of
    # IV:r=2 calls the alias rule not once.
    calls = []
    real = iqg._alias_rule

    def counted(pres):
        rule = real(pres)
        return lambda sym: calls.append(sym) or rule(sym)

    monkeypatch.setattr(iqg, "_alias_rule", counted)
    table = oscillator_action(parse_spec("IV:r=2"))
    letters = [sym for sym in table.symbols if sym.fam in "dxm"]
    assert len(letters) == 4 * table.nvars
    assert all(table.entry(sym) for sym in letters)
    assert calls == []
    assert table.entry(e_(1)) and calls == [e_(1)]


# --- witnesses ------------------------------------------------------------------

def test_irreducibility_witness_examples():
    d = build_diagram("I", 0)
    word, predicted = irreducibility_witness(d, (3, 0))
    assert word == () and predicted == ScalarQ.one()
    word, predicted = irreducibility_witness(d, (1, 2))
    assert word == (e_(0), e_(0))
    assert predicted == ScalarQ(q_factorial(2, 2))
    assert apply_witness(d, word, QPolynomial.monomial((1, 2))) \
        == QPolynomial.monomial((3, 0), predicted)


def test_spanning_witness_examples():
    d = build_diagram("I", 0)
    word, predicted = spanning_witness(d, (3, 0))
    assert word == () and predicted == ScalarQ.one()
    word, predicted = spanning_witness(d, (1, 2))
    assert word == (f_(0), f_(0))
    assert predicted == ScalarQ(q_integer(3) * q_integer(2))
    assert apply_witness(d, word, QPolynomial.monomial((3, 0))) \
        == QPolynomial.monomial((1, 2), predicted)


@pytest.mark.parametrize("kind,r", [("I", 1), ("II", 1), ("III", 1),
                                    ("A1AFF", None), ("IV", 1), ("V", 1)])
def test_witnesses_exhaustive_small(kind, r):
    d = build_diagram(kind, r)
    n = d.nslots
    for s in range(4):
        top = tuple([s] + [0] * (n - 1))
        for a in monomials_of_degree(n, s):
            word, predicted = irreducibility_witness(d, a)
            assert not predicted.is_zero
            assert apply_witness(d, word, QPolynomial.monomial(a)) \
                == QPolynomial.monomial(top, predicted)
            word, predicted = spanning_witness(d, a)
            assert not predicted.is_zero
            assert apply_witness(d, word, QPolynomial.monomial(top)) \
                == QPolynomial.monomial(a, predicted)


@pytest.mark.parametrize("kind,r", [s for s in ALL_SMALL if s[0] != "VI"])
def test_witnesses_hold_off_the_default_xi(kind, r):
    for d in xi_variants(kind, r):
        top = tuple([3] + [0] * (d.nslots - 1))
        for a in monomials_of_degree(d.nslots, 3):
            word, predicted = irreducibility_witness(d, a)
            assert apply_witness(d, word, QPolynomial.monomial(a)) \
                == QPolynomial.monomial(top, predicted), (d.xi, a)
            word, predicted = spanning_witness(d, a)
            assert apply_witness(d, word, QPolynomial.monomial(top)) \
                == QPolynomial.monomial(a, predicted), (d.xi, a)


LADDER = [spec for spec in ALL_R2 if spec[0] != "VI"]


@pytest.mark.parametrize("kind,r", LADDER)
def test_witness_coefficients_match_the_factorial_quotients(kind, r):
    # the running q-products against the quotients of q-factorials in Q(q)
    d = build_diagram(kind, r)
    for a in monomials_up_to(d.nslots, 8):
        up, down = witness_coefficients(d, a)
        assert irreducibility_witness(d, a)[1] == up, a
        assert spanning_witness(d, a)[1] == down, a


def test_witness_round_trip_composes():
    d = build_diagram("III", 1)
    a, b = (1, 1, 1), (0, 2, 1)
    up_word, up_coeff = irreducibility_witness(d, a)
    down_word, down_coeff = spanning_witness(d, b)
    out = apply_witness(d, down_word + up_word, QPolynomial.monomial(a))
    assert out == QPolynomial.monomial(b, up_coeff * down_coeff)
    assert not (up_coeff * down_coeff).is_zero


def test_witnesses_reject_kind_VI():
    d = build_diagram("VI", 1)
    message = "kind VI ladder operators never move slot 0"
    with pytest.raises(ValueError, match=message):
        irreducibility_witness(d, (1, 1, 1))
    with pytest.raises(ValueError, match=message):
        spanning_witness(d, (1, 1, 1))
    # a malformed vector is refused as such first
    with pytest.raises(ValueError, match="exponent vector length"):
        spanning_witness(d, (1, 1))


def test_witness_vector_validation():
    d = build_diagram("I", 0)
    with pytest.raises(ValueError):
        irreducibility_witness(d, (1, 2, 3))
    with pytest.raises(ValueError):
        spanning_witness(d, (-1, 2))
