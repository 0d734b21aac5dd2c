"""Polynomial ring and free operator calculus."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import (divided_power, evaluate, reference_apply,
                          reference_mul, scaled_word)
from qweyl.iqg import oscillator_action
from qweyl.opcalc import (ActionTable, GeneratorSymbol, OperatorExpr,
                          QPolynomial, apply, apply_word,
                          monomials_of_degree, monomials_up_to,
                          operator_equal_on_degrees, poly_from_text,
                          poly_to_text)
from qweyl.qscalar import (Q_MINUS_QINV, LaurentPoly, ScalarQ, q_factorial,
                           q_integer)
from qweyl.satake import build_diagram, parse_spec
from qweyl.modweyl import d_, iota_table, m_, modweyl_table, x_
from qweyl.shift import ShiftWord
from qweyl.weyl import D, M, X, weyl_table


def rand_poly(rng, nvars, max_deg=3, terms=4):
    out = {}
    for _ in range(terms):
        mon = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            mon[rng.randrange(nvars)] += 1
        out[tuple(mon)] = ScalarQ(rng.randint(-4, 4) or 1)
    return QPolynomial(nvars, out)


def rand_word(rng, nvars, length):
    syms = []
    for _ in range(length):
        fam = rng.choice(["D", "X", "M"])
        inv = fam == "M" and rng.random() < 0.5
        syms.append(GeneratorSymbol(fam, rng.randrange(nvars), inv))
    return tuple(syms)


def test_poly_addition_identity_and_scaling():
    p = QPolynomial(3, {(1, 0, 2): ScalarQ(5)})
    assert p + QPolynomial.zero(3) == p
    scaled = QPolynomial.variable(0, 3).scale(ScalarQ(q_integer(2)))
    assert scaled.terms == {(1, 0, 0): ScalarQ(q_integer(2))}


def test_product_by_a_monomial_adds_exponents():
    p = QPolynomial.monomial((1, 1, 0))
    product = p * QPolynomial.monomial((0, 1, 0))
    assert product.terms == {(1, 2, 0): ScalarQ.one()}


def test_mixed_operands_are_refused():
    # Exponent vectors of another length, or an operator expression, are
    # not multiplied or added term by term.
    p = QPolynomial(3, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="mixing polynomial rings"):
        p * QPolynomial.monomial((1,))
    e = OperatorExpr.identity()
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        for a, b in ((p, e), (e, p)):
            with pytest.raises(TypeError):
                op(a, b)
    assert p != e and e != p


def test_exponent_vectors_must_be_integers():
    # QPolynomial(1, {(1.5,): 1}) would print as (1)*X0^1: refused instead.
    for mon in ((1.5,), (2.0,), (1, 0.5)):
        with pytest.raises(TypeError):
            QPolynomial(len(mon), {mon: 1})


def test_monomial_enumeration():
    mons = monomials_of_degree(3, 2)
    assert len(mons) == 6
    assert mons == sorted(mons, reverse=True)
    assert len(monomials_up_to(2, 4)) == 1 + 2 + 3 + 4 + 5


def test_apply_is_linear():
    rng = random.Random(11)
    table = weyl_table(3)
    for _ in range(25):
        e = OperatorExpr.word(rand_word(rng, 3, rng.randint(1, 3)))
        p, r = rand_poly(rng, 3), rand_poly(rng, 3)
        a, b = ScalarQ(rng.randint(-3, 3) or 2), ScalarQ(q_integer(rng.randint(1, 3)))
        lhs = apply(e, p.scale(a) + r.scale(b), table)
        rhs = apply(e, p, table).scale(a) + apply(e, r, table).scale(b)
        assert lhs == rhs


def test_apply_respects_multiplication():
    rng = random.Random(12)
    table = weyl_table(2)
    for _ in range(25):
        e1 = OperatorExpr.word(rand_word(rng, 2, rng.randint(1, 2)))
        e2 = OperatorExpr.word(rand_word(rng, 2, rng.randint(1, 2)))
        p = rand_poly(rng, 2)
        assert apply(e1 * e2, p, table) == apply(e1, apply(e2, p, table), table)


def test_every_table_image_is_homogeneous():
    # each generator sends a monomial to a homogeneous polynomial
    for d in (build_diagram("I", 1), build_diagram("A1AFF"), build_diagram("V", 1)):
        table = modweyl_table(d)
        for mon in monomials_up_to(d.nslots, 3):
            for sym in table.symbols:
                for tgt, _ in evaluate(table.entry(sym), mon):
                    expected = sum(mon) + {"d": -1, "x": 1, "m": 0}[sym.fam]
                    assert sum(tgt) == expected


def test_default_coefficient_is_built_once(monkeypatch):
    # word, symbol and identity share one canonical 1 instead of building it
    built = []
    init = ScalarQ.__init__

    def counting(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(ScalarQ, "__init__", counting)
    g = GeneratorSymbol("e", 0)
    exprs = [OperatorExpr.word([g]), OperatorExpr.symbol(g),
             OperatorExpr.identity()]
    assert built == []
    assert [e.terms for e in exprs] == [{(g,): ScalarQ.one()},
                                        {(g,): ScalarQ.one()},
                                        {(): ScalarQ.one()}]


def test_divided_power_convention():
    b = GeneratorSymbol("B", 0)
    dp = divided_power(b, 2)
    assert dp.terms == {(b, b): ScalarQ(1, q_factorial(2, 1))}
    assert divided_power(b, -1).is_zero


def test_apply_word_examples():
    d = build_diagram("I", 0)
    table = modweyl_table(d)
    p = QPolynomial.variable(1, 2)
    out = apply_word((x_(0), d_(1)), p, table)
    # d_1 X_1 = [xi_1 * 1] = [2], then x_0
    assert out == QPolynomial.monomial((1, 0), ScalarQ(q_integer(2)))
    assert apply(OperatorExpr.identity(), p, table) == p
    # with xi_1 = 1 the same word sends X_1 to X_0 on the nose
    d1 = build_diagram("I", 1)
    out = apply_word((x_(0), d_(1)), QPolynomial.variable(1, 3), modweyl_table(d1))
    assert out == QPolynomial.variable(0, 3)


def test_unknown_symbol_raises():
    table = weyl_table(2)
    with pytest.raises(KeyError):
        apply_word((GeneratorSymbol("Z", 0),), QPolynomial.variable(0, 2), table)


def test_operator_equal_on_degrees_reports():
    table = weyl_table(2)
    e = OperatorExpr.word((D(0), X(1)))
    assert operator_equal_on_degrees(e, e, table, 3) == []
    inv_pair = OperatorExpr.word((M(0), M(0, True)))
    assert operator_equal_on_degrees(inv_pair, OperatorExpr.identity(), table, 3) == []
    d = build_diagram("I", 0)
    mt = modweyl_table(d)
    dx = OperatorExpr.word((d_(0), x_(0)))
    xd = OperatorExpr.word((x_(0), d_(0)))
    assert operator_equal_on_degrees(dx, xd, mt, 2)


def test_poly_text_round_trip():
    rng = random.Random(13)
    for _ in range(30):
        p = rand_poly(rng, 3)
        assert poly_from_text(poly_to_text(p), 3) == p
    p = QPolynomial(3, {(0, 0, 0): ScalarQ(q_integer(2), q_integer(3))})
    assert poly_from_text(poly_to_text(p), 3) == p
    assert poly_from_text("X2", 3) == QPolynomial.variable(2, 3)
    assert poly_from_text("X0 * X1", 3) == QPolynomial.monomial((1, 1, 0))
    assert poly_from_text("0", 2).is_zero


def test_poly_text_nests_coefficients_to_a_bounded_depth():
    assert poly_from_text("(" * 64 + "q" + ")" * 64 + "*X0", 1) == \
        QPolynomial.monomial((1,), ScalarQ.q_power(1))
    with pytest.raises(ValueError, match="nested too deeply at '\\('"):
        poly_from_text("(" * 65 + "q" + ")" * 65, 1)
    with pytest.raises(ValueError, match="nested too deeply"):
        poly_from_text("(" * 5000, 1)


def test_poly_rejects_bad_vectors():
    with pytest.raises(ValueError):
        QPolynomial(2, {(1, 2, 3): ScalarQ.one()})
    with pytest.raises(ValueError):
        QPolynomial(2, {(-1, 0): ScalarQ.one()})
    with pytest.raises(ValueError):
        QPolynomial.monomial((1, 0)) + QPolynomial.monomial((1, 0, 0))


def test_non_laurent_residuals_match_naive_difference():
    # DX_same with the wrong sign on M_i^-1: the residual on X^a is
    # -2 q^(-a-1) / (q - q^-1), which is not a Laurent polynomial.
    i, nvars, max_s = 1, 3, 3
    table = weyl_table(nvars)
    qq_inv = ScalarQ(Q_MINUS_QINV).invert()
    lhs = OperatorExpr.word((D(i), X(i)))
    bad_rhs = (OperatorExpr.word((M(i),), ScalarQ.q_power(1))
               + OperatorExpr.word((M(i, True),), ScalarQ.q_power(-1))).scale(qq_inv)
    residuals = operator_equal_on_degrees(lhs, bad_rhs, table, max_s)
    expected = []
    for mon in monomials_up_to(nvars, max_s):
        p = QPolynomial.monomial(mon)
        r = apply(lhs, p, table) - apply(bad_rhs, p, table)
        if not r.is_zero:
            expected.append((mon, r))
    assert residuals == expected
    assert len(residuals) == len(monomials_up_to(nvars, max_s))
    assert all(not c.is_polynomial
               for _, r in residuals for c in r.terms.values())
    assert residuals[0][1] == QPolynomial.monomial(
        (0, 0, 0), ScalarQ(LaurentPoly({-1: -2})) * qq_inv)


def _constant_table(value):
    sym = GeneratorSymbol("Z", 0)
    return sym, ActionTable(1, {sym: ShiftWord((), ((value, 0, ()),), 0)})


def test_merged_table_uses_other_entry_and_leaves_self_unchanged():
    sym, a = _constant_table(1)
    _, b = _constant_table(2)
    assert evaluate(a.entry(sym), (1,)) == [((1,), ScalarQ(1))]
    assert evaluate(a.merged(b).entry(sym), (1,)) == [((1,), ScalarQ(2))]
    assert evaluate(a.entry(sym), (1,)) == [((1,), ScalarQ(1))]


def test_merged_override_reuses_built_entries_and_prefers_the_other():
    # An override is a table of its own, merged in: an entry the first table
    # built before the merge is reused, not rebuilt; the override wins
    # whether it is given or built and whether or not the first table had
    # built that symbol; and the first table is unchanged afterwards.
    y, z = GeneratorSymbol("Y", 0), GeneratorSymbol("Z", 0)
    builds = []

    def constants(values):
        """A table whose one build rule gives sym the constant values[sym]."""
        def build(sym):
            if sym not in values:
                return None
            builds.append((sym.label, values[sym]))
            return ShiftWord((), ((values[sym], 0, ()),), 0)
        return ActionTable(1, {}, build, values.keys)

    for z_built_first in (False, True):
        for given in (True, False):
            builds.clear()
            a = constants({y: 1, z: 1})
            y_word = a.entry(y)
            z_word = a.entry(z) if z_built_first else None
            b = (ActionTable(1, {z: constants({z: 2}).entry(z)}) if given
                 else constants({z: 2}))
            merged = a.merged(b)
            assert merged.symbols == a.symbols == {y, z}
            assert merged.entry(y) is y_word
            assert evaluate(merged.entry(z), (1,)) == [((1,), ScalarQ(2))]
            assert builds == ([("Y0", 1)] + [("Z0", 1)] * z_built_first
                              + [("Z0", 2)])
            assert a.entry(y) is y_word
            assert evaluate(a.entry(z), (1,)) == [((1,), ScalarQ(1))]
            if z_built_first:
                assert a.entry(z) is z_word


def test_each_stored_entry_is_checked_once(monkeypatch):
    # The oscillator table stores each alias it composes and each d/x/m
    # letter it reads, and checks each once: e_c = x_c d_{c+1} and
    # f_0 = x_1 d_0 on IV:r=2 store 4 aliases and 7 letters, d_1 among
    # them.  A merged table stores its sources' entries with no second
    # check.
    import qweyl.opcalc as opcalc
    checked = []
    real = opcalc._checked

    def counting(sym, entry):
        checked.append(sym.label)
        return real(sym, entry)

    monkeypatch.setattr(opcalc, "_checked", counting)
    table = oscillator_action(build_diagram("IV", 2))
    for label in ("e0", "e1", "e2", "f0", "d1"):
        table.entry(GeneratorSymbol.from_label(label))
    assert sorted(checked) == ["d0", "d1", "d2", "d3", "e0", "e1", "e2",
                               "f0", "x0", "x1", "x2"]
    sym, a = _constant_table(1)
    _, b = _constant_table(2)
    checked.clear()
    assert a.merged(b).entry(sym) is b.entry(sym) and checked == []


def test_an_oscillator_table_is_freed_when_dropped():
    # The table composes an alias over its own letters, so its rule keeps
    # no reference back to it: a command's table is freed when the command
    # drops it, not left for the cyclic collector.
    import gc
    import weakref
    table = oscillator_action(build_diagram("IV", 2))
    for label in ("e0", "f2", "k1^-1", "d1"):
        table.entry(GeneratorSymbol.from_label(label))
    dropped = weakref.ref(table)
    gc.disable()
    try:
        del table
        assert dropped() is None
    finally:
        gc.enable()


def test_one_build_rule_is_called_once_per_symbol_looked_up():
    # A table's one rule is called with a symbol on its first lookup only;
    # a symbol the table lacks reads None from get and a KeyError naming it
    # from entry, and nothing is stored for it.
    calls = []

    def build(sym):
        calls.append(sym)
        return ShiftWord((), ((2, 0, ()),), 0) if sym.fam == "Z" else None

    table = ActionTable(1, {}, build)
    z, w = GeneratorSymbol("Z", 0), GeneratorSymbol("W", 3)
    assert table.get(z) is table.entry(z) is table.get(z)
    assert table.get(w) is None
    with pytest.raises(KeyError, match="unknown symbol W3"):
        table.entry(w)
    assert calls == [z, w, w] and list(table.symbols) == [z]


@pytest.mark.parametrize("kind,r", [("I", 1), ("V", 1), ("VI", 1),
                                    ("A1AFF", None)])
def test_the_oscillator_rule_has_exactly_its_listed_symbols(kind, r):
    # Every listed symbol has an entry, and the labels next to them (an
    # index past the table, a wrong inverse flag, another family) have none.
    d = build_diagram(kind, r)
    table = oscillator_action(d)
    listed = set(table.symbols)
    near = {GeneratorSymbol(fam, i, inv) for fam in "efktdxmBHz"
            for i in range(d.nslots + 3) for inv in (False, True)}
    for sym in near:
        assert (table.get(sym) is not None) == (sym in listed), sym.label
    assert listed <= near


def test_act_refuses_entries_that_are_not_runs():
    # act reads one step per letter, so a table holds no entry whose image
    # is not one run: not a plain function, not a term that is 0, not three
    # terms.  Each is refused where it is stored, naming its symbol.
    sym, table = _constant_table(2)
    assert table.act(sym, (1,)) == ((1,), 0, 2, 1)
    three = ShiftWord(((0, 1),), ((1, 2, ()), (1, 0, ()), (2, -2, ())), 0)
    for entry in (lambda mon: [(mon, ScalarQ(2))],
                  ShiftWord((), ((0, 0, ()),), 0), three):
        with pytest.raises(ValueError, match="action of Z0 is not a q-integer "
                                             "run"):
            ActionTable(1, {sym: entry})
        # an override is a table of its own, checked where it is built
        with pytest.raises(ValueError, match="action of Z0"):
            table.merged(ActionTable(1, {sym: entry}))
        with pytest.raises(ValueError, match="action of Z0"):
            table.merged(ActionTable(1, {}, lambda s, entry=entry: entry)
                         ).entry(sym)
        with pytest.raises(ValueError, match="action of Z0"):
            ActionTable(1, {}, lambda s, entry=entry: entry).entry(sym)
    assert table.act(sym, (1,)) == ((1,), 0, 2, 1)


def test_unknown_symbol_raises_after_known_symbols_act():
    sym, table = _constant_table(1)
    table.act(sym, (0,))
    table.act(sym, (2,))
    with pytest.raises(KeyError):
        table.act(GeneratorSymbol("Z", 1), (0,))


def test_repeated_apply_agrees_and_calls_the_entries_again(monkeypatch):
    d = build_diagram("A1AFF")
    table = iota_table(d)
    calls = []
    run = ShiftWord.run

    def counted(self, mon):
        calls.append(mon)
        return run(self, mon)

    monkeypatch.setattr(ShiftWord, "run", counted)
    expr = (OperatorExpr.word((d_(0), x_(0)))
            - OperatorExpr.word((m_(0),), ScalarQ(1, q_integer(2)))
            + OperatorExpr.word((x_(1), m_(1, True), d_(1))))
    p = rand_poly(random.Random(14), d.nslots)
    first = apply(expr, p, table)
    once = list(calls)
    second = apply(expr, p, table)
    assert second == first
    # no memo: the second apply reads every letter of the first again
    assert once and calls == once + once
    assert second == apply(expr, p, modweyl_table(d))


def test_product_by_a_zero_monomial_is_the_zero_polynomial():
    p = QPolynomial(2, {(1, 0): ScalarQ(3), (0, 2): ScalarQ.q_power(-1)})
    for zero in (0, ScalarQ.zero()):
        out = p * QPolynomial.monomial((1, 1), zero)
        assert out.is_zero
        assert out == QPolynomial.zero(2)


# --- apply against the letter-by-letter reference ------------------------------

ONE_PLUS_Q = LaurentPoly({0: 1, 1: 1})
# Each factor as its terms (coefficient, power of q): a run times one term
# is a run.
STEP_SCALES = [((1, 3),), ((1, -2),), ((-1, 0),), ((Fraction(2, 3), 1),)]
OSCILLATOR_TABLES = {spec: oscillator_action(parse_spec(spec))
                     for spec in ("I:r=0", "II:r=0", "IV:r=1", "A1AFF")}
coefficients = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool),
    st.sampled_from([ScalarQ(LaurentPoly({-1: 2, 2: Fraction(1, 3)})),
                     ScalarQ(LaurentPoly({0: 1, 3: -1}), ONE_PLUS_Q),
                     ScalarQ(1, LaurentPoly({0: 2, 2: 1, 3: 1}))]))


@st.composite
def apply_cases(draw):
    """(expr, poly, table): an oscillator table with some entries scaled,
    words over it, and a polynomial of several terms."""
    base = OSCILLATOR_TABLES[draw(st.sampled_from(sorted(OSCILLATOR_TABLES)))]
    entries = {sym: base.entry(sym) for sym in base.symbols}
    symbols = sorted(entries)
    for sym in draw(st.lists(st.sampled_from(symbols), max_size=4)):
        entries[sym] = scaled_word(entries[sym],
                                   draw(st.sampled_from(STEP_SCALES)))
    words = st.lists(st.sampled_from(symbols), max_size=5).map(tuple)
    expr = OperatorExpr(draw(st.dictionaries(words, coefficients, min_size=1,
                                             max_size=2)))
    nvars = base.nvars
    mons = st.lists(st.integers(0, 3), min_size=nvars,
                    max_size=nvars).map(tuple)
    poly = QPolynomial(nvars, draw(st.dictionaries(mons, coefficients,
                                                   min_size=1, max_size=3)))
    return expr, poly, ActionTable(nvars, entries)


@settings(max_examples=150, deadline=None)
@given(apply_cases())
def test_apply_matches_the_letter_by_letter_reference(case):
    expr, poly, table = case
    # the same terms in the same order, each in the same canonical form
    assert (list(apply(expr, poly, table).terms.items())
            == list(reference_apply(expr, poly, table).terms.items()))


def test_tables_refuse_steps_that_are_not_runs():
    # A step times 1 + q, or times 0, or an entry with two targets, is no
    # run: the table refuses it, so apply never meets it.
    base = OSCILLATOR_TABLES["IV:r=1"]
    e0 = base.entry(GeneratorSymbol("e", 0))
    f1 = base.entry(GeneratorSymbol("f", 1))
    two_targets = ShiftWord(e0.delta, e0.terms + f1.terms, 1)
    for entry in (scaled_word(e0, ((1, 0), (1, 1))),
                  scaled_word(e0, ((0, 0),)), two_targets):
        with pytest.raises(ValueError, match="is not a q-integer run"):
            ActionTable(base.nvars, {GeneratorSymbol("g", 0): entry})


@st.composite
def polynomial_pairs(draw):
    """Two polynomials in one ring of 1 to 3 variables, up to 4 terms each."""
    nvars = draw(st.integers(1, 3))
    mons = st.lists(st.integers(0, 3), min_size=nvars,
                    max_size=nvars).map(tuple)
    polys = st.dictionaries(mons, coefficients, max_size=4).map(
        lambda terms: QPolynomial(nvars, terms))
    return draw(polys), draw(polys)


@settings(max_examples=100, deadline=None)
@given(polynomial_pairs())
def test_product_matches_the_monomial_fold(pair):
    p, r = pair
    got, want = p * r, reference_mul(p, r)
    assert got.nvars == want.nvars == p.nvars
    assert got.terms == want.terms
