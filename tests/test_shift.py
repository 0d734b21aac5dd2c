"""Shift-vector compiler: agreement with monomial-by-monomial application,
over generator and image tables, refusal of entries that are not runs,
residuals read off the compiled form against an apply-based oracle, the
same forms as the compiler that still took its products by 1, the
polynomial gcds that a verify run still needs, one letter step per word
suffix and table, images whose words must share one shift and d-count,
a residual search that stops at its first residual, every entry's
factored run against its expanded image, every entry of every table that
qweyl builds a run, entries built on their first lookup against the
tables built at once, image tables that compose nothing before a lookup,
a word-form memo that holds words only, and a modweyl suite that compiles
its @iota relations only when iota fails to realize a generator."""

import functools
import json
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from closed_forms import (_run, decoded, eager_algebra_table,
                          eager_image_table, evaluate, overridden, packed,
                          reference_compile_relation, xi_variants)
from qweyl import modweyl, opcalc, qscalar, shift
from qweyl.cli import main, run_suite
from qweyl.iqg import (_alias_images, e_, oscillator_action, phi,
                       presentation, relation_instances)
from qweyl.modweyl import (d_, iota_map, iota_table, m_,
                           modweyl_relation_instances, modweyl_table, x_)
from qweyl.opcalc import (ActionTable, GeneratorSymbol, OperatorExpr,
                          QPolynomial, apply, expr_map,
                          image_table, monomials_up_to,
                          operator_equal_on_degrees, report_failures,
                          verify_relations)
from qweyl.qscalar import (InexactDivisionError, LaurentPoly, Q_MINUS_QINV,
                           ScalarQ)
from qweyl.satake import build_diagram, parse_spec
from qweyl.shift import ShiftWord, _decode, compile_relation
from qweyl.weyl import (algebra_table, chi_map, uqsl_relation_instances,
                        weyl_relation_instances, weyl_table)

ALL_DIAGRAMS = [("I", 0), ("I", 1), ("I", 2), ("II", 0), ("II", 1), ("II", 2),
                ("III", 1), ("III", 2), ("A1AFF", None), ("IV", 0), ("IV", 1),
                ("IV", 2), ("V", 0), ("V", 1), ("V", 2), ("VI", 1), ("VI", 2)]


def _suites(d):
    """(table, instances, push) for every suite, as ``cli.run_suite`` checks it."""
    classical, modified = weyl_table(d.nslots), modweyl_table(d)
    pres = presentation(d)
    return [(classical, weyl_relation_instances(d.r), None),
            (classical, uqsl_relation_instances(d.r), chi_map(d.r)),
            (modified, modweyl_relation_instances(d), None),
            (classical, modweyl_relation_instances(d), iota_map(d)),
            (modified, relation_instances(pres), phi(pres))]


def _evaluate(form, a):
    """The components at u = q^a: scale * expr applied to X^a."""
    out = {}
    for delta, poly in decoded(form.components).items():
        num = {}
        for (qe, us), c in poly.items():
            e = qe + sum(m * a[j] for j, m in us)
            num[e] = num.get(e, 0) + c
        value = LaurentPoly(num)
        if not value.is_zero:
            out[tuple(x + y for x, y in zip(a, delta))] = ScalarQ(value)
    return out


def _assert_compiles_to_apply(expr, table, monomials):
    """``expr`` compiled over ``table`` against ``apply`` through it."""
    form = compile_relation(expr, OperatorExpr.zero(), table)
    scaled = expr.scale(ScalarQ(form.scale)) if form.components else expr
    for a in monomials:
        expected = apply(scaled, QPolynomial.monomial(a), table).terms
        assert _evaluate(form, a) == expected, (str(expr), a)


@pytest.mark.parametrize("kind,r", ALL_DIAGRAMS)
def test_compiled_components_match_apply(kind, r):
    # Every word of every relation side, and every side as a whole (which
    # has denominators to clear), evaluated at every |a| <= 4: pushed
    # through the images onto the table, and unpushed over the image table.
    d = build_diagram(kind, r)
    exprs = {}
    for table, instances, push in _suites(d):
        pairs = [(table, lambda side: side)]
        if push is not None:
            pairs = [(table, lambda side: expr_map(side, push)),
                     (image_table(push, table), lambda side: side)]
        for tab, pushed in pairs:
            for _, _, lhs, rhs in instances:
                for side in (pushed(lhs), pushed(rhs)):
                    for expr in [side] + [OperatorExpr.word(w)
                                          for w in side.terms]:
                        exprs.setdefault((id(tab), str(expr)), (tab, expr))
    # apply meets each (symbol, monomial) pair many times over these words
    # (IV:r=2: 258,565 calls over 7,296 pairs) and reads each as one run,
    # so it needs no copy of a table whose entries cache their expanded
    # images; such entries are no runs, and a table refuses them.
    monomials = monomials_up_to(d.nslots, 4)
    for table, expr in exprs.values():
        _assert_compiles_to_apply(expr, table, monomials)
    table, _ = next(iter(exprs.values()))
    cached = overridden(table, {sym: functools.cache(table.entry(sym))
                                for sym in table.symbols})
    for sym in table.symbols:
        with pytest.raises(ValueError, match="is not a q-integer run"):
            cached.get(sym)


def test_rule_is_the_monomial_action():
    table = modweyl_table(build_diagram("A1AFF"))  # xi = (1, 3)
    assert table.entry(m_(1)) == ShiftWord.generator(1, 0, ((1, 3),))
    assert table.entry(m_(1)) == ShiftWord((), ((1, 0, ((1, 3),)),), 0)
    form = compile_relation(OperatorExpr.symbol(m_(1, True)),
                            OperatorExpr.zero(), table)
    assert decoded(form.components) == {(0, 0): {(0, ((1, -3),)): 1}}


EDGE = (1 << 23) - 1     # the largest digit of a packed key


@given(st.integers(0, 64).flatmap(lambda r: st.lists(
    st.integers(-EDGE, EDGE), min_size=r + 3, max_size=r + 3)))
@example([EDGE] * 67)
@example([-EDGE] * 67)
@example([0] * 66 + [-1])
def test_decode_reads_back_every_packed_key(digits):
    # q^e u^m over r + 2 <= 66 slots, every digit in (-2^23, 2^23)
    qe, *us = digits
    sparse = tuple((j, m) for j, m in enumerate(us) if m)
    assert _decode(packed(qe, sparse, len(us))) == (qe, sparse)


def test_packed_keys_stop_at_the_digit_bound():
    # A digit of 2^23 - 1, in u_0 or in the q exponent (a letter's own, or
    # one an x_0 shift moves there), packs and reads back; a step or a
    # coefficient that could take a digit to 2^23 raises before it packs
    # such a key.
    z = [GeneratorSymbol("Z", i) for i in range(6)]
    x0 = ShiftWord(((0, 1),), ((1, 0, ()),), 0)
    table = ActionTable(2, {z[0]: ShiftWord.generator(0, 0, ((1, EDGE),)),
                            z[1]: ShiftWord.generator(0, 0, ((1, -EDGE),)),
                            z[2]: ShiftWord.generator(0, 0, ((1, 1),)),
                            z[3]: x0,
                            z[4]: ShiftWord((), ((1, EDGE, ()),), 0),
                            z[5]: ShiftWord((), ((1, 1, ()),), 0)}.get)
    zero, one = OperatorExpr.zero(), ScalarQ(1)

    def compiled(word, coeff=one):
        expr = OperatorExpr.word(word, coeff)
        return decoded(compile_relation(expr, zero, table).components)

    assert compiled((z[0],)) == {(0, 0): {(0, ((0, EDGE),)): 1}}
    assert compiled((z[1], z[3])) == {(1, 0): {(-EDGE, ((0, -EDGE),)): 1}}
    assert compiled((z[0], z[3])) == {(1, 0): {(EDGE, ((0, EDGE),)): 1}}
    assert compiled((z[4],)) == {(0, 0): {(EDGE, ()): 1}}
    for word, coeff in (((z[2], z[0]), one), ((z[0], z[2]), one),
                        ((z[5], z[4]), one),
                        ((z[0],), ScalarQ.q_power(1)),
                        ((z[1],), ScalarQ.q_power(-1))):
        with pytest.raises(ValueError, match=r"could reach 2\^23"):
            compiled(word, coeff)
        assert len(word) == 1 or word not in table.forms
    assert compiled((z[2],), ScalarQ.q_power(EDGE - 1)) == {
        (0, 0): {(EDGE - 1, ((0, 1),)): 1}}


def _relabelled(components, slots):
    """Decoded components with slot ``slots[k]`` renamed k; any other slot
    raises a KeyError."""
    name = {slot: k for k, slot in enumerate(slots)}
    return {tuple(sorted((name[j], s) for j, s in enumerate(delta) if s)):
            {(qe, tuple(sorted((name[j], m) for j, m in us))): v
             for (qe, us), v in poly.items()}
            for delta, poly in decoded(components).items()}


def test_top_slots_compile_as_slots_0_and_1():
    # At I:r=64 every key runs to 67 digits: each weyl cross-slot group on
    # slots (i, j) that reach the top two, each side compiled alone, is,
    # relabelled, the same group on (0, 1).
    table, zero, sides = weyl_table(66), OperatorExpr.zero(), {}
    for group, (i, *rest), lhs, rhs in weyl_relation_instances(64):
        if rest and ({i, *rest} & {64, 65} or (i, *rest) == (0, 1)):
            sides.setdefault(group, {})[i, rest[0]] = [
                _relabelled(compile_relation(side, zero, table).components,
                            (i, rest[0])) for side in (lhs, rhs)]
    assert len(sides) == 6
    for group, by_pair in sides.items():
        assert len(by_pair) > 128 and by_pair[0, 1][0], group
        assert all(got == by_pair[0, 1] for got in by_pair.values()), group


def test_divided_rule_matches_divexact_and_refuses_a_remainder():
    # The running-sum division by q - q^-1, on both exponent parities at odd a.
    terms = ((3, 2), (1, 1), (-1, -1), (-3, -2))
    rule = ShiftWord.generator(0, -1, terms, True)
    for a in range(7):
        num = sum((LaurentPoly({e * a: c}) for c, e in terms),
                  LaurentPoly.zero())
        expected = [((a - 1,), ScalarQ(num.divexact(Q_MINUS_QINV)))] if num else []
        assert evaluate(rule, (a,)) == expected
    with pytest.raises(InexactDivisionError):
        evaluate(ShiftWord.generator(0, 0, ((1, 1),), True), (1,))
    # ShiftWord itself evaluates undivided words only
    with pytest.raises(ValueError, match="only an undivided ShiftWord"):
        rule((1,))


@pytest.mark.parametrize("kind,r", ALL_DIAGRAMS)
def test_factored_run_matches_the_expanded_image(kind, r):
    # Every entry of every oscillator table, at every monomial of degree
    # <= 4: run reads the image that __call__ expands, v*q^k*[n], or n = 0
    # where it is empty.  Besides xi_variants, each slot's xi is set to -1,
    # -2 and -3 in turn, so that ladder letters too read a negative n.
    d = build_diagram(kind, r)
    negative = [d.with_xi(slot, xi) for slot in range(d.nslots)
                for xi in (-1, -2, -3)]
    for d in [d] + xi_variants(kind, r) + negative:
        table = oscillator_action(d)
        monomials = monomials_up_to(d.nslots, 4)
        for word in map(table.entry, table.symbols):
            for a in monomials:
                got, image = word.run(a), evaluate(word, a)
                if not image:
                    assert got[3] == 0, (word, a)
                    continue
                (target, c), = image
                k, v, n = _run(c.as_laurent()._c)
                assert got == (target, k, v, n), (word, a)


def test_factored_run_refuses_what_is_not_a_run():
    u = ((0, 1),)
    cases = [
        ShiftWord((), ((1, 2, ()), (-1, 0, ()), (1, -2, ())), 1),  # three terms
        ShiftWord((), ((1, 0, ((0, 2),)), (-2, 0, ())), 1),  # not c, -c
        ShiftWord((), ((1, 1, ()), (-1, 0, ())), 1),    # an odd gap
        ShiftWord((), ((1, 0, u), (-1, 0, ())), 2),     # divided twice
        ShiftWord((), ((1, 0, u), (1, 0, ())), 0),      # two undivided terms
        # (u_0 - 1)/(q - q^-1): a run at even a_0 only
        ShiftWord((), ((1, 0, u), (-1, 0, ())), 1),
    ]
    for word in cases:
        assert not word.is_run, word
        with pytest.raises(ValueError, match="action of m0 is not a q-integer "
                                             "run"):
            ActionTable(1, {m_(0): word}.get).get(m_(0))
    assert cases[-1].run((2,)) == ((2,), 1, 1, 1)     # (q^2 - 1)/(q - q^-1)
    assert evaluate(cases[-1], (2,)) == [((2,), ScalarQ(LaurentPoly({1: 1})))]
    # ... while the shapes that are runs read as runs, Fractions normalised.
    got = ShiftWord(((0, -1),), ((Fraction(4, 2), 3, u),), 0).run((2,))
    assert got == ((1,), 5, 2, 1) and type(got[2]) is int
    divided = ShiftWord(((0, 1),), ((-1, 0, ((0, -1),)), (1, 0, u)), 1)
    assert divided.is_run
    # (q^3 - q^-3)/(q - q^-1) = [3], listed low term first: the run reads
    # n = -3 and folds its sign into v, and -[3] = [-3] reads v = -1
    assert divided.run((3,)) == ((4,), 0, 1, 3)
    negated = divided._replace(terms=((1, 0, ((0, -1),)), (-1, 0, u)))
    assert negated.run((3,)) == ((4,), 0, -1, 3)
    assert divided.run((0,))[3] == 0                # [0] = 0: n = 0


def _src_tables(d):
    """The six kinds of table that qweyl builds over ``d``: weyl, chi,
    modweyl, iota, phi and oscillator."""
    classical, modified = weyl_table(d.nslots), modweyl_table(d)
    return [classical, image_table(chi_map(d.r), classical), modified,
            image_table(iota_map(d), classical),
            image_table(phi(presentation(d)), modified),
            oscillator_action(d)]


def test_every_entry_qweyl_builds_is_a_run():
    # Every entry of the six tables over the golden diagrams and every xi
    # variant builds and passes the table's shape check.
    count = 0
    for kind, r in ALL_DIAGRAMS:
        for d in [build_diagram(kind, r)] + xi_variants(kind, r):
            for table in _src_tables(d):
                entries = [table.entry(sym) for sym in table.symbols]
                assert all(word.is_run for word in entries)
                count += len(entries)
    assert count == 15_484


def test_plain_function_entry_is_refused_and_checked_by_monomials():
    d = build_diagram("I", 1)
    instances = modweyl_relation_instances(d)
    assert not report_failures(verify_relations(instances, modweyl_table(d), 2))

    # the same action behind a plain function: refused, naming the symbol
    table = modweyl_table(d)
    rule = table.entry(m_(0))
    with pytest.raises(ValueError, match="action of m0 is not a q-integer "
                                         "run"):
        overridden(table, {m_(0): lambda mon: rule(mon)}).entry(m_(0))
    assert table.entry(m_(0)) is rule
    # a symbol the table lacks: the KeyError of ActionTable.act
    table = modweyl_table(d)
    message = "unknown symbol e0 in action table"
    with pytest.raises(KeyError, match=message):
        table.act(e_(0), (0, 0, 0))
    with pytest.raises(KeyError, match=message):
        compile_relation(OperatorExpr.symbol(e_(0)), OperatorExpr.zero(), table)
    # composed image tables compile, and agree with apply
    monomials = monomials_up_to(d.nslots, 4)
    _assert_compiles_to_apply(OperatorExpr.symbol(e_(0)),
                              oscillator_action(d), monomials)
    _assert_compiles_to_apply(OperatorExpr.symbol(m_(1)), iota_table(d),
                              monomials)

    # m_0 scaled by q, as a mistaken closed form would be: the relations in
    # which the factor does not cancel report it
    scaled = ShiftWord((), ((1, 1, ((0, d.xi[0]),)),), 0)
    table = overridden(modweyl_table(d), {m_(0): scaled})
    failures = report_failures(verify_relations(instances, table, 2))
    assert [(e["relation_id"], e["instance_indices"], e["residual_monomial"],
             e["residual_coefficient"]) for e in failures] == [
        ("modweyl.mminv", [0], [0, 0, 0], "q - 1"),
        ("modweyl.minvm", [0], [0, 0, 0], "q - 1"),
        ("modweyl.dx_same", [0], [0, 0, 0], "(-q^2)/(q + 1)"),
        ("modweyl.xd_same", [0], [0, 0, 0], "(-q)/(q + 1)")]


def _apply_residuals(expr, table, max_s):
    """The residual oracle: ``expr`` applied to every monomial of degree
    <= max_s through ``apply``, after clearing denominators with their
    product L; each nonzero residual is divided by L again."""
    dens = {c.den for c in expr.terms.values() if not c.is_polynomial}
    if dens:
        common = ScalarQ(prod(dens))
        expr = expr.scale(common)
    residuals = []
    for mon in monomials_up_to(table.nvars, max_s):
        r = apply(expr, QPolynomial.monomial(mon), table)
        if not r.is_zero:
            if dens:
                r = r.scale(common.invert())
            residuals.append((mon, r))
    return residuals


MATRIX_SPECS = ["I:r=0", "I:r=1", "I:r=2", "II:r=0", "II:r=1", "II:r=2",
                "III:r=1", "III:r=2", "A1AFF", "IV:r=0", "IV:r=1", "IV:r=2",
                "V:r=0", "V:r=1", "V:r=2", "VI:r=1", "VI:r=2"]


def _verify_runs(capsys, tmp_path, spec):
    runs = []
    path = tmp_path / "report.json"
    for mutation in ([], ["--mutate", "varsigma1"], ["--mutate", "xi-fold"]):
        # an inert mutation exits 2 and writes no report: never read a
        # previous run's file
        path.unlink(missing_ok=True)
        code = main(["verify", "--diagram", spec, "--suite", "all",
                     "--max-degree", "3", "--json", str(path)] + mutation)
        report = json.loads(path.read_text()) if path.exists() else None
        runs.append((code, capsys.readouterr().out, report))
    return runs


def _record_compiles(patch):
    """Wrap ``compile_relation`` as ``verify_relations`` calls it; returns
    the list of (lhs - rhs, table, form) it fills."""
    calls = []

    def recorded(lhs, rhs, table):
        form = compile_relation(lhs, rhs, table)
        calls.append((lhs - rhs, table, form))
        return form

    patch.setattr(opcalc, "compile_relation", recorded)
    return calls


def test_verify_compiles_each_relation_once(capsys, monkeypatch):
    calls = _record_compiles(monkeypatch)
    code = main(["verify", "--diagram", "I:r=1", "--suite", "iqg",
                 "--max-degree", "2", "--mutate", "xi-fold"])
    out = capsys.readouterr().out
    assert code == 1 and " FAIL\n" in out
    assert len(calls) == out.count("RELATION ")


@pytest.mark.parametrize("spec", MATRIX_SPECS)
def test_modweyl_suite_compiles_each_relation_once(monkeypatch, spec):
    # iota realizes every generator, so the @iota entries are read off the
    # direct pass: one compile per instance and one per iota(g) = g.
    calls = _record_compiles(monkeypatch)
    diagram = parse_spec(spec)
    run_suite(diagram, "modweyl", 2)
    assert len(calls) == (len(modweyl_relation_instances(diagram))
                          + len(iota_map(diagram)))


def test_failing_iota_consistency_compiles_the_iota_relations(
        capsys, monkeypatch, tmp_path):
    # A scaled d_1 image breaks iota: the @iota relations are compiled over
    # the broken image table, never copied from the direct pass.
    original = modweyl.iota_map

    def scaled(diagram):
        images = original(diagram)
        images[d_(1)] = images[d_(1)].scale(ScalarQ.q_power(1))
        return images

    monkeypatch.setattr(modweyl, "iota_map", scaled)
    path = tmp_path / "report.json"
    code = main(["verify", "--diagram", "I:r=1", "--suite", "modweyl",
                 "--max-degree", "2", "--json", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "RELATION modweyl.iota_consistency[d1] FAIL\n" in out
    relations = json.loads(path.read_text())["relations"]
    diagram = parse_spec("I:r=1")
    expected = verify_relations(modweyl_relation_instances(diagram),
                                image_table(scaled(diagram), weyl_table(3)), 2)
    for entry in expected:
        entry["relation_id"] += "@iota"
    iota = [e for e in relations if e["relation_id"].endswith("@iota")]
    assert iota == expected
    assert report_failures(iota)


@pytest.mark.parametrize("spec", MATRIX_SPECS)
def test_engines_agree_on_mutation_matrix(capsys, monkeypatch, tmp_path, spec):
    def refused(*args):
        raise AssertionError("verify applied a word to a monomial")

    with monkeypatch.context() as patch:
        calls = _record_compiles(patch)
        patch.setattr(opcalc, "apply", refused)
        patch.setattr(opcalc.ActionTable, "act", refused)
        runs = _verify_runs(capsys, tmp_path, spec)
    # The compiler proves every relation that holds: each relation whose
    # compiled form is nonzero fails, and the residuals read off that form
    # are those of the apply oracle.
    nonzero = [(expr, table, form) for expr, table, form in calls
               if form.components]
    oracle = [_apply_residuals(expr, table, 3) for expr, table, _ in nonzero]
    assert [operator_equal_on_degrees(expr, OperatorExpr.zero(), table, 3)
            for expr, table, _ in nonzero] == oracle
    assert all(oracle)
    # Every FAIL line is one of those relations, and its report entry
    # carries the oracle's first residual.
    failures = [entry for _, _, report in runs if report is not None
                for entry in report_failures(report["relations"])]
    assert sum(out.count(" FAIL\n") for _, out, _ in runs) == len(failures)
    assert len(failures) == len(oracle)
    for entry, residuals in zip(failures, oracle):
        mon, poly = residuals[0]
        assert entry["residual_monomial"] == list(mon)
        assert entry["residual_coefficient"] == str(
            poly.terms[sorted(poly.terms)[0]])


@pytest.mark.parametrize("kind,r", ALL_DIAGRAMS)
def test_compiler_matches_reference_on_every_suite_and_mutation(
        capsys, monkeypatch, kind, r):
    # Every relation that verify compiles, in all four suites, plain and
    # under both mutations (varsigma1 exits 2 where it is inert), has the
    # components and scale of the compiler that multiplied by 1.
    calls = _record_compiles(monkeypatch)
    spec = build_diagram(kind, r).spec_string
    codes = [main(["verify", "--diagram", spec, "--suite", "all",
                   "--max-degree", "2"] + mutation)
             for mutation in ([], ["--mutate", "varsigma1"],
                              ["--mutate", "xi-fold"])]
    capsys.readouterr()
    assert codes[0] == 0 and codes[1] in (1, 2)
    assert calls
    for expr, table, form in calls:
        assert form == reference_compile_relation(expr, table), str(expr)


def test_verify_runs_a_gcd_only_for_multi_term_numerators(capsys, monkeypatch):
    # The divided powers 1/[n]! and their products have one-term numerators
    # and need no gcd.  The R5 right sides, whose q-Pochhammer numerators
    # cancel against [n]! (q - q^-1), are built in closed form: no gcd
    # either.
    calls = []
    gcd = qscalar._gcd_ordinary

    def counted(a, b):
        calls.append((list(a), list(b)))
        return gcd(a, b)

    monkeypatch.setattr(qscalar, "_gcd_ordinary", counted)
    code = main(["verify", "--diagram", "IV:r=2", "--suite", "iqg",
                 "--max-degree", "2"])
    assert code == 0 and "0 failures" in capsys.readouterr().out
    assert calls == []


def _suffixes(words):
    return {w[k:] for w in words for k in range(len(w))}


@pytest.mark.parametrize("kind,r", [("I", 1), ("IV", 2), ("A1AFF", None)])
def test_verify_steps_each_word_suffix_once(monkeypatch, kind, r):
    # One image_table call, and one verify_relations call, composes each
    # distinct suffix of the words it reads once, one letter onto the next
    # shorter suffix, on every suite's table; composing every word afresh
    # takes more letter steps.  Each suite gets fresh tables: a suffix that
    # an earlier suite composed over the same table is read from that
    # table's memo and not stepped again.
    real = shift._step
    steps = []

    def counted(letter, form):
        steps.append(letter)
        return real(letter, form)

    monkeypatch.setattr(shift, "_step", counted)
    d = build_diagram(kind, r)
    for suite in range(5):
        table, instances, push = _suites(d)[suite]
        if push is not None:
            steps.clear()
            table = image_table(push, table)
            words = [w for image in push.values() for w in image.terms]
            # each image is composed when its symbol is first read
            assert table.symbols == push.keys() and not steps
            for sym in table.symbols:
                table.entry(sym)
            assert len(steps) == len(_suffixes(words))
        steps.clear()
        verify_relations(instances, table, 0)
        words = [w for _, _, lhs, rhs in instances for w in (lhs - rhs).terms]
        assert len(steps) == len(_suffixes(words))
        assert len(steps) < sum(len(w) for w in words)


def test_image_table_composes_nothing_before_its_first_lookup(monkeypatch):
    # iota's d_1 image at xi_1 = 3 has three words, and it too is composed
    # only when its symbol is first looked up.
    real = shift._step
    steps = []

    def counted(letter, form):
        steps.append(letter)
        return real(letter, form)

    monkeypatch.setattr(shift, "_step", counted)
    images = iota_map(build_diagram("A1AFF"))
    assert len(images[d_(1)].terms) == 3
    table = image_table(images, weyl_table(2))
    assert steps == [] and table.symbols == images.keys()
    table.entry(d_(1))
    words = images[d_(1)].terms
    assert len(steps) == len(_suffixes(words))


def test_image_words_must_share_shift_and_d_count():
    # An image sums into one ShiftWord only if its words share their shift
    # vector and their d-count; the zero image, the ShiftWord with no terms,
    # is no run, and refused when it is first looked up.
    table = algebra_table((1, 1), "dxm")
    x0, d0 = OperatorExpr.symbol(x_(0)), OperatorExpr.symbol(d_(0))
    one = OperatorExpr.identity()
    for image in (x0 + OperatorExpr.symbol(x_(1)), d0 * x0 + one):
        images = image_table({e_(0): image}, table)
        with pytest.raises(ValueError, match="words differ in shift vector "
                                             "or d-count"):
            images.entry(e_(0))
    zero = image_table({e_(0): OperatorExpr.zero()}, table)
    with pytest.raises(ValueError, match=r"action of e0 is not a q-integer "
                                         r"run: ShiftWord\(delta=\(\), "
                                         r"terms=\(\), divided=0\)"):
        zero.entry(e_(0))
    # words that agree sum their terms: d0 x0 - q x0 d0 is q^-a0 on X^a
    image = d0 * x0 - (x0 * d0).scale(ScalarQ.q_power(1))
    entry = image_table({e_(0): image}, table).entry(e_(0))
    assert evaluate(entry, (3, 1)) == [((3, 1), ScalarQ.q_power(-3))]


@pytest.mark.parametrize("kind,r", ALL_DIAGRAMS)
def test_entries_built_on_first_lookup_equal_eager_ones(kind, r):
    # Each table lists every symbol before it builds anything, and each
    # entry, looked up in reverse order of the eager table's symbols, is the
    # entry that building the whole table at once gives.
    d = build_diagram(kind, r)
    classical = eager_algebra_table((1,) * d.nslots, "DXM")
    modified = eager_algebra_table(d.xi, "dxm")
    pres = presentation(d)
    eager_aliases = eager_image_table(_alias_images(pres), modified)
    pairs = [(weyl_table(d.nslots), classical),
             (modweyl_table(d), modified),
             (image_table(phi(pres), modweyl_table(d)),
              eager_image_table(phi(pres), modified)),
             (oscillator_action(d), overridden(
                 modified, {sym: eager_aliases.entry(sym)
                            for sym in eager_aliases.symbols}))]
    for lazy, eager in pairs:
        assert lazy.symbols == eager.symbols
        for sym in reversed(list(eager.symbols)):
            assert lazy.entry(sym) == eager.entry(sym), sym.label
        assert ({sym: lazy.entry(sym) for sym in lazy.symbols}
                == {sym: eager.entry(sym) for sym in eager.symbols})


def test_word_forms_are_never_shared_between_tables(capsys, monkeypatch):
    # The same relation words over a clean and a mutated table in one
    # process: every form is the one its own table gives, so the mutation
    # fails and the clean runs before and after it agree.  A memo keyed by
    # the word alone and shared between tables would hand the clean forms
    # to the mutated table, or the mutated ones to the clean table.
    calls = _record_compiles(monkeypatch)
    argv = ["verify", "--diagram", "IV:r=1", "--suite", "all",
            "--max-degree", "2"]
    runs = [(main(run), capsys.readouterr().out)
            for run in (argv, argv + ["--mutate", "xi-fold"], argv)]
    assert [code for code, _ in runs] == [0, 1, 0]
    assert runs[0] == runs[2]
    for expr, table, form in calls:
        assert form == reference_compile_relation(expr, table), str(expr)


def test_word_form_memo_holds_words_only():
    # The powers of q - q^-1 come from one cache for the process, not from
    # the memo: after a verify_relations-style run over a divided table,
    # every key of the table's memo is a word, and each power is the
    # repeated product.
    d = build_diagram("A1AFF")
    table = modweyl_table(d)
    for _, _, lhs, rhs in modweyl_relation_instances(d):
        compile_relation(lhs, rhs, table)
    forms = table.forms
    assert len(forms) > 1 and all(isinstance(key, tuple) for key in forms)
    power = LaurentPoly.one()
    for n in range(6):
        assert shift._q_minus_qinv_power(n) == power, n
        power = power * Q_MINUS_QINV


@pytest.mark.parametrize("spec,max_degree", [
    ("I:r=1", 60),      # both failing R5 relations fail at degree 0
    ("A1AFF", 5),       # first residuals at degree 2
    ("A1AFF", 1),       # no residual up to --max-degree
])
def test_residual_search_stops_at_the_first_residual(capsys, monkeypatch,
                                                     tmp_path, spec,
                                                     max_degree):
    # The search builds the monomials of one degree at a time and stops at
    # the first residual: no degree past it is enumerated, however large
    # --max-degree is.  A relation with no residual there searches up to it.
    nvars = parse_spec(spec).nslots
    degrees = []
    real = opcalc.monomials_of_degree

    def recorded(n, degree):
        if n == nvars:
            degrees.append(degree)
        return real(n, degree)

    monkeypatch.setattr(opcalc, "monomials_of_degree", recorded)
    path = tmp_path / "report.json"
    code = main(["verify", "--diagram", spec, "--suite", "iqg",
                 "--max-degree", str(max_degree), "--mutate", "varsigma1",
                 "--json", str(path)])
    capsys.readouterr()
    failures = report_failures(json.loads(path.read_text())["relations"])
    assert code == 1 and failures
    reached = [max_degree if e["residual_monomial"] is None
               else sum(e["residual_monomial"]) for e in failures]
    assert degrees and max(degrees) == max(reached) <= max_degree
