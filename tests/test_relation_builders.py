"""Relation builders against their reference copies, and the two-sided
compiler against the compiler of one difference.

``closed_forms`` keeps the builders as they were before they built their
coefficients once per call; the lists must agree entry by entry, in order.
The report of ``verify_relations``, which compiles lhs and rhs into one
form, must be the report read off ``reference_compile_relation(lhs - rhs)``
on relations broken in every group, including the groups that no
``--mutate`` reaches.  The compiler sums each side on its own, copying a
unit word's memo polynomial into its side: compiling must leave every memo
form as it was, every component it returns must be the caller's own, and
its subtract path must agree with the reference on every relation with its
sides swapped or its right side scaled.  Suites
run one after another in one process must carry nothing of the diagram
they were first run on, and the integer-only constants that the iqg
builders read, built at import, must be the reference builders' values for
every Cartan integer a presentation holds.  ``quantum_relations`` on each
affine presentation's own Cartan matrix must hold under cyclic chi, and
fail on a misread one; on kind I it must be the uqsl suite.  Every relation
instance of a presentation must hold under the standard coideal embedding
(``closed_forms.coideal_embedding``), and -q^-3 in one node's varsigma, in
the relations alone, must break exactly the two instances that read it.
The iqg reference keeps R5's eps form, so it reads the varsigma of
``closed_forms.unfolded``.  The builders emit each side as a tuple of rows
(word tuple, nonzero ScalarQ), and build no ``OperatorExpr`` while they
run; the references read them through ``closed_forms.as_expr``.
"""

import pytest

from closed_forms import (_serre_sum, as_expr, coideal_embedding,
                          cyclic_chi_map, divided_power, q_pochhammer,
                          reference_algebra_relations,
                          reference_compile_relation,
                          reference_relation_instances,
                          reference_uqsl_relation_instances, unfolded,
                          xi_variants)
from qweyl.cli import MUTATIONS, _apply_mutation, run_suite
from qweyl.iqg import _R5, _SERRE, B_, phi, presentation, relation_instances
from qweyl import modweyl
from qweyl.modweyl import (iota_consistency, iota_map,
                           modweyl_relation_instances, modweyl_table)
from qweyl.opcalc import (GeneratorSymbol, OperatorExpr, expr_map,
                          image_table, monomials_of_degree, report_failures,
                          verify_relations)
from qweyl.qscalar import Q_MINUS_QINV, LaurentPoly, ScalarQ, q_binomial
from qweyl.satake import _MIN_R, build_diagram
from qweyl.shift import _word_form, compile_relation
from qweyl.weyl import (SERRE_ROWS, chi_map, quantum_relations,
                        uqsl_relation_instances, weyl_relation_instances,
                        weyl_table)

ALL_DIAGRAMS = [("I", 0), ("I", 1), ("I", 2), ("II", 0), ("II", 1), ("II", 2),
                ("III", 1), ("III", 2), ("A1AFF", None), ("IV", 0), ("IV", 1),
                ("IV", 2), ("V", 0), ("V", 1), ("V", 2), ("VI", 1), ("VI", 2)]
LARGER = [("I", 5), ("V", 4)]
# The golden diagrams, then every other kind and rank up to r = 4.
UP_TO_4 = ALL_DIAGRAMS + [(kind, r) for kind, low in _MIN_R.items()
                          for r in range(low, 5)
                          if (kind, r) not in ALL_DIAGRAMS]


def _entries(instances):
    """Each instance as (group id, indices, lhs rows, rhs rows), the rows as
    lists, so that their order counts too.  A builder's sides are its rows;
    a reference builder's sides, ``OperatorExpr``s, are read as theirs."""
    return [(group, list(indices), _rows(lhs), _rows(rhs))
            for group, indices, lhs, rhs in instances]


def _rows(side):
    if isinstance(side, OperatorExpr):
        return list(side.terms.items())
    return list(side)


def _diagrams(kind, r):
    """The diagram, its non-inert mutations and its xi variants."""
    d = build_diagram(kind, r)
    out = [d]
    for mutation in MUTATIONS:
        try:
            out.append(_apply_mutation(d, mutation, "all"))
        except ValueError:  # varsigma1 is inert on this diagram
            pass
    return out + xi_variants(kind, r)


@pytest.mark.parametrize("kind,r", ALL_DIAGRAMS + LARGER)
def test_builders_match_reference_entry_by_entry(kind, r):
    d = build_diagram(kind, r)
    assert _entries(weyl_relation_instances(d.r)) == _entries(
        reference_algebra_relations((1,) * d.nslots, "DXM", "weyl"))
    assert _entries(uqsl_relation_instances(d.r)) == _entries(
        reference_uqsl_relation_instances(d.r))
    for variant in _diagrams(kind, r):
        assert _entries(relation_instances(presentation(variant))) == \
            _entries(reference_relation_instances(unfolded(variant))), \
            variant.spec_string
        assert _entries(modweyl_relation_instances(variant)) == _entries(
            reference_algebra_relations(variant.xi, "dxm", "modweyl"))


def test_builders_build_no_operator_expr(monkeypatch):
    # The four relation builders emit rows: while they run on every golden
    # diagram, building an OperatorExpr raises.  iota's images are built
    # before, since an image is an OperatorExpr; the consistency check's
    # instances are read off them.  Every side is a tuple of rows (word
    # tuple, nonzero ScalarQ) with no word twice, and each builder still
    # returns a list.
    diagrams = [build_diagram(kind, r) for kind, r in ALL_DIAGRAMS]
    images = {d.spec_string: iota_map(d) for d in diagrams}
    checked, real = [], modweyl.verify_relations

    def recorded(instances, table, max_s):
        checked.extend(instances)
        return real(instances, table, max_s)

    def refused(*args, **kwargs):
        raise AssertionError("a relation builder built an OperatorExpr")

    built = []
    with monkeypatch.context() as patch:
        patch.setattr(modweyl, "iota_map", lambda d: images[d.spec_string])
        patch.setattr(modweyl, "verify_relations", recorded)
        patch.setattr(OperatorExpr, "__init__", refused)
        patch.setattr(OperatorExpr, "word", refused)
        for d in diagrams:
            lists = [weyl_relation_instances(d.r),
                     uqsl_relation_instances(d.r),
                     modweyl_relation_instances(d),
                     relation_instances(presentation(d))]
            assert all(type(instances) is list and instances
                       for instances in lists)
            built += [entry for instances in lists for entry in instances]
            assert iota_consistency(d, 0, weyl_table(d.nslots),
                                    modweyl_table(d)) == []
    assert len(checked) == sum(map(len, images.values()))
    groups = set()
    for group, _, lhs, rhs in built + checked:
        groups.add(group.split(".")[0])
        for side in (lhs, rhs):
            assert type(side) is tuple, group
            for row in side:
                word, c = row
                assert type(row) is tuple and type(word) is tuple, group
                assert all(type(sym) is GeneratorSymbol for sym in word)
                assert type(c) is ScalarQ and not c.is_zero, group
            assert len({word for word, _ in side}) == len(side), group
    assert groups == {"weyl", "uqsl", "modweyl", "iqg"}
    assert {group for group, *_ in checked} == {"modweyl.iota_consistency"}


def _suites(d):
    """(table, instances) for every suite, each table as ``verify`` builds it."""
    classical, modified = weyl_table(d.nslots), modweyl_table(d)
    pres = presentation(d)
    return [(classical, weyl_relation_instances(d.r)),
            (image_table(chi_map(d.r), classical), uqsl_relation_instances(d.r)),
            (modified, modweyl_relation_instances(d)),
            (image_table(iota_map(d), classical), modweyl_relation_instances(d)),
            (image_table(phi(pres), modified), relation_instances(pres))]


def _broken(instances):
    """The first instance of every group, broken: a nonzero rhs times q, or
    q times the first lhs word as the rhs of a zero one."""
    q, seen, out = ScalarQ.q_power(1), set(), []
    for group, indices, lhs, rhs in instances:
        if group in seen:
            continue
        seen.add(group)
        if not rhs:
            rhs = ((lhs[0][0], q),)
        else:
            rhs = tuple([(word, c * q) for word, c in rhs])
        out.append((group, indices, lhs, rhs))
    return out


def _reference_report(instances, table, max_s):
    """The verify report of each instance, read off the reference form of
    lhs - rhs: the verdict and the first residual up to ``max_s``."""
    n, report = table.nvars, []
    for group, indices, lhs, rhs in instances:
        form = reference_compile_relation(as_expr(lhs) - as_expr(rhs), table)
        entry = {"relation_id": group, "instance_indices": list(indices),
                 "ok": not form.components}
        if form.components:
            upward = (mon for s in range(max_s + 1)
                      for mon in monomials_of_degree(n, s))
            first = next(form.residuals(upward), None)
            entry["residual_monomial"] = entry["residual_coefficient"] = None
            if first is not None:
                mon, terms = first
                entry["residual_monomial"] = list(mon)
                entry["residual_coefficient"] = str(terms[min(terms)])
        report.append(entry)
    return report


@pytest.mark.parametrize("kind,r", [("I", 1), ("III", 1), ("A1AFF", None),
                                    ("IV", 2), ("V", 1), ("VI", 1)])
def test_broken_relations_report_as_the_reference_difference(kind, r):
    groups = set()
    for table, instances in _suites(build_diagram(kind, r)):
        broken = _broken(instances)
        report = verify_relations(broken, table, 3)
        assert report == _reference_report(broken, table, 3)
        assert not any(entry["ok"] for entry in report)
        groups |= {entry["relation_id"] for entry in report}
    # every group of the four suites was broken at least once
    assert {g.split(".")[0] for g in groups} == {"weyl", "uqsl", "modweyl",
                                                  "iqg"}


def _memo(table):
    """Every form of ``table``'s memo, its polynomial copied."""
    return {word: (shift, dict(poly), divided, bound)
            for word, (shift, poly, divided, bound) in table.forms.items()}


@pytest.mark.parametrize("kind,r", [("IV", 1), ("A1AFF", None)])
def test_compiling_never_changes_the_memo(kind, r):
    # Every word's form is in its table's memo before any relation is
    # compiled, so a compile that added into, or subtracted from, a memo
    # polynomial instead of its side's copy shows in the snapshot.
    d = build_diagram(kind, r)
    variants = [d]
    for mutation in MUTATIONS:
        try:
            variants.append(_apply_mutation(d, mutation, "all"))
        except ValueError:  # varsigma1 is inert on this diagram
            pass
    zeros, compiled = [], 0
    for variant in variants:
        for table, instances in _suites(variant):
            for _, _, lhs, rhs in instances:
                for word, _ in (*lhs, *rhs):
                    _word_form(word, table)
            before = _memo(table)
            for _, _, lhs, rhs in instances:
                form = compile_relation(lhs, rhs, table)
                if not form.components:
                    zeros.append(form)
                compiled += 1
            assert _memo(table) == before
    assert len(variants) == 3 if kind == "IV" else len(variants) >= 2
    assert compiled > len(zeros) > 1
    # no two zero forms share an object a caller could change
    assert len({id(form.components) for form in zeros}) == len(zeros)


@pytest.mark.parametrize("kind,r", [("IV", 1), ("A1AFF", None)])
def test_compiled_components_are_the_callers(kind, r):
    # Each broken relation compiled twice over one table: no component dict
    # is shared between the two forms, none is a polynomial of the memo, and
    # clearing every component of both leaves a third compile's form and
    # the memo as they were.
    for table, instances in _suites(build_diagram(kind, r)):
        for _, _, lhs, rhs in _broken(instances):
            forms = [compile_relation(lhs, rhs, table) for _ in range(2)]
            comps = [comp for form in forms
                     for comp in form.components.values()]
            memo = {id(form[1]) for form in table.forms.values()}
            assert forms[0].components
            assert len({id(comp) for comp in comps}) == len(comps)
            assert not memo & {id(comp) for comp in comps}
            before = _memo(table)
            for comp in comps:
                comp.clear()
            assert compile_relation(lhs, rhs, table) == \
                reference_compile_relation(as_expr(lhs) - as_expr(rhs), table)
            assert _memo(table) == before


def _copies_then_adds(lhs, rhs, table):
    """Whether a side of lhs - rhs holds two words of one shift vector, the
    first with coefficient 1 at the relation's largest d-count: the side
    copies that word's memo polynomial and adds the second into the copy."""
    forms = {word: _word_form(word, table) for word, _ in (*lhs, *rhs)}
    depth = max([form[2] for form in forms.values()], default=0)
    for side in (lhs, rhs):
        copied = set()
        for word, c in side:
            shift, _, divided, _ = forms[word]
            if shift in copied:
                return True
            if c.is_one and divided == depth:
                copied.add(shift)
    return False


@pytest.mark.parametrize("kind,r", ALL_DIAGRAMS)
def test_subtract_path_matches_the_reference(kind, r):
    # Sides swapped, the right side scaled by q, and the swapped sides with
    # q times the first lhs word added on the right, which gives the shift
    # vectors of a zero right side nonzero terms on the right alone: every
    # compiled form, by subtraction or as the zero form of two equal sides,
    # must be the reference form of the difference.
    q, shared = ScalarQ.q_power(1), 0
    for table, instances in _suites(build_diagram(kind, r)):
        for _, _, lhs, rhs in instances:
            left, right = as_expr(lhs), as_expr(rhs)
            broken = left + OperatorExpr.word(lhs[0][0], q)
            for a, b in ((right, left), (left, right.scale(q)),
                         (right, broken)):
                assert compile_relation(a.terms.items(), b.terms.items(),
                                        table) == \
                    reference_compile_relation(a - b, table), str(a - b)
            shared += _copies_then_adds(lhs, rhs, table)
    assert shared   # uqsl.EF, the R4/R6 sandwiches, ...


def test_repeated_suites_carry_no_diagram_state():
    # One process runs the suite on a diagram, on its varsigma1 mutant and
    # on it again: nothing built for one run may leak into the next.  IV:r=2
    # has every group R1-R6 and a varsigma1 that the presentation keeps
    # (III's node 1 is dropped, so its varsigma1 is inert).
    d = build_diagram("IV", 2)
    first = run_suite(d, "iqg", 2)
    mutant = run_suite(_apply_mutation(d, "varsigma1", "iqg"), "iqg", 2)
    again = run_suite(d, "iqg", 2)
    assert first == again and not report_failures(first)
    assert report_failures(mutant)
    # Each constant equals what the reference builders of closed_forms
    # build: the Serre sums of divided powers, R5's q-Pochhammer symbols
    # over [n]! (q - q^-1) and the q-binomial rows of R6 and uqsl.
    bi, bj = B_(0), B_(1)
    qq_inv = ScalarQ(Q_MINUS_QINV).invert()
    qm2, qp2 = ScalarQ.q_power(-2), ScalarQ.q_power(2)
    for c in (0, -1, -2):
        for parity in (0, 1):
            ref = _serre_sum(0, 1, c, parity).terms
            assert _SERRE[c, parity] == tuple(
                ref[(bi,) * n + (bj,) + (bi,) * (1 - c - n)]
                for n in range(2 - c))
        n = -c
        over = next(iter(divided_power(bi, n).terms.values())) * qq_inv
        assert _R5[c] == (q_pochhammer(qm2, qm2, n) * over,
                          q_pochhammer(qp2, qp2, n) * over)
        m = 1 - c
        assert SERRE_ROWS[m] == tuple(ScalarQ(q_binomial(m, k) * (-1) ** k)
                                      for k in range(m + 1))
    # ... and the tables hold every Cartan integer of two distinct nodes
    pairings = set()
    for kind, r in ALL_DIAGRAMS + LARGER:
        pres = presentation(build_diagram(kind, r))
        pairings |= {pres.pairing(i, j) for i in pres.nodes
                     for j in pres.nodes if i != j}
    assert pairings == set(_R5)


def _cartan(pres):
    """The Cartan matrix of a presentation, its nodes read in order."""
    return [[pres.pairing(i, j) for j in pres.nodes] for i in pres.nodes]


def _cyclic_report(cartan):
    """The verify report of ``quantum_relations(cartan)`` under cyclic chi
    on as many slots as the matrix has nodes."""
    n = len(cartan)
    return verify_relations(quantum_relations(cartan), image_table(
        cyclic_chi_map(n), weyl_table(n)), 0)


@pytest.mark.parametrize("kind,r", [
    ("III", 1), ("III", 2), ("IV", 0), ("IV", 1), ("IV", 2), ("V", 0),
    ("V", 1), ("V", 2), ("VI", 1), ("VI", 2), ("A1AFF", None)])
def test_cyclic_chi_satisfies_the_affine_quantum_relations(kind, r):
    # Each cycle and A1AFF's double bond is an affine Cartan matrix; cyclic
    # chi realizes U_q of it, A1AFF's order-3 Serre sums included.
    cartan = _cartan(presentation(build_diagram(kind, r)))
    report = _cyclic_report(cartan)
    assert report and all(entry["ok"] for entry in report)
    groups = {entry["relation_id"] for entry in report}
    assert {"uqsl.serre_E", "uqsl.serre_F", "uqsl.KEK"} <= groups
    if kind == "A1AFF":
        assert cartan == [[2, -2], [-2, 2]]


def test_cyclic_chi_fails_a_misread_affine_matrix():
    # A1AFF read with a_01 = -1: K-conjugation across the bond and the
    # cubic Serre sums no longer hold, and nothing else changes.
    cartan = _cartan(presentation(build_diagram("A1AFF")))
    cartan[0][1] = cartan[1][0] = -1
    report = _cyclic_report(cartan)
    failed = sorted((entry["relation_id"], entry["instance_indices"])
                    for entry in report if not entry["ok"])
    assert len(report) == 21
    assert failed == [(group, pair) for group in (
        "uqsl.KEK", "uqsl.KFK", "uqsl.serre_E", "uqsl.serre_F")
        for pair in ([0, 1], [1, 0])]


@pytest.mark.parametrize("r", [0, 1, 2])
def test_quantum_relations_of_kind_I_are_the_uqsl_suite(r):
    # Kind I's presentation is the path 1..2r+2, of type A_{2r+2}: read at
    # node k - 1 for node k, its relations are those of U_q(sl_{2r+3}).
    pres = presentation(build_diagram("I", r))
    assert _entries(quantum_relations(_cartan(pres))) == _entries(
        uqsl_relation_instances(2 * r + 1))


def _coideal_failures(relations, embedded):
    """(group id, indices) of each relation instance of the presentation
    ``relations`` whose image under the coideal embedding of the
    presentation ``embedded`` compiles to a nonzero form."""
    images, table = coideal_embedding(embedded)
    return [(group, indices)
            for group, indices, lhs, rhs in relation_instances(relations)
            if compile_relation(expr_map(as_expr(lhs), images).terms.items(),
                                expr_map(as_expr(rhs), images).terms.items(),
                                table).components]


@pytest.mark.parametrize("kind,r", UP_TO_4)
def test_every_relation_holds_under_the_coideal_embedding(kind, r):
    # Each relation instance of the presentation, with its typed varsigma,
    # is a relation of the coideal subalgebra: R5 on the orbit {0, tau 0}
    # that closes the cycle of III and IV too, which reads (q^-2, q^3).
    pres = presentation(build_diagram(kind, r))
    assert _coideal_failures(pres, pres) == []


@pytest.mark.parametrize("kind,r", ALL_DIAGRAMS)
def test_the_coideal_embedding_pins_every_varsigma(kind, r):
    # varsigma_n set to -q^-3 in the relations alone, the embedding kept at
    # the typed value, breaks exactly the two instances that read it: R5 on
    # n's orbit, or R6 from a fixed node n to its two neighbours.
    pres = presentation(build_diagram(kind, r))
    flipped = ScalarQ(LaurentPoly({-3: -1}))
    for n in pres.nodes:
        mutant = pres._replace(varsigma={**pres.varsigma, n: flipped})
        tn = pres.tau[n]
        want = ([("iqg.R5", [i]) for i in sorted({n, tn})] if tn != n else
                [("iqg.R6", [n, j]) for j in pres.nodes
                 if pres.pairing(n, j) == -1])
        assert sorted(_coideal_failures(mutant, pres)) == want, n
