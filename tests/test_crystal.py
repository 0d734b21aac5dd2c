"""Divided-power basis, Kashiwara operators, crystal graphs and exports."""

import random
from fractions import Fraction
from math import comb

import pytest

from closed_forms import (closed_form_table, overridden,
                          per_node_axioms_check, per_node_crystal_edges,
                          scaled_steps, xi_variants)
from qweyl.crystal import (_kashiwara_coords, combinatorial_rule,
                           crystal_axioms_check, crystal_graph, export,
                           kashiwara_e, kashiwara_f, parse_json)
from qweyl.iqg import f_, oscillator_action
from qweyl.opcalc import (ActionTable, QPolynomial, apply_word,
                          monomials_of_degree)
from qweyl.qscalar import LaurentPoly, ScalarQ, q_factorial, q_integer
from qweyl.satake import build_diagram
from qweyl.shift import ShiftWord

FAMILIES = [("I", 0), ("I", 1), ("I", 2), ("III", 1), ("A1AFF", None)]


# --- divided basis -------------------------------------------------------------

def _divided_laurent(diagram, mon):
    """D(mon) = prod_i [mon_i]^{xi_i}!, the normaliser of X^(mon)."""
    out = LaurentPoly.one()
    for e, xi in zip(mon, diagram.xi):
        out = out * q_factorial(e, xi)
    return out


def _to_divided(diagram, p):
    """Coordinates of p in the divided basis X^(a) = X^a / D(a)."""
    return {mon: c * ScalarQ(_divided_laurent(diagram, mon))
            for mon, c in p.terms.items()}


def _from_divided(diagram, coords):
    return QPolynomial(diagram.nslots, {
        mon: c / ScalarQ(_divided_laurent(diagram, mon))
        for mon, c in coords.items()})


def test_divided_coordinates_examples():
    d = build_diagram("I", 1)
    assert _to_divided(d, QPolynomial.variable(0, 3)) \
        == {(1, 0, 0): ScalarQ.one()}
    # slot r+1 carries xi = 2, so X_{r+1}^2 has coordinate [2]^2! = [4][2]
    coords = _to_divided(d, QPolynomial.monomial((0, 0, 2)))
    assert coords == {(0, 0, 2): ScalarQ(q_factorial(2, 2))}
    assert _divided_laurent(d, (0, 0, 2)) == q_integer(4) * q_integer(2)


def test_divided_round_trip_random():
    rng = random.Random(77)
    for kind, r in (("I", 1), ("A1AFF", None)):
        d = build_diagram(kind, r)
        for _ in range(50):
            terms = {}
            for _ in range(rng.randint(1, 5)):
                mon = [0] * d.nslots
                for _ in range(rng.randint(0, 4)):
                    mon[rng.randrange(d.nslots)] += 1
                terms[tuple(mon)] = ScalarQ(rng.randint(-9, 9) or 2)
            p = QPolynomial(d.nslots, terms)
            assert _from_divided(d, _to_divided(d, p)) == p


# --- Kashiwara operators --------------------------------------------------------

def test_kashiwara_example_edges():
    d = build_diagram("I", 1)
    t = oscillator_action(d)
    assert kashiwara_f(d, 0, (3, 0, 0), table=t) == (2, 1, 0)
    assert kashiwara_f(d, 1, (0, 3, 0), table=t) == (0, 2, 1)
    assert kashiwara_f(d, 0, (0, 1, 2), table=t) is None     # a_0 = 0
    assert kashiwara_e(d, 0, (3, 0, 0), table=t) is None     # a_1 = 0
    assert kashiwara_e(d, 1, (0, 2, 1), table=t) == (0, 3, 0)


def test_kashiwara_b5_spot_instance():
    d = build_diagram("I", 1)
    t = oscillator_action(d)
    assert kashiwara_f(d, 1, (1, 1, 1), table=t) == (1, 0, 2)
    assert kashiwara_e(d, 1, (1, 0, 2), table=t) == (1, 1, 1)


@pytest.mark.parametrize("kind,r", FAMILIES)
def test_combinatorial_rule_agrees_with_operators(kind, r):
    d = build_diagram(kind, r)
    t = oscillator_action(d)
    for s in range(5):
        for a in monomials_of_degree(d.nslots, s):
            for i in range(d.r + 1):
                for direction, op in (("f", kashiwara_f), ("e", kashiwara_e)):
                    assert op(d, i, a, table=t) \
                        == combinatorial_rule(i, a, direction)


def test_combinatorial_rule_direction_validation():
    with pytest.raises(ValueError):
        combinatorial_rule(0, (1, 0), "g")


def test_kashiwara_rejects_bad_colors_lengths_and_exponents():
    d = build_diagram("I", 0)
    t = oscillator_action(d)
    for op in (kashiwara_f, kashiwara_e):
        with pytest.raises(ValueError, match=r"color 1 out of range 0\.\.0"):
            op(d, 1, (1, 0), table=t)
        with pytest.raises(ValueError, match="exponent vector length 3 != 2"):
            op(d, 0, (1, 0, 0), table=t)
    # Without the check these read (0, 1) and (1, 0).
    with pytest.raises(ValueError, match=r"negative exponent in \(-1, 2\)"):
        kashiwara_e(d, 0, (-1, 2), table=t)
    with pytest.raises(ValueError, match=r"negative exponent in \(2, -1\)"):
        kashiwara_f(d, 0, (2, -1), table=t)


def test_kashiwara_rejects_unsupported_kind():
    d = build_diagram("II", 1)
    with pytest.raises(ValueError, match="not supported"):
        kashiwara_f(d, 0, (1, 0, 0), table=oscillator_action(d))


# --- graphs ---------------------------------------------------------------------

def test_example_graph_nodes_and_edges_exactly():
    g = crystal_graph(build_diagram("I", 1), 3)
    assert len(g.nodes) == 10
    assert len(g.edges) == 12
    f0 = {(a, b) for a, i, b in g.edges if i == 0}
    f1 = {(a, b) for a, i, b in g.edges if i == 1}
    assert f0 == {((3, 0, 0), (2, 1, 0)), ((2, 1, 0), (1, 2, 0)),
                  ((1, 2, 0), (0, 3, 0)), ((2, 0, 1), (1, 1, 1)),
                  ((1, 1, 1), (0, 2, 1)), ((1, 0, 2), (0, 1, 2))}
    assert f1 == {((2, 1, 0), (2, 0, 1)), ((1, 2, 0), (1, 1, 1)),
                  ((1, 1, 1), (1, 0, 2)), ((0, 3, 0), (0, 2, 1)),
                  ((0, 2, 1), (0, 1, 2)), ((0, 1, 2), (0, 0, 3))}


def test_degree_zero_graph():
    g = crystal_graph(build_diagram("I", 0), 0)
    assert g.nodes == ((0, 0),)
    assert g.edges == ()


def test_a1aff_chain():
    g = crystal_graph(build_diagram("A1AFF"), 2)
    assert g.nodes == ((2, 0), (1, 1), (0, 2))
    assert g.edges == (((2, 0), 0, (1, 1)), ((1, 1), 0, (0, 2)))


def test_crystal_graph_rejects_unsupported_kind():
    with pytest.raises(ValueError, match="not supported"):
        crystal_graph(build_diagram("II", 1), 2)


# --- axioms ---------------------------------------------------------------------

@pytest.mark.parametrize("kind,r", FAMILIES)
def test_axioms_pass(kind, r):
    d = build_diagram(kind, r)
    for s in (0, 2, 3):
        report = crystal_axioms_check(d, s)
        assert report["all_ok"], report["failures"][:3]


def test_axioms_report_shape():
    report = crystal_axioms_check(build_diagram("I", 1), 3)
    for key in ("closure_ok", "b5_ok", "weight_ok", "rule_agreement_ok",
                "rank_ok", "all_ok"):
        assert report[key] is True


def _regular_at_zero(s):
    """s = f/g with f, g ordinary polynomials and g(0) != 0.  A canonical
    denominator has a nonzero constant term, so only the numerator's
    lowest power of q matters."""
    return s.is_zero or s.num.min_exp() >= 0


def _kashiwara_f_on_coords(d, i, coords, table):
    """The linear extension of kashiwara_f to divided-basis coordinates."""
    out = {}
    for mon, c in coords.items():
        tgt = kashiwara_f(d, i, mon, table=table)
        if tgt is not None:
            out[tgt] = out.get(tgt, ScalarQ.zero()) + c
    return {mon: c for mon, c in out.items() if not c.is_zero}


def test_lattice_stability_on_regular_coordinates():
    # coordinates regular at q=0 stay regular under the operators
    rng = random.Random(5)
    d = build_diagram("I", 1)
    table = oscillator_action(d)
    nodes = monomials_of_degree(3, 3)
    count = 0
    while count < 100:
        coords = {}
        for _ in range(rng.randint(1, 4)):
            c = ScalarQ(LaurentPoly({rng.randint(0, 3): rng.randint(1, 5)}),
                        LaurentPoly({0: 1, 1: rng.randint(-3, 3)}))
            coords[nodes[rng.randrange(len(nodes))]] = c
        if not all(_regular_at_zero(c) for c in coords.values()):
            continue
        count += 1
        for i in range(2):
            out = _kashiwara_f_on_coords(d, i, coords, table)
            assert all(_regular_at_zero(c) for c in out.values())


# --- Kashiwara coordinates against the ScalarQ oracle ----------------------------

def _oracle_divided_factor(diagram, mon):
    out = ScalarQ.one()
    for e, xi in zip(mon, diagram.xi):
        if e:
            out = out * ScalarQ(q_factorial(e, xi))
    return out


def _oracle_coords(diagram, i, a, n, table):
    """f_i^n applied to X^b / D(b), divided by [n]^{xi_{i+1}}!, in the
    divided basis: the whole word runs over Q(q)."""
    if n < 0:
        return {}
    b = tuple(e + (a[i + 1] if j == i else 0) - (a[i + 1] if j == i + 1 else 0)
              for j, e in enumerate(a))
    start = QPolynomial.monomial(b, _oracle_divided_factor(diagram, b).invert())
    img = apply_word((f_(i),) * n, start, table)
    if n:
        img = img.scale(ScalarQ(q_factorial(n, diagram.xi[i + 1])).invert())
    return {mon: str(c * _oracle_divided_factor(diagram, mon))
            for mon, c in img.terms.items()}


ORACLE_FAMILIES = [("I", 0), ("I", 1), ("I", 2), ("III", 1), ("III", 2),
                   ("A1AFF", None)]


def _assert_coords_match_oracle(d, table, max_s=3):
    for s in range(max_s + 1):
        for a in monomials_of_degree(d.nslots, s):
            for i in range(d.r + 1):
                for n in (a[i + 1] + 1, a[i + 1] - 1):
                    got = _kashiwara_coords(d, i, a, n, table)
                    assert {mon: str(c) for mon, c in got.items()} \
                        == _oracle_coords(d, i, a, n, table), (d.xi, i, a, n)


@pytest.mark.parametrize("kind,r", ORACLE_FAMILIES)
def test_kashiwara_coords_match_scalar_oracle(kind, r):
    # Every xi of every slot in 1..3.  The closed forms ignore xi, so on
    # them most variants break closure and their coefficients are not 1
    # (often with a 2+-term denominator); the phi-derived table follows xi.
    for d in xi_variants(kind, r):
        for build in (oscillator_action, closed_form_table):
            _assert_coords_match_oracle(d, build(d))


def _assert_f0_refused(make_action):
    # A table holds only run-shaped ShiftWords, so no walk meets an f_0
    # built by make_action from the oscillator f_0: the override table
    # refuses it where it first looks it up, and the table keeps its own
    # entry.
    d = build_diagram("I", 1)
    table = oscillator_action(d)
    f0 = table.entry(f_(0))
    override = overridden(table, {f_(0): make_action(f0)})
    with pytest.raises(ValueError, match="the action of f0 is not a "
                                         "q-integer run"):
        override.act(f_(0), (1, 0, 0))
    assert table.entry(f_(0)) is f0


def _moved(mon, k, c):
    return tuple(e - (j == 0) + (j == k) for j, e in enumerate(mon)), c


def test_non_laurent_action_is_refused():
    # Every action scaled by 1/(q^2 + 1).
    scale = ScalarQ(1, LaurentPoly({2: 1, 0: 1}))
    _assert_f0_refused(
        lambda f0: lambda mon: [(t, c * scale) for t, c in f0(mon)])


def test_two_target_action_is_refused():
    # An f_0 that also sends a unit to slot 2.
    _assert_f0_refused(
        lambda f0: lambda mon:
            f0(mon) + [_moved(mon, 2, ScalarQ(1, 2))] if mon[0] else [])


def test_cancelling_action_is_refused():
    # An f_0 whose two paths from X^(2, 0, 0) to (0, 1, 1) cancel.
    _assert_f0_refused(
        lambda f0: lambda mon: [_moved(mon, k, c) for k, c in (
            (1, ScalarQ.one()), (2, ScalarQ(-1 if mon[1] % 2 else 1)))
            ] if mon[0] else [])


def test_kashiwara_coords_are_exact_off_the_string():
    # The string walk divides by a running product taken against the target
    # b + n(e_{i+1} - e_i).  A table whose f_0 sends X^a to
    # (1/2)[a_0] X^(a - e_0 + e_2), off the string, and whose f_1 never
    # vanishes (steps past the end of the string) checks the coordinates of
    # every other target.
    d = build_diagram("I", 1)
    half = Fraction(1, 2)
    f0 = ShiftWord(((0, -1), (2, 1)),
                   ((half, 0, ((0, 1),)), (-half, 0, ((0, -1),))), 1)
    f1 = ShiftWord((), ((1, 1, ((1, 1),)),), 0)     # q^(a_1 + 1)
    entries = {f_(0): f0, f_(1): f1}
    _assert_coords_match_oracle(
        d, ActionTable(d.nslots, entries.get, entries.keys))


def _graph_or_error(build):
    try:
        return build()
    except ArithmeticError as exc:
        return str(exc)


@pytest.mark.parametrize("kind,r", ORACLE_FAMILIES)
def test_crystal_graph_matches_per_node_oracle(monkeypatch, kind, r):
    # Every xi variant on the phi-derived table (a crystal every time) and
    # on the closed forms, which ignore xi, so most variants raise: the
    # string walks must raise the per-node error of the first defective
    # node and color.
    import qweyl.crystal as crystal_mod
    for d in xi_variants(kind, r):
        for build in (oscillator_action, closed_form_table):
            monkeypatch.setattr(crystal_mod, "oscillator_action", build)
            for s in range(6):
                got = _graph_or_error(lambda: crystal_graph(d, s).edges)
                want = _graph_or_error(
                    lambda: per_node_crystal_edges(d, s, build(d)))
                assert got == want, (d.xi, build.__name__, s)


def test_mutated_graph_error_is_pinned(monkeypatch):
    # Recorded before crystal_graph walked strings: the first defect in
    # node-then-color order names the node's image.
    import qweyl.crystal as crystal_mod
    d = build_diagram("I", 1).with_xi(1, 3)
    monkeypatch.setattr(crystal_mod, "oscillator_action", closed_form_table)
    crystal_graph(d, 0)
    for s, target in ((1, "(0, 0, 1)"), (2, "(1, 0, 1)"), (3, "(2, 0, 1)"),
                      (4, "(3, 0, 1)")):
        with pytest.raises(ArithmeticError) as info:
            crystal_graph(d, s)
        assert str(info.value) == (
            "Kashiwara image is not a basis vector with coefficient 1: "
            "{%s: ScalarQ((q^2)/(q^4 + q^2 + 1))}" % target)


BROKEN_F0 = pytest.mark.parametrize("terms,delta", [
    # q [a_0]: no step is 1
    (((1, 1, ((0, 1),)), (-1, 1, ((0, -1),))), ((0, -1), (1, 1))),
    # [a_0] without the move into slot 1: the target is off
    (((1, 0, ((0, 1),)), (-1, 0, ((0, -1),))), ((0, -1),)),
    # (q^2 - q^(2 - 2a_0))/(q - q^-1): [a_0]'s run only at a_0 = 2, so at
    # s = 3 the walk meets it after a defective step
    (((1, 2, ()), (-1, 2, ((0, -2),))), ((0, -1), (1, 1))),
])


@BROKEN_F0
def test_factored_walk_matches_plain_entries_on_broken_tables(monkeypatch,
                                                              terms, delta):
    # The same broken f_0 read one factored step at a time by the walk, and
    # through its call by the per-node oracle (``reference_apply``): the
    # graph error and the audit agree.
    import qweyl.crystal as crystal_mod
    d = build_diagram("I", 0)
    table = overridden(oscillator_action(d),
                       {f_(0): ShiftWord(delta, terms, 1)})
    monkeypatch.setattr(crystal_mod, "oscillator_action", lambda _: table)
    for s in range(5):
        assert _graph_or_error(lambda: crystal_graph(d, s).edges) \
            == _graph_or_error(lambda: per_node_crystal_edges(d, s, table)), s
        report = crystal_axioms_check(d, s)
        assert report == per_node_axioms_check(d, s, table), s
        assert report["all_ok"] == (s == 0), s


def _count_fallbacks(monkeypatch):
    """Record every image ``crystal_graph`` reads by its coordinates, the
    path that raises a defect (``crystal._target``)."""
    import qweyl.crystal as crystal_mod
    calls = []
    target = crystal_mod._target

    def counting(coords):
        calls.append(coords)
        return target(coords)

    monkeypatch.setattr(crystal_mod, "_target", counting)
    return calls


@pytest.mark.parametrize("kind,r", ORACLE_FAMILIES)
def test_crystal_graph_takes_every_crystal_edge_straight(monkeypatch, kind, r):
    # On a crystal every step keeps the walk's starting 1 at t = e, so no
    # edge is read by its coordinates.  A graph that read them all would
    # print the same edges; only this count tells the two apart.
    calls = _count_fallbacks(monkeypatch)
    for d in xi_variants(kind, r):
        for s in range(8):
            crystal_graph(d, s)
    assert calls == []


@BROKEN_F0
def test_crystal_graph_reads_broken_steps_by_their_coordinates(monkeypatch,
                                                               terms, delta):
    # Every broken f_0 step at s >= 1 is a ratio or an off-string target,
    # so the graph reads it by its coordinates, which raise its defect.
    import qweyl.crystal as crystal_mod
    d = build_diagram("I", 0)
    table = overridden(oscillator_action(d),
                       {f_(0): ShiftWord(delta, terms, 1)})
    monkeypatch.setattr(crystal_mod, "oscillator_action", lambda _: table)
    calls = _count_fallbacks(monkeypatch)
    for s in range(1, 5):
        del calls[:]
        assert "coefficient 1: {" in _graph_or_error(
            lambda: crystal_graph(d, s))
        assert calls, s


def _count_letters(monkeypatch):
    """Record every letter evaluation: each one is an ``ActionTable.act``."""
    calls = []
    act = ActionTable.act

    def counting_act(self, sym, mon):
        calls.append(sym)
        return act(self, sym, mon)

    monkeypatch.setattr(ActionTable, "act", counting_act)
    return calls


@pytest.mark.parametrize("kind,r", ORACLE_FAMILIES)
def test_crystal_graph_applies_one_letter_per_node_and_color(monkeypatch,
                                                              kind, r):
    calls = _count_letters(monkeypatch)
    d = build_diagram(kind, r)
    for s in range(8):
        del calls[:]
        crystal_graph(d, s)
        assert len(calls) == (d.r + 1) * comb(s + d.r + 1, d.r + 1), s
    if (kind, r) == ("I", 0):
        del calls[:]
        crystal_graph(d, 9)
        assert len(calls) == 10     # f_i^n from scratch: 1 + 2 + ... + 10 = 55


@pytest.mark.parametrize("kind,r", ORACLE_FAMILIES)
def test_axioms_check_applies_one_letter_per_node_and_color(monkeypatch,
                                                             kind, r):
    # Both images of a node come from the walks crystal_graph takes: the
    # e image is the step before it, the f image the step after it.
    calls = _count_letters(monkeypatch)
    d = build_diagram(kind, r)
    for s in range(8):
        del calls[:]
        assert crystal_axioms_check(d, s)["all_ok"]
        assert len(calls) == (d.r + 1) * comb(s + d.r + 1, d.r + 1), s
    if (kind, r) == ("I", 0):
        del calls[:]
        assert crystal_axioms_check(d, 30)["all_ok"]
        assert len(calls) == 31     # two walks per node from scratch: 931


def _laurent_factor_sizes(monkeypatch):
    """Record the larger factor's size in every Laurent product."""
    sizes = []
    mul = LaurentPoly.__mul__

    def measuring(self, other):
        sizes.append(max(len(p._c) for p in (self, other)
                         if isinstance(p, LaurentPoly)))
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", measuring)
    monkeypatch.setattr(LaurentPoly, "__rmul__", measuring)
    return sizes


WALK_CASES = [("I", 0, 60), ("A1AFF", None, 30), ("III", 1, 12)]


@pytest.mark.parametrize("kind,r,s", WALK_CASES)
def test_string_walk_multiplies_by_one_q_integer_at_a_time(monkeypatch,
                                                            kind, r, s):
    # On a table whose every f step is -1 times the crystal's, no step's run
    # is [xi_i e_i]'s: each multiplies the coordinate by its run and divides
    # it by its own [xi_i e_i], so every other coordinate is a defect, and
    # no Laurent factor in the graph or the audit has more than max|xi| * s
    # terms.
    import qweyl.crystal as crystal_mod
    monkeypatch.setattr(crystal_mod, "oscillator_action", lambda diagram:
                        scaled_steps(oscillator_action(diagram), ((-1, 0),)))
    sizes = _laurent_factor_sizes(monkeypatch)
    d = build_diagram(kind, r)
    assert "coefficient 1: {" in _graph_or_error(lambda: crystal_graph(d, s))
    assert not crystal_axioms_check(d, s)["closure_ok"]
    assert sizes and max(sizes) <= max(abs(x) for x in d.xi) * s


def _assert_walk_is_factored(monkeypatch, d, s):
    """Every f_i step of the crystal of ``d`` at ``s`` is a q-integer run
    equal to [xi_i e_i], sign included: neither the graph nor the audit
    multiplies a Laurent polynomial or builds a q-integer."""
    import qweyl.crystal as crystal_mod
    sizes = _laurent_factor_sizes(monkeypatch)
    built = []

    def counting(n):
        built.append(n)
        return q_integer(n)

    monkeypatch.setattr(crystal_mod, "q_integer", counting)
    crystal_graph(d, s)
    assert crystal_axioms_check(d, s)["all_ok"]
    assert (sizes, built) == ([], [])


@pytest.mark.parametrize("kind,r,s", WALK_CASES)
def test_string_walk_is_factored_on_the_oscillator_table(monkeypatch,
                                                         kind, r, s):
    _assert_walk_is_factored(monkeypatch, build_diagram(kind, r), s)


@pytest.mark.parametrize("kind,r", [("I", 1), ("III", 1), ("A1AFF", None)])
@pytest.mark.parametrize("xi", [-1, -2])
def test_string_walk_is_factored_at_negative_xi(monkeypatch, kind, r, xi):
    # At xi_1 < 0 each f_1 step, out of slot 1, is -[|xi_1| e_1]: a
    # comparison that dropped the sign would send every such step to the
    # exact ratio path, with the same graph but a q-integer built per step.
    # A1AFF has colour 0 only, so there slot 1 is only ever a target.
    _assert_walk_is_factored(monkeypatch,
                             build_diagram(kind, r).with_xi(1, xi), 4)


@pytest.mark.parametrize("kind,r", ORACLE_FAMILIES)
def test_axioms_check_matches_per_node_oracle(monkeypatch, kind, r):
    # As for the graph: on the closed forms most xi variants fail, and the
    # audit must report every failure of the per-node audit, in its order.
    import qweyl.crystal as crystal_mod
    for d in xi_variants(kind, r):
        for build in (oscillator_action, closed_form_table):
            monkeypatch.setattr(crystal_mod, "oscillator_action", build)
            for s in range(6):
                assert crystal_axioms_check(d, s) \
                    == per_node_axioms_check(d, s, build(d)), \
                    (d.xi, build.__name__, s)


def test_one_oscillator_table_per_command(monkeypatch):
    import qweyl.crystal as crystal_mod
    builds = []

    def counting(diagram):
        builds.append(diagram)
        return oscillator_action(diagram)

    monkeypatch.setattr(crystal_mod, "oscillator_action", counting)
    d = build_diagram("I", 1)
    crystal_graph(d, 3)
    crystal_axioms_check(d, 3)
    assert len(builds) == 2


def test_mutated_axioms_report_is_pinned(monkeypatch):
    # Recorded before the Kashiwara path moved to Laurent polynomials, on
    # the closed forms, which do not follow the mutated xi.
    import qweyl.crystal as crystal_mod
    d = build_diagram("I", 1).with_xi(1, 3)
    monkeypatch.setattr(crystal_mod, "oscillator_action", closed_form_table)
    assert crystal_axioms_check(d, 2) == {
        "diagram": "I:r=1", "s": 2, "closure_ok": False, "b5_ok": True,
        "weight_ok": True, "rule_agreement_ok": True, "rank_ok": True,
        "failures": [
            ("closure_ok", ("f", 1, (1, 1, 0), "(q^2)/(q^4 + q^2 + 1)")),
            ("closure_ok", ("f", 1, (0, 2, 0), "(q^4)/(q^8 + q^4 + 1)")),
            ("closure_ok", ("f", 1, (0, 1, 1),
                            "(q^6)/(q^12 + q^10 + 2*q^8 + q^6 + 2*q^4 "
                            "+ q^2 + 1)")),
            ("closure_ok", ("e", 1, (0, 0, 2), "(q^4)/(q^8 + q^4 + 1)"))],
        "all_ok": False}
    monkeypatch.undo()
    assert crystal_axioms_check(d, 2)["all_ok"]


# --- exports --------------------------------------------------------------------

def test_dot_export_counts_and_determinism():
    g = crystal_graph(build_diagram("I", 1), 3)
    dot = export(g, "dot")
    assert dot == export(crystal_graph(build_diagram("I", 1), 3), "dot")
    node_lines = [ln for ln in dot.splitlines() if ln.endswith('";')]
    edge_lines = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(node_lines) == 10
    assert len(edge_lines) == 12
    assert '"300" -> "210" [color=red, label="f~0"];' in dot
    assert 'color=blue, label="f~1"' in dot


def test_json_round_trip():
    g = crystal_graph(build_diagram("I", 1), 3)
    assert parse_json(export(g, "json")) == g
    g0 = crystal_graph(build_diagram("I", 0), 0)
    assert parse_json(export(g0, "json")) == g0


def test_json_schema_fields():
    import json as jsonlib
    g = crystal_graph(build_diagram("A1AFF"), 1)
    obj = jsonlib.loads(export(g, "json"))
    assert obj["diagram"] == "A1AFF"
    assert obj["s"] == 1
    assert obj["nodes"] == [[1, 0], [0, 1]]
    assert obj["edges"] == [{"i": 0, "from": [1, 0], "to": [0, 1]}]


def test_tikz_export_smoke():
    g = crystal_graph(build_diagram("I", 1), 3)
    tikz = export(g, "tikz")
    assert tikz.startswith("\\begin{tikzpicture}")
    assert "(n300)" in tikz and "red" in tikz and "blue" in tikz
    assert tikz.count("\\node") == 10
    assert tikz.count("\\draw") == 12


def test_tikz_node_ids_carry_no_comma_above_nine():
    # Inside \draw, TikZ reads (n12,0) as a coordinate, not a node: an id
    # separates exponents above 9 by an x, and its label keeps the comma.
    import re
    tikz = export(crystal_graph(build_diagram("I", 0), 12), "tikz")
    ids = re.findall(r"\(n([^)]*)\)", tikz)
    assert len(ids) == 13 + 2 * 12
    assert not [i for i in ids if "," in i]
    assert "\\node at (0,12) (n12x0) {$(12,0)$};" in tikz
    assert "\\node at (0,9) (n93) {$(93)$};" in tikz
    assert "\\draw[thick,->,red] (n12x0) -- (n11x1);" in tikz
    assert "\\draw[thick,->,red] (n10x2) -- (n93);" in tikz


def test_empty_graph_exports_are_valid_documents():
    g = crystal_graph(build_diagram("I", 0), 0)
    assert export(g, "dot").startswith("digraph crystal {")
    assert "edges" in export(g, "json")
    assert export(g, "tikz").endswith("\\end{tikzpicture}\n")


def test_unknown_format_rejected():
    g = crystal_graph(build_diagram("I", 0), 0)
    with pytest.raises(ValueError):
        export(g, "svg")
