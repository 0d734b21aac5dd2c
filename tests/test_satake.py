"""Satake diagram data: involutions, pairings, labels, xi and varsigma."""

import pytest

from closed_forms import reference_build_diagram
from qweyl.qscalar import ScalarQ
from qweyl.satake import _MIN_R, KINDS, SatakeDiagram, build_diagram, parse_spec

ALL_SMALL = [("I", 0), ("I", 1), ("I", 2), ("I", 3),
             ("II", 0), ("II", 1), ("II", 2), ("II", 3),
             ("III", 1), ("III", 2), ("III", 3),
             ("A1AFF", None),
             ("IV", 0), ("IV", 1), ("IV", 2), ("IV", 3),
             ("V", 0), ("V", 1), ("V", 2), ("V", 3),
             ("VI", 1), ("VI", 2), ("VI", 3)]


@pytest.mark.parametrize("kind,r", ALL_SMALL)
def test_structural_invariants(kind, r):
    d = build_diagram(kind, r)
    for i in d.nodes:
        assert d.tau[d.tau[i]] == i
        assert d.pairing(i, i) == 2
        for j in d.nodes:
            assert d.pairing(i, j) == d.pairing(j, i)
            assert d.pairing(d.tau[i], d.tau[j]) == d.pairing(i, j)
    # orbit labels partition the nodes into exactly r+2 cells of size 1 or 2
    labels = {}
    for i in d.nodes:
        labels.setdefault(d.orbit_label[i], []).append(i)
    assert len(labels) == d.nslots
    assert all(len(cell) in (1, 2) for cell in labels.values())
    # xi = 1 - i.tau(i), except the documented A1AFF override
    if kind != "A1AFF":
        for i in d.nodes:
            assert d.xi[d.orbit_label[i]] == 1 - d.pairing(i, d.tau[i])
    # varsigma is orbit-constant whenever the pair is orthogonal
    for i in d.nodes:
        if d.pairing(i, d.tau[i]) == 0:
            assert d.varsigma[i] == d.varsigma[d.tau[i]]


@pytest.mark.parametrize("kind,r,expected", [
    ("I", 2, (1, 1, 1, 2)),
    ("II", 2, (1, 1, 1, -1)),
    ("III", 2, (2, 1, 1, 2)),
    ("A1AFF", None, (1, 3)),
    ("IV", 2, (2, 1, 1, -1)),
    ("V", 2, (-1, 1, 1, 2)),
    ("VI", 2, (-1, 1, 1, -1)),
])
def test_xi_values(kind, r, expected):
    assert build_diagram(kind, r).xi == expected


def test_pairing_examples():
    d3 = build_diagram("III", 1)
    assert d3.pairing(0, 5) == -1  # the wrap-around bond
    assert d3.pairing(0, 0) == 2
    assert d3.pairing(0, 2) == 0
    a1 = build_diagram("A1AFF")
    assert a1.pairing(0, 1) == -2
    with pytest.raises(ValueError):
        a1.pairing(0, 7)


def test_varsigma_values():
    q = ScalarQ.q_power
    d2 = build_diagram("II", 1)
    assert d2.varsigma[2] == q(-1)  # the fixed node
    assert d2.varsigma[0] == ScalarQ.one()  # orthogonal pair
    assert d2.varsigma[4] == ScalarQ.one()
    d1 = build_diagram("I", 1)
    assert d1.varsigma[2] == q(1)  # folded-pair representative
    assert d1.varsigma[3] == ScalarQ.one()  # its partner
    a1 = build_diagram("A1AFF")
    assert a1.varsigma[0] == q(1)
    assert a1.varsigma[1] == q(1)


def test_node_sets_per_kind():
    assert build_diagram("I", 1).nodes == tuple(range(6))
    assert build_diagram("II", 1).nodes == tuple(range(5))
    assert build_diagram("III", 1).nodes == tuple(range(6))
    assert build_diagram("IV", 0).nodes == tuple(range(3))
    assert build_diagram("V", 0).nodes == tuple(range(3))
    assert build_diagram("VI", 1).nodes == tuple(range(4))
    assert build_diagram("A1AFF").nodes == (0, 1)


def test_tau_shapes():
    d = build_diagram("V", 1)
    assert d.tau[0] == 0 and d.tau[1] == 4 and d.tau[2] == 3
    d = build_diagram("VI", 2)
    assert d.tau[0] == 0 and d.tau[3] == 3 and d.tau[1] == 5


def test_invalid_kind_and_rank():
    with pytest.raises(ValueError):
        build_diagram("VII", 1)
    with pytest.raises(ValueError):
        build_diagram("I", -1)
    with pytest.raises(ValueError):
        build_diagram("III", 0)
    with pytest.raises(ValueError):
        build_diagram("VI", 0)
    with pytest.raises(ValueError):
        build_diagram("A1AFF", 1)


def test_parse_spec():
    for text in ("I:r=2", "II:r=0", "III:r=1", "A1AFF", "IV:r=1", "V:r=0", "VI:r=1"):
        d = parse_spec(text)
        assert d.spec_string == text
    with pytest.raises(ValueError):
        parse_spec("I")
    with pytest.raises(ValueError):
        parse_spec("I:r=x")
    with pytest.raises(ValueError, match="needs r >= 0"):
        parse_spec("I:r=-1")
    # ASCII digits and an optional '-' only: no '_', '+', space or other digit
    for text in ("I:r=1_0", "I:r=+1", "I:r=\u0661", "I:r= 1", "I:r=1 0",
                 "I:r=", "I:r=-"):
        with pytest.raises(ValueError, match="bad rank in diagram spec"):
            parse_spec(text)


def test_mutation_helpers():
    d = build_diagram("I", 1)
    assert d.with_xi(2, 1).xi == (1, 1, 1)
    flipped = d.with_varsigma(2, ScalarQ.q_power(-3))
    assert flipped.varsigma[2] == ScalarQ.q_power(-3)
    assert d.varsigma[2] == ScalarQ.q_power(1)


def test_equality_reads_every_field_and_agrees_with_hash():
    d = build_diagram("A1AFF")
    again = build_diagram("A1AFF")
    assert d == again and hash(d) == hash(again)
    assert d.with_varsigma(1, -ScalarQ.q_power(-3)) != d
    assert d.with_xi(0, 2) != d
    assert d.with_varsigma(1, d.varsigma[1]) == d
    e = build_diagram("III", 2)
    assert e.with_varsigma(1, -ScalarQ.q_power(-3)) != e
    assert hash(e.with_xi(1, 2).with_xi(1, e.xi[1])) == hash(e)


def test_a_diagram_is_immutable_and_compares_by_value():
    # No field can be assigned; != agrees with ==, and the hash reads the
    # fields that hold no dict, so copies that differ in varsigma alone
    # share it.
    d = build_diagram("II", 1)
    for name in SatakeDiagram._fields:
        with pytest.raises(AttributeError):
            setattr(d, name, getattr(d, name))
    with pytest.raises(AttributeError):
        d.extra = 1
    other = d.with_varsigma(0, ScalarQ.q_power(2))
    assert (other != d) is True and (other == d) is False
    assert (build_diagram("II", 1) != d) is False
    assert hash(other) == hash(d) == hash((d.kind, d.r, d.nodes, d.edges,
                                           d.xi))
    assert d.with_xi(0, 3).xi == (3,) + d.xi[1:] and d.xi[0] != 3


def test_all_kinds_listed():
    assert set(KINDS) == {"I", "II", "III", "A1AFF", "IV", "V", "VI"}


@pytest.mark.parametrize("kind,r", [(kind, r) for kind in _MIN_R
                                    for r in range(_MIN_R[kind], 9)]
                         + [("A1AFF", None)])
def test_one_shape_rule_matches_the_per_kind_branches(kind, r):
    got, want = build_diagram(kind, r), reference_build_diagram(kind, r)
    for name in SatakeDiagram._fields:
        assert getattr(got, name) == getattr(want, name), name
