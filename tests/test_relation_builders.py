"""Relation builders against their reference copies, and the two-sided
compiler against the compiler of one difference.

``closed_forms`` keeps the builders as they were before they built their
coefficients once per call; the lists must agree entry by entry, in order.
The report of ``verify_relations``, which compiles lhs and rhs into one
form, must be the report read off ``reference_compile_relation(lhs - rhs)``
on relations broken in every group, including the groups that no
``--mutate`` reaches.
"""

import pytest

from closed_forms import (reference_algebra_relations,
                          reference_compile_relation,
                          reference_relation_instances,
                          reference_uqsl_relation_instances, xi_variants)
from qweyl.cli import MUTATIONS, _apply_mutation
from qweyl.iqg import phi, relation_instances
from qweyl.modweyl import iota_map, modweyl_relation_instances, modweyl_table
from qweyl.opcalc import (OperatorExpr, _residuals, image_table,
                          monomials_of_degree, verify_relations)
from qweyl.qscalar import ScalarQ
from qweyl.satake import build_diagram
from qweyl.weyl import (chi_map, uqsl_relation_instances,
                        weyl_relation_instances, weyl_table)

ALL_DIAGRAMS = [("I", 0), ("I", 1), ("I", 2), ("II", 0), ("II", 1), ("II", 2),
                ("III", 1), ("III", 2), ("A1AFF", None), ("IV", 0), ("IV", 1),
                ("IV", 2), ("V", 0), ("V", 1), ("V", 2), ("VI", 1), ("VI", 2)]
LARGER = [("I", 5), ("V", 4)]


def _entries(instances):
    """Each instance as (group id, indices, lhs terms, rhs terms), the terms
    as lists, so that their order counts too."""
    return [(group, list(indices), list(lhs.terms.items()),
             list(rhs.terms.items()))
            for group, indices, lhs, rhs in instances]


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
        assert _entries(relation_instances(variant)) == _entries(
            reference_relation_instances(variant)), variant.spec_string
        assert _entries(modweyl_relation_instances(variant)) == _entries(
            reference_algebra_relations(variant.xi, "dxm", "modweyl"))


def _suites(d):
    """(table, instances) for every suite, each table as ``verify`` builds it."""
    classical, modified = weyl_table(d.nslots), modweyl_table(d)
    return [(classical, weyl_relation_instances(d.r)),
            (image_table(chi_map(d.r), classical), uqsl_relation_instances(d.r)),
            (modified, modweyl_relation_instances(d)),
            (image_table(iota_map(d), classical), modweyl_relation_instances(d)),
            (image_table(phi(d), modified), relation_instances(d))]


def _broken(instances):
    """The first instance of every group, broken: a nonzero rhs times q, or
    q times the first lhs word as the rhs of a zero one."""
    q, seen, out = ScalarQ.q_power(1), set(), []
    for group, indices, lhs, rhs in instances:
        if group in seen:
            continue
        seen.add(group)
        if rhs.is_zero:
            rhs = OperatorExpr.word(next(iter(lhs.terms)), q)
        else:
            rhs = rhs.scale(q)
        out.append((group, indices, lhs, rhs))
    return out


def _reference_report(instances, table, max_s):
    """The verify report of each instance, read off the reference form of
    lhs - rhs: the verdict and the first residual up to ``max_s``."""
    n, report = table.nvars, []
    for group, indices, lhs, rhs in instances:
        form = reference_compile_relation(lhs - rhs, table)
        entry = {"relation_id": group, "instance_indices": list(indices),
                 "ok": not form.components}
        if form.components:
            upward = (mon for s in range(max_s + 1)
                      for mon in monomials_of_degree(n, s))
            first = next(_residuals(form, n, upward), None)
            entry["residual_monomial"] = entry["residual_coefficient"] = None
            if first is not None:
                mon, poly = first
                entry["residual_monomial"] = list(mon)
                entry["residual_coefficient"] = str(poly.terms[min(poly.terms)])
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
