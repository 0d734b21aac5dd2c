"""Command-line surface: relation verification, operator action, crystal
graph export and witness words.

Exit codes: 0 on success, 1 when a verification suite reports residuals,
2 on usage errors.  All outputs are byte-deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from contextlib import nullcontext
from math import prod

from . import crystal as crystal_mod
from . import iqg, modweyl, weyl
from .opcalc import (OperatorExpr, QPolynomial, apply, image_table,
                     poly_from_text, poly_to_text, report_failures,
                     verify_relations, walk_word)
from .qscalar import LaurentPoly, ScalarQ, q_product
from .satake import SatakeDiagram, integer, parse_spec

SUITES = ("weyl", "uqsl", "modweyl", "iqg", "all")

MUTATIONS = ("varsigma1", "xi-fold")


def _apply_mutation(diagram: SatakeDiagram, mutation: str,
                    suite: str) -> SatakeDiagram:
    if suite not in ("iqg", "all"):
        # weyl and uqsl read only r; the modified algebra's relations and
        # its iota image hold at every xi.
        raise ValueError("--mutate %s is inert for suite %s: only the iqg "
                         "relations read varsigma and xi" % (mutation, suite))
    if mutation == "varsigma1":
        flipped = ScalarQ(LaurentPoly({-3: -1}))
        mutated = diagram.with_varsigma(diagram.nodes[1], flipped)
        if (iqg.presentation(mutated).varsigma
                == iqg.presentation(diagram).varsigma):
            raise ValueError("--mutate varsigma1 is inert for %s: node %d "
                             "carries no generator of the presentation"
                             % (diagram.spec_string, diagram.nodes[1]))
        return mutated
    if mutation == "xi-fold":
        slot = diagram.nslots - 1
        return diagram.with_xi(slot, 1 if diagram.xi[slot] != 1 else 2)
    raise ValueError("unknown mutation %r" % mutation)


def run_suite(diagram: SatakeDiagram, suite: str, max_degree: int):
    """Run one verification suite; returns a list of report entries.

    Once iota's consistency check passes, iota's image table and the
    modweyl table act by equal operators, which give the same verdict and
    residual: each ``@iota`` entry is then a copy of the direct one, and
    only a failing check compiles the ``@iota`` relations.
    """
    report = []
    classical = weyl.weyl_table(diagram.nslots)
    if suite in ("weyl", "all"):
        report += verify_relations(weyl.weyl_relation_instances(diagram.r),
                                   classical, max_degree)
    if suite in ("uqsl", "all"):
        report += verify_relations(
            weyl.uqsl_relation_instances(diagram.r),
            image_table(weyl.chi_map(diagram.r), classical), max_degree)
    if suite in ("modweyl", "all"):
        instances = modweyl.modweyl_relation_instances(diagram)
        direct = verify_relations(instances, modweyl.modweyl_table(diagram),
                                  max_degree)
        consistency = modweyl.iota_consistency(diagram, max_degree)
        if consistency:
            # Not modweyl.iota_table, whose entries bench/tracer.py swaps by
            # assigning ``table.entries``, which an ActionTable no longer
            # has: this table stays inline until that swap is dropped.
            iota_report = verify_relations(
                instances, image_table(modweyl.iota_map(diagram), classical),
                max_degree)
        else:
            iota_report = [{k: list(v) if isinstance(v, list) else v
                            for k, v in entry.items()} for entry in direct]
        for entry in iota_report:
            entry["relation_id"] += "@iota"
        report += direct + iota_report + (consistency or [
            {"relation_id": "modweyl.iota_consistency",
             "instance_indices": [], "ok": True}])
    if suite in ("iqg", "all"):
        report += iqg.verify_homomorphism(diagram, max_degree)
    return report


def _cmd_verify(args) -> int:
    diagram = parse_spec(args.diagram)
    if args.max_degree < 0:
        raise ValueError("--max-degree must be >= 0")
    if args.mutate:
        diagram = _apply_mutation(diagram, args.mutate, args.suite)
    # An unwritable report path fails here, before any work is done.
    with open(args.json, "w") if args.json else nullcontext() as handle:
        report = run_suite(diagram, args.suite, args.max_degree)
        for entry in report:
            idx = ",".join(str(i) for i in entry["instance_indices"])
            print("RELATION %s[%s] %s" % (entry["relation_id"], idx,
                                          "OK" if entry["ok"] else "FAIL"))
        failures = report_failures(report)
        print("SUITE %s %s: %d relations, %d failures"
              % (args.suite, diagram.spec_string, len(report), len(failures)))
        if handle is not None:
            payload = {"diagram": diagram.spec_string, "suite": args.suite,
                       "max_degree": args.max_degree, "mutation": args.mutate,
                       "ok": not failures, "relations": report}
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return 1 if failures else 0


def _cmd_act(args) -> int:
    """Apply a word of space-separated symbol labels, such as ``e1 k1^-1``,
    each a label of the diagram's table as it is."""
    diagram = parse_spec(args.diagram)
    table = iqg.oscillator_action(diagram)
    labels = {sym.label: sym for sym in table.symbols}
    word = []
    for token in args.word.split():
        if token not in labels:
            raise ValueError("unknown token %r for diagram %s"
                             % (token, diagram.spec_string))
        word.append(labels[token])
    poly = poly_from_text(args.poly, diagram.nslots)
    result = apply(OperatorExpr.word(word), poly, table)
    print(poly_to_text(result))
    return 0


def _cmd_crystal(args) -> int:
    diagram = parse_spec(args.diagram)
    graph = crystal_mod.crystal_graph(diagram, args.s)
    sys.stdout.write(crystal_mod.export(graph, args.format))
    return 0


def _cmd_witness(args) -> int:
    """Print a witness word and its coefficient, and check them.

    The word's one path from the start monomial, v*q^k*[n_1]...[n_t] with
    every n_i >= 2 (``walk_word``), is compared with the prediction in that
    form, and the coefficient is expanded once, to print it.  The form is exact:
    [n] = q^(1-n) prod_{d | n, d > 1} Phi_d(q^2), and the Phi_d(q^2) for
    d > 1 are squarefree and pairwise coprime (Phi_d(q^2) is Phi_2d(q) for
    even d and Phi_d(q)*Phi_2d(q) for odd d).  So a nonzero v*q^k*prod [n_i]
    determines v, k and every e_d = #{i : d | n_i}, hence, by Moebius
    inversion, the multiset {n_i}: two such products are equal iff their
    forms are.  A zero predicted factor predicts no path.  A mismatch
    expands the path, to print it.
    """
    diagram = parse_spec(args.diagram)
    try:
        mon = tuple(integer(part) for part in args.monomial.split(","))
    except ValueError:
        raise ValueError("bad --monomial %r: expected comma-separated integers"
                         % args.monomial) from None
    up = args.direction == "up"
    pres = iqg.presentation(diagram)
    word, steps = iqg.witness_steps(diagram, mon, up, pres)
    top = tuple([sum(mon)] + [0] * (diagram.nslots - 1))
    start, target = (mon, top) if up else (top, mon)
    predicted = ScalarQ(q_product(steps))
    print("word: %s" % (" ".join(sym.label for sym in word) or "(empty)"))
    print("coefficient: %s" % predicted)
    path = walk_word(word, start, iqg.oscillator_action(diagram, pres))
    want = got = None
    if all(steps):
        want = (target, prod([1 if n > 0 else -1 for n in steps]), 0,
                sorted([abs(n) for n in steps if abs(n) > 1]))
    if path is not None:
        end, k, v, ns = path
        got = end, v, k, sorted(ns)
    if got != want:
        result = QPolynomial(diagram.nslots)
        if got is not None:
            result = QPolynomial.monomial(end, ScalarQ(
                q_product(ns, LaurentPoly({k: v}))))
        print("MISMATCH: got %s" % poly_to_text(result))
        return 1
    print("VERIFIED")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; its ``commands`` maps
    each command name to that command's parser."""
    parser = argparse.ArgumentParser(
        prog="qweyl",
        description="Exact q-Weyl algebra, coideal relation verification and "
                    "crystal graph toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run relation verification suites")
    p.add_argument("--diagram", required=True, help="e.g. I:r=1 or A1AFF")
    p.add_argument("--max-degree", type=integer, required=True)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--json", help="write a machine-readable report here")
    p.add_argument("--mutate", choices=MUTATIONS,
                   help="deliberately corrupt one parameter (sensitivity check)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("act", help="apply an operator word to a polynomial")
    p.add_argument("--diagram", required=True)
    p.add_argument("--word", required=True,
                   help="space-separated tokens, e.g. 'e1' or 'x0 d1'")
    p.add_argument("--poly", required=True, help="e.g. 'X2' or '(q)*X0^2*X1'")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("crystal", help="emit a crystal graph")
    p.add_argument("--diagram", required=True)
    p.add_argument("--s", type=integer, required=True)
    p.add_argument("--format", choices=("dot", "json", "tikz"), default="dot")
    p.set_defaults(func=_cmd_crystal)

    p = sub.add_parser("witness", help="raising/lowering witness words")
    p.add_argument("--diagram", required=True)
    p.add_argument("--monomial", required=True, help="comma-separated, e.g. 1,2")
    p.add_argument("--direction", choices=("up", "down"), default="up")
    p.set_defaults(func=_cmd_witness)
    parser.commands = sub.choices
    return parser


def main(argv=None) -> int:
    """Run one command line.  It goes straight to its command's parser; one
    that names no command, or leaves an argument over, goes through the full
    parser, so every usage error and help text is the full parser's."""
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = parser.commands.get(argv[0]) if argv else None
    args, rest = command.parse_known_args(argv[1:]) if command else (None, ())
    if command is None or rest:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
