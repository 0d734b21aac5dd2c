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
from .opcalc import (MAX_EXPONENT, GeneratorSymbol, OperatorExpr, apply,
                     image_table, monomial_text, poly_from_text, poly_to_text,
                     q_span, report_failures, verify_relations, walk_word)
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
        # A fresh object: it is inert iff the presentation drops it.
        flipped = ScalarQ(LaurentPoly({-3: -1}))
        mutated = diagram.with_varsigma(diagram.nodes[1], flipped)
        if not any(v is flipped
                   for v in iqg.presentation(mutated).varsigma.values()):
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
        modified = modweyl.modweyl_table(diagram)
        direct = verify_relations(instances, modified, max_degree)
        consistency = modweyl.iota_consistency(diagram, max_degree,
                                               classical, modified)
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
        failures = report_failures(report)
        # The text report, a line per relation and the summary, in one write.
        lines = ["RELATION %s[%s] %s\n" % (
            entry["relation_id"],
            ",".join(map(str, entry["instance_indices"])),
            "OK" if entry["ok"] else "FAIL") for entry in report]
        lines.append("SUITE %s %s: %d relations, %d failures\n" % (
            args.suite, diagram.spec_string, len(report), len(failures)))
        sys.stdout.write("".join(lines))
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
    labels, word = {}, []
    for token in args.word.split():
        sym = labels.get(token)
        if sym is None:
            sym = GeneratorSymbol.from_label(token)
            if sym is None or table.get(sym) is None:
                raise ValueError("unknown token %r for diagram %s"
                                 % (token, diagram.spec_string))
            labels[token] = sym
        word.append(sym)
    poly = poly_from_text(args.poly, diagram.nslots)
    result = apply(OperatorExpr.word(word), poly, table)
    print(poly_to_text(result))
    return 0


def _cmd_crystal(args) -> int:
    diagram = parse_spec(args.diagram)
    graph = crystal_mod.crystal_graph(diagram, args.s)
    sys.stdout.write(crystal_mod.export(graph, args.format))
    return 0


def _coefficient_text(v, k: int, ns) -> str:
    """v*q^k times [n] for each n in ns, as text.

    Expanded when its numerator runs over at most ``MAX_EXPONENT`` powers
    of q (``q_span``, the rule ``apply`` uses), or when a factor is [0].
    Otherwise factored, in O(len(ns)) bytes: the sign and any other scalar,
    then ``[n_1]*...*[n_t]`` for each |n_i| >= 2, with no expansion.
    """
    if not all(ns) or q_span(k, k, ns) <= MAX_EXPONENT:
        return str(q_product(ns, LaurentPoly({k: v})))
    head = str(LaurentPoly({k: v * prod([-1 for n in ns if n < 0])}))
    head = {"1": "", "-1": "-"}.get(head, head + "*")
    return head + "*".join(["[%d]" % abs(n) for n in ns if abs(n) > 1])


def _cmd_witness(args) -> int:
    """Print a witness word and its coefficient, and check them.

    The word's one path from the start monomial, v*q^k*[n_1]...[n_t] with
    every n_i >= 2 (``walk_word``), is compared with the prediction in that
    form, and the coefficient is printed by ``_coefficient_text``: expanded
    once, or factored above its bound.  The form is exact:
    [n] = q^(1-n) prod_{d | n, d > 1} Phi_d(q^2), and the Phi_d(q^2) for
    d > 1 are squarefree and pairwise coprime (Phi_d(q^2) is Phi_2d(q) for
    even d and Phi_d(q)*Phi_2d(q) for odd d).  So a nonzero v*q^k*prod [n_i]
    determines v, k and every e_d = #{i : d | n_i}, hence, by Moebius
    inversion, the multiset {n_i}: two such products are equal iff their
    forms are.  A zero predicted factor predicts no path.  A mismatch
    prints the path, by the same rule.
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
    print("word: %s" % (" ".join(sym.label for sym in word) or "(empty)"))
    print("coefficient: %s" % _coefficient_text(1, 0, steps))
    path = walk_word(word, start, iqg.oscillator_action(diagram, pres))
    want = got = None
    if all(steps):
        want = (target, prod([1 if n > 0 else -1 for n in steps]), 0,
                sorted([abs(n) for n in steps if abs(n) > 1]))
    if path is not None:
        end, k, v, ns = path
        got = end, v, k, sorted(ns)
    if got != want:
        print("MISMATCH: got %s" % ("0" if got is None else "(%s)*%s" % (
            _coefficient_text(v, k, ns), monomial_text(end))))
        return 1
    print("VERIFIED")
    return 0


# Each command's function, help line and options, read by both the line
# reader (``_read``) and the argparse parsers (``build_parser``): each
# option's name maps to its ``add_argument`` keywords.
COMMANDS = {
    "verify": (_cmd_verify, "run relation verification suites", {
        "--diagram": {"required": True, "help": "e.g. I:r=1 or A1AFF"},
        "--max-degree": {"type": integer, "required": True},
        "--suite": {"choices": SUITES, "default": "all"},
        "--json": {"help": "write a machine-readable report here"},
        "--mutate": {"choices": MUTATIONS, "help": "deliberately corrupt "
                     "one parameter (sensitivity check)"}}),
    "act": (_cmd_act, "apply an operator word to a polynomial", {
        "--diagram": {"required": True},
        "--word": {"required": True,
                   "help": "space-separated tokens, e.g. 'e1' or 'x0 d1'"},
        "--poly": {"required": True, "help": "e.g. 'X2' or '(q)*X0^2*X1'"}}),
    "crystal": (_cmd_crystal, "emit a crystal graph", {
        "--diagram": {"required": True},
        "--s": {"type": integer, "required": True},
        "--format": {"choices": ("dot", "json", "tikz"), "default": "dot"}}),
    "witness": (_cmd_witness, "raising/lowering witness words", {
        "--diagram": {"required": True},
        "--monomial": {"required": True, "help": "comma-separated, e.g. 1,2"},
        "--direction": {"choices": ("up", "down"), "default": "up"}}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from ``COMMANDS`` once per process."""
    parser = argparse.ArgumentParser(
        prog="qweyl",
        description="Exact q-Weyl algebra, coideal relation verification and "
                    "crystal graph toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option, keywords in options.items():
            p.add_argument(option, **keywords)
        p.set_defaults(func=func)
    return parser


def _read(argv):
    """The ``Namespace`` the parser gives a line made only of exact
    ``--option value`` pairs of one command: each option once, every
    required one given, no value starting with '-', and every value of its
    type and among its choices.  None for any other line, which the parser
    reads instead, with its usage errors and help text."""
    command = COMMANDS.get(argv[0]) if argv else None
    if command is None or len(argv) % 2 == 0:
        return None
    func, _, options = command
    given = dict(zip(argv[1::2], argv[2::2]))
    if len(given) != len(argv) // 2 or not given.keys() <= options.keys():
        return None
    values = {"command": argv[0], "func": func}
    for option, keywords in options.items():
        value = given.get(option)
        if value is None:
            if keywords.get("required"):
                return None
            value = keywords.get("default")
        elif value[:1] == "-":
            return None
        else:
            if "type" in keywords:
                try:
                    value = keywords["type"](value)
                except ValueError:
                    return None
            if value not in keywords.get("choices", (value,)):
                return None
        values[option[2:].replace("-", "_")] = value
    return argparse.Namespace(**values)


def main(argv=None) -> int:
    """Run one command line.  A line of exact ``--option value`` pairs is
    read straight from ``COMMANDS`` (``_read``); any other goes through the
    parser, so every usage error and help text is the parser's."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read(argv) or build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
