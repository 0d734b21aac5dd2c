"""Command-line contract: exit codes, deterministic bytes, output formats."""

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from closed_forms import _run, scaled_steps
from qweyl import crystal, iqg, opcalc, satake
from qweyl.cli import COMMANDS, _coefficient_text, _read, build_parser, main
from qweyl.crystal import crystal_graph, parse_json
from qweyl.opcalc import ActionTable, GeneratorSymbol, QPolynomial, walk_word
from qweyl.qscalar import LaurentPoly, ScalarQ, q_product
from qweyl.satake import build_diagram, parse_spec
from qweyl.shift import ShiftWord


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_act_ladder_example(capsys):
    code, out, _ = run(capsys, "act", "--diagram", "I:r=1",
                       "--word", "e1", "--poly", "X2")
    assert code == 0
    assert out.strip() == "(q + q^-1)*X1"


def test_act_fixed_node_example(capsys):
    code, out, _ = run(capsys, "act", "--diagram", "II:r=0",
                       "--word", "t1", "--poly", "X1")
    assert code == 0
    assert out.strip() == "(-1)*X1"


def test_act_empty_word_is_identity(capsys):
    poly = "(q)*X0^2*X1 + (-1)*X2"
    code, out, _ = run(capsys, "act", "--diagram", "I:r=1",
                       "--word", "", "--poly", poly)
    assert code == 0
    assert out.strip() == poly


def test_act_raw_modified_generators(capsys):
    code, out, _ = run(capsys, "act", "--diagram", "A1AFF",
                       "--word", "x0 d1", "--poly", "X1")
    assert code == 0
    assert out.strip() == "(q^2 + 1 + q^-2)*X0"


def test_act_builds_one_modified_weyl_table(capsys, monkeypatch):
    # the oscillator table's one modified q-Weyl rule serves the d/x/m
    # tokens and the letters of the alias images alike
    import qweyl.iqg
    import qweyl.modweyl
    import qweyl.weyl
    builds = []
    real_rule = qweyl.weyl.algebra_rule
    real_table = qweyl.modweyl.modweyl_table

    def counting(real):
        def wrapped(*args):
            builds.append(args)
            return real(*args)
        return wrapped

    monkeypatch.setattr(qweyl.weyl, "algebra_rule", counting(real_rule))
    for module in (qweyl.iqg, qweyl.modweyl):
        monkeypatch.setattr(module, "modweyl_table", counting(real_table))
    code, out, _ = run(capsys, "act", "--diagram", "A1AFF",
                       "--word", "f0 x0 d1", "--poly", "X1")
    assert (code, builds) == (0, [((1, 3), "dxm")])
    assert out.strip() == "(q^2 + 1 + q^-2)*X1"


def test_act_unknown_token_is_usage_error(capsys):
    code, _, err = run(capsys, "act", "--diagram", "I:r=1",
                       "--word", "z9", "--poly", "X0")
    assert code == 2
    assert "unknown token" in err
    code, _, err = run(capsys, "act", "--diagram", "VI:r=1",
                       "--word", "e0", "--poly", "X0")
    assert code == 2


MALFORMED_POLYS = [("*", "empty factor"), ("(q)*", "empty factor"),
                   ("+", "empty term"), ("-", "empty term"),
                   ("X0 +", "empty term"), ("*X0", "empty factor"),
                   ("X0 * * X1", "empty factor"), ("(q)**X0", "empty factor"),
                   ("X0 + + X1", "empty term"),
                   ("(q)/(q", "unbalanced parenthesis"),
                   ("X0 +-X1", "empty term"), ("--X0", "empty term"),
                   ("X0 + -X1", "empty term"),
                   ("X0^", "missing exponent"), ("X", "missing variable index"),
                   ("X0^x", "missing exponent"),
                   ("(2 3)*X0", "missing sign between terms"),
                   ("2 3", "missing sign between terms"),
                   ("(q q)*X0", "missing sign between terms"),
                   ("X0 X1", "missing '*' between factors"),
                   ("(2)(3)*X0", "missing '*' between factors"),
                   ("X0 2", "missing '*' between factors"),
                   # q takes only '^' and an integer; a sign never follows '*'
                   ("q/3*X0", "unexpected token at '/'"),
                   ("(q/2)*X0", "unexpected token at '/'"),
                   ("qX5*X0", "unexpected token at 'qX5'"),
                   ("q23*X0", "unexpected token at 'q23'"),
                   ("qx*X0", "unexpected token at 'qx'"),
                   ("q^*X0", "missing exponent at '*'"),
                   ("q^1.5*X0", "unexpected token at '.'"),
                   ("X0*-X1", "empty factor at '-'"),
                   # work grows with the exponent, so large ones are refused
                   ("X2^1000000000", "exponent above 10000 at '1000000000'"),
                   ("X2^9000*X2^9000", "total exponent above 10000 at 'X2'"),
                   # and so does a coefficient running over many powers of q
                   ("(1)/((q^10000)*(q^10000) + 1)*X2",
                    "powers of q spanning more than 10000 at '('"),
                   ("q^9000*q^9000*X0",
                    "powers of q spanning more than 10000 at 'q'"),
                   # tokens past Python's int conversion limit (4,300 digits)
                   ("X2^" + "1" * 5000,
                    "exponent above 10000 at '11111111111111111111...'"),
                   ("(" + "1" * 5000 + ")*X2",
                    "number of more than 4300 digits at '1111111111")]


@pytest.mark.parametrize("poly,message", MALFORMED_POLYS,
                         ids=[poly if len(poly) <= 40 else poly[:40] + "..."
                              for poly, _ in MALFORMED_POLYS])
def test_act_empty_poly_term_is_usage_error(capsys, poly, message):
    # "--poly=" keeps argparse from reading "--X0" as an option
    code, out, err = run(capsys, "act", "--diagram", "I:r=1",
                         "--word", "", "--poly=" + poly)
    assert code == 2
    assert out == ""
    assert "error:" in err and "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("monomial", ["1,x", "1,,2", "1_0,0", "+1,0",
                                      "\u0661,0", "1, 2"])
def test_witness_bad_monomial_is_usage_error(capsys, monomial):
    code, out, err = run(capsys, "witness", "--diagram", "I:r=1",
                         "--monomial", monomial)
    assert code == 2
    assert out == ""
    assert "error: bad --monomial %r" % monomial in err
    assert "Traceback" not in err


@pytest.mark.parametrize("option,value", [
    ("--s", "1_0"), ("--s", "+1"), ("--s", "\u0661"), ("--s", " 1"),
    ("--max-degree", "1_0"), ("--max-degree", "+0"),
    ("--max-degree", "\u0661")])
def test_option_integer_rule_is_usage_error(capsys, option, value):
    # argparse reads --s and --max-degree by the one integer rule: ASCII
    # digits after an optional '-'; anything else exits 2, one error line
    argv = (["crystal", "--diagram", "I:r=0"] if option == "--s" else
            ["verify", "--diagram", "I:r=0", "--suite", "weyl"])
    with pytest.raises(SystemExit) as exc:
        main(argv + [option, value])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err.count("error:") == 1
    assert "argument %s: invalid integer value: %r" % (option, value) \
        in captured.err
    # a '-' is read, and refused as below 0 (a degree s by crystal_graph)
    code, out, err = run(capsys, *argv, option, "-1")
    assert (code, out) == (2, "")
    assert err == "error: %s must be >= 0\n" % (
        "degree s" if option == "--s" else option)


@pytest.mark.parametrize("diagram,monomial,direction", [
    ("I:r=0", "257,0", "up"),
    ("I:r=0", "100000000,0", "down"),
    ("IV:r=2", "64,64,64,65", "down"),
])
def test_witness_runaway_degree_is_usage_error(capsys, diagram, monomial,
                                               direction):
    # refused before the word is built: no output, one message
    code, out, err = run(capsys, "witness", "--diagram", diagram,
                         "--monomial", monomial, "--direction", direction)
    assert code == 2
    assert out == ""
    assert "is above %d" % iqg.MAX_WITNESS_DEGREE in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("verify", "--diagram", "I:r=3000", "--suite", "weyl", "--max-degree", "0"),
    ("verify", "--diagram", "IV:r=65", "--suite", "all", "--max-degree", "0"),
    ("act", "--diagram", "I:r=5000", "--word", "e1", "--poly", "X2"),
    ("crystal", "--diagram", "III:r=100", "--s", "1"),
    ("witness", "--diagram", "II:r=65", "--monomial", "1", "--direction", "up"),
], ids=["verify-weyl", "verify-all", "act", "crystal", "witness"])
def test_runaway_rank_is_usage_error(capsys, argv):
    # refused when the diagram is built, before any table or suite
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "error: rank r = " in err
    assert "is above %d" % satake.MAX_RANK in err
    assert "Traceback" not in err


def test_diagram_at_the_rank_bound():
    for kind in ("I", "II", "III", "IV", "V", "VI"):
        assert build_diagram(kind, satake.MAX_RANK).r == satake.MAX_RANK


@pytest.mark.parametrize("diagram,s", [("I:r=2", 2000), ("I:r=2", 48),
                                       ("A1AFF", 20000)])
def test_runaway_crystal_is_usage_error(capsys, diagram, s):
    # C(s + r + 1, r + 1) nodes: 1,337,337,001, 20,825 and 20,001
    code, out, err = run(capsys, "crystal", "--diagram", diagram,
                         "--s", str(s))
    assert code == 2
    assert out == ""
    assert err == ("error: crystal of %s at s = %d has more than %d nodes\n"
                   % (diagram, s, crystal.MAX_CRYSTAL_NODES))


def test_crystal_size_bound_is_inclusive(monkeypatch):
    # I:r=0 has s + 1 nodes at degree s; the graph and the audit share the
    # bound
    monkeypatch.setattr(crystal, "MAX_CRYSTAL_NODES", 10)
    d = build_diagram("I", 0)
    assert len(crystal_graph(d, 9).nodes) == 10
    assert crystal.crystal_axioms_check(d, 9)["all_ok"]
    for check in (crystal_graph, crystal.crystal_axioms_check):
        with pytest.raises(ValueError, match="has more than 10 nodes"):
            check(d, 10)
        with pytest.raises(ValueError, match="degree s must be >= 0"):
            check(d, -1)


@pytest.mark.parametrize("s", [2000, 19999])
def test_long_string_crystal_runs_without_laurent_products(capsys,
                                                           monkeypatch, s):
    # A1AFF has s + 1 nodes on one string; each factored step reads f_0 as
    # a q-integer run, so the walk multiplies no Laurent polynomial.
    products = []
    mul = LaurentPoly.__mul__

    def counting(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counting)
    code, out, err = run(capsys, "crystal", "--diagram", "A1AFF",
                         "--s", str(s))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len([ln for ln in lines if ln.endswith('";')]) == s + 1
    assert len([ln for ln in lines if " -> " in ln]) == s
    assert products == []


def test_witness_steps_at_the_degree_bound():
    word, steps = iqg.witness_steps(build_diagram("I", 0),
                                    (0, iqg.MAX_WITNESS_DEGREE), True)
    assert len(word) == len(steps) == iqg.MAX_WITNESS_DEGREE


def test_verify_json_into_missing_directory_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--diagram", "I:r=0",
                         "--max-degree", "1", "--json",
                         str(tmp_path / "missing" / "r.json"))
    assert code == 2
    assert out == ""
    assert "error:" in err and "Traceback" not in err


def test_parse_word_tokens(capsys):
    # A word reads each token as the label of a symbol of the diagram's
    # table, as it is: every label acts, and nothing else is read.
    d = build_diagram("I", 1)
    labels = sorted(sym.label for sym in iqg.oscillator_action(d).symbols)
    assert {"e1", "f0", "k1^-1", "m0^-1", "d0", "x1"} <= set(labels)
    for label in labels:
        code, out, err = run(capsys, "act", "--diagram", "I:r=1",
                             "--word", label, "--poly", "X0*X1*X2")
        assert (code, err) == (0, ""), label
    for token in ("e1^-1", "e01", "e0001", "E1", "e", "z9", "e1^-2", "e+1",
                  "d3", "t1", "x-1", "ee1", "1e", "e\u0661", "e" + "1" * 5000):
        code, out, err = run(capsys, "act", "--diagram", "I:r=1",
                             "--word", "e1 " + token, "--poly", "X2")
        assert (code, out) == (2, ""), token
        assert err == "error: unknown token %r for diagram I:r=1\n" % token


def test_verify_ok_exit_zero(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--diagram", "A1AFF",
                       "--max-degree", "3", "--suite", "all",
                       "--json", str(out_path))
    assert code == 0
    assert "SUITE all A1AFF" in out
    assert all(" FAIL" not in line for line in out.splitlines())
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is True
    assert payload["diagram"] == "A1AFF"
    assert payload["mutation"] is None
    assert {"relation_id", "instance_indices", "ok"} \
        <= set(payload["relations"][0].keys())


def test_verify_mutated_exit_one(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--diagram", "A1AFF",
                       "--max-degree", "2", "--suite", "iqg",
                       "--mutate", "varsigma1", "--json", str(out_path))
    assert code == 1
    assert any(" FAIL" in line for line in out.splitlines())
    payload = json.loads(out_path.read_text())
    assert payload["mutation"] == "varsigma1"
    assert payload["ok"] is False


@pytest.mark.parametrize("spec,suite,mutation", [
    # node 1 of III lies in the orbit its presentation drops
    pytest.param("III:r=1", "iqg", "varsigma1", id="III:r=1"),
    pytest.param("III:r=2", "iqg", "varsigma1", id="III:r=2"),
    # only the iqg relations read varsigma and xi
    ("I:r=1", "weyl", "varsigma1"), ("I:r=1", "weyl", "xi-fold"),
    ("I:r=1", "uqsl", "varsigma1"), ("I:r=1", "uqsl", "xi-fold"),
    ("I:r=1", "modweyl", "varsigma1"), ("I:r=1", "modweyl", "xi-fold")])
def test_verify_inert_mutation_exit_two(capsys, tmp_path, spec, suite,
                                        mutation):
    out_path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--diagram", spec,
                         "--max-degree", "2", "--suite", suite,
                         "--mutate", mutation, "--json", str(out_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "inert" in err
    assert not out_path.exists()


@pytest.mark.parametrize("spec,code,builds", [("IV:r=2", 1, 2),
                                               ("III:r=1", 2, 1)])
def test_verify_varsigma1_builds_each_presentation_once(capsys, monkeypatch,
                                                        spec, code, builds):
    # The mutant's presentation tells whether the flipped varsigma is live;
    # a live mutant's is built once more, for its relations and phi.
    specs, real = [], iqg.presentation

    def counting(diagram):
        specs.append(diagram.spec_string)
        return real(diagram)

    monkeypatch.setattr(iqg, "presentation", counting)
    got, _, _ = run(capsys, "verify", "--diagram", spec, "--max-degree", "2",
                    "--suite", "iqg", "--mutate", "varsigma1")
    assert (got, specs) == (code, [spec] * builds)


def test_verify_bad_rank_exit_two(capsys):
    code, _, err = run(capsys, "verify", "--diagram", "I:r=-1",
                       "--max-degree", "2")
    assert code == 2
    assert "error:" in err


def test_bad_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


USAGE_ARGVS = [
    [],
    ["frobnicate"],
    ["verif", "--diagram", "I:r=0", "--max-degree", "0"],
    ["-h"],
    ["-h", "verify"],
    ["verify", "-h"],
    ["crystal", "--diagram", "I:r=0", "--s", "1", "-h"],
    ["verify", "--diagram", "I:r=0", "--max-degree", "2", "--bogus"],
    ["act", "--diagram", "I:r=1", "--word", "e1", "--poly", "X2", "extra"],
    ["verify", "--diagram", "I:r=0"],
    ["witness", "--diagram", "I:r=0"],
    ["verify", "--diagram", "I:r=0", "--max-degree", "0", "--suite", "none"],
    ["crystal", "--diagram", "I:r=0", "--s", "1", "--format", "svg"],
    ["--diagram", "I:r=0", "verify", "--max-degree", "0"],
]


def _exit(call, argv):
    try:
        return call(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", USAGE_ARGVS)
def test_usage_errors_and_help_are_the_full_parser_s(capsys, argv):
    # main hands a command line straight to its command's parser and falls
    # back to the full parser when no command is named or an argument is
    # left over: every usage error and help text is still the full
    # parser's, byte for byte, with its exit code.
    want = (_exit(build_parser().parse_args, argv),) + capsys.readouterr()
    got = (_exit(main, argv),) + capsys.readouterr()
    assert got == want
    assert got[0] in (0, 2) and (got[1] or got[2])


def test_a_well_formed_command_line_skips_the_full_parser(capsys,
                                                         monkeypatch):
    # The full parser sees only lines its commands' parsers cannot take:
    # a well-formed command line never reaches it.
    def refused(*args, **kwargs):
        raise AssertionError("the full parser was used")

    monkeypatch.setattr(build_parser(), "parse_args", refused)
    assert run(capsys, "act", "--diagram", "I:r=1", "--word", "e1",
               "--poly", "X2") == (0, "(q + q^-1)*X1\n", "")
    with pytest.raises(AssertionError, match="full parser"):
        main(["verify", "--diagram", "I:r=0", "--max-degree", "0", "--bogus"])


def test_parser_is_built_once_and_keeps_its_usage_errors(capsys):
    assert build_parser() is build_parser()
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--diagram", "I:r=1", "--max-degree", "two"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
        assert run(capsys, "act", "--diagram", "I:r=1", "--word", "e1",
                   "--poly", "X2") == (0, "(q + q^-1)*X1\n", "")
    assert errors[0] == errors[1]
    assert errors[0].startswith("usage: qweyl verify")


def reference_main(argv):
    """``main`` as it was before the line reader: every line through the
    parser, which gives each usage error and help text."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


# Each command's options, in table order, with cheap values; a None value
# leaves an optional option out of the base line.
READER_BASE = {
    "verify": [("--diagram", "I:r=0"), ("--max-degree", "0"),
               ("--suite", "weyl"), ("--json", "JSON"),
               ("--mutate", "xi-fold")],
    "act": [("--diagram", "I:r=0"), ("--word", "e0 d0"), ("--poly", "X1")],
    "crystal": [("--diagram", "I:r=0"), ("--s", "2"), ("--format", "json")],
    "witness": [("--diagram", "I:r=0"), ("--monomial", "1,2"),
                ("--direction", "down")],
}


def _line(command, pairs):
    return [command] + [part for pair in pairs for part in pair]


def reader_grid():
    """(argv, well_formed) over the four commands: every subset of the
    optional options in three orders, each value empty or with spaces, and
    every shape the reader leaves to the parser."""
    grid = []
    for command, base in READER_BASE.items():
        options = COMMANDS[command][2]
        optional = [pair for pair in base
                    if not options[pair[0]].get("required")]
        required = [pair for pair in base if pair not in optional]
        for mask in range(1 << len(optional)):
            pairs = required + [pair for i, pair in enumerate(optional)
                                if mask >> i & 1]
            for order in (pairs, pairs[::-1], pairs[1:] + pairs[:1]):
                grid.append((_line(command, order), True))
        for i, (option, value) in enumerate(base):
            others = base[:i] + base[i + 1:]
            # a typed or listed value has no empty or spaced spelling
            free = not options[option].keys() & {"type", "choices"}
            grid += [
                (_line(command, others + [(option, "")]), free),
                (_line(command, [(option, " %s " % value)] + others), free),
                (_line(command, others + [(option, "-1")]), False),
                (_line(command, others) + ["%s=%s" % (option, value)], False),
                (_line(command, others + [(option[:-1], value)]), False),
                (_line(command, base + [(option, value)]), False),
                (_line(command, base)[:-1] if i == len(base) - 1 else
                 _line(command, others) + [option], False)]
            if options[option].get("required"):
                grid.append((_line(command, others), False))
            if "type" in options[option] or "choices" in options[option]:
                grid.append((_line(command, others + [(option, "x1")]),
                             False))
        grid += [(_line(command, base) + ["-h"], False),
                 (["-h"] + _line(command, base), False),
                 (_line(command, base[:1]) + ["-h"]
                  + _line(command, base[1:])[1:], False),
                 (_line(command, base + [("--bogus", "1")]), False),
                 (_line(command, base) + ["extra"], False),
                 ([command.upper()] + _line(command, base)[1:], False)]
    grid += [([], False), (["act"], False), (["--diagram"], False)]
    return grid


READER_GRID = reader_grid()


def _with_json(argv, path):
    return [part.replace("JSON", str(path)) for part in argv]


def _run_line(call, argv, path):
    """(exit code, stdout, stderr, the report written) of one line."""
    code = _exit(call, argv)
    written = path.read_text() if path.exists() else None
    if written is not None:
        path.unlink()
    return code, written


@pytest.mark.parametrize("argv,well_formed", READER_GRID,
                         ids=[" ".join(argv) for argv, _ in READER_GRID])
def test_the_line_reader_matches_the_parser(capsys, tmp_path, monkeypatch,
                                           argv, well_formed):
    # Every line, read or not, gives the parser's exit code, stdout, stderr
    # and report; a line the reader takes gives the parser's Namespace, and
    # the reader takes exactly the well-formed lines.  A report path the
    # line misspells lands in tmp_path.
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "report.json"
    argv = _with_json(argv, path)
    want = _run_line(reference_main, argv, path) + capsys.readouterr()
    got = _run_line(main, argv, path) + capsys.readouterr()
    assert got == want
    args = _read(argv)
    assert (args is not None) == well_formed
    if args is not None:
        assert vars(args) == vars(build_parser().parse_args(argv))


def test_a_well_formed_line_never_reaches_argparse(capsys, tmp_path,
                                                  monkeypatch):
    # Every well-formed line of the grid runs with no argparse parser
    # parsing anything, to the exit code the parser's path gives.
    path = tmp_path / "report.json"
    lines = [_with_json(argv, path) for argv, ok in READER_GRID if ok]
    want = [_run_line(reference_main, argv, path) for argv in lines]

    def refused(*args, **kwargs):
        raise AssertionError("argparse was used")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", refused)
    assert [_run_line(main, argv, path) for argv in lines] == want
    capsys.readouterr()
    with pytest.raises(AssertionError, match="argparse was used"):
        main(["crystal", "--diagram", "I:r=0", "--s", "3", "--s", "2"])


@pytest.mark.parametrize("spec,monomial,direction,span", [
    ("I:r=0", "23,80", "down", 10_000),
    ("III:r=1", "0,75,21", "up", 10_002)])
def test_witness_prints_its_coefficient_factored_past_the_bound(
        capsys, spec, monomial, direction, span):
    # The span 2*sum(|n| - 1) of the predicted q-integers, counted from q^0
    # as apply counts it: at opcalc.MAX_EXPONENT the coefficient prints
    # expanded, and 2 past it as the sign and [n_1]*...*[n_t], which is what
    # the witness compares.
    d = parse_spec(spec)
    mon = tuple(map(int, monomial.split(",")))
    _, steps = iqg.witness_steps(d, mon, direction == "up")
    assert 2 * sum(abs(n) - 1 for n in steps) == span
    code, out, err = run(capsys, "witness", "--diagram", spec, "--monomial",
                         monomial, "--direction", direction)
    assert (code, err, out.splitlines()[2]) == (0, "", "VERIFIED")
    coefficient = out.splitlines()[1]
    if span <= opcalc.MAX_EXPONENT:
        assert coefficient == "coefficient: %s" % ScalarQ(q_product(steps))
    else:
        assert coefficient == "coefficient: %s" % _factored(steps)


def _factored(steps):
    """The sign of a product of q-integers, then [|n|] for each |n| >= 2."""
    return ("-" if prod(steps) < 0 else "") + "*".join(
        "[%d]" % abs(n) for n in steps if abs(n) > 1)


def test_a_factored_witness_expands_nothing(capsys, monkeypatch):
    # IV:r=2 at degree 256: the coefficient spans 167,744 powers of q, and
    # the verdict and the print both stay factored.
    def refused(*args, **kwargs):
        raise AssertionError("q_product was called")

    for module in (sys.modules["qweyl.cli"], opcalc, iqg, crystal,
                   sys.modules["qweyl.qscalar"]):
        if hasattr(module, "q_product"):
            monkeypatch.setattr(module, "q_product", refused)
    code, out, err = run(capsys, "witness", "--diagram", "IV:r=2",
                         "--monomial", "64,64,64,64", "--direction", "down")
    _, steps = iqg.witness_steps(build_diagram("IV", 2), (64,) * 4, False)
    assert out.splitlines()[1:] == ["coefficient: %s" % _factored(steps),
                                    "VERIFIED"]
    assert (code, err) == (0, "") and len(out) < 5_000


@pytest.mark.parametrize("v,k,ns,text", [
    (1, 0, [5001], None),                 # span 10,000: expanded
    (1, 0, [5001, 2], "[5001]*[2]"),      # span 10,002
    (-1, 0, [-3, 5002], "[3]*[5002]"),    # the signs cancel
    (1, 6000, [4001], None),              # q^2000..q^10000: span 10,000
    (1, 6001, [4001], "q^6001*[4001]"),   # q^2001..q^10001
    (-2, -6001, [4001], "-2*q^-6001*[4001]"),
    (3, 0, [10_001, 0], "0"),             # a zero factor
])
def test_coefficient_text_bounds_its_span_as_apply_does(v, k, ns, text):
    want = str(ScalarQ(q_product(ns, LaurentPoly({k: v}))))
    assert _coefficient_text(v, k, ns) == (want if text is None else text)


@pytest.mark.parametrize("argv, sha256", [
    # d0^21 X0^21 is [21]!: B = 20! < 2^64, the packed lanes of q_product
    (["act", "--diagram", "I:r=0", "--word", " ".join(["d0"] * 21),
      "--poly", "X0^21"],
     "050b48ad14cd44f9bf26d70698e3a7fd998903e05d15a87a86ddfcffd8f30fd7"),
    # [22]!: B = 21! > 2^64, the window kernel
    (["act", "--diagram", "I:r=0", "--word", " ".join(["d0"] * 22),
      "--poly", "X0^22"],
     "8a00188ae0ffd4e6a650a121334555af81b7c3fdc7655fbe2dcd0ebd08630e50"),
    # a span of exactly 10,000 powers of q, printed expanded
    (["witness", "--diagram", "I:r=0", "--monomial", "23,80",
      "--direction", "down"],
     "263b6e38af1c58dbc5c8f3b5bc42e47fb3d9edcc61d3b33adc0553f68630d9d6"),
    (["witness", "--diagram", "IV:r=2", "--monomial", "12,12,12,12",
      "--direction", "down"],
     "59cfd3d6d7b39de767e9cf2ad54d29502aec668cd623936a689d56e514006fdd"),
], ids=["act-d0x21", "act-d0x22", "witness-I-23,80", "witness-IV-12x4"])
def test_expanded_coefficients_are_byte_pinned(capsys, argv, sha256):
    # Each stdout as printed before q_product packed its lanes and
    # LaurentPoly printed in one pass.
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_a_mismatch_past_the_bound_prints_its_path_factored(capsys,
                                                           monkeypatch):
    # Every e/f step times q: the path v*q^k*[n]... differs from the
    # prediction by q^k, and spans past the bound, so the MISMATCH line is
    # factored too, with no q_product.
    real = iqg.oscillator_action

    def scaled(diagram, pres=None):
        return scaled_steps(real(diagram, pres), STEP_FACTORS["q"])

    def refused(*args, **kwargs):
        raise AssertionError("q_product was called")

    monkeypatch.setattr(iqg, "oscillator_action", scaled)
    monkeypatch.setattr(sys.modules["qweyl.cli"], "q_product", refused)
    code, out, _ = run(capsys, "witness", "--diagram", "III:r=1",
                       "--monomial", "0,75,21", "--direction", "up")
    _, steps = iqg.witness_steps(parse_spec("III:r=1"), (0, 75, 21), True)
    factors = sorted(abs(n) for n in steps if abs(n) > 1)
    *_, mismatch = out.splitlines()
    assert code == 1 and mismatch.startswith("MISMATCH: got (q^117*[")
    head, body = mismatch[len("MISMATCH: got ("):].split(")*")
    assert body == "X0^96"
    assert sorted(int(n) for n in head[len("q^117*["):-1].split("]*[")) \
        == factors


def test_crystal_dot_byte_stable(capsys):
    code1, out1, _ = run(capsys, "crystal", "--diagram", "I:r=1",
                         "--s", "3", "--format", "dot")
    code2, out2, _ = run(capsys, "crystal", "--diagram", "I:r=1",
                         "--s", "3", "--format", "dot")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("->") == 12


def test_crystal_json_round_trip(capsys):
    code, out, _ = run(capsys, "crystal", "--diagram", "I:r=0",
                       "--s", "0", "--format", "json")
    assert code == 0
    graph = parse_json(out)
    assert graph == crystal_graph(parse_spec("I:r=0"), 0)
    assert len(graph.nodes) == 1


def test_crystal_unsupported_kind_exit_two(capsys):
    code, _, err = run(capsys, "crystal", "--diagram", "II:r=1", "--s", "2")
    assert code == 2
    assert "not supported" in err


def test_witness_up_and_down(capsys):
    code, out, _ = run(capsys, "witness", "--diagram", "I:r=0",
                       "--monomial", "1,2", "--direction", "up")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word: e0 e0"
    assert lines[1].startswith("coefficient: q^4 + 2*q^2 + 2")
    assert lines[2] == "VERIFIED"
    code, out, _ = run(capsys, "witness", "--diagram", "I:r=0",
                       "--monomial", "1,2", "--direction", "down")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "word: f0 f0"
    assert lines[1] == "coefficient: q^3 + 2*q + 2*q^-1 + q^-3"
    assert lines[2] == "VERIFIED"


def test_witness_trivial_monomial(capsys):
    code, out, _ = run(capsys, "witness", "--diagram", "I:r=1",
                       "--monomial", "3,0,0", "--direction", "up")
    assert code == 0
    assert out.splitlines()[0] == "word: (empty)"
    assert out.splitlines()[1] == "coefficient: 1"


WITNESS_MISMATCH = json.loads(
    (Path(__file__).parent / "golden" / "witness_mismatch.json").read_text())
# Each factor as its terms (coefficient, power of q).
STEP_FACTORS = {"q": ((1, 1),), "-1": ((-1, 0),), "1 + q": ((1, 0), (1, 1))}


@pytest.mark.parametrize("case", WITNESS_MISMATCH, ids=lambda c: "%s %s %s" % (
    c["factor"], c["argv"][2], c["argv"][6]))
def test_witness_with_scaled_steps(capsys, monkeypatch, case):
    # Every e/f step times q is still a run, so the factored form decides;
    # times -1 the signs cancel on an even word only.  Stdout and exit code
    # were recorded before the witness was checked in factored form; either
    # way the command builds one table.  Times 1 + q a step is no run, and
    # the table refuses each e/f step where it first looks it up.
    real = iqg.oscillator_action
    factor = STEP_FACTORS[case["factor"]]
    if case["factor"] == "1 + q":
        table = scaled_steps(real(parse_spec(case["argv"][2])), factor)
        steps = [sym for sym in table.symbols if sym.fam in ("e", "f")]
        for sym in steps:
            with pytest.raises(ValueError, match="is not a q-integer run"):
                table.get(sym)
        assert steps
        return
    builds = []

    def scaled(diagram, pres=None):
        builds.append(diagram.spec_string)
        return scaled_steps(real(diagram, pres), factor)

    monkeypatch.setattr(iqg, "oscillator_action", scaled)
    code, out, _ = run(capsys, *case["argv"])
    assert (code, out) == (case["exit"], case["stdout"])
    assert builds == [case["argv"][2]]


def test_witness_mismatch_walks_each_letter_once(capsys, monkeypatch):
    # Every e/f step times q is a run other than the predicted one, so the
    # factored form does not match; the command prints the one path of its
    # one walk instead of walking the word again: one act call per letter.
    real = iqg.oscillator_action

    def scaled(diagram, pres=None):
        return scaled_steps(real(diagram, pres), STEP_FACTORS["q"])

    acts = []
    real_act = ActionTable.act

    def counted(self, sym, mon):
        acts.append(sym)
        return real_act(self, sym, mon)

    monkeypatch.setattr(iqg, "oscillator_action", scaled)
    monkeypatch.setattr(ActionTable, "act", counted)
    argv = ("witness", "--diagram", "IV:r=1", "--monomial", "1,2,1",
            "--direction", "up")
    code, out, _ = run(capsys, *argv)
    case, = [c for c in WITNESS_MISMATCH
             if c["factor"] == "q" and tuple(c["argv"]) == argv]
    assert (code, out) == (case["exit"], case["stdout"]) and code == 1
    assert out.startswith("word: e0 e0 e0 e1\n")
    assert [sym.label for sym in acts] == ["e1", "e0", "e0", "e0"]


UP_WORD, UP_COEFF = iqg.irreducibility_witness(build_diagram("IV", 2),
                                               (3, 3, 3, 3))


WALKS_AT_3333 = pytest.mark.parametrize("argv,last", [
    (("witness", "--diagram", "IV:r=2", "--monomial", "3,3,3,3",
      "--direction", "up"), "VERIFIED"),
    (("witness", "--diagram", "IV:r=2", "--monomial", "3,3,3,3",
      "--direction", "down"), "VERIFIED"),
    # act walks the same up word and multiplies its q-integers out once
    (("act", "--diagram", "IV:r=2",
      "--word", " ".join(sym.label for sym in UP_WORD),
      "--poly", "X0^3*X1^3*X2^3*X3^3"), "(%s)*X0^12" % UP_COEFF),
], ids=["up", "down", "act"])


@WALKS_AT_3333
def test_verified_witness_multiplies_no_two_long_factors(capsys, monkeypatch,
                                                         argv, last):
    # The word is walked in factored form and the coefficient is expanded on
    # dense lists: no Laurent product has two factors of several terms.
    real = LaurentPoly.__mul__
    long_products = []

    def counting(self, other):
        if (isinstance(other, LaurentPoly) and len(list(self.items())) > 1
                and len(list(other.items())) > 1):
            long_products.append((str(self), str(other)))
        return real(self, other)

    monkeypatch.setattr(LaurentPoly, "__mul__", counting)
    monkeypatch.setattr(LaurentPoly, "__rmul__", counting)
    code, out, _ = run(capsys, *argv)
    assert (code, out.splitlines()[-1]) == (0, last)
    assert long_products == []


@WALKS_AT_3333
def test_walks_read_every_letter_as_a_run(capsys, monkeypatch, argv, last):
    # Every e/f letter of IV:r=2 is a run shape, so ActionTable.act reads
    # each one by ShiftWord.run and no entry is expanded by its call.
    calls = []
    real = ShiftWord.__call__

    def counting(self, mon):
        calls.append(mon)
        return real(self, mon)

    monkeypatch.setattr(ShiftWord, "__call__", counting)
    code, out, _ = run(capsys, *argv)
    assert (code, out.splitlines()[-1]) == (0, last)
    assert calls == []


@pytest.mark.parametrize("k", [100, 101])
def test_act_refuses_a_coefficient_over_max_exponent_powers_of_q(capsys, k):
    # d0^k X0^k on I:r=0 is [k]! X0^0, whose q-exponents run from
    # -k(k-1)/2 to k(k-1)/2: 9,900 powers of q at k = 100, inside the bound,
    # and 10,100 at k = 101, refused before the path is expanded.
    code, out, err = run(capsys, "act", "--diagram", "I:r=0",
                         "--word", " ".join(["d0"] * k),
                         "--poly", "X0^%d" % k)
    if k == 100:
        assert (code, err) == (0, "")
        poly = opcalc.poly_from_text(out.strip(), 2)
        assert list(poly.terms) == [(0, 0)]
    else:
        assert (code, out) == (2, "")
        assert err == ("error: image coefficient over more than 10000 "
                       "powers of q (MAX_EXPONENT)\n")


@pytest.mark.parametrize("letter,k", [("m0", 10_000), ("m0", 10_001),
                                      ("m0^-1", 10_000), ("m0^-1", 10_001)])
def test_act_q_span_bound_at_its_edge(capsys, letter, k):
    # m0^{+-1} scales X0 by q^{+-1} on I:r=0 (xi_0 = 1), so k letters give
    # the one path q^{+-k} X0, spanning k powers of q from q^0 on either
    # side: 10,000 prints and reads back, 10,001 is refused.
    code, out, err = run(capsys, "act", "--diagram", "I:r=0",
                         "--word", " ".join([letter] * k), "--poly", "X0")
    if k == 10_000:
        assert (code, err) == (0, "")
        power = k if letter == "m0" else -k
        assert opcalc.poly_from_text(out.strip(), 2) == \
            QPolynomial.monomial((1, 0), ScalarQ.q_power(power))
    else:
        assert (code, out) == (2, "")
        assert err == ("error: image coefficient over more than 10000 "
                       "powers of q (MAX_EXPONENT)\n")


@pytest.mark.parametrize("k", [9_999, 10_000])
def test_act_refuses_an_image_exponent_over_max_exponent(capsys, k):
    # x0^k X0 is X0^(k+1): X0^10000 prints and reads back as --poly input,
    # and X0^10001, which --poly would refuse, is refused before expansion.
    code, out, err = run(capsys, "act", "--diagram", "I:r=0",
                         "--word", " ".join(["x0"] * k), "--poly", "X0")
    if k == 9_999:
        assert (code, out, err) == (0, "(1)*X0^10000\n", "")
        assert list(opcalc.poly_from_text(out, 2).terms) == [(10_000, 0)]
    else:
        assert (code, out) == (2, "")
        assert err == "error: image exponent above 10000 (MAX_EXPONENT)\n"


@pytest.mark.parametrize("spec,image", [
    ("I:r=1", "(q^4 + q^3 + 2*q^2 + 2*q + 1 + q^-1)*X0^2*X1^2"),
    ("IV:r=1", "(-q^4 - q^3 - q^2 - q)*X0^2*X1^2")])
def test_act_mixes_alias_and_generator_letters(capsys, spec, image):
    # Alias and d/x/m letters read one table, whose entries are built as the
    # word reads them; an unknown token after known ones is refused before
    # any letter acts.
    poly = "(q + 1)*X0*X1^2*X2 + X1"
    word = "e1 x0 d1 k0^-1"
    assert run(capsys, "act", "--diagram", spec, "--word", word,
               "--poly", poly) == (0, image + "\n", "")
    assert run(capsys, "act", "--diagram", spec, "--word", word + " e9",
               "--poly", poly) == (
        2, "", "error: unknown token 'e9' for diagram %s\n" % spec)


def walk_form(polys):
    """The factored form that ``witness`` compares, (end monomial, v, k,
    sorted n >= 2), of the word walk over a one-variable table whose i-th
    letter sends X0^j to polys[i] X0^(j+1).  Each polys[i] is v*q^k*[n], and
    each letter the divided ``ShiftWord`` (v*q^(k+n) - v*q^(k-n))/(q - q^-1),
    its terms listed low first at odd i, where ``run`` reads -n and folds
    the sign into v."""
    entries = {}
    for i, c in enumerate(polys):
        k, v, n = _run(dict(c.items()))
        terms = ((v, k + n, ()), (-v, k - n, ()))
        entries[GeneratorSymbol("e", i)] = ShiftWord(
            ((0, 1),), terms[::-1] if i & 1 else terms, 1)
    table = ActionTable(1, entries.get)
    word = [GeneratorSymbol("e", i) for i in range(len(polys))]
    end, k, v, ns = walk_word(word[::-1], (0,), table)
    return end, v, k, sorted(ns)


def run_poly(lo, m, v):
    """v*q^lo*(1 + q^2 + ... + q^(2(m-1)))."""
    return LaurentPoly({lo + 2 * j: v for j in range(m)})


runs = st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 7),
                          st.sampled_from([1, -1, 2, Fraction(-1, 3)])),
                max_size=5)


@st.composite
def run_pairs(draw):
    """Two lists of runs: independent, one regrouped from the other, or one
    with a q-integer [m] of the other once more."""
    a = draw(runs)
    mode = draw(st.sampled_from(["independent", "regrouped", "repeated"]))
    if mode == "independent" or not a:
        return a, draw(runs)
    if mode == "repeated":
        m = draw(st.sampled_from(a))[1]
        return a, a + [(1 - m, m, 1)]
    b = draw(st.permutations(a))
    if len(b) > 1:
        # move content and q-shift between two runs: the same product
        (lo0, m0, v0), (lo1, m1, v1) = b[0], b[1]
        d = draw(st.integers(-3, 3))
        b[0], b[1] = (lo0 + d, m0, v0 * 2), (lo1 - d, m1, Fraction(v1) / 2)
    return a, b


@settings(max_examples=200, deadline=None)
@given(run_pairs())
@example(([(-5, 6, 1)], [(-1, 2, 1), (-2, 3, 1)]))  # [6] against [2][3]
@example(([(-3, 4, 1)], [(-1, 2, 1), (-1, 2, 1)]))  # [4] against [2][2]
@example(([(-1, 2, 1)], [(-1, 2, 1), (-1, 2, 1)]))  # [2] against [2][2]
def test_factored_forms_are_equal_iff_products_are(pair):
    a, b = [[run_poly(*r) for r in rs] for rs in pair]
    form_a, form_b = walk_form(a), walk_form(b)
    expanded = [prod(rs, start=LaurentPoly.one()) for rs in (a, b)]
    assert (form_a[1:] == form_b[1:]) == (expanded[0] == expanded[1])


def test_factored_walk_refuses_what_is_not_a_run():
    # A letter whose image has two terms, or none, is no run: no table holds
    # it, so no walk reads it.
    e0 = GeneratorSymbol("e", 0)
    for c in (LaurentPoly({0: 1, 1: 1}), LaurentPoly({0: 1, 4: 1}),
              LaurentPoly()):
        letter = ShiftWord(((0, 1),), tuple((v, e, ()) for e, v in c.items()),
                           0)
        with pytest.raises(ValueError, match="is not a q-integer run"):
            walk_word((e0,), (0,), ActionTable(1, {e0: letter}.get))
    assert walk_form([run_poly(-1, 2, 3), run_poly(4, 1, -1)]) \
        == ((2,), -3, 4, [2])


def test_witness_malformed_vector_exit_two(capsys):
    code, _, err = run(capsys, "witness", "--diagram", "I:r=0",
                       "--monomial", "1,2,3")
    assert code == 2
    assert "error:" in err


def test_iota_consistency_ok_only_without_discrepancies(capsys, monkeypatch):
    from qweyl import modweyl
    failure = {"relation_id": "modweyl.iota_consistency",
               "instance_indices": ["d0"], "ok": False,
               "residual_monomial": [1, 0], "residual_coefficient": "q - 1"}
    monkeypatch.setattr(modweyl, "iota_consistency",
                        lambda diagram, max_s, classical, modified: [failure])
    code, out, _ = run(capsys, "verify", "--diagram", "A1AFF",
                       "--max-degree", "1", "--suite", "modweyl")
    lines = [line for line in out.splitlines()
             if line.startswith("RELATION modweyl.iota_consistency")]
    assert lines == ["RELATION modweyl.iota_consistency[d0] FAIL"]
    assert code == 1
