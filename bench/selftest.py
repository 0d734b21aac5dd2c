"""Self-tests of the benchmark itself (not of qweyl).

    python3 bench/selftest.py

Checks that workloads are reproducible from their seed, that every oracle
accepts real qweyl output and rejects a corrupted copy of it, that traced
counts repeat exactly, and that metric names and units agree with
BENCHMARK.json.  Takes about ten seconds; exits 1 if any test fails.
"""

from __future__ import annotations

import json
import os
import re
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from oracles import check  # noqa: E402
from run import END_TO_END_UNITS  # noqa: E402
from tracer import PER_LAYER_UNITS, Tracer  # noqa: E402
from worker import run_item  # noqa: E402
from workloads import WORKLOADS, Item, make_round, up_word  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _qweyl_main():
    from qweyl.cli import main
    return main


def _run(argv, kind, spec, params):
    item = Item(tuple(argv), kind, spec, params)
    rc, out, _, _ = run_item(_qweyl_main(), item)
    return item, rc, out


def test_seed_determinism():
    for workload in WORKLOADS:
        for index in (0, 1):
            a = make_round(workload, 7, index)
            b = make_round(workload, 7, index)
            c = make_round(workload, 8, index)
            assert [i.argv for i in a] == [i.argv for i in b], \
                "%s round %d differs for one seed" % (workload, index)
            assert [i.argv for i in a] != [i.argv for i in c], \
                "%s round %d identical for two seeds" % (workload, index)
        assert make_round(workload, 7, 0) != make_round(workload, 7, 1), \
            "%s rounds 0 and 1 identical" % workload


def test_verify_oracle_rejects_corruption():
    item, rc, out = _run(["verify", "--diagram", "I:r=0", "--suite", "iqg",
                          "--max-degree", "1"], "verify", "I:r=0", ("iqg",))
    assert check(item, rc, out, {}) is None, "clean verify output rejected"
    lines = out.splitlines()
    first = next(k for k, line in enumerate(lines) if line.startswith("RELATION "))
    failed = list(lines)
    failed[first] = failed[first][:-len("OK")] + "FAIL"
    assert check(item, rc, "\n".join(failed), {}) is not None, "FAIL line accepted"
    dropped = lines[:first] + lines[first + 1:]
    assert check(item, rc, "\n".join(dropped), {}) is not None, "missing relation accepted"
    no_summary = [line for line in lines if not line.startswith("SUITE ")]
    assert check(item, rc, "\n".join(no_summary), {}) is not None, "missing summary accepted"
    assert check(item, 1, out, {}) is not None, "exit code 1 accepted"


def test_crystal_oracle_rejects_corruption():
    for fmt in ("dot", "json", "tikz"):
        item, rc, out = _run(["crystal", "--diagram", "I:r=1", "--s", "3",
                              "--format", fmt], "crystal", "I:r=1", (3, fmt))
        assert check(item, rc, out, {}) is None, "clean %s crystal rejected" % fmt
        if fmt == "json":
            obj = json.loads(out)
            obj["edges"].pop(len(obj["edges"]) // 2)
            dropped = json.dumps(obj)
            obj = json.loads(out)
            obj["edges"][0]["i"] += 1
            recoloured = json.dumps(obj)
        else:
            lines = out.splitlines()
            edge_lines = [k for k, line in enumerate(lines)
                          if "->" in line or "--" in line]
            k = edge_lines[len(edge_lines) // 2]
            dropped = "\n".join(lines[:k] + lines[k + 1:])
            recoloured = out.replace("red", "blue", 1)
        assert check(item, rc, dropped, {}) is not None, \
            "%s crystal with a dropped edge accepted" % fmt
        assert check(item, rc, recoloured, {}) is not None, \
            "%s crystal with a wrong edge colour accepted" % fmt
        wrong_s = item._replace(params=(4, fmt))
        assert check(wrong_s, rc, out, {}) is not None, \
            "%s crystal of the wrong degree accepted" % fmt


def test_ladder_oracles_reject_corruption():
    spec, a = "I:r=1", (1, 3, 2)
    mon = "1,3,2"
    up, rc_up, out_up = _run(["witness", "--diagram", spec, "--monomial", mon,
                              "--direction", "up"], "witness-up", spec, (a,))
    act, rc_act, out_act = _run(["act", "--diagram", spec, "--word",
                                 up_word(spec, a), "--poly", "X0*X1^3*X2^2"],
                                "act", spec, (a,))
    down, rc_dn, out_dn = _run(["witness", "--diagram", spec, "--monomial", mon,
                                "--direction", "down"], "witness-down", spec, (a,))
    state = {}
    assert check(up, rc_up, out_up, state) is None, "clean witness up rejected"
    assert check(act, rc_act, out_act, state) is None, "clean act rejected"
    assert check(down, rc_dn, out_dn, state) is None, "clean witness down rejected"
    wrong = out_act.replace("q^", "2*q^", 1)
    assert wrong != out_act
    assert check(act, rc_act, wrong, state) is not None, "wrong act coefficient accepted"
    assert check(act, rc_act, out_act, {}) is not None, \
        "act accepted without its witness coefficient"
    unverified = out_up.replace("VERIFIED", "MISMATCH: got 0")
    assert check(up, rc_up, unverified, {}) is not None, "MISMATCH witness accepted"
    other_word = out_dn.replace("f0", "f1", 1)
    assert check(down, rc_dn, other_word, {}) is not None, "wrong witness word accepted"


def _traced_counts(items):
    import qweyl
    main = _qweyl_main()
    tracer = Tracer(qweyl)
    tracer.install()
    try:
        for item in items:
            run_item(main, item, tracer.profile)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(0, 1.0)
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def test_traced_counts_repeat():
    items = ([i for i in make_round("verify-mix", 3, 0)
              if i.argv[-1] == "2" and i.spec.endswith("r=0")][:4]
             + make_round("crystal", 3, 0)[:4] + make_round("ladder", 3, 0)[:6])
    first, second = _traced_counts(items), _traced_counts(items)
    assert first == second, "traced counts differ: %r vs %r" % (first, second)
    assert first["qscalar.scalar_new"] > 0 and first["opcalc.act_calls"] > 0
    # The wrappers are removed again: an untraced call sees the originals.
    from qweyl import opcalc, qscalar
    assert opcalc.ActionTable.act.__module__ == "qweyl.opcalc"
    assert qscalar.ScalarQ.__init__.__module__ == "qweyl.qscalar"


def test_metric_names_and_benchmark_json():
    names = list(END_TO_END_UNITS) + list(PER_LAYER_UNITS)
    for name in names:
        assert NAME.match(name), "bad metric name %r" % name
    assert len(set(names)) == len(names), "duplicate metric name"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print("ok   %s" % name)
        except Exception:
            failures += 1
            print("FAIL %s\n%s" % (name, traceback.format_exc()))
    print("%d passed, %d failed" % (len(tests) - failures, failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
