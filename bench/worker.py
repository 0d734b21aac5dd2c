"""Benchmark child process: one workload, one client, one command at a time.

Started by ``run.py``, never by hand.  It imports ``qweyl.cli`` from the
checkout's ``src/``, builds the workload's first round, reports how long that
set-up took since the parent launched it, then (mode ``time``) runs whole
rounds closed-loop through ``qweyl.cli.main(argv)`` with stdout captured, or
(mode ``trace``) runs one round untraced and the same round traced.  Every
output is checked by ``oracles.check``.  The last stdout line is a JSON
object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction

from oracles import check
from workloads import WORKLOADS, make_round

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# A run times at least this many commands, so that ten lie beyond p90.
MIN_ITEMS = 100
# Stop starting rounds after this much timed work even if MIN_ITEMS is not
# reached, so that a run ends well inside the 180 s limit.
HARD_LIMIT_S = 120.0

# The host's CPU speed drifts by up to +-25 % over tens of seconds, which
# would swamp any regression bound.  So after every timed command the worker
# times a fixed reference computation (stdlib only, never qweyl), and each
# command time is scaled to a reference computation lasting REF_NOMINAL_S,
# by the median reference time of the commands that ended within
# REF_HALF_WINDOW_S of it.
REF_NOMINAL_S = 0.0025
REF_HALF_WINDOW_S = 0.5


def reference_work():
    """Fraction, dict and tuple work of the kind qweyl does, ~2.5 ms."""
    x = Fraction(1)
    acc = {}
    for i in range(300):
        x = x * Fraction(i % 7 + 1, 3) / Fraction(i % 5 + 1, 2)
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, 0) + i
        if x.numerator > 10 ** 30:
            x = Fraction(1)
    return x, acc


def normalized(latencies, refs):
    """Command seconds at reference speed.

    ``refs`` holds (end time of the command, reference seconds measured
    right after it), one per latency and in the same order.
    """
    out = []
    lo = hi = 0
    for lat, (end, _) in zip(latencies, refs):
        while refs[lo][0] < end - lat - REF_HALF_WINDOW_S:
            lo += 1
        while hi < len(refs) and refs[hi][0] <= end + REF_HALF_WINDOW_S:
            hi += 1
        local = statistics.median(r[1] for r in refs[lo:hi])
        out.append(lat * REF_NOMINAL_S / local)
    return out


def run_item(main, item, profile=None):
    """Run one command in process; returns (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        if profile is not None:
            profile.enable()
        try:
            rc = main(list(item.argv))
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed item, not a failed run
            rc = -1
            err.write(traceback.format_exc())
        finally:
            if profile is not None:
                profile.disable()
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


class Checker:
    """Applies the oracles in sequence order and keeps the failure tally."""

    def __init__(self):
        self.state = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, item, rc, out, err):
        self.attempted += 1
        reason = check(item, rc, out, self.state)
        if reason is not None:
            self.failed += 1
            if self.failed <= 5:
                print("FAILED %s: %s %s" % (" ".join(item.argv), reason,
                                            err.strip()[-400:]), file=sys.stderr)


def run_round(main, items, checker, profile=None, refs=None):
    """Run a round; returns (wall seconds, per-item seconds, stdout bytes).

    With ``refs`` given, the reference work is timed after every command
    and (its start time, its seconds) appended there.
    """
    results = []
    start = time.perf_counter()
    for item in items:
        results.append(run_item(main, item, profile))
        if refs is not None:
            ref_start = time.perf_counter()
            reference_work()
            refs.append((ref_start, time.perf_counter() - ref_start))
    wall = time.perf_counter() - start
    for item, (rc, out, err, _) in zip(items, results):
        checker(item, rc, out, err)
    stdout_bytes = sum(len(r[1].encode()) for r in results)
    return wall, [r[3] for r in results], stdout_bytes


def timed_run(main, args, first_round):
    checker = Checker()
    walls, latencies, refs = [], [], []
    items = first_round
    index = 0
    while True:
        wall, lat, _ = run_round(main, items, checker, refs=refs)
        walls.append(wall)
        latencies.extend(lat)
        elapsed = sum(walls)
        if elapsed >= HARD_LIMIT_S:
            break
        if len(latencies) >= MIN_ITEMS and elapsed + wall > args.seconds:
            break
        index += 1
        items = make_round(args.workload, args.seed, index)

    def summary(lat):
        return {"items_per_s": len(lat) / sum(lat),
                "item_p50_ms": statistics.median(lat) * 1e3,
                "item_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3}

    metrics = summary(normalized(latencies, refs))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "rounds": len(walls),
        "timed_s": sum(walls),
        "speed": REF_NOMINAL_S / statistics.median(r[1] for r in refs),
        "raw": summary(latencies),
        "metrics": metrics,
    }


def traced_run(main, first_round):
    import qweyl
    from tracer import Tracer

    checker = Checker()
    untraced_wall, _, _ = run_round(main, first_round, checker)
    tracer = Tracer(qweyl)
    tracer.install()
    try:
        traced_wall, _, stdout_bytes = run_round(main, first_round, checker,
                                                 tracer.profile)
    finally:
        tracer.uninstall()
    return {
        "attempted": checker.attempted,
        "failed": checker.failed,
        "rounds": 1,
        "timed_s": untraced_wall,
        "metrics": tracer.metrics(stdout_bytes, traced_wall / untraced_wall),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    parser.add_argument("--launched", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken by the parent "
                             "just before it started this process")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import qweyl
    from qweyl.cli import main as qweyl_main
    if not os.path.abspath(qweyl.__file__).startswith(src + os.sep):
        raise SystemExit("qweyl was imported from %s, not from %s"
                         % (qweyl.__file__, src))
    first_round = make_round(args.workload, args.seed, 0)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.launched

    result = {"setup_s": setup_s, "items_per_round": len(first_round)}
    if args.mode == "time":
        result.update(timed_run(qweyl_main, args, first_round))
    elif args.mode == "trace":
        result.update(traced_run(qweyl_main, first_round))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
