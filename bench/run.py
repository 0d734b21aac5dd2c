"""qweyl benchmark: seeded closed-loop CLI workloads, one client, one thread.

    python3 bench/run.py --workload verify-mix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each run starts its workload in a child
process (``worker.py``) that imports ``qweyl.cli`` from ``src/`` and calls
``qweyl.cli.main(argv)`` in process, one command at a time, with stdout
captured and checked.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of one traced round.  Command
times are reported at a reference speed measured alongside them, because the
host's CPU speed drifts (README.md explains how).  The last stdout line is
the result object; the lines before it, starting with ``#``, are the run
record.  See README.md for how to read each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# Children keep their bytecode cache here, inside the checkout, so that every
# set-up after the first reads a warm cache whatever the environment says.
PYCACHE = os.path.join(os.path.dirname(HERE), ".bench_build", "pycache")

# Set-up is measured in this many extra children besides the timed one, after
# one unrecorded child that fills the bytecode cache; the reported setup_s is
# the median of the recorded ones.
SETUP_PROBES = 12
# Every child must end well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170.0

END_TO_END_UNITS = {
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


def run_child(args, mode: str, timeout: float) -> dict:
    """Start one worker, wait for it, and return its JSON result."""
    env = dict(os.environ)
    # Fixed string hashing keeps set iteration order, and with it every
    # traced count, identical from one run to the next.
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    launched = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--launched", repr(launched)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
        raise ChildFailed("%s child timed out after %.0f s" % (mode, timeout))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed("%s child exited with code %d" % (mode, proc.returncode))
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        raise ChildFailed("%s child printed no result: %r" % (mode, lines[-1][:200]))


def loadavg() -> str:
    return "%.2f/%.2f/%.2f" % os.getloadavg()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="qweyl benchmark (see bench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="target length of the timed part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    print("# run: workload=%s seed=%d seconds=%g trace=%d python=%s nproc=%d "
          "loadavg_start=%s" % (args.workload, args.seed, args.seconds,
                                args.trace, platform.python_version(),
                                os.cpu_count() or 0, loadavg()))
    try:
        if args.trace:
            probes = []
            result = run_child(args, "trace", CHILD_TIMEOUT_S)
            metrics = result["metrics"]
        else:
            run_child(args, "setup", 30.0)
            probes = [run_child(args, "setup", 30.0)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            remaining = CHILD_TIMEOUT_S - (time.monotonic() - start)
            result = run_child(args, "time", remaining)
            values = dict(result["metrics"])
            values["setup_s"] = statistics.median(probes + [result["setup_s"]])
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END_UNITS.items()}
    except ChildFailed as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    print("# items: attempted=%d failed=%d failed_frac=%d/%d rounds=%d "
          "items_per_round=%d latency_samples=%d timed_s=%.3f"
          % (attempted, failed, failed, attempted, result["rounds"],
             result["items_per_round"], attempted, result["timed_s"]))
    if probes:
        print("# setup_s samples: %s" % " ".join(
            "%.4f" % v for v in probes + [result["setup_s"]]))
        print("# unscaled: %s; host speed %.3f x reference"
              % (" ".join("%s=%.4g" % kv for kv in result["raw"].items()),
                 result["speed"]))
    print("# end: loadavg_end=%s wall_s=%.1f" % (loadavg(), time.monotonic() - start))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
