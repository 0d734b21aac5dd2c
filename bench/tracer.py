"""Per-layer attribution for the traced benchmark pass.

The layers are the modules of ``src/qweyl``.  They are measured from outside:
nothing under ``src/`` is changed.  Two instruments run together, only in the
traced pass:

* ``cProfile`` gives every function's self time and call count.  A layer's
  self time is the self time of the functions defined in its module.  Time
  in functions defined outside ``src/qweyl`` (the standard library and
  built-ins, e.g. ``fractions`` arithmetic, ``math.gcd``, ``argparse``,
  ``print`` into the captured stream) goes to the layer that called them,
  split over cProfile's caller edges; through a chain of such functions it
  is split in proportion to each one's callers.  Time in the benchmark's
  own files (the counting wrappers below) goes to no layer.
* Counting wrappers, set on the public classes and module attributes for
  the length of the pass and removed afterwards, count what a call count
  alone cannot show: which ``ScalarQ`` constructions need a gcd, how many
  coefficient products a ``LaurentPoly`` multiplication does, and how many
  ``ActionTable.act`` calls repeat an earlier (table, symbol, monomial).

The program is single-threaded and does no real I/O, so no layer waits on
another: a layer's self time bounds what speeding it up could save.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from collections import Counter
from math import comb

LAYERS = ("qscalar", "opcalc", "weyl", "modweyl", "iqg", "satake",
          "crystal", "cli")

# name -> unit; the order is the order they are printed in.
PER_LAYER_UNITS = {
    "qscalar.self_s": "s",
    "qscalar.scalar_new": "count",
    "qscalar.reduce_new": "count",
    "qscalar.laurent_mul": "count",
    "qscalar.laurent_term_products": "count",
    "opcalc.self_s": "s",
    "opcalc.apply_calls": "count",
    "opcalc.act_calls": "count",
    "opcalc.act_reuse": "ratio",
    "opcalc.monomial_checks": "count",
    "opcalc.expr_map_s": "s",
    "weyl.self_s": "s",
    "weyl.instances": "count",
    "modweyl.self_s": "s",
    "modweyl.iota_expand_calls": "count",
    "iqg.self_s": "s",
    "iqg.instances": "count",
    "iqg.oscillator_builds": "count",
    "satake.self_s": "s",
    "satake.diagram_builds": "count",
    "crystal.self_s": "s",
    "crystal.kashiwara_calls": "count",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


def _code_key(func):
    code = func.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _is_single_q_power(den) -> bool:
    """True for q^k (coefficient exactly 1), which needs no gcd to reduce."""
    if not hasattr(den, "items"):  # an int or Fraction denominator
        return den == 1
    terms = list(den.items())
    return len(terms) == 1 and terms[0][1] == 1


def _term_count(x) -> int:
    return len(list(x.items())) if hasattr(x, "items") else 1


class Tracer:
    """Counting wrappers plus a profiler; one instance per traced pass."""

    def __init__(self, qweyl_pkg):
        self.src_dir = os.path.dirname(os.path.abspath(qweyl_pkg.__file__))
        self.bench_dir = os.path.dirname(os.path.abspath(__file__))
        self.counts = Counter()
        self.profile = cProfile.Profile()
        self._act_keys = set()
        self._tables = {}
        self._saved = []

    # -- counting wrappers -------------------------------------------------

    def _patch(self, owner, name, make):
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def install(self):
        from qweyl import iqg, modweyl, opcalc, qscalar, weyl
        counts = self.counts

        def scalar_init(orig):
            def wrapped(self, num=0, den=1):
                counts["qscalar.scalar_new"] += 1
                if num and not _is_single_q_power(den):
                    counts["qscalar.reduce_new"] += 1
                return orig(self, num, den)
            return wrapped

        def laurent_mul(orig):
            def wrapped(self, other):
                counts["qscalar.laurent_mul"] += 1
                counts["qscalar.laurent_term_products"] += (
                    _term_count(self) * _term_count(other))
                return orig(self, other)
            return wrapped

        act_keys, tables = self._act_keys, self._tables

        def table_act(orig):
            def wrapped(self, sym, mon):
                counts["opcalc.act_calls"] += 1
                tables[id(self)] = self  # keep ids unique for the whole pass
                act_keys.add((id(self), sym, mon))
                return orig(self, sym, mon)
            return wrapped

        def equal_on_degrees(orig):
            def wrapped(e1, e2, table, max_s):
                counts["opcalc.monomial_checks"] += comb(table.nvars + max_s, max_s)
                return orig(e1, e2, table, max_s)
            return wrapped

        def instance_counter(name):
            def make(orig):
                def wrapped(*args, **kwargs):
                    out = orig(*args, **kwargs)
                    counts[name] += len(out)
                    return out
                return wrapped
            return make

        def iota_table(orig):
            def count_entry(action):
                def wrapped(mon):
                    counts["modweyl.iota_expand_calls"] += 1
                    return action(mon)
                return wrapped

            def wrapped(diagram):
                table = orig(diagram)
                table.entries = {sym: count_entry(action)
                                 for sym, action in table.entries.items()}
                return table
            return wrapped

        self._patch(qscalar.ScalarQ, "__init__", scalar_init)
        self._patch(qscalar.LaurentPoly, "__mul__", laurent_mul)
        self._patch(qscalar.LaurentPoly, "__rmul__", laurent_mul)
        self._patch(opcalc.ActionTable, "act", table_act)
        self._patch(opcalc, "operator_equal_on_degrees", equal_on_degrees)
        self._patch(weyl, "weyl_relation_instances", instance_counter("weyl.instances"))
        self._patch(weyl, "uqsl_relation_instances", instance_counter("weyl.instances"))
        self._patch(iqg, "relation_instances", instance_counter("iqg.instances"))
        self._patch(modweyl, "iota_table", iota_table)

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    # -- attribution -------------------------------------------------------

    def _layer_of(self, key):
        filename = key[0]
        if filename.startswith(self.src_dir + os.sep):
            return os.path.splitext(os.path.basename(filename))[0]
        return None

    def _is_bench(self, key):
        return os.path.dirname(os.path.abspath(key[0])) == self.bench_dir

    def layer_times(self):
        """Self seconds per layer, external frames charged to their callers."""
        stats = pstats.Stats(self.profile).stats
        shares = {}

        def share(key, active):
            """Fractions of an external function's time owed to each layer."""
            if key in shares:
                return shares[key]
            layer = self._layer_of(key)
            if layer is not None:
                return {layer: 1.0}
            if self._is_bench(key) or key in active or key not in stats:
                return {}
            callers = stats[key][4]
            total = sum(edge[2] for edge in callers.values())
            out = Counter()
            if total > 0:
                active.add(key)
                for caller, edge in callers.items():
                    for lay, frac in share(caller, active).items():
                        out[lay] += frac * edge[2] / total
                active.discard(key)
            shares[key] = dict(out)
            return shares[key]

        times = Counter()
        for key, (_, _, tt, _, callers) in stats.items():
            layer = self._layer_of(key)
            if layer is not None:
                times[layer] += tt
            elif not self._is_bench(key):
                for caller, edge in callers.items():
                    for lay, frac in share(caller, set()).items():
                        times[lay] += frac * edge[2]
        return times, stats

    def metrics(self, stdout_bytes: int, overhead_ratio: float) -> dict:
        from qweyl import crystal, iqg, opcalc, satake
        times, stats = self.layer_times()

        def calls(func):
            entry = stats.get(_code_key(func))
            return entry[1] if entry else 0

        def cumulative(func):
            entry = stats.get(_code_key(func))
            return entry[3] if entry else 0.0

        values = {"%s.self_s" % layer: times.get(layer, 0.0) for layer in LAYERS}
        values.update(self.counts)
        act_calls = self.counts["opcalc.act_calls"]
        values["opcalc.act_reuse"] = (
            1.0 - len(self._act_keys) / act_calls if act_calls else 0.0)
        values["opcalc.apply_calls"] = calls(opcalc.apply)
        values["opcalc.expr_map_s"] = cumulative(opcalc.expr_map)
        values["iqg.oscillator_builds"] = calls(iqg.oscillator_action)
        values["satake.diagram_builds"] = calls(satake.build_diagram)
        values["crystal.kashiwara_calls"] = (calls(crystal.kashiwara_f)
                                             + calls(crystal.kashiwara_e))
        values["cli.stdout_bytes"] = stdout_bytes
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit in PER_LAYER_UNITS.items()}
