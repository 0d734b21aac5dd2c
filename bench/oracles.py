"""Output checks for benchmark items, written without calling qweyl.

``check`` returns None when a command's exit code and output are right, and
otherwise a one-line reason.  The checks read content, not whole-output
bytes: verify is judged by its RELATION lines and a recorded relation count,
crystal graphs are recomputed from the unit-move rule, and a ladder ``act``
must print exactly the coefficient its ``witness up`` printed.
"""

from __future__ import annotations

import json
import re
from itertools import combinations
from typing import Dict, Optional, Tuple

from workloads import SUITES, Item, down_word, nslots, spec_rank, up_word

# Relation instances per (diagram, suite), in SUITES order.  They do not
# depend on --max-degree.  Recorded from `qweyl verify` when this benchmark
# was written.
RELATION_COUNTS = {
    "I:r=0": (21, 5, 43, 9),
    "I:r=1": (45, 21, 91, 40),
    "I:r=2": (78, 48, 157, 95),
    "II:r=0": (21, 5, 43, 21),
    "II:r=1": (45, 21, 91, 64),
    "II:r=2": (78, 48, 157, 131),
    "III:r=1": (45, 21, 91, 40),
    "III:r=2": (78, 48, 157, 95),
    "A1AFF": (21, 5, 43, 9),
    "IV:r=0": (21, 5, 43, 21),
    "IV:r=1": (45, 21, 91, 64),
    "IV:r=2": (78, 48, 157, 131),
    "V:r=0": (21, 5, 43, 21),
    "V:r=1": (45, 21, 91, 64),
    "V:r=2": (78, 48, 157, 131),
    "VI:r=1": (45, 21, 91, 39),
    "VI:r=2": (78, 48, 157, 94),
}

# Edge colours of the dot/tikz exports, indexed by crystal colour i.
PALETTE = ("red", "blue", "forestgreen", "orange", "purple", "teal",
           "magenta", "olive")

Monomial = Tuple[int, ...]


def compositions(s: int, n: int):
    """All exponent vectors of n non-negative parts summing to s."""
    for bars in combinations(range(s + n - 1), n - 1):
        prev, parts = -1, []
        for b in bars:
            parts.append(b - prev - 1)
            prev = b
        parts.append(s + n - 2 - prev)
        yield tuple(parts)


def expected_crystal(spec: str, s: int):
    """Nodes and f-edges of the degree-s crystal: f_i moves a unit i -> i+1."""
    nodes = set(compositions(s, nslots(spec)))
    edges = set()
    for a in nodes:
        for i in range(spec_rank(spec) + 1):
            if a[i]:
                b = list(a)
                b[i] -= 1
                b[i + 1] += 1
                edges.add((a, i, tuple(b)))
    return nodes, edges


def _node(name: str, n: int) -> Monomial:
    parts = name.split(",") if "," in name else list(name)
    mon = tuple(int(p) for p in parts)
    if len(mon) != n:
        raise ValueError("node %r has %d parts, expected %d" % (name, len(mon), n))
    return mon


_DOT_NODE = re.compile(r'^\s*"([^"]+)";$')
_DOT_EDGE = re.compile(r'^\s*"([^"]+)" -> "([^"]+)" \[color=(\w+), label="f~(\d+)"\];$')
_TIKZ_NODE = re.compile(r'^\s*\\node at \(-?\d+,-?\d+\) \(n([^)]+)\) \{\$\(([^)]*)\)\$\};$')
_TIKZ_EDGE = re.compile(r'^\s*\\draw\[thick,->,(\w+)\] \(n([^)]+)\) -- \(n([^)]+)\);$')


def parse_crystal(text: str, fmt: str, n: int):
    """(node list, edge list) from a dot, json or tikz export."""
    nodes, edges = [], []
    if fmt == "json":
        obj = json.loads(text)
        nodes = [tuple(m) for m in obj["nodes"]]
        edges = [(tuple(e["from"]), e["i"], tuple(e["to"])) for e in obj["edges"]]
        return nodes, edges
    for line in text.splitlines():
        if fmt == "dot":
            m = _DOT_NODE.match(line)
            if m:
                nodes.append(_node(m.group(1), n))
                continue
            m = _DOT_EDGE.match(line)
            if m:
                i = int(m.group(4))
                if m.group(3) != PALETTE[i % len(PALETTE)]:
                    raise ValueError("edge colour %s for f~%d" % (m.group(3), i))
                edges.append((_node(m.group(1), n), i, _node(m.group(2), n)))
        else:
            m = _TIKZ_NODE.match(line)
            if m:
                if m.group(1) != m.group(2):
                    raise ValueError("tikz node label %r != name %r"
                                     % (m.group(2), m.group(1)))
                nodes.append(_node(m.group(1), n))
                continue
            m = _TIKZ_EDGE.match(line)
            if m:
                i = PALETTE.index(m.group(1))
                edges.append((_node(m.group(2), n), i, _node(m.group(3), n)))
    return nodes, edges


def _check_verify(item: Item, out: str) -> Optional[str]:
    suite = item.params[0]
    want = RELATION_COUNTS[item.spec][SUITES.index(suite)]
    relations = [line for line in out.splitlines() if line.startswith("RELATION ")]
    bad = [line for line in relations if not line.endswith(" OK")]
    if bad:
        return "relation not OK: %s" % bad[0]
    if len(relations) != want:
        return "%d RELATION lines, expected %d" % (len(relations), want)
    if not any(line.startswith("SUITE %s %s:" % (suite, item.spec))
               for line in out.splitlines()):
        return "no SUITE summary line for %s %s" % (suite, item.spec)
    return None


def _check_crystal(item: Item, out: str) -> Optional[str]:
    s, fmt = item.params
    try:
        nodes, edges = parse_crystal(out, fmt, nslots(item.spec))
    except (ValueError, KeyError, TypeError) as exc:
        return "unparsable %s export: %s" % (fmt, exc)
    want_nodes, want_edges = expected_crystal(item.spec, s)
    if len(nodes) != len(set(nodes)) or set(nodes) != want_nodes:
        return "nodes differ: %d parsed, %d expected" % (len(nodes), len(want_nodes))
    if len(edges) != len(set(edges)) or set(edges) != want_edges:
        missing = sorted(want_edges - set(edges))[:1]
        extra = sorted(set(edges) - want_edges)[:1]
        return "edges differ: missing %s, extra %s" % (missing, extra)
    return None


def _witness_lines(out: str):
    lines = [line for line in out.splitlines() if line.strip()]
    fields = {}
    for line in lines:
        key, sep, value = line.partition(": ")
        if sep and key in ("word", "coefficient"):
            fields[key] = value
    return lines, fields


def _check_witness(item: Item, out: str, state: Dict) -> Optional[str]:
    a = item.params[0]
    lines, fields = _witness_lines(out)
    if not lines or lines[-1] != "VERIFIED":
        return "witness not VERIFIED: %r" % (lines[-1] if lines else out)
    word = up_word(item.spec, a) if item.kind == "witness-up" else down_word(item.spec, a)
    if fields.get("word") != word:
        return "word %r, expected %r" % (fields.get("word"), word)
    if "coefficient" not in fields:
        return "no coefficient line"
    if item.kind == "witness-up":
        state[(item.spec, a)] = fields["coefficient"]
    return None


def _check_act(item: Item, out: str, state: Dict) -> Optional[str]:
    a = item.params[0]
    if (item.spec, a) not in state:
        return "no witness-up coefficient recorded before this act"
    want = "(%s)*X0^%d" % (state[(item.spec, a)], sum(a))
    got = out.strip()
    if got != want:
        return "act printed %.80r, expected %.80r" % (got, want)
    return None


def check(item: Item, rc: int, out: str, state: Dict) -> Optional[str]:
    """None if the command succeeded with correct output, else the reason.

    ``state`` carries witness coefficients from ``witness up`` items to the
    ``act`` items after them; pass the same dict for a whole run, in order.
    """
    if rc != 0:
        return "exit code %d" % rc
    if item.kind == "verify":
        return _check_verify(item, out)
    if item.kind == "crystal":
        return _check_crystal(item, out)
    if item.kind in ("witness-up", "witness-down"):
        return _check_witness(item, out, state)
    if item.kind == "act":
        return _check_act(item, out, state)
    return "unknown item kind %r" % item.kind
