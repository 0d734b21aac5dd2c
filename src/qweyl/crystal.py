"""Divided-power basis, Kashiwara operators and crystal graphs.

Crystal combinatorics is available for the three ladder families whose
raising/lowering aliases run over colors 0..r: kinds I, III and A1AFF.
The divided monomial X^(a) is X^a divided by prod_i [a_i]^{xi_i}!; the
Kashiwara operators act through xi-deformed divided powers of the lowering
aliases and send divided monomials to divided monomials with coefficient
exactly 1 (or to zero), which is what the axiom checker asserts.  One walk
down each i-string gives all its images, one f_i letter per node.

A step reads f_i X^t as ``ActionTable.act``'s one step, a q-integer run,
and compares it with the run of the [xi_i e_i] it divides by: equal runs
are equal polynomials, so the coordinate is unchanged, with no product and
no gcd.  Any other run multiplies it by the ratio of the two, and every
defect is read from that.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Dict, Optional, Tuple

from .iqg import f_, oscillator_action
from .opcalc import ActionTable, Monomial, monomials_of_degree
from .qscalar import ScalarQ, factorial_steps, q_integer, q_product
from .satake import SatakeDiagram

CRYSTAL_KINDS = ("I", "III", "A1AFF")

_UNSUPPORTED_MSG = ("crystal bases are only constructed for the ladder "
                    "families I, III and A1AFF; kind %s is not supported")


MAX_CRYSTAL_NODES = 20_000  # a graph walks and prints every node


def _require_crystal_kind(diagram: SatakeDiagram):
    if diagram.kind not in CRYSTAL_KINDS:
        raise ValueError(_UNSUPPORTED_MSG % diagram.kind)


def _require_crystal_size(diagram: SatakeDiagram, s: int):
    """Refuse a degree s < 0, or one whose crystal has more than
    MAX_CRYSTAL_NODES nodes, the monomials of degree s, before any is built.
    A factored string step costs O(r), so the node bound bounds the work."""
    if s < 0:
        raise ValueError("degree s must be >= 0")
    if comb(s + diagram.r + 1, diagram.r + 1) > MAX_CRYSTAL_NODES:
        raise ValueError("crystal of %s at s = %d has more than %d nodes"
                         % (diagram.spec_string, s, MAX_CRYSTAL_NODES))


def _string_walk(diagram: SatakeDiagram, i: int, b: Monomial,
                 table: ActionTable):
    """Divided coordinates of f_i^{(n)_{xi_{i+1}}} X^(b), n = 0, 1, ...

    X^(b) heads an i-string (b_{i+1} = 0); e = b + n(e_{i+1} - e_i) is the
    expected target (slot i stops at 0).  Each step of ``table`` is one run,
    so f_i^n X^b is zero or one term, c X^t once divided by D(b)
    [n]^{xi_{i+1}}! / D(e), and its coordinate is c D(t) / D(e).  Each step
    multiplies c by the ratio of its run to [xi_i e_i], the one q-integer
    that quotient gains ([n]^{xi_{i+1}}! is D(e)'s slot i+1 factor; [0]
    divides nothing).  Equal runs are equal polynomials, so on a crystal c
    stays exactly 1 at t = e with no polynomial built.
    """
    xi, e, t, c, f_i = diagram.xi, b, b, ScalarQ.one(), f_(i)
    while True:
        yield {} if c is None else {
            t: c if t == e else
            ScalarQ(q_product(factorial_steps(xi, e, t), c.num),
                    q_product(factorial_steps(xi, t, e), c.den))}
        nxt = tuple(u - (j == i and u > 0) + (j == i + 1)
                    for j, u in enumerate(e))
        m = xi[i] * e[i]
        step = None if c is None else table.act(f_i, t)
        if step is None:
            c = None
        elif step != (nxt, 1 - abs(m), (m > 0) - (m < 0), abs(m)):
            t, lo, v, w = step      # its run is v q^(lo + w - 1) [w]
            run = q_integer(w)._term_mul(lo + w - 1, v)
            c = ScalarQ(c.num * run, c.den * q_integer(m) if m else c.den)
        else:
            t = nxt
        e = nxt


def _kashiwara_coords(diagram: SatakeDiagram, i: int, a: Monomial, n: int,
                      table: ActionTable) -> Dict[Monomial, ScalarQ]:
    """Apply f_i^{(n)_{xi_{i+1}}} to X^(a + a_{i+1}(e_i - e_{i+1})).

    A negative divided power is zero by convention, which makes the raising
    operator vanish at the weight boundary.  Else: step n of its string walk.
    """
    if n < 0:
        return {}
    b = tuple(e + (a[i + 1] if j == i else 0) - (a[i + 1] if j == i + 1 else 0)
              for j, e in enumerate(a))
    return next(islice(_string_walk(diagram, i, b, table), n, None))


def _closure(coords: Dict[Monomial, ScalarQ]):
    """(target, defect) of a Kashiwara image, zero or one term: target None
    for zero, defect None for coefficient 1, else the coefficient."""
    if not coords:
        return None, None
    (mon, c), = coords.items()
    return mon, None if c.is_one else str(c)


def kashiwara_f(diagram: SatakeDiagram, i: int, a: Monomial, *,
                table: ActionTable) -> Optional[Monomial]:
    """Lowering operator on divided monomials; None encodes zero.

    ``table`` is ``oscillator_action(diagram)``.
    """
    return _kashiwara(diagram, i, a, 1, table)


def kashiwara_e(diagram: SatakeDiagram, i: int, a: Monomial, *,
                table: ActionTable) -> Optional[Monomial]:
    """Raising operator on divided monomials; None encodes zero.

    ``table`` is ``oscillator_action(diagram)``.
    """
    return _kashiwara(diagram, i, a, -1, table)


def _kashiwara(diagram, i, a, step, table):
    _require_crystal_kind(diagram)
    if not 0 <= i <= diagram.r:
        raise ValueError("color %d out of range 0..%d" % (i, diagram.r))
    if len(a) != diagram.nslots:
        raise ValueError("exponent vector length %d != %d"
                         % (len(a), diagram.nslots))
    if any(x < 0 for x in a):
        raise ValueError("negative exponent in %r" % (a,))
    return _target(_kashiwara_coords(diagram, i, a, a[i + 1] + step, table))


def _target(coords):
    target, defect = _closure(coords)
    if defect is not None:
        raise ArithmeticError("Kashiwara image is not a basis vector with "
                              "coefficient 1: %r" % coords)
    return target


def combinatorial_rule(i: int, a: Monomial, direction: str) -> Optional[Monomial]:
    """Closed-form arrow rule; agrees with the operator definition everywhere.

    Lowering moves one unit from slot i to slot i+1 (zero when a_i = 0);
    raising moves it back (zero when a_{i+1} = 0).
    """
    if direction not in ("e", "f"):
        raise ValueError("direction must be 'e' or 'f', got %r" % direction)
    src, dst = (i, i + 1) if direction == "f" else (i + 1, i)
    if a[src] == 0:
        return None
    return tuple(e - (j == src) + (j == dst) for j, e in enumerate(a))


@dataclass(frozen=True)
class CrystalGraph:
    diagram_spec: str
    s: int
    nodes: Tuple[Monomial, ...]
    edges: Tuple[Tuple[Monomial, int, Monomial], ...]


def _string_steps(diagram: SatakeDiagram, nodes):
    """(a, i, e_coords, f_coords) for every node a and color i, in order.

    ``nodes`` decrease, so each i-string is met head first; its one live
    ``_string_walk`` takes one f_i letter per node and color.  f_coords is
    the walk's next step, e_coords the step before a ({} at a string head).
    """
    table = oscillator_action(diagram)
    walks = {}
    for a in nodes:
        for i in range(diagram.r + 1):
            key = (i, a[:i] + a[i + 2:])    # the i-string through a
            if not a[i + 1]:
                walk = _string_walk(diagram, i, a, table)
                walks[key] = walk, {}, next(walk)
            walk, e_coords, here = walks.pop(key)
            f_coords = next(walk)
            if a[i]:
                walks[key] = walk, here, f_coords
            yield a, i, e_coords, f_coords


def crystal_graph(diagram: SatakeDiagram, s: int) -> CrystalGraph:
    """Nodes are all exponent vectors of degree s; edges follow kashiwara_f.

    Nodes come in decreasing order, one f_i letter per node and color
    (``_string_steps``); the first defect in that order is raised.
    """
    _require_crystal_kind(diagram)
    _require_crystal_size(diagram, s)
    nodes = tuple(monomials_of_degree(diagram.nslots, s))
    edges = []
    for a, i, _, f_coords in _string_steps(diagram, nodes):
        b = _target(f_coords)
        if b is not None:
            edges.append((a, i, b))
    return CrystalGraph(diagram.spec_string, s, nodes, tuple(edges))


def crystal_axioms_check(diagram: SatakeDiagram, s: int) -> dict:
    """Exhaustive axiom audit over all divided monomials of degree s.

    Checks: operators land on a basis vector or zero with coefficient exactly
    1; the lowering/raising biconditional; weight steps of exactly
    e_{i+1} - e_i; agreement with the combinatorial rule; and the basis rank
    binomial(s+r+1, r+1).  The images come from ``_string_steps``.
    """
    _require_crystal_kind(diagram)
    _require_crystal_size(diagram, s)
    nodes = monomials_of_degree(diagram.nslots, s)
    report = {"diagram": diagram.spec_string, "s": s,
              "closure_ok": True, "b5_ok": True, "weight_ok": True,
              "rule_agreement_ok": True, "rank_ok": True, "failures": []}

    def fail(kind, detail):
        report[kind] = False
        report["failures"].append((kind, detail))

    fmap, emap = {}, {}
    for a, i, e_coords, f_coords in _string_steps(diagram, nodes):
        for direction, coords in (("f", f_coords), ("e", e_coords)):
            target, defect = _closure(coords)
            if defect is not None:
                fail("closure_ok", (direction, i, a, defect))
            (fmap if direction == "f" else emap)[i, a] = target
            if target is not None and direction == "f":
                step = tuple(t - u for t, u in zip(target, a))
                want = tuple((j == i + 1) - (j == i)
                             for j in range(diagram.nslots))
                if step != want:
                    fail("weight_ok", (i, a, target))
            if combinatorial_rule(i, a, direction) != target:
                fail("rule_agreement_ok", (direction, i, a, target))
    for (i, a), b in fmap.items():
        if b is not None and emap.get((i, b)) != a:
            fail("b5_ok", ("f then e", i, a, b))
    for (i, b), a in emap.items():
        if a is not None and fmap.get((i, a)) != b:
            fail("b5_ok", ("e then f", i, b, a))
    if len(nodes) != comb(s + diagram.r + 1, diagram.r + 1):
        fail("rank_ok", (len(nodes),))
    report["all_ok"] = not report["failures"]
    return report


_PALETTE = ("red", "blue", "forestgreen", "orange", "purple", "teal",
            "magenta", "olive")


def _edge_color(i: int) -> str:
    return _PALETTE[i % len(_PALETTE)]


def _node_name(mon: Monomial) -> str:
    if all(e <= 9 for e in mon):
        return "".join(str(e) for e in mon)
    return ",".join(str(e) for e in mon)


def export(graph: CrystalGraph, fmt: str) -> str:
    """Deterministic rendering to dot, json or tikz."""
    if fmt == "dot":
        return _export_dot(graph)
    if fmt == "json":
        return _export_json(graph)
    if fmt == "tikz":
        return _export_tikz(graph)
    raise ValueError("unknown export format %r" % fmt)


def _export_dot(graph: CrystalGraph) -> str:
    name = {mon: _node_name(mon) for mon in graph.nodes}
    lines = ["digraph crystal {"]
    for mon in graph.nodes:
        lines.append('  "%s";' % name[mon])
    for src, i, tgt in graph.edges:
        lines.append('  "%s" -> "%s" [color=%s, label="f~%d"];'
                     % (name[src], name[tgt], _edge_color(i), i))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _export_json(graph: CrystalGraph) -> str:
    obj = {
        "diagram": graph.diagram_spec,
        "s": graph.s,
        "nodes": [list(mon) for mon in graph.nodes],
        "edges": [{"i": i, "from": list(src), "to": list(tgt)}
                  for src, i, tgt in graph.edges],
    }
    return json.dumps(obj) + "\n"


def parse_json(text: str) -> CrystalGraph:
    obj = json.loads(text)
    nodes = tuple(tuple(mon) for mon in obj["nodes"])
    edges = tuple((tuple(e["from"]), e["i"], tuple(e["to"]))
                  for e in obj["edges"])
    return CrystalGraph(obj["diagram"], obj["s"], nodes, edges)


def _export_tikz(graph: CrystalGraph) -> str:
    name = {mon: _node_name(mon) for mon in graph.nodes}
    lines = ["\\begin{tikzpicture}[xscale=1.5,yscale=1.35]"]
    for mon in graph.nodes:
        x = sum(mon[1:-1])
        y = sum((len(mon) - 1 - j) * e for j, e in enumerate(mon))
        lines.append("  \\node at (%d,%d) (n%s) {$(%s)$};"
                     % (x, y, name[mon], name[mon]))
    for src, i, tgt in graph.edges:
        lines.append("  \\draw[thick,->,%s] (n%s) -- (n%s);"
                     % (_edge_color(i), name[src], name[tgt]))
    lines.append("\\end{tikzpicture}")
    return "\n".join(lines) + "\n"
