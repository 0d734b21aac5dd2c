"""Quasi-split Satake diagram data: nodes, Cartan pairing, involution, labels.

Six diagram families are supported.  Kinds I and II are paths, III through VI
are cycles, and A1AFF is the rank-one affine diagram (two nodes joined by a
double bond, swapped by the involution).  The six shapes come from one rule:
a kind fixes its node count, path or cycle, and one of two involutions.  Each diagram carries the orbit
labelling of its nodes, the deformation exponents xi (one per polynomial
variable) and the scalar parameters varsigma used by the coideal presentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, Tuple

from .qscalar import ScalarQ

KINDS = ("I", "II", "III", "A1AFF", "IV", "V", "VI")

# Minimal r per kind; A1AFF takes no r at all.
_MIN_R = {"I": 0, "II": 0, "III": 1, "IV": 0, "V": 0, "VI": 1}

MAX_RANK = 64  # every suite, table and word grows with r


@dataclass(frozen=True)
class SatakeDiagram:
    kind: str
    r: int
    nodes: Tuple[int, ...]
    edges: FrozenSet[FrozenSet[int]]
    tau: Dict[int, int] = field(hash=False)
    orbit_label: Dict[int, int] = field(hash=False)
    xi: Tuple[int, ...] = ()
    varsigma: Dict[int, ScalarQ] = field(default_factory=dict, hash=False)

    @property
    def nslots(self) -> int:
        """Number of polynomial variables (= orbit labels)."""
        return self.r + 2

    def pairing(self, i: int, j: int) -> int:
        """Cartan pairing: 2 on the diagonal, -k for k connecting bonds."""
        if i not in self.tau or j not in self.tau:
            raise ValueError("node out of range: %r" % ((i, j),))
        if i == j:
            return 2
        if frozenset((i, j)) in self.edges:
            return -2 if self.kind == "A1AFF" else -1
        return 0

    @property
    def spec_string(self) -> str:
        if self.kind == "A1AFF":
            return "A1AFF"
        return "%s:r=%d" % (self.kind, self.r)

    def with_xi(self, slot: int, value: int) -> "SatakeDiagram":
        """Copy with one deformation exponent overridden (mutation testing)."""
        xi = list(self.xi)
        xi[slot] = value
        return replace(self, xi=tuple(xi))

    def with_varsigma(self, node: int, value: ScalarQ) -> "SatakeDiagram":
        """Copy with one varsigma parameter overridden (mutation testing)."""
        vs = dict(self.varsigma)
        vs[node] = value
        return replace(self, varsigma=vs)


# Per kind: node count - 2r, whether the nodes close into a cycle, and
# whether tau is i -> -i mod n, which fixes node 0 (and node r + 1 of VI),
# rather than i -> n - 1 - i.
_SHAPES = {"I": (4, False, False), "II": (3, False, False),
           "III": (4, True, False), "IV": (3, True, False),
           "V": (3, True, True), "VI": (2, True, True)}


def build_diagram(kind: str, r: int = None) -> SatakeDiagram:
    """Construct a fully populated diagram for the given family and rank."""
    if kind not in KINDS:
        raise ValueError("unknown diagram kind %r" % kind)
    if kind == "A1AFF":
        if r is not None:
            raise ValueError("A1AFF takes no rank parameter")
        return _build_a1aff()
    if r is None or r < _MIN_R[kind]:
        raise ValueError("kind %s needs r >= %d, got %r" % (kind, _MIN_R[kind], r))
    if r > MAX_RANK:
        raise ValueError("rank r = %d of kind %s is above %d"
                         % (r, kind, MAX_RANK))

    extra, cycle, fixes_0 = _SHAPES[kind]
    n = 2 * r + extra
    nodes = tuple(range(n))
    edges = {frozenset((i, (i + 1) % n)) for i in range(n if cycle else n - 1)}
    tau = {i: -i % n if fixes_0 else n - 1 - i for i in nodes}
    orbit_label = {i: min(i, tau[i]) for i in nodes}
    d = SatakeDiagram(kind, r, nodes, frozenset(edges), tau, orbit_label)
    xi = [None] * (r + 2)
    for i in nodes:
        xi[orbit_label[i]] = 1 - d.pairing(i, tau[i])
    return replace(d, xi=tuple(xi), varsigma=_varsigma_map(d))


def _build_a1aff() -> SatakeDiagram:
    nodes = (0, 1)
    edges = frozenset({frozenset((0, 1))})
    tau = {0: 1, 1: 0}
    # The involution has a single orbit, but the ring keeps two variables with
    # the explicit per-variable exponents (1, 3); labels are per node.
    orbit_label = {0: 0, 1: 1}
    d = SatakeDiagram("A1AFF", 0, nodes, edges, tau, orbit_label, (1, 3))
    return replace(d, varsigma=_varsigma_map(d))


def _varsigma_map(d: SatakeDiagram) -> Dict[int, ScalarQ]:
    """varsigma per node, keyed by the pairing of a node with its partner.

    The orbit representative (the node equal to its orbit label) receives the
    first component of each pair.  For the double-bond orbit both components
    are q: that is the unique assignment under which the coideal relations
    are satisfied by the differential-operator realization, which is how the
    parameters are validated here.
    """
    q = ScalarQ.q_power
    out: Dict[int, ScalarQ] = {}
    for i in d.nodes:
        j = d.tau[i]
        p = d.pairing(i, j)
        rep = i == 0 if d.kind == "A1AFF" else d.orbit_label[i] == i
        if p == 2:
            out[i] = q(-1)
        elif p == 0:
            out[i] = ScalarQ.one()
        elif p == -1:
            out[i] = q(1) if rep else ScalarQ.one()
        else:  # p == -2, the double bond
            out[i] = q(1)
    return out


def integer(text: str) -> int:
    """The command line's one integer rule: ASCII digits after an optional
    '-', so no '+', '_', space or other digit; a ValueError otherwise."""
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise ValueError("not an integer: %r" % text)
    return int(text)


def parse_spec(text: str) -> SatakeDiagram:
    """Parse a diagram spec string such as ``I:r=2`` or ``A1AFF``."""
    text = text.strip()
    if text == "A1AFF":
        return build_diagram("A1AFF")
    if ":" not in text:
        raise ValueError("bad diagram spec %r (expected e.g. I:r=2)" % text)
    kind, _, rpart = text.partition(":")
    if not rpart.startswith("r="):
        raise ValueError("bad diagram spec %r (expected e.g. I:r=2)" % text)
    try:
        r = integer(rpart[2:])
    except ValueError:
        raise ValueError("bad rank in diagram spec %r" % text)
    return build_diagram(kind, r)
