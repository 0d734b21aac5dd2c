"""Quasi-split Satake diagram data: nodes, pairing, involution, xi, varsigma.

Six diagram families are supported.  Kinds I and II are paths, III through VI
are cycles, and A1AFF is the rank-one affine diagram (two nodes joined by a
double bond, swapped by the involution).  The six shapes come from one rule:
a kind fixes its node count, path or cycle, and one of two involutions.  Each
diagram carries the deformation exponents xi (one per polynomial variable,
at the smaller node of each orbit) and the scalar parameters varsigma used
by the coideal presentation.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, NamedTuple, Tuple

from .qscalar import ScalarQ

KINDS = ("I", "II", "III", "A1AFF", "IV", "V", "VI")

# Minimal r per kind; A1AFF takes no r at all.
_MIN_R = {"I": 0, "II": 0, "III": 1, "IV": 0, "V": 0, "VI": 1}

MAX_RANK = 64  # every suite, table and word grows with r


class SatakeDiagram(NamedTuple):
    """An immutable diagram.  Equality reads every field; the hash reads
    kind, r, nodes, edges and xi, the fields that hold no dict."""

    kind: str
    r: int
    nodes: Tuple[int, ...]
    edges: FrozenSet[FrozenSet[int]]
    tau: Dict[int, int]
    xi: Tuple[int, ...]
    varsigma: Dict[int, ScalarQ]

    def __hash__(self):
        return hash((self.kind, self.r, self.nodes, self.edges, self.xi))

    @property
    def nslots(self) -> int:
        """Number of polynomial variables, one per orbit of tau (two on
        A1AFF)."""
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
        return self._replace(xi=tuple(xi))

    def with_varsigma(self, node: int, value: ScalarQ) -> "SatakeDiagram":
        """Copy with one varsigma parameter overridden (mutation testing)."""
        return self._replace(varsigma={**self.varsigma, node: value})


# Per kind: node count - 2r, whether the nodes close into a cycle, and
# whether tau is i -> -i mod n, which fixes node 0 (and node r + 1 of VI),
# rather than i -> n - 1 - i.
_SHAPES = {"I": (4, False, False), "II": (3, False, False),
           "III": (4, True, False), "IV": (3, True, False),
           "V": (3, True, True), "VI": (2, True, True)}

# varsigma of a node, keyed by its pairing with its partner, or "wrap" for
# the orbit {0, n - 1} that closes the cycle of III and IV: the orbit's
# smaller node takes the first component.  Under the coideal embedding
# B_n -> F_j + varsigma_n E_{tau j} K_j^-1, H_n -> K_j K_{tau j}^-1 into
# the classical q-Weyl algebra (chi, cyclic on III-VI and A1AFF), every
# relation of ``iqg.relation_instances`` holds with these values, and any
# one node's varsigma set to -q^-3 in the relations alone breaks exactly
# two; the tests check the first at r <= 4 and the second at r <= 2.  A
# ScalarQ is immutable, so every diagram shares these.
_Q = ScalarQ.q_power(1)
_VARSIGMA = {2: (ScalarQ.q_power(-1),) * 2, 0: (ScalarQ.one(),) * 2,
             -1: (_Q, ScalarQ.one()), -2: (_Q, _Q),
             "wrap": (ScalarQ.q_power(-2), ScalarQ.q_power(3))}


def build_diagram(kind: str, r: int = None) -> SatakeDiagram:
    """Construct a fully populated diagram for the given family and rank:
    xi is 1 minus the pairing of each orbit's two nodes, and varsigma is
    read off ``_VARSIGMA`` by the same pairing."""
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
    edges = frozenset([frozenset((i, (i + 1) % n))
                       for i in range(n if cycle else n - 1)])
    tau, xi, varsigma = {}, [None] * (r + 2), {}
    for i in nodes:
        j = tau[i] = -i % n if fixes_0 else n - 1 - i
        gap = abs(i - j)
        wrap = cycle and gap == n - 1
        pair = 2 if not gap else -1 if gap == 1 or wrap else 0
        xi[min(i, j)] = 1 - pair
        varsigma[i] = _VARSIGMA["wrap" if wrap else pair][j < i]
    return SatakeDiagram(kind, r, nodes, edges, tau, tuple(xi), varsigma)


def _build_a1aff() -> SatakeDiagram:
    # The involution has a single orbit, but the ring keeps two variables with
    # the explicit per-variable exponents (1, 3).
    return SatakeDiagram("A1AFF", 0, (0, 1), frozenset({frozenset((0, 1))}),
                         {0: 1, 1: 0}, (1, 3),
                         dict.fromkeys((0, 1), _VARSIGMA[-2][0]))


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
