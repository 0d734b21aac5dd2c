"""Seeded command lists for the three benchmark workloads.

Nothing here imports qweyl: a workload is a list of ``Item``s, each holding
the argv handed to ``qweyl.cli.main`` and what the oracle needs to check its
output.  A workload is a sequence of *rounds*.  Every round of a workload has
the same cost: the seed picks the order of the commands, the diagram kind of
the weyl and uqsl suites inside each rank class, the crystal export format
and the order of each ladder triple, none of which changes what the round
costs.  The benchmark only ever times whole rounds, so every seed times the
same mix of work.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Tuple

SUITES = ("weyl", "uqsl", "modweyl", "iqg")

# The 17 diagrams of the acceptance suite, grouped by rank r.  Within a group
# the weyl and uqsl suites cost the same for every kind (they only read r);
# modweyl and iqg costs differ by kind by up to a factor of two.
RANK_GROUPS = {
    0: ("I:r=0", "II:r=0", "IV:r=0", "V:r=0", "A1AFF"),
    1: ("I:r=1", "II:r=1", "III:r=1", "IV:r=1", "V:r=1", "VI:r=1"),
    2: ("I:r=2", "II:r=2", "III:r=2", "IV:r=2", "V:r=2", "VI:r=2"),
}

# verify-mix round: (rank, suites, degrees, copies per (suite, degree)).
# Cheap low-rank items outnumber the 1 s items so that a round holds 62
# commands in ~13 s; degree 4 is kept to rank 0, where it costs at most
# 0.6 s, and to the rank-1 weyl/uqsl suites.  The counts put the median
# inside the block of eight rank-0 weyl degree-4 items, which cost the same,
# instead of at a gap between two cost levels, where it would jump.
VERIFY_CLASSES = ((0, SUITES, (2, 3, 4), 4),
                  (1, SUITES, (2, 3), 1),
                  (1, ("weyl", "uqsl"), (4,), 1),
                  (2, SUITES, (2,), 1))

# crystal round: diagram -> the s values exported once per round.  The
# largest s of each diagram costs 0.3-0.6 s; s grows the divided-power
# coefficients, which is what sends work to the gcd path.  The 33 commands
# put the median and p90 on a cost level rather than in the gap between two.
CRYSTAL_SIZES = {
    "I:r=0": range(3, 10),
    "I:r=1": range(2, 7),
    "I:r=2": range(1, 6),
    "III:r=1": range(2, 7),
    "III:r=2": range(1, 6),
    "A1AFF": range(3, 9),
}
CRYSTAL_FORMATS = ("dot", "json", "tikz")

# ladder round: every diagram with raising/lowering witnesses (kind VI has
# none by design) at each of these degrees, on LADDER_PER_CLASS monomials.
LADDER_SPECS = ("I:r=0", "I:r=1", "I:r=2", "II:r=0", "II:r=1", "II:r=2",
                "III:r=1", "III:r=2", "A1AFF", "IV:r=0", "IV:r=1", "IV:r=2",
                "V:r=0", "V:r=1", "V:r=2")
LADDER_DEGREES = (6, 8, 10, 12)
LADDER_PER_CLASS = 2


class Item(NamedTuple):
    """One CLI command and the facts its oracle checks."""

    argv: Tuple[str, ...]
    kind: str            # "verify", "crystal", "witness-up", "witness-down", "act"
    spec: str
    params: Tuple = ()   # verify: (suite,); crystal: (s, fmt); ladder: (monomial,)


def spec_rank(spec: str) -> int:
    return 0 if spec == "A1AFF" else int(spec.split("r=")[1])


def spec_kind(spec: str) -> str:
    return spec.split(":")[0]


def nslots(spec: str) -> int:
    return spec_rank(spec) + 2


def _round_rng(workload: str, seed: int, round_index: int) -> random.Random:
    return random.Random("%s/%d/%d" % (workload, seed, round_index))


def _balanced(rng: random.Random, choices, n: int) -> list:
    """n picks that use every choice as evenly as possible, in seeded order."""
    pool = []
    while len(pool) < n:
        block = list(choices)
        rng.shuffle(block)
        pool.extend(block)
    pool = pool[:n]
    rng.shuffle(pool)
    return pool


def verify_round(rng: random.Random) -> List[Item]:
    """The weyl and uqsl suites take a seeded kind from the rank class (their
    cost depends on r alone); modweyl and iqg take a fixed rotation of the
    kinds, so that every round, whatever the seed, costs the same."""
    items = []
    for rank, suites, degrees, copies in VERIFY_CLASSES:
        group = RANK_GROUPS[rank]
        for suite in suites:
            slots = list(degrees) * copies
            if suite in ("weyl", "uqsl"):
                kinds = _balanced(rng, group, len(slots))
            else:
                offset = SUITES.index(suite)
                kinds = [group[(k + offset) % len(group)] for k in range(len(slots))]
            for d, spec in zip(slots, kinds):
                argv = ("verify", "--diagram", spec, "--suite", suite,
                        "--max-degree", str(d))
                items.append(Item(argv, "verify", spec, (suite,)))
    rng.shuffle(items)
    return items


def crystal_round(rng: random.Random) -> List[Item]:
    pairs = [(spec, s) for spec, sizes in CRYSTAL_SIZES.items() for s in sizes]
    formats = _balanced(rng, CRYSTAL_FORMATS, len(pairs))
    items = [Item(("crystal", "--diagram", spec, "--s", str(s),
                   "--format", fmt), "crystal", spec, (s, fmt))
             for (spec, s), fmt in zip(pairs, formats)]
    rng.shuffle(items)
    return items


def random_composition(rng: random.Random, s: int, n: int) -> Tuple[int, ...]:
    """A composition of s into n parts that is not s * e_0.

    X_0^s itself has empty witness words, which ``act`` rejects.
    """
    while True:
        cuts = sorted(rng.randint(0, s) for _ in range(n - 1))
        parts = tuple(b - a for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (s,)))
        if parts[0] < s:
            return parts


def up_word(spec: str, a: Tuple[int, ...]) -> str:
    """The raising word carrying X^a to X_0^s: slots emptied into slot 0.

    Kind V's ladder colours run 1..r+1 (its slot 0 is involution-fixed);
    every other kind's run 0..r.
    """
    r = spec_rank(spec)
    if spec_kind(spec) == "V":
        tokens = [["e%d" % i] * sum(a[i:]) for i in range(1, r + 2)]
    else:
        tokens = [["e%d" % i] * sum(a[i + 1:]) for i in range(r + 1)]
    return " ".join(t for group in tokens for t in group)


def down_word(spec: str, b: Tuple[int, ...]) -> str:
    """The lowering word carrying X_0^s to X^b, last slot filled first."""
    r, s = spec_rank(spec), sum(b)
    if spec_kind(spec) == "V":
        tokens = [["f%d" % i] * (s - sum(b[:i])) for i in range(r + 1, 0, -1)]
    else:
        tokens = [["f%d" % i] * (s - sum(b[:i + 1])) for i in range(r, -1, -1)]
    return " ".join(t for group in tokens for t in group)


def monomial_text(a: Tuple[int, ...]) -> str:
    factors = ["X%d" % i if e == 1 else "X%d^%d" % (i, e)
               for i, e in enumerate(a) if e]
    return "*".join(factors) if factors else "1"


def ladder_monomials():
    """The fixed ladder monomials: (diagram, exponent vector) pairs.

    They do not depend on the seed.  A command's cost varies up to fourfold
    between monomials of one diagram and degree, so seeded monomials would
    make the mean cost of a run depend on the seed by several percent.
    """
    rng = random.Random("ladder monomials")
    return [(spec, random_composition(rng, s, nslots(spec)))
            for spec in LADDER_SPECS for s in LADDER_DEGREES
            for _ in range(LADDER_PER_CLASS)]


def ladder_round(rng: random.Random) -> List[Item]:
    """Per ladder monomial: witness up, act with the up word, witness down.

    ``act`` always comes after its ``witness up`` in the sequence, because
    its oracle compares against the coefficient that command printed.
    """
    groups = []
    for spec, a in ladder_monomials():
        mon = ",".join(map(str, a))
        up = Item(("witness", "--diagram", spec, "--monomial", mon,
                   "--direction", "up"), "witness-up", spec, (a,))
        down = Item(("witness", "--diagram", spec, "--monomial", mon,
                     "--direction", "down"), "witness-down", spec, (a,))
        act = Item(("act", "--diagram", spec, "--word", up_word(spec, a),
                    "--poly", monomial_text(a)), "act", spec, (a,))
        order = [up, act]
        order.insert(rng.randint(0, 2), down)
        groups.append(order)
    rng.shuffle(groups)
    return [item for group in groups for item in group]


_ROUND_MAKERS = {"verify-mix": verify_round, "crystal": crystal_round,
                   "ladder": ladder_round}
WORKLOADS = tuple(_ROUND_MAKERS)


def make_round(workload: str, seed: int, round_index: int) -> List[Item]:
    """Round ``round_index`` of a workload; a pure function of its arguments."""
    if workload not in _ROUND_MAKERS:
        raise ValueError("unknown workload %r (expected one of %s)"
                         % (workload, ", ".join(WORKLOADS)))
    return _ROUND_MAKERS[workload](_round_rng(workload, seed, round_index))
