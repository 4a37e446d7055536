"""The three benchmark workloads and the case documents they feed the CLI.

Every case is one ``python -m bruhat_atlas`` invocation.  A case is a dict
with ``id`` (stable across seeds for the ladders), ``argv`` (arguments after
the global options) and, for generated cases, ``doc`` (the case document that
``argv`` points at once it is written to disk).
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("ladder-build", "ladder-verify", "many-strata")

# The preset ladder of the ROADMAP: enumeration of W dominates, the answer
# has at most seven strata.
LADDER_BUILD = (
    "siegel:2",
    "siegel:3",
    "siegel:4",
    "siegel:5",
    "siegel:6",
    "gu:3,3:inert",
    "gu:4,3:inert",
    "gu:4,4:split",
    "hilbert:6",
    "hilbert:8",
)

# The oracle dominates these; siegel:6 and gu:4,4:split are left out because
# their brute-force pass alone would take minutes.
LADDER_VERIFY = ("siegel:4", "siegel:5", "gu:3,3:inert", "gu:4,3:inert")

# Diagram automorphisms of each factor type used below, as permutations of
# the factor's own nodes.  In this repository's D4 the branch node is 1 and
# the leaves are 0, 2 and 3.
_D4_AUTS = (
    (0, 1, 2, 3),
    (0, 1, 3, 2),
    (2, 1, 0, 3),
    (2, 1, 3, 0),
    (3, 1, 0, 2),
    (3, 1, 2, 0),
)


def factor_automorphisms(letter: str, rank: int) -> tuple[tuple[int, ...], ...]:
    ident = tuple(range(rank))
    if letter == "A" and rank >= 2:
        return (ident, tuple(reversed(ident)))
    if letter == "D" and rank == 4:
        return _D4_AUTS
    return (ident,)


# many-strata shapes.  Each is a product of small factors, a Frobenius
# permutation on the concatenated nodes and a small or empty J, in a fixed
# canonical labelling.  They give tens to hundreds of strata each at a
# bounded cost (none took more than about a sixth of a pass when chosen),
# and together they feed every factor type A1-A4, B2, B3, C3 and D4, all
# three kinds of Frobenius (cycling identical factors, A-reversal, D4 fork
# swap), and fibers with more than one element (J not empty).  A seed only
# relabels them (see _relabel), so the work of a pass does not depend on it;
# an uncapped random draw over the same space cost fifty times more on some
# seeds than on others, which no bound on wall_s could absorb.
SHAPES = (
    # name, factors, frobenius, J
    ("B3xA3-rev-J", (("B", 3), ("A", 3)), (0, 1, 2, 5, 4, 3), (0,)),
    ("A3xA3-cycle", (("A", 3), ("A", 3)), (3, 4, 5, 0, 1, 2), ()),
    ("A4xA2-rev", (("A", 4), ("A", 2)), (3, 2, 1, 0, 5, 4), ()),
    ("B3xA2-rev", (("B", 3), ("A", 2)), (0, 1, 2, 4, 3), ()),
    ("D4xA2-fork-J", (("D", 4), ("A", 2)), (0, 1, 3, 2, 4, 5), (0,)),
    ("D4xA2-fork-rev-J", (("D", 4), ("A", 2)), (0, 1, 3, 2, 5, 4), (4,)),
    ("C3xA3-rev-J", (("C", 3), ("A", 3)), (0, 1, 2, 5, 4, 3), (2,)),
    ("A1xA3xA3-cycle-J", (("A", 1), ("A", 3), ("A", 3)), (0, 4, 5, 6, 1, 2, 3), (0,)),
    ("B2xB2xA2-cycle-rev", (("B", 2), ("B", 2), ("A", 2)), (2, 3, 0, 1, 5, 4), ()),
    ("A2xA2xA2-cycle", (("A", 2), ("A", 2), ("A", 2)), (2, 3, 4, 5, 0, 1), ()),
    ("D4-fork", (("D", 4),), (0, 1, 3, 2), ()),
    ("A4xA1xA1-rev-cycle-J", (("A", 4), ("A", 1), ("A", 1)), (3, 2, 1, 0, 5, 4), (1,)),
)


def ladder_cases(workload: str, seed: int) -> list[dict]:
    presets = LADDER_BUILD if workload == "ladder-build" else LADDER_VERIFY
    order = list(presets)
    random.Random(seed).shuffle(order)
    verify = ["--verify"] if workload == "ladder-verify" else []
    return [{"id": p, "argv": [*verify, "corpus", p]} for p in order]


def _relabel(rng: random.Random, factors, phi, J):
    """An isomorphic copy: shuffle the factors and apply a random diagram
    automorphism inside each, conjugating the Frobenius and moving J."""
    starts = []
    pos = 0
    for _, rank in factors:
        starts.append(pos)
        pos += rank
    order = list(range(len(factors)))
    rng.shuffle(order)
    new_start = {}
    pos = 0
    for f in order:
        new_start[f] = pos
        pos += factors[f][1]
    sigma = [0] * pos  # old node -> new node
    for f, (letter, rank) in enumerate(factors):
        tau = rng.choice(factor_automorphisms(letter, rank))
        for i in range(rank):
            sigma[starts[f] + i] = new_start[f] + tau[i]
    new_phi = [0] * pos
    for old, img in enumerate(phi):
        new_phi[sigma[old]] = sigma[img]
    new_factors = [factors[f] for f in order]
    return new_factors, new_phi, sorted(sigma[j] for j in J)


def many_strata_docs(seed: int) -> list[tuple[str, dict]]:
    """One randomly relabelled copy of every shape, in a seeded order."""
    rng = random.Random(seed)
    out = []
    for name, factors, phi, J in SHAPES:
        new_factors, new_phi, new_J = _relabel(rng, factors, phi, J)
        doc = {
            "group": {"factors": [{"type": t, "rank": r} for t, r in new_factors]},
            "frobenius": {"permutation": new_phi},
            "J": new_J,
        }
        out.append((name, doc))
    rng.shuffle(out)
    return out


def doc_bytes(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def many_strata_cases(seed: int) -> list[dict]:
    return [
        {"id": name, "doc": doc, "argv": ["atlas", f"{seed}-{name}.json"]}
        for name, doc in many_strata_docs(seed)
    ]


def cases_for(workload: str, seed: int) -> list[dict]:
    if workload == "many-strata":
        return many_strata_cases(seed)
    return ladder_cases(workload, seed)
