"""Frobenius orbits on double-coset representatives and the quotient poset.

The Galois group fixing a parabolic type J acts through the cyclic group
generated by phi^d, where d is the smallest power of the Frobenius diagram
symmetry fixing J.  Only that cyclic action on a finite set is ever needed.

The orbit order comes from one pass of lower sets over ^J W, the elements
with no left descent in J.  For w in ^J W and a right descent s of w, the
prefix ws is in ^J W (the set is closed under prefixes), and by the lifting
property x <= w iff min(x, xs) <= ws (Deodhar's property Z; Bjorner-Brenti,
"Combinatorics of Coxeter Groups", Prop. 2.2.7 and sections 2.4-2.5).  So

    down(w) = down(ws) | {ys : y in down(ws), s not in D_R(y), ys in ^J W},

where s is an ascent of y with ys in ^J W exactly when y(alpha_s) is not
among :meth:`WeylGroup.ascent_stops`, the test that grows ^J W.  Lower sets
are bitmasks over element uids, memoized along each representative's chain of
right-descent prefixes; orbit a is below orbit b when a member of a lies in
down(rep of b), read off the set bits of down(rep of b) through a table from
member uid to orbit.  The covering pairs are reduced once, on bitmasks.
"""

from __future__ import annotations

from itertools import compress

from .coxeter import WeylElement, WeylGroup
from .errors import ConsistencyError, InputError
from .rootdata import DiagramAutomorphism


def definition_degree(J, phi: DiagramAutomorphism) -> int:
    """Smallest d >= 1 with phi^d(J) = J; divides the order of phi."""
    J = frozenset(J)
    current = J
    for d in range(1, phi.order + 1):
        current = phi.apply_subset(current)
        if current == J:
            if phi.order % d:  # pragma: no cover
                raise ConsistencyError("stabilizer degree does not divide the order")
            return d
    raise ConsistencyError("phi^order fixed nothing")  # pragma: no cover


def galois_orbits(
    group: WeylGroup, elements: list[WeylElement], generator: DiagramAutomorphism
) -> list[list[WeylElement]]:
    """Partition ``elements`` into orbits of the cyclic group of ``generator``."""
    pool = set(elements)
    orbits = []
    for w in elements:
        if w not in pool:
            continue
        orbit = [w]
        pool.discard(w)
        current = group.apply_automorphism(generator, w)
        while current != w:
            if current not in pool:
                raise InputError(
                    "element set is not stable under the generator; "
                    "J/K bookkeeping is inconsistent"
                )
            orbit.append(current)
            pool.discard(current)
            current = group.apply_automorphism(generator, current)
        orbits.append(orbit)
    return orbits


class OrbitPoset:
    """Orbits of double-coset representatives with the induced Bruhat order.

    Orbit a lies below orbit b when some member of a sits below some member
    of b.  ``below[b]`` is that relation as a bitmask over orbit ids (bit a
    set when a <= b, bit b always set), and ``covers`` lists its covering
    pairs (a, b), sorted.  Orbits are sorted by (common length,
    representative word) and each representative is the member with the
    smallest reduced word.
    """

    __slots__ = ("orbits", "reps", "below", "covers")

    def __init__(
        self,
        orbits: list[list[WeylElement]],
        reps: list[WeylElement],
        below: tuple[int, ...],
        covers: tuple[tuple[int, int], ...],
    ):
        self.orbits = orbits
        self.reps = reps
        self.below = below
        self.covers = covers

    def __len__(self) -> int:
        return len(self.orbits)

    def leq(self, a: int, b: int) -> bool:
        return bool(self.below[b] >> a & 1)

    def ids_below(self, b: int) -> list[int]:
        """The orbits a <= b, in increasing order."""
        return _bits(self.below[b])


# binary digits "0"/"1" as bytes 0/1, so that compress can select by them
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, increasing: one C-level scan of
    its binary digits, least significant first."""
    digits = bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)
    return list(compress(range(len(digits)), digits))


def lower_sets(group: WeylGroup, tops: list[WeylElement], J) -> dict[int, int]:
    """For each w in ``tops`` (all in ^J W), the elements of ^J W below w,
    as a bitmask over element uids; keyed by uid.

    Walks down a chain of right-descent prefixes, which stay in ^J W, and
    builds each lower set from the one below it by the lifting rule in the
    module docstring.  Lower sets of prefixes are shared between tops.  Every
    product formed lies in ^J W, so once ^J W has been grown nothing new is
    interned.
    """
    stops = group.ascent_stops(J)
    N = group.N
    identity = group.identity
    down = {identity.uid: 1 << identity.uid}
    by_uid = {identity.uid: identity}
    for top in tops:
        chain = []
        w = top
        while w.uid not in down:
            s = next(i for i, r in enumerate(w.key) if r >= N)  # smallest right descent
            chain.append((w, s))
            w = group.right_mul(w, s)
        mask = down[w.uid]
        for w, s in reversed(chain):
            grown = mask
            for uid in _bits(mask):
                y = by_uid[uid]
                if y.key[s] not in stops:
                    ys = group.right_mul(y, s)
                    by_uid[ys.uid] = ys
                    grown |= 1 << ys.uid
            down[w.uid] = mask = grown
    return {top.uid: down[top.uid] for top in tops}


def _covers(below: list[int]) -> list[tuple[int, int]]:
    """Covering pairs of a partial order given as down-set bitmasks; raises
    ConsistencyError unless the relation is antisymmetric."""
    out = []
    for b, mask in enumerate(below):
        strict = mask & ~(1 << b)
        reach = 0
        for c in _bits(strict):
            if below[c] >> b & 1:
                raise ConsistencyError(
                    f"orbit order is not antisymmetric between {c} and {b}"
                )
            reach |= below[c] & ~(1 << c)
        out.extend((a, b) for a in _bits(strict & ~reach))
    out.sort()
    return out


def orbit_poset(group: WeylGroup, orbits: list[list[WeylElement]], J) -> OrbitPoset:
    """Quotient the Bruhat order on ^J W by the orbit partition."""
    J = group.check_subset(J)
    for orbit in orbits:
        if len({w.length for w in orbit}) != 1:  # pragma: no cover
            raise ConsistencyError("orbit members have distinct lengths")
        for w in orbit:
            if w.left_descents & J:
                raise InputError(
                    f"orbit member {group.reduced_word(w)} has a left descent "
                    f"in J={sorted(J)}"
                )
    ordered = [sorted(orbit, key=group.reduced_word) for orbit in orbits]
    ordered.sort(key=lambda o: (o[0].length, group.reduced_word(o[0])))
    reps = [o[0] for o in ordered]
    down = lower_sets(group, reps, J)
    orbit_of = {w.uid: a for a, orbit in enumerate(ordered) for w in orbit}
    members = sum(1 << uid for uid in orbit_of)
    # equivariance of the action lets one side be pinned to the rep
    below = []
    for rep in reps:
        mask = 0
        for uid in _bits(down[rep.uid] & members):
            mask |= 1 << orbit_of[uid]
        below.append(mask)
    return OrbitPoset(ordered, reps, tuple(below), tuple(_covers(below)))
