"""Frobenius orbits on double-coset representatives and the quotient poset.

The Galois group fixing a parabolic type J acts through the cyclic group
generated by phi^d, where d is the smallest power of the Frobenius diagram
symmetry fixing J.  Only that cyclic action on a finite set is ever needed.
Each orbit comes sorted by reduced word, so its first member represents it.
The orbits are held once, by the atlas's strata; :class:`OrbitPoset` holds
only the order on their positions, as bitmasks.

The orbit order is read off :func:`coxeter.lower_sets`, the one Bruhat
order, with each element's bit its orbit's id, so the down-sets are bitmasks
over orbit ids; the covering pairs are reduced once, on those bitmasks.  This
module reads no element's weight or steps: it forms the orbits with
:meth:`WeylGroup.apply_automorphism` and reads elements by word and length.
"""

from operator import attrgetter

from .coxeter import WeylElement, WeylGroup, lower_sets
from .errors import ConsistencyError
from .rootdata import DiagramAutomorphism, Record


def definition_degree(J, phi: DiagramAutomorphism) -> int:
    """Smallest d >= 1 with phi^d(J) = J.  phi permutes the subsets of a
    finite set, so the loop ends, and d divides the order of phi."""
    J = frozenset(J)
    current, d = phi.apply_subset(J), 1
    while current != J:
        current, d = phi.apply_subset(current), d + 1
    return d


def galois_orbits(
    group: WeylGroup, elements: list[WeylElement], generator: DiagramAutomorphism
) -> list[list[WeylElement]]:
    """Partition ``elements`` into orbits of the cyclic group of ``generator``,
    each orbit sorted by reduced word and met at its first member in
    ``elements``.  Given ^J W^K in (length, reduced word) order, as
    :func:`coxeter.eo_fibers` keys it, that member is the orbit's least, so it
    stays first and represents the orbit, and the orbits come in (length,
    representative word) order."""
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
                raise ConsistencyError(
                    "element set is not stable under the generator: the image "
                    f"{list(current.word)} of {list(orbit[-1].word)} is not among the "
                    "elements left; J/K bookkeeping is inconsistent"
                )
            orbit.append(current)
            pool.discard(current)
            current = group.apply_automorphism(generator, current)
        orbits.append(sorted(orbit, key=attrgetter("word")))
    return orbits


class OrbitPoset(Record):
    """The Bruhat order induced on orbits of double-coset representatives.

    Orbit a lies below orbit b when some member of a sits below some member
    of b.  ``below[b]`` is that relation as a bitmask over orbit ids, the
    positions of the orbits :func:`orbit_poset` was given (bit a set when
    a <= b, bit b always set), and ``covers`` lists its covering pairs
    (a, b), sorted.  The orbits themselves are the caller's.
    """

    __slots__ = ("below", "covers")

    def __len__(self) -> int:
        return len(self.below)

    def leq(self, a: int, b: int) -> bool:
        return bool(self.below[b] >> a & 1)


def _covers(below: list[int]) -> list[tuple[int, int]]:
    """Covering pairs of a partial order given as down-set bitmasks over ids
    sorted by length; raises ConsistencyError when a mask has a bit above its
    own id or lacks its own bit.  Each strict down-set is walked from its
    highest id down, and each cover found removes the mask below it."""
    out = []
    for b, mask in enumerate(below):
        if mask >> b != 1:
            raise ConsistencyError(
                f"orbit {mask.bit_length() - 1} is below orbit {b} in the "
                "closure order, which is not length-graded"
            )
        rest = mask ^ (1 << b)
        while rest:
            c = rest.bit_length() - 1
            out.append((c, b))
            rest &= ~below[c]
    out.sort()
    return out


def orbit_poset(group: WeylGroup, orbits: list[list[WeylElement]], J) -> OrbitPoset:
    """Quotient the Bruhat order on ^J W by the orbit partition, the orbits
    taken as given: in length order, each represented by its first member.
    ``_covers`` refuses an order in which an orbit lies below one listed
    before it."""
    for orbit in orbits:
        for w in orbit:
            if w.length != orbit[0].length:
                raise ConsistencyError(
                    f"orbit members have distinct lengths: {list(w.word)} has length "
                    f"{w.length}, {list(orbit[0].word)} has length {orbit[0].length}"
                )
    # equivariance of the action lets one side be pinned to the rep
    down = lower_sets(group, J, {w: 1 << a for a, o in enumerate(orbits) for w in o})
    below = [down[orbit[0]] for orbit in orbits]
    return OrbitPoset(tuple(below), tuple(_covers(below)))
