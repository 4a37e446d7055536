"""Frobenius orbits on double-coset representatives and the quotient poset.

The Galois group fixing a parabolic type J acts through the cyclic group
generated by phi^d, where d is the smallest power of the Frobenius diagram
symmetry fixing J.  Only that cyclic action on a finite set is ever needed.
Each orbit comes sorted by reduced word, so its first member represents it.
The orbits are held once, by the atlas's strata; :class:`OrbitPoset` holds
only the order on their positions, as bitmasks.

The orbit order comes from one forward pass over ^J W, the elements with no
left descent in J, in the length order :meth:`WeylGroup.ascend` grows it in,
along the steps it kept on each element; the pass forms no element.
Let w be reached first as w = us, an ascent of u inside ^J W (coordinate s of
u's weight positive).  Every element of ^J W below w lies below some member
of the generating set

    gens(w) = {u} | {ys : y in gens(u), ys an ascent of y inside ^J W},

with gens(e) empty.  Indeed, take x in ^J W with x < w and x not <= u.  By
the lifting property (Bjorner-Brenti, "Combinatorics of Coxeter Groups",
Prop. 2.2.7) xs < x and xs < u, so xs <= y for some y in gens(u); then
x <= max(y, ys), and x <= ys with ys in ^J W, since otherwise the projection
onto ^J W, which preserves the order (section 2.5), gives x <= y < u.  So
down(w) = bits(w) | the union of down(y) over y in gens(w).  Each bit is a
caller's label: an orbit id for the closure order, an element's index for
element-wide intervals.  The covering pairs are reduced once, on bitmasks.
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter

from .coxeter import WeylElement, WeylGroup
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
    :func:`atlas.eo_fibers` keys it, that member is the orbit's least, so it
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


def lower_sets(
    group: WeylGroup, J, bits: dict[WeylElement, int]
) -> dict[WeylElement, int]:
    """down(w) for every w in ^J W: the OR of ``bits.get(x, 0)`` over the x in
    ^J W with x <= w, keyed by element.

    One pass over ^J W in length order carries each element's generating set
    (module docstring), at most length(w) elements, and drops it once
    down(w) is formed.  It reads only the steps that ``ascend`` kept, so
    beyond growing ^J W once it forms and interns nothing.
    """
    nodes = range(group.n)
    jw = group.ascend(J)
    gens = {jw[0]: ()}
    down = {}
    for u in jw:
        lower = gens.pop(u)
        mask = bits.get(u, 0)
        for y in lower:
            mask |= down[y]
        down[u] = mask
        weight, steps = u.weight, u.steps
        for s in nodes:
            # the first u to reach w = us fixes gens(w)
            if weight[s] > 0 and (w := steps[s]) not in gens:
                gens[w] = (u, *[y.steps[s] for y in lower if y.weight[s] > 0])
    return down


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
