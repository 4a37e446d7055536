"""Stratification atlases: strata, dimensions, closures, fibers, ordinarity.

An input case is a classical diagram, a Frobenius diagram symmetry, and either
a cocharacter pairing vector or the parabolic type J directly.  The atlas
lists one record per Frobenius orbit of minimal double-coset representatives,
carrying the orbit, its least member as representative, the stratum dimension
and the finer fiber decomposition.  The strata are the one holder of the
orbits; the orbit poset holds the closure relation as bitmasks over stratum
ids, and the mu-ordinarity verdict is one boolean, phi(J) = J.

This module assembles: it derives J and K, takes ^J W and the fibers from
:mod:`coxeter` (:func:`coxeter.eo_fibers`) and the orbits and their poset
from :mod:`galois`, and checks the dimensions against them.  It reads no
element's weight or steps.
"""

from __future__ import annotations

from .coxeter import WeylElement, WeylGroup, DEFAULT_BOUND, check_bound, eo_fibers
from .errors import ConsistencyError, InputError
from .galois import definition_degree, galois_orbits, orbit_poset
from .rootdata import (
    CocharSpec,
    DiagramAutomorphism,
    DynkinSpec,
    Record,
    Value,
    cartan_from_spec,
    pairing,
    validate_automorphism,
)


class PELCase(Value):
    """A full input: diagram, Frobenius symmetry, and mu-pairings or J."""

    __slots__ = ("spec", "phi", "mu", "J", "minuscule_check", "element_bound")

    def __init__(
        self,
        spec: DynkinSpec,
        phi: DiagramAutomorphism,
        mu: CocharSpec | None = None,
        J: frozenset[int] | None = None,
        minuscule_check: bool = True,
        element_bound: int = DEFAULT_BOUND,
    ):
        super().__init__(spec, phi, mu, J, minuscule_check, element_bound)
        if (mu is None) == (J is None):
            raise InputError("exactly one of mu and J must be given")
        check_bound(element_bound, spec.rank)


class StratumRecord(Record):
    """One stratum's independent data; the writers derive the rest as they write."""

    __slots__ = ("orbit", "dim", "eo_fiber", "siegel_a")

    @property
    def rep(self) -> WeylElement:
        """The representative: the least member of the orbit, which comes
        first in the orbit and, as the minimum of its double coset, first in
        the fiber."""
        return self.orbit[0]


class Atlas(Record):
    """A case's strata in (length, representative word) order, the closure
    order on their ids, and ``mu_ordinary``, the boolean phi(J) = J."""

    __slots__ = (
        "case",
        "J",
        "K",
        "degree",
        "moduli_dim",
        "strata",
        "orbit_poset",
        "mu_ordinary",
        "group",
        "notes",
    )


def derive_J(group: WeylGroup, mu: CocharSpec, minuscule_check: bool = True):
    """J = indices where the pairing vector vanishes, optionally checked minuscule."""
    if len(mu.pairings) != group.n:
        raise InputError(
            f"pairing vector has length {len(mu.pairings)}, diagram rank {group.n}"
        )
    if minuscule_check:
        for root in group.pos_roots:
            value = pairing(mu, root)
            if value not in (0, 1):
                raise InputError(
                    f"cocharacter is not minuscule: root {root} pairs to {value}"
                )
    return frozenset(i for i, m in enumerate(mu.pairings) if m == 0)


def derive_K(group: WeylGroup, J, phi: DiagramAutomorphism):
    """K = opposition applied to the Frobenius image of J."""
    J = group.check_subset(J)
    return group.opposition(phi.apply_subset(J))


def moduli_dimension(group: WeylGroup, J) -> int:
    """length(w0) - length(w0 of J): the relative dimension available to strata."""
    return group.parabolic(range(group.n))[1] - group.parabolic(J)[1]


def stratum_dimension(x: WeylElement, Jx, K, longest) -> int:
    """length(x) + length(w0 of K) - length(w0 of J_x), the length of the
    longest element x w0(J_x) w0(K) of the fiber of x, for ``Jx =
    group.induced_subset(x, J, K)`` (Bjorner-Brenti, section 2.4).
    ``longest`` maps a subset to the length of its longest element."""
    return x.length + longest(K) - longest(Jx)


def _siegel_genus(case: PELCase, J, K) -> int | None:
    """Genus when the case has the principally polarized shape, else None."""
    if len(case.spec.factors) != 1 or not case.phi.is_identity or J != K:
        return None
    letter, rank = case.spec.factors[0]
    if letter == "A" and rank == 1 and J == frozenset():
        return 1
    if letter == "C" and J == frozenset(range(rank - 1)):
        return rank
    return None


def siegel_dimension(g: int, i: int) -> int:
    return (g * (g + 1) - i * (i + 1)) // 2


def build_atlas(case: PELCase) -> Atlas:
    """Assemble the complete stratification atlas for one input case."""
    notes: list[str] = []
    cartan = cartan_from_spec(case.spec)
    phi = validate_automorphism(case.phi.perm, cartan)
    group = WeylGroup(cartan, case.element_bound)

    if case.mu is not None:
        J = derive_J(group, case.mu, case.minuscule_check)
        if not case.minuscule_check and any(
            pairing(case.mu, root) not in (0, 1) for root in group.pos_roots
        ):
            notes.append("cocharacter is not minuscule; atlas computed from J only")
    else:
        J = group.check_subset(case.J)

    K = derive_K(group, J, phi)
    degree = definition_degree(J, phi)
    generator = phi.power(degree)
    if generator.apply_subset(J) != J or generator.apply_subset(K) != K:
        raise ConsistencyError("stabilized types are not fixed by phi^d")

    left_reps = group.ascend(J)
    fibers = eo_fibers(group, J, K)
    orbits = galois_orbits(group, list(fibers), generator)
    poset = orbit_poset(group, orbits, J)

    moduli_dim = moduli_dimension(group, J)
    genus = _siegel_genus(case, J, K)

    Jxs = [group.induced_subset(orbit[0], J, K) for orbit in orbits]
    # |W_S| and N_S once for each distinct subset the strata read, not per
    # stratum: each is one pass over the positive roots
    orders, longest = {}, {}
    for S in {K, *Jxs}:
        orders[S], longest[S] = group.parabolic(S)

    strata: list[StratumRecord] = []
    for orbit, Jx in zip(orbits, Jxs):
        rep = orbit[0]
        dim = stratum_dimension(rep, Jx, K, longest.__getitem__)
        fiber = fibers[rep]
        # the fiber is sorted by length and has one longest element, of
        # length dim, and |W_K| / |W_{J_x}| elements
        one_top = fiber[-1].length == dim and (len(fiber) == 1 or fiber[-2].length < dim)
        if not one_top or len(fiber) * orders[Jx] != orders[K]:
            raise ConsistencyError(
                "top element, fiber and dimension formulas disagree at "
                f"{list(rep.word)}"
            )
        siegel_a = None
        if genus is not None:
            matches = [i for i in range(genus + 1) if siegel_dimension(genus, i) == dim]
            if len(matches) != 1:
                raise ConsistencyError("dimension does not match a unique a-number")
            siegel_a = matches[0]
        strata.append(StratumRecord(orbit, dim, fiber, siegel_a))

    _assert_atlas_invariants(strata, poset.below, left_reps, moduli_dim)

    return Atlas(
        case=case,
        J=J,
        K=K,
        degree=degree,
        moduli_dim=moduli_dim,
        strata=strata,
        orbit_poset=poset,
        mu_ordinary=phi.apply_subset(J) == J,
        group=group,
        notes=notes,
    )


def _assert_atlas_invariants(strata, below, left_reps, moduli_dim):
    """The strata come in (length, representative word) order, so the writers
    mark the last one maximal: its representative must be the one longest,
    and its down-set mask in ``below`` must hold every stratum."""
    weighted = sum(len(s.orbit) * len(s.eo_fiber) for s in strata)
    if weighted != len(left_reps):
        raise ConsistencyError("fiber sizes do not add up to the finer index set")
    top = strata[-1]
    if any(s.rep.length >= top.rep.length for s in strata[:-1]):
        raise ConsistencyError("maximal stratum is not unique")
    if len(top.orbit) != 1:
        raise ConsistencyError("maximal stratum orbit is not a singleton")
    if top.dim != moduli_dim:
        raise ConsistencyError("maximal stratum dimension differs from the total")
    if below[-1] != (1 << len(strata)) - 1:
        raise ConsistencyError("maximal stratum closure misses some stratum")
    for sid, s in enumerate(strata):
        if not (0 <= s.dim <= moduli_dim):
            raise ConsistencyError(
                f"stratum {sid} dimension {s.dim} out of range 0..{moduli_dim}"
            )


def siegel_case(g: int, **options) -> PELCase:
    """The principally polarized preset of genus g."""
    if g < 1:
        raise InputError(f"genus must be >= 1, got {g}")
    check_bound(options.get("element_bound", DEFAULT_BOUND), g)
    spec = DynkinSpec((("A", 1),) if g == 1 else (("C", g),))
    mu = CocharSpec(tuple([0] * (g - 1) + [1]))
    phi = DiagramAutomorphism(tuple(range(g)))
    return PELCase(spec=spec, phi=phi, mu=mu, **options)


def siegel_identify(g: int, **options) -> Atlas:
    """The atlas of genus g, once checked: g + 1 strata whose dimensions are
    the closed formula's, each matched to its a-number (``siegel_a``), with a
    closure order that reverses the a-number order.  ``options`` go to
    :func:`siegel_case`."""
    atlas = build_atlas(siegel_case(g, **options))
    if len(atlas.strata) != g + 1:
        raise ConsistencyError(
            f"expected {g + 1} strata for genus {g}, found {len(atlas.strata)}"
        )
    expected = sorted(siegel_dimension(g, i) for i in range(g + 1))
    got = sorted(s.dim for s in atlas.strata)
    if got != expected:
        raise ConsistencyError(f"dimension multiset {got} != {expected}")
    # order reversal: x below x' exactly when the a-number is at least as big
    leq = atlas.orbit_poset.leq
    for a, s in enumerate(atlas.strata):
        for b, t in enumerate(atlas.strata):
            if leq(a, b) != (s.siegel_a >= t.siegel_a):
                raise ConsistencyError(
                    "closure order does not reverse the a-number order at "
                    f"strata {a} and {b}"
                )
    return atlas
