import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_atlas import atlas as atlas_mod
from bruhat_atlas.coxeter import WeylGroup, lower_sets
from bruhat_atlas.cli import corpus_preset
from bruhat_atlas.errors import ConsistencyError
from bruhat_atlas.galois import (
    _covers,
    definition_degree,
    galois_orbits,
    orbit_poset,
)
from bruhat_atlas.oracle import brute_interval
from bruhat_atlas.rootdata import (
    cartan_from_spec,
    identity_automorphism,
    validate_automorphism,
)
from bruhat_atlas.serialize import parse_case
from conftest import (
    SMALL_GROUPS,
    double_reps,
    engine_work,
    from_word,
    group_of,
    interned,
    key_of,
    keys_of,
    left_reps,
    subsets,
)
from reference import ids_below


def flip(group):
    return validate_automorphism(list(reversed(range(group.n))), group.cartan)


class TestDefinitionDegree:
    def test_identity_always_one(self, a2):
        phi = identity_automorphism(a2.cartan)
        for J in [frozenset(), frozenset({0}), frozenset({0, 1})]:
            assert definition_degree(J, phi) == 1

    def test_a2_flip(self, a2):
        assert definition_degree(frozenset({1}), flip(a2)) == 2
        assert definition_degree(frozenset({0, 1}), flip(a2)) == 1

    def test_empty_set_fixed(self, a1a1):
        swap = validate_automorphism([1, 0], a1a1.cartan)
        assert definition_degree(frozenset(), swap) == 1

    def test_divides_order(self):
        g = group_of("D4")
        tri = validate_automorphism([2, 1, 3, 0], g.cartan)
        order = next(k for k in range(1, 7) if tri.power(k).is_identity)
        assert order == 3
        for J in [frozenset({0}), frozenset({1}), frozenset({0, 2}), frozenset({0, 2, 3})]:
            assert order % definition_degree(J, tri) == 0


class TestOrbits:
    def test_identity_generator_gives_singletons(self, a2):
        phi = identity_automorphism(a2.cartan)
        orbits = galois_orbits(a2, a2.ascend(()), phi)
        assert all(len(o) == 1 for o in orbits)

    def test_hilbert_swap(self, a1a1):
        swap = validate_automorphism([1, 0], a1a1.cartan)
        orbits = galois_orbits(a1a1, a1a1.ascend(()), swap)
        assert sorted(len(o) for o in orbits) == [1, 1, 2]

    def test_unstable_set_rejected(self, a1a1):
        swap = validate_automorphism([1, 0], a1a1.cartan)
        # the swap sends s_0 to s_1, which is not in the set: a build hands
        # galois_orbits only sets that Frobenius keeps, so this is an engine fault
        with pytest.raises(ConsistencyError, match=r"generator: the image \[1\] of \[0\] is not"):
            galois_orbits(a1a1, [from_word(a1a1, ()), from_word(a1a1, [0])], swap)

    def test_orbit_lengths_constant(self):
        g = group_of("D4")
        tri = validate_automorphism([2, 1, 3, 0], g.cartan)
        for orbit in galois_orbits(g, g.ascend(()), tri):
            assert len({w.length for w in orbit}) == 1

    def test_orbits_come_sorted_by_word_from_their_least_member(self):
        # the orbit poset and the strata take each orbit's first member as
        # its representative, so the order is galois_orbits' to keep
        g = group_of("D4")
        tri = validate_automorphism([2, 1, 3, 0], g.cartan)
        jw = g.ascend(())
        orbits = galois_orbits(g, jw, tri)
        assert max(map(len, orbits)) == 3
        assert [o[0] for o in orbits] == sorted((o[0] for o in orbits), key=jw.index)
        for orbit in orbits:
            assert [w.word for w in orbit] == sorted(w.word for w in orbit)
            assert all(jw.index(orbit[0]) < jw.index(w) for w in orbit[1:])


class TestOrbitPoset:
    def test_hilbert_chain(self, a1a1):
        swap = validate_automorphism([1, 0], a1a1.cartan)
        orbits = galois_orbits(a1a1, a1a1.ascend(()), swap)
        poset = orbit_poset(a1a1, orbits, J=())
        assert len(poset) == 3
        assert [o[0].length for o in orbits] == [0, 1, 2]
        for a in range(3):
            for b in range(3):
                assert poset.leq(a, b) == (a <= b)
        assert ids_below(poset, 2) == [0, 1, 2]

    def test_singleton_orbits_restrict_bruhat(self, a2):
        phi = identity_automorphism(a2.cartan)
        orbits = galois_orbits(a2, a2.ascend(()), phi)
        poset = orbit_poset(a2, orbits, J=())
        reps = [o[0] for o in orbits]
        for b, y in enumerate(reps):
            interval = brute_interval(keys_of(a2), y.word)
            for a, x in enumerate(reps):
                assert poset.leq(a, b) == (key_of(a2, x) in interval)

    def test_one_orbit_poset(self, a1a1):
        swap = validate_automorphism([1, 0], a1a1.cartan)
        poset = orbit_poset(a1a1, [[from_word(a1a1, [0]), from_word(a1a1, [1])]], J=())
        assert len(poset) == 1 and poset.below == (1,) and poset.covers == ()

    def test_quotient_map_monotone(self):
        g = group_of("A2")
        phi = flip(g)
        J = frozenset()
        K = frozenset()
        reps = double_reps(g, J, K)
        orbits = galois_orbits(g, reps, phi)
        poset = orbit_poset(g, orbits, J)
        index = {w: i for i, o in enumerate(orbits) for w in o}
        for y in reps:
            interval = brute_interval(keys_of(g), y.word)
            for x in reps:
                if key_of(g, x) in interval:
                    assert poset.leq(index[x], index[y])

    def test_max_orbit_is_singleton(self):
        g = group_of("A2")
        phi = flip(g)
        reps = double_reps(g, frozenset(), frozenset())
        orbits = galois_orbits(g, reps, phi)
        poset = orbit_poset(g, orbits, J=())
        n = len(poset)
        (top,) = [
            b for b in range(n) if not any(poset.leq(b, c) for c in range(n) if c != b)
        ]
        assert len(orbits[top]) == 1

    def test_orbit_of_two_lengths_is_refused(self, a2):
        with pytest.raises(
            ConsistencyError,
            match=r"orbit members have distinct lengths: \[0\] has length 1, \[\] has length 0$",
        ):
            orbit_poset(a2, [[from_word(a2, ()), from_word(a2, [0])]], J=())

    def test_covers_are_the_transitive_reduction(self):
        g = group_of("A3")
        poset = orbit_poset(g, galois_orbits(g, g.ascend(()), flip(g)), J=())
        n = len(poset)
        expected = [
            (a, b)
            for a in range(n)
            for b in range(n)
            if a != b
            and poset.leq(a, b)
            and not any(
                poset.leq(a, c) and poset.leq(c, b) for c in range(n) if c not in (a, b)
            )
        ]
        assert list(poset.covers) == expected

    def test_covers_refuse_a_mask_above_its_own_id(self):
        with pytest.raises(ConsistencyError, match=r"orbit 1 is below orbit 0"):
            _covers([0b11, 0b11])


class TestLowerSets:
    """The lower-set pass against subword intervals."""

    @pytest.mark.parametrize("name", SMALL_GROUPS + ["B3", "A1xA2", "B2xA1"])
    def test_every_j_on_all_of_jw(self, name):
        g = group_of(name)
        for J in subsets(range(g.n)):
            jw = left_reps(g, J)
            index = {w: i for i, w in enumerate(jw)}
            down = lower_sets(g, J, {w: 1 << i for w, i in index.items()})
            assert set(down) == set(jw)
            N = keys_of(g).N
            for w in jw:
                got = {key_of(g, x) for x in jw if down[w] >> index[x] & 1}
                interval = brute_interval(keys_of(g), w.word)
                # the keys of ^J W have no alpha_j (j in J) among their negative images
                assert got == {v for v in interval if J.isdisjoint(v[N:])}
                # no bit outside ^J W
                assert down[w].bit_count() == len(got)


# small shapes with the diagram symmetries of their factors: factor swaps,
# A reversals and D4 fork swaps, given on the canonical labelling
_SHAPES = [
    ((("A", 2), ("A", 2)), [(0, 1, 2, 3), (2, 3, 0, 1), (1, 0, 3, 2), (3, 2, 1, 0)]),
    ((("A", 3),), [(0, 1, 2), (2, 1, 0)]),
    ((("D", 4),), [(0, 1, 2, 3), (0, 1, 3, 2), (2, 1, 3, 0)]),
    ((("A", 1), ("A", 1), ("A", 2)), [(1, 0, 2, 3), (1, 0, 3, 2), (0, 1, 3, 2)]),
    ((("B", 2), ("B", 2)), [(2, 3, 0, 1)]),
    ((("A", 1), ("C", 3)), [(0, 1, 2, 3)]),
]


@st.composite
def _relabelled_cases(draw):
    """A shape with factors shuffled, a random Frobenius symmetry and J."""
    factors, perms = draw(st.sampled_from(_SHAPES))
    perm = draw(st.sampled_from(perms))
    order = draw(st.permutations(range(len(factors))))
    starts, pos = [], 0
    for _, rank in factors:
        starts.append(pos)
        pos += rank
    sigma, new_pos = [0] * pos, 0  # old node -> new node
    for f in order:
        for i in range(factors[f][1]):
            sigma[starts[f] + i] = new_pos + i
        new_pos += factors[f][1]
    phi = [0] * pos
    for old, img in enumerate(perm):
        phi[sigma[old]] = sigma[img]
    J = draw(st.sets(st.integers(0, pos - 1)))
    return {
        "group": {"factors": [{"type": t, "rank": r} for t, r in (factors[f] for f in order)]},
        "frobenius": {"permutation": phi},
        "J": sorted(J),
    }


class TestOrbitPosetAgainstPairwise:
    @settings(max_examples=40, deadline=None)
    @given(_relabelled_cases())
    def test_leq_matches_pairwise_bruhat(self, doc):
        case = parse_case(doc)
        g = WeylGroup(cartan_from_spec(case.spec))
        phi = validate_automorphism(case.phi.perm, g.cartan)
        generator = phi.power(definition_degree(case.J, phi))
        reps = left_reps(g, case.J)
        orbits = galois_orbits(g, reps, generator)
        poset = orbit_poset(g, orbits, case.J)
        keys = keys_of(g)
        intervals = [[brute_interval(keys, y.word) for y in upper] for upper in orbits]
        for a, lower in enumerate(orbits):
            for b in range(len(poset)):
                pairwise = any(key_of(g, x) in iv for x in lower for iv in intervals[b])
                assert poset.leq(a, b) == pairwise


A4_A2_REVERSED = {
    "group": {"factors": [{"type": "A", "rank": 4}, {"type": "A", "rank": 2}]},
    "frobenius": {"permutation": [3, 2, 1, 0, 5, 4]},
    "J": [],
}


class TestStructuralGuards:
    """Costs counted rather than timed."""

    def test_orbit_poset_materializes_nothing(self):
        case = parse_case(A4_A2_REVERSED)
        g = WeylGroup(cartan_from_spec(case.spec))
        phi = validate_automorphism(case.phi.perm, g.cartan)
        orbits = galois_orbits(g, double_reps(g, (), ()), phi)
        before = interned(g)
        poset = orbit_poset(g, orbits, ())
        assert len(poset) == 368
        assert interned(g) == before

    @pytest.mark.parametrize(
        "doc", [A4_A2_REVERSED, corpus_preset("gu:16,1:inert")], ids=["A4xA2", "gu:16,1"]
    )
    def test_lower_sets_step_without_composing_or_interning(self, doc, monkeypatch):
        # gu:16,1:inert is A16, 2N = 272 roots
        atlas = atlas_mod.build_atlas(parse_case(doc))
        g = atlas.group
        jw = left_reps(g, atlas.J)
        held, work = interned(g), engine_work(monkeypatch)
        down = lower_sets(g, atlas.J, {w: 1 << i for i, w in enumerate(jw)})
        assert work.reflected == [] and interned(g) == held
        assert set(down) == set(jw) and down[jw[-1]].bit_count() == len(jw)
