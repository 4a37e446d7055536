import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_atlas.atlas import build_atlas
from bruhat_atlas.cli import corpus_preset
from bruhat_atlas.coxeter import WeylGroup
from bruhat_atlas.errors import BoundError, ConsistencyError, InputError
from bruhat_atlas.oracle import brute_interval
from bruhat_atlas.parabolic import min_left_reps
from bruhat_atlas.serialize import parse_case
from conftest import SMALL_GROUPS, engine_leq, forget_words, group_of


class TestGroupLaw:
    def test_identity_fixes_roots(self, a2):
        e = a2.identity
        assert all(a2.roots[e.key[r]] == root for r, root in enumerate(a2.roots))
        assert list(e.key) == list(range(2 * a2.N))
        assert e.length == 0

    def test_identity_idempotent(self, c2):
        e = c2.identity
        assert e * e is e

    def test_involutions(self, a2):
        for s in a2.simple:
            assert s * s == a2.identity

    def test_braid_a2(self, a2):
        s0, s1 = a2.simple
        assert s0 * s1 * s0 == s1 * s0 * s1

    def test_c2_longest_two_ways(self, c2):
        s0, s1 = c2.simple
        w0 = c2.longest_element(range(2))
        assert (s0 * s1) * (s0 * s1) == w0
        assert (s1 * s0) * (s1 * s0) == w0
        # w0 of C2 acts as -1 on the root lattice: every root goes to its negative
        N = c2.N
        assert all(w0.key[r] == (r + N) % (2 * N) for r in range(2 * N))
        assert all(
            c2.roots[w0.key[r]] == tuple(-c for c in root)
            for r, root in enumerate(c2.roots)
        )

    def test_ambient_mismatch(self, a2, c2):
        with pytest.raises(InputError):
            a2.multiply(a2.identity, c2.identity)

    @pytest.mark.parametrize("name", ["A3", "C3", "D4", "A16"])
    def test_key_is_the_root_permutation(self, name):
        g = group_of(name)
        n, N, roots = g.n, g.N, g.roots
        assert set(roots[:N]) == set(g.pos_roots)
        assert all(roots[i] == tuple(int(k == i) for k in range(n)) for i in range(n))
        neg_simple = {tuple(-int(k == i) for k in range(n)): i for i in range(n)}
        if name == "A16":
            # 2N = 272 roots, past the bytes encoding: seeded random words
            assert 2 * N > 256 and isinstance(g.identity.key, tuple)
            rng = random.Random(16)
            sample = [
                g.from_word(rng.randrange(n) for _ in range(rng.randrange(60)))
                for _ in range(200)
            ]
        else:
            assert isinstance(g.identity.key, bytes)
            sample = g.elements()
        for w in sample:
            key = w.key
            assert sorted(key) == list(range(2 * N))
            assert all(key[r + N] == (key[r] + N) % (2 * N) for r in range(N))
            # w(beta) by linearity from the images of the simple roots
            images = []
            for beta in roots[:N]:
                vec = [0] * n
                for k, c in enumerate(beta):
                    for t, d in enumerate(roots[key[k]]):
                        vec[t] += c * d
                images.append(tuple(vec))
            assert images == [roots[key[r]] for r in range(N)]
            negative = [img for img in images if min(img) < 0]
            assert w.length == len(negative)
            lefts = {neg_simple[v] for v in negative if v in neg_simple}
            assert w.left_descents == lefts
            assert w.right_descents == {i for i in range(n) if min(images[i]) < 0}
            assert g.multiply(w, g.from_word(reversed(g.reduced_word(w)))) is g.identity

    def test_equality_needs_the_same_cartan_matrix(self):
        # elements are interned per group, so equality is identity
        a2, a111 = group_of("A2"), group_of("A1xA1xA1")
        # both have 3 positive roots, so their identity keys coincide
        assert a2.identity.key == a111.identity.key
        assert a2.identity != a111.identity
        assert len({a2.identity, a111.identity}) == 2
        twin = WeylGroup(a2.cartan)
        assert twin.identity.key == a2.identity.key and twin.identity is not a2.identity
        assert [s.key for s in twin.simple] == [s.key for s in a2.simple]
        assert len({twin.simple[0], a2.simple[0]}) == 2
        for w in a2.elements():
            assert a2.from_word(a2.reduced_word(w)) is w


class TestLengthAndDescents:
    def test_lengths_a2(self, a2):
        s0, s1 = a2.simple
        assert (s0 * s1).length == 2
        assert a2.longest_element(range(2)).length == 3

    def test_c2_w0_length_is_root_count(self, c2):
        assert c2.longest_element(range(2)).length == len(c2.pos_roots) == 4

    def test_descents_of_identity(self, a2):
        assert a2.identity.left_descents == frozenset()
        assert a2.identity.right_descents == frozenset()

    def test_right_descents_s0s1(self, a2):
        s0, s1 = a2.simple
        assert (s0 * s1).right_descents == {1}
        assert (s0 * s1).left_descents == {0}

    def test_w0_descends_everywhere(self):
        for name in ["A3", "C3", "D4", "A1xA1"]:
            g = group_of(name)
            w0 = g.longest_element(range(g.n))
            assert w0.left_descents == w0.right_descents == frozenset(range(g.n))

    def test_generator_multiplication_steps_by_one(self):
        for name in ["A3", "C3", "A1xA1"]:
            g = group_of(name)
            for w in g.elements():
                for i in range(g.n):
                    assert abs(g.right_mul(w, i).length - w.length) == 1
                    assert abs(g.multiply(g.simple[i], w).length - w.length) == 1


def fresh_group(name: str) -> WeylGroup:
    """A group with nothing memoized yet, unlike the shared ``group_of``."""
    return WeylGroup(group_of(name).cartan)


def plain_peel(g: WeylGroup, w) -> list[int]:
    """The canonical word without the memo: peel the smallest left descent."""
    word = []
    while w.left_descents:
        i = min(w.left_descents)
        word.append(i)
        w = g.multiply(g.simple[i], w)
    return word


class TestWords:
    def test_identity_word_empty(self, a2):
        assert a2.reduced_word(a2.identity) == []

    def test_tie_break(self, a2):
        # s1*s0 peels its smallest left descent first
        assert a2.reduced_word(a2.from_word([1, 0])) == [1, 0]

    def test_c2_w0_word_length(self, c2):
        assert len(c2.reduced_word(c2.longest_element(range(2)))) == 4

    def test_word_roundtrip_everywhere(self):
        for name in ["A3", "C3", "A1xA1", "D4"]:
            g = group_of(name)
            for w in g.elements():
                word = g.reduced_word(w)
                assert len(word) == w.length
                assert g.from_word(word) == w

    def test_bad_letter(self, a2):
        with pytest.raises(InputError):
            a2.from_word([5])

    def test_mutating_a_word_leaves_the_memo_alone(self):
        g = fresh_group("B3")
        w = g.longest_element(range(3))
        word = g.reduced_word(w)
        word.append(0)
        word[0] = 2
        assert g.reduced_word(w) == plain_peel(g, w)
        assert g.reduced_word(w) is not g.reduced_word(w)

    @pytest.mark.parametrize("name", ["B3", "A3xA1"])
    @pytest.mark.parametrize("order", ["longest first", "shortest first"])
    def test_memoized_words_are_the_peeled_words(self, name, order):
        # each order meets the memo at a different point of the peel chain
        g = fresh_group(name)
        elements = g.elements()
        for w in reversed(elements) if order == "longest first" else elements:
            word = g.reduced_word(w)
            assert word == plain_peel(g, w)
            assert len(word) == w.length
            assert g.from_word(word) is w

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2), max_size=12))
    def test_random_words_reduce(self, word):
        g = group_of("C3")
        w = g.from_word(word)
        assert w.length <= len(word)
        assert g.from_word(g.reduced_word(w)) == w

    @pytest.mark.parametrize("order", ["longest first", "shortest first"])
    def test_wide_key_words_are_the_peeled_words(self, order):
        # A16: 2N = 272, so tuple keys; ^J W, then each fiber, memo cleared
        atlas = build_atlas(parse_case(corpus_preset("gu:16,1:inert")))
        g = atlas.group
        assert isinstance(g.identity.key, tuple)
        fibers = [s.eo_fiber for s in atlas.strata]
        for elements in [min_left_reps(g, atlas.J), *fibers]:
            forget_words(g)
            for w in reversed(elements) if order == "longest first" else elements:
                word = g.reduced_word(w)
                assert word == plain_peel(g, w)
                assert g.from_word(word) is w

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 15), max_size=40))
    def test_random_wide_words_reduce(self, word):
        g = group_of("A16")
        w = g.from_word(word)
        assert g.reduced_word(w) == plain_peel(g, w)
        assert g.from_word(g.reduced_word(w)) is w


class TestLongestAndOpposition:
    def test_empty_subset(self, a2):
        assert a2.longest_element(()) is a2.identity
        assert a2.opposition(()) == frozenset()

    def test_rank_one_parabolic(self, c2):
        assert c2.longest_element({0}) is c2.simple[0]

    def test_longest_is_involution(self):
        for name in ["A4", "C3", "D4"]:
            g = group_of(name)
            for J in [frozenset({0}), frozenset({0, 1}), frozenset(range(g.n))]:
                w0J = g.longest_element(J)
                assert g.multiply(w0J, w0J) == g.identity

    def test_opposition_a2(self, a2):
        assert a2.opposition({0}) == {1}

    def test_opposition_c2_trivial(self, c2):
        for J in [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]:
            assert c2.opposition(J) == J

    def test_opposition_refuses_a_w0_that_negates_no_simple_root(self, monkeypatch):
        g = WeylGroup(group_of("A2").cartan)
        monkeypatch.setattr(g, "longest_element", lambda J: g.identity)
        with pytest.raises(ConsistencyError, match="w0 did not negate a simple root"):
            g.opposition({0})

    def test_opposition_matches_conjugation(self):
        for name in ["A3", "C3", "D4"]:
            g = group_of(name)
            w0 = g.longest_element(range(g.n))
            for i in range(g.n):
                conj = g.multiply(g.multiply(w0, g.simple[i]), w0)
                (j,) = g.opposition({i})
                assert conj is g.simple[j]


class TestBruhat:
    """The Bruhat order of ``galois.lower_sets`` with J empty."""

    def test_identity_below_everything(self, a2):
        leq = engine_leq(a2)
        for w in a2.elements():
            assert leq(a2.identity, w)

    def test_a2_examples(self, a2):
        leq = engine_leq(a2)
        s0, s1 = a2.simple
        assert leq(s1, s1 * s0)
        assert not leq(s0 * s1, s1 * s0)

    def test_full_a2_table_against_subword_oracle(self, a2):
        leq = engine_leq(a2)
        for w in a2.elements():
            interval = brute_interval(a2, a2.reduced_word(w))
            for x in a2.elements():
                assert leq(x, w) == (x.key in interval)

    def test_partial_order_axioms(self):
        for name in ["A3", "C2", "A1xA1"]:
            g = group_of(name)
            leq = engine_leq(g)
            els = g.elements()
            for x in els:
                assert leq(x, x)
            for x in els:
                for y in els:
                    if x != y and leq(x, y):
                        assert not leq(y, x)
            for x in els:
                for y in els:
                    if not leq(x, y):
                        continue
                    for z in els:
                        if leq(y, z):
                            assert leq(x, z)

    def test_deep_chain_needs_no_recursion(self):
        from bruhat_atlas.rootdata import DynkinSpec, cartan_from_spec
        from bruhat_atlas.coxeter import WeylGroup

        # a reduced word of w0 is 1035 letters long, beyond the default
        # recursion limit of 1000
        g = WeylGroup(cartan_from_spec(DynkinSpec((("A", 45),))))
        w0 = g.longest_element(range(g.n))
        assert w0.length == 1035
        word = g.reduced_word(w0)
        assert len(word) == 1035
        assert g.from_word(word) is w0

    def test_length_monotone(self):
        g = group_of("C3")
        leq = engine_leq(g)
        for x in g.elements():
            for w in g.elements():
                if leq(x, w):
                    assert x.length <= w.length


def _check_conjugation_on_roots(g, phi, elements):
    """phi(w) against sigma w sigma^-1 on root indices, where sigma is the
    permutation of roots that the node permutation induces, and phi against
    the homomorphism rule phi(w s_i) = phi(w) s_phi(i)."""
    index = {root: r for r, root in enumerate(g.roots)}
    sigma = []
    for root in g.roots:
        image = [0] * g.n
        for k, c in enumerate(root):
            image[phi.perm[k]] = c
        sigma.append(index[tuple(image)])
    sigma_inv = [0] * len(sigma)
    for r, image in enumerate(sigma):
        sigma_inv[image] = r
    for w in elements:
        image = g.apply_automorphism(phi, w)
        assert list(image.key) == [sigma[w.key[sigma_inv[r]]] for r in range(len(sigma))]
        assert image.length == w.length
        for i in range(g.n):
            step = g.apply_automorphism(phi, g.right_mul(w, i))
            assert step is g.right_mul(image, phi.perm[i])


class TestAutomorphismAction:
    def test_identity_automorphism(self, a2):
        from bruhat_atlas.rootdata import identity_automorphism

        phi = identity_automorphism(a2.cartan)
        for w in a2.elements():
            assert a2.apply_automorphism(phi, w) is w

    def test_a2_flip_on_generators(self, a2):
        from bruhat_atlas.rootdata import validate_automorphism

        phi = validate_automorphism([1, 0], a2.cartan)
        assert a2.apply_automorphism(phi, a2.simple[0]) is a2.simple[1]

    def test_flip_is_letterwise_word_image(self, a2):
        from bruhat_atlas.rootdata import validate_automorphism

        phi = validate_automorphism([1, 0], a2.cartan)
        _check_conjugation_on_roots(a2, phi, a2.elements())

    @pytest.mark.parametrize(
        "name,perm",
        [("D4", [2, 1, 3, 0]), ("A16", list(range(15, -1, -1)))],
        ids=["D4-triality", "A16-reversal"],
    )
    def test_automorphism_is_conjugation_on_root_indices(self, name, perm):
        from bruhat_atlas.rootdata import validate_automorphism

        g = group_of(name)
        phi = validate_automorphism(perm, g.cartan)
        if g.n <= 4:
            elements = g.elements()
        else:  # A16: 2N = 272, so tuple keys; random words, not all 17!
            assert isinstance(g.identity.key, tuple)
            rng = random.Random(16)
            elements = [g.from_word(rng.choices(range(g.n), k=40)) for _ in range(60)]
        _check_conjugation_on_roots(g, phi, elements)

    def test_triality_preserves_length(self):
        from bruhat_atlas.rootdata import validate_automorphism

        g = group_of("D4")
        phi = validate_automorphism([2, 1, 3, 0], g.cartan)
        for w in g.elements():
            assert g.apply_automorphism(phi, w).length == w.length


class TestEnumeration:
    @pytest.mark.parametrize(
        "name,order",
        [("A2", 6), ("C2", 8), ("A1xA1", 4), ("A4", 120), ("D4", 192), ("C2xC2", 64)],
    )
    def test_orders(self, name, order):
        g = group_of(name)
        assert g.order == order
        assert len(g.elements()) == order

    def test_a2_length_multiset(self, a2):
        assert sorted(w.length for w in a2.elements()) == [0, 1, 1, 2, 2, 3]

    def test_breadth_first(self):
        g = group_of("C3")
        lengths = [w.length for w in g.elements()]
        assert lengths == sorted(lengths)

    def test_bound_exceeded(self):
        from bruhat_atlas.rootdata import DynkinSpec, cartan_from_spec
        from bruhat_atlas.coxeter import WeylGroup

        g = WeylGroup(cartan_from_spec(DynkinSpec((("A", 4),))), element_bound=100)
        with pytest.raises(BoundError, match="120"):
            g.elements()

    def test_bound_counts_materialized_elements(self):
        from bruhat_atlas.rootdata import DynkinSpec, cartan_from_spec
        from bruhat_atlas.coxeter import WeylGroup

        g = WeylGroup(cartan_from_spec(DynkinSpec((("C", 3),))), element_bound=10)
        with pytest.raises(BoundError, match="bound 10 exceeded: 11 elements"):
            g.longest_element(range(3))

    def test_bound_refuses_an_enumeration_before_growing_it(self):
        # C12: 2N = 288, so tuple keys; ^J W for J = {0..10} has 2^12 elements
        g = WeylGroup(group_of("C12").cartan, element_bound=1000)
        assert isinstance(g.identity.key, tuple)
        with pytest.raises(BoundError, match=r"\b4096 elements exceeds element bound 1000$"):
            g.ascend(range(12), range(11))
        # only what the group interns on construction: the identity and s_i
        assert len(g._registry) == 1 + g.n

    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_ascent_stops_match_the_definition(self, name):
        # every J, since every rank here is at most 4; the definition side
        # reads lengths only: w s_i is longer than w, with no left descent in J
        g = group_of(name)
        for r in range(g.n + 1):
            for J in itertools.combinations(range(g.n), r):
                stops = g.ascent_stops(J)
                for w in g.ascend(range(g.n), J):
                    for i in range(g.n):
                        v = g.right_mul(w, i)
                        inside = v.length > w.length and all(
                            g.multiply(g.simple[j], v).length > v.length for j in J
                        )
                        assert (w.key[i] not in stops) == inside, (J, i)

    def test_count_guard_fires(self, monkeypatch):
        from bruhat_atlas.rootdata import DynkinSpec, cartan_from_spec
        from bruhat_atlas.coxeter import WeylGroup

        g = WeylGroup(cartan_from_spec(DynkinSpec((("C", 3),))))
        order = WeylGroup.parabolic_order
        monkeypatch.setattr(
            WeylGroup, "parabolic_order", lambda self, S: order(self, S) + 1
        )
        with pytest.raises(ConsistencyError, match="closed form"):
            g.ascend(range(3), {0, 1})
        # a fiber start: s_2 is a double representative for J = K = {0, 1}
        with pytest.raises(ConsistencyError, match=r"from \[2\] .* closed form"):
            g.ascend({0, 1}, {0, 1}, g.simple[2])

    @pytest.mark.parametrize(
        "name,S,order",
        [("D4", {0, 1, 2}, 24), ("D4", {0, 1, 2, 3}, 192), ("B3", {1, 2}, 8),
         ("C3", {0, 2}, 4), ("A1xA2", {0, 1, 2}, 12), ("A3", (), 1)],
    )
    def test_parabolic_order(self, name, S, order):
        assert group_of(name).parabolic_order(S) == order

    @pytest.mark.parametrize("name", SMALL_GROUPS + ["B3", "B4", "D5", "A1xB3"])
    def test_parabolic_order_counts_the_subgroup(self, name):
        g = group_of(name)
        for r in range(g.n + 1):
            for S in itertools.combinations(range(g.n), r):
                assert g.parabolic_order(S) == len(g.ascend(S, ())), S

    @pytest.mark.parametrize(
        "name,order",
        [
            ("C12", 2**12 * 479_001_600),  # 2^12 12!
            ("B12", 2**12 * 479_001_600),
            ("D13", 2**12 * 6_227_020_800),  # 2^12 13!
            ("A16", 355_687_428_096_000),  # 17!
        ],
    )
    def test_order_of_a_wide_group(self, name, order):
        g = group_of(name)
        assert isinstance(g.identity.key, tuple)
        assert g.order == order

    def test_subgroup_enumeration(self):
        g = group_of("C3")
        assert len(g.ascend({0, 1}, ())) == 6  # A2 parabolic
        assert len(g.ascend({1, 2}, ())) == 8  # C2 parabolic
        assert g.ascend((), ()) == [g.identity]


def negative_images(g: WeylGroup, key) -> int:
    """Length read off a key: the positive roots it sends negative."""
    return sum(1 for r in key[: g.N] if r >= g.N)


def count_composes(g: WeylGroup, monkeypatch) -> list:
    composed = []
    compose = g._compose
    monkeypatch.setattr(
        g, "_compose", lambda key, table: composed.append(1) or compose(key, table)
    )
    return composed


class TestStepMemo:
    """A right simple step is memoized on the element it starts from and
    hands ``_intern`` the length of a new element it forms; a left step is a
    general product, which hands ``_intern`` the length it counts."""

    @staticmethod
    def steps(g: WeylGroup):
        return {
            "right": lambda w, i: g.right_mul(w, i),
            "left": lambda w, i: g.multiply(g.simple[i], w),
        }

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_each_step_hands_on_its_length(self, name, side, monkeypatch):
        # W grown on one side from the identity forms each new element by an
        # ascent (the +1 branch), and grown from the longest element, by a
        # descent (the -1 branch): a level's other neighbours exist already
        w0_key = group_of(name).longest_element(range(group_of(name).n)).key
        for top in (False, True):
            g = WeylGroup(group_of(name).cartan)
            start = g._intern(w0_key, negative_images(g, w0_key)) if top else g.identity
            before = len(g._registry)
            intern, handed = g._intern, []
            monkeypatch.setattr(
                g, "_intern",
                lambda key, length: handed.append(length == negative_images(g, key))
                or intern(key, length),
            )
            step = self.steps(g)[side]
            grown, frontier = {start}, [start]
            while frontier:
                nxt = []
                for w in frontier:
                    for i in range(g.n):
                        v = step(w, i)
                        if v not in grown:
                            grown.add(v)
                            nxt.append(v)
                frontier = nxt
            assert len(grown) == len(g._registry) == g.order
            # a right step interns only what is new, a product every time
            calls = g.order - before if side == "right" else g.order * g.n
            assert handed == [True] * calls, top
            assert all(w.length == negative_images(g, w.key) for w in grown)

    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_a_step_taken_twice_composes_nothing(self, name, monkeypatch):
        g = WeylGroup(group_of(name).cartan)
        elements = g.elements()
        # W grown by ascents: every ascent slot is filled, no descent slot
        for w in elements:
            for i in range(g.n):
                assert (w.steps[i] is not None) == (w.key[i] < g.N), i
        composed = count_composes(g, monkeypatch)
        for w in elements:
            for i in range(g.n):
                if w.key[i] < g.N:
                    assert g.right_mul(w, i) is w.steps[i], i
        assert composed == []

    def test_wide_keys_over_min_left_reps(self, monkeypatch):
        # C12: 2N = 288, so tuple keys; ^J W for J = {2..11} has 528 elements
        g = WeylGroup(group_of("C12").cartan)
        assert isinstance(g.identity.key, tuple)
        J = range(2, 12)
        jw = min_left_reps(g, J)
        assert len(jw) == 528
        # ^J W grown by its ascents: each such slot is filled, no descent slot
        stops = g.ascent_stops(J)
        for w in jw:
            for i in range(g.n):
                assert (w.steps[i] is not None) == (w.key[i] not in stops), i
        # the ascents that leave ^J W are formed on a first pass, then kept
        ascents = [(w, i) for w in jw for i in range(g.n) if w.key[i] < g.N]
        composed = count_composes(g, monkeypatch)
        first = [g.right_mul(w, i) for w, i in ascents]
        formed = len(composed)
        assert 0 < formed < len(ascents)
        assert [g.right_mul(w, i) for w, i in ascents] == first
        assert len(composed) == formed
        for (w, i), v in zip(ascents, first):
            assert v.length == w.length + 1 == negative_images(g, v.key)
        assert all(w.length == negative_images(g, w.key) for w in g._registry.values())

    @pytest.mark.parametrize("preset", ["siegel:4", "gu:4,3:inert", "hilbert:6"])
    def test_a_build_keeps_only_longer_steps(self, preset):
        # a step is kept on the element it starts from, and a build steps only
        # by ascents
        g = build_atlas(parse_case(corpus_preset(preset))).group
        kept = [(w, v) for w in g._registry.values() for v in w.steps if v is not None]
        assert kept and all(v.length == w.length + 1 for w, v in kept)


class TestSubsetMemos:
    """check_subset, parabolic_order and ascent_stops are memoized per group;
    a memo hit never admits a subset the group would refuse."""

    def test_a_valid_call_does_not_admit_a_bad_subset(self):
        g = WeylGroup(group_of("C3").cartan)
        ok = frozenset({0, 2})
        assert g.check_subset(ok) is ok and g.check_subset(ok) is ok
        # an equal set or sequence is checked, then answered with the group's copy
        assert g.check_subset(frozenset([2, 0])) is ok and g.check_subset([2, 0]) is ok
        with pytest.raises(InputError, match=r"invalid node ids \[3\] for rank 3"):
            g.check_subset(frozenset({0, g.n}))
        # equal to a validated set, but not its ids: 1.0 == 1 and hashes alike
        assert g.check_subset(frozenset({1})) == {1}
        with pytest.raises(InputError):
            g.check_subset(frozenset({1.0}))

    def test_a_subset_one_group_validated_is_refused_by_another(self):
        S = frozenset({0, 4})
        a5 = WeylGroup(group_of("A5").cartan)
        assert a5.check_subset(S) is S and a5.check_subset(S) is S
        with pytest.raises(InputError, match=r"invalid node ids \[4\] for rank 2"):
            group_of("A2").check_subset(S)

    @pytest.mark.parametrize("name", ["B3", "D4", "A1xA2"])
    def test_memo_hits_agree_with_a_fresh_group(self, name):
        g = group_of(name)
        for r in range(g.n + 1):
            for S in itertools.combinations(range(g.n), r):
                fresh = WeylGroup(g.cartan)
                first = g.parabolic_order(S), g.ascent_stops(S)
                assert (g.parabolic_order(S), g.ascent_stops(S)) == first, S
                assert g.ascent_stops(S) is first[1]
                assert (fresh.parabolic_order(S), fresh.ascent_stops(S)) == first, S
