import re
import sys
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_atlas.atlas import build_atlas
from bruhat_atlas.cli import corpus_preset
from bruhat_atlas.coxeter import WeylGroup, lower_sets
from bruhat_atlas.errors import BoundError, ConsistencyError, InputError
from bruhat_atlas.oracle import RootKeys, brute_interval
from bruhat_atlas.rootdata import CartanMatrix, positive_roots, reflect
from conftest import (
    SMALL_GROUPS,
    engine_leq,
    engine_work,
    from_word,
    group_of,
    interned,
    key_length,
    key_of,
    keys_of,
    subsets,
)


@lru_cache(maxsize=None)
def dual(g: WeylGroup) -> CartanMatrix:
    """The Cartan matrix of the dual root system: the transpose."""
    return CartanMatrix(g.cartan.spec, tuple(zip(*g.cartan.entries)))


@lru_cache(maxsize=None)
def coroots(g: WeylGroup):
    """The positive coroots, in simple-coroot coordinates."""
    return positive_roots(dual(g))


def coroot_length(g: WeylGroup, weight) -> int:
    """The length of the element of ^J W with ``weight`` = w^-1 lambda_J:
    the positive coroots that pair negatively with it."""
    return sum(1 for r in coroots(g) if sum(c * v for c, v in zip(r, weight)) < 0)


def longest(g: WeylGroup, J=()):
    """The longest element of ^J W, climbed from the identity by ascents."""
    w = g.ascend(J)[0]
    while (i := next((i for i, c in enumerate(w.weight) if c > 0), None)) is not None:
        w = w.steps[i]
    return w


def s(g: WeylGroup, *word):
    """The element s_i1 ... s_ik of W."""
    return from_word(g, word)


def rho_walk(g: WeylGroup, word) -> tuple[int, ...]:
    """w^-1 rho for w = s_i1 ... s_ik, rho reflected along the word: W acts
    simply transitively on the orbit of rho, so this names w in W without
    interning anything, even where W is past the bound."""
    v = (1,) * g.n
    for i in word:
        v = g._reflect(v, i)
    return v


def left_peel(g: WeylGroup, word) -> list[int]:
    """The reduced word of s_i1 ... s_ik in W that peels the smallest left
    descent first, read off walked weights and their coroot lengths only: i
    is a left descent when s_i w is shorter, and a reduced word of s_i w is
    the word with the one letter deleted that walks to it."""
    out, word = [], tuple(word)
    while word:
        i = min(
            i for i in range(g.n) if coroot_length(g, rho_walk(g, (i, *word))) < len(word)
        )
        target = rho_walk(g, (i, *word))
        out.append(i)
        word = next(
            c for k in range(len(word)) if rho_walk(g, c := word[:k] + word[k + 1:]) == target
        )
    return out


class TestGroupLaw:
    def test_identity_fixes_roots(self, a2):
        # the identity of W is rho, that of ^J W is lambda_J
        e = a2.ascend(())[0]
        assert e.weight == (1, 1) and e.length == 0 and e.word == ()
        assert a2.ascend({0})[0].weight == (0, 1)
        assert keys_of(a2).of_word(e.word) == keys_of(a2).identity

    def test_identity_idempotent(self, c2):
        e = c2.ascend(())[0]
        assert from_word(c2, ()) is e and c2.ascend([]) is c2.ascend(())
        for i in range(c2.n):
            assert e.steps[i].steps[i] is e

    def test_involutions(self, a2):
        for i in range(a2.n):
            assert s(a2, i, i) is a2.ascend(())[0]

    def test_braid_a2(self, a2):
        assert s(a2, 0, 1, 0) is s(a2, 1, 0, 1)

    def test_c2_longest_two_ways(self, c2):
        w0 = s(c2, 0, 1, 0, 1)
        assert s(c2, 1, 0, 1, 0) is w0 and longest(c2) is w0
        # w0 of C2 acts as -1: w0^-1 rho = -rho, and every root goes to its negative
        assert w0.weight == (-1, -1)
        keys = keys_of(c2)
        N = keys.N
        key = keys.of_word(w0.word)
        assert all(key[r] == (r + N) % (2 * N) for r in range(2 * N))

    def test_ambient_mismatch(self, a2, c2):
        with pytest.raises(InputError, match="different ambient group"):
            a2.induced_subset(c2.ascend(())[0], (), ())

    @pytest.mark.parametrize("name", ["A3", "C3", "D4", "A16"])
    def test_key_is_the_root_permutation(self, name):
        # the weight is w^-1 lambda_J: coordinate i is <lambda_J, w alpha_i^vee>,
        # with w alpha_i^vee formed by reflecting alpha_i^vee along the word
        g = group_of(name)
        n = g.n
        # W of A16 has 17! elements, past the bound: ^J W for J = {1..15}
        J = frozenset(range(1, n) if name == "A16" else ())
        for w in g.ascend(J):
            word = w.word
            assert len(word) == w.length == coroot_length(g, w.weight)
            for i in range(n):
                vec = tuple(int(k == i) for k in range(n))
                for letter in reversed(word):
                    vec = reflect(dual(g), letter, vec)
                assert w.weight[i] == sum(c for k, c in enumerate(vec) if k not in J)
            assert from_word(g, word, J) is w

    def test_equality_needs_the_same_cartan_matrix(self):
        # elements are interned per group, so equality is identity
        a2, a1a1 = group_of("A2"), group_of("A1xA1")
        e, f = a2.ascend(())[0], a1a1.ascend(())[0]
        # both are rho = (1, 1) in their own coordinates
        assert e.weight == f.weight and e != f and len({e, f}) == 2
        twin = WeylGroup(a2.cartan)
        assert twin.ascend(())[0].weight == e.weight
        assert twin.ascend(())[0] is not e
        assert len({s(twin, 0), s(a2, 0)}) == 2
        for w in a2.ascend(()):
            assert from_word(a2, w.word) is w


class TestLengthAndDescents:
    def test_lengths_a2(self, a2):
        assert s(a2, 0, 1).length == 2
        assert longest(a2).length == a2.parabolic(range(2))[1] == 3

    def test_c2_w0_length_is_root_count(self, c2):
        assert longest(c2).length == c2.parabolic(range(2))[1] == len(c2.pos_roots) == 4

    def test_descents_of_identity(self, a2):
        assert all(c > 0 for c in a2.ascend(())[0].weight)
        assert keys_of(a2).peel(keys_of(a2).identity) == []

    def test_right_descents_s0s1(self, a2):
        # right descents are the negative coordinates; the left descents of
        # the oracle's key are the simple roots among its negative images
        w = s(a2, 0, 1)
        assert {i for i, c in enumerate(w.weight) if c < 0} == {1}
        keys = keys_of(a2)
        assert {r for r in key_of(a2, w)[keys.N:] if r < keys.n} == {0}

    def test_w0_descends_everywhere(self):
        for name in ["A3", "C3", "D4", "A1xA1"]:
            g = group_of(name)
            w0 = longest(g)
            assert all(c < 0 for c in w0.weight)
            keys = keys_of(g)
            assert set(key_of(g, w0)[keys.N:]) >= set(range(g.n))
            assert w0.length == len(g.pos_roots)

    def test_generator_multiplication_steps_by_one(self):
        for name in ["A3", "C3", "A1xA1"]:
            g = group_of(name)
            for w in g.ascend(()):
                for i in range(g.n):
                    assert abs(w.steps[i].length - w.length) == 1
                    assert abs(from_word(g, (i, *w.word)).length - w.length) == 1


def fresh_group(name: str) -> WeylGroup:
    """A group with nothing memoized yet, unlike the shared ``group_of``."""
    return WeylGroup(group_of(name).cartan)


def plain_peel(g: WeylGroup, w) -> list[int]:
    """The canonical word from the oracle: the greedy left peel of w's key."""
    return RootKeys(g).peel(key_of(g, w))


class TestWords:
    def test_identity_word_empty(self, a2):
        assert a2.ascend(())[0].word == ()

    def test_tie_break(self, a2):
        # s1*s0 peels its smallest left descent first
        assert s(a2, 1, 0).word == (1, 0)

    def test_c2_w0_word_length(self, c2):
        assert len(longest(c2).word) == 4

    def test_word_roundtrip_everywhere(self):
        for name in ["A3", "C3", "A1xA1", "D4"]:
            g = group_of(name)
            for w in g.ascend(()):
                assert len(w.word) == w.length
                assert from_word(g, w.word) == w

    def test_mutating_a_word_leaves_the_memo_alone(self):
        # the word is a tuple, which no caller can change
        g = fresh_group("B3")
        w = longest(g)
        assert type(w.word) is tuple
        assert list(w.word) == plain_peel(g, w)

    @pytest.mark.parametrize("name", ["B3", "A3xA1"])
    @pytest.mark.parametrize("order", ["longest first", "shortest first"])
    def test_memoized_words_are_the_peeled_words(self, name, order):
        g = fresh_group(name)
        elements = g.ascend(())
        for w in reversed(elements) if order == "longest first" else elements:
            assert list(w.word) == plain_peel(g, w)
            assert len(w.word) == w.length
            assert from_word(g, w.word) is w

    @pytest.mark.parametrize("name", ["A4", "B3", "C4", "D4", "D5", "A1xB2xA2"])
    def test_words_are_the_left_peel_of_their_oracle_keys(self, name):
        # all of W, and ^J W for J all nodes but the last
        g = fresh_group(name)
        keys = RootKeys(g)
        for J in [(), range(g.n - 1)]:
            for w in g.ascend(J):
                assert keys.peel(keys.of_word(w.word)) == list(w.word), (J, w.word)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2), max_size=12))
    def test_random_words_reduce(self, word):
        g = group_of("C3")
        w = from_word(g, word)
        assert w.length <= len(word)
        assert from_word(g, w.word) == w

    @pytest.mark.parametrize("order", ["longest first", "shortest first"])
    def test_wide_key_words_are_the_peeled_words(self, order):
        # A16: 2N = 272 roots, past the oracle's byte keys; ^J W and each
        # fiber against the peel read off walked weights in W
        atlas = build_atlas(corpus_preset("gu:16,1:inert"))
        g = atlas.group
        fibers = [s.eo_fiber for s in atlas.strata]
        for elements in [g.ascend(atlas.J), *fibers]:
            for w in reversed(elements) if order == "longest first" else elements:
                assert list(w.word) == left_peel(g, w.word)
                assert from_word(g, w.word, atlas.J) is w

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 15), max_size=40))
    def test_random_wide_words_reduce(self, word):
        # A16 and J = {1..15}: a walked word lands on the minimum of its coset
        g = group_of("A16")
        J = range(1, 16)
        w = from_word(g, word, J)
        assert list(w.word) == left_peel(g, w.word)
        assert from_word(g, w.word, J) is w


class TestLongestAndOpposition:
    def test_empty_subset(self, a2):
        assert a2.parabolic(()) == (1, 0)
        assert a2.opposition(()) == frozenset()

    def test_rank_one_parabolic(self, c2):
        assert c2.parabolic({0}) == (2, 1)
        assert keys_of(c2).longest({0}) == keys_of(c2).simple[0]

    def test_longest_is_involution(self):
        for name in ["A4", "C3", "D4"]:
            g = group_of(name)
            keys = keys_of(g)
            for J in [frozenset({0}), frozenset({0, 1}), frozenset(range(g.n))]:
                w0J = keys.longest(J)
                assert keys.product(w0J, w0J) == keys.identity
                assert key_length(g, w0J) == g.parabolic(J)[1]

    def test_opposition_a2(self, a2):
        assert a2.opposition({0}) == {1}

    def test_opposition_c2_trivial(self, c2):
        for J in [frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})]:
            assert c2.opposition(J) == J

    def test_opposition_refuses_a_w0_that_negates_no_simple_root(self, monkeypatch):
        # a diagonal entry of 3: s_i(v)_i = -2 v_i, so the climb ends at
        # -2 lam, which is not minus a relabelling of lam
        g = WeylGroup(group_of("A2").cartan)
        monkeypatch.setattr(g, "_columns", (((0, 3),), ((1, 3),)))
        with pytest.raises(ConsistencyError, match="w0 did not negate a simple root"):
            g.opposition({0})

    def test_opposition_matches_conjugation(self):
        for name in ["A3", "C3", "D4"]:
            g = group_of(name)
            keys = keys_of(g)
            w0 = keys.longest(range(g.n))
            for i in range(g.n):
                conj = keys.product(keys.product(w0, keys.simple[i]), w0)
                (j,) = g.opposition({i})
                assert conj == keys.simple[j]

    @pytest.mark.parametrize(
        "name",
        ["A1", "A2", "A3", "A4", "A5", "B3", "C4", "D4", "D5", "D6", "D7",
         "A3xD5", "B2xA4xD3"],
    )
    def test_opposition_is_read_off_the_oracle_w0_key(self, name):
        # w0(alpha_i) = -alpha_i* on the oracle's key of w0
        g = fresh_group(name)
        keys = RootKeys(g)
        w0 = keys.longest(range(g.n))
        for i in range(g.n):
            assert g.opposition({i}) == {w0[i] - keys.N}
        if name in ("D5", "D7"):  # odd D swaps its two fork leaves
            assert g.opposition({g.n - 2}) == {g.n - 1}


class TestBruhat:
    """The Bruhat order of ``lower_sets`` with J empty."""

    def test_identity_below_everything(self, a2):
        leq = engine_leq(a2)
        for w in a2.ascend(()):
            assert leq(a2.ascend(())[0], w)

    def test_a2_examples(self, a2):
        leq = engine_leq(a2)
        assert leq(s(a2, 1), s(a2, 1, 0))
        assert not leq(s(a2, 0, 1), s(a2, 1, 0))

    def test_full_a2_table_against_subword_oracle(self, a2):
        leq = engine_leq(a2)
        for w in a2.ascend(()):
            interval = brute_interval(keys_of(a2), w.word)
            for x in a2.ascend(()):
                assert leq(x, w) == (key_of(a2, x) in interval)

    def test_partial_order_axioms(self):
        for name in ["A3", "C2", "A1xA1"]:
            g = group_of(name)
            leq = engine_leq(g)
            els = g.ascend(())
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
        # ^J W of C12 for J = {0..10}: its longest element is 78 letters
        # long, past a recursion limit set to 50 frames above this one
        g = fresh_group("C12")
        J = range(11)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            jw = g.ascend(J)
            top = jw[-1]
            down = lower_sets(g, J, {w: 1 << i for i, w in enumerate(jw)})
        finally:
            sys.setrecursionlimit(limit)
        assert len(top.word) == top.length == 78
        assert from_word(g, top.word, J) is top
        assert down[top].bit_count() == len(jw) == 4096

    def test_length_monotone(self):
        g = group_of("C3")
        leq = engine_leq(g)
        for x in g.ascend(()):
            for w in g.ascend(()):
                if leq(x, w):
                    assert x.length <= w.length


def _check_conjugation_on_roots(g, phi, elements):
    """phi(w) against sigma w sigma^-1 on the oracle's root indices, where
    sigma is the permutation of roots that the node permutation induces, and
    phi against the homomorphism rule phi(w s_i) = phi(w) s_phi(i)."""
    keys = keys_of(g)
    index = {root: r for r, root in enumerate(keys.roots)}
    sigma = []
    for root in keys.roots:
        image = [0] * g.n
        for k, c in enumerate(root):
            image[phi.perm[k]] = c
        sigma.append(index[tuple(image)])
    sigma_inv = [0] * len(sigma)
    for r, image in enumerate(sigma):
        sigma_inv[image] = r
    for w in elements:
        image = g.apply_automorphism(phi, w)
        key = key_of(g, w)
        assert list(key_of(g, image)) == [sigma[key[sigma_inv[r]]] for r in range(len(sigma))]
        assert image.length == w.length
        for i in range(g.n):
            assert g.apply_automorphism(phi, w.steps[i]) is image.steps[phi.perm[i]]


class TestAutomorphismAction:
    def test_identity_automorphism(self, a2):
        from bruhat_atlas.rootdata import identity_automorphism

        phi = identity_automorphism(a2.cartan)
        for w in a2.ascend(()):
            assert a2.apply_automorphism(phi, w) is w

    def test_a2_flip_on_generators(self, a2):
        from bruhat_atlas.rootdata import validate_automorphism

        phi = validate_automorphism([1, 0], a2.cartan)
        assert a2.apply_automorphism(phi, s(a2, 0)) is s(a2, 1)

    def test_flip_is_letterwise_word_image(self, a2):
        from bruhat_atlas.rootdata import validate_automorphism

        phi = validate_automorphism([1, 0], a2.cartan)
        _check_conjugation_on_roots(a2, phi, a2.ascend(()))
        for w in a2.ascend(()):
            image = [phi.perm[i] for i in w.word]
            assert a2.apply_automorphism(phi, w) is from_word(a2, image)

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
            _check_conjugation_on_roots(g, phi, g.ascend(()))
            return
        # A16: 2N = 272 roots, past the oracle's keys, and 17! elements, past
        # the bound: ^J W for J = {1..14}, which the reversal fixes, 272
        # elements, against their letterwise images
        J = range(1, g.n - 1)
        for w in g.ascend(J):
            image = g.apply_automorphism(phi, w)
            assert image is from_word(g, [phi.perm[i] for i in w.word], J)
            assert image.length == w.length == coroot_length(g, w.weight)
            for i in range(g.n):
                step = g.apply_automorphism(phi, w.steps[i] or w)
                assert step is (image.steps[phi.perm[i]] or image)

    def test_triality_preserves_length(self):
        from bruhat_atlas.rootdata import validate_automorphism

        g = group_of("D4")
        phi = validate_automorphism([2, 1, 3, 0], g.cartan)
        for w in g.ascend(()):
            assert g.apply_automorphism(phi, w).length == w.length

    @pytest.mark.parametrize(
        "name,perm",
        [("A2", [1, 0]), ("A4", [3, 2, 1, 0]), ("D4", [0, 1, 3, 2]), ("D4", [2, 1, 3, 0])],
        ids=["A2-reversal", "A4-reversal", "D4-fork-swap", "D4-triality"],
    )
    def test_automorphism_moves_j_exactly_when_phi_moves_j(self, name, perm):
        # with phi(J) = J the walk of phi(word) stays in ^J W and lands on the
        # element whose weight is phi(v), phi(v)_phi(i) = v_i: the W-orbit of
        # lambda_J holds it; otherwise phi(v) lies in the W-orbit of
        # lambda_phi(J), disjoint from that of lambda_J, and phi is refused
        from bruhat_atlas.rootdata import validate_automorphism

        g = fresh_group(name)
        phi = validate_automorphism(perm, g.cartan)
        p = phi.perm
        for J in subsets(range(g.n)):
            jw = g.ascend(J)
            if phi.apply_subset(J) == J:
                images = []
                for w in jw:
                    image = g.apply_automorphism(phi, w)
                    assert all(image.weight[p[i]] == c for i, c in enumerate(w.weight))
                    assert image is from_word(g, [p[i] for i in w.word], J), J
                    images.append(image)
                assert len(set(images)) == len(jw) and set(images) == set(jw), J
                continue
            moved = re.escape(f"automorphism moves J={sorted(J)}")
            for w in jw:
                with pytest.raises(InputError, match=f"^{moved}$"):
                    g.apply_automorphism(phi, w)

    def test_an_element_of_another_group_is_refused(self):
        # the walk reads this group's ^J W, so a foreign element is refused
        # before it: not a KeyError, and not an element of the wrong group
        from bruhat_atlas.rootdata import validate_automorphism

        g, other = fresh_group("A2"), fresh_group("A2")
        phi = validate_automorphism([1, 0], g.cartan)
        foreign = "^element belongs to a different ambient group$"
        for w in other.ascend(()):
            with pytest.raises(InputError, match=foreign):
                g.apply_automorphism(phi, w)
        assert g._ascend_cache == {}


class TestEnumeration:
    @pytest.mark.parametrize(
        "name,order",
        [("A2", 6), ("C2", 8), ("A1xA1", 4), ("A4", 120), ("D4", 192), ("C2xC2", 64)],
    )
    def test_orders(self, name, order):
        g = group_of(name)
        assert g.order == order
        assert len(g.ascend(())) == order

    def test_a2_length_multiset(self, a2):
        assert sorted(w.length for w in a2.ascend(())) == [0, 1, 1, 2, 2, 3]

    def test_breadth_first(self):
        g = group_of("C3")
        lengths = [w.length for w in g.ascend(())]
        assert lengths == sorted(lengths)

    def test_bound_exceeded(self):
        from bruhat_atlas.rootdata import DynkinSpec, cartan_from_spec

        g = WeylGroup(cartan_from_spec(DynkinSpec((("A", 4),))), element_bound=100)
        with pytest.raises(BoundError, match="120"):
            g.ascend(())

    def test_bound_counts_materialized_elements(self):
        from bruhat_atlas.rootdata import DynkinSpec, cartan_from_spec

        # the bound counts what is interned over every J: ^J W for J = {0, 1}
        # fills it with 8 elements, and the identity of ^J W for J = {0, 1, 2}
        # is one more
        g = WeylGroup(cartan_from_spec(DynkinSpec((("C", 3),))), element_bound=8)
        assert len(g.ascend({0, 1})) == 8
        with pytest.raises(BoundError, match="bound 8 exceeded: 9 elements"):
            g.ascend({0, 1, 2})

    def test_bound_refuses_an_enumeration_before_growing_it(self):
        # C12, ^J W for J = {0..10} has 2^12 elements
        g = WeylGroup(group_of("C12").cartan, element_bound=1000)
        with pytest.raises(BoundError, match=r"\b4096 elements exceeds element bound 1000$"):
            g.ascend(range(11))
        # refused before its identity is formed
        assert interned(g) == 0

    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_ascent_stops_match_the_definition(self, name):
        # every J, since every rank here is at most 4; the definition side
        # reads the oracle's lengths: w s_i is longer than w, and no s_j s_i w
        # with j in J is shorter
        g = group_of(name)
        keys = keys_of(g)
        for J in subsets(range(g.n)):
            for w in g.ascend(J):
                key = key_of(g, w)
                for i in range(g.n):
                    v = keys.product(key, keys.simple[i])
                    inside = key_length(g, v) > key_length(g, key) and all(
                        key_length(g, keys.left(j, v)) > key_length(g, v) for j in J
                    )
                    assert (w.weight[i] > 0) == inside, (J, i)

    def test_count_guard_fires(self, monkeypatch):
        from bruhat_atlas.rootdata import DynkinSpec, cartan_from_spec

        g = WeylGroup(cartan_from_spec(DynkinSpec((("C", 3),))))
        parabolic = WeylGroup.parabolic
        monkeypatch.setattr(
            WeylGroup, "parabolic",
            lambda self, S: (parabolic(self, S)[0] + 1, parabolic(self, S)[1]),
        )
        with pytest.raises(
            ConsistencyError,
            match=r"^ascent found 24 elements with no left descent in \[0\]; the "
            r"closed form disagrees$",
        ):
            g.ascend({0})

    @pytest.mark.parametrize(
        "name,S,order",
        [("D4", {0, 1, 2}, 24), ("D4", {0, 1, 2, 3}, 192), ("B3", {1, 2}, 8),
         ("C3", {0, 2}, 4), ("A1xA2", {0, 1, 2}, 12), ("A3", (), 1)],
    )
    def test_parabolic_order(self, name, S, order):
        assert group_of(name).parabolic(S)[0] == order

    @pytest.mark.parametrize("name", SMALL_GROUPS + ["B3", "B4", "D5", "A1xB3"])
    def test_parabolic_order_counts_the_subgroup(self, name):
        # W_S is the set of elements of W whose reduced words use only S
        g = group_of(name)
        for S in subsets(range(g.n)):
            sub = [w for w in g.ascend(()) if set(w.word) <= S]
            assert g.parabolic(S) == (len(sub), max(w.length for w in sub)), S

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
        # the order comes from root heights; nothing of size |W| is built, and
        # W itself is refused before it grows
        g = WeylGroup(group_of(name).cartan)
        assert g.order == order
        with pytest.raises(BoundError, match=rf"^enumeration of {order} elements "):
            g.ascend(())
        (e,) = g.ascend(range(g.n))
        assert e.weight == (0,) * g.n and interned(g) == 1

    @pytest.mark.parametrize("name", ["A4", "B3", "C4", "D4", "D5", "A2xB2", "C3xA1xD4"])
    def test_ascend_lists_jw_in_length_and_word_order(self, name):
        # every J: the first parent reached has the least word, so growth
        # order is (length, reduced word) order, which eo_fibers and
        # galois_orbits read off it; every element is born with its word, and
        # once grown its step i is kept exactly where v_i != 0, which
        # lower_sets, eo_fibers and from_word walk; a fresh group per J keeps
        # memory small
        cartan = group_of(name).cartan
        for J in subsets(range(cartan.n)):
            g = WeylGroup(cartan)
            jw = g.ascend(J)
            ordered = [(w.length, w.word) for w in jw]
            assert all(a < b for a, b in zip(ordered, ordered[1:])), J
            for w in jw:
                assert type(w.word) is tuple and len(w.word) == w.length, J
                assert [v is not None for v in w.steps] == [c != 0 for c in w.weight], J

    def test_subgroup_enumeration(self):
        # W_S as the elements of W whose reduced words use only S
        g = group_of("C3")
        W = g.ascend(())
        assert len([w for w in W if set(w.word) <= {0, 1}]) == 6  # A2 parabolic
        assert len([w for w in W if set(w.word) <= {1, 2}]) == 8  # C2 parabolic
        assert [w for w in W if not w.word] == [W[0]]


class TestStepMemo:
    """``ascend`` keeps each right simple step on both elements it joins and
    hands ``_intern`` the reduced word, and so the length, of each element it
    forms."""

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_each_step_hands_on_its_length(self, name, side, monkeypatch):
        # ^J W grown by ascents from its identity, each new element with the
        # word _intern is handed, whose length is the element's; then walked
        # from the identity along the kept steps, on one side, which reaches
        # all of it.  A right step moves the length by the sign of v_i, for
        # every J; a left step s_i w is the walk of the word i followed by a
        # word of w, and it moves the length by one, in W (J empty), where W
        # acts on itself on the left
        cartan = group_of(name).cartan
        for J in subsets(range(cartan.n)) if side == "right" else [()]:
            g = WeylGroup(cartan)
            handed = []
            monkeypatch.setattr(
                g, "_intern",
                lambda J, weight, word, g=g, intern=g._intern: handed.append(
                    len(word) == coroot_length(g, weight)
                ) or intern(J, weight, word),
            )
            jw = g.ascend(J)
            assert len(handed) == len(jw) == interned(g) == g.order // g.parabolic(J)[0]
            assert all(handed), J
            words = {jw[0]: ()}  # a word of each element reached
            frontier = [jw[0]]
            while frontier:
                nxt = []
                for w in frontier:
                    for i in range(g.n):
                        word = (*words[w], i) if side == "right" else (i, *words[w])
                        v = from_word(g, word, J)
                        if side == "right":
                            sign = (w.weight[i] > 0) - (w.weight[i] < 0)
                            assert v.length == w.length + sign, (J, i)
                        else:
                            assert abs(v.length - w.length) == 1, i
                        if v not in words:
                            words[v] = word
                            nxt.append(v)
                frontier = nxt
            assert set(words) == set(jw) and interned(g) == len(jw), J
            assert all(w.length == coroot_length(g, w.weight) for w in jw), J

    @pytest.mark.parametrize("name", SMALL_GROUPS)
    def test_a_step_taken_twice_composes_nothing(self, name, monkeypatch):
        g = WeylGroup(group_of(name).cartan)
        reflected = engine_work(monkeypatch).reflected
        elements = g.ascend(())
        # one reflection per element born: a step that reaches an element
        # already born composes nothing
        assert len(reflected) == len(elements) - 1
        # W grown by ascents: every slot is filled, the ascents forward and
        # the descents by the step back
        for w in elements:
            for i in range(g.n):
                v = w.steps[i]
                assert v is not None and v.steps[i] is w, i
                assert v.length == w.length + (1 if w.weight[i] > 0 else -1)
        # reading the steps back composes nothing more
        lower_sets(g, (), {})
        assert from_word(g, longest(g).word) is elements[-1]
        assert len(reflected) == len(elements) - 1

    def test_wide_keys_over_min_left_reps(self, monkeypatch):
        # C12, ^J W for J = {2..11} has 528 elements, and only they are interned
        g = WeylGroup(group_of("C12").cartan)
        J = range(2, 12)
        jw = g.ascend(J)
        assert len(jw) == interned(g) == 528
        # a slot is filled exactly where the coordinate is not 0; where it is
        # 0 the coset does not move, and the walk stays at w without a reflection
        reflected = engine_work(monkeypatch).reflected
        for w in jw:
            for i in range(g.n):
                assert (w.steps[i] is not None) == (w.weight[i] != 0), i
                if not w.weight[i]:
                    assert from_word(g, (*w.word, i), J) is w
        assert reflected == [] and interned(g) == 528
        assert all(w.length == coroot_length(g, w.weight) for w in jw)

    @pytest.mark.parametrize("preset", ["siegel:4", "gu:4,3:inert", "hilbert:6"])
    def test_a_build_keeps_only_longer_steps(self, preset):
        # a build keeps each step on both elements: one longer exactly where
        # the coordinate is positive, one shorter where it is negative
        g = build_atlas(corpus_preset(preset)).group
        kept = [
            (w, i, v)
            for jw in g._ascend_cache.values()
            for w in jw
            for i, v in enumerate(w.steps)
            if v is not None
        ]
        assert kept
        for w, i, v in kept:
            assert w.weight[i] != 0 and v.steps[i] is w
            assert v.length == w.length + (1 if w.weight[i] > 0 else -1)


class TestSubsetMemos:
    """check_subset and parabolic keep no memo: a
    valid call never admits a subset the group would refuse, and every call
    agrees with a fresh group."""

    def test_a_valid_call_does_not_admit_a_bad_subset(self):
        g = WeylGroup(group_of("C3").cartan)
        ok = frozenset({0, 2})
        assert g.check_subset(ok) == ok and g.check_subset([2, 0]) == ok
        with pytest.raises(InputError, match=r"invalid node ids \[3\] for rank 3"):
            g.check_subset(frozenset({0, g.n}))
        # equal to a validated set, but not its ids: 1.0 == 1 and hashes alike
        assert g.check_subset(frozenset({1})) == {1}
        with pytest.raises(InputError):
            g.check_subset(frozenset({1.0}))

    def test_a_subset_one_group_validated_is_refused_by_another(self):
        S = frozenset({0, 4})
        a5 = WeylGroup(group_of("A5").cartan)
        assert a5.check_subset(S) == S
        with pytest.raises(InputError, match=r"invalid node ids \[4\] for rank 2"):
            group_of("A2").check_subset(S)

    @pytest.mark.parametrize("name", ["B3", "D4", "A1xA2"])
    def test_memo_hits_agree_with_a_fresh_group(self, name):
        g = group_of(name)
        for S in subsets(range(g.n)):
            fresh = WeylGroup(g.cartan)
            first = g.parabolic(S)
            assert g.parabolic(S) == first and fresh.parabolic(S) == first, S
