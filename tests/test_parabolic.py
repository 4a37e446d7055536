"""Coset and double-coset representatives, induced subsets and fiber tops,
against the oracle's root-permutation keys."""

import pytest

from bruhat_atlas.atlas import stratum_dimension
from bruhat_atlas.coxeter import WeylGroup, eo_fibers
from bruhat_atlas.errors import InputError
from bruhat_atlas.oracle import brute_interval
from bruhat_atlas.rootdata import DynkinSpec, cartan_from_spec
from conftest import (
    double_reps,
    engine_work,
    from_word,
    group_of,
    interned,
    key_length,
    key_of,
    keys_of,
    left_reps,
    longest_length,
    subsets,
)
from reference import brute_double_cosets, brute_min_left_reps


def words(g: WeylGroup, elements) -> set:
    return {w.word for w in elements}


def right_descent(g: WeylGroup, key: bytes, k: int) -> bool:
    """k is a right descent of a key when it sends alpha_k negative."""
    return key[k] >= keys_of(g).N


class TestLeftReps:
    def test_full_subset_gives_identity(self, a2):
        assert left_reps(a2, {0, 1}) == [from_word(a2, (), {0, 1})]

    def test_a2_example(self, a2):
        reps = left_reps(a2, {0})
        assert sorted(w.length for w in reps) == [0, 1, 2]
        assert words(a2, reps) == {(), (1,), (1, 0)}

    def test_c2_sizes(self, c2):
        reps = left_reps(c2, {0})
        assert sorted(w.length for w in reps) == [0, 1, 2, 3]

    def test_lagrange(self):
        for name in ["A3", "C3", "D4"]:
            g = group_of(name)
            for J in [frozenset(), frozenset({0}), frozenset({0, 2}), frozenset(range(g.n))]:
                # W_J: the elements of W whose reduced words use only J
                W_J = [w for w in g.ascend(()) if set(w.word) <= J]
                assert len(left_reps(g, J)) * len(W_J) == g.order


class TestDoubleReps:
    def test_empty_subsets_give_everything(self, a2):
        assert len(double_reps(a2, (), ())) == a2.order

    def test_a2_example(self, a2):
        reps = double_reps(a2, {0}, {1})
        assert sorted(w.length for w in reps) == [0, 2]

    def test_c2_example(self, c2):
        reps = double_reps(c2, {0}, {0})
        assert sorted(w.length for w in reps) == [0, 1, 3]

    def test_intersection_characterization(self):
        g = group_of("C3")
        J, K = frozenset({0, 1}), frozenset({1, 2})
        left = brute_min_left_reps(keys_of(g), J)
        both = {v for v in left if not any(right_descent(g, v, k) for k in K)}
        assert {key_of(g, w) for w in double_reps(g, J, K)} == both

    def test_partition_against_closure(self):
        for name in ["A3", "C2", "C3", "A1xA1"]:
            g = group_of(name)
            for J, K in [({0}, {1}), ({0}, {0}), ((), {0}), ({0, 1}, {0, 1})]:
                reps = double_reps(g, J, K)
                classes = brute_double_cosets(keys_of(g), J, K)
                assert {cls[0] for cls in classes} == {key_of(g, w) for w in reps}
                assert sum(len(cls) for cls in classes) == g.order


def _coset_minima(g, K):
    """Each key mapped to the key of the shortest element of w W_K, read off
    the oracle's right-K closure classes."""
    return {w: cls[0] for cls in brute_double_cosets(keys_of(g), (), K) for w in cls}


def _key(g, *word):
    return keys_of(g).of_word(word)


class TestProjection:
    """For w in ^J W the shortest element of w W_K is the shortest element of
    W_J w W_K (Bjorner-Brenti section 2.4): the oracle reads each fiber off a
    double-coset class on the strength of it."""

    def test_already_minimal(self, a2):
        assert _coset_minima(a2, {1})[_key(a2, 1, 0)] == _key(a2, 1, 0)

    def test_a2_example(self, a2):
        assert _coset_minima(a2, {1})[_key(a2, 1)] == keys_of(a2).identity

    def test_c2_example(self, c2):
        assert _coset_minima(c2, {0})[_key(c2, 1, 0)] == _key(c2, 1)

    def test_surjective_and_coset_stable(self):
        g = group_of("C3")
        J, K = frozenset({0, 1}), frozenset({0, 1})
        doubles = {key_of(g, w) for w in double_reps(g, J, K)}
        double_min = {w: cls[0] for cls in brute_double_cosets(keys_of(g), J, K) for w in cls}
        coset_min = _coset_minima(g, K)
        images = set()
        for w in left_reps(g, J):
            x = coset_min[key_of(g, w)]
            assert x in doubles and x == double_min[key_of(g, w)]
            images.add(x)
        assert images == doubles


class TestInducedSubset:
    def test_identity_gives_intersection(self, c2):
        assert c2.induced_subset(from_word(c2, (), {0}), {0}, {0}) == {0}

    def test_c2_top_element(self, c2):
        x = from_word(c2, [1, 0, 1], {0})
        assert c2.induced_subset(x, {0}, {0}) == {0}

    def test_a2_example(self, a2):
        assert a2.induced_subset(from_word(a2, [1, 0], {0}), {0}, {1}) == {1}

    def test_always_inside_k(self):
        g = group_of("C3")
        J, K = frozenset({0, 2}), frozenset({1, 2})
        for x in double_reps(g, J, K):
            assert g.induced_subset(x, J, K) <= K

    def test_rejects_bad_representative(self, c2):
        # an element of another quotient, and one with a right descent in K
        with pytest.raises(InputError, match=r"lies in \^J W for J=\[\], not for J=\[0\]"):
            c2.induced_subset(from_word(c2, [0]), {0}, {0})
        with pytest.raises(InputError, match=r"right descents \[0\] in K"):
            c2.induced_subset(from_word(c2, [1, 0], {0}), {0}, {0})
        # an element is named by its word: W(C12) is far past the bound, ^J W
        # for J = {1..11} has 24 elements, and naming one grows nothing more
        c12 = WeylGroup(group_of("C12").cartan)
        J = range(1, 12)
        x = from_word(c12, [0, 1], J)
        with pytest.raises(
            InputError, match=r"^element \[0, 1\] is not a minimal double representative "
        ):
            c12.induced_subset(x, J, {1})
        assert interned(c12) == len(c12.ascend(J)) == 24


def howlett_top(g, x, J, K) -> bytes:
    """x w0(J_x) w0(K) on the oracle's keys, with J_x read off the key of x."""
    keys = keys_of(g)
    key = key_of(g, x)
    Jx = [k for k in K if key[k] in J]
    return keys.product(key, keys.product(keys.longest(Jx), keys.longest(K)))


class TestHowlett:
    # the top of the fiber of x is x w0(J_x) w0(K), of length
    # length(x) + length(w0(K)) - length(w0(J_x))
    def test_x_lower_trivial_when_saturated(self, c2):
        # J_e = K, so the fiber of e is e alone
        e = from_word(c2, (), {0})
        assert c2.induced_subset(e, {0}, {0}) == {0}
        assert eo_fibers(c2, {0}, {0})[e] == [e]
        assert stratum_dimension(e, {0}, {0}, longest_length(c2)) == 0

    def test_a2_x_lower(self, a2):
        # J_e is empty inside K = {1}, so the fiber of e is W_K = {e, s1}
        e = from_word(a2, (), {0})
        assert a2.induced_subset(e, {0}, {1}) == set()
        assert eo_fibers(a2, {0}, {1})[e][-1] is from_word(a2, [1], {0})
        assert stratum_dimension(e, set(), {1}, longest_length(a2)) == 1

    def test_c2_siegel_x_lower(self, c2):
        # s1(alpha_0) is not simple, so J_x is empty and the fiber is s1 * W_K
        s1 = from_word(c2, [1], {0})
        assert c2.induced_subset(s1, {0}, {0}) == set()
        assert eo_fibers(c2, {0}, {0})[s1][-1] is from_word(c2, [1, 0], {0})

    def test_c2_siegel_x_upper(self, c2):
        for word, Jx, top, length in [
            ((1, 0, 1), {0}, (1, 0, 1), 3),
            ((1,), set(), (1, 0), 2),
            ((), {0}, (), 0),
        ]:
            x = from_word(c2, word, {0})
            assert c2.induced_subset(x, {0}, {0}) == Jx
            fiber = eo_fibers(c2, {0}, {0})[x]
            assert fiber[-1].word == top
            assert stratum_dimension(x, Jx, {0}, longest_length(c2)) == length
            assert howlett_top(c2, x, {0}, {0}) == key_of(c2, fiber[-1])

    def test_ell_jk_examples(self, a2, c2):
        # J_x: empty for s1 in C2, K itself for e, {1} for s1 s0 in A2
        assert stratum_dimension(from_word(c2, [1], {0}), set(), {0}, longest_length(c2)) == 2
        assert stratum_dimension(from_word(c2, (), {0}), {0}, {0}, longest_length(c2)) == 0
        assert stratum_dimension(from_word(a2, [1, 0], {0}), {1}, {1}, longest_length(a2)) == 2

    def test_formulas_agree_all_subsets(self):
        import itertools

        for name in ["A3", "C3", "A1xA1"]:
            g = group_of(name)
            nodes = list(range(g.n))
            for jbits in itertools.product([0, 1], repeat=g.n):
                J = frozenset(i for i in nodes if jbits[i])
                for kbits in itertools.product([0, 1], repeat=g.n):
                    K = frozenset(i for i in nodes if kbits[i])
                    fibers = eo_fibers(g, J, K)
                    for x in double_reps(g, J, K):
                        Jx = g.induced_subset(x, J, K)
                        fiber = fibers[x]
                        dim = stratum_dimension(x, Jx, K, longest_length(g))
                        assert [w.length for w in fiber].count(dim) == 1
                        assert fiber[-1].length == dim
                        assert howlett_top(g, x, J, K) == key_of(g, fiber[-1])

    def test_x_upper_is_bruhat_maximal_in_fiber(self):
        g = group_of("C3")
        keys = keys_of(g)
        J, K = frozenset({0, 1}), frozenset({0, 1})
        left = brute_min_left_reps(keys, J)
        classes = {cls[0]: cls for cls in brute_double_cosets(keys, J, K)}
        for x in double_reps(g, J, K):
            top = howlett_top(g, x, J, K)
            fiber = [w for w in classes[key_of(g, x)] if w in left]
            assert top in fiber
            interval = brute_interval(keys, keys.peel(top))
            assert all(w in interval for w in fiber)
            dim = stratum_dimension(x, g.induced_subset(x, J, K), K, longest_length(g))
            assert dim == key_length(g, top) == max((key_length(g, w) for w in fiber))


# every pair of subsets is checked on these
ASCENT_GROUPS = ["A3", "B3", "C3", "D4", "A1xA2", "B2xA1"]


def left_descent_in(g, key: bytes, J) -> bool:
    """Some j in J is a left descent of the key: alpha_j among its negative images."""
    return not J.isdisjoint(key[keys_of(g).N:])


class TestAscentGrowth:
    """Ascent-grown representative sets against descent filters of the
    oracle's keys over the whole group, element for element and in the same
    order."""

    @pytest.mark.parametrize("name", ASCENT_GROUPS)
    def test_left_and_double_reps(self, name):
        g = group_of(name)
        everything = [key_of(g, w) for w in g.ascend(())]
        for J in subsets(range(g.n)):
            left = [v for v in everything if not left_descent_in(g, v, J)]
            assert [key_of(g, w) for w in left_reps(g, J)] == left
            for K in subsets(range(g.n)):
                double = [v for v in left if not any(right_descent(g, v, k) for k in K)]
                assert [key_of(g, w) for w in double_reps(g, J, K)] == double

    @pytest.mark.parametrize("name", ASCENT_GROUPS)
    def test_relative_left_reps(self, name):
        g = group_of(name)
        for K in subsets(range(g.n)):
            # W_K is the set of elements whose reduced words use only K, and
            # ^{J_x}(W_K) is its part in ^{J_x} W, in the same order
            sub = [w for w in g.ascend(()) if set(w.word) <= K]
            for Jx in subsets(K):
                expected = [key_of(g, y) for y in sub if not left_descent_in(g, key_of(g, y), Jx)]
                got = [key_of(g, y) for y in g.ascend(Jx) if set(y.word) <= K]
                assert got == expected

    @pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "A1xA2"])
    def test_fibers_are_the_papers_products(self, name):
        # the paper's fiber: x*y over the minimal representatives y of the
        # induced subset inside W_K, formed as products of the oracle's keys
        g = group_of(name)
        keys = keys_of(g)
        for K in subsets(range(g.n)):
            W_K = [key_of(g, w) for w in g.ascend(()) if set(w.word) <= K]
            for J in subsets(range(g.n)):
                fibers = eo_fibers(g, J, K)
                for x in double_reps(g, J, K):
                    Jx = g.induced_subset(x, J, K)
                    reps = [y for y in W_K if not left_descent_in(g, y, Jx)]
                    products = sorted(
                        (keys.product(key_of(g, x), y) for y in reps),
                        key=lambda v: (key_length(g, v), keys.peel(v)),
                    )
                    assert [key_of(g, w) for w in fibers[x]] == products


class TestConjugationByKey:
    """``induced_subset`` reads J_x off the coordinates of x; the references
    here form the conjugates by products of the oracle's keys."""

    def test_no_group_products(self, monkeypatch):
        c4 = WeylGroup(cartan_from_spec(DynkinSpec((("C", 4),))))
        a3 = WeylGroup(cartan_from_spec(DynkinSpec((("A", 3),))))
        J = K = frozenset({0, 1, 2})
        doubles = double_reps(c4, J, K)
        a3_doubles = [
            (x, Js, Ks)
            for Js in subsets(range(a3.n))
            for Ks in subsets(range(a3.n))
            for x in double_reps(a3, Js, Ks)
        ]
        before, work = (interned(c4), interned(a3)), engine_work(monkeypatch)
        for x in doubles:
            c4.induced_subset(x, J, K)
        for x, Js, Ks in a3_doubles:
            a3.induced_subset(x, Js, Ks)
        assert work.born == work.reflected == []
        assert (interned(c4), interned(a3)) == before

    @pytest.mark.parametrize("name", ASCENT_GROUPS)
    def test_against_products(self, name):
        g = group_of(name)
        keys = keys_of(g)
        everything = subsets(range(g.n))
        for J in everything:
            for K in everything:
                for x in double_reps(g, J, K):
                    key = key_of(g, x)
                    # x s_k x^-1 = s_j exactly when s_j x = x s_k
                    expected = {
                        k for k in K
                        if any(keys.left(j, key) == keys.product(key, keys.simple[k]) for j in J)
                    }
                    assert g.induced_subset(x, J, K) == expected
