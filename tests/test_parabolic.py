from itertools import combinations

import pytest

from bruhat_atlas import parabolic
from bruhat_atlas.atlas import conjugate_type, eo_fiber
from bruhat_atlas.coxeter import WeylGroup
from bruhat_atlas.errors import InputError
from bruhat_atlas.oracle import brute_double_cosets, brute_interval, brute_min_left_reps
from bruhat_atlas.rootdata import DynkinSpec, cartan_from_spec
from conftest import elements_at, group_of


class TestLeftReps:
    def test_full_subset_gives_identity(self, a2):
        assert parabolic.min_left_reps(a2, {0, 1}) == [a2.identity]

    def test_a2_example(self, a2):
        reps = parabolic.min_left_reps(a2, {0})
        assert sorted(w.length for w in reps) == [0, 1, 2]
        s0, s1 = a2.simple
        assert set(reps) == {a2.identity, s1, s1 * s0}

    def test_c2_sizes(self, c2):
        reps = parabolic.min_left_reps(c2, {0})
        assert sorted(w.length for w in reps) == [0, 1, 2, 3]

    def test_lagrange(self):
        for name in ["A3", "C3", "D4"]:
            g = group_of(name)
            for J in [frozenset(), frozenset({0}), frozenset({0, 2}), frozenset(range(g.n))]:
                reps = parabolic.min_left_reps(g, J)
                assert len(reps) * len(g.ascend(J, ())) == g.order


class TestDoubleReps:
    def test_empty_subsets_give_everything(self, a2):
        assert len(parabolic.min_double_reps(a2, (), ())) == a2.order

    def test_a2_example(self, a2):
        reps = parabolic.min_double_reps(a2, {0}, {1})
        assert sorted(w.length for w in reps) == [0, 2]

    def test_c2_example(self, c2):
        reps = parabolic.min_double_reps(c2, {0}, {0})
        assert sorted(w.length for w in reps) == [0, 1, 3]

    def test_intersection_characterization(self):
        g = group_of("C3")
        J, K = frozenset({0, 1}), frozenset({1, 2})
        left = set(parabolic.min_left_reps(g, J))
        right = {w for w in g.elements() if not (w.right_descents & K)}
        assert set(parabolic.min_double_reps(g, J, K)) == left & right

    def test_partition_against_closure(self):
        for name in ["A3", "C2", "C3", "A1xA1"]:
            g = group_of(name)
            for J, K in [({0}, {1}), ({0}, {0}), ((), {0}), ({0, 1}, {0, 1})]:
                reps = parabolic.min_double_reps(g, J, K)
                classes = brute_double_cosets(g, J, K)
                assert {cls[0] for cls in classes} == {w.key for w in reps}
                assert sum(len(cls) for cls in classes) == g.order


def _coset_minima(g, K):
    """Each element's key mapped to the key of the shortest element of w W_K,
    read off the oracle's right-K closure classes."""
    return {w: cls[0] for cls in brute_double_cosets(g, (), K) for w in cls}


class TestProjection:
    """For w in ^J W the shortest element of w W_K is the shortest element of
    W_J w W_K (Bjorner-Brenti section 2.4): the oracle reads each fiber off a
    double-coset class on the strength of it."""

    def test_already_minimal(self, a2):
        s0, s1 = a2.simple
        assert _coset_minima(a2, {1})[(s1 * s0).key] == (s1 * s0).key

    def test_a2_example(self, a2):
        _, s1 = a2.simple
        assert _coset_minima(a2, {1})[s1.key] == a2.identity.key

    def test_c2_example(self, c2):
        s0, s1 = c2.simple
        assert _coset_minima(c2, {0})[(s1 * s0).key] == s1.key

    def test_surjective_and_coset_stable(self):
        g = group_of("C3")
        J, K = frozenset({0, 1}), frozenset({0, 1})
        doubles = {w.key for w in parabolic.min_double_reps(g, J, K)}
        double_min = {w: cls[0] for cls in brute_double_cosets(g, J, K) for w in cls}
        coset_min = _coset_minima(g, K)
        images = set()
        for w in parabolic.min_left_reps(g, J):
            x = coset_min[w.key]
            assert x in doubles and x == double_min[w.key]
            images.add(x)
        assert images == doubles


class TestInducedSubset:
    def test_identity_gives_intersection(self, c2):
        assert c2.induced_subset(c2.identity, {0}, {0}) == {0}

    def test_c2_top_element(self, c2):
        s0, s1 = c2.simple
        x = s1 * s0 * s1
        assert c2.induced_subset(x, {0}, {0}) == {0}

    def test_a2_example(self, a2):
        s0, s1 = a2.simple
        assert a2.induced_subset(s1 * s0, {0}, {1}) == {1}

    def test_always_inside_k(self):
        g = group_of("C3")
        J, K = frozenset({0, 2}), frozenset({1, 2})
        for x in parabolic.min_double_reps(g, J, K):
            assert g.induced_subset(x, J, K) <= K

    def test_rejects_bad_representative(self, c2):
        with pytest.raises(InputError):
            c2.induced_subset(c2.simple[0], {0}, {0})


class TestHowlett:
    # x_upper(x) = x * w0(J_x) * w0(K); these pin the W_K factor w0(J_x) * w0(K)
    def test_x_lower_trivial_when_saturated(self, c2):
        # J_e = K, so the fiber of e is e alone
        assert c2.induced_subset(c2.identity, {0}, {0}) == {0}
        xu, dim = parabolic.x_upper(c2, c2.identity, {0}, {0})
        assert xu is c2.identity and dim == 0

    def test_a2_x_lower(self, a2):
        # J_e is empty inside K = {1}, so the fiber of e is W_K = {e, s1}
        assert a2.induced_subset(a2.identity, {0}, {1}) == set()
        xu, dim = parabolic.x_upper(a2, a2.identity, set(), {1})
        assert xu is a2.simple[1] and dim == 1

    def test_c2_siegel_x_lower(self, c2):
        s0, s1 = c2.simple
        # s1(alpha_0) is not simple, so J_x is empty and the fiber is s1 * W_K
        assert c2.induced_subset(s1, {0}, {0}) == set()
        xu, _ = parabolic.x_upper(c2, s1, set(), {0})
        assert xu is s1 * s0

    def test_c2_siegel_x_upper(self, c2):
        s0, s1 = c2.simple
        for x, Jx, top, length in [
            (s1 * s0 * s1, {0}, s1 * s0 * s1, 3),
            (s1, set(), s1 * s0, 2),
            (c2.identity, {0}, c2.identity, 0),
        ]:
            assert c2.induced_subset(x, {0}, {0}) == Jx
            assert parabolic.x_upper(c2, x, Jx, {0}) == (top, length)

    def test_ell_jk_examples(self, a2, c2):
        # ell_JK takes J_x: empty for s1 in C2, K itself for e, {1} for s1 s0 in A2
        assert parabolic.ell_JK(c2, c2.simple[1], set(), {0}) == 2
        assert parabolic.ell_JK(c2, c2.identity, {0}, {0}) == 0
        s0, s1 = a2.simple
        assert parabolic.ell_JK(a2, s1 * s0, {1}, {1}) == 2

    def test_formulas_agree_all_subsets(self):
        import itertools

        for name in ["A3", "C3", "A1xA1"]:
            g = group_of(name)
            nodes = list(range(g.n))
            for jbits in itertools.product([0, 1], repeat=g.n):
                J = frozenset(i for i in nodes if jbits[i])
                for kbits in itertools.product([0, 1], repeat=g.n):
                    K = frozenset(i for i in nodes if kbits[i])
                    for x in parabolic.min_double_reps(g, J, K):
                        Jx = g.induced_subset(x, J, K)
                        _, dim = parabolic.x_upper(g, x, Jx, K)
                        assert dim == parabolic.ell_JK(g, x, Jx, K)

    def test_x_upper_is_bruhat_maximal_in_fiber(self):
        g = group_of("C3")
        J, K = frozenset({0, 1}), frozenset({0, 1})
        left = brute_min_left_reps(g, J)
        classes = {cls[0]: cls for cls in brute_double_cosets(g, J, K)}
        for x in parabolic.min_double_reps(g, J, K):
            xu, dim = parabolic.x_upper(g, x, g.induced_subset(x, J, K), K)
            fiber = [w for w in classes[x.key] if w in left]
            assert xu.key in fiber
            interval = brute_interval(g, g.reduced_word(xu))
            assert all(w in interval for w in fiber)
            assert dim == max(w.length for w in elements_at(g, fiber))


# every pair of subsets is checked on these
ASCENT_GROUPS = ["A3", "B3", "C3", "D4", "A1xA2", "B2xA1"]


def subsets(nodes):
    nodes = sorted(nodes)
    return [frozenset(c) for r in range(len(nodes) + 1) for c in combinations(nodes, r)]


class TestAscentGrowth:
    """Ascent-grown representative sets against descent filters over the
    whole group, element for element and in the same order."""

    @pytest.mark.parametrize("name", ASCENT_GROUPS)
    def test_left_and_double_reps(self, name):
        g = group_of(name)
        for J in subsets(range(g.n)):
            left = [w for w in g.elements() if not (w.left_descents & J)]
            assert parabolic.min_left_reps(g, J) == left
            for K in subsets(range(g.n)):
                double = [w for w in left if not (w.right_descents & K)]
                assert parabolic.min_double_reps(g, J, K) == double

    @pytest.mark.parametrize("name", ASCENT_GROUPS)
    def test_relative_left_reps(self, name):
        g = group_of(name)
        for K in subsets(range(g.n)):
            # W_K is the set of elements whose reduced words use only K
            sub = [w for w in g.elements() if set(g.reduced_word(w)) <= K]
            assert g.ascend(K, ()) == sub
            for Jx in subsets(K):
                expected = [y for y in sub if not (y.left_descents & Jx)]
                assert g.ascend(K, Jx) == expected

    @pytest.mark.parametrize("name", ["A3", "B3", "C3", "D4", "A1xA2"])
    def test_fibers_are_the_papers_products(self, name):
        # the paper's fiber: x*y over the minimal representatives y of the
        # induced subset inside W_K, formed with general products
        g = group_of(name)
        for K in subsets(range(g.n)):
            W_K = [w for w in g.elements() if set(g.reduced_word(w)) <= K]
            for J in subsets(range(g.n)):
                for x in parabolic.min_double_reps(g, J, K):
                    Jx = g.induced_subset(x, J, K)
                    reps = [y for y in W_K if not (y.left_descents & Jx)]
                    products = sorted(
                        (g.multiply(x, y) for y in reps),
                        key=lambda w: (w.length, g.reduced_word(w)),
                    )
                    assert eo_fiber(g, x, J, K) == products


class TestConjugationByKey:
    """``induced_subset`` and ``conjugate_type`` read x s_k x^-1 = s_{x(alpha_k)}
    off the key of x; the references here form the conjugates by products."""

    def test_no_group_products(self, monkeypatch):
        c4 = WeylGroup(cartan_from_spec(DynkinSpec((("C", 4),))))
        a3 = WeylGroup(cartan_from_spec(DynkinSpec((("A", 3),))))
        J = K = frozenset({0, 1, 2})
        doubles = parabolic.min_double_reps(c4, J, K)
        a3_elements = a3.elements()
        before = (len(c4._registry), len(a3._registry))
        calls = []
        for name in ("multiply", "right_mul"):
            law = getattr(WeylGroup, name)
            monkeypatch.setattr(
                WeylGroup,
                name,
                lambda self, *args, _name=name, _law=law: calls.append(_name)
                or _law(self, *args),
            )
        for x in doubles:
            c4.induced_subset(x, J, K)
        for x in a3_elements:
            for Js in subsets(range(a3.n)):
                conjugate_type(a3, x, Js)
        assert calls == []
        assert (len(c4._registry), len(a3._registry)) == before

    @pytest.mark.parametrize("name", ASCENT_GROUPS)
    def test_against_products(self, name):
        g = group_of(name)

        def conjugates(x, J):
            # x^-1 s_j x for j in J, or None once one is not simple
            x_inv = g.from_word(reversed(g.reduced_word(x)))
            out = set()
            for j in J:
                conj = g.multiply(g.multiply(x_inv, g.simple[j]), x)
                if conj not in g.simple:
                    return None
                out.add(g.simple.index(conj))
            return frozenset(out)

        everything = subsets(range(g.n))
        for J in everything:
            for x in g.elements():
                assert conjugate_type(g, x, J) == conjugates(x, J), (g.reduced_word(x), J)
            for K in everything:
                for x in parabolic.min_double_reps(g, J, K):
                    expected = {
                        k for k in K
                        if any(g.multiply(g.simple[j], x) is g.right_mul(x, k) for j in J)
                    }
                    assert g.induced_subset(x, J, K) == expected
