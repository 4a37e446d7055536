import copy

import pytest
from hypothesis import given, settings

from bruhat_atlas import atlas as atlas_mod, oracle
from bruhat_atlas.atlas import build_atlas, siegel_case
from bruhat_atlas.cli import corpus_preset, main
from bruhat_atlas.coxeter import WeylGroup
from bruhat_atlas.errors import BoundError, ConsistencyError
from bruhat_atlas.oracle import RootKeys, brute_interval, verify_atlas
from bruhat_atlas.rootdata import DynkinSpec, cartan_from_spec
from bruhat_atlas.serialize import parse_case
from conftest import (
    double_reps,
    engine_leq,
    engine_work,
    from_word,
    group_of,
    interned,
    key_length,
    key_of,
    keys_of,
    left_reps,
    subsets,
)
from reference import brute_double_cosets, brute_min_left_reps
from test_galois import _relabelled_cases


class TestBruteBruhat:
    def test_interval_of_identity(self, a2):
        assert brute_interval(keys_of(a2), []) == {keys_of(a2).identity}

    def test_interval_of_w0_is_everything(self, c2):
        keys = keys_of(c2)
        w0 = keys.longest(range(2))
        assert brute_interval(keys, keys.peel(w0)) == {key_of(c2, w) for w in c2.ascend(())}

    @pytest.mark.parametrize("name", ["A2", "C2", "A1xA1", "A3", "B3", "A1xA2"])
    def test_agrees_with_engine_all_pairs(self, name):
        g = group_of(name)
        leq = engine_leq(g)
        for w in g.ascend(()):
            word = w.word
            interval = brute_interval(keys_of(g), word)
            for x in g.ascend(()):
                assert (key_of(g, x) in interval) == leq(x, w)


class TestBruteCosets:
    def test_a2_class_sizes(self, a2):
        classes = brute_double_cosets(keys_of(a2), {0}, {1})
        assert sorted(len(c) for c in classes) == [2, 4]

    def test_c2_class_sizes(self, c2):
        classes = brute_double_cosets(keys_of(c2), {0}, {0})
        assert sorted(len(c) for c in classes) == [2, 2, 4]

    def test_class_minima_match_engine(self):
        for name in ["A3", "C3", "D4"]:
            g = group_of(name)
            for J, K in [({0}, {1}), ({0, 1}, {0, 1}), ((), {2})]:
                classes = brute_double_cosets(keys_of(g), J, K)
                assert {c[0] for c in classes} == {key_of(g, w) for w in double_reps(g, J, K)}

    def test_left_reps_match_engine(self):
        for name in ["A3", "B3", "C3", "D4", "A1xA2", "B2xA1"]:
            g = group_of(name)
            for J in subsets(range(g.n)):
                assert brute_min_left_reps(keys_of(g), J) == {
                    key_of(g, w) for w in left_reps(g, J)
                }, (name, J)

    def test_key_passes_call_no_group_law_and_intern_nothing(self, monkeypatch):
        # the J and K of gu:4,3:inert, on a group whose memos are all cold
        g = WeylGroup(cartan_from_spec(DynkinSpec((("A", 6),))))
        J = K = {0, 1, 3, 4, 5}
        work = engine_work(monkeypatch)
        keys = RootKeys(g)
        lengths = oracle._lengths(keys)
        classes = brute_double_cosets(keys, J, K)
        left = brute_min_left_reps(keys, J)
        w0 = brute_interval(keys, [0, 1, 0, 2, 1, 0, 3, 2, 1, 0])  # w0 of A4 inside A6
        assert work.born == work.reflected == work.grown == [] and interned(g) == 0
        # the breadth-first levels are the negative images of each key
        assert len(lengths) == g.order == 5040
        assert all(length == key_length(g, key) for key, length in lengths.items())
        assert sorted(map(len, classes)) == [144, 576, 1728, 2592]
        assert len(left) == 5040 // 144 and len(w0) == 120

    def test_w_pass_is_refused_past_the_bound_before_it_starts(self, monkeypatch):
        g = WeylGroup(cartan_from_spec(DynkinSpec((("A", 6),))), element_bound=5039)
        monkeypatch.setattr(oracle, "reflect", lambda *args: pytest.fail("a key was built"))
        with pytest.raises(BoundError, match=r"^the oracle enumerates all 5040 elements"):
            RootKeys(g)


def _corpus_atlases():
    from bruhat_atlas.cli import corpus_preset

    for preset in ["siegel:2", "siegel:3", "hilbert:2", "gu:2,1:inert", "gu:2,1:split"]:
        yield preset, build_atlas(parse_case(corpus_preset(preset)))


class TestVerifyAtlas:
    @pytest.mark.parametrize("preset", ["siegel:5", "gu:4,3:inert"])
    def test_verify_interns_nothing(self, preset):
        # an oracle on interned elements would grow what the group holds from
        # ^J W, 32 and 35 elements, to all of W, 3,840 and 5,040
        atlas = build_atlas(parse_case(corpus_preset(preset)))
        held = interned(atlas.group)
        assert verify_atlas(atlas).passed
        assert interned(atlas.group) == held

    @pytest.mark.parametrize(
        "preset,atlas", list(_corpus_atlases()), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_corpus_passes(self, preset, atlas):
        report = verify_atlas(atlas)
        assert report.passed, report.render()
        assert len(report.checks) == 10

    @settings(max_examples=30, deadline=None)
    @given(_relabelled_cases())
    def test_relabelled_cases_pass_all_checks(self, doc):
        # shuffled factors, D4 triality and cycled factors, end to end: the
        # orbits come from walking each representative's word through phi
        report = verify_atlas(build_atlas(parse_case(doc)))
        assert report.passed, report.render()
        assert len(report.checks) == 10

    def test_render_format(self):
        atlas = build_atlas(siegel_case(2))
        lines = verify_atlas(atlas).render().splitlines()
        assert all(line.startswith("[PASS]") for line in lines)

    def test_corrupted_dimension_is_caught(self):
        atlas = build_atlas(siegel_case(2))
        broken = copy.copy(atlas)
        broken.strata = [copy.copy(s) for s in atlas.strata]
        victim = next(s for s in broken.strata[:-1] if s.dim > 0)
        victim.dim += 1
        report = verify_atlas(broken)
        assert not report.passed
        failed = [c for c in report.checks if not c.passed]
        assert any(c.name == "dimensions" for c in failed)
        assert any(c.counterexample for c in failed)

    @pytest.mark.parametrize("claimed", [True, False])
    def test_corrupted_single_eo_is_caught(self, claimed):
        # a stratum is single exactly when its fiber has one element.  Claimed
        # single: a fiber of several cut to its top, which changes its set
        # too.  Claimed not single: the singleton top stratum's fiber repeats
        # its one element, which leaves the set and the top as they are.
        atlas = build_atlas(siegel_case(2))
        broken = copy.copy(atlas)
        broken.strata = [copy.copy(s) for s in atlas.strata]
        if claimed:
            victim = next(s for s in broken.strata if len(s.eo_fiber) > 1)
            victim.eo_fiber = victim.eo_fiber[-1:]
        else:
            victim = broken.strata[-1]
            assert len(victim.eo_fiber) == 1
            victim.eo_fiber = victim.eo_fiber * 2
        failed = [
            line for line in verify_atlas(broken).render().splitlines()
            if line.startswith("[FAIL]")
        ]
        word = list(victim.rep.word)
        names = ["fiber_partition", "single_fiber_criterion"] if claimed else [
            "single_fiber_criterion"
        ]
        assert [line.split()[1] for line in failed] == names
        assert all(line.endswith(f"counterexample: x={word}") for line in failed)

    def test_corrupted_maximal_flag_is_caught(self):
        # the writers mark the last stratum maximal; with the last two
        # swapped, a stratum below the top is last, and the down-set masks,
        # left as built, no longer match the strata they are written for
        atlas = build_atlas(siegel_case(2))
        broken = copy.copy(atlas)
        broken.strata = [*atlas.strata[:-2], atlas.strata[-1], atlas.strata[-2]]
        failed = [c for c in verify_atlas(broken).checks if not c.passed]
        assert [c.name for c in failed] == ["closure_order", "maximal_stratum"]
        assert failed[0].counterexample == "orbits 2 <= 1"
        assert failed[1].counterexample == "brute maximum [1], last stratum 2"

    def test_swapped_strata_of_equal_length_are_caught(self):
        # hilbert:6 strata 2 and 3 have equal length but different closures:
        # swapped, each is written with the other's closure list
        atlas = build_atlas(parse_case(corpus_preset("hilbert:6")))
        assert atlas.strata[2].rep.length == atlas.strata[3].rep.length
        assert atlas.orbit_poset.below[2] != atlas.orbit_poset.below[3]
        broken = copy.copy(atlas)
        broken.strata = list(atlas.strata)
        broken.strata[2], broken.strata[3] = atlas.strata[3], atlas.strata[2]
        failed = [c for c in verify_atlas(broken).checks if not c.passed]
        assert [c.name for c in failed] == ["closure_order"]
        assert failed[0].counterexample.startswith("orbits ")

    def test_a_mask_short_of_the_strata_fails_closure_order(self):
        # a counterexample, not an IndexError
        atlas = build_atlas(siegel_case(3))
        broken = copy.copy(atlas)
        broken.orbit_poset = copy.copy(atlas.orbit_poset)
        broken.orbit_poset.below = atlas.orbit_poset.below[:-1]
        failed = [c for c in verify_atlas(broken).checks if not c.passed]
        assert [c.name for c in failed] == ["closure_order", "maximal_stratum"]
        assert failed[0].counterexample == "3 down-set masks for 4 strata"

    def test_k_taken_as_the_frobenius_image_of_j_is_caught(self, monkeypatch):
        # K taken as phi(J), without the opposition, is J itself on
        # gu:3,2:split, whose phi is the identity; every other check reads the
        # atlas's own K, and passes
        monkeypatch.setattr(atlas_mod, "derive_K", lambda group, J, phi: phi.apply_subset(J))
        atlas = build_atlas(parse_case(corpus_preset("gu:3,2:split")))
        assert atlas.K == atlas.J == frozenset({0, 2, 3})
        failed = [c for c in verify_atlas(atlas).checks if not c.passed]
        assert [(c.name, c.counterexample) for c in failed] == [
            ("parabolic_types", "expected J=[0, 2, 3] K=[0, 1, 3]")
        ]

    def test_singleton_orbits_are_caught(self, monkeypatch):
        # hilbert:6 has 14 orbits under its cyclic Frobenius; one stratum per
        # element of ^J W^K gives 64, each with a closure order of its own
        monkeypatch.setattr(
            atlas_mod, "galois_orbits", lambda group, elements, phi: [[w] for w in elements]
        )
        atlas = build_atlas(parse_case(corpus_preset("hilbert:6")))
        assert len(atlas.strata) == 64
        failed = [c for c in verify_atlas(atlas).checks if not c.passed]
        assert [(c.name, c.counterexample) for c in failed] == [("frobenius_orbits", "x=[0]")]

    @pytest.mark.parametrize("claimed_length", ["own", "true"])
    def test_engine_top_element_is_checked_not_trusted(self, claimed_length):
        # a stratum claims its representative x as the top element of its
        # fiber, with the length of x as its dimension or with the true one
        atlas = build_atlas(siegel_case(2))
        broken = copy.copy(atlas)
        broken.strata = [copy.copy(s) for s in atlas.strata]
        victim = next(s for s in broken.strata if len(s.eo_fiber) > 1)
        victim.eo_fiber = [*victim.eo_fiber[1:], victim.rep]
        if claimed_length == "own":
            victim.dim = victim.rep.length
        report = verify_atlas(broken)
        howlett = next(c for c in report.checks if c.name == "howlett_lengths")
        assert not howlett.passed
        assert howlett.counterexample.startswith("x=[")

    def test_dropped_fiber_element_is_caught(self):
        atlas = build_atlas(siegel_case(3))
        broken = copy.copy(atlas)
        broken.strata = [copy.copy(s) for s in atlas.strata]
        victim = next(s for s in broken.strata if len(s.eo_fiber) > 1)
        victim.eo_fiber = victim.eo_fiber[1:]  # the representative; the top stays
        failed = [
            line for line in verify_atlas(broken).render().splitlines()
            if line.startswith("[FAIL]")
        ]
        assert len(failed) == 1
        assert failed[0].startswith("[FAIL] fiber_partition ")
        assert "counterexample: x=[" in failed[0]

    def test_orbit_overlapping_an_interval_breaks_antisymmetry(self):
        atlas = build_atlas(siegel_case(2))
        broken = copy.copy(atlas)
        broken.strata = [copy.copy(s) for s in atlas.strata]
        # the identity below every representative now also sits in the top orbit
        top = broken.strata[-1]
        top.orbit = top.orbit + [from_word(atlas.group, (), atlas.J)]
        report = verify_atlas(broken)
        anti = next(c for c in report.checks if c.name == "orbit_order_antisymmetry")
        assert not anti.passed and anti.counterexample == "orbits 0 and 2"


class TestGuards:
    """The oracle's own guards fire, and name an element by the reduced word
    peeled on its key."""

    def test_a_wrong_count_of_w_exits_4(self, tmp_path, monkeypatch, capsys):
        # s_0's key is swapped for the identity's, so the oracle's pass grows
        # W(C2), of order 8, inside W(C3)
        init = oracle.RootKeys.__init__

        def with_a_broken_generator(keys, group):
            init(keys, group)
            keys.simple[0] = keys.identity

        monkeypatch.setattr(oracle.RootKeys, "__init__", with_a_broken_generator)
        assert main(["--out", str(tmp_path), "--verify", "corpus", "siegel:3"]) == 4
        assert capsys.readouterr().err == (
            "error: internal invariant failed: "
            "the oracle's pass over W found 8 elements, but |W| is 48\n"
        )

    def test_a_tie_for_the_minimum_names_a_reduced_word(self, a2):
        # the tied keys s0 s1 and s1 s0 are named by the oracle's own peel,
        # which interns nothing
        g = WeylGroup(a2.cartan)
        keys = RootKeys(g)
        s01, s10 = keys.of_word([0, 1]), keys.of_word([1, 0])
        with pytest.raises(
            ConsistencyError,
            match=r"^min length 2 is attained more than once, at \[0, 1\] and others$",
        ):
            oracle._unique_by_length(keys, {s01: 2, s10: 2}, [s01, s10], min)
        assert interned(g) == 0
