import copy

import pytest

from bruhat_atlas import parabolic
from bruhat_atlas.atlas import build_atlas, siegel_case
from bruhat_atlas.errors import InputError
from bruhat_atlas.oracle import (
    brute_bruhat,
    brute_double_cosets,
    brute_interval,
    brute_min_left_reps,
    brute_project,
    verify_atlas,
)
from bruhat_atlas.serialize import parse_case
from conftest import group_of


class TestBruteBruhat:
    def test_rejects_non_reduced_word(self, a2):
        with pytest.raises(InputError):
            brute_bruhat(a2, a2.identity, a2.simple[0], [0, 0])

    def test_rejects_wrong_word(self, a2):
        with pytest.raises(InputError):
            brute_bruhat(a2, a2.identity, a2.simple[0], [1])

    def test_interval_of_identity(self, a2):
        assert brute_interval(a2, []) == {a2.identity}

    def test_interval_of_w0_is_everything(self, c2):
        w0 = c2.longest_element(range(2))
        assert brute_interval(c2, c2.reduced_word(w0)) == set(c2.elements())

    @pytest.mark.parametrize("name", ["A2", "C2", "A1xA1", "A3"])
    def test_agrees_with_engine_all_pairs(self, name):
        g = group_of(name)
        for w in g.elements():
            word = g.reduced_word(w)
            interval = brute_interval(g, word)
            for x in g.elements():
                assert (x in interval) == g.bruhat_leq(x, w)


class TestBruteCosets:
    def test_a2_class_sizes(self, a2):
        classes = brute_double_cosets(a2, {0}, {1})
        assert sorted(len(c) for c in classes) == [2, 4]

    def test_c2_class_sizes(self, c2):
        classes = brute_double_cosets(c2, {0}, {0})
        assert sorted(len(c) for c in classes) == [2, 2, 4]

    def test_class_minima_match_engine(self):
        for name in ["A3", "C3", "D4"]:
            g = group_of(name)
            for J, K in [({0}, {1}), ({0, 1}, {0, 1}), ((), {2})]:
                classes = brute_double_cosets(g, J, K)
                assert {c[0] for c in classes} == set(
                    parabolic.min_double_reps(g, J, K)
                )

    def test_left_reps_match_engine(self):
        for name in ["A3", "C3"]:
            g = group_of(name)
            for J in [frozenset({0}), frozenset({0, 2}), frozenset(range(g.n))]:
                assert brute_min_left_reps(g, J) == set(
                    parabolic.min_left_reps(g, J)
                )

    def test_project_matches_engine(self):
        g = group_of("C3")
        J, K = frozenset({0, 1}), frozenset({0, 1})
        for w in parabolic.min_left_reps(g, J):
            assert brute_project(g, w, K) == parabolic.project_to_double(g, w, J, K)


def _corpus_atlases():
    from bruhat_atlas.cli import corpus_preset

    for preset in ["siegel:2", "siegel:3", "hilbert:2", "gu:2,1:inert", "gu:2,1:split"]:
        yield preset, build_atlas(parse_case(corpus_preset(preset)))


class TestVerifyAtlas:
    @pytest.mark.parametrize(
        "preset,atlas", list(_corpus_atlases()), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_corpus_passes(self, preset, atlas):
        report = verify_atlas(atlas)
        assert report.passed, report.render()
        assert len(report.checks) == 8

    def test_render_format(self):
        atlas = build_atlas(siegel_case(2))
        lines = verify_atlas(atlas).render().splitlines()
        assert all(line.startswith("[PASS]") for line in lines)

    def test_corrupted_dimension_is_caught(self):
        atlas = build_atlas(siegel_case(2))
        broken = copy.copy(atlas)
        broken.strata = [copy.copy(s) for s in atlas.strata]
        victim = next(s for s in broken.strata if not s.is_maximal and s.dim > 0)
        victim.dim += 1
        report = verify_atlas(broken)
        assert not report.passed
        failed = [c for c in report.checks if not c.passed]
        assert any(c.name == "dimensions" for c in failed)
        assert any(c.counterexample for c in failed)

    def test_corrupted_single_eo_is_caught(self):
        atlas = build_atlas(siegel_case(2))
        broken = copy.copy(atlas)
        broken.strata = [copy.copy(s) for s in atlas.strata]
        victim = next(s for s in broken.strata if not s.single_eo)
        victim.single_eo = True
        report = verify_atlas(broken)
        assert not report.passed
        assert any(
            c.name == "single_fiber_criterion" and not c.passed for c in report.checks
        )

    def test_corrupted_maximal_flag_is_caught(self):
        atlas = build_atlas(siegel_case(2))
        broken = copy.copy(atlas)
        broken.strata = [copy.copy(s) for s in atlas.strata]
        for s in broken.strata:
            s.is_maximal = True
        report = verify_atlas(broken)
        assert any(c.name == "maximal_stratum" and not c.passed for c in report.checks)

    def test_orbit_overlapping_an_interval_breaks_antisymmetry(self):
        atlas = build_atlas(siegel_case(2))
        broken = copy.copy(atlas)
        broken.orbit_poset = copy.copy(atlas.orbit_poset)
        orbits = list(atlas.orbit_poset.orbits)
        # the identity below every representative now also sits in the top orbit
        orbits[-1] = orbits[-1] + [atlas.group.identity]
        broken.orbit_poset.orbits = orbits
        report = verify_atlas(broken)
        anti = next(c for c in report.checks if c.name == "orbit_order_antisymmetry")
        assert not anti.passed and anti.counterexample == "orbits 0 and 2"
