import copy
import itertools

import pytest

from bruhat_atlas import oracle, parabolic
from bruhat_atlas.atlas import build_atlas, siegel_case
from bruhat_atlas.cli import corpus_preset, main
from bruhat_atlas.coxeter import WeylGroup
from bruhat_atlas.errors import BoundError, ConsistencyError
from bruhat_atlas.oracle import (
    brute_double_cosets,
    brute_interval,
    brute_min_left_reps,
    verify_atlas,
)
from bruhat_atlas.rootdata import DynkinSpec, cartan_from_spec
from bruhat_atlas.serialize import parse_case
from conftest import engine_leq, group_of


class TestBruteBruhat:
    def test_interval_of_identity(self, a2):
        assert brute_interval(a2, []) == {a2.identity.key}

    def test_interval_of_w0_is_everything(self, c2):
        w0 = c2.longest_element(range(2))
        assert brute_interval(c2, c2.reduced_word(w0)) == {w.key for w in c2.elements()}

    @pytest.mark.parametrize("name", ["A2", "C2", "A1xA1", "A3", "B3", "A1xA2"])
    def test_agrees_with_engine_all_pairs(self, name):
        g = group_of(name)
        leq = engine_leq(g)
        for w in g.elements():
            word = g.reduced_word(w)
            interval = brute_interval(g, word)
            for x in g.elements():
                assert (x.key in interval) == leq(x, w)


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
                assert {c[0] for c in classes} == {
                    w.key for w in parabolic.min_double_reps(g, J, K)
                }

    def test_left_reps_match_engine(self):
        for name in ["A3", "B3", "C3", "D4", "A1xA2", "B2xA1"]:
            g = group_of(name)
            for r in range(g.n + 1):
                for J in itertools.combinations(range(g.n), r):
                    assert brute_min_left_reps(g, J) == {
                        w.key for w in parabolic.min_left_reps(g, J)
                    }, (name, J)

    def test_key_passes_call_no_group_law_and_intern_nothing(self, monkeypatch):
        # the J and K of gu:4,3:inert, on a group whose memos are all cold
        g = WeylGroup(cartan_from_spec(DynkinSpec((("A", 6),))))
        J = K = {0, 1, 3, 4, 5}
        calls = []
        for name in ("multiply", "right_mul", "ascend", "_intern"):
            law = getattr(WeylGroup, name)
            monkeypatch.setattr(
                WeylGroup, name,
                lambda self, *args, _name=name, _law=law: calls.append(_name)
                or _law(self, *args),
            )
        lengths = oracle._lengths(g)
        classes = brute_double_cosets(g, J, K)
        left = brute_min_left_reps(g, J)
        w0 = brute_interval(g, [0, 1, 0, 2, 1, 0, 3, 2, 1, 0])  # w0 of A4 inside A6
        assert calls == [] and len(g._registry) == 1 + g.n
        # the breadth-first levels are the lengths the engine reads off the keys
        assert len(lengths) == g.order == 5040
        assert all(length == g._length(key) for key, length in lengths.items())
        assert sorted(map(len, classes)) == [144, 576, 1728, 2592]
        assert len(left) == 5040 // 144 and len(w0) == 120

    def test_w_pass_is_refused_past_the_bound_before_it_starts(self, monkeypatch):
        g = WeylGroup(cartan_from_spec(DynkinSpec((("A", 6),))), element_bound=5039)
        monkeypatch.setattr(g, "_table", lambda key: pytest.fail("a key was composed"))
        with pytest.raises(BoundError, match=r"^the oracle enumerates all 5040 elements"):
            oracle._lengths(g)


def _corpus_atlases():
    from bruhat_atlas.cli import corpus_preset

    for preset in ["siegel:2", "siegel:3", "hilbert:2", "gu:2,1:inert", "gu:2,1:split"]:
        yield preset, build_atlas(parse_case(corpus_preset(preset)))


class TestVerifyAtlas:
    @pytest.mark.parametrize("preset", ["siegel:5", "gu:4,3:inert"])
    def test_verify_interns_nothing(self, preset):
        # an oracle on interned elements grows these registries to all of W,
        # 73 -> 3,840 and 74 -> 5,040
        atlas = build_atlas(parse_case(corpus_preset(preset)))
        interned = len(atlas.group._registry)
        assert verify_atlas(atlas).passed
        assert len(atlas.group._registry) == interned

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

    @pytest.mark.parametrize("claimed", [True, False])
    def test_corrupted_single_eo_is_caught(self, claimed):
        # flip a stratum with several fibers to True, or the singleton top
        # stratum to False
        atlas = build_atlas(siegel_case(2))
        broken = copy.copy(atlas)
        broken.strata = [copy.copy(s) for s in atlas.strata]
        victim = next(
            s for s in broken.strata if s.single_eo is not claimed and s.is_maximal is not claimed
        )
        victim.single_eo = claimed
        failed = [
            line for line in verify_atlas(broken).render().splitlines()
            if line.startswith("[FAIL]")
        ]
        word = atlas.group.reduced_word(victim.rep)
        assert len(failed) == 1
        assert failed[0].startswith("[FAIL] single_fiber_criterion ")
        assert failed[0].endswith(f"counterexample: x={word}")

    def test_corrupted_maximal_flag_is_caught(self):
        atlas = build_atlas(siegel_case(2))
        broken = copy.copy(atlas)
        broken.strata = [copy.copy(s) for s in atlas.strata]
        for s in broken.strata:
            s.is_maximal = True
        report = verify_atlas(broken)
        assert any(c.name == "maximal_stratum" and not c.passed for c in report.checks)

    @pytest.mark.parametrize("claimed_length", ["own", "true"])
    def test_engine_top_element_is_checked_not_trusted(self, monkeypatch, claimed_length):
        # x_upper claims x itself as the top element of its double coset
        atlas = build_atlas(siegel_case(2))
        x_upper = parabolic.x_upper

        def wrong_top(group, x, Jx, K):
            length = x.length if claimed_length == "own" else x_upper(group, x, Jx, K)[1]
            return x, length

        monkeypatch.setattr(parabolic, "x_upper", wrong_top)
        report = verify_atlas(atlas)
        howlett = next(c for c in report.checks if c.name == "howlett_lengths")
        assert not howlett.passed
        assert howlett.counterexample.startswith("x=[")

    def test_dropped_fiber_element_is_caught(self):
        atlas = build_atlas(siegel_case(3))
        broken = copy.copy(atlas)
        broken.strata = [copy.copy(s) for s in atlas.strata]
        victim = next(s for s in broken.strata if len(s.eo_fiber) > 1)
        victim.eo_fiber = victim.eo_fiber[:-1]
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
        broken.orbit_poset = copy.copy(atlas.orbit_poset)
        orbits = list(atlas.orbit_poset.orbits)
        # the identity below every representative now also sits in the top orbit
        orbits[-1] = orbits[-1] + [atlas.group.identity]
        broken.orbit_poset.orbits = orbits
        report = verify_atlas(broken)
        anti = next(c for c in report.checks if c.name == "orbit_order_antisymmetry")
        assert not anti.passed and anti.counterexample == "orbits 0 and 2"


class TestGuards:
    """The oracle's own guards fire, and name an element by the reduced word
    peeled on its key."""

    def test_a_wrong_count_of_w_exits_4(self, tmp_path, monkeypatch, capsys):
        # s_0's key is swapped for the identity's for the oracle only, so its
        # pass grows W(C2), of order 8, inside W(C3)
        verify = oracle.verify_atlas

        def with_a_broken_generator(atlas):
            g = atlas.group
            monkeypatch.setattr(g, "simple", (g.identity, *g.simple[1:]))
            return verify(atlas)

        monkeypatch.setattr(oracle, "verify_atlas", with_a_broken_generator)
        assert main(["--out", str(tmp_path), "--verify", "corpus", "siegel:3"]) == 4
        assert capsys.readouterr().err == (
            "error: internal invariant failed: "
            "the oracle's pass over W found 8 elements, but |W| is 48\n"
        )

    def test_a_tie_for_the_minimum_names_a_reduced_word(self, a2):
        # the tied keys s0 s1 and s1 s0 are not interned, and naming one
        # interns nothing
        g = WeylGroup(a2.cartan)
        s0, s1 = (s.key for s in g.simple)
        s01, s10 = g._compose(s1, g._table(s0)), g._compose(s0, g._table(s1))
        with pytest.raises(
            ConsistencyError,
            match=r"^min length 2 is attained more than once, at \[0, 1\] and others$",
        ):
            oracle._unique_by_length(g, {s01: 2, s10: 2}, [s01, s10], min)
        assert len(g._registry) == 1 + g.n
