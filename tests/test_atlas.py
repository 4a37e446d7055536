import re
from collections import Counter
from types import SimpleNamespace

import pytest

from bruhat_atlas import atlas as atlas_mod, galois
from bruhat_atlas.atlas import (
    PELCase,
    StratumRecord,
    a_numbers,
    build_atlas,
    derive_J,
    derive_K,
    moduli_dimension,
    siegel_case,
    siegel_dimension,
)
from bruhat_atlas.cli import corpus_preset, main
from bruhat_atlas.coxeter import DEFAULT_BOUND, WeylGroup, eo_fibers
from bruhat_atlas.errors import BoundError, ConsistencyError, InputError
from bruhat_atlas.oracle import verify_atlas
from bruhat_atlas.rootdata import (
    CocharSpec,
    DynkinSpec,
    cartan_from_spec,
    identity_automorphism,
    validate_automorphism,
)
from bruhat_atlas.serialize import parse_case
from conftest import (
    benchmark_workloads,
    double_reps,
    engine_work,
    from_word,
    group_of,
    interned,
    left_reps,
)
from reference import atlas_files, atlas_to_dict, ids_below


def make_case(factors, perm=None, mu=None, J=None, **options):
    spec = DynkinSpec(tuple(factors))
    cartan = cartan_from_spec(spec)
    phi = (
        identity_automorphism(cartan)
        if perm is None
        else validate_automorphism(perm, cartan)
    )
    return PELCase(
        spec=spec,
        phi=phi,
        mu=None if mu is None else CocharSpec(tuple(mu)),
        J=None if J is None else frozenset(J),
        **options,
    )


def hilbert_atlas():
    return build_atlas(make_case([("A", 1), ("A", 1)], perm=[1, 0], mu=(1, 1)))


def gu21_inert_atlas():
    return build_atlas(make_case([("A", 2)], perm=[1, 0], J={1}))


class TestDeriveJK:
    def test_central_mu(self, a2):
        assert derive_J(a2, CocharSpec((0, 0))) == {0, 1}

    def test_c2_siegel(self, c2):
        assert derive_J(c2, CocharSpec((0, 1))) == {0}

    def test_a2_signature_one_two(self, a2):
        assert derive_J(a2, CocharSpec((0, 1))) == {0}

    def test_non_minuscule_rejected(self, c2):
        with pytest.raises(InputError, match="minuscule"):
            derive_J(c2, CocharSpec((1, 0)))

    def test_non_minuscule_allowed_without_check(self, c2):
        assert derive_J(c2, CocharSpec((1, 0)), minuscule_check=False) == {1}

    def test_derive_k(self, a2):
        ident = identity_automorphism(a2.cartan)
        fl = validate_automorphism([1, 0], a2.cartan)
        assert derive_K(a2, frozenset(), ident) == frozenset()
        assert derive_K(a2, {0}, ident) == {1}
        assert derive_K(a2, {1}, fl) == {1}


class TestFiberAndDimension:
    def test_saturated_fiber_is_singleton(self, c2):
        e = from_word(c2, (), {0})
        assert eo_fibers(c2, {0}, {0})[e] == [e]

    def test_c2_siegel_middle_fiber(self, c2):
        fiber = eo_fibers(c2, {0}, {0})[from_word(c2, [1], {0})]
        assert [w.length for w in fiber] == [1, 2]

    def test_a2_identity_fiber(self, a2):
        fiber = eo_fibers(a2, {0}, {1})[from_word(a2, (), {0})]
        assert [w.length for w in fiber] == [0, 1]

    def test_fibers_partition_left_reps(self):
        for name, J, K in [("C3", {0, 1}, {0, 1}), ("A3", {0}, {2}), ("D4", {1}, {1})]:
            g = group_of(name)
            left = set(left_reps(g, J))
            seen = set()
            fibers = eo_fibers(g, J, K)
            assert list(fibers) == double_reps(g, J, K)
            for x in double_reps(g, J, K):
                fiber = set(fibers[x])
                assert fiber <= left
                assert not (fiber & seen)
                seen |= fiber
            assert seen == left

    @pytest.mark.parametrize(
        "factors,J,K",
        [((("C", 4),), {0, 1, 2}, {0, 1, 2}), ((("A", 4),), {0, 2}, {1, 3}),
         ((("D", 4),), {1}, {0, 3}), ((("A", 1), ("A", 2)), {1}, {0, 2})],
    )
    def test_fiber_growth_stays_inside_left_reps(self, monkeypatch, factors, J, K):
        # once ^J W is grown, the fibers follow the steps it memoized
        g = WeylGroup(cartan_from_spec(DynkinSpec(factors)))
        left = left_reps(g, J)
        doubles = double_reps(g, J, K)
        held, work = interned(g), engine_work(monkeypatch)
        fibers = eo_fibers(g, J, K)
        assert interned(g) == held and work.reflected == []
        assert list(fibers) == doubles
        assert sum(map(len, fibers.values())) == len(left)

    def test_fiber_of_a_non_representative_is_refused(self, a2, c2):
        # only ^J W^K keys a fiber: an element of W is not one of ^J W, and
        # s_1 in ^J W has a right descent in K, so it lies in the fiber of e
        assert from_word(c2, [0]) not in eo_fibers(c2, {0}, {1})
        fibers = eo_fibers(a2, {0}, {1})
        s1 = from_word(a2, [1], {0})
        assert s1 not in fibers and s1 in fibers[from_word(a2, (), {0})]
        with pytest.raises(InputError, match=r"invalid node ids \[2\] for rank 2"):
            eo_fibers(a2, {0}, {2})

    def test_moduli_dimension(self, c2, a2):
        assert moduli_dimension(c2, {0, 1}) == 0
        assert moduli_dimension(c2, {0}) == 3
        assert moduli_dimension(a2, {1}) == 2


class TestMuOrdinary:
    """The verdict is one boolean, phi(J) = J; atlas.json writes it under
    each of its six names."""

    def test_identity_always_true(self):
        a = build_atlas(make_case([("C", 2)], J={0}))
        assert a.mu_ordinary is True
        header = atlas_to_dict(a)["mu_ordinary"]
        assert len(header) == 6 and set(header.values()) == {True}

    def test_a2_flip_false(self):
        a = build_atlas(make_case([("A", 2)], perm=[1, 0], J={1}))
        assert a.mu_ordinary is False
        header = atlas_to_dict(a)["mu_ordinary"]
        assert len(header) == 6 and set(header.values()) == {False}


class TestBuildAtlas:
    def test_siegel_g2(self):
        a = build_atlas(siegel_case(2))
        assert sorted(s.dim for s in a.strata) == [0, 2, 3]
        assert sorted(len(s.eo_fiber) for s in a.strata) == [1, 1, 2]
        # closure order is a chain
        assert [ids_below(a.orbit_poset, sid) for sid in range(3)] == [[0], [0, 1], [0, 1, 2]]
        assert a.mu_ordinary is True
        assert a_numbers(a) == [2, 1, 0]

    @pytest.mark.parametrize("preset", ["siegel:3", "gu:4,3:inert", "hilbert:6"])
    def test_rep_is_read_off_the_orbit_and_the_fiber(self, preset):
        assert StratumRecord.__slots__ == ("orbit", "dim", "eo_fiber")
        a = build_atlas(corpus_preset(preset))
        assert all(s.rep is s.orbit[0] is s.eo_fiber[0] for s in a.strata)
        with pytest.raises(AttributeError):
            a.strata[0].rep = a.strata[-1].orbit[0]

    def test_hilbert(self):
        a = hilbert_atlas()
        assert [(s.dim, len(s.orbit), len(s.eo_fiber)) for s in a.strata] == [
            (0, 1, 1),
            (1, 2, 1),
            (2, 1, 1),
        ]
        assert a.degree == 1
        assert a.mu_ordinary is True

    def test_gu21_inert(self):
        a = gu21_inert_atlas()
        assert a.degree == 2
        assert a.mu_ordinary is False
        assert sorted(s.dim for s in a.strata) == [0, 2]
        top = a.strata[-1]
        assert [w.length for w in top.eo_fiber] == [1, 2]

    def test_atlas_counting_invariants(self):
        for a in [build_atlas(siegel_case(3)), hilbert_atlas(), gu21_inert_atlas()]:
            doubles = double_reps(a.group, a.J, a.K)
            left = left_reps(a.group, a.J)
            assert sum(len(s.orbit) for s in a.strata) == len(doubles)
            assert sum(len(s.orbit) * len(s.eo_fiber) for s in a.strata) == len(left)

    def test_single_stratum_case(self, a2):
        a = build_atlas(make_case([("A", 2)], mu=(0, 0)))
        assert len(a.strata) == 1
        assert a.orbit_poset.below == (1,) and a.strata[0].dim == 0

    def test_requires_exactly_one_of_mu_and_j(self):
        with pytest.raises(InputError):
            make_case([("A", 2)])
        with pytest.raises(InputError):
            make_case([("A", 2)], mu=(0, 1), J={0})

    def test_non_minuscule_note(self):
        a = build_atlas(make_case([("C", 2)], mu=(1, 0), minuscule_check=False))
        assert any("minuscule" in note for note in a.notes)

    def test_closure_set(self):
        a = build_atlas(siegel_case(2))
        assert ids_below(a.orbit_poset, 0) == [0]
        assert ids_below(a.orbit_poset, len(a.strata) - 1) == [0, 1, 2]

    def test_d4_triality_case(self):
        # the triality cycle moves node 0, so J takes three steps to return
        a = build_atlas(make_case([("D", 4)], perm=[2, 1, 3, 0], J={0}))
        assert a.degree == 3
        assert a.mu_ordinary is False
        top = a.strata[-1]
        assert len(top.orbit) == 1 and top.dim == a.moduli_dim


class TestBuildGuards:
    """Faults injected into the engine trip the build's invariant guards,
    which name the representative as a reduced word."""

    @staticmethod
    def _change_fibers(monkeypatch, change):
        """Make the build read ``change(x, fiber)`` as the fiber of each x."""
        monkeypatch.setattr(
            atlas_mod, "eo_fibers",
            lambda group, J, K: {
                x: change(x, fiber) for x, fiber in eo_fibers(group, J, K).items()
            },
        )

    @pytest.mark.parametrize(
        "fault, word",
        [("ell_JK_off_by_one", "[]"), ("x_upper_claims_x", "[2]")],
    )
    def test_top_element_and_dimension_guard(self, monkeypatch, fault, word):
        dimension = atlas_mod.stratum_dimension
        if fault == "ell_JK_off_by_one":
            monkeypatch.setattr(
                atlas_mod, "stratum_dimension", lambda *args: dimension(*args) + 1
            )
        else:  # x itself in place of the top element of a fiber with several
            self._change_fibers(monkeypatch, lambda x, fiber: [*fiber[:-1], x])
        with pytest.raises(ConsistencyError, match=f"dimension formulas disagree at {re.escape(word)}$"):
            build_atlas(siegel_case(3))

    def test_fiber_size_guard(self, monkeypatch):
        # each fiber of several loses its representative: its top and the
        # dimension stay, and only |fiber| |W_{J_x}| = |W_K| is broken
        self._change_fibers(monkeypatch, lambda x, fiber: fiber[1:] or fiber)
        with pytest.raises(
            ConsistencyError,
            match=r"^top element, fiber and dimension formulas disagree at \[2\]$",
        ):
            build_atlas(siegel_case(3))

    def test_fiber_sizes_guard(self, monkeypatch):
        # every fiber has its closed-form size, so the strata cover less than
        # ^J W only when an orbit is missing: here the one of the identity
        orbits_of = atlas_mod.galois_orbits
        monkeypatch.setattr(
            atlas_mod, "galois_orbits",
            lambda group, elements, generator: orbits_of(group, elements, generator)[1:],
        )
        with pytest.raises(ConsistencyError, match="fiber sizes do not add up"):
            build_atlas(siegel_case(3))

    def test_frobenius_power_guard(self, monkeypatch):
        # gu:4,3:inert: phi reverses the A6 diagram, and J is fixed by phi^2
        # only; degree 1 makes phi^d move J
        monkeypatch.setattr(atlas_mod, "definition_degree", lambda J, phi: 1)
        with pytest.raises(ConsistencyError, match="not fixed by phi\\^d"):
            build_atlas(corpus_preset("gu:4,3:inert"))

    def test_siegel_a_number_guard(self, monkeypatch):
        monkeypatch.setattr(atlas_mod, "siegel_dimension", lambda g, i: -1)
        with pytest.raises(ConsistencyError, match="does not match a unique a-number"):
            build_atlas(siegel_case(3))

    def test_single_fiber_guard(self, monkeypatch):
        # a fiber is single exactly when it has one element, so the guard
        # that covers it is the one on the top: a second element of the top
        # length is refused, here on the single fiber of the identity
        self._change_fibers(monkeypatch, lambda x, fiber: [*fiber, fiber[-1]])
        with pytest.raises(
            ConsistencyError,
            match=r"top element, fiber and dimension formulas disagree at \[\]$",
        ):
            build_atlas(siegel_case(3))


def _stratum(dim, length, size=1):
    """A stratum whose representative, the first member of its orbit of
    ``size`` members, has only a length."""
    orbit = [SimpleNamespace(length=length)] + ["x"] * (size - 1)
    return StratumRecord(orbit=orbit, dim=dim, eo_fiber=["y"])


class TestAtlasInvariants:
    """The atlas-wide guards, called on two synthetic strata of a moduli
    space of dimension 2: a point below a top stratum, with their down-set
    masks."""

    def test_consistent_strata_pass(self):
        strata = [_stratum(0, 0), _stratum(2, 2)]
        atlas_mod._assert_atlas_invariants(strata, (0b01, 0b11), range(2), 2)

    @pytest.mark.parametrize(
        "strata, below, message",
        [
            ([_stratum(0, 2), _stratum(2, 2)], (0b01, 0b11), "is not unique"),
            ([_stratum(0, 0), _stratum(2, 2, size=2)], (0b01, 0b11), "not a singleton"),
            ([_stratum(0, 0), _stratum(1, 2)], (0b01, 0b11), "differs from the total"),
            ([_stratum(0, 0), _stratum(2, 2)], (0b01, 0b10), "misses some stratum"),
            (
                [_stratum(-1, 0), _stratum(2, 2)],
                (0b01, 0b11),
                r"^stratum 0 dimension -1 out of range 0\.\.2$",
            ),
        ],
        ids=["two maxima", "top orbit", "top dimension", "top closure", "dimension"],
    )
    def test_each_guard_fires(self, strata, below, message):
        # the fiber sizes add up, so only the named guard can fire
        left_reps = range(sum(len(s.orbit) * len(s.eo_fiber) for s in strata))
        with pytest.raises(ConsistencyError, match=message):
            atlas_mod._assert_atlas_invariants(strata, below, left_reps, 2)


class TestSiegel:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_identify(self, g):
        a = build_atlas(siegel_case(g))
        by_a = sorted(zip(a_numbers(a), a.strata), key=lambda pair: pair[0])
        assert [i for i, _ in by_a] == list(range(g + 1))
        assert [s.dim for _, s in by_a] == [
            siegel_dimension(g, i) for i in range(g + 1)
        ]

    @staticmethod
    def _break_order(monkeypatch):
        """Clear one closure bit inside the build, below the top stratum,
        whose full mask the atlas-wide guards check first: on genus 3 the
        a = 2 stratum (id 1) is no longer below the a = 1 one (id 2)."""
        poset_of = atlas_mod.orbit_poset

        def poset_broken(group, orbits, J):
            poset = poset_of(group, orbits, J)
            below = list(poset.below)
            below[2] &= ~(1 << 1)
            poset.below = tuple(below)
            return poset

        monkeypatch.setattr(atlas_mod, "orbit_poset", poset_broken)

    def test_order_not_reversed_is_refused(self, monkeypatch):
        self._break_order(monkeypatch)
        with pytest.raises(ConsistencyError, match="at strata 1 and 2"):
            build_atlas(siegel_case(3))

    @pytest.mark.parametrize("given", ["preset", "J"])
    def test_every_siegel_shaped_build_checks_the_order(
        self, given, tmp_path, capsys, monkeypatch
    ):
        # the corpus preset, and a case file that gives C3's J directly with
        # no mu: both are of Siegel shape, so the build checks the order
        if given == "preset":
            command = ["corpus", "siegel:3"]
        else:
            casefile = tmp_path / "case.json"
            casefile.write_text('{"group": {"factors": [{"type": "C", "rank": 3}]}, "J": [0, 1]}')
            command = ["atlas", str(casefile)]
        assert main(["--out", str(tmp_path / "o"), *command]) == 0
        capsys.readouterr()
        self._break_order(monkeypatch)
        assert main(["--out", str(tmp_path / "o"), *command]) == 4
        assert capsys.readouterr().err == (
            "error: internal invariant failed: closure order does not reverse "
            "the a-number order at strata 1 and 2\n"
        )

    @pytest.mark.parametrize(
        "factors, J, expected",
        [
            ([("A", 1)], set(), [1, 0]),
            ([("C", 2)], {0}, [2, 1, 0]),
            ([("C", 3)], {0, 1}, [3, 2, 1, 0]),
            ([("A", 1)], {0}, None),
            ([("A", 2)], {0}, None),
            ([("C", 3)], {0}, None),
            ([("C", 3)], {1, 2}, None),
            ([("B", 2)], {0}, None),
            ([("C", 2), ("A", 1)], {0}, None),
        ],
    )
    def test_a_numbers_only_on_the_siegel_shape(self, factors, J, expected):
        assert a_numbers(build_atlas(make_case(factors, J=J))) == expected

    def test_options_reach_the_case(self):
        with pytest.raises(BoundError, match="16 elements exceeds element bound 5$"):
            build_atlas(siegel_case(4, element_bound=5))
        built = build_atlas(siegel_case(2, minuscule_check=False))
        assert built.case.minuscule_check is False

    def test_g3_chain(self):
        a = build_atlas(siegel_case(3))
        n = len(a.strata)
        chains = sum(
            a.orbit_poset.leq(i, j) for i in range(n) for j in range(n) if i != j
        )
        assert chains == n * (n - 1) // 2  # total order

    def test_genus_8_materializes_only_the_answer(self):
        # |W(C8)| = 10,321,920 is past the default bound, but building the
        # atlas never enumerates W; what it does intern is counted by
        # test_build_and_outputs_intern_the_answer_plus_at_most_3N
        a = build_atlas(siegel_case(8))
        by_a = sorted(zip(a_numbers(a), a.strata), key=lambda pair: pair[0])
        assert [s.dim for _, s in by_a] == [
            (8 * 9 - i * (i + 1)) // 2 for i in range(9)
        ]
        assert a.group.order > DEFAULT_BOUND

    def test_dimension_formula(self):
        assert [siegel_dimension(2, i) for i in range(3)] == [3, 2, 0]
        assert [siegel_dimension(3, i) for i in range(4)] == [6, 5, 3, 0]

    def test_bad_genus(self):
        with pytest.raises(InputError):
            siegel_case(0)


def _built_with_outputs(preset: str):
    """The atlas of ``preset`` once its three outputs are formed; forming
    them interns nothing."""
    atlas = build_atlas(corpus_preset(preset))
    held = interned(atlas.group)
    atlas_files(atlas)
    assert interned(atlas.group) == held
    return atlas


def test_build_and_outputs_intern_a_pinned_number_of_elements():
    # |W| = 362,880 and |^J W| = 126 here: a build interns ^J W, fibers
    # included, and nothing else
    assert interned(_built_with_outputs("gu:5,4:split").group) == 126


def test_wide_key_build_and_outputs_intern_a_pinned_number_of_elements():
    # A16, 2N = 272 roots and |^J W| = 17
    assert interned(_built_with_outputs("gu:16,1:inert").group) == 17


@pytest.mark.parametrize(
    "preset",
    [
        "siegel:4", "siegel:6", "siegel:8", "gu:4,3:inert", "gu:5,4:split",
        "gu:6,6:inert", "hilbert:8", "hilbert:10",
    ],
)
def test_build_and_outputs_intern_the_answer_plus_at_most_3N(preset):
    # a build interns exactly ^J W: no simple reflection, no product
    atlas = _built_with_outputs(preset)
    g = atlas.group
    assert interned(g) == g.order // g.parabolic(atlas.J)[0]


def test_outputs_peel_words_without_interning(monkeypatch):
    # the build forms every word it writes while it grows ^J W, so the
    # writers read them: no intern, no growth and no call of ascend
    atlas = build_atlas(corpus_preset("gu:5,4:split"))
    work = engine_work(monkeypatch)
    atlas_files(atlas)
    assert work.asked == work.born == work.grown == []
    assert all(w.word is not None for w in left_reps(atlas.group, atlas.J))


@pytest.mark.parametrize("preset", ["gu:4,3:inert", "hilbert:6"])
def test_orbits_relabel_words_without_interning_or_composing(preset, monkeypatch):
    # Frobenius permutes the coordinates of a member of ^J W^K, an element
    # the build has grown; hilbert:6 has a Frobenius of order 6
    atlas = build_atlas(corpus_preset(preset))
    g = atlas.group
    generator = atlas.case.phi.power(atlas.degree)
    held, work = interned(g), engine_work(monkeypatch)
    reps = double_reps(g, atlas.J, atlas.K)
    orbits = galois.galois_orbits(g, reps, generator)
    assert work.reflected == [] and interned(g) == held
    assert {frozenset(o) for o in orbits} == {frozenset(s.orbit) for s in atlas.strata}


def test_fibers_are_not_cached_and_start_less_ascents_are(monkeypatch):
    work = engine_work(monkeypatch)
    atlas = build_atlas(corpus_preset("gu:4,3:inert"))
    g = atlas.group
    assert verify_atlas(atlas).passed
    # only ^J W, whose growth the fibers are read off; the oracle enumerates
    # W on keys, not by ascend
    assert work.grown == [atlas.J]
    assert left_reps(g, atlas.J) is left_reps(g, atlas.J)


@pytest.mark.parametrize("preset", ["siegel:4", "gu:4,3:inert", "gu:5,4:split", "hilbert:6"])
def test_a_build_grows_jw_once_and_reads_the_fibers_off_it(preset, monkeypatch):
    # gu:4,3:inert and hilbert:6 have orbits of several members, whose
    # fibers the oracle reads from the same pass
    work = engine_work(monkeypatch)
    atlas = build_atlas(corpus_preset(preset))
    g = atlas.group
    # one growth, and each element of ^J W is interned once
    assert work.grown == [atlas.J]
    assert len(work.born) == len(set(work.born)) == len(left_reps(g, atlas.J))
    fibers = eo_fibers(g, atlas.J, atlas.K)
    assert len(work.born) == len(left_reps(g, atlas.J)) and len(work.grown) == 1
    assert [fibers[s.rep] for s in atlas.strata] == [s.eo_fiber for s in atlas.strata]
    assert sum(map(len, fibers.values())) == len(left_reps(g, atlas.J))


def _case(name):
    """A ladder preset or a many-strata shape of the benchmark (seed 0)."""
    if ":" in name:
        return corpus_preset(name)
    return parse_case(dict(benchmark_workloads().many_strata_docs(0))[name])


@pytest.mark.parametrize(
    "name", ["siegel:3", "gu:4,3:inert", "B3xA3-rev-J", "D4xA2-fork-rev-J"]
)
def test_a_build_computes_each_parabolic_constant_once_per_subset(name, monkeypatch):
    # each parabolic call is one pass over the positive roots; a build makes
    # one per distinct subset its strata read (K and each J_x), plus the fixed
    # ones: |W| in the constructor, |W_J| in ascend, and N_W and N_J in
    # moduli_dimension.  None scales with the number of strata.
    calls = []
    parabolic = WeylGroup.parabolic
    monkeypatch.setattr(
        WeylGroup, "parabolic",
        lambda self, S: calls.append(frozenset(S)) or parabolic(self, S),
    )
    atlas = build_atlas(_case(name))
    made = Counter(calls)
    g, J, K = atlas.group, atlas.J, atlas.K
    read = {K} | {g.induced_subset(s.rep, J, K) for s in atlas.strata}
    W = frozenset(range(g.n))
    assert made <= Counter([W, J, W, J]) + Counter(read), made
