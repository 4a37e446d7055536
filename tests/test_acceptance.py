"""End-to-end acceptance checks.

Each test covers one numbered guarantee, prints a single pass/fail line, and
asserts exact integer equality — there are no tolerances anywhere.  The heavy
sweeps run over a fixed matrix of groups: exhaustive subsets for the small
groups, corpus-derived subsets for A5.
"""

import time

import pytest

from bruhat_atlas.atlas import (
    build_atlas,
    derive_K,
    moduli_dimension,
    siegel_dimension,
    siegel_identify,
    stratum_dimension,
)
from bruhat_atlas.cli import corpus_preset
from bruhat_atlas.coxeter import eo_fibers, lower_sets
from bruhat_atlas.oracle import brute_interval, verify_atlas
from bruhat_atlas.rootdata import validate_automorphism
from bruhat_atlas.serialize import parse_case
from conftest import (
    MATRIX_GROUPS,
    SMALL_GROUPS,
    double_reps,
    engine_leq,
    group_of,
    key_length,
    key_of,
    keys_of,
    left_reps,
    longest_length,
    subsets,
)
from reference import brute_double_cosets, ids_below

CORPUS_PRESETS = [
    "siegel:1",
    "siegel:2",
    "siegel:3",
    "hilbert:2",
    "hilbert:3",
    "gu:2,1:inert",
    "gu:2,1:split",
    "gu:3,2:inert",
    "gu:3,2:split",
]


def _report(number: int, label: str, ok: bool):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def _all_subset_pairs(group):
    every = subsets(range(group.n))
    return [(J, K) for J in every for K in every]


def _a5_corpus_pairs():
    """(J, K) pairs arising from rank-5 unitary presets, both flavors."""
    group = group_of("A5")
    pairs = []
    for r, s in [(5, 1), (4, 2), (3, 3)]:
        J = frozenset(i for i in range(5) if i != s - 1)
        for flavor in ("inert", "split"):
            perm = list(reversed(range(5))) if flavor == "inert" else list(range(5))
            phi = validate_automorphism(perm, group.cartan)
            pairs.append((J, derive_K(group, J, phi)))
    return group, pairs


def _matrix_pairs():
    """The full test matrix: exhaustive (J, K) for small groups, corpus for A5."""
    for name in SMALL_GROUPS:
        group = group_of(name)
        yield group, _all_subset_pairs(group)
    group, pairs = _a5_corpus_pairs()
    yield group, pairs


@pytest.fixture(scope="module")
def corpus_atlases():
    return {p: build_atlas(parse_case(corpus_preset(p))) for p in CORPUS_PRESETS}


def test_criterion_1_siegel_dimensions():
    start = time.perf_counter()
    ok = True
    for g in range(1, 6):
        strata = siegel_identify(g).strata
        expected = sorted(siegel_dimension(g, i) for i in range(g + 1))
        dims = sorted(s.dim for s in strata)
        ok &= len(strata) == g + 1
        ok &= dims == expected
        ok &= max(dims) == g * (g + 1) // 2
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(1, f"Siegel dimension formula for g=1..5 ({elapsed:.2f}s)", ok)


def test_criterion_2_length_formulas():
    # the top of each fiber is x w0(J_x) w0(K), formed on the oracle's keys,
    # and its length is length(x) + length(w0(K)) - length(w0(J_x))
    ok = True
    for group, pairs in _matrix_pairs():
        keys = keys_of(group)
        for J, K in pairs:
            w0K = keys.longest(K)
            fibers = eo_fibers(group, J, K)
            for x in double_reps(group, J, K):
                Jx = group.induced_subset(x, J, K)
                top = fibers[x][-1]
                xu = keys.product(key_of(group, x), keys.product(keys.longest(Jx), w0K))
                ok &= xu == key_of(group, top)
                dim = stratum_dimension(x, Jx, K, longest_length(group))
                ok &= dim == top.length == key_length(group, xu)
    _report(2, "maximal-element length formulas agree over the test matrix", ok)


def test_criterion_3_fiber_partition():
    ok = True
    for group, pairs in _matrix_pairs():
        for J, K in pairs:
            left = set(left_reps(group, J))
            seen = set()
            fibers = eo_fibers(group, J, K)
            for x in double_reps(group, J, K):
                for w in fibers[x]:
                    ok &= w.length >= x.length
                    ok &= w in left and w not in seen
                    seen.add(w)
            ok &= seen == left
    _report(3, "finer fibers partition the coset representatives", ok)


def test_criterion_4_single_fiber_criterion():
    # the conjugation criterion presupposes |J| = |K|, which holds in every
    # atlas because K is the opposition image of the Frobenius image of J;
    # x^-1 s_j x = s_k exactly when s_j x = x s_k, on the oracle's keys
    ok = True
    for group, pairs in _matrix_pairs():
        keys = keys_of(group)
        for J, K in pairs:
            if len(J) != len(K):
                continue
            fibers = eo_fibers(group, J, K)
            for x in double_reps(group, J, K):
                single = len(fibers[x]) == 1
                key = key_of(group, x)
                conjugate = {keys.left(j, key) for j in J} == {
                    keys.product(key, keys.simple[k]) for k in K
                }
                ok &= single == conjugate
    _report(4, "singleton fibers match the conjugation criterion", ok)


def test_criterion_5_maximal_stratum(corpus_atlases):
    ok = True
    # the writers mark the last stratum maximal: its representative is the
    # one longest, and its down-set holds every stratum
    for atlas in corpus_atlases.values():
        *rest, top = atlas.strata
        ok &= all(s.rep.length < top.rep.length for s in rest)
        ok &= len(top.orbit) == 1
        ok &= top.dim == atlas.moduli_dim
        ok &= top.dim == moduli_dimension(atlas.group, atlas.J)
        ok &= ids_below(atlas.orbit_poset, len(rest)) == list(range(len(atlas.strata)))
    _report(5, "unique dense maximal stratum in every atlas", ok)


def test_criterion_6_ordinarity_verdicts(corpus_atlases):
    ok = True
    for preset, atlas in corpus_atlases.items():
        if preset.startswith("siegel") or preset.endswith("split"):
            ok &= atlas.mu_ordinary is True
    gu = corpus_atlases["gu:2,1:inert"]
    ok &= gu.mu_ordinary is False
    ok &= gu.degree == 2
    top = gu.strata[-1]
    ok &= sorted(w.length for w in top.eo_fiber) == [1, 2]
    _report(6, "ordinarity verdicts, including the rank-two inert case", ok)


def test_criterion_7_hilbert_preset(corpus_atlases):
    atlas = corpus_atlases["hilbert:2"]
    ok = len(atlas.strata) == 3
    ok &= sorted(s.dim for s in atlas.strata) == [0, 1, 2]
    ok &= all(len(s.eo_fiber) == 1 for s in atlas.strata)
    ok &= atlas.degree == 1
    ok &= atlas.mu_ordinary is True
    leq = atlas.orbit_poset.leq
    n = len(atlas.strata)
    chain = sum(leq(a, b) for a in range(n) for b in range(n) if a != b)
    ok &= chain == n * (n - 1) // 2
    _report(7, "real-quadratic preset: single-fiber chain of dims 0,1,2", ok)


def test_criterion_8_oracle_equivalence(corpus_atlases):
    start = time.perf_counter()
    ok = True
    for name in MATRIX_GROUPS:
        group = group_of(name)
        leq = engine_leq(group)
        for w in group.ascend(()):
            interval = brute_interval(keys_of(group), w.word)
            for x in group.ascend(()):
                ok &= (key_of(group, x) in interval) == leq(x, w)
        for J, K in [(frozenset({0}), frozenset({group.n - 1})), (frozenset(), frozenset({0}))]:
            classes = brute_double_cosets(keys_of(group), J, K)
            ok &= {c[0] for c in classes} == {key_of(group, w) for w in double_reps(group, J, K)}
    for atlas in corpus_atlases.values():
        report = verify_atlas(atlas)
        ok &= report.passed
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    _report(8, f"independent oracles agree everywhere ({elapsed:.1f}s)", ok)


def test_criterion_9_poset_sanity(corpus_atlases):
    ok = True
    for name, perm in [("A2", [1, 0]), ("A1xA1", [1, 0]), ("D4", [2, 1, 3, 0])]:
        group = group_of(name)
        phi = validate_automorphism(perm, group.cartan)
        image = {w: group.apply_automorphism(phi, w) for w in group.ascend(())}
        index = {w: i for i, w in enumerate(group.ascend(()))}
        down = lower_sets(group, frozenset(), {w: 1 << i for w, i in index.items()})
        for w in group.ascend(()):
            # phi maps down(w) onto down(phi w)
            mapped = sum(
                1 << index[image[x]] for x in group.ascend(()) if down[w] >> index[x] & 1
            )
            ok &= mapped == down[image[w]]
    for atlas in corpus_atlases.values():
        leq = atlas.orbit_poset.leq
        n = len(atlas.strata)
        ok &= all(
            not (leq(a, b) and leq(b, a))
            for a in range(n)
            for b in range(n)
            if a != b
        )
    _report(9, "symmetries preserve the order; orbit posets are antisymmetric", ok)
