"""The tests' one reader of the engine's element format: what a test needs
of an element's weight or steps, of the elements a group holds, or of the work
it does, it reads through a helper here."""

import importlib.util
import json
import re
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from bruhat_atlas.coxeter import WeylGroup, lower_sets
from bruhat_atlas.oracle import RootKeys
from bruhat_atlas.rootdata import DynkinSpec, cartan_from_spec


@lru_cache(maxsize=None)
def group_of(name: str) -> WeylGroup:
    """'A2', 'C2xC2', 'D4', ... -> a cached WeylGroup."""
    factors = []
    for part in name.split("x"):
        m = re.fullmatch(r"([ABCD])(\d+)", part)
        assert m, f"bad group name {name}"
        factors.append((m.group(1), int(m.group(2))))
    return WeylGroup(cartan_from_spec(DynkinSpec(tuple(factors))))


@lru_cache(maxsize=None)
def keys_of(group: WeylGroup) -> RootKeys:
    """The oracle's root-permutation keys of ``group``, built once."""
    return RootKeys(group)


def key_of(group: WeylGroup, w) -> bytes:
    """The oracle's key of an engine element, through its reduced word."""
    return keys_of(group).of_word(w.word)


def key_length(group: WeylGroup, key: bytes) -> int:
    """The length of a key: the positive roots it sends negative."""
    N = keys_of(group).N
    return sum(1 for r in key[:N] if r >= N)


def from_word(group: WeylGroup, word, J=()):
    """The minimum of the coset W_J s_i1 ... s_ik, walked from the identity of
    ^J W along the steps that ``ascend`` kept: where v_i = 0 the coset does
    not move and the walk stays.  It grows ^J W if need be and interns
    nothing else."""
    w = group.ascend(J)[0]
    for i in word:
        w = w.steps[i] or w
    return w


def longest_length(group: WeylGroup):
    """S -> the length of the longest element of W_S, the N_S of
    ``group.parabolic(S)``: the ``longest`` of ``atlas.stratum_dimension``."""
    return lambda S: group.parabolic(S)[1]


def left_reps(group: WeylGroup, J) -> list:
    """^J W, the engine's shortest elements of the cosets W_J w."""
    return group.ascend(J)


def double_reps(group: WeylGroup, J, K) -> list:
    """^J W^K: the elements of ^J W with no negative coordinate in K."""
    K = group.check_subset(K)
    return [w for w in left_reps(group, J) if all(w.weight[k] >= 0 for k in K)]


def engine_leq(group: WeylGroup):
    """The engine's Bruhat order on all of W: with J empty, ^J W is W, and
    with each element's index in ``ascend(())`` as its bit the lower sets of
    ``lower_sets`` are the Bruhat intervals."""
    index = {w: i for i, w in enumerate(group.ascend(()))}
    down = lower_sets(group, frozenset(), {w: 1 << i for w, i in index.items()})
    return lambda x, w: bool(down[w] >> index[x] & 1)


def interned(group: WeylGroup) -> int:
    """How many elements ``group`` has interned, over every J: the engine's
    own count, which the element bound guards."""
    return group._count


def engine_work(monkeypatch) -> SimpleNamespace:
    """Record, from now to the end of the test, the work every group does:
    ``asked`` the J of each ``ascend`` call, grown or cached, ``born`` the
    word of each element interned, ``reflected`` the node of each reflection
    of a weight, and ``grown`` the J of each ^J W grown, which interns its
    identity, the one element with the empty word, first."""
    work = SimpleNamespace(asked=[], born=[], reflected=[], grown=[])
    ascend, intern, reflect = WeylGroup.ascend, WeylGroup._intern, WeylGroup._reflect

    def asked(group, J):
        work.asked.append(J)
        return ascend(group, J)

    def born(group, J, weight, word):
        work.born.append(word)
        if not word:
            work.grown.append(J)
        return intern(group, J, weight, word)

    def reflected(group, weight, i):
        work.reflected.append(i)
        return reflect(group, weight, i)

    monkeypatch.setattr(WeylGroup, "ascend", asked)
    monkeypatch.setattr(WeylGroup, "_intern", born)
    monkeypatch.setattr(WeylGroup, "_reflect", reflected)
    return work


def subsets(nodes) -> list[frozenset]:
    """Every subset of ``nodes``, by size and then in the order of
    ``itertools.combinations`` over the sorted nodes."""
    nodes = sorted(nodes)
    return [frozenset(c) for r in range(len(nodes) + 1) for c in combinations(nodes, r)]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# the benchmark's recorded output digests, keyed by ladder preset or by
# "doc:" + the sha256 of a many-strata document; opened read-only
DIGESTS = json.loads((PERFBENCH / "digests.json").read_text())
LADDER = sorted(p for p in DIGESTS if not p.startswith("doc:"))


def benchmark_workloads():
    """The benchmark's case generator, imported read-only from its file."""
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# groups small enough for exhaustive all-pairs / all-subsets checks
SMALL_GROUPS = [
    "A1", "A2", "A3", "A4", "B2", "C2", "C3", "C4",
    "D4", "A1xA1", "A2xA2", "C2xC2",
]

# the full oracle-agreement matrix (includes A5, 720 elements)
MATRIX_GROUPS = SMALL_GROUPS + ["A5"]


@pytest.fixture
def a2():
    return group_of("A2")


@pytest.fixture
def c2():
    return group_of("C2")


@pytest.fixture
def a1a1():
    return group_of("A1xA1")
