import importlib.util
import json
import re
from functools import lru_cache
from pathlib import Path

import pytest

from bruhat_atlas.coxeter import WeylGroup
from bruhat_atlas.galois import lower_sets
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


def elements_at(group: WeylGroup, keys) -> set:
    """The elements of ``group`` with the root-permutation keys ``keys`` (the
    oracle returns keys), all of W grown first."""
    group.elements()
    return {group._registry[key] for key in keys}


def engine_leq(group: WeylGroup):
    """The engine's Bruhat order on all of W: with J empty, ^J W is W, and
    with each element's index in ``elements()`` as its bit the lower sets of
    ``lower_sets`` are the Bruhat intervals."""
    index = {w: i for i, w in enumerate(group.elements())}
    down = lower_sets(group, frozenset(), {w: 1 << i for w, i in index.items()})
    return lambda x, w: bool(down[w] >> index[x] & 1)


def forget_words(group: WeylGroup):
    """Drop every peeled word kept on the elements of ``group``."""
    for w in group._registry.values():
        w.word = None


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
