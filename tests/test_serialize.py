import hashlib
import json
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_atlas.atlas import a_numbers, build_atlas
from bruhat_atlas.cli import corpus_preset
from bruhat_atlas.serialize import _dumps, case_to_dict, parse_case, word_label
from conftest import DIGESTS, LADDER, benchmark_workloads
from reference import atlas_files, atlas_json, atlas_to_dict


WORKLOADS = benchmark_workloads()


def _many_strata(seed: int) -> dict[str, dict]:
    """The twelve many-strata documents of a seed, named by seed and shape."""
    return {f"{seed}-{name}": doc for name, doc in WORKLOADS.many_strata_docs(seed)}


SEED_0 = _many_strata(0)
# every case document, by name: the ladder presets (their Siegel strata carry
# a-numbers), the many-strata documents of seeds 0 and 1, a case with a note
# and a case with one stratum and no poset edges
CASES = {
    **{p: case_to_dict(corpus_preset(p)) for p in LADDER},
    **SEED_0,
    **_many_strata(1),
    "note": {
        "group": {"factors": [{"type": "C", "rank": 2}]},
        "mu": {"pairings": [1, 0]},
        "options": {"minuscule_check": False},
    },
    "one-stratum": {"group": {"factors": [{"type": "C", "rank": 2}]}, "J": [0, 1]},
}


def digest_key(name: str) -> str:
    """A case's key in the recorded digests."""
    if name in LADDER:
        return name
    return "doc:" + hashlib.sha256(WORKLOADS.doc_bytes(CASES[name])).hexdigest()


@lru_cache(maxsize=None)
def atlas_of(name: str):
    return build_atlas(parse_case(CASES[name]))


def padded_table(atlas) -> str:
    """The table as every column padded to its width, each line then
    right-stripped."""
    rows = [("id", "rep", "dim", "codim", "#EO", "single-EO", "closure")]
    for sid, s in enumerate(atlas.strata):
        rows.append(
            (
                str(sid),
                word_label(s.rep.word),
                str(s.dim),
                str(atlas.moduli_dim - s.dim),
                str(len(s.eo_fiber)),
                "yes" if len(s.eo_fiber) == 1 else "no",
                ",".join(str(a) for a in range(sid + 1) if atlas.orbit_poset.leq(a, sid)),
            )
        )
    widths = [max(len(row[c]) for row in rows) for c in range(7)]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
        for row in rows
    )


def written(value, depth: int) -> str:
    """``value`` written by ``_dumps`` at ``depth``, inside ``depth`` objects
    of one key each."""
    opening = "".join("{\n" + "  " * (d + 1) + '"k": ' for d in range(depth))
    closing = "".join("\n" + "  " * d + "}" for d in reversed(range(depth)))
    return opening + _dumps(value, depth) + closing


def nested(value, depth: int):
    """``value`` inside ``depth`` objects of one key each."""
    for _ in range(depth):
        value = {"k": value}
    return value


# every code point class json escapes: quotes, backslashes, control
# characters, non-ASCII and astral characters (written as surrogate pairs)
TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€𝄞'),
        st.characters(codec="utf-8"),
    ),
    max_size=8,
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-(10**30), 10**30), TEXT
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(st.integers(-5, 5), max_size=4),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=24,
)
# the depths that atlas.json has lines at
DEPTHS = st.integers(0, 5)


def test_cases_reach_every_kind_of_value():
    atlases = [atlas_of(name) for name in CASES]
    assert len(CASES) == len(LADDER) + 12 + 12 + 2
    assert any(a.notes for a in atlases)
    assert any(a_numbers(a) is not None for a in atlases)
    assert any(not a.orbit_poset.covers for a in atlases)
    assert any(len(s.orbit) > 1 for a in atlases for s in a.strata)


class TestWriter:
    """atlas.json is json.dumps of the schema dict, the table is the padded
    table, and the ladder presets and seed-0 documents give the recorded
    bytes."""

    @settings(max_examples=150, deadline=None)
    @given(VALUES, DEPTHS)
    def test_matches_json_dumps_indent_2(self, value, depth):
        assert written(value, depth) == json.dumps(nested(value, depth), indent=2)

    @pytest.mark.parametrize(
        "value", [[], {}, [[]], {"a": {}}, [{}, []], [True, 1, 0, False], [-1, 2], 0, ""]
    )
    def test_edge_cases(self, value):
        for depth in range(6):
            assert written(value, depth) == json.dumps(nested(value, depth), indent=2)

    @pytest.mark.parametrize("name", CASES)
    def test_atlas_json_is_json_dumps(self, name):
        atlas = atlas_of(name)
        assert atlas_json(atlas) == json.dumps(atlas_to_dict(atlas), indent=2) + "\n"

    @pytest.mark.parametrize("name", CASES)
    def test_emit_table_is_the_padded_table(self, name):
        atlas = atlas_of(name)
        assert atlas_files(atlas)["table.txt"] == padded_table(atlas)

    @pytest.mark.parametrize("name", LADDER + list(SEED_0))
    def test_outputs_match_recorded_digests(self, name):
        outputs = atlas_files(atlas_of(name))
        assert {
            file: hashlib.sha256(text.encode()).hexdigest() for file, text in outputs.items()
        } == DIGESTS[digest_key(name)]


@pytest.mark.parametrize("name", CASES)
def test_written_derived_fields_agree_with_the_document(name):
    # codim, single_eo, closure and is_maximal are formed as each stratum is
    # written; each is checked against the document's own independent fields
    doc = json.loads(atlas_json(atlas_of(name)))
    strata, moduli_dim = doc["strata"], doc["moduli_dim"]
    # the closure order: the reflexive-transitive closure of the poset edges
    below = [{sid} for sid in range(len(strata))]
    grown = True
    while grown:
        grown = False
        for a, b in doc["poset_edges"]:
            if not below[a] <= below[b]:
                below[b] |= below[a]
                grown = True
    for sid, s in enumerate(strata):
        assert s["id"] == sid
        assert s["codim"] == moduli_dim - s["dim"]
        assert s["single_eo"] is (len(s["eo_fiber"]) == 1)
        assert s["closure"] == sorted(below[sid])
    maximal = [s for s in strata if s["is_maximal"] is True]
    assert len(maximal) == 1 and all(type(s["is_maximal"]) is bool for s in strata)
    assert maximal[0]["dim"] == moduli_dim
    assert maximal[0]["closure"] == list(range(len(strata)))
