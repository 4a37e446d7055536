import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_atlas.atlas import build_atlas
from bruhat_atlas.cli import corpus_preset
from bruhat_atlas.serialize import _write_json, atlas_json, atlas_to_dict, parse_case

# the ladder presets whose outputs the benchmark records; opened read-only
LADDER = sorted(
    p
    for p in json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "digests.json").read_text()
    )
    if not p.startswith("doc:")
)


def written(value) -> str:
    out = []
    _write_json(value, "\n", out)
    return "".join(out)


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


class TestWriter:
    @settings(max_examples=150, deadline=None)
    @given(VALUES)
    def test_matches_json_dumps_indent_2(self, value):
        assert written(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value", [[], {}, [[]], {"a": {}}, [{}, []], [True, 1, 0, False], [-1, 2], 0, ""]
    )
    def test_edge_cases(self, value):
        assert written(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize(
        "value", [1.5, {1, 2}, [0.0], {"a": {"b": {3}}}, {1: "int key"}, (1, 2)]
    )
    def test_unsupported_type_raises(self, value):
        with pytest.raises(TypeError):
            written(value)

    @pytest.mark.parametrize("preset", LADDER)
    def test_atlas_json_is_json_dumps(self, preset):
        atlas = build_atlas(parse_case(corpus_preset(preset)))
        assert atlas_json(atlas) == json.dumps(atlas_to_dict(atlas), indent=2) + "\n"
