"""Reference forms that only the tests call.

``atlas_to_dict`` is the atlas.json schema as a dict: ``json.dumps`` of it,
with ``indent=2`` and a final newline, is the document that
:func:`serialize.atlas_json_pieces` writes piece by piece, and
``atlas_json`` joins those pieces.  ``brute_double_cosets`` and
``brute_min_left_reps`` list the oracle's closure classes of W's
root-permutation keys, read off ``oracle._cosets``, the same classes that
``verify_atlas`` checks the atlas against.
"""

from bruhat_atlas.atlas import Atlas
from bruhat_atlas.oracle import RootKeys, _cosets
from bruhat_atlas.serialize import _header, atlas_json_pieces, hasse_edges


def atlas_to_dict(atlas: Atlas) -> dict:
    """The atlas.json document as a dict."""
    strata = []
    top = len(atlas.strata) - 1
    for sid, s in enumerate(atlas.strata):
        strata.append(
            {
                "id": sid,
                "rep": s.rep.word,
                "orbit": [w.word for w in s.orbit],
                "dim": s.dim,
                "codim": atlas.moduli_dim - s.dim,
                "eo_fiber": [{"word": w.word, "length": w.length} for w in s.eo_fiber],
                "single_eo": len(s.eo_fiber) == 1,
                "closure": atlas.orbit_poset.ids_below(sid),
                "is_maximal": sid == top,
                "siegel_a": s.siegel_a,
            }
        )
    return {
        **_header(atlas),
        "strata": strata,
        "poset_edges": hasse_edges(atlas),
        "notes": atlas.notes,
    }


def atlas_json(atlas: Atlas) -> str:
    """The whole atlas.json text: the join of the writer's pieces."""
    return "".join(atlas_json_pieces(atlas))


def brute_double_cosets(keys: RootKeys, J, K) -> list[list[bytes]]:
    """Partition of W's keys by closure under left-J and right-K simple
    steps, each class sorted by (length, key)."""
    lengths, coset, _, classes = _cosets(keys, J, K)
    members = [[] for _ in classes]
    into = {c: members[d] for d, cls in enumerate(classes) for c in cls}
    for w in sorted(coset, key=lambda w: (lengths[w], w)):
        into[coset[w]].append(w)
    return members


def brute_min_left_reps(keys: RootKeys, J) -> set[bytes]:
    """The shortest key of each coset W_J w, a closure class of W under left
    simple steps by J, taken explicitly over its class."""
    return set(_cosets(keys, J, ())[2])
