"""Reference forms that only the tests call.

``atlas_to_dict`` is the atlas.json schema as a dict: ``json.dumps`` of it,
with ``indent=2`` and a final newline, is the document that
:func:`serialize.write_atlas` writes stratum by stratum.  ``atlas_files``
holds the three output files as the command line writes them, and
``atlas_json`` the first.  ``ids_below`` reads a stratum's closure off its
bitmask.  ``brute_double_cosets`` and
``brute_min_left_reps`` list the oracle's closure classes of W's
root-permutation keys, read off ``oracle._cosets``, the same classes that
``verify_atlas`` checks the atlas against.
"""

from io import StringIO

from bruhat_atlas.atlas import Atlas
from bruhat_atlas.galois import OrbitPoset
from bruhat_atlas.oracle import RootKeys, _cosets
from bruhat_atlas.serialize import _header, emit_dot, hasse_edges, write_atlas


def ids_below(poset: OrbitPoset, b: int) -> list[int]:
    """The orbits a <= b, in increasing order: the set bits of b's mask."""
    return [a for a, digit in enumerate(bin(poset.below[b])[:1:-1]) if digit == "1"]


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
                "closure": ids_below(atlas.orbit_poset, sid),
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


def atlas_files(atlas: Atlas) -> dict[str, str]:
    """The text of atlas.json, hasse.dot and table.txt, by file name, from
    the writers the command line calls."""
    json_out, table_out = StringIO(), StringIO()
    write_atlas(atlas, json_out, table_out)
    return {
        "atlas.json": json_out.getvalue(),
        "hasse.dot": emit_dot(atlas),
        "table.txt": table_out.getvalue(),
    }


def atlas_json(atlas: Atlas) -> str:
    """The whole atlas.json text."""
    return atlas_files(atlas)["atlas.json"]


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
