"""Reference forms that only the tests call.

``atlas_to_dict`` is the atlas.json schema as a dict: ``json.dumps`` of it,
with ``indent=2`` and a final newline, is the document that
:func:`serialize.write_atlas` writes stratum by stratum.  ``atlas_files``
holds the three output files as the command line writes them, and
``atlas_json`` the first.  ``ids_below`` reads a stratum's closure off its
bitmask.  ``brute_double_cosets`` and
``brute_min_left_reps`` list the oracle's closure classes of W's
root-permutation keys, read off ``oracle._cosets``, the same classes that
``verify_atlas`` checks the atlas against.  ``bfs_lengths`` and
``bfs_cosets`` form the lengths and classes that ``oracle._cosets`` forms,
element by element: W breadth-first by right simple steps, so that a key's
length is its level, and each coset W_J w as the closure of its first key
under left-J steps.
"""

from io import StringIO

from bruhat_atlas.atlas import Atlas, a_numbers
from bruhat_atlas.galois import OrbitPoset
from bruhat_atlas.errors import ConsistencyError
from bruhat_atlas.oracle import RootKeys, _cosets, _unique_by_length
from bruhat_atlas.serialize import _header, emit_dot, hasse_edges, write_atlas


def ids_below(poset: OrbitPoset, b: int) -> list[int]:
    """The orbits a <= b, in increasing order: the set bits of b's mask."""
    return [a for a, digit in enumerate(bin(poset.below[b])[:1:-1]) if digit == "1"]


def atlas_to_dict(atlas: Atlas) -> dict:
    """The atlas.json document as a dict."""
    strata = []
    top = len(atlas.strata) - 1
    a = a_numbers(atlas) or [None] * len(atlas.strata)
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
                "siegel_a": a[sid],
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


def bfs_lengths(keys: RootKeys) -> dict[bytes, int]:
    """Every key of W with its length, breadth-first from the identity by
    right simple steps, so a key first met from level l lies on level l + 1.
    Checked against |W| once grown."""
    level = [keys.identity]
    lengths = {level[0]: 0}
    while level and len(lengths) <= keys.order:
        ell, nxt = lengths[level[0]] + 1, []
        for w in level:
            t = keys.table(w)
            for s in keys.simple:
                if (v := s.translate(t)) not in lengths:  # w s_i, first met
                    lengths[v] = ell
                    nxt.append(v)
        level = nxt
    if len(lengths) != keys.order:
        raise ConsistencyError(
            f"the oracle's pass over W found {len(lengths)} elements, "
            f"but |W| is {keys.order}"
        )
    return lengths


def bfs_cosets(keys: RootKeys, J, K) -> tuple[dict, dict, list, list]:
    """What ``oracle._cosets`` returns, formed key by key on the levels of
    ``bfs_lengths``: each coset is the closure of its first key under left-J
    steps, and each double coset the closure of a coset's minimum under
    right-K steps."""
    lengths = bfs_lengths(keys)
    left = [keys.table(keys.simple[j]) for j in J]
    right = [keys.simple[k] for k in K]
    coset, minima = dict.fromkeys(lengths), []
    for w in lengths:
        if coset[w] is None:
            coset[w], block = len(minima), [w]
            for u in block:
                for t in left:
                    if coset[v := u.translate(t)] is None:  # s_j u
                        coset[v] = coset[w]
                        block.append(v)
            minima.append(_unique_by_length(keys, lengths, block, min))
    placed, classes = bytearray(len(minima)), []
    for c in range(len(minima)):
        if not placed[c]:
            placed[c], cls = 1, [c]
            for d in cls:
                t = keys.table(minima[d])
                for s in right:
                    if not placed[e := coset[s.translate(t)]]:  # W_J m s_k
                        placed[e] = 1
                        cls.append(e)
            classes.append(cls)
    return lengths, coset, minima, classes
