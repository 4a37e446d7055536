"""Case-file parsing and atlas serialization (JSON, DOT, fixed-width table).

Case files are JSON documents:

    {
      "group": {"factors": [{"type": "C", "rank": 2}]},
      "frobenius": {"permutation": [0, 1]},          # optional, default id
      "mu": {"pairings": [0, 1]},                    # exactly one of mu / J
      "J": [0],
      "options": {"minuscule_check": true, "element_bound": 1000000}
    }

Elements are serialized as their deterministic reduced words, so every
document re-parses to the same canonical elements.  ``atlas.json`` is exactly
what ``json.dumps(..., indent=2)`` returns for its schema, plus a final
newline; ``tests/reference.py`` holds that schema as a dict, and the tests
compare the two byte for byte.

:func:`write_atlas` writes atlas.json and table.txt together, in one pass
over the strata, from the fixed schema.  The header values and notes are
laid out by :func:`_dumps` as ``json.dumps(..., indent=2)`` lays them out;
only a string that json would escape goes through ``json.dumps`` (so escaping
is json's own), and a run with no such string never imports json.  Each
stratum is one f-string and one ``write`` to each file, and every integer
list (reduced words, poset edges) is one ``join`` over decimal labels built
once per atlas.  A stratum's closure is formed once, for both files: the
table's cell is the pieces ``"id,"`` that its bitmask's binary digits
select, joined, less the last comma, and atlas.json's list is that cell with
a line break after each comma.  So a writer holds one stratum's text at a
time.

A stratum record holds only its independent data.  The writers derive the
rest as they write the stratum: ``codim`` is ``moduli_dim - dim``,
``single_eo`` is a fiber of one element, ``closure`` is the stratum's
down-set in the orbit poset, read off its bitmask, and ``is_maximal`` marks
the last stratum, since strata come in length order and one is longest.
"""

from __future__ import annotations

from itertools import compress

from .atlas import Atlas, PELCase
from .errors import InputError
from .rootdata import (
    CocharSpec,
    DynkinSpec,
    cartan_from_spec,
    identity_automorphism,
    validate_automorphism,
)
from .coxeter import DEFAULT_BOUND, check_bound


def _int_list(value, what: str) -> list[int]:
    """``value`` when it is a JSON list of integers (booleans refused)."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise InputError(f"{what} must be a list of integers, got {value!r}")
    return value


def parse_case(doc: dict, **overrides) -> PELCase:
    """Validate a case document and apply defaults; ``overrides`` replace
    entries of its options."""
    if not isinstance(doc, dict):
        raise InputError("case document must be a JSON object")
    group = doc.get("group")
    if not isinstance(group, dict) or "factors" not in group:
        raise InputError("missing group.factors")
    if not isinstance(group["factors"], list):
        raise InputError("group.factors must be a list of {'type', 'rank'} objects")
    factors = []
    for pos, f in enumerate(group["factors"]):
        if not isinstance(f, dict) or "type" not in f or "rank" not in f:
            raise InputError(f"group.factors[{pos}] needs 'type' and 'rank'")
        factors.append((str(f["type"]), f["rank"]))
    spec = DynkinSpec(tuple(factors))

    options = doc.get("options")
    if options is None:
        options = {}
    elif not isinstance(options, dict):
        raise InputError(f"options must be a JSON object, got {options!r}")
    options = {**options, **overrides}
    minuscule_check = options.get("minuscule_check", True)
    if not isinstance(minuscule_check, bool):
        raise InputError(
            f"options.minuscule_check must be true or false, got {minuscule_check!r}"
        )
    element_bound = options.get("element_bound", DEFAULT_BOUND)
    check_bound(element_bound, spec.rank)  # before the rank x rank matrix
    cartan = cartan_from_spec(spec)

    frob = doc.get("frobenius")
    if frob is None:
        phi = identity_automorphism(cartan)
    else:
        if not isinstance(frob, dict) or "permutation" not in frob:
            raise InputError("frobenius needs a 'permutation' list")
        perm = _int_list(frob["permutation"], "frobenius.permutation")
        phi = validate_automorphism(perm, cartan)

    has_mu = "mu" in doc
    has_J = "J" in doc
    if has_mu == has_J:
        raise InputError("exactly one of 'mu' and 'J' must be present")
    mu = None
    J = None
    if has_mu:
        mu_doc = doc["mu"]
        if not isinstance(mu_doc, dict) or "pairings" not in mu_doc:
            raise InputError("mu needs a 'pairings' list")
        mu = CocharSpec(tuple(_int_list(mu_doc["pairings"], "mu.pairings")))
    else:
        J = frozenset(_int_list(doc["J"], "J"))

    return PELCase(
        spec=spec,
        phi=phi,
        mu=mu,
        J=J,
        minuscule_check=minuscule_check,
        element_bound=element_bound,
    )


def case_to_dict(case: PELCase) -> dict:
    doc = {
        "group": {
            "factors": [{"type": t, "rank": r} for t, r in case.spec.factors]
        },
        "frobenius": {"permutation": list(case.phi.perm)},
        "options": {
            "minuscule_check": case.minuscule_check,
            "element_bound": case.element_bound,
        },
    }
    if case.mu is not None:
        doc["mu"] = {"pairings": list(case.mu.pairings)}
    else:
        doc["J"] = sorted(case.J)
    return doc


# the mu-ordinary verdict, phi(J) = J, under each name atlas.json gives it:
# the verdict, the criterion itself and its four equivalent readings
_MU_ORDINARY_KEYS = (
    "verdict",
    "frobenius_fixes_parabolic_type",
    "maximal_bruhat_equals_generic_newton",
    "reflex_completion_is_qp",
    "ordinary_locus_nonempty",
    "ordinary_equals_mu_ordinary",
)


def _header(atlas: Atlas) -> dict:
    """The entries of atlas.json before ``strata``."""
    return {
        "case": case_to_dict(atlas.case),
        "group": {
            "name": atlas.case.spec.describe(),
            "rank": atlas.group.n,
            "order": atlas.group.order,
        },
        "J": sorted(atlas.J),
        "K": sorted(atlas.K),
        "degree": atlas.degree,
        "moduli_dim": atlas.moduli_dim,
        "mu_ordinary": dict.fromkeys(_MU_ORDINARY_KEYS, atlas.mu_ordinary),
    }


# a line break followed by the indentation of each depth of atlas.json, and
# the opening, separator and closing of a non-empty list that starts there
_LINES = tuple("\n" + "  " * depth for depth in range(6))
_LISTS = tuple((f"[{nl}  ", f",{nl}  ", f"{nl}]") for nl in _LINES)


def _labels(atlas: Atlas) -> list[str]:
    """The decimal labels of every stratum id and every letter of a word."""
    return [str(i) for i in range(max(len(atlas.strata), atlas.group.n))]


def _dumps(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` as it is written at ``depth`` inside
    another value, for the header's value types: dict (of str keys), list,
    int, bool, None and str.  A string of printable ASCII with no ``"`` or
    ``\\``, the characters json writes as they are, is written directly;
    any other string is escaped by ``json.dumps`` itself."""
    if value is None or isinstance(value, int):  # bool too: True is "true"
        return "null" if value is None else str(value).lower()
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
        import json  # only a string that json escapes loads it

        return json.dumps(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = "\n" + "  " * (depth + 1)
    if isinstance(value, dict):
        items = (f"{_dumps(k, 0)}: {_dumps(v, depth + 1)}" for k, v in value.items())
        return f"{{{inner}{(',' + inner).join(items)}\n{'  ' * depth}}}"
    items = (_dumps(v, depth + 1) for v in value)
    return f"[{inner}{(',' + inner).join(items)}\n{'  ' * depth}]"


def _list(items, depth: int) -> str:
    """A non-empty list written at ``depth``, from its items already written
    one level deeper."""
    start, sep, end = _LISTS[depth]
    return f"{start}{sep.join(items)}{end}"


def _ints(labels: list[str], values, depth: int) -> str:
    """``_dumps(values, depth)`` for a list of ints below ``len(labels)``."""
    return _list(map(labels.__getitem__, values), depth) if values else "[]"


def _stratum(labels: list[str], atlas: Atlas, sid: int, closure: str) -> str:
    """One entry of the atlas.json ``strata`` list, from the comma before it
    on, given its closure as the table writes it."""
    _, _, nl2, nl3, nl4, nl5 = _LINES
    s = atlas.strata[sid]
    # an orbit holds its representative, and a fiber its representative
    orbit = _list((_ints(labels, w.word, 4) for w in s.orbit), 3)
    fiber = _list(
        (
            f'{{{nl5}"word": {_ints(labels, w.word, 5)},{nl5}"length": {w.length}{nl4}}}'
            for w in s.eo_fiber
        ),
        3,
    )
    single = "true" if len(s.eo_fiber) == 1 else "false"
    maximal = "true" if sid == len(atlas.strata) - 1 else "false"
    siegel_a = "null" if s.siegel_a is None else s.siegel_a
    # labels are decimal digits, so every comma of the closure separates two
    closure = closure.replace(",", "," + nl4)
    return (
        f'{"," if sid else ""}{nl2}{{{nl3}"id": {labels[sid]},'
        f'{nl3}"rep": {_ints(labels, s.rep.word, 3)},'
        f'{nl3}"orbit": {orbit},'
        f'{nl3}"dim": {s.dim},'
        f'{nl3}"codim": {atlas.moduli_dim - s.dim},'
        f'{nl3}"eo_fiber": {fiber},'
        f'{nl3}"single_eo": {single},'
        f'{nl3}"closure": [{nl4}{closure}{nl3}],'
        f'{nl3}"is_maximal": {maximal},'
        f'{nl3}"siegel_a": {siegel_a}{nl2}}}'
    )


def _table_starts(atlas: Atlas, labels: list[str]) -> tuple[str, list[str]]:
    """table.txt's header line, and each stratum's row up to its closure:
    the short cells of columns 0-5, each padded to its column's width.  The
    last column (closure) is never empty and is not padded."""
    header = ("id", "rep", "dim", "codim", "#EO", "single-EO")
    rows = [
        (
            labels[sid],
            word_label(s.rep.word),
            str(s.dim),
            str(atlas.moduli_dim - s.dim),
            str(len(s.eo_fiber)),
            "yes" if len(s.eo_fiber) == 1 else "no",
        )
        for sid, s in enumerate(atlas.strata)
    ]
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    return (
        "  ".join([*map(str.ljust, header, widths), "closure\n"]),
        ["  ".join([*map(str.ljust, row, widths), ""]) for row in rows],
    )


# binary digits "0"/"1" as bytes 0/1, so that compress can select by them
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def write_atlas(atlas: Atlas, json_out, table_out):
    """Write atlas.json to ``json_out`` and table.txt to ``table_out`` in one
    pass over the strata, one ``write`` per stratum to each.  Each stratum's
    closure is formed once, from its bitmask, and written to both, so the
    writer holds one stratum's text at a time."""
    _, nl1, nl2, nl3, _, _ = _LINES
    labels = _labels(atlas)
    header, starts = _table_starts(atlas, labels)
    table_out.write(header)
    entries = (f'{nl1}"{key}": {_dumps(value, 1)},' for key, value in _header(atlas).items())
    json_out.write(f'{{{"".join(entries)}{nl1}"strata": [')
    # a closure is the pieces "id," that the binary digits of its mask select,
    # least significant first, less the last comma
    pieces = [f"{label}," for label in labels[: len(starts)]]
    # an atlas has at least one stratum, the one of the identity
    for sid, mask in enumerate(atlas.orbit_poset.below):
        digits = bin(mask)[:1:-1].encode().translate(_DIGIT_VALUES)
        closure = "".join(compress(pieces, digits))[:-1]
        json_out.write(_stratum(labels, atlas, sid, closure))
        table_out.write(f"{starts[sid]}{closure}\n")
    covers = atlas.orbit_poset.covers  # the pairs that hasse_edges lists
    edges = (
        _list((f"[{nl3}{labels[a]},{nl3}{labels[b]}{nl2}]" for a, b in covers), 1)
        if covers
        else "[]"
    )
    notes = _dumps(atlas.notes, 1)
    json_out.write(f'{nl1}],{nl1}"poset_edges": {edges},{nl1}"notes": {notes}\n}}\n')


def hasse_edges(atlas: Atlas) -> list[list[int]]:
    """Covering relations of the orbit poset, sorted; reduced once when the
    poset was built."""
    return [list(edge) for edge in atlas.orbit_poset.covers]


def word_label(word) -> str:
    """A reduced word as its letters run together, "e" for the empty word."""
    return "".join(map(str, word)) or "e"


def emit_dot(atlas: Atlas) -> str:
    """Hasse diagram of the closure order, one node per stratum."""
    lines = ["digraph closure {", "  rankdir=BT;"]
    for sid, s in enumerate(atlas.strata):
        rep = word_label(s.rep.word)
        label = f"{rep} / dim {s.dim} / #EO {len(s.eo_fiber)}"
        lines.append(f'  n{sid} [label="{label}"];')
    for a, b in hasse_edges(atlas):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
