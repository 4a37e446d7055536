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
what ``json.dumps(atlas_to_dict(atlas), indent=2)`` returns, plus a final
newline; :func:`atlas_json` writes it without the pure-Python encoder that
``json.dumps`` runs when it indents.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

from .atlas import Atlas, PELCase
from .errors import InputError
from .rootdata import (
    CocharSpec,
    DynkinSpec,
    cartan_from_spec,
    identity_automorphism,
    validate_automorphism,
)
from .coxeter import DEFAULT_BOUND


def _int_list(value, what: str) -> list[int]:
    """``value`` when it is a JSON list of integers (booleans refused)."""
    if not isinstance(value, list) or any(type(v) is not int for v in value):
        raise InputError(f"{what} must be a list of integers, got {value!r}")
    return value


def parse_case(doc: dict) -> PELCase:
    """Validate a case document and apply defaults."""
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

    options = doc.get("options")
    if options is None:
        options = {}
    elif not isinstance(options, dict):
        raise InputError(f"options must be a JSON object, got {options!r}")
    minuscule_check = options.get("minuscule_check", True)
    if not isinstance(minuscule_check, bool):
        raise InputError(
            f"options.minuscule_check must be true or false, got {minuscule_check!r}"
        )
    element_bound = options.get("element_bound", DEFAULT_BOUND)
    if type(element_bound) is not int:  # the range is PELCase's to check
        raise InputError(
            f"options.element_bound must be an integer >= 1, got {element_bound!r}"
        )
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


def atlas_to_dict(atlas: Atlas) -> dict:
    group = atlas.group
    word = group.reduced_word
    strata = []
    for sid, s in enumerate(atlas.strata):
        strata.append(
            {
                "id": sid,
                "rep": word(s.rep),
                "orbit": [word(w) for w in s.orbit],
                "dim": s.dim,
                "codim": s.codim,
                "eo_fiber": [{"word": word(w), "length": w.length} for w in s.eo_fiber],
                "single_eo": s.single_eo,
                "closure": s.closure,
                "is_maximal": s.is_maximal,
                "siegel_a": s.siegel_a,
            }
        )
    return {
        "case": case_to_dict(atlas.case),
        "group": {
            "name": atlas.case.spec.describe(),
            "rank": group.n,
            "order": group.order,
        },
        "J": sorted(atlas.J),
        "K": sorted(atlas.K),
        "degree": atlas.degree,
        "moduli_dim": atlas.moduli_dim,
        "mu_ordinary": {
            "verdict": atlas.mu_ordinary.verdict,
            **atlas.mu_ordinary.flags,
        },
        "strata": strata,
        "poset_edges": hasse_edges(atlas),
        "notes": atlas.notes,
    }


def atlas_json(atlas: Atlas) -> str:
    out: list[str] = []
    _write_json(atlas_to_dict(atlas), "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, indent=2)`` writes
    it, with ``newline`` (a line break and the current indentation) before
    each line that it starts.  Takes dicts with str keys, lists, str, int,
    bool and None; anything else raises TypeError."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, list):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(v) is int for v in value):
            out.append("[" + inner + ("," + inner).join(map(str, value)) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def hasse_edges(atlas: Atlas) -> list[list[int]]:
    """Covering relations of the orbit poset, sorted; reduced once when the
    poset was built."""
    return [list(edge) for edge in atlas.orbit_poset.covers]


def word_label(word) -> str:
    """A reduced word as its letters run together, "e" for the empty word."""
    return "".join(str(i) for i in word) or "e"


def emit_dot(atlas: Atlas) -> str:
    """Hasse diagram of the closure order, one node per stratum."""
    group = atlas.group
    lines = ["digraph closure {", "  rankdir=BT;"]
    for sid, s in enumerate(atlas.strata):
        rep = word_label(group.reduced_word(s.rep))
        label = f"{rep} / dim {s.dim} / #EO {len(s.eo_fiber)}"
        lines.append(f'  n{sid} [label="{label}"];')
    for a, b in hasse_edges(atlas):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_table(atlas: Atlas) -> str:
    """Fixed-width text table of the strata."""
    group = atlas.group
    rows = []
    for sid, s in enumerate(atlas.strata):
        rows.append(
            (
                str(sid),
                word_label(group.reduced_word(s.rep)),
                str(s.dim),
                str(s.codim),
                str(len(s.eo_fiber)),
                "yes" if s.single_eo else "no",
                ",".join(map(str, s.closure)),
            )
        )
    header = ("id", "rep", "dim", "codim", "#EO", "single-EO", "closure")
    widths = [
        max(len(header[c]), *(len(r[c]) for r in rows)) for c in range(len(header))
    ]
    out = []
    for row in (header, *rows):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(out) + "\n"
