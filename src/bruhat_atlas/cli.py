"""Command-line entry point.

Subcommands: atlas <casefile>, verify <casefile>, corpus <preset>, siegel <g>.
Presets: siegel:<g>, hilbert:<d>, gu:<r>,<s>:inert|split.
Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 bound
exceeded, 4 internal invariant failed (a bug in the engine).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import atlas as atlas_mod
from . import serialize
from .coxeter import DEFAULT_BOUND, check_bound
from .errors import BoundError, ConsistencyError, InputError


def corpus_preset(name: str, element_bound: int = DEFAULT_BOUND) -> dict:
    """Expand a named preset into a case document; a rank past
    ``element_bound`` is refused before any list of that size is built."""
    parts = name.split(":")
    kind = parts[0]
    if kind == "siegel":
        if len(parts) != 2:
            raise InputError("expected siegel:<g>")
        g = _positive_int(parts[1], "genus")
        case = atlas_mod.siegel_case(g, element_bound=element_bound)
        return serialize.case_to_dict(case)
    if kind == "hilbert":
        if len(parts) != 2:
            raise InputError("expected hilbert:<d>")
        d = _positive_int(parts[1], "degree")
        check_bound(element_bound, d)
        perm = list(range(1, d)) + [0]  # cyclic Frobenius over the factors
        return {
            "group": {"factors": [{"type": "A", "rank": 1} for _ in range(d)]},
            "frobenius": {"permutation": perm},
            "mu": {"pairings": [1] * d},
        }
    if kind == "gu":
        if len(parts) != 3 or parts[2] not in ("inert", "split"):
            raise InputError("expected gu:<r>,<s>:inert|split")
        signature = parts[1].split(",")
        if len(signature) != 2:
            raise InputError(f"bad signature {parts[1]!r}")
        r, s = (_decimal(v, "signature") for v in signature)
        if r < 0 or s < 0 or r + s < 2:
            raise InputError("signature needs r + s >= 2")
        n = r + s - 1  # diagram rank of the unitary case
        check_bound(element_bound, n)
        pairings = [0] * n
        if r and s:  # otherwise the signature is trivial: central cocharacter
            pairings[s - 1] = 1
        perm = list(range(n))
        if parts[2] == "inert":
            perm = list(reversed(perm))
        return {
            "group": {"factors": [{"type": "A", "rank": n}]},
            "frobenius": {"permutation": perm},
            "mu": {"pairings": pairings},
        }
    raise InputError(f"unknown preset {name!r}")


def _decimal(text: str, what: str) -> int:
    """``text`` as an int when it is ASCII decimal digits only: int() alone
    also takes signs, spaces, underscores and other scripts' digits.  A
    numeral past int's digit limit is refused too."""
    if not (text.isascii() and text.isdigit()):
        raise InputError(f"bad {what} {text!r}")
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}") from exc


def _positive_int(text: str, what: str) -> int:
    value = _decimal(text, what)
    if value < 1:
        raise InputError(f"{what} must be >= 1")
    return value


def _write_outputs(built, out_dir: Path):
    try:
        with open(out_dir / "atlas.json", "w") as out:
            out.writelines(serialize.atlas_json_pieces(built))
        (out_dir / "hasse.dot").write_text(serialize.emit_dot(built))
        (out_dir / "table.txt").write_text(serialize.emit_table(built))
    except OSError as exc:
        raise InputError(f"cannot write to {out_dir}: {exc}") from exc


def _run_case(doc: dict, out_dir: Path, verify: bool, **overrides) -> int:
    case = serialize.parse_case(doc, **overrides)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write to {out_dir}: {exc}") from exc
    built = atlas_mod.build_atlas(case)
    _write_outputs(built, out_dir)
    print(
        f"{case.spec.describe()}: {len(built.strata)} strata, "
        f"moduli dim {built.moduli_dim}, "
        f"mu-ordinary {built.mu_ordinary.verdict}, degree {built.degree}"
    )
    return _verify(built) if verify else 0


def _verify(built) -> int:
    """Print the oracle's report on ``built``; exit code 1 when a check fails.
    The oracle is imported here, so a run without --verify never loads it."""
    from . import oracle

    report = oracle.verify_atlas(built)
    print(report.render())
    return 0 if report.passed else 1


def _load_doc(path: str) -> dict:
    """The JSON document in ``path``, read as bytes so that json detects
    UTF-8, UTF-16 or UTF-32.  ValueError covers undecodable bytes, malformed
    JSON and integers past the digit limit; RecursionError, deep nesting."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhat-atlas",
        description="Stratification atlases for classical Weyl groups",
    )
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument(
        "--verify", action="store_true", help="run brute-force verification"
    )
    parser.add_argument(
        "--no-minuscule-check", action="store_true", help="skip the minuscule check"
    )
    parser.add_argument(
        "--bound", type=int, default=None, help="most group elements to materialize"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_atlas = sub.add_parser("atlas", help="build an atlas from a case file")
    p_atlas.add_argument("casefile")
    p_verify = sub.add_parser("verify", help="build and brute-force verify")
    p_verify.add_argument("casefile")
    p_corpus = sub.add_parser("corpus", help="run a named preset")
    p_corpus.add_argument("preset")
    p_siegel = sub.add_parser("siegel", help="print the a-number identification")
    p_siegel.add_argument("genus")
    return parser


def _overrides(args) -> dict:
    """The case options set on the command line."""
    overrides = {}
    if args.no_minuscule_check:
        overrides["minuscule_check"] = False
    if args.bound is not None:
        overrides["element_bound"] = args.bound
    return overrides


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out_dir = Path(args.out)
    overrides = _overrides(args)
    try:
        if args.command in ("atlas", "verify"):
            doc = _load_doc(args.casefile)
            verify = args.verify or args.command == "verify"
            return _run_case(doc, out_dir, verify, **overrides)
        if args.command == "corpus":
            bound = overrides.get("element_bound", DEFAULT_BOUND)
            doc = corpus_preset(args.preset, bound)
            return _run_case(doc, out_dir, args.verify, **overrides)
        # siegel: the parser admits no other command
        genus = _decimal(args.genus, "genus")
        ident = atlas_mod.siegel_identify(genus, **overrides)
        print(f"genus {ident.g}: {len(ident.entries)} strata")
        print(f"{'a':>3}  {'dim':>4}  rep")
        for e in ident.entries:
            print(f"{e['a']:>3}  {e['dim']:>4}  {serialize.word_label(e['rep'])}")
        # siegel_identify raises unless the order is reversed
        print("total order reversed by a-number: True")
        return _verify(ident.atlas) if args.verify else 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 4
