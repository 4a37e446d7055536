"""Command-line entry point.

Grammar: [--out DIR] [--verify] [--no-minuscule-check] [--bound N] COMMAND ARG,
read by :func:`parse_args` without argparse, whose import and help-string
locale lookups cost each run more than parsing does.  Options come first,
spelled in full, with a value as ``--opt VALUE`` or ``--opt=VALUE``; ``-h``
or ``--help`` in place of an option or of ARG prints the usage.
Commands: atlas <casefile>, verify <casefile>, corpus <preset>, siegel <g>.
Presets: siegel:<g>, hilbert:<d>, gu:<r>,<s>:inert|split.
Exit codes: 0 success, 1 verification failure, 2 invalid input (a usage
error, or an output directory or stdout that cannot be written, in one
line), 3 bound exceeded, 4 internal invariant failed (a bug in the engine).

:func:`main` is the in-process API: it returns the exit code and never ends
the process.  :func:`run` is the process entry of ``python -m bruhat_atlas``
and of the ``bruhat-atlas`` script: it calls ``main`` and ends the process
with ``os._exit``, skipping the interpreter's teardown.
"""

import os
import sys

from . import atlas as atlas_mod
from . import serialize
from .coxeter import DEFAULT_BOUND, check_bound
from .errors import BoundError, ConsistencyError, InputError
from .rootdata import CocharSpec, DiagramAutomorphism, DynkinSpec

# each command and its one argument
_ARGUMENT = {"atlas": "CASEFILE", "verify": "CASEFILE", "corpus": "PRESET", "siegel": "G"}
USAGE = """\
usage: bruhat-atlas [--out DIR] [--verify] [--no-minuscule-check] [--bound N] COMMAND ARG
commands: atlas CASEFILE | verify CASEFILE | corpus PRESET | siegel G
presets: siegel:<g> | hilbert:<d> | gu:<r>,<s>:inert|split"""


def corpus_preset(name: str, **options) -> atlas_mod.PELCase:
    """The case of a named preset; ``options`` are the case's
    ``minuscule_check`` and ``element_bound``.  A rank past the element
    bound is refused before any tuple of that size is built."""
    parts = name.split(":")
    kind = parts[0]
    bound = options.get("element_bound", DEFAULT_BOUND)
    if kind == "siegel":
        if len(parts) != 2:
            raise InputError("expected siegel:<g>")
        return atlas_mod.siegel_case(_positive_int(parts[1], "genus"), **options)
    if kind == "hilbert":
        if len(parts) != 2:
            raise InputError("expected hilbert:<d>")
        d = _positive_int(parts[1], "degree")
        check_bound(bound, d)
        return atlas_mod.PELCase(
            DynkinSpec((("A", 1),) * d),
            DiagramAutomorphism((*range(1, d), 0)),  # cyclic over the factors
            CocharSpec((1,) * d),
            **options,
        )
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
        check_bound(bound, n)
        pairings = [0] * n
        if r and s:  # otherwise the signature is trivial: central cocharacter
            pairings[s - 1] = 1
        perm = range(n)
        if parts[2] == "inert":
            perm = reversed(perm)
        return atlas_mod.PELCase(
            DynkinSpec((("A", n),)),
            DiagramAutomorphism(tuple(perm)),
            CocharSpec(tuple(pairings)),
            **options,
        )
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


def _write_outputs(built, out_dir: str):
    try:
        with (
            open(os.path.join(out_dir, "atlas.json"), "w") as json_out,
            open(os.path.join(out_dir, "table.txt"), "w") as table_out,
        ):
            serialize.write_atlas(built, json_out, table_out)
        with open(os.path.join(out_dir, "hasse.dot"), "w") as out:
            out.write(serialize.emit_dot(built))
    except OSError as exc:
        raise InputError(f"cannot write to {out_dir}: {exc}") from exc


def _run_case(case, out_dir: str, verify: bool) -> int:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write to {out_dir}: {exc}") from exc
    built = atlas_mod.build_atlas(case)
    _write_outputs(built, out_dir)
    _say(
        f"{case.spec.describe()}: {len(built.strata)} strata, "
        f"moduli dim {built.moduli_dim}, "
        f"mu-ordinary {built.mu_ordinary}, degree {built.degree}"
    )
    return _verify(built) if verify else 0


def _verify(built) -> int:
    """Print the oracle's report on ``built``; exit code 1 when a check fails.
    The oracle is imported here, so a run without --verify never loads it."""
    from . import oracle

    report = oracle.verify_atlas(built)
    _say(report.render())
    return 0 if report.passed else 1


def _say(text: str):
    """Print ``text`` and flush stdout, so that nothing printed is still
    buffered when :func:`main` returns.  A stdout that cannot take it (a full
    device, a closed pipe) is an InputError, and ``sys.stdout`` is then
    None, so print writes nothing more."""
    try:
        print(text, flush=True)
    except OSError as exc:
        # the unwritten bytes stay in the stream's buffer, and an interpreter
        # that exits as usual flushes sys.stdout again, reporting a second
        # error and exiting 120; dropping the stream, rather than pointing
        # fd 1 at os.devnull, leaves the descriptor the caller and its child
        # processes share as it was
        sys.stdout = None
        raise InputError(f"cannot write to stdout: {exc}") from exc


def _load_doc(path: str) -> dict:
    """The JSON document in ``path``, read as bytes so that json detects
    UTF-8, UTF-16 or UTF-32.  ValueError covers undecodable bytes, malformed
    JSON and integers past the digit limit; RecursionError, deep nesting.
    json is imported here, the one place a document is parsed, so a run that
    reads no case file never loads it."""
    import json

    try:
        with open(path, "rb") as file:
            data = file.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc


def parse_args(argv) -> tuple | None:
    """``argv`` as (command, argument, output directory, verify, case
    overrides), or None where it asks for help.  The grammar is fixed:
    options first, each spelled in full, with a value as ``--opt VALUE`` or
    ``--opt=VALUE``; then one command and its one argument.  Every error is
    an InputError, so it ends in one line."""
    out, verify, overrides = "out", False, {}
    args = list(argv)
    while args and args[0].startswith("-"):
        option, eq, value = args.pop(0).partition("=")
        if option in ("-h", "--help"):
            return None
        if option in ("--out", "--bound"):
            if not eq:
                if not args:
                    raise InputError(f"option {option} needs a value")
                value = args.pop(0)
            if option == "--out":
                out = value
            else:
                overrides["element_bound"] = _decimal(value, "bound")
        elif option not in ("--verify", "--no-minuscule-check"):
            raise InputError(f"unknown option {option!r}")
        elif eq:
            raise InputError(f"option {option} takes no value")
        elif option == "--verify":
            verify = True
        else:
            overrides["minuscule_check"] = False
    if not args or args[0] not in _ARGUMENT:
        raise InputError(f"unknown command {args[0]!r}" if args else "missing command")
    command, *rest = args
    if rest[:1] in (["-h"], ["--help"]):
        return None
    if len(rest) != 1 or rest[0].startswith("--"):
        raise InputError(f"{command} takes one {_ARGUMENT[command]} after the options")
    return command, rest[0], os.path.normpath(out), verify, overrides


def main(argv=None) -> int:
    """Run the command line ``argv`` (``sys.argv[1:]`` by default) and return
    its exit code.  Every line it prints is flushed before it returns; an
    exception other than the input, bound and invariant errors propagates."""
    try:
        parsed = parse_args(sys.argv[1:] if argv is None else argv)
        if parsed is None:
            _say(USAGE)
            return 0
        command, arg, out_dir, verify, overrides = parsed
        if command in ("atlas", "verify"):
            case = serialize.parse_case(_load_doc(arg), **overrides)
            return _run_case(case, out_dir, verify or command == "verify")
        if command == "corpus":
            return _run_case(corpus_preset(arg, **overrides), out_dir, verify)
        # siegel: the parser admits no other command
        genus = _decimal(arg, "genus")
        built = atlas_mod.build_atlas(atlas_mod.siegel_case(genus, **overrides))
        _say(f"genus {genus}: {len(built.strata)} strata")
        _say(f"{'a':>3}  {'dim':>4}  rep")
        by_a = sorted(zip(atlas_mod.a_numbers(built), built.strata), key=lambda p: p[0])
        for a, s in by_a:
            _say(f"{a:>3}  {s.dim:>4}  {serialize.word_label(s.rep.word)}")
        # build_atlas raises unless the order is reversed
        _say("total order reversed by a-number: True")
        return _verify(built) if verify else 0
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ConsistencyError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 4


def run():
    """The process entry: run :func:`main`, flush stderr, and end the process
    with ``os._exit`` and main's code.  The interpreter's teardown (clearing
    every module, freeing every object, a last collection) is skipped, since
    the operating system reclaims all of it; the output files are closed by
    then and stdout is flushed.  An exception from ``main`` propagates with
    its traceback and the process ends as usual."""
    code = main()
    sys.stderr.flush()
    os._exit(code)
