"""Per-layer tracer for one CLI process, kept outside the program.

It wraps public functions of ``bruhat_atlas`` from the outside, runs the CLI
and writes what it saw to a JSON file when the process ends:

    python3 perfbench/tracer.py <trace.json> <spans|alloc> <cli args...>

``spans`` mode records every call of a SPAN target as a span (id, name,
start, end, parent id), keeps inclusive and self seconds and call counts per
name, and counts calls of COUNT targets.  HOT targets are timed and counted
like spans but not recorded one by one, because they run hundreds of
thousands of times per case.  A recursive call counts as a call, but only
the outermost call is timed.  ``alloc`` mode wraps only the ALLOC targets,
starting tracemalloc for each call, and records their peak allocation; it
runs in a pass of its own because tracemalloc slows every allocation.

A target that does not exist (a later change deleted or renamed it) is listed
under ``absent`` instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc

SPAN, HOT, COUNT, ALLOC = "span", "hot", "count", "alloc"

# metric prefix, module, attribute path inside the module, kind
TARGETS = (
    ("rootdata.positive_roots", "rootdata", "positive_roots", SPAN),
    ("coxeter.WeylGroup.init", "coxeter", "WeylGroup.__init__", SPAN),
    ("coxeter.elements", "coxeter", "WeylGroup.elements", SPAN),
    ("coxeter.subgroup_elements", "coxeter", "WeylGroup.subgroup_elements", SPAN),
    ("coxeter.multiply", "coxeter", "WeylGroup.multiply", COUNT),
    ("coxeter.left_mul", "coxeter", "WeylGroup.left_mul", COUNT),
    ("coxeter.right_mul", "coxeter", "WeylGroup.right_mul", COUNT),
    ("coxeter.bruhat_leq", "coxeter", "WeylGroup.bruhat_leq", HOT),
    ("coxeter.reduced_word", "coxeter", "WeylGroup.reduced_word", HOT),
    ("parabolic.min_left_reps", "parabolic", "min_left_reps", SPAN),
    ("parabolic.min_double_reps", "parabolic", "min_double_reps", SPAN),
    ("parabolic.relative_left_reps", "parabolic", "relative_left_reps", SPAN),
    ("parabolic.x_upper", "parabolic", "x_upper", SPAN),
    ("parabolic.ell_JK", "parabolic", "ell_JK", SPAN),
    ("galois.galois_orbits", "galois", "galois_orbits", SPAN),
    ("galois.orbit_poset", "galois", "orbit_poset", SPAN),
    ("atlas.build_atlas", "atlas", "build_atlas", SPAN),
    ("atlas.eo_fiber", "atlas", "eo_fiber", SPAN),
    ("atlas.conjugate_type", "atlas", "conjugate_type", SPAN),
    ("serialize.parse_case", "serialize", "parse_case", SPAN),
    ("serialize.atlas_json", "serialize", "atlas_json", SPAN),
    ("serialize.emit_dot", "serialize", "emit_dot", SPAN),
    ("serialize.emit_table", "serialize", "emit_table", SPAN),
    ("serialize.hasse_edges", "serialize", "hasse_edges", SPAN),
    ("oracle.verify_atlas", "oracle", "verify_atlas", SPAN),
    ("oracle.brute_double_cosets", "oracle", "brute_double_cosets", SPAN),
    ("oracle.brute_min_left_reps", "oracle", "brute_min_left_reps", SPAN),
    ("oracle.brute_project", "oracle", "brute_project", SPAN),
    ("oracle.brute_interval", "oracle", "brute_interval", SPAN),
    ("cli.main", "cli", "main", SPAN),
)

ALLOC_TARGETS = (
    ("atlas.build_atlas", "atlas", "build_atlas", ALLOC),
    ("oracle.verify_atlas", "oracle", "verify_atlas", ALLOC),
)


def _failed_checks(report) -> int:
    return sum(1 for c in report.checks if not c.passed)


def _text_bytes(text) -> int:
    return len(text.encode())


# counters read off a target's return value: metric prefix -> entries of
# (counter, function of the result, count each returned object only once).
# The enumerations are cached per group, so the same list comes back again.
RESULT_COUNTERS = {
    "coxeter.elements": (("coxeter.elements.count", len, True),),
    "coxeter.subgroup_elements": (("coxeter.subgroup_elements.count", len, True),),
    "galois.orbit_poset": (("galois.orbit_poset.pairs", lambda r: len(r) ** 2, False),),
    "atlas.eo_fiber": (("atlas.eo_fiber.elements", len, False),),
    "atlas.build_atlas": (("atlas.strata", lambda r: len(r.strata), False),),
    "serialize.atlas_json": (("serialize.bytes", _text_bytes, False),),
    "serialize.emit_dot": (("serialize.bytes", _text_bytes, False),),
    "serialize.emit_table": (("serialize.bytes", _text_bytes, False),),
    "oracle.verify_atlas": (
        ("oracle.checks", lambda r: len(r.checks), False),
        ("oracle.checks_failed", _failed_checks, False),
    ),
}


class Tracer:
    """Spans, per-name totals and counters of one process, held in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.totals: dict[str, list] = {}  # name -> [seconds, self seconds, calls]
        self.counters: dict[str, int] = {}
        self.alloc_peak: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [span id, start, child seconds]
        self._next_id = 0
        self._seen: dict[int, object] = {}

    def _total(self, name: str) -> list:
        entry = self.totals.get(name)
        if entry is None:
            entry = self.totals[name] = [0.0, 0.0, 0]
        return entry

    def _count(self, name: str, value: int):
        self.counters[name] = self.counters.get(name, 0) + value

    def _on_result(self, name: str, result):
        for counter, fn, once in RESULT_COUNTERS.get(name, ()):
            if once:
                if id(result) in self._seen:
                    continue
                self._seen[id(result)] = result  # held, so the id stays unique
            try:
                value = fn(result)
            except (AttributeError, TypeError):
                self.absent.append(counter)
                continue
            self._count(counter, value)

    def wrap(self, name: str, kind: str, fn):
        if kind == ALLOC:
            return self.wrap_alloc(name, fn)
        if kind == COUNT:
            counter = name + ".calls"

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counters[counter] = self.counters.get(counter, 0) + 1
                return fn(*args, **kwargs)

            return counted

        depth = [0]
        record = kind == SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if depth[0]:  # recursion: count only, the outer call holds the time
                self._total(name)[2] += 1
                depth[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    depth[0] -= 1
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, time.perf_counter(), 0.0]
            self._stack.append(frame)
            depth[0] = 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[0] = 0
                end = time.perf_counter()
                self._stack.pop()
                elapsed = end - frame[1]
                parent = self._stack[-1] if self._stack else None
                if parent is not None:
                    parent[2] += elapsed
                total = self._total(name)
                total[0] += elapsed
                total[1] += elapsed - frame[2]
                total[2] += 1
                if record:
                    self.spans.append(
                        [span_id, name, frame[1], end, parent[0] if parent else None]
                    )
            self._on_result(name, result)
            return result

        return traced

    def wrap_alloc(self, name: str, fn):
        @functools.wraps(fn)
        def measured(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.alloc_peak[name] = max(self.alloc_peak.get(name, 0), peak)

        return measured

    def install(self, targets):
        """Patch every target where callers look it up: on its class, or in
        every ``bruhat_atlas`` module that holds the original function."""
        for name, module, path, kind in targets:
            owner, attr, original = _resolve(module, path)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self.wrap(name, kind, original)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("bruhat_atlas"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "totals": self.totals,
            "counters": self.counters,
            "alloc_peak": self.alloc_peak,
            "absent": sorted(set(self.absent)),
        }


def _resolve(module: str, path: str):
    """(owner, attribute, function) or (None, None, None) when absent."""
    try:
        owner = importlib.import_module(f"bruhat_atlas.{module}")
    except ImportError:
        return None, None, None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    if isinstance(owner, type):
        fn = vars(owner).get(attr)  # the class's own function, not a bound one
    else:
        fn = getattr(owner, attr, None)
    if not callable(fn):
        return None, None, None
    return owner, attr, fn


def main(argv: list[str]) -> int:
    out_path, mode, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import bruhat_atlas.cli  # noqa: F401  (timed: the import cost every run pays)

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(TARGETS if mode == "spans" else ALLOC_TARGETS)
    code = 2
    try:
        code = bruhat_atlas.cli.main(cli_args)
    finally:
        data = tracer.dump()
        data["import_s"] = import_s
        with open(out_path, "w") as fh:
            json.dump(data, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
