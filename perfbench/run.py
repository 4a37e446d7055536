"""The bruhat-atlas benchmark: workloads run through the public CLI.

    python3 perfbench/run.py --workload ladder-build|ladder-verify|many-strata|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere; it uses the checkout it sits in.  Every case is one
``python -m bruhat_atlas`` process, run serially.  A pass runs every case of
the workload once; passes repeat while another one fits in ``--seconds``
(at least two run) and each end-to-end metric is the median over passes.
Times are scaled to a reference CPU speed measured by calibration samples
taken around and during every timed case (see ``calibration_sample``), so
that the host's drift in speed does not read as a change of the program.
``--trace 1`` instead runs one untraced pass, one pass under
``perfbench/tracer.py`` for the per-layer spans and counts, and one pass
under tracemalloc, and reports the per-layer metrics.

Every case's exit code and ``[FAIL]`` lines are checked, and the sha256 of
its ``atlas.json``, ``hasse.dot`` and ``table.txt`` must match the digests in
``perfbench/digests.json``, recorded after the oracle (``--verify``) passed on
that case.  A case with no recorded digest first runs with ``--verify`` in an
untimed pass, and that pass's outputs become the expected ones.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The metric names and units come
from ``BENCHMARK.json`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUTPUT_FILES = ("atlas.json", "hasse.dot", "table.txt")
# trivial invocations for setup_s, in a burst before every pass, so that
# their median spans the run and not one moment of a noisy host
SETUP_BURST = 5
CASE_LIMIT_S = 60.0  # wall limit of one untraced case; a case over it fails
TRACED_LIMIT_FACTOR = 2  # tracing slows a case down; its limit grows by this
MIN_PASSES = 2  # so that every end-to-end value is a median of at least two
RUN_DEADLINE_S = 165.0  # no case may run past this point of the run
# tracemalloc slows a pass by up to this factor (3.5 on many-strata, 4.7 on
# ladder-verify when measured); the alloc pass is skipped if it cannot end
# before the run's deadline at that rate
ALLOC_SLOWDOWN = 5.0
# The host's speed drifts by a factor of up to 2.5 over seconds to minutes,
# so timed passes are scaled to a reference speed.  A calibration sample (a
# fixed pure-Python kernel, independent of the program) runs in this process
# before and after every timed case and every CALIBRATE_EVERY_S while the
# case runs.  This process and the case share one CPU (see pin_to_one_cpu), so a
# sample's CPU time measures the speed of the CPU the case runs on at that
# moment, and the CPU time a sample takes from the case is known.
CALIBRATE_EVERY_S = 0.25
# median CPU seconds of one calibration sample on the 2-vCPU Xeon (2.1 GHz)
# virtual machine the baseline was taken on: a scaled time reads as seconds
# on that machine at its typical speed
REFERENCE_SAMPLE_S = 0.0136


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def calibration_sample() -> float:
    """CPU seconds of one fixed unit of pure-Python work: the closure of the
    adjacent transpositions of S_6, three times (tuples, dicts, lists)."""
    start = time.process_time()
    n = 6
    ident = tuple(range(n))
    gens = [tuple(k + 1 if i == k else k if i == k + 1 else i for i in range(n))
            for k in range(n - 1)]
    for _ in range(3):
        seen = {ident: 0}
        frontier = [ident]
        while frontier:
            nxt = []
            for w in frontier:
                length = seen[w] + 1
                for g in gens:
                    v = tuple(w[i] for i in g)
                    if v not in seen:
                        seen[v] = length
                        nxt.append(v)
            frontier = nxt
    if len(seen) != 720:
        raise AssertionError("calibration kernel is broken")
    return time.process_time() - start


def pin_to_one_cpu():
    """Keep this process and the cases it spawns on one CPU, so that the
    calibration samples time the CPU the cases run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def case_key(case: dict) -> str:
    """Key of a case's recorded digests: the preset, or the document hash."""
    if "doc" in case:
        return "doc:" + sha256(workloads.doc_bytes(case["doc"]))
    return case["id"]


def load_digests() -> dict:
    if DIGESTS.is_file():
        return json.loads(DIGESTS.read_text())
    return {}


class Runner:
    """Spawns the CLI for one workload run inside ``work``."""

    def __init__(self, root: Path, work: Path, deadline: float,
                 case_limit: float = CASE_LIMIT_S):
        self.work = work
        self.deadline = deadline
        self.case_limit = case_limit
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.cases_dir = work / "cases"
        self.cases_dir.mkdir(parents=True, exist_ok=True)

    def spawn(self, argv: list[str], out_dir: Path, limit: float, tracer=None,
              calibrate: bool = False) -> dict:
        """Run one CLI process; wall and rusage are its own.  With
        ``calibrate``, ``wall_s`` and ``cpu_s`` are scaled to the reference
        speed and the calibration's CPU time is taken out of the wall."""
        out_dir.mkdir(parents=True, exist_ok=True)
        limit = min(limit, self.deadline - time.monotonic())
        if limit <= 0:
            return {"code": None, "timed_out": True, "wall": 0.0, "cpu": 0.0,
                    "rss_mb": 0.0, "stdout": "", "speed": 1.0, "wall_s": 0.0,
                    "cpu_s": 0.0}
        window = [calibration_sample()] if calibrate else []
        during = []
        if tracer is None:
            cmd = [sys.executable, "-m", "bruhat_atlas"]
        else:
            cmd = [sys.executable, str(HERE / "tracer.py"), *tracer]
        cmd += ["--out", str(out_dir), *argv]
        log = out_dir / "stdout.txt"
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.cases_dir, env=self.env, stdout=fh,
                stderr=subprocess.STDOUT,
            )
            timed_out = False
            pidfd = os.pidfd_open(proc.pid)
            end = start + limit
            step = CALIBRATE_EVERY_S if calibrate else limit
            try:
                while not select.select(
                    [pidfd], [], [], max(0.0, min(step, end - time.perf_counter()))
                )[0]:
                    if time.perf_counter() >= end:
                        os.kill(proc.pid, signal.SIGKILL)  # not reaped yet: pid is ours
                        timed_out = True
                        break
                    if calibrate:
                        during.append(calibration_sample())
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                os.close(pidfd)
            wall = time.perf_counter() - start
        # reaped here, not by Popen: tell it so that it never waits itself
        proc.returncode = os.waitstatus_to_exitcode(status)
        cpu = usage.ru_utime + usage.ru_stime
        speed = 1.0
        if calibrate:
            window += during + [calibration_sample()]
            speed = REFERENCE_SAMPLE_S / statistics.mean(window)
        return {
            "code": proc.returncode,
            "timed_out": timed_out,
            "wall": wall,
            "cpu": cpu,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": log.read_text(errors="replace"),
            "speed": speed,
            "wall_s": (wall - sum(during)) * speed,
            "cpu_s": cpu * speed,
        }

    def run_pass(self, cases: list[dict], label: str, verify=False, tracer_mode=None,
                 calibrate=False):
        """Run every case once, serially; outputs are checked afterwards so
        that the pass times hold only the CLI processes.  ``wall_s``,
        ``cpu_s`` and ``case_max_s`` are scaled when ``calibrate`` is set;
        ``raw_wall_s`` and ``raw_cpu_s`` are as measured."""
        pass_dir = self.work / "out" / label
        shutil.rmtree(pass_dir, ignore_errors=True)
        load_before = os.getloadavg()[0]
        limit = self.case_limit * (1 if tracer_mode is None else TRACED_LIMIT_FACTOR)
        results = []
        start = time.perf_counter()
        for n, case in enumerate(cases):
            out_dir = pass_dir / f"{n:03d}"
            argv = ["--verify", *case["argv"]] if verify else case["argv"]
            tracer = None
            if tracer_mode is not None:
                tracer = [str(out_dir / "trace.json"), tracer_mode]
            res = self.spawn(argv, out_dir, limit, tracer, calibrate)
            res["case"] = case
            res["out_dir"] = out_dir
            results.append(res)
        elapsed = time.perf_counter() - start
        for res in results:
            res["digests"] = output_digests(res["out_dir"])
        return {
            "label": label,
            "results": results,
            "wall_s": sum(r["wall_s"] for r in results),
            "cpu_s": sum(r["cpu_s"] for r in results),
            "case_max_s": max(r["wall_s"] for r in results),
            "raw_wall_s": sum(r["wall"] for r in results),
            "raw_cpu_s": sum(r["cpu"] for r in results),
            "elapsed_s": elapsed,
            "speed": statistics.median(r["speed"] for r in results),
            "peak_rss_mb": max(r["rss_mb"] for r in results),
            "load_before": load_before,
            "load_after": os.getloadavg()[0],
        }

    def setup_burst(self, warm_up: bool) -> tuple[list[float], bool]:
        """Scaled walls of trivial invocations: start, import, argument
        parsing.  A warm-up spawn, which also compiles bytecode, is not kept."""
        out = self.work / "out" / "setup"
        samples, ok = [], True
        for n in range(SETUP_BURST + warm_up):
            res = self.spawn(["corpus", "siegel:1"], out, self.case_limit,
                             calibrate=True)
            ok = ok and res["code"] == 0
            if n or not warm_up:
                samples.append(res["wall_s"])
        return samples, ok


def output_digests(out_dir: Path) -> dict:
    digests = {}
    for name in OUTPUT_FILES:
        path = out_dir / name
        digests[name] = sha256(path.read_bytes()) if path.is_file() else None
    return digests


def check_case(res: dict, expected: dict | None, verify: bool) -> str | None:
    """Why the case failed, or None."""
    if res["timed_out"]:
        return "time limit"
    if res["code"] != 0:
        return f"exit code {res['code']}"
    if "[FAIL]" in res["stdout"]:
        return "[FAIL] line"
    if verify and "[PASS]" not in res["stdout"]:
        return "no oracle checks ran"
    if None in res["digests"].values():
        return "output file missing"
    if expected is None:
        return "no expected digests"
    for name in OUTPUT_FILES:
        if res["digests"][name] != expected.get(name):
            return f"{name} digest mismatch"
    return None


def check_pass(pass_: dict, expected: dict, verify: bool) -> int:
    failed = 0
    for res in pass_["results"]:
        res["failure"] = check_case(res, expected.get(case_key(res["case"])), verify)
        if res["failure"]:
            failed += 1
            print(f"  FAILED {res['case']['id']}: {res['failure']}", file=sys.stderr)
    pass_["failed"] = failed
    pass_["cases"] = len(pass_["results"])
    return failed


def prepare_cases(runner: Runner, workload: str, seed: int, only=None) -> list[dict]:
    """Generate the cases twice (the two must be byte-identical) and write
    the generated case documents for the CLI to read."""
    cases, again = (
        [c for c in workloads.cases_for(workload, seed)
         if only is None or c["id"] in only]
        for _ in range(2)
    )
    if json.dumps(cases, sort_keys=True) != json.dumps(again, sort_keys=True):
        raise SystemExit("case generation is not deterministic for this seed")
    for case in cases:
        if "doc" in case:
            (runner.cases_dir / case["argv"][-1]).write_bytes(
                workloads.doc_bytes(case["doc"])
            )
    return cases


def oracle_pass(runner: Runner, cases: list[dict], expected: dict) -> dict | None:
    """Untimed --verify pass over cases without recorded digests; their
    outputs become the expected digests when every oracle check passed."""
    missing = {case_key(c): c for c in cases if case_key(c) not in expected}
    if not missing:
        return None
    pass_ = runner.run_pass(list(missing.values()), "oracle", verify=True)
    for res in pass_["results"]:
        res["failure"] = check_case(res, res["digests"], verify=True)
        if res["failure"] is None:
            expected[case_key(res["case"])] = res["digests"]
        else:
            print(f"  FAILED oracle {res['case']['id']}: {res['failure']}",
                  file=sys.stderr)
    pass_["failed"] = sum(1 for r in pass_["results"] if r["failure"])
    pass_["cases"] = len(missing)
    return pass_


def read_traces(pass_: dict) -> dict:
    """Sum the per-process trace files of a traced pass."""
    totals, counters, alloc, absent, imports = {}, {}, {}, set(), []
    for res in pass_["results"]:
        path = res["out_dir"] / "trace.json"
        if not path.is_file():
            continue
        data = json.loads(path.read_text())
        for name, (secs, self_secs, calls) in data["totals"].items():
            t = totals.setdefault(name, [0.0, 0.0, 0])
            t[0] += secs
            t[1] += self_secs
            t[2] += calls
        for name, value in data["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for name, peak in data["alloc_peak"].items():
            alloc[name] = max(alloc.get(name, 0), peak)
        absent.update(data["absent"])
        imports.append(data["import_s"])
    flat = dict(counters)
    for name, (secs, self_secs, calls) in totals.items():
        flat[f"{name}.s"] = secs
        flat[f"{name}.self_s"] = self_secs
        flat[f"{name}.calls"] = calls
    for name, peak in alloc.items():
        flat[f"{name}.alloc_peak_mb"] = peak / 2**20
    if imports:
        flat["cli.import_s"] = statistics.median(imports)
    return {"flat": flat, "absent": absent}


def answer_sizes(pass_: dict) -> dict:
    """|J W| and |J W^K| summed over the pass, read off the atlas outputs:
    the orbits partition J W^K and the fibers of all orbit members
    partition J W."""
    left = double = 0
    for res in pass_["results"]:
        path = res["out_dir"] / "atlas.json"
        if res.get("failure") or not path.is_file():
            continue
        for s in json.loads(path.read_text())["strata"]:
            double += len(s["orbit"])
            left += len(s["orbit"]) * len(s["eo_fiber"])
    return {"parabolic.left_reps.count": left, "parabolic.double_reps.count": double}


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


class WorkloadRun:
    """The passes of one run of one workload, with its failure tally."""

    def __init__(self, runner: Runner, cases: list[dict], expected: dict,
                 verify: bool, record: dict):
        self.runner = runner
        self.cases = cases
        self.expected = expected
        self.verify = verify
        self.record = record
        self.attempted = self.failed = 0

    def count(self, attempted: int, failed: int):
        self.attempted += attempted
        self.failed += failed

    def measured_pass(self, label: str, tracer_mode=None, calibrate=False) -> dict:
        p = self.runner.run_pass(self.cases, label, self.verify, tracer_mode, calibrate)
        self.count(len(self.cases), check_pass(p, self.expected, self.verify))
        self.record["passes"].append(summary(p))
        print_pass(p)
        return p

    def timed_values(self, seconds: float) -> dict:
        """End-to-end metrics: medians over at least MIN_PASSES passes."""
        setup_samples, measured = [], []
        start = time.monotonic()
        while True:
            burst, burst_ok = self.runner.setup_burst(warm_up=not measured)
            setup_samples += burst
            self.count(1, 0 if burst_ok else 1)
            if not burst_ok:
                print("  FAILED setup invocation", file=sys.stderr)
            measured.append(self.measured_pass(f"pass{len(measured)}", calibrate=True))
            typical = statistics.median(q["elapsed_s"] for q in measured)
            if time.monotonic() + typical > self.runner.deadline:
                break
            elapsed = time.monotonic() - start
            if len(measured) >= MIN_PASSES and elapsed + typical > seconds:
                break
        values = {
            key: statistics.median(q[key] for q in measured)
            for key in ("wall_s", "cpu_s", "peak_rss_mb")
        }
        # the hardest case by its median over passes: a burst of host noise
        # in one pass cannot promote an easier case to the maximum
        values["case_max_s"] = max(
            statistics.median(q["results"][n]["wall_s"] for q in measured)
            for n in range(len(self.cases))
        )
        values["setup_s"] = statistics.median(setup_samples)
        values["passes"] = len(measured)
        self.record["setup_samples"] = setup_samples
        return values

    def traced_values(self) -> tuple[dict, set]:
        """Per-layer metrics from a traced pass and a tracemalloc pass, and
        the tracer's overhead against an untraced pass."""
        untraced = self.measured_pass("untraced", calibrate=True)
        traced = self.measured_pass("traced", "spans", calibrate=True)
        spans = read_traces(traced)
        values = dict(spans["flat"])
        absent = set(spans["absent"])
        alloc_end = time.monotonic() + ALLOC_SLOWDOWN * untraced["elapsed_s"]
        if alloc_end < self.runner.deadline:
            allocs = read_traces(self.measured_pass("alloc", "alloc"))
            values.update(
                {k: v for k, v in allocs["flat"].items() if k.endswith("alloc_peak_mb")}
            )
            absent |= allocs["absent"]
        else:
            print("  alloc pass skipped: it would not end before the run's deadline")
        values.update(answer_sizes(traced))
        enumerated = values.get("coxeter.elements.count", 0) + values.get(
            "coxeter.subgroup_elements.count", 0
        )
        if enumerated:
            values["parabolic.useful_ratio"] = (
                values["parabolic.left_reps.count"] / enumerated
            )
        if "coxeter.WeylGroup.init.s" in values:
            values["coxeter.WeylGroup.init_s"] = values["coxeter.WeylGroup.init.s"]
        values["trace.wall_s"] = traced["wall_s"]
        values["trace.untraced_wall_s"] = untraced["wall_s"]
        if untraced["wall_s"] > 0:
            values["trace.overhead"] = traced["wall_s"] / untraced["wall_s"]
        return values, absent


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 work: Path | None = None, expected: dict | None = None,
                 only=None) -> dict:
    """One run of one workload; returns values for every metric it took."""
    work = work or HERE / "_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    runner = Runner(ROOT, work, time.monotonic() + RUN_DEADLINE_S)
    expected = dict(load_digests() if expected is None else expected)
    cases = prepare_cases(runner, workload, seed, only)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "environment": environment(), "passes": []}
    this = WorkloadRun(runner, cases, expected, workload == "ladder-verify", record)

    oracle = oracle_pass(runner, cases, expected)
    if oracle is not None:
        this.count(oracle["cases"], oracle["failed"])
        record["passes"].append(summary(oracle))

    absent: set[str] = set()
    if trace:
        values, absent = this.traced_values()
    else:
        values = this.timed_values(seconds)
        values["fail_share"] = this.failed / this.attempted
        values["pass_share"] = 1.0 - values["fail_share"]
    record.update(values=values, absent=sorted(absent), attempted=this.attempted,
                  failed=this.failed)
    (work / "run.json").write_text(json.dumps(record, indent=1, default=str))
    return {"values": values, "absent": absent, "attempted": this.attempted,
            "failed": this.failed}


def summary(pass_: dict) -> dict:
    return {
        **{k: v for k, v in pass_.items() if k != "results"},
        "cases": [
            {"id": r["case"]["id"], "wall": r["wall"], "cpu": r["cpu"],
             "wall_s": r["wall_s"], "speed": r["speed"],
             "rss_mb": r["rss_mb"], "failure": r.get("failure")}
            for r in pass_["results"]
        ],
    }


def print_pass(p: dict):
    print(
        f"  {p['label']}: wall_s={p['wall_s']:.3f} cpu_s={p['cpu_s']:.3f} "
        f"case_max_s={p['case_max_s']:.3f} peak_rss_mb={p['peak_rss_mb']:.1f} "
        f"(raw wall_s={p['raw_wall_s']:.3f} cpu_s={p['raw_cpu_s']:.3f} "
        f"speed={p['speed']:.3f}) "
        f"failed={p['failed']}/{p['cases']} "
        f"loadavg={p['load_before']:.2f}->{p['load_after']:.2f}",
        flush=True,
    )


def select_metrics(config: dict, trace: bool, values: dict, prefix: str = "") -> dict:
    """The metrics BENCHMARK.json lists for this mode.  A layer the workload
    never reached, or one absent from the program, reads 0."""
    listed = config["per_layer"] if trace else config["end_to_end"]
    return {
        prefix + m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in listed
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bruhat_atlas" / "__main__.py").is_file():
        print(f"error: no bruhat_atlas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_to_one_cpu()
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    print("environment: " + " ".join(f"{k}={v}" for k, v in environment().items()))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        print(f"{name} seed={args.seed} seconds={seconds:g} trace={args.trace}",
              flush=True)
        out = run_workload(name, args.seed, seconds, bool(args.trace))
        attempted += out["attempted"]
        failed += out["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        chosen = select_metrics(config, bool(args.trace), out["values"], prefix)
        for key, m in chosen.items():
            print(f"  {key} = {m['value']:.6g} {m['unit']}")
        if not args.trace:
            print(f"  {prefix}fail_share = {out['values']['fail_share']:.6g} ratio "
                  f"({out['failed']} of {out['attempted']} failed; "
                  f"medians over {out['values']['passes']} passes)")
        if out["absent"]:
            print("  absent from the program: " + ", ".join(sorted(out["absent"])))
        metrics.update(chosen)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
