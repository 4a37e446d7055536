"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SLICES = {
    "ladder-build": {"siegel:2", "hilbert:6"},
    "ladder-verify": {"siegel:4"},
    "many-strata": {"D4-fork", "A2xA2xA2-cycle"},
}


def test_generator_is_deterministic_and_seeded():
    first = [workloads.doc_bytes(d) for _, d in workloads.many_strata_docs(7)]
    again = [workloads.doc_bytes(d) for _, d in workloads.many_strata_docs(7)]
    other = [workloads.doc_bytes(d) for _, d in workloads.many_strata_docs(8)]
    assert first == again
    assert sorted(first) != sorted(other)
    assert len(first) == len(workloads.SHAPES)


@pytest.mark.parametrize("seed", range(20))
def test_generated_documents_parse(seed):
    from bruhat_atlas.serialize import parse_case

    for name, doc in workloads.many_strata_docs(seed):
        case = parse_case(json.loads(workloads.doc_bytes(doc)))
        assert not case.phi.is_identity, name


def test_ladders_are_shuffled_not_changed():
    for workload in ("ladder-build", "ladder-verify"):
        ids = [c["id"] for c in workloads.cases_for(workload, 3)]
        presets = workloads.LADDER_BUILD if workload == "ladder-build" else (
            workloads.LADDER_VERIFY
        )
        assert sorted(ids) == sorted(presets)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_on_a_slice(workload, tmp_path):
    # many-strata runs without recorded digests, so its oracle pass runs first
    expected = {} if workload == "many-strata" else None
    out = run.run_workload(workload, 424242, 0, False, work=tmp_path,
                           expected=expected, only=SLICES[workload])
    assert out["failed"] == 0
    values = out["values"]
    assert values["pass_share"] == 1.0
    for key in ("wall_s", "cpu_s", "case_max_s", "peak_rss_mb", "setup_s"):
        assert values[key] > 0
    if workload == "many-strata":
        # a set-up burst per pass, the oracle pass and the measured passes
        cases = len(SLICES[workload])
        assert out["attempted"] == run.MIN_PASSES + (1 + run.MIN_PASSES) * cases


def test_calibrated_spawn_is_scaled(tmp_path):
    assert run.calibration_sample() > 0
    runner = run.Runner(ROOT, tmp_path, run.time.monotonic() + 60)
    res = runner.spawn(["corpus", "siegel:2"], tmp_path / "out", 30, calibrate=True)
    assert res["code"] == 0
    assert res["speed"] > 0
    assert res["cpu_s"] == pytest.approx(res["cpu"] * res["speed"])
    # the samples taken while the case ran are not counted in its wall
    assert 0 < res["wall_s"] <= res["wall"] * res["speed"]
    plain = runner.spawn(["corpus", "siegel:2"], tmp_path / "plain", 30)
    assert plain["speed"] == 1.0 and plain["wall_s"] == plain["wall"]


def test_traced_smoke_run(tmp_path):
    out = run.run_workload("ladder-verify", 1, 0, True, work=tmp_path,
                           only=SLICES["ladder-verify"])
    assert out["failed"] == 0
    values = out["values"]
    for key in ("oracle.verify_atlas.s", "parabolic.min_double_reps.s",
                "coxeter.multiply.calls", "oracle.verify_atlas.alloc_peak_mb",
                "trace.overhead", "parabolic.useful_ratio"):
        assert values[key] > 0, key
    assert values["oracle.checks_failed"] == 0
    assert out["absent"] == set()


def test_corrupted_digest_counts_in_fail_share(tmp_path):
    expected = run.load_digests()
    assert "siegel:2" in expected
    expected["siegel:2"] = dict(expected["siegel:2"], **{"table.txt": "0" * 64})
    out = run.run_workload("ladder-build", 0, 0, False, work=tmp_path,
                           expected=expected, only=SLICES["ladder-build"])
    assert out["failed"] == run.MIN_PASSES
    assert out["values"]["fail_share"] == out["failed"] / out["attempted"] > 0


def test_missing_function_is_reported_absent():
    t = tracer.Tracer()
    t.install([
        ("parabolic.ascend", "parabolic", "ascend", tracer.SPAN),
        ("coxeter.WeylGroup.gone", "coxeter", "WeylGroup.gone", tracer.COUNT),
        ("nomodule.f", "nomodule", "f", tracer.SPAN),
    ])
    assert t.dump()["absent"] == ["coxeter.WeylGroup.gone", "nomodule.f",
                                  "parabolic.ascend"]


def test_tracer_patches_names_imported_by_callers(tmp_path):
    # atlas imports orbit_poset by name; the span must still be seen
    trace = tmp_path / "trace.json"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, str(HERE / "tracer.py"), str(trace), "spans",
         "--out", str(tmp_path / "out"), "corpus", "hilbert:3"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(trace.read_text())
    assert data["totals"]["galois.orbit_poset"][2] == 1
    assert data["totals"]["galois.galois_orbits"][2] == 1
    assert data["counters"]["serialize.bytes"] > 0
    names = {span[1] for span in data["spans"]}
    assert {"cli.main", "atlas.build_atlas", "serialize.hasse_edges"} <= names
    ids = {span[0] for span in data["spans"]}
    assert all(span[4] is None or span[4] in ids for span in data["spans"])
