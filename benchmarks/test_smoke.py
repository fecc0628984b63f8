"""Smoke tests for the benchmark itself, on tiny inputs (a few seconds in all).

Run from the root of the checkout: ``python -m pytest -q benchmarks``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, *extra, root=ROOT):
    cmd = [sys.executable, str(root / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", *extra]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=120)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    meta, res = _result(_run(workload, "--trace", "0", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert meta["fail_frac"] == 0 and meta["latency"]["samples"] == meta["ops_per_pass"]


@pytest.mark.parametrize("workload", ["verify-generic-AD", "rewrite-A3D4"])
def test_smoke_trace_prints_every_per_layer_metric(workload):
    meta, res = _result(_run(workload, "--trace", "1", "--smoke"))
    assert res["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == expected
    spans = json.loads((ROOT / meta["spans"]).read_text())
    assert spans["spans"] and {s[5] for s in spans["spans"]} <= set(range(len(spans["ops"])))


def _copy_checkout(tmp_path, with_sources):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


def test_corrupted_golden_raises_fail_frac(tmp_path):
    root = _copy_checkout(tmp_path, with_sources=True)
    path = root / "benchmarks" / "golden.json"
    golden = json.loads(path.read_text())
    golden["verify A3 generic"]["digest"] = "0" * 64
    golden["verify A2 generic"]["t_calls"] += 1
    path.write_text(json.dumps(golden))
    meta, res = _result(_run("verify-generic-AD", "--smoke", root=root))
    assert not res["correct"]
    assert res["failed"] == 2 * meta["passes"]
    assert meta["fail_frac"] == res["failed"] / res["attempted"] > 0


def test_cold_start_guard_sees_memo_state():
    sys.path.insert(0, str(ROOT / "src"))
    from worker import cold_state_problems

    from bmwade.lkrep import build_lk

    build_lk.cache_clear()
    assert not any("build_lk" in p for p in cold_state_problems([]))
    build_lk("A2")
    try:
        assert any("build_lk" in p for p in cold_state_problems([]))
    finally:
        build_lk.cache_clear()


def test_refuses_a_checkout_without_sources(tmp_path):
    proc = _run("verify-spec-E", root=_copy_checkout(tmp_path, with_sources=False))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
