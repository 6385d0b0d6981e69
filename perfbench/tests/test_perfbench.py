"""Self-tests of the benchmark at small sizes.

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def small_run(tmp_path, workload, seed=1, trace=False):
    return run.run(workload, seed, 0, trace, str(tmp_path), small=True)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_passes_its_checks(tmp_path, workload, seed):
    out = small_run(tmp_path, workload, seed)
    result = out["result"]
    assert result["correct"], out["record"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_size(tmp_path, workload):
    factory = workloads.WORKLOADS[workload]
    one, two, again = (factory(seed, str(tmp_path), small=True).jobs for seed in (1, 2, 1))
    assert [j.argv for j in one] == [j.argv for j in again]
    assert [j.argv for j in one] != [j.argv for j in two]
    assert len(one) == len(two)


def test_battery_pool_has_one_shape():
    for cseed in workloads.BATTERY_POOL:
        shape = (len(workloads.Scan.battery_nodes(cseed)), workloads.Scan.operator_nodes(cseed))
        assert shape == workloads.BATTERY_SHAPE, cseed


def test_wrong_verdicts_are_caught(tmp_path, monkeypatch):
    checker = importlib.import_module("ictl.checker")
    monkeypatch.setattr(checker, "exists_until_set", lambda m, a, b: b)
    out = small_run(tmp_path, "check")
    assert not out["result"]["correct"]
    assert out["result"]["failed"] > 0


def test_disagreement_is_caught(tmp_path, monkeypatch):
    checker = importlib.import_module("ictl.checker")
    monkeypatch.setattr(checker, "exists_next_set", lambda m, a: 0)
    out = small_run(tmp_path, "scan")
    assert not out["result"]["correct"]


def test_tracer_wraps_and_restores_call_time_lookups():
    modules = {name: importlib.import_module(name) for name in spans.SCANNED}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {(m.__name__, attr) for m, attr, _ in tracer.patched()}
        for want in [
            ("ictl.checker", "forall_next_set"),
            ("ictl.checker", "lfp"),
            ("ictl.checker", "pre_exists"),
            ("ictl.checker", "up_interior"),
            ("ictl.checker", "subformulas"),
            ("ictl.gen", "denote"),
            ("ictl.gen", "oracle_check"),
            ("ictl.gen", "enumerate_frames"),
            ("ictl.gen", "frame_conditions_hold"),
            ("ictl.cli", "enumerate_models"),
            ("ictl.oracle", "exists_until_worlds"),
        ]:
            assert want in patched
            assert getattr(modules[want[0]], want[1]) is not before[want[0]][want[1]]
    finally:
        tracer.restore()
    for name, m in modules.items():
        for attr, value in before[name].items():
            assert getattr(m, attr) is value, (name, attr)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(tmp_path, workload):
    modules = [importlib.import_module(name) for name in spans.SCANNED]
    before = [dict(vars(m)) for m in modules]
    out = small_run(tmp_path, workload, trace=True)
    for m, attrs in zip(modules, before):
        for attr, value in attrs.items():
            assert getattr(m, attr) is value, (m.__name__, attr)

    result = out["result"]
    assert result["correct"], out["record"]["failures"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    self_total = sum(row["self_s"] for row in out["record"]["spans"])
    assert 0 < self_total <= metrics["trace.wall_s"]
    assert metrics["cli.main.calls"] == result["attempted"] // 2  # the traced pass
    if workload != "scan":
        assert metrics["harness.scan_models.calls"] == 0
        assert metrics["harness.operator_evals"] == 0
    else:
        assert 0 < metrics["harness.memo_hit_ratio"] < 1
    if workload == "prove":
        assert metrics["gen.models_checked"] > 0
        assert 0 < metrics["gen.frame_accept_ratio"] <= 1
    if workload == "check":
        assert metrics["checker.check.calls"] == metrics["cli.main.calls"]
        assert metrics["checker.iterations_per_fixpoint"] > 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
