"""Tests of the benchmark itself: python3 -m pytest perfbench

Smoke runs shrink every workload to a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    # Seed 5 is not the default, so this also runs every seed-independent gate.
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_full_size_run_at_another_seed_passes_every_gate():
    proc = bench("--workload", "null-xl", "--seed", "11", "--seconds", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


@pytest.fixture
def collide_run(tmp_path, monkeypatch):
    """One smoke collide-m set-up and timed operation, in-process."""
    workload = workloads.CollideM(5, smoke=True)
    in_dir, rep_dir = tmp_path / "in", tmp_path / "rep"
    in_dir.mkdir()
    rep_dir.mkdir()
    workload.setup(in_dir)
    monkeypatch.chdir(rep_dir)
    assert workload.run() == 0
    return workload, in_dir, rep_dir


def test_one_corrupted_output_byte_is_a_failure(collide_run):
    workload, in_dir, rep_dir = collide_run
    first, failures = run.check_rep(workload, rep_dir, in_dir, None)
    assert failures == []
    assert run.check_rep(workload, rep_dir, in_dir, first)[1] == []

    target = next(rep_dir.rglob("rank_table.csv"))
    data = bytearray(target.read_bytes())
    data[-2] ^= 1
    target.write_bytes(bytes(data))
    assert run.check_rep(workload, rep_dir, in_dir, first)[1] != []


def test_precision_below_its_gate_is_a_failure(collide_run):
    workload, in_dir, rep_dir = collide_run
    # Merging every cluster into one links mentions of different authors.
    clusters_path = rep_dir / "bundle" / "clusters.jsonl"
    clusters = [json.loads(line) for line in clusters_path.read_text(encoding="utf-8").splitlines()]
    merged = sorted(m for c in clusters for m in c["mention_ids"])
    clusters_path.write_text(json.dumps({"author_id": merged[0], "mention_ids": merged}) + "\n", encoding="utf-8")
    _, failures = run.check_rep(workload, rep_dir, in_dir, None)
    assert any("precision" in f for f in failures), failures


def test_record_flags_a_counter_that_changes_between_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(run.Record, "path", tmp_path / "record.json")
    assert run.Record("k").check({"outputs": "a", "blocks": 3}) == []
    assert run.Record("k").check({"outputs": "a", "blocks": 3}) == []
    assert len(run.Record("k").check({"outputs": "a", "blocks": 4})) == 1


def test_without_the_package_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_layer_reasons_cover_every_per_layer_metric():
    reasons = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["per_layer"]
    assert list(reasons) == [m["name"] for m in SPEC["per_layer"]]
    ends = {m["name"] for m in SPEC["end_to_end"]}
    for reason in reasons.values():
        assert set(reason["moves"]) <= ends
        assert set(reason["on"]) | set(reason["not_on"]) <= set(WORKLOADS)
