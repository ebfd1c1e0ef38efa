"""Tests of the benchmark itself, on tiny workload sizes.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workload_sim
import workload_store

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> workload_store.StoreConfig:
    cfg = workload_store.CONFIGS[name]
    return dataclasses.replace(cfg, objects=24,
                               object_bytes=min(cfg.object_bytes, 100_000),
                               setups=1, traced_ops=16, repair_cycles=1)


def emitted(result, trace: bool, capsys) -> dict:
    result.emit(trace, {})
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def test_workload_names_match_the_spec():
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("name", run.STORE_WORKLOADS)
def test_store_workload_emits_the_spec_metrics(name, capsys):
    timed = emitted(workload_store.run_timed(name, 3, 0.5, 0.0, tiny(name)),
                    False, capsys)
    assert timed["correct"] and timed["failed"] == 0
    assert {k: v["unit"] for k, v in timed["metrics"].items()} \
        == units("end_to_end")
    assert all(v["value"] > 0 for v in timed["metrics"].values())
    traced = emitted(workload_store.run_traced(name, 3, cfg=tiny(name)),
                     True, capsys)
    assert traced["correct"] and traced["failed"] == 0
    assert {k: v["unit"] for k, v in traced["metrics"].items()} \
        == units("per_layer")


def test_sim_workload_emits_the_spec_metrics(capsys):
    timed = emitted(workload_sim.run_timed(run.SIM_WORKLOAD, 3, 0.2, 0.0),
                    False, capsys)
    assert timed["correct"] and timed["failed"] == 0
    assert {k: v["unit"] for k, v in timed["metrics"].items()} \
        == units("end_to_end")
    assert all(v["value"] > 0 for v in timed["metrics"].values())
    traced = emitted(workload_sim.run_traced(run.SIM_WORKLOAD, 3, pairs=1),
                     True, capsys)
    assert traced["correct"] and traced["failed"] == 0
    assert {k: v["unit"] for k, v in traced["metrics"].items()} \
        == units("per_layer")


def test_exact_counts_repeat_for_equal_seeds(capsys):
    name = "store-4k-zipf"
    runs = [emitted(workload_store.run_traced(name, 5, cfg=tiny(name)),
                    True, capsys)["metrics"] for _ in range(2)]
    for metric in ("loop.callbacks_per_op", "loop.tasks_per_op",
                   "node.calls_per_op", "codes.mult_xor_per_stripe",
                   "gf.bytes_per_user_byte", "cluster.read_amplification"):
        assert runs[0][metric] == runs[1][metric], metric


@pytest.mark.parametrize("node, message", [
    (0, "bytes differ from the last put"),
    (-1, "degraded read-back"),
], ids=["data", "parity"])
def test_flipped_chunk_byte_fails_the_gate(node, message, monkeypatch,
                                           capsys):
    # Node 0 holds a data column, which every healthy get reads; the
    # last node holds parity, which only the gate's degraded read-back
    # reads.  Few puts, so that most flipped chunks are not rewritten.
    name = "store-4k-zipf"
    monkeypatch.setitem(workload_store.CONFIGS, name, dataclasses.replace(
        tiny(name), objects=200, read_fraction=0.99))
    real_setup = workload_store.setup

    async def corrupted_setup(cfg, seed):
        cluster, expected = await real_setup(cfg, seed)
        entries = cluster.nodes[node].transport._entries
        for pair, chunk in entries.items():
            entries[pair] = bytes([chunk[0] ^ 0x01]) + chunk[1:]
        return cluster, expected

    monkeypatch.setattr(workload_store, "setup", corrupted_setup)
    code = run.main(["--workload", name, "--seed", "1",
                     "--seconds", "0.3", "--trace", "0"])
    out = capsys.readouterr().out
    last = json.loads(out.strip().splitlines()[-1])
    assert code != 0
    assert not last["correct"] and last["failed"] > 0
    assert message in out


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "store-4k-zipf",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
