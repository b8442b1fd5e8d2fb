"""Smoke check of the benchmark itself, at tiny size.

    python3 perfbench/test_smoke.py
    python3 -m pytest perfbench/test_smoke.py

Runs every workload of BENCHMARK.json untraced and traced with shrunken
sample counts and one cycle, and checks that every metric is printed with
its unit, that no operation failed, that traced counts repeat exactly, that
a traced name missing from the code reads as absent, and that the benchmark
refuses to run without pennyflip's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int) -> dict:
    done = run(workload, trace)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_metric_is_printed_with_its_unit():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            doc = result(workload, trace)
            assert set(doc) == {"correct", "attempted", "failed", "metrics"}
            assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1, (workload, trace)
            units = {name: m["unit"] for name, m in doc["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in SPEC[section]}, (workload, trace)
            for m in doc["metrics"].values():
                assert isinstance(m["value"], (int, float)) and m["value"] >= 0
            if trace:
                rows = doc["metrics"]["rotations.sample_axes.rows"]["value"]
                assert (rows == 0) == (workload == "analytic_game"), (workload, rows)
            else:
                assert all(m["value"] > 0 for m in doc["metrics"].values()), workload


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        metrics = result("mc_small", 1)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if k.endswith((".calls", ".rows"))})
    assert counts[0] == counts[1]


def test_missing_names_are_recorded_as_absent():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import pennyflip as pf
    import tracer

    saved = pf.rotations.pauli_dot
    del pf.rotations.pauli_dot
    spans = tracer.Tracer()
    try:
        spans.install()
        try:
            pf.apply_channel(pf.RandomBasisMeasurement(), pf.SPIN_UP, mode="mc", samples=8)
        finally:
            spans.uninstall()
    finally:
        pf.rotations.pauli_dot = saved
    assert spans.patcher.absent == ["rotations.pauli_dot"]
    metrics = spans.metrics()
    assert metrics["rotations.pauli_dot.calls"] == 0
    assert metrics["channels.apply_channel.calls"] == 1
    assert metrics["rotations.sample_axes.rows"] == 8


def test_refuses_without_sources():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, tmp / path, ignore=shutil.ignore_patterns("__pycache__"))
        done = run("mc_small", 0, cwd=tmp)
        assert done.returncode != 0
        assert '"correct"' not in done.stdout


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
