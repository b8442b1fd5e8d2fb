"""pennyflip benchmark.

    python3 perfbench/run.py --workload mc_bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs from the root of a checkout and benchmarks the pennyflip in its ``src``.
Each workload runs in a fresh child interpreter (perfbench/child.py) with the
OpenBLAS, OpenMP and MKL thread counts set to 1 in the child's environment
only.  Before it, ``setup_s`` times several fresh interpreters from launch to
``import pennyflip`` done, and reports their median.

Prints each metric by name with its unit, then, as the last line, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  A record of the run, with the machine block, goes to
``.perfbench/`` in the checkout.  Exits 2 without a result when the checkout
holds no ``src/pennyflip``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("mc_bulk", "mc_small", "analytic_game")
SETUP_LAUNCHES = 7
# A child must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def measure_setup(env) -> float:
    """Median seconds from launching an interpreter to pennyflip imported."""
    code = "import time, pennyflip; print(repr(time.monotonic()))"
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=60, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return statistics.median(times)


def run_child(workload: str, seed: int, seconds: float, trace: int, tiny: bool, env) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise SystemExit(f"workload {workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, tiny: bool, spec: dict) -> dict:
    """One workload's result: correct, attempted, failed and metrics, plus the
    run record under "info"."""
    env = child_env()
    setup_s = None if trace else measure_setup(env)
    doc = run_child(workload, seed, seconds, trace, tiny, env)
    info = doc["info"]
    measured = dict(doc["metrics"])
    if not trace:
        measured["setup_s"] = setup_s
        measured["peak_rss_mb"] = info["peak_rss_mb"]
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    info["failed_ratio"] = doc["failed"] / doc["attempted"] if doc["attempted"] else 1.0
    return {
        "correct": doc["failed"] == 0 and doc["attempted"] > 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
        "info": info,
    }


def write_record(workload: str, seed: int, trace: int, result: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({"workload": workload, **result}, indent=2) + "\n", encoding="utf-8")
    return path


def print_result(workload: str, result: dict) -> None:
    info = result["info"]
    print(f"[{workload}] machine {json.dumps(info['machine'], sort_keys=True)}")
    if "tail_percentile" in info:
        print(f"[{workload}] latency_tail_ms is p{info['tail_percentile']:g} "
              f"of {info['latency_samples']} operations over {info['cycles']} cycles")
    if info.get("absent"):
        print(f"[{workload}] absent from this code: {', '.join(info['absent'])}")
    for name, m in result["metrics"].items():
        print(f"[{workload}] {name} = {m['value']!r} {m['unit']}")
    print(f"[{workload}] failed_ratio = {info['failed_ratio']!r} 1 "
          f"({result['failed']} of {result['attempted']} operations)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pennyflip benchmark")
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrink the bulk sample counts (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pennyflip" / "__init__.py").is_file():
        print(f"error: no pennyflip sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in names:
        result = run_workload(workload, args.seed, seconds, args.trace, args.tiny, spec)
        print_result(workload, result)
        print(f"[{workload}] record {write_record(workload, args.seed, args.trace, result).relative_to(ROOT)}")
        results[workload] = result
    if len(results) == 1:
        final = results[names[0]]
        metrics = final["metrics"]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
        }
        metrics = {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({"correct": final["correct"], "attempted": final["attempted"],
                      "failed": final["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
