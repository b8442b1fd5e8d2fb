"""Run one benchmark workload in this process; print its result as one JSON line.

run.py starts this script in a fresh interpreter, with BLAS threads pinned to
1 and the checkout's ``src`` first on the path.  One client issues the
workload's operations in a closed loop: each call starts when the previous
one, and its output check, have finished.

Untraced (``--trace 0``): one warm-up cycle at tiny size, then whole cycles
until ``--seconds`` have passed, then the first operation is replayed and
must match bit for bit.  Rates and latencies count only the time spent
inside pennyflip calls, not the checks between them.

Traced (``--trace 1``): a fixed number of cycles, so span counts repeat
exactly.  Each cycle runs three times on identical inputs: untraced, with
spans, and with allocation tracing inside the channel calls.  Every traced output must
match its untraced one bit for bit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

# Tail percentile per workload: the highest with at least ten latency samples
# beyond it in one measurement window at the run's expected operation count.
TAIL_PERCENTILE = {"mc_bulk": 75.0, "mc_small": 99.0, "analytic_game": 99.0}
FALLBACK_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
# Cycles in a traced run: 3 to 8 s of untraced work on the seed code.
TRACE_CYCLES = {"mc_bulk": 1, "mc_small": 30, "analytic_game": 100}
MAX_REPORTED_FAILURES = 5
# Least pennyflip time in one measurement window of an untraced run.
WINDOW_S = 1.0


class Runner:
    """Executes operations, checks them and keeps the tallies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = []
        self.realizations = 0

    def _fail(self, op, what: str) -> None:
        self.failed += 1
        if self.failed <= MAX_REPORTED_FAILURES:
            print(f"FAILED {op.name}: {what}", file=sys.stderr)

    def run(self, op):
        """Call and check op; returns its digest, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.call()
        except (Exception, SystemExit):  # cli.main exits on a bad argument
            self._fail(op, traceback.format_exc())
            return None
        latency = time.perf_counter() - t0
        try:
            op.check(result)
        except Exception:
            self._fail(op, traceback.format_exc())
            return None
        self.latencies.append(latency)
        self.realizations += op.realizations
        return op.digest(result)

    def replay(self, op, digest) -> None:
        """Repeat a call; its output must equal the first one bit for bit."""
        again = self.run(op)
        if again is not None and again != digest:
            self.failed += 1
            print(f"FAILED {op.name}: replay differs", file=sys.stderr)

    @property
    def busy(self) -> float:
        return float(sum(self.latencies))


def tail_percentile(workload: str, n: int) -> float:
    for pct in FALLBACK_PERCENTILES:
        if pct <= TAIL_PERCENTILE[workload] and n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def warm_up(workload, pf, pf_cli, seed: int) -> None:
    """Import lazily loaded code and fill caches with one tiny, unchecked cycle."""
    rng = np.random.default_rng([seed, 1])
    for op in workloads.cycle(workload, pf, pf_cli, rng, 0, tiny=True):
        with contextlib.suppress(Exception, SystemExit):
            op.call()


def timed_run(args, pf, pf_cli) -> tuple:
    """Whole cycles until the time is up, grouped into windows that hold at
    least WINDOW_S of pennyflip time and enough operations for the tail
    percentile.  Every metric is the median of its per-window values, which
    damps the bursts of a shared machine."""
    runner = Runner()
    rng = np.random.default_rng(args.seed)
    min_ops = math.ceil(10 / (1.0 - TAIL_PERCENTILE[args.workload] / 100.0))
    first = None
    cycles = 0
    marks = [(0, 0)]  # (operations, realizations) at each window's end
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < args.seconds:
        for op in workloads.cycle(args.workload, pf, pf_cli, rng, cycles, args.tiny):
            digest = runner.run(op)
            if first is None:
                first = (op, digest)
        cycles += 1
        window = runner.latencies[marks[-1][0]:]
        if len(window) >= min_ops and sum(window) >= WINDOW_S:
            marks.append((len(runner.latencies), runner.realizations))
    end = (len(runner.latencies), runner.realizations)
    if end != marks[-1]:
        if len(marks) > 1:
            marks[-1] = end  # a short last window joins the one before
        else:
            marks.append(end)
    lat = np.array(runner.latencies)
    runner.replay(*first)
    if lat.size == 0:
        raise SystemExit("no operation completed")
    windows = [(lat[a:b], r1 - r0) for (a, r0), (b, r1) in zip(marks, marks[1:])]
    pct = tail_percentile(args.workload, min(w.size for w, _ in windows))
    metrics = {
        "realizations_per_s": float(np.median([r / w.sum() for w, r in windows])),
        "ops_per_s": float(np.median([w.size / w.sum() for w, _ in windows])),
        "latency_p50_ms": float(np.median([np.median(w) for w, _ in windows])) * 1e3,
        "latency_tail_ms": float(np.median([np.percentile(w, pct) for w, _ in windows])) * 1e3,
    }
    info = {"cycles": cycles, "windows": len(windows), "latency_samples": int(lat.size), "tail_percentile": pct}
    return runner, metrics, info


def traced_run(args, pf, pf_cli) -> tuple:
    rng = np.random.default_rng(args.seed)
    n_cycles = 1 if args.tiny else TRACE_CYCLES[args.workload]
    cycles = [workloads.cycle(args.workload, pf, pf_cli, rng, c, args.tiny) for c in range(n_cycles)]
    runner = Runner()

    def rerun(ops, digests, probe) -> float:
        """Pennyflip time of ops run under probe; outputs must match digests."""
        mark = runner.busy
        probe.install()
        try:
            for op, digest in zip(ops, digests):
                again = runner.run(op)
                if digest is not None and again != digest:
                    runner.failed += 1
                    print(f"FAILED {op.name}: traced output differs", file=sys.stderr)
        finally:
            probe.uninstall()
        return runner.busy - mark

    # Plain and traced passes alternate cycle by cycle, so that a drift in
    # machine speed weighs on both sides of the overhead ratio alike.
    spans = tracer.Tracer()
    memory = tracer.MemoryProbe()
    plain_busy = traced_busy = memory_busy = 0.0
    for ops in cycles:
        mark = runner.busy
        digests = [runner.run(op) for op in ops]
        plain_busy += runner.busy - mark
        traced_busy += rerun(ops, digests, spans)
        memory_busy += rerun(ops, digests, memory)

    metrics = spans.metrics()
    metrics["channels.peak_alloc_mb"] = memory.peak / 2**20
    metrics["trace.overhead_ratio"] = traced_busy / plain_busy
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    spans.write(span_file)
    info = {
        "cycles": n_cycles,
        "operations": sum(len(ops) for ops in cycles),
        "spans": len(spans.spans),
        "pass_seconds": {"plain": plain_busy, "traced": traced_busy, "tracemalloc": memory_busy},
        "span_file": str(span_file.relative_to(ROOT)),
        "absent": spans.patcher.absent,
    }
    return runner, metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CYCLES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import pennyflip as pf
    import pennyflip.cli as pf_cli

    src = (ROOT / "src").resolve()
    if src not in Path(pf.__file__).resolve().parents:
        raise SystemExit(f"pennyflip imported from {pf.__file__}, not from {src}")

    warm_up(args.workload, pf, pf_cli, args.seed)
    run = traced_run if args.trace else timed_run
    runner, metrics, info = run(args, pf, pf_cli)
    info["machine"] = {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "pennyflip": getattr(pf, "__version__", "unknown"),
        "seed": args.seed,
    }
    info["realizations"] = runner.realizations
    # ru_maxrss is in KiB on Linux: the peak RSS of this process.
    info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc = {"attempted": runner.attempted, "failed": runner.failed, "metrics": metrics, "info": info}
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
