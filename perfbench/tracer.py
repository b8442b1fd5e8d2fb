"""Per-layer tracing of pennyflip, installed from the benchmark's side.

``Tracer`` wraps each public layer function named in TARGETS, in every
pennyflip module namespace that holds it, and records one span per call
(name, start, end, parent span, and a count such as rows drawn) in memory.
``MemoryProbe`` wraps only the channel entry points and traces memory
allocation inside each top-level channel call, keeping the largest peak.  A target missing from the
code under test is recorded as absent and reads zero.

Self time is a span's duration minus the durations of its wrapped children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc

# (span name, module, attribute path).  The span name's first part is its layer.
TARGETS = (
    ("rotations.sample_axes", "pennyflip.rotations", "sample_axes"),
    ("rotations.rotation_unitaries", "pennyflip.rotations", "rotation_unitaries"),
    ("rotations.pauli_dot", "pennyflip.rotations", "pauli_dot"),
    ("rotations.spin_eigenstates", "pennyflip.rotations", "spin_eigenstates"),
    ("rotations.rng_open", "pennyflip.rotations", "RngStream.generator"),
    ("channels.apply_channel", "pennyflip.channels", "apply_channel"),
    ("channels.iterated_mc_curve", "pennyflip.channels", "iterated_mc_curve"),
    ("density.validate_density", "pennyflip.density", "validate_density"),
    ("density.eigen_hermitian", "pennyflip.density", "eigen_hermitian"),
    ("density.to_bloch", "pennyflip.density", "to_bloch"),
    ("density.from_bloch", "pennyflip.density", "from_bloch"),
    ("density.purity", "pennyflip.density", "purity"),
    ("density.entropy", "pennyflip.density", "entropy"),
    ("density.trace_distance", "pennyflip.density", "trace_distance"),
    ("density.decompose_polarized", "pennyflip.density", "decompose_polarized"),
    ("game.play_game", "pennyflip.game", "play_game"),
    ("game.initial_state_for", "pennyflip.game", "initial_state_for"),
    ("game.outcome_from_state", "pennyflip.game", "outcome_from_state"),
    ("game.angle_scan", "pennyflip.game", "angle_scan"),
    ("cli.main", "pennyflip.cli", "main"),
    ("cli.Report.to_json", "pennyflip.cli", "Report.to_json"),
    ("cli.Report.to_csv", "pennyflip.cli", "Report.to_csv"),
)

CHANNEL_CALLS = ("channels.apply_channel", "channels.iterated_mc_curve")

# Per-layer metric base name -> the spans it sums.  Each gets .calls and .s.
TIMED = {name: (name,) for name in (
    "rotations.sample_axes",
    "rotations.rotation_unitaries",
    "rotations.pauli_dot",
    "rotations.spin_eigenstates",
    "rotations.rng_open",
    "channels.apply_channel",
    "channels.iterated_mc_curve",
    "density.validate_density",
    "density.eigen_hermitian",
    "game.play_game",
    "game.outcome_from_state",
    "game.angle_scan",
    "cli.main",
)}
TIMED["density.bloch"] = ("density.to_bloch", "density.from_bloch")
DIAGNOSTICS = ("density.purity", "density.entropy", "density.trace_distance", "density.decompose_polarized")
RENDER = ("cli.Report.to_json", "cli.Report.to_csv")


def spec_depth(spec) -> int:
    """Channel applications per sample; Iterated n counts n."""
    inner, n = getattr(spec, "inner", None), getattr(spec, "n", None)
    return int(n) * spec_depth(inner) if inner is not None and n is not None else 1


# The count a span carries, from the call's bound arguments: axes drawn, or
# channel realizations (samples x applications; analytic calls count 1).
COUNTS = {
    "rotations.sample_axes": lambda b: int(b["n"]),
    "channels.apply_channel": lambda b: (int(b["samples"]) if b["mode"] == "mc" else 1) * spec_depth(b["spec"]),
    "channels.iterated_mc_curve": lambda b: int(b["samples"]) * int(b["n_steps"]) * spec_depth(b["inner"]),
}


def _counter(name: str, fn):
    """COUNTS[name] for calls of fn; a signature that no longer has the
    expected parameters counts zero."""
    rule = COUNTS.get(name)
    if rule is None:
        return None
    sig = inspect.signature(fn)

    def count(args, kwargs):
        try:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            return rule(bound.arguments)
        except (KeyError, TypeError, ValueError):
            return 0

    return count


class Patcher:
    """Replaces each target in every pennyflip namespace and puts it back."""

    def __init__(self):
        self._undo = []
        self.absent = []

    def install(self, targets, make_wrapper) -> None:
        self.absent = []
        for name, module_name, path in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = None if owner is None else vars(owner).get(attr)
            if original is None:
                self.absent.append(name)
                continue
            if owner_path:  # a class attribute: one object holds it
                self._set(owner, attr, make_wrapper(name, original))
                continue
            wrapper = make_wrapper(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "pennyflip" or mod_name.startswith("pennyflip.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _first_access_only(fget, timed):
    """For RngStream.generator: time only the access that opens the stream."""

    def get(obj):
        if getattr(obj, "_gen", None) is None:
            return timed(obj)
        return fget(obj)

    return get


def _wrap(original, wrap_callable):
    if isinstance(original, property):
        return property(_first_access_only(original.fget, wrap_callable(original.fget)))
    return wrap_callable(original)


class Tracer:
    """Spans kept in memory as (name index, start ns, end ns, parent, count)."""

    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self._index = {name: i for i, name in enumerate(self.names)}
        self.spans = []
        self._stack = []
        self.patcher = Patcher()

    def install(self) -> None:
        self.patcher.install(TARGETS, self._make_wrapper)

    def uninstall(self) -> None:
        self.patcher.uninstall()

    def _make_wrapper(self, name, original):
        idx = self._index[name]
        spans, stack = self.spans, self._stack

        def wrap_callable(fn):
            count = _counter(name, fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                n = count(args, kwargs) if count else 0
                slot = len(spans)
                parent = stack[-1] if stack else -1
                spans.append(None)
                stack.append(slot)
                t0 = time.perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter_ns()
                    stack.pop()
                    spans[slot] = (idx, t0, t1, parent, n)

            return wrapper

        return _wrap(original, wrap_callable)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent", "count"]}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def metrics(self) -> dict:
        """Per-layer metrics from the recorded spans, times in seconds."""
        spans = self.spans
        dur = [s[2] - s[1] for s in spans]
        child = [0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]

        def group(names):
            """(calls, inclusive ns, summed count) over spans in names; a span
            inside another of the group adds its call but not its time."""
            ids = {self._index[n] for n in names}
            calls = total = count = 0
            for i, s in enumerate(spans):
                if s[0] not in ids:
                    continue
                calls += 1
                p = s[3]
                while p >= 0 and spans[p][0] not in ids:
                    p = spans[p][3]
                if p < 0:
                    total += dur[i]
                    count += s[4]
            return calls, total, count

        def self_s(layer):
            return sum(dur[i] - child[i] for i, s in enumerate(spans) if self.names[s[0]].startswith(layer + ".")) / 1e9

        out = {}
        for base, names in TIMED.items():
            calls, total, _ = group(names)
            out[base + ".calls"] = calls
            out[base + ".s"] = total / 1e9
        out["rotations.sample_axes.rows"] = group(("rotations.sample_axes",))[2]
        _, ch_ns, realizations = group(CHANNEL_CALLS)
        out["channels.self_s"] = self_s("channels")
        out["channels.ns_per_realization"] = ch_ns / realizations if realizations else 0.0
        out["density.diagnostics.s"] = group(DIAGNOSTICS)[1] / 1e9
        out["game.self_s"] = self_s("game")
        out["cli.render.s"] = group(RENDER)[1] / 1e9
        out["cli.self_s"] = self_s("cli")
        return out


class MemoryProbe:
    """Largest tracemalloc peak, in bytes, over top-level channel calls."""

    def __init__(self):
        self.peak = 0
        self.patcher = Patcher()

    def install(self) -> None:
        targets = [t for t in TARGETS if t[0] in CHANNEL_CALLS]
        self.patcher.install(targets, lambda name, original: _wrap(original, self._wrap_callable))

    def uninstall(self) -> None:
        self.patcher.uninstall()

    def _wrap_callable(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():  # nested inside a probed call
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.peak = max(self.peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()

        return wrapper
