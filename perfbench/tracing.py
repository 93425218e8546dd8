"""Layer tracing from outside the program.

The tracer replaces each listed ``qmkit`` function by a wrapper, on every
module binding of that function (``qmkit.tomography.probabilities`` as
well as ``qmkit.measurement.probabilities`` and ``qmkit.probabilities``),
so a call is seen whichever name the caller used.  Span layers record
(name, start, end, parent, job); count layers only count calls, because
they sit inside tight loops.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from pathlib import Path

# layer name -> (module, functions); every call becomes a span
SPAN_LAYERS = {
    "measurement.build_set": ("qmkit.measurement", ("build_pauli_set", "build_stoke_set",
                                                    "build_mub_set", "build_sic_set")),
    "measurement.probabilities": ("qmkit.measurement", ("probabilities",)),
    "measurement.measure_and_sample": ("qmkit.measurement", ("measure_and_sample",)),
    "tomography.run_tomography": ("qmkit.tomography", ("run_tomography",)),
    "tomography.reconstruct_linear_inversion": ("qmkit.tomography",
                                                ("reconstruct_linear_inversion",)),
    "tomography.fidelity": ("qmkit.tomography", ("fidelity",)),
    "tomography.trace_distance": ("qmkit.tomography", ("trace_distance",)),
    "phasespace.wigner_planar": ("qmkit.phasespace", ("wigner_planar",)),
    "phasespace.husimi_planar": ("qmkit.phasespace", ("husimi_planar",)),
    "phasespace.husimi_spherical": ("qmkit.phasespace", ("husimi_spherical",)),
    "phasespace.wigner_spherical": ("qmkit.phasespace", ("wigner_spherical",)),
    "metrology.run_scenario": ("qmkit.metrology", ("run_scenario",)),
    "metrology.classical_fisher": ("qmkit.metrology", ("classical_fisher",)),
    "metrology.quantum_fisher": ("qmkit.metrology", ("quantum_fisher",)),
    "qcore.mat_exp": ("qmkit.qcore", ("mat_exp",)),
    "cli.main": ("qmkit.cli", ("main",)),
    "cli.emit": ("qmkit.cli", ("_emit",)),
}

# layer name -> (module, functions); calls are only counted
COUNT_LAYERS = {
    "measurement.sample_cdf_discrete": ("qmkit.measurement", ("sample_cdf_discrete",)),
    "measurement.sample_mc": ("qmkit.measurement", ("sample_mc",)),
    "phasespace.clebsch_gordan": ("qmkit.phasespace", ("clebsch_gordan",)),
    "phasespace.spherical_multipole": ("qmkit.phasespace", ("spherical_multipole",)),
    "phasespace.spherical_harmonic": ("qmkit.phasespace", ("spherical_harmonic",)),
    "operators.displacement": ("qmkit.operators", ("displacement",)),
    "states.spin_coherent": ("qmkit.states", ("spin_coherent",)),
    "metrology.encode_phase": ("qmkit.metrology", ("encode_phase",)),
    "qcore.density_matrix": ("qmkit.qcore", ("density_matrix",)),
}

# span layers whose result is a phase-space grid: their grid points are summed
MAP_LAYERS = ("phasespace.wigner_planar", "phasespace.husimi_planar",
              "phasespace.husimi_spherical", "phasespace.wigner_spherical")

JOB = "job"

# every per-layer metric of a traced run -> unit
PER_LAYER = {
    **{f"{n}.{part}": unit for n in SPAN_LAYERS for part, unit in (("calls", "count"), ("s", "s"))},
    **{f"{n}.calls": "count" for n in COUNT_LAYERS},
    "phasespace.grid_points_per_s": "1/s",
    "cli.import_s": "s",
    "cli.import_modules": "count",
    "cli.bytes_out": "bytes",
    "trace.jobs_per_s_untraced": "1/s",
    "trace.jobs_per_s_traced": "1/s",
    "trace.overhead": "ratio",
    "fail_frac": "ratio",
    "result_err": "abs",
}


class Tracer:
    """Spans and counts of one process.  Not thread-safe: the benchmark
    runs one job at a time on one thread."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index, job id]
        self.counts: Counter = Counter()
        self.grid_points = 0
        self._stack: list[int] = []
        self._job: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._job])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_job(self, job_id: int) -> None:
        self._job = job_id
        self._open(JOB)

    def end_job(self) -> None:
        self._close(self._stack[0])
        self._stack.clear()
        self._job = None

    def _span_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name in MAP_LAYERS:
                self.grid_points += result.values.size
            return result
        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is not None:
                self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every listed function in loaded qmkit modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qmkit" or n.startswith("qmkit."))]
        for layers, make in ((SPAN_LAYERS, self._span_wrapper),
                             (COUNT_LAYERS, self._count_wrapper)):
            for name, (modname, funcs) in layers.items():
                home = importlib.import_module(modname)
                for fname in funcs:
                    original = getattr(home, fname)
                    wrapped = make(name, original)
                    for mod in modules:
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, attr, wrapped)
                                self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- child processes ---------------------------------------------------

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": dict(self.counts),
                                    "grid_points": self.grid_points}))

    def merge_child(self, path: Path) -> None:
        """Add the spans and counts a traced child process wrote to ``path``,
        hanging its root spans under the current job span."""
        data = json.loads(path.read_text())
        base = len(self.spans)
        job_span = self._stack[0] if self._stack else None
        for name, start, end, parent, _ in data["spans"]:
            self.spans.append([name, start, end,
                               job_span if parent is None else parent + base, self._job])
        self.counts.update(data["counts"])
        self.grid_points += data["grid_points"]

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, self seconds, inclusive seconds).

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because each process runs one
        thread.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, tuple[int, float, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, own, total = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, own + (end - start) - child_time[i], total + end - start)
        return out

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: name, start, end, parent, job."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for name, start, end, parent, job in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "job": job}) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metric values named as in BENCHMARK.json (``.calls``, ``.s``)."""
    times = tracer.self_times()
    out: dict[str, float] = {}
    for name in SPAN_LAYERS:
        calls, own, _ = times.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = own
    for name in COUNT_LAYERS:
        out[f"{name}.calls"] = tracer.counts.get(name, 0)
    busy = sum(times.get(n, (0, 0.0, 0.0))[2] for n in MAP_LAYERS)
    out["phasespace.grid_points_per_s"] = tracer.grid_points / busy if busy > 0 else 0.0
    return out
