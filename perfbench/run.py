"""qmkit benchmark.

    python3 perfbench/run.py --workload estimation --seed 1 --seconds 20 --trace 0

One client runs the workload's job list in a closed loop, one job at a
time on one thread, and checks every job's output against an independent
reference.  With ``--trace 0`` it repeats the whole list as often as fits
in ``--seconds`` at the seed program's speed and reports the end-to-end
metrics, with in-process latencies divided by the machine's slowdown
against a speed reference (see speed.py).  With ``--trace 1`` it runs the list twice untraced and once with
every layer wrapped (see tracing.py) and reports the per-layer metrics,
whose counts are per job list and repeat exactly.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name and unit, the run's provenance and the
failed jobs.  See NOTES.md for the metrics and the known defects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import env
import speed
from tracing import PER_LAYER, Tracer, layer_metrics
from workloads import KNOWN_DEFECTS, WORKLOADS, Check

SETUP_REPEATS = 7
IMPORT_REPEATS = 3
TAIL_BEYOND = 10
SETUP_JOB = -1

END_TO_END = {                      # name -> unit
    "jobs_per_s": "1/s",
    "job_s_p50": "s",
    "job_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
REPORTED = {"fail_frac": "ratio", "result_err": "abs"}


@dataclass
class Record:
    job: object
    latency: float
    check: object
    reference: float           # seconds of the speed reference run just before the job
    child_rss_kb: int = 0      # peak RSS of the job's own process, for cli jobs
    bytes_out: int = 0         # bytes a cli job printed and wrote


def run_pass(wl, tracer=None, perturb: bool = False) -> list[Record]:
    """Run every job of the list once, just after a speed reference; time
    the job only, then check it."""
    records = []
    for job in wl.jobs:
        reference = speed.reference_seconds()
        if tracer is not None:
            tracer.begin_job(job.id)
        t0 = time.perf_counter()
        try:
            out, error = wl.run(job, tracer), None
        except Exception as e:  # a job that raises is a failed job, not a failed run
            out, error = None, e
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_job()
        if error is not None:
            check = Check(False, detail=f"raised {type(error).__name__}: {error}")
        else:
            check = wl.check(job, wl.perturb(job, out) if perturb else out)
        records.append(Record(job, latency, check, reference, getattr(out, "maxrss_kb", 0),
                              getattr(out, "bytes_out", 0)))
    return records


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with TAIL_BEYOND samples above it.

    Returns (value, percentile, sample count); with too few samples the
    maximum is returned at percentile 100.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process start to the first job, in fresh interpreters.

    Each probe imports qmkit, builds the workload's sets and job list and
    prints the monotonic clock, which all processes of the machine share.
    """
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, str(probe), workload, str(seed)],
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(res.stdout.split()[-1]) - t0)
    return times


def measure_import() -> tuple[float, int]:
    """(median seconds, modules added) of ``import qmkit`` in fresh interpreters."""
    code = ("import sys, time; n = len(sys.modules); t = time.perf_counter(); import qmkit; "
            "print(time.perf_counter() - t, len(sys.modules) - n)")
    secs, mods = [], set()
    for _ in range(IMPORT_REPEATS):
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, check=True, cwd=env.OUT)
        s, m = res.stdout.split()
        secs.append(float(s))
        mods.add(int(m))
    if len(mods) != 1:
        raise RuntimeError(f"import qmkit added differing module counts: {sorted(mods)}")
    return statistics.median(secs), mods.pop()


def peak_rss_mb(records: list[Record]) -> float:
    """Peak RSS of this process plus the largest child job, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = max((r.child_rss_kb for r in records), default=0)
    return (own + child) / 1024.0


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    sha = None
    if (env.ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=env.ROOT,
                                 capture_output=True, text=True)
            sha = res.stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for p in sorted((env.SRC / "qmkit").rglob("*.py")):
        digest.update(p.relative_to(env.SRC).as_posix().encode() + b"\0" + p.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in env.THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def summarize(wl, records: list[Record]) -> tuple[int, int, bool, dict]:
    failed = [r for r in records if not r.check.ok]
    correct = all(r.check.known is not None for r in failed)
    checks = [r.check for r in records]
    quality = {"fail_frac": len(failed) / len(records), "result_err": wl.result_err(checks)}
    for r in failed[:20]:
        known = f" [known: {r.check.known}]" if r.check.known else ""
        print(f"# failed job {r.job.id} {r.job.key}: {r.check.detail}{known}")
    if len(failed) > 20:
        print(f"# ... {len(failed) - 20} more failed jobs")
    for name, text in KNOWN_DEFECTS.items():
        count = sum(r.check.known == name for r in failed)
        if count:
            print(f"# known defect {name} ({count} failed jobs): {text}")
    return len(records), len(failed), correct, quality


def latency_metrics(lat: list[float]) -> tuple[dict, float, int]:
    """jobs_per_s, job_s_p50 and job_s_tail of a list of latencies, with the
    tail's percentile and the number of latencies beyond it."""
    value, pct, n = tail(lat)
    metrics = {"jobs_per_s": n / sum(lat), "job_s_p50": statistics.median(lat),
               "job_s_tail": value}
    return metrics, pct, TAIL_BEYOND if n > TAIL_BEYOND else 0


def timed_run(wl, workload: str, seed: int, seconds: float) -> tuple[dict, list[Record], dict]:
    """Run the job list a fixed number of times: as many as took ``seconds``
    for the seed program.  A fixed amount of work keeps the mix of job kinds
    and the tail percentile the same on every commit.  The latency
    statistics are taken over every job run, all passes together.

    For a workload whose jobs run in this process, each latency is divided
    by the machine's slowdown at that moment, which the speed reference
    measures (see speed.py), so its latency metrics are in seconds at
    reference speed.  The reference does not follow the speed of fresh
    interpreters, so cli latencies and set-up times stay as measured.
    Returns the metrics, the records and the metrics before normalising.
    """
    setup = measure_setup(workload, seed)
    passes = max(1, round(seconds / wl.PASS_SECONDS))
    records: list[Record] = []
    for _ in range(passes):
        records += run_pass(wl)
    n = len(records)
    ref_slow = speed.slowdowns([r.reference for r in records])
    slow = ref_slow if wl.IN_PROCESS else [1.0] * n
    metrics, pct, beyond = latency_metrics([r.latency / f for r, f in zip(records, slow)])
    raw, _, _ = latency_metrics([r.latency for r in records])
    at_tail = sorted(zip(records, slow), key=lambda rf: rf[0].latency / rf[1])[n - beyond - 1][0].job
    metrics["setup_s"] = raw["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = raw["peak_rss_mb"] = peak_rss_mb(records)
    print(f"# {passes} passes of {len(wl.jobs)} jobs; tail is p{pct:.2f} of {n} latencies, "
          f"{beyond} beyond, at a {at_tail.kind} job ({at_tail.key[:60]}); set-up samples "
          f"{[round(t, 4) for t in setup]}")
    print(f"# slowdown against the speed reference: median {statistics.median(ref_slow):.3f}, "
          f"range {min(ref_slow):.3f} to {max(ref_slow):.3f}"
          f"{'' if wl.IN_PROCESS else ' (not applied: the jobs run in fresh interpreters)'}")
    return metrics, records, raw


def traced_run(wl, seed: int) -> tuple[dict, list[Record], Tracer]:
    """Two untraced passes and one traced pass.  The first pass warms caches
    and lazy imports, so the second is the untraced rate the traced pass is
    compared with.  The set-up is repeated under the tracer as job
    SETUP_JOB, so set building is seen where it runs."""
    warm = run_pass(wl)
    untraced = run_pass(wl)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_job(SETUP_JOB)
        type(wl)(seed)
        tracer.end_job()
        traced = run_pass(wl, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    import_s, import_modules = measure_import()
    rate_u = len(untraced) / sum(r.latency for r in untraced)
    rate_t = len(traced) / sum(r.latency for r in traced)
    metrics.update({
        "cli.import_s": import_s,
        "cli.import_modules": import_modules,
        "cli.bytes_out": sum(r.bytes_out for r in traced),
        "trace.jobs_per_s_untraced": rate_u,
        "trace.jobs_per_s_traced": rate_t,
        "trace.overhead": rate_u / rate_t - 1.0,
    })
    return metrics, warm + untraced + traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        env.use_checkout_sources()
    except env.MissingProgram as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    env.OUT.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed)
    raw: dict = {}
    try:
        if args.trace:
            metrics, records, tracer = traced_run(wl, args.seed)
            units = PER_LAYER
        else:
            metrics, records, raw = timed_run(wl, args.workload, args.seed, args.seconds)
            units = END_TO_END
    finally:
        close = getattr(wl, "close", None)
        if close is not None:
            close()
    attempted, failed, correct, quality = summarize(wl, records)
    if args.trace:
        metrics.update(quality)
        tracer.write_spans(env.OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    prov = provenance(args.seed)
    for name, unit in {**units, **({} if args.trace else REPORTED)}.items():
        value = metrics[name] if name in metrics else quality[name]
        before = f" ({raw[name]:.6g} before normalising)" if raw.get(name, value) != value else ""
        print(f"# {args.workload} {name} = {value:.6g} {unit}{before}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    latencies: dict[str, list[float]] = {}
    for r in records:
        latencies.setdefault(f"{r.job.id} {r.job.kind}", []).append(r.latency)
    (env.OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "quality": quality, "provenance": prov, "before_normalising": raw,
                    "latencies": latencies, "references": [r.reference for r in records]},
                   indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
