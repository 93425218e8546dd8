"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics the code reports,
that a deliberately perturbed result is counted as failed by the check
meant to catch it, that a sampler with three times the shot noise fails
the shot-noise bound, that the seed
alone fixes the job list, and that two traced runs with one seed give
identical call counts, import module counts and CLI output bytes.  The
traced runs make this take a few minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import env

env.use_checkout_sources()
import run  # noqa: E402  (needs the checkout's sources on the path)
from tracing import PER_LAYER  # noqa: E402
from workloads import SHOTS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent


def test_benchmark_json_matches_code():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["paths"] == [HERE.name]


def _case(job) -> tuple:
    """The check a job's output goes through: tomography by data kind,
    Fisher information by whether the set has one outcome group or several."""
    a = job.args
    if job.kind == "tomography":
        return job.kind, a["backend"]
    if job.kind == "fisher":
        return job.kind, a["set"].rstrip("0123456789")
    return (job.kind,)


def _cheap_jobs(wl) -> list:
    """One job per check case, preferring the smaller spin."""
    chosen = {}
    for job in sorted(wl.jobs, key=lambda j: j.args.get("j", 0)):
        chosen.setdefault(_case(job), job)
    return sorted(chosen.values(), key=lambda j: j.id)


# the check that a perturbed tomography result must trip, by data kind
TOMOGRAPHY_CHECK = {"exact": "exact-data fidelity", "cdf": "shot-noise bound",
                    "mc": "shot-noise bound"}


def test_perturbed_results_fail():
    for name, cls in WORKLOADS.items():
        wl = cls(1)
        wl.jobs = _cheap_jobs(wl)
        try:
            honest = run.run_pass(wl)
            perturbed = run.run_pass(wl, perturb=True)
        finally:
            getattr(wl, "close", lambda: None)()
        for h, p in zip(honest, perturbed):
            assert h.check.ok or h.check.known, (name, h.job.key, h.check.detail)
            assert not p.check.ok and p.check.known is None, (name, p.job.key, p.check)
            if p.job.kind == "tomography":
                want = TOMOGRAPHY_CHECK[p.job.args["backend"]]
                assert want in p.check.detail, (name, p.job.key, want, p.check.detail)
        attempted, failed, correct, _ = run.summarize(wl, perturbed)
        assert failed == attempted and not correct, (name, attempted, failed, correct)


def test_shot_noise_bound_is_tight():
    """A sampler with a tenth of the shots, so about three times the shot
    noise, fails the bound; the same jobs at full shots pass it."""
    wl = WORKLOADS["estimation"](1)
    q = wl.q
    jobs = [j for j in wl.jobs if j.kind == "tomography" and j.args["backend"] != "exact"
            and j.args["set"] in ("mub7", "sic8")]
    assert {(j.args["set"], j.args["backend"]) for j in jobs} == {
        (s, b) for s in ("mub7", "sic8") for b in ("cdf", "mc")}
    for job in jobs:
        a = job.args
        for shots, ok in ((SHOTS, True), (SHOTS // 10, False)):
            backend = q.SamplerBackend(a["backend"], seed=a["sampler_seed"])
            out = q.run_tomography(a["rho"], wl.sets[a["set"]], shots, backend)
            check = wl.check(job, out)
            assert check.ok == ok, (job.key, shots, check.detail)
            if not ok:
                assert "shot-noise bound" in check.detail, (job.key, check.detail)


def test_seed_fixes_job_list():
    for name, cls in WORKLOADS.items():
        a, b, c = ([j.key for j in cls(seed).jobs] for seed in (7, 7, 8))
        assert a == b, f"{name}: seed 7 gave two job lists"
        assert a != c, f"{name}: seeds 7 and 8 gave the same job list"


def _traced(workload: str, seed: int) -> dict:
    res = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, timeout=600, check=True)
    metrics = json.loads(res.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith(".calls") or k in ("cli.import_modules", "cli.bytes_out")}


def test_traced_counts_repeat():
    for name in WORKLOADS:
        first, second = _traced(name, 3), _traced(name, 3)
        assert first == second, f"{name}: {set(first.items()) ^ set(second.items())}"


def main() -> int:
    tests = [test_benchmark_json_matches_code, test_seed_fixes_job_list,
             test_perturbed_results_fail, test_shot_noise_bound_is_tight,
             test_traced_counts_repeat]
    failures = 0
    for test in tests:
        try:
            test()
        except AssertionError as e:
            failures += 1
            print(f"FAIL {test.__name__}: {e}")
        else:
            print(f"ok   {test.__name__}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
