"""Acceptance suite.

Each test evaluates one acceptance criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see the lines for
passing criteria too).  Criteria are independent; each also enforces its
runtime budget.
"""

import itertools
import math
import time

import numpy as np
import pytest

from conftest import racah_clebsch_gordan, random_density, random_hermitian, random_ket
from qmkit import (
    MeasurementSet,
    MetrologyScenario,
    SamplerBackend,
    PlanarGrid,
    SphericalGrid,
    basis,
    build_mub_set,
    build_pauli_set,
    build_sic_set,
    build_stoke_set,
    cat_state,
    classical_fisher,
    encode_phase,
    fidelity,
    ghz,
    husimi_planar,
    husimi_spherical,
    identity,
    normalize,
    pauli,
    probabilities,
    quantum_fisher,
    reconstruct_linear_inversion,
    run_scenario,
    run_tomography,
    sample_cdf_discrete,
    sample_mc,
    spin,
    spin_coherent,
    tensor,
    timed_measurement,
    to_operator,
    trace_distance,
    wigner_planar,
    wigner_spherical,
    zeeman,
)
from qmkit.cli import main as cli_main

MUB_DIMS = (2, 3, 4, 5, 7)
SIC_DIMS = (2, 3, 4, 5, 6, 7, 8)


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {name}: {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _elapsed_ok(num: int, seconds: float, budget: float) -> None:
    print(f"[criterion {num:02d}] runtime {seconds:.3f}s (budget {budget}s)")
    assert seconds < budget, f"criterion {num} exceeded runtime budget"


def test_criterion_01_pauli_expectations():
    state = ghz(1)
    obs = [pauli("x"), pauli("y"), pauli("z")]
    probs = probabilities(state, obs)  # warm-up
    # the median of several calls: one stall of a shared machine (several
    # milliseconds) would otherwise exceed the budget on its own
    seconds = []
    for _ in range(15):
        t0 = time.perf_counter()
        probs = probabilities(state, obs)
        seconds.append(time.perf_counter() - t0)
    dt = float(np.median(seconds))
    ok = bool(np.max(np.abs(probs - np.array([1.0, 0.0, 0.0]))) <= 1e-12)
    _report(1, "pauli expectation reproduction", ok, f"probs={probs.tolist()}")
    _elapsed_ok(1, dt, 1e-3)


def test_criterion_02_povm_laws():
    t0 = time.perf_counter()
    problems = []
    sets = (
        [("pauli", build_pauli_set(n)) for n in (1, 2, 3)]
        + [("stoke", build_stoke_set(n)) for n in (1, 2, 3)]
        + [("mub", build_mub_set(d)) for d in MUB_DIMS]
        + [("sic", build_sic_set(d)) for d in SIC_DIMS]
    )
    for label, ms in sets:
        eye = np.eye(ms.dim)
        for g, idx in enumerate(ms.groups):
            dev = np.max(np.abs(sum(ms.elements[i].data for i in idx) - eye))
            if dev > 1e-8:
                problems.append(f"{label} d={ms.dim} group {g} dev {dev:.2e}")
    for d in MUB_DIMS:
        ms = build_mub_set(d)
        vecs = []
        for idx in ms.groups:
            basis_vecs = []
            for i in idx:
                _, vv = np.linalg.eigh(ms.elements[i].data)
                basis_vecs.append(vv[:, -1])
            vecs.append(basis_vecs)
        for (a, va), (b, vb) in itertools.combinations(enumerate(vecs), 2):
            for u, v_ in itertools.product(va, vb):
                if abs(abs(np.vdot(u, v_)) ** 2 - 1 / d) > 1e-8:
                    problems.append(f"mub d={d} bases {a},{b}")
    for d in SIC_DIMS:
        ms = build_sic_set(d)
        for a in range(len(ms)):
            for b in range(a + 1, len(ms)):
                ov = np.real(np.einsum("ij,ji->", ms.elements[a].data,
                                       ms.elements[b].data)) * d * d
                if abs(ov - 1 / (d + 1)) > 1e-6:
                    problems.append(f"sic d={d} pair {a},{b} ov {ov:.4e}")
    dt = time.perf_counter() - t0
    _report(2, "POVM completeness / MUB / SIC laws", not problems,
            "; ".join(problems[:3]))
    _elapsed_ok(2, dt, 5.0)


def test_criterion_03_backend_accuracy():
    t0 = time.perf_counter()
    xs = np.linspace(0.0, 5.0, 1000)
    exact = np.exp(-xs)
    iterations = 10_000
    mc_maes, cdf_maes = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mc = np.array([sample_mc(p, iterations, rng) for p in exact])
        mc_maes.append(np.abs(mc - exact).mean())
        rng = np.random.default_rng(seed)
        cdf = np.array([
            sample_cdf_discrete(np.array([1 - p, p]), iterations, rng)[1]
            / iterations
            for p in exact
        ])
        cdf_maes.append(np.abs(cdf - exact).mean())
    mc_mae = float(np.mean(mc_maes))
    cdf_mae = float(np.mean(cdf_maes))
    dt = time.perf_counter() - t0
    ok = mc_mae <= 0.02 and cdf_mae <= mc_mae
    _report(3, "back-end accuracy on exp(-x)", ok,
            f"mc_mae={mc_mae:.5f} cdf_mae={cdf_mae:.6f}")
    _elapsed_ok(3, dt, 30.0)


def test_criterion_04_timing_ordering():
    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    pauli3 = build_pauli_set(3)
    sic8 = build_sic_set(8)
    t_pauli = t_sic = 0.0
    from qmkit import random_haar
    for _ in range(100):
        st = random_haar(8, rng)
        t_pauli += timed_measurement(st, pauli3)[1]
        t_sic += timed_measurement(st, sic8)[1]
    dt = time.perf_counter() - t0
    ok = t_pauli / 100 > t_sic / 100
    _report(4, "pauli n=3 slower than sic d=8", ok,
            f"pauli={t_pauli / 100:.2e}s sic={t_sic / 100:.2e}s")
    _elapsed_ok(4, dt, 60.0)


def test_criterion_05_tomography():
    t0 = time.perf_counter()
    rng = np.random.default_rng(23)
    problems = []
    pauli2, sic4 = build_pauli_set(2), build_sic_set(4)
    for trial in range(50):
        rho = random_density(rng, 4)
        for ms in (pauli2, sic4):
            rec = reconstruct_linear_inversion(probabilities(rho, ms), ms)
            f = fidelity(rho, rec)
            d = trace_distance(rho, rec)
            if f < 1 - 1e-9 or d > 1e-8:
                problems.append(f"trial {trial} {ms.kind}: F={f:.12f} D={d:.2e}")
    fids = []
    for seed in range(20):
        run = run_tomography(ghz(2), pauli2, shots=10_000,
                             backend=SamplerBackend("cdf", seed))
        fids.append(run.fidelity)
    mean_fid = float(np.mean(fids))
    if mean_fid < 0.97:
        problems.append(f"sampled mean fidelity {mean_fid:.4f} < 0.97")
    dt = time.perf_counter() - t0
    _report(5, "tomography exactness and sampled fidelity", not problems,
            f"mean sampled F={mean_fid:.5f}" if not problems
            else "; ".join(problems[:3]))
    _elapsed_ok(5, dt, 120.0)


def test_criterion_06_fisher_information():
    t0 = time.perf_counter()
    rng = np.random.default_rng(29)
    problems = []
    for _ in range(100):
        d = int(rng.integers(2, 4))
        psi = random_ket(rng, d)
        h = random_hermitian(rng, d)
        v = psi.data.reshape(-1)
        var = np.real(v.conj() @ h @ h @ v) - np.real(v.conj() @ h @ v) ** 2
        q = quantum_fisher(psi, h)
        if abs(q - 4 * var) > 1e-8:
            problems.append(f"pure QFI {q:.10f} vs 4Var {4 * var:.10f}")
    # CFI <= QFI on sampled scenarios
    mub2 = build_mub_set(2)
    hq = 0.5 * pauli("z")
    for _ in range(25):
        psi = random_ket(rng, 2)
        q = quantum_fisher(psi, hq)
        phi = float(rng.uniform(0.2, 2.0))
        f = classical_fisher(lambda p: encode_phase(psi, hq, p), mub2, phi,
                             dphi=1e-4)
        if f > q + 1e-6 + 1e-4:
            problems.append(f"CFI {f:.8f} > QFI {q:.8f}")
    from functools import reduce
    from operator import add
    for n in (2, 3):
        h = reduce(add, (
            tensor(*[pauli("z") if i == k else identity(2) for i in range(n)])
            for k in range(n)
        )) * 0.5
        q = quantum_fisher(ghz(n), h)
        if abs(q - n**2) > 1e-6:
            problems.append(f"ghz({n}) QFI {q:.8f} != {n**2}")
    dt = time.perf_counter() - t0
    _report(6, "Fisher-information oracles", not problems,
            "; ".join(problems[:3]))
    _elapsed_ok(6, dt, 10.0)


def _cat_amplitudes(j: int, theta: float) -> np.ndarray:
    """Amplitudes on |j, m>, m = j..-j, of |theta> + |pi - theta> normalized,
    from the spin-coherent closed form sqrt(C(2j, j-m)) cos^(j+m)(theta/2)
    sin^(j-m)(theta/2) at azimuth 0."""
    i = np.arange(2 * j + 1)
    binom = np.sqrt([math.comb(2 * j, k) for k in i])

    def coherent(t: float) -> np.ndarray:
        return binom * np.cos(t / 2) ** (2 * j - i) * np.sin(t / 2) ** i

    v = coherent(theta) + coherent(math.pi - theta)
    return v / np.linalg.norm(v)


def test_criterion_07_metrology_sql_claim():
    # Claim: spin cat states carry a phase precision between the SQL
    # 1/sqrt(n) and the HL 1/n, and wider cats (theta further from 0) do
    # worse.  The probe cat_state(j, theta) is encoded by exp(-i phi S_z).
    #
    # The S_y readout cannot carry that claim at theta = 0: the probe is
    # |j, j> + |j, -j>, S_y only couples m to m +- 1, and the two components
    # differ by 2j = 20 in m, so <S_y>(phi) is identically 0 and the
    # error-propagation curve is undefined (NaN) everywhere.  At theta > 0 the
    # two coherent halves have exponentially small overlap, sin^{2j} theta,
    # and the S_y curve bottoms out near SQL / sin(theta) (0.49 at 0.15 pi).
    #
    # The bound every readout obeys is the quantum Cramer-Rao bound
    # QCRB = 1/sqrt(F_Q) (Braunstein & Caves, PRL 72, 3439 (1994)).  For a
    # pure probe and generator S_z, F_Q = 4 Var(S_z), independent of phi:
    # exactly 4 j^2 = n^2 at theta = 0 (QCRB = HL), otherwise close to
    # 4 (j^2 cos^2 theta + (j/2) sin^2 theta).  The oracle computes Var(S_z)
    # from the closed-form amplitudes above, not from qmkit.  The S_y curve
    # stays under test: undefined at theta = 0 and never below the QCRB
    # elsewhere (1e-2 relative allowance for its finite-difference slope).
    t0 = time.perf_counter()
    j, n = 10, 20
    sql, hl = 1 / math.sqrt(n), 1 / n
    phis = np.linspace(0.0, 0.2, 100) * math.pi
    sz = spin(j, "z")
    m = np.arange(j, -j - 1, -1)
    problems = []
    qcrb = {}
    for theta_pi in (0.0, 0.15, 0.25, 0.35):
        probe = cat_state(j, theta_pi * math.pi)
        fq = np.array([quantum_fisher(encode_phase(probe, sz, float(phi)), sz)
                       for phi in phis])
        p = _cat_amplitudes(j, theta_pi * math.pi) ** 2
        fq_ref = 4 * (p @ m**2 - (p @ m) ** 2)
        if np.max(np.abs(fq - fq_ref)) > 1e-9 * fq_ref:
            problems.append(f"theta={theta_pi}pi F_Q {fq.min():.10g} "
                            f"!= 4Var(S_z) {fq_ref:.10g}")
        with np.errstate(divide="ignore"):
            bound = 1 / np.sqrt(fq)
        qcrb[theta_pi] = bound
        curve = run_scenario(MetrologyScenario(
            probe=probe,
            generator=sz,
            phis=phis,
            observable=spin(j, "y"),
        ))
        defined = ~np.isnan(curve.delta_phi)
        if theta_pi == 0.0:
            if defined.any():
                problems.append(f"theta=0 S_y curve defined at {defined.sum()} points")
        elif not defined.any():
            problems.append(f"theta={theta_pi}pi S_y curve undefined everywhere")
        elif np.any(curve.delta_phi[defined] < bound[defined] * (1 - 1e-2)):
            ratio = np.min(curve.delta_phi[defined] / bound[defined])
            problems.append(f"theta={theta_pi}pi S_y dphi below QCRB (x{ratio:.4g})")
    dt = time.perf_counter() - t0
    for theta_pi in (0.0, 0.15):
        lo, hi = qcrb[theta_pi].min(), qcrb[theta_pi].max()
        if not (hi < sql):
            problems.append(f"theta={theta_pi}pi QCRB {hi:.4g} !< SQL {sql:.4f}")
        if not (lo >= hl - 1e-9):
            problems.append(f"theta={theta_pi}pi QCRB {lo:.4g} < HL {hl:.4f}")
    for theta_pi in (0.25, 0.35):
        if not (qcrb[theta_pi].min() > qcrb[0.0].max()):
            problems.append(
                f"theta={theta_pi}pi QCRB {qcrb[theta_pi].min():.4g} "
                f"!> theta=0 QCRB {qcrb[0.0].max():.4g}"
            )
    minima = {t: float(b.min()) for t, b in qcrb.items()}
    _report(7, "cat-state SQL-beating claim", not problems,
            "; ".join(problems) or f"QCRB={minima}")
    _elapsed_ok(7, dt, 10.0)


def _dicke_wigner_pole(j: int, m: int, south: bool) -> float:
    """Spherical Wigner value of |j, m> at a pole:
    sum_k sqrt((2k+1)/4pi) (+-1)^k (-1)^{j-m} <j m; j -m | k 0>."""
    sign = -1 if south else 1
    return sum(
        math.sqrt((2 * k + 1) / (4 * math.pi)) * sign**k * (-1) ** (j - m)
        * racah_clebsch_gordan(j, m, j, -m, k, 0)
        for k in range(2 * j + 1)
    )


def test_criterion_08_phase_space_checks():
    t0 = time.perf_counter()
    problems = []
    grid = PlanarGrid(x_range=(-2, 2), y_range=(-2, 2), nx=41, ny=41)
    vac = basis(30, 0)
    mask = (grid.xs[None, :] ** 2 + grid.ys[:, None] ** 2) <= 4.0
    q = husimi_planar(vac, grid).values
    q_ref = np.exp(-(grid.xs[None, :] ** 2 + grid.ys[:, None] ** 2)) / math.pi
    err_q = np.max(np.abs((q - q_ref)[mask]))
    if err_q > 1e-6:
        problems.append(f"vacuum husimi err {err_q:.2e}")
    w_vals = wigner_planar(vac, grid).values
    w_ref = (2 / math.pi) * np.exp(-2 * (grid.xs[None, :] ** 2
                                         + grid.ys[:, None] ** 2))
    err_w = np.max(np.abs((w_vals - w_ref)[mask]))
    if err_w > 1e-5:
        problems.append(f"vacuum wigner err {err_w:.2e}")

    theta0, phi0 = 0.8, 1.6
    sgrid = SphericalGrid(theta_range=(0.0, 1.6), phi_range=(0.0, 3.2),
                          ntheta=3, nphi=3)
    qs = husimi_spherical(to_operator(spin_coherent(9, theta0, phi0)), sgrid)
    if abs(qs.values[1, 1] - 1 / math.pi) > 1e-10:
        problems.append(f"spin husimi self-overlap {qs.values[1, 1]:.8f}")

    # Dicke |10,7> at the poles.  The Husimi map |<theta, phi|j, m>|^2 / pi
    # vanishes there, since the coherent states at the poles are |j, +-j>.
    # The Wigner map does not: W = sum_kq rho_kq Y_kq (Agarwal, PRA 24, 2889
    # (1981)), and at a pole only Y_k0 survives, with
    # Y_k0(0) = sqrt((2k+1)/4pi) and Y_k0(pi) = (-1)^k Y_k0(0).  For |j, m>,
    # rho_k0 = (-1)^{j-m} <j m; j -m | k 0>, so each pole row is constant in
    # phi and equals sum_k sqrt((2k+1)/4pi) (+-1)^k (-1)^{j-m} <j m; j -m | k 0>
    # (-2.1073 north, -5.77e-4 south).  The reference sums Racah-formula
    # Clebsch-Gordan coefficients of its own.
    j, m = 10, 7
    dicke_state = zeeman(j, m)
    dgrid = SphericalGrid(ntheta=41, nphi=9)
    husimi = husimi_spherical(dicke_state, dgrid).values
    pole_max = max(np.max(np.abs(husimi[0, :])), np.max(np.abs(husimi[-1, :])))
    if pole_max > 1e-12:
        problems.append(f"dicke husimi poles {pole_max:.2e}")
    wigner = wigner_spherical(dicke_state, dgrid).values
    for row, label, south in ((0, "north", False), (-1, "south", True)):
        vals = wigner[row, :]
        ref = _dicke_wigner_pole(j, m, south)
        if np.ptp(vals) > 1e-12:
            problems.append(f"dicke wigner {label} pole varies by {np.ptp(vals):.2e}")
        if np.max(np.abs(vals - ref)) > 1e-9:
            problems.append(f"dicke wigner {label} pole {vals[0]:.12g} != {ref:.12g}")
    for label, vals in (("husimi", husimi), ("wigner", wigner)):
        imax = np.unravel_index(np.argmax(vals), vals.shape)[0]
        if not 0 < imax < dgrid.ntheta - 1:
            problems.append(f"dicke {label} max at boundary row {imax}")
    dt = time.perf_counter() - t0
    _report(8, "phase-space analytic checks", not problems,
            "; ".join(problems))
    _elapsed_ok(8, dt, 30.0)


def test_criterion_09_metric_laws():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    problems = []
    for trial in range(50):
        d = int(rng.integers(2, 7))
        rho, sigma, tau = (random_density(rng, d) for _ in range(3))
        f = fidelity(rho, sigma)
        dist = trace_distance(rho, sigma)
        if not (1 - f <= dist + 1e-8):
            problems.append(f"trial {trial}: 1-F > D")
        if not (dist <= math.sqrt(max(0.0, 1 - f * f)) + 1e-8):
            problems.append(f"trial {trial}: D > sqrt(1-F^2)")
        if dist < -1e-15:
            problems.append(f"trial {trial}: negative distance")
        if abs(dist - trace_distance(sigma, rho)) > 1e-10:
            problems.append(f"trial {trial}: asymmetric distance")
        if dist > trace_distance(rho, tau) + trace_distance(tau, sigma) + 1e-8:
            problems.append(f"trial {trial}: triangle violated")
    dt = time.perf_counter() - t0
    _report(9, "metric-law suite", not problems, "; ".join(problems[:3]))
    _elapsed_ok(9, dt, 5.0)


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    cases = [
        ["state", "--name", "ghz", "--n", "3", "--seed", "5"],
        ["state", "--name", "random", "--d", "6", "--seed", "5"],
        ["measure", "--name", "ghz", "--n", "2", "--set", "pauli",
         "--backend", "cdf", "--shots", "400", "--seed", "5"],
        ["measure", "--name", "random", "--d", "4", "--set", "sic",
         "--backend", "mc", "--shots", "300", "--seed", "8"],
        ["backend-compare", "--samples", "40", "--iterations", "200",
         "--seed", "3", "--no-timing"],
        ["phasespace", "--name", "zeeman", "--j", "3", "--m", "1",
         "--map", "wigner", "--coords", "spherical", "--ntheta", "7",
         "--nphi", "7", "--seed", "1"],
        ["tomography", "--name", "ghz", "--n", "1", "--set", "mub",
         "--shots", "250", "--backend", "cdf", "--repeats", "3", "--seed", "2"],
    ]
    problems = []
    for i, args in enumerate(cases):
        a = tmp_path / f"a{i}.out"
        b = tmp_path / f"b{i}.out"
        assert cli_main(args + ["--out", str(a)]) == 0
        assert cli_main(args + ["--out", str(b)]) == 0
        if a.read_bytes() != b.read_bytes():
            problems.append(f"case {i} ({args[0]}) not byte-identical")
    for run_dir in ("m1", "m2"):
        assert cli_main(["metrology", "--j", "2", "--points", "10",
                         "--out-dir", str(tmp_path / run_dir)]) == 0
    for f1 in sorted((tmp_path / "m1").glob("*.csv")):
        if f1.read_bytes() != (tmp_path / "m2" / f1.name).read_bytes():
            problems.append(f"metrology {f1.name} not byte-identical")
    dt = time.perf_counter() - t0
    _report(10, "CLI determinism", not problems, "; ".join(problems[:3]))
    _elapsed_ok(10, dt, 60.0)
