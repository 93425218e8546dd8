"""Command-line front end.

Every subcommand is seedable (``--seed``, default 0) and writes CSV or JSON
to ``--out`` (stdout when omitted).  Identical flags and seed reproduce
output files byte for byte; the two wall-clock benchmark commands are the
inherent exception, since their payload is measured time.

    qmkit state       --name ghz --n 3
    qmkit measure     --name ghz --n 1 --set xyz --backend exact
    qmkit bench-povm  --repeats 100
    qmkit backend-compare --samples 1000 --iterations 1000
    qmkit phasespace  --name zeeman --j 10 --m 7 --map husimi --coords spherical
    qmkit tomography  --name ghz --n 2 --set pauli --shots 10000 --backend cdf
    qmkit metrology   --j 10 --out-dir results/
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import metrology, phasespace, states, tomography
from .errors import QmkitError, UnsupportedDimension
from .measurement import (
    MeasurementSet,
    SamplerBackend,
    build_mub_set,
    build_pauli_set,
    build_sic_set,
    build_stoke_set,
    measure_and_sample,
    probabilities,
    sample_cdf_discrete,
    sample_mc,
    timed_measurement,
)
from .operators import pauli, spin
from .qcore import Kind, QuantumObject, _csv_row
from .qcore import _write_lines as _emit   # perfbench/tracing.py wraps cli._emit by name

DEFAULT_SEED = 0


class _UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _emit_json(payload, out: str | None) -> None:
    _emit([json.dumps(payload, indent=2)], out)


# ---------------------------------------------------------------------------
# state specification shared by several subcommands
# ---------------------------------------------------------------------------

STATE_NAMES = ("basis", "zeeman", "coherent", "squeezed", "position",
               "spin-coherent", "random", "ghz", "w", "dicke")


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--name", required=True, choices=STATE_NAMES,
                   help="which state to construct")
    p.add_argument("--d", type=int, help="Hilbert-space dimension / cutoff")
    p.add_argument("--k", type=int, help="basis index or excitation count")
    p.add_argument("--n", type=int, help="number of qubits")
    p.add_argument("--j", type=float, help="spin quantum number")
    p.add_argument("--m", type=float, help="magnetic quantum number")
    p.add_argument("--x", type=float, help="position eigenvalue")
    p.add_argument("--alpha", type=complex, help="coherent amplitude, e.g. '1+0.5j'")
    p.add_argument("--beta", type=complex, help="squeezing parameter")
    p.add_argument("--theta", type=float, help="polar angle (radians)")
    p.add_argument("--phi", type=float, help="azimuthal angle (radians)")
    p.add_argument("--white-noise", type=float, default=None, metavar="P",
                   help="mix with I/d at weight P (output becomes a density matrix)")
    p.add_argument("--noise-mean", type=float, default=None,
                   help="mean of the complex amplitude noise")
    p.add_argument("--noise-std", type=float, default=None,
                   help="stdev of the complex amplitude noise")


def _need(args, flag: str):
    v = getattr(args, flag.lstrip("-").replace("-", "_"))
    if v is None:
        raise _UsageError(f"state '{args.name}' requires {flag}")
    return v


def _build_state(args, rng) -> QuantumObject:
    name = args.name
    if name == "basis":
        st = states.basis(_need(args, "--d"), _need(args, "--k"))
    elif name == "zeeman":
        st = states.zeeman(_need(args, "--j"), _need(args, "--m"))
    elif name == "coherent":
        st = states.coherent(_need(args, "--d"), _need(args, "--alpha"))
    elif name == "squeezed":
        st = states.squeezed(_need(args, "--d"), _need(args, "--alpha"),
                             _need(args, "--beta"))
    elif name == "position":
        st = states.position_state(_need(args, "--d"), _need(args, "--x"))
    elif name == "spin-coherent":
        st = states.spin_coherent(_need(args, "--j"), _need(args, "--theta"),
                                  args.phi if args.phi is not None else 0.0)
    elif name == "random":
        st = states.random_haar(_need(args, "--d"), rng)
    elif name == "ghz":
        st = states.ghz(_need(args, "--n"))
    elif name == "w":
        st = states.w(_need(args, "--n"))
    else:  # dicke
        st = states.dicke(_need(args, "--n"), _need(args, "--k"))
    if args.noise_mean is not None or args.noise_std is not None:
        st = states.add_random_noise(st, args.noise_mean or 0.0,
                                     args.noise_std or 0.0, rng)
    if args.white_noise is not None:
        st = states.add_white_noise(st, args.white_noise)
    return st


def _build_set(name: str, dim: int) -> MeasurementSet:
    if name == "xyz":
        return MeasurementSet(kind="custom",
                              elements=(pauli("x"), pauli("y"), pauli("z")))
    if name in ("pauli", "stoke"):
        n = dim.bit_length() - 1
        if 2**n != dim:
            raise UnsupportedDimension(
                f"{name} set needs a 2^n-dimensional state, got d={dim}"
            )
        return build_pauli_set(n) if name == "pauli" else build_stoke_set(n)
    if name == "mub":
        return build_mub_set(dim)
    if name == "sic":
        return build_sic_set(dim)
    raise _UsageError(f"unknown measurement set {name!r}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_state(args) -> int:
    rng = np.random.default_rng(args.seed)
    st = _build_state(args, rng)
    if args.format == "json":
        if st.kind is Kind.OPER:
            payload = {
                "state": args.name, "kind": "oper", "dimension": st.shape[0],
                "matrix": [[[z.real, z.imag] for z in row] for row in st.data],
            }
        else:
            payload = {
                "state": args.name, "kind": st.kind.value, "dimension": st.dim,
                "amplitudes": [[z.real, z.imag] for z in st.data.reshape(-1)],
            }
        _emit_json(payload, args.out)
        return 0
    lines = [f"# state={args.name} kind={st.kind.value} dimension={st.dim}"]
    if st.kind is Kind.OPER:
        lines[0] += " columns=row,col,re,im"
        for i in range(st.shape[0]):
            for j in range(st.shape[1]):
                z = st.data[i, j]
                lines.append(f"{i},{j},{_fmt(z.real)},{_fmt(z.imag)}")
    else:
        lines[0] += " columns=re,im"
        for z in st.data.reshape(-1):
            lines.append(f"{_fmt(z.real)},{_fmt(z.imag)}")
    _emit(lines, args.out)
    return 0


def cmd_measure(args) -> int:
    rng = np.random.default_rng(args.seed)
    st = _build_state(args, rng)
    mset = _build_set(args.set, st.dim)
    probs = probabilities(st, mset)
    freqs = None
    if args.backend != "exact":
        backend = SamplerBackend(method=args.backend, seed=args.seed,
                                 iterations=args.shots)
        freqs = measure_and_sample(st, mset, backend, args.shots)
    cols = {"element_index": range(len(mset)),
            "group": [None if g < 0 else g for g in mset.group_of.tolist()],
            "probability": probs}
    if freqs is not None:
        cols["frequency"] = freqs
    rows = [dict(zip(cols, row)) for row in zip(*cols.values())]
    if args.format == "json":
        _emit_json({"set": mset.kind, "dimension": mset.dim,
                    "backend": args.backend, "seed": args.seed,
                    "shots": args.shots if args.backend != "exact" else None,
                    "outcomes": rows}, args.out)
        return 0
    lines = [
        f"# set={mset.kind} dimension={mset.dim} backend={args.backend} seed={args.seed}",
        "# " + ",".join(cols),
    ]
    lines += [_csv_row(row.values()) for row in rows]
    _emit(lines, args.out)
    return 0


BENCH_PAULI_QUBITS = (1, 2, 3)
BENCH_MUB_DIMS = (2, 3, 4, 5, 7)
BENCH_SIC_DIMS = (2, 3, 4, 5, 6, 7, 8)


def cmd_bench_povm(args) -> int:
    rng = np.random.default_rng(args.seed)
    jobs = []
    for n in BENCH_PAULI_QUBITS:
        jobs.append(("pauli", 2**n, build_pauli_set(n)))
        jobs.append(("stoke", 2**n, build_stoke_set(n)))
    for d in BENCH_MUB_DIMS:
        jobs.append(("mub", d, build_mub_set(d)))
    for d in BENCH_SIC_DIMS:
        jobs.append(("sic", d, build_sic_set(d)))
    rows = []
    for kind, d, mset in jobs:
        total = 0.0
        for _ in range(args.repeats):
            st = states.random_haar(d, rng)
            _, dt = timed_measurement(st, mset)
            total += dt
        rows.append((kind, d, total / args.repeats))
    if args.format == "json":
        _emit_json({"repeats": args.repeats,
                    "rows": [{"set": k, "dimension": d, "mean_seconds": t}
                             for k, d, t in rows]}, args.out)
        return 0
    lines = [f"# repeats={args.repeats}", "# set,dimension,mean_seconds"]
    lines += [f"{k},{d},{_fmt(t)}" for k, d, t in rows]
    _emit(lines, args.out)
    return 0


def cmd_backend_compare(args) -> int:
    xs = np.linspace(0.0, 5.0, args.samples)
    exact = np.exp(-xs)
    rng = np.random.default_rng(args.seed)
    mc_est = np.array([sample_mc(p, args.iterations, rng) for p in exact])
    cdf_est = np.array([
        sample_cdf_discrete(np.array([1.0 - p, p]), args.iterations, rng)[1]
        / args.iterations
        for p in exact
    ])
    mc_mae = float(np.mean(np.abs(mc_est - exact)))
    cdf_mae = float(np.mean(np.abs(cdf_est - exact)))
    if args.format == "json":
        payload = {
            "samples": args.samples, "iterations": args.iterations,
            "seed": args.seed, "mc_mae": mc_mae, "cdf_mae": cdf_mae,
            "rows": [{"x": float(x), "exact": float(e), "mc": float(m), "cdf": float(c)}
                     for x, e, m, c in zip(xs, exact, mc_est, cdf_est)],
        }
        _emit_json(payload, args.out)
    else:
        lines = [
            f"# samples={args.samples} iterations={args.iterations} seed={args.seed}",
            f"# mc_mae={_fmt(mc_mae)} cdf_mae={_fmt(cdf_mae)}",
            "# x,exact,mc,cdf",
        ]
        for x, e, m, c in zip(xs, exact, mc_est, cdf_est):
            lines.append(f"{_fmt(x)},{_fmt(e)},{_fmt(m)},{_fmt(c)}")
        _emit(lines, args.out)
    if args.no_timing:
        return 0
    t_lines = ["# iterations,mc_seconds,cdf_seconds"]
    for ite in range(1000, 11000, 1000):
        t0 = time.perf_counter()
        for p in exact:
            sample_mc(p, ite, rng)
        t1 = time.perf_counter()
        for p in exact:
            sample_cdf_discrete(np.array([1.0 - p, p]), ite, rng)
        t2 = time.perf_counter()
        t_lines.append(f"{ite},{_fmt(t1 - t0)},{_fmt(t2 - t1)}")
    timing_out = args.timing_out
    if timing_out is None and args.out is not None:
        p = Path(args.out)
        timing_out = str(p.with_name(p.stem + "_timing" + (p.suffix or ".csv")))
    _emit(t_lines, timing_out)
    return 0


def cmd_phasespace(args) -> int:
    rng = np.random.default_rng(args.seed)
    st = _build_state(args, rng)
    if args.coords == "planar":
        grid = phasespace.PlanarGrid(
            x_range=(args.xmin, args.xmax), y_range=(args.ymin, args.ymax),
            nx=args.nx, ny=args.ny,
        )
        fn = phasespace.husimi_planar if args.map == "husimi" else phasespace.wigner_planar
    else:
        grid = phasespace.SphericalGrid(
            theta_range=(args.theta_min, args.theta_max),
            phi_range=(args.phi_min, args.phi_max),
            ntheta=args.ntheta, nphi=args.nphi,
        )
        fn = (phasespace.husimi_spherical if args.map == "husimi"
              else phasespace.wigner_spherical)
    result = fn(st, grid)
    if args.format == "json":
        _emit_json({
            "kind": result.kind, "coords": result.coords,
            "axis1": [float(v) for v in result.axis1],
            "axis2": [float(v) for v in result.axis2],
            "values": [[float(v) for v in row] for row in result.values],
        }, args.out)
        return 0
    _emit(phasespace.grid_lines(result), args.out)
    return 0


def cmd_tomography(args) -> int:
    rng = np.random.default_rng(args.seed)
    st = _build_state(args, rng)
    mset = _build_set(args.set, st.dim)
    if args.shots == "exact":
        shots = None
    else:
        try:
            shots = int(args.shots)
        except ValueError:
            raise _UsageError(f"--shots must be an integer or 'exact', got {args.shots!r}")
        if shots < 1:
            raise _UsageError(f"--shots must be >= 1, got {shots}")
    runs = []
    for i in range(args.repeats):
        backend = SamplerBackend(method=args.backend, seed=args.seed + i)
        runs.append(tomography.run_tomography(st, mset, shots, backend))
    write = tomography.write_reports_json if args.format == "json" else tomography.write_reports_csv
    write(runs, args.out)
    return 0


def cmd_metrology(args) -> int:
    try:
        thetas = [float(t) for t in args.thetas_pi.split(",")]
    except ValueError:
        raise _UsageError(f"--thetas-pi must be a comma list of numbers, got {args.thetas_pi!r}")
    j = args.j
    sy = spin(j, "y")
    sz = spin(j, "z")
    phis = np.linspace(0.0, args.t_max, args.points) * math.pi
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for t in thetas:
        probe = metrology.cat_state(j, t * math.pi)
        scenario = metrology.MetrologyScenario(
            probe=probe, generator=sz, phis=phis, observable=sy)
        curve = metrology.run_scenario(scenario)
        path = out_dir / f"cat_theta_{t:g}pi.csv"
        metrology.write_curve_csv(curve, path)
        written.append(str(path))
    _emit(written)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmkit",
        description="simulate quantum measurement, tomography and metrology",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("state", help="construct a state and dump its amplitudes")
    common(p)
    _add_state_args(p)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("measure", help="measure a state with a built-in set")
    common(p)
    _add_state_args(p)
    p.add_argument("--set", required=True,
                   choices=("pauli", "stoke", "mub", "sic", "xyz"))
    p.add_argument("--backend", choices=("exact", "mc", "cdf"), default="exact")
    p.add_argument("--shots", type=int, default=1000)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("bench-povm", help="mean measurement time per set and dimension")
    common(p)
    p.add_argument("--repeats", type=int, default=100)
    p.set_defaults(func=cmd_bench_povm)

    p = sub.add_parser("backend-compare",
                       help="mc and cdf back-ends against f(x) = exp(-x)")
    common(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--timing-out", default=None,
                   help="path of the duration-vs-iterations table")
    p.add_argument("--no-timing", action="store_true",
                   help="skip the wall-clock table (fully deterministic output)")
    p.set_defaults(func=cmd_backend_compare)

    p = sub.add_parser("phasespace", help="evaluate a Husimi or Wigner map")
    common(p)
    _add_state_args(p)
    p.add_argument("--map", required=True, choices=("husimi", "wigner"))
    p.add_argument("--coords", required=True, choices=("planar", "spherical"))
    p.add_argument("--xmin", type=float, default=-3.0)
    p.add_argument("--xmax", type=float, default=3.0)
    p.add_argument("--ymin", type=float, default=-3.0)
    p.add_argument("--ymax", type=float, default=3.0)
    p.add_argument("--nx", type=int, default=61)
    p.add_argument("--ny", type=int, default=61)
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=math.pi)
    p.add_argument("--phi-min", type=float, default=0.0)
    p.add_argument("--phi-max", type=float, default=2 * math.pi)
    p.add_argument("--ntheta", type=int, default=61)
    p.add_argument("--nphi", type=int, default=61)
    p.set_defaults(func=cmd_phasespace)

    p = sub.add_parser("tomography", help="simulate, reconstruct and score")
    common(p)
    _add_state_args(p)
    p.add_argument("--set", required=True, choices=("pauli", "stoke", "mub", "sic"))
    p.add_argument("--shots", default="exact",
                   help="shot count per group, or 'exact'")
    p.add_argument("--backend", choices=("mc", "cdf"), default="cdf")
    p.add_argument("--repeats", type=int, default=1,
                   help="number of runs (seeds seed, seed+1, ...)")
    p.set_defaults(func=cmd_tomography)

    p = sub.add_parser("metrology", help="cat-state precision curves")
    common(p)
    p.add_argument("--j", type=float, default=10.0)
    p.add_argument("--thetas-pi", default="0,0.15,0.25,0.35",
                   help="comma list of cat angles in units of pi")
    p.add_argument("--t-max", type=float, default=0.2,
                   help="phase grid upper end in units of pi")
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_metrology)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except UnsupportedDimension as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except QmkitError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 4


def entry_point() -> None:  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
