"""Command-line front end.

Every subcommand but ``metrology`` is seedable (``--seed``, default 0) and
writes CSV or JSON to ``--out`` (stdout when omitted); ``metrology`` draws
nothing and writes one CSV file per cat angle into ``--out-dir``.  Identical
flags and seed reproduce output files byte for byte; the two wall-clock
benchmark commands are the inherent exception, since their payload is
measured time.

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

# measurement, tomography, phasespace and metrology are imported by the commands that
# call them, so that each command compiles only its own modules
from . import qcore, states
from .errors import InvalidParameter, QmkitError, UnsupportedDimension
from .operators import pauli, spin
from .qcore import Kind, QuantumObject, _rng
from .qcore import _write_lines as _emit   # perfbench/tracing.py wraps cli._emit by name

DEFAULT_SEED = 0


def _write_json(payload, path=None) -> None:
    """Write ``payload`` as JSON indented by two spaces, through ``_emit``."""
    _emit([json.dumps(payload, indent=2)], path)


def _csv_row(values) -> str:
    """One CSV line: floats at 17 significant digits, None as an empty cell."""
    return ",".join("" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
                    for v in values)


class _UsageError(Exception):
    pass


def _count(text: str, least: int = 1) -> int:
    """argparse type of an integer flag: the library's count rule on ``text``."""
    try:
        return qcore._count(int(text), "flag", least)
    except (ValueError, InvalidParameter):
        raise argparse.ArgumentTypeError(f"must be an integer >= {least}, got {text!r}") from None


# ---------------------------------------------------------------------------
# state specification shared by several subcommands
# ---------------------------------------------------------------------------

# state name -> (library factory, the flags it takes in order); "rng" stands
# for the seeded generator
STATES = {
    "basis": (states.basis, ("--d", "--k")),
    "zeeman": (states.zeeman, ("--j", "--m")),
    "coherent": (states.coherent, ("--d", "--alpha")),
    "squeezed": (states.squeezed, ("--d", "--alpha", "--beta")),
    "position": (states.position_state, ("--d", "--x")),
    "spin-coherent": (states.spin_coherent, ("--j", "--theta", "--phi")),
    "random": (states.random_haar, ("--d", "rng")),
    "ghz": (states.ghz, ("--n",)),
    "w": (states.w, ("--n",)),
    "dicke": (states.dicke, ("--n", "--k")),
}


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--name", required=True, choices=tuple(STATES),
                   help="which state to construct")
    p.add_argument("--d", type=int, help="Hilbert-space dimension / cutoff")
    p.add_argument("--k", type=int, help="basis index or excitation count")
    p.add_argument("--n", type=int, help="number of qubits")
    p.add_argument("--j", type=float, help="spin quantum number")
    p.add_argument("--m", type=float, help="magnetic quantum number")
    p.add_argument("--x", type=float, help="position eigenvalue")
    p.add_argument("--alpha", type=complex,
                   help="coherent amplitude, e.g. '1+0.5j'; write a negative one as --alpha=-2j")
    p.add_argument("--beta", type=complex,
                   help="squeezing parameter; write a negative one as --beta=-0.5+0.3j")
    p.add_argument("--theta", type=float, help="polar angle (radians)")
    p.add_argument("--phi", type=float, default=0.0, help="azimuthal angle (radians)")
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


def _build_state(args) -> QuantumObject:
    """The state the flags name.  One generator seeded by ``--seed`` serves both
    a random state and the amplitude noise; it is made only when one of them draws."""
    factory, flags = STATES[args.name]
    noisy = args.noise_mean is not None or args.noise_std is not None
    rng = _rng(args.seed) if noisy or "rng" in flags else None
    st = factory(*(rng if f == "rng" else _need(args, f) for f in flags))
    if noisy:
        st = states.add_random_noise(st, args.noise_mean or 0.0,
                                     args.noise_std or 0.0, rng)
    if args.white_noise is not None:
        st = states.add_white_noise(st, args.white_noise)
    return st


def _qubits(name: str, dim: int) -> int:
    n = dim.bit_length() - 1
    if 2**n != dim:
        raise UnsupportedDimension(f"{name} set needs a 2^n-dimensional state, got d={dim}")
    return n


SETS = ("pauli", "stoke", "mub", "sic", "xyz")


def _named_set(name: str, dim: int):
    """The built-in set ``name`` for a ``dim``-dimensional state."""
    from . import measurement
    if name == "xyz":
        if dim != 2:
            raise UnsupportedDimension(f"xyz set needs a qubit (d=2), got d={dim}")
        return measurement.MeasurementSet(kind="custom",
                                          elements=(pauli("x"), pauli("y"), pauli("z")))
    if name in ("pauli", "stoke"):
        dim = _qubits(name, dim)
    return getattr(measurement, f"build_{name}_set")(dim)     # e.g. build_mub_set


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_state(args) -> int:
    st = _build_state(args)
    if args.format == "json":
        payload = {"state": args.name, "kind": st.kind.value, "dimension": st.dim}
        if st.kind is Kind.OPER:
            payload["matrix"] = [[[z.real, z.imag] for z in row] for row in st.data]
        else:
            payload["amplitudes"] = [[z.real, z.imag] for z in st.data.reshape(-1)]
        _write_json(payload, args.out)
        return 0
    lines = [f"# state={args.name} kind={st.kind.value} dimension={st.dim}"]
    if st.kind is Kind.OPER:
        lines[0] += " columns=row,col,re,im"
        lines += [_csv_row((i, j, z.real, z.imag)) for (i, j), z in np.ndenumerate(st.data)]
    else:
        lines[0] += " columns=re,im"
        lines += [_csv_row((z.real, z.imag)) for z in st.data.reshape(-1)]
    _emit(lines, args.out)
    return 0


def cmd_measure(args) -> int:
    from .measurement import SamplerBackend, measure_and_sample, probabilities
    st = _build_state(args)
    mset = _named_set(args.set, st.dim)
    cols = {"element_index": range(len(mset)),
            "group": [None if g < 0 else g for g in mset.group_of.tolist()],
            "probability": probabilities(st, mset)}
    if args.backend != "exact":
        backend = SamplerBackend(method=args.backend, seed=args.seed, iterations=args.shots)
        cols["frequency"] = measure_and_sample(st, mset, backend)
    rows = [dict(zip(cols, row)) for row in zip(*cols.values())]
    if args.format == "json":
        _write_json({"set": mset.kind, "dimension": mset.dim,
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


BENCH_SETS = (("pauli", 2), ("stoke", 2), ("pauli", 4), ("stoke", 4), ("pauli", 8),
              ("stoke", 8), *(("mub", d) for d in (2, 3, 4, 5, 7)),
              *(("sic", d) for d in range(2, 9)))


def cmd_bench_povm(args) -> int:
    from .measurement import timed_measurement
    rng = _rng(args.seed)
    jobs = [(kind, d, _named_set(kind, d)) for kind, d in BENCH_SETS]
    rows = [(kind, d, sum(timed_measurement(states.random_haar(d, rng), mset)[1]
                          for _ in range(args.repeats)) / args.repeats)
            for kind, d, mset in jobs]
    if args.format == "json":
        _write_json({"repeats": args.repeats,
                     "rows": [{"set": k, "dimension": d, "mean_seconds": t}
                              for k, d, t in rows]}, args.out)
        return 0
    lines = [f"# repeats={args.repeats}", "# set,dimension,mean_seconds"]
    lines += [_csv_row(row) for row in rows]
    _emit(lines, args.out)
    return 0


def cmd_backend_compare(args) -> int:
    from .measurement import _independent_frequencies
    qcore._fits(args.samples, 1, f"a grid of {args.samples} samples")
    n = qcore._draws(args.iterations, "iterations")
    xs = np.linspace(0.0, 5.0, args.samples)
    exact = np.exp(-xs)
    rng = _rng(args.seed)      # both columns by measure_and_sample's per-element rule, mc first
    mc_est, cdf_est = (_independent_frequencies(m, exact, n, rng)
                       for m in ("mc", "cdf"))
    mc_mae, cdf_mae = (float(np.mean(np.abs(est - exact))) for est in (mc_est, cdf_est))
    if args.format == "json":
        _write_json({
            "samples": args.samples, "iterations": args.iterations,
            "seed": args.seed, "mc_mae": mc_mae, "cdf_mae": cdf_mae,
            "rows": [{"x": float(x), "exact": float(e), "mc": float(m), "cdf": float(c)}
                     for x, e, m, c in zip(xs, exact, mc_est, cdf_est)],
        }, args.out)
    else:
        lines = [
            f"# samples={args.samples} iterations={args.iterations} seed={args.seed}",
            f"# mc_mae={mc_mae:.17g} cdf_mae={cdf_mae:.17g}",
            "# x,exact,mc,cdf",
        ]
        lines += [_csv_row(row) for row in zip(xs, exact, mc_est, cdf_est)]
        _emit(lines, args.out)
    if args.no_timing:
        return 0
    t_lines = ["# iterations,mc_seconds,cdf_seconds"]
    for ite in range(1000, 11000, 1000):
        seconds = []
        for method in ("mc", "cdf"):
            t0 = time.perf_counter()
            _independent_frequencies(method, exact, ite, rng)
            seconds.append(time.perf_counter() - t0)
        t_lines.append(_csv_row((ite, *seconds)))
    timing_out = args.timing_out
    if timing_out is None and args.out is not None:
        p = Path(args.out)
        timing_out = str(p.with_name(p.stem + "_timing" + (p.suffix or ".csv")))
    _emit(t_lines, timing_out)
    return 0


def cmd_phasespace(args) -> int:
    from . import phasespace
    st = _build_state(args)
    if args.coords == "planar":
        grid = phasespace.PlanarGrid(
            x_range=(args.xmin, args.xmax), y_range=(args.ymin, args.ymax),
            nx=args.nx, ny=args.ny,
        )
    else:
        grid = phasespace.SphericalGrid(
            theta_range=(args.theta_min, args.theta_max),
            phi_range=(args.phi_min, args.phi_max),
            ntheta=args.ntheta, nphi=args.nphi,
        )
    result = getattr(phasespace, f"{args.map}_{args.coords}")(st, grid)   # e.g. husimi_planar
    if args.format == "json":
        _write_json({
            "kind": result.kind, "coords": result.coords,
            "axis1": [float(v) for v in result.axis1],
            "axis2": [float(v) for v in result.axis2],
            "values": [[float(v) for v in row] for row in result.values],
        }, args.out)
        return 0
    _emit(phasespace.grid_lines(result), args.out)
    return 0


def cmd_tomography(args) -> int:
    from . import tomography
    from .measurement import SamplerBackend
    st = _build_state(args)
    mset = _named_set(args.set, st.dim)
    try:
        shots = None if args.shots == "exact" else _count(args.shots)
    except argparse.ArgumentTypeError:
        raise _UsageError(f"--shots must be 'exact' or an integer >= 1, got {args.shots!r}")
    reports = []
    for i in range(args.repeats):
        backend = SamplerBackend(method=args.backend, seed=args.seed + i)
        reports.append(tomography.run_tomography(st, mset, shots, backend).report())
    if args.format == "json":
        _write_json(reports[0] if len(reports) == 1 else reports, args.out)
        return 0
    _emit(["# " + ",".join(reports[0])] + [_csv_row(r.values()) for r in reports], args.out)
    return 0


def cmd_metrology(args) -> int:
    from . import metrology
    try:
        thetas = [float(t) for t in args.thetas_pi.split(",")]
    except ValueError:
        raise _UsageError(f"--thetas-pi must be a comma list of numbers, got {args.thetas_pi!r}")
    j = args.j
    sy = spin(j, "y")
    sz = spin(j, "z")
    # run_scenario holds the phases of each level at each point
    qcore._fits(args.points * sz.dim, 1, f"a phase grid of {args.points} points")
    phis = np.linspace(0.0, args.t_max, args.points) * math.pi
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidParameter(f"cannot create {out_dir}: {exc}") from None
    written = []
    for t in thetas:
        probe = metrology.cat_state(j, t * math.pi)
        scenario = metrology.MetrologyScenario(
            probe=probe, generator=sz, phis=phis, observable=sy)
        curve = metrology.run_scenario(scenario)
        path = out_dir / f"cat_theta_{t:g}pi.csv"
        # an undefined precision point is an empty cell
        dp = [None if np.isnan(v) else v for v in curve.delta_phi]
        _emit(["# phi,expectation,variance,delta_phi,sql,hl"]
              + [_csv_row((*row, curve.sql, curve.hl))
                 for row in zip(curve.phis, curve.expectation, curve.variance, dp)], path)
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
        p.add_argument("--seed", type=lambda text: _count(text, least=0), default=DEFAULT_SEED)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("state", help="construct a state and dump its amplitudes")
    common(p)
    _add_state_args(p)
    p.set_defaults(func=cmd_state)

    p = sub.add_parser("measure", help="measure a state with a built-in set")
    common(p)
    _add_state_args(p)
    p.add_argument("--set", required=True, choices=SETS)
    p.add_argument("--backend", choices=("exact", "mc", "cdf"), default="exact")
    p.add_argument("--shots", type=_count, default=1000)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("bench-povm", help="mean measurement time per set and dimension")
    common(p)
    p.add_argument("--repeats", type=_count, default=100)
    p.set_defaults(func=cmd_bench_povm)

    p = sub.add_parser("backend-compare",
                       help="mc and cdf back-ends against f(x) = exp(-x)")
    common(p)
    p.add_argument("--samples", type=_count, default=1000)
    p.add_argument("--iterations", type=_count, default=1000)
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
    p.add_argument("--set", required=True, choices=tuple(s for s in SETS if s != "xyz"))
    p.add_argument("--shots", default="exact",
                   help="shot count per group, or 'exact'")
    p.add_argument("--backend", choices=("mc", "cdf"), default="cdf")
    p.add_argument("--repeats", type=_count, default=1,
                   help="number of runs (seeds seed, seed+1, ...)")
    p.set_defaults(func=cmd_tomography)

    # no abbreviations, so that --out is refused rather than read as --out-dir
    p = sub.add_parser("metrology", help="cat-state precision curves", allow_abbrev=False)
    p.add_argument("--j", type=float, default=10.0)
    p.add_argument("--thetas-pi", default="0,0.15,0.25,0.35",
                   help="comma list of cat angles in units of pi")
    p.add_argument("--t-max", type=float, default=0.2,
                   help="phase grid upper end in units of pi")
    p.add_argument("--points", type=_count, default=100)
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
