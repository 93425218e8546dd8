import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmkit
from qmkit.cli import STATES, main
from test_cli_corpus import _COMMANDS


def run_cli(args):
    return main(args)


def data_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


# ---------------------------------------------------------------------------
# state
# ---------------------------------------------------------------------------

def test_state_ghz_rows(tmp_path):
    out = tmp_path / "ghz.csv"
    assert run_cli(["state", "--name", "ghz", "--n", "3", "--out", str(out)]) == 0
    rows = data_lines(out)
    assert len(rows) == 8
    re0, im0 = map(float, rows[0].split(","))
    assert re0 == pytest.approx(1 / math.sqrt(2))
    assert im0 == 0.0


def test_state_dicke_amplitudes(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli(["state", "--name", "dicke", "--n", "3", "--k", "2",
                    "--out", str(out)]) == 0
    rows = data_lines(out)
    amps = [float(r.split(",")[0]) for r in rows]
    hot = [i for i, a in enumerate(amps) if abs(a) > 1e-12]
    assert hot == [3, 5, 6]
    assert amps[3] == pytest.approx(1 / math.sqrt(3))


def test_state_spin_coherent_large_j(tmp_path):
    out = tmp_path / "sc.csv"
    assert run_cli(["state", "--name", "spin-coherent", "--j", "600", "--theta", "1.0",
                    "--out", str(out)]) == 0
    amps = np.array([[float(v) for v in r.split(",")] for r in data_lines(out)])
    assert amps.shape == (1201, 2)
    assert np.sum(amps ** 2) == pytest.approx(1.0, abs=1e-12)


def test_state_white_noise_density_matrix(tmp_path):
    out = tmp_path / "noisy.csv"
    assert run_cli(["state", "--name", "ghz", "--n", "3",
                    "--white-noise", "0.1", "--out", str(out)]) == 0
    rows = data_lines(out)
    assert len(rows) == 64  # 8x8 density matrix, one entry per row
    first = rows[0].split(",")
    assert len(first) == 4  # row,col,re,im


def test_random_state_and_its_noise_share_one_generator(tmp_path):
    out = tmp_path / "r.csv"
    assert run_cli(["state", "--name", "random", "--d", "4", "--noise-std", "0.1",
                    "--seed", "5", "--out", str(out)]) == 0
    got = np.array([[float(v) for v in r.split(",")] for r in data_lines(out)])
    g = np.random.default_rng(5)
    want = qmkit.add_random_noise(qmkit.random_haar(4, g), 0.0, 0.1, g).data.reshape(-1)
    np.testing.assert_array_equal(got, np.stack([want.real, want.imag], axis=1))


def test_state_json_format(tmp_path):
    out = tmp_path / "w.json"
    assert run_cli(["state", "--name", "w", "--n", "2", "--format", "json",
                    "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "ket"
    assert payload["dimension"] == 4
    amp = payload["amplitudes"][1]
    assert amp[0] == pytest.approx(1 / math.sqrt(2))
    # a mixed state is written as its matrix of [re, im] pairs
    assert run_cli(["state", "--name", "w", "--n", "2", "--white-noise", "0.1",
                    "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert (payload["kind"], payload["dimension"], "amplitudes" in payload) == ("oper", 4, False)
    assert np.array(payload["matrix"]).shape == (4, 4, 2)
    assert payload["matrix"][1][2] == pytest.approx([0.45, 0.0])


# one valid value of each state flag, as the library takes it
_STATE_FLAG_VALUES = {"--d": 6, "--k": 2, "--n": 3, "--j": 1.5, "--m": 0.5, "--x": 0.4,
                      "--alpha": 0.5 + 0.3j, "--beta": 0.2, "--theta": 1.1, "--phi": 0.7}


@pytest.mark.parametrize("name", list(STATES))
def test_state_table_entry_matches_library(name, tmp_path, capsys):
    factory, flags = STATES[name]
    given = [f for f in flags if f != "rng"]
    argv = ["state", "--name", name]
    for f in given:
        argv += [f, str(_STATE_FLAG_VALUES[f])]
    out = tmp_path / "s.csv"
    assert run_cli(argv + ["--out", str(out)]) == 0
    amps = np.array([complex(*map(float, r.split(","))) for r in data_lines(out)])
    rng = np.random.default_rng(0)  # the CLI's default seed
    want = factory(*(rng if f == "rng" else _STATE_FLAG_VALUES[f] for f in flags))
    np.testing.assert_array_equal(amps, want.data.reshape(-1))
    for f in given:
        if f == "--phi":  # defaults to 0
            continue
        i = argv.index(f)
        assert run_cli(argv[:i] + argv[i + 2:]) == 2, f
        assert f"requires {f}" in capsys.readouterr().err


def test_state_negative_complex_value_after_equals_sign(tmp_path, capsys, monkeypatch):
    out = tmp_path / "c.csv"
    assert run_cli(["state", "--name", "coherent", "--d", "10", "--alpha=-2j",
                    "--out", str(out)]) == 0
    amps = np.array([complex(*map(float, r.split(","))) for r in data_lines(out)])
    np.testing.assert_array_equal(amps, qmkit.coherent(10, -2j).data.reshape(-1))
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        run_cli(["state", "--help"])
    assert exc.value.code == 0
    assert "--alpha=-2j" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------

def test_measure_xyz_expectations(tmp_path):
    out = tmp_path / "m.csv"
    assert run_cli(["measure", "--name", "ghz", "--n", "1", "--set", "xyz",
                    "--backend", "exact", "--out", str(out)]) == 0
    rows = [r.split(",") for r in data_lines(out)]
    vals = [float(r[2]) for r in rows]
    np.testing.assert_allclose(vals, [1.0, 0.0, 0.0], atol=1e-12)


def test_measure_pauli_maximally_mixed(tmp_path):
    out = tmp_path / "mm.csv"
    # |0> with 50% white noise is I/2
    assert run_cli(["measure", "--name", "basis", "--d", "2", "--k", "0",
                    "--white-noise", "1.0", "--set", "pauli",
                    "--out", str(out)]) == 0
    rows = [r.split(",") for r in data_lines(out)]
    assert len(rows) == 6
    for r in rows:
        assert float(r[2]) == pytest.approx(0.5, abs=1e-12)
        assert r[1] != ""  # every pauli element belongs to a group


def test_measure_sampled_reproducible(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["measure", "--name", "ghz", "--n", "1", "--set", "sic",
            "--backend", "mc", "--shots", "500", "--seed", "42"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# bench-povm / backend-compare
# ---------------------------------------------------------------------------

def test_bench_povm_rows(tmp_path):
    out = tmp_path / "bench.csv"
    assert run_cli(["bench-povm", "--repeats", "2", "--out", str(out)]) == 0
    rows = [r.split(",") for r in data_lines(out)]
    assert [(r[0], int(r[1])) for r in rows] == [
        ("pauli", 2), ("stoke", 2), ("pauli", 4), ("stoke", 4), ("pauli", 8), ("stoke", 8),
        *(("mub", d) for d in (2, 3, 4, 5, 7)), *(("sic", d) for d in range(2, 9))]
    assert all(float(r[2]) >= 0 for r in rows)


def test_bench_povm_json(tmp_path):
    out = tmp_path / "bench.json"
    assert run_cli(["bench-povm", "--repeats", "1", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["repeats"] == 1 and len(payload["rows"]) == 18
    assert payload["rows"][0].keys() == {"set", "dimension", "mean_seconds"}
    assert [(r["set"], r["dimension"]) for r in payload["rows"][-2:]] == [("sic", 7), ("sic", 8)]
    assert all(r["mean_seconds"] >= 0 for r in payload["rows"])


def test_backend_compare_json_holds_the_csv_numbers(tmp_path):
    flags = ["backend-compare", "--samples", "7", "--iterations", "50", "--seed", "4",
             "--no-timing"]
    assert run_cli(flags + ["--out", str(tmp_path / "c.csv")]) == 0
    assert run_cli(flags + ["--format", "json", "--out", str(tmp_path / "c.json")]) == 0
    payload = json.loads((tmp_path / "c.json").read_text())
    assert (payload["samples"], payload["iterations"], payload["seed"]) == (7, 50, 4)
    rows = [[float(v) for v in r.split(",")] for r in data_lines(tmp_path / "c.csv")]
    assert [[r[k] for k in ("x", "exact", "mc", "cdf")] for r in payload["rows"]] == rows
    header = (tmp_path / "c.csv").read_text().splitlines()[1]
    maes = dict(kv.split("=") for kv in header[2:].split())
    assert {k: float(v) for k, v in maes.items()} == {k: payload[k] for k in ("mc_mae", "cdf_mae")}
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.json"]   # no timing file


def test_backend_compare_exact_column(tmp_path):
    out = tmp_path / "cmp.csv"
    assert run_cli(["backend-compare", "--samples", "50", "--iterations", "200",
                    "--no-timing", "--out", str(out)]) == 0
    rows = [r.split(",") for r in data_lines(out)]
    assert len(rows) == 50
    for r in rows:
        x, exact = float(r[0]), float(r[1])
        assert exact == pytest.approx(math.exp(-x), abs=1e-15)
    # header carries the two mean absolute errors
    header = [l for l in out.read_text().splitlines() if l.startswith("# mc_mae")]
    assert len(header) == 1


def test_backend_compare_cdf_beats_mc(tmp_path):
    maes = []
    for seed in range(20):
        out = tmp_path / f"cmp{seed}.csv"
        run_cli(["backend-compare", "--samples", "100", "--iterations", "1000",
                 "--seed", str(seed), "--no-timing", "--out", str(out)])
        header = [l for l in out.read_text().splitlines()
                  if l.startswith("# mc_mae")][0]
        parts = dict(kv.split("=") for kv in header[2:].split())
        maes.append((float(parts["mc_mae"]), float(parts["cdf_mae"])))
    mc_mean = np.mean([m for m, _ in maes])
    cdf_mean = np.mean([c for _, c in maes])
    assert cdf_mean <= mc_mean


@pytest.mark.parametrize("samples, iterations, seed", [(40, 200, 3), (7, 1, 0), (3, 5, 11)])
def test_backend_compare_columns_are_per_point_sampler_calls(tmp_path, samples, iterations, seed):
    # one sample_mc call per grid point, then one sample_cdf_discrete call per
    # point, off one generator; the grid starts at x = 0, so p = 1 is covered
    out = tmp_path / "cmp.csv"
    assert run_cli(["backend-compare", "--samples", str(samples), "--iterations", str(iterations),
                    "--seed", str(seed), "--no-timing", "--out", str(out)]) == 0
    rows = np.array([[float(v) for v in r.split(",")] for r in data_lines(out)])
    exact = np.exp(-np.linspace(0.0, 5.0, samples))
    rng = np.random.default_rng(seed)
    mc = [qmkit.sample_mc(p, iterations, rng) for p in exact]
    cdf = [qmkit.sample_cdf_discrete(np.array([1.0 - p, p]), iterations, rng)[1] / iterations
           for p in exact]
    assert exact[0] == 1.0
    np.testing.assert_array_equal(rows[:, 1:], np.column_stack([exact, mc, cdf]))


def test_backend_compare_timing_table(tmp_path):
    out = tmp_path / "cmp.csv"
    argv = ["backend-compare", "--samples", "5", "--iterations", "10", "--out", str(out)]
    assert run_cli(argv + ["--timing-out", str(tmp_path / "timing.csv")]) == 0
    # without --timing-out the table goes beside --out, as cmp_timing.csv
    assert run_cli(argv) == 0
    assert len(out.read_text().splitlines()) == 3 + 5    # three header lines, a row per sample
    for timing in ("timing.csv", "cmp_timing.csv"):     # a header and 10 timing rows
        lines = (tmp_path / timing).read_text().splitlines()
        assert len(lines) == 1 + 10
        assert [int(r.split(",")[0]) for r in lines[1:]] == list(range(1000, 11000, 1000))


# ---------------------------------------------------------------------------
# phasespace
# ---------------------------------------------------------------------------

def test_phasespace_planar_vacuum(tmp_path):
    out = tmp_path / "h.csv"
    assert run_cli(["phasespace", "--name", "coherent", "--d", "20",
                    "--alpha", "0", "--map", "husimi", "--coords", "planar",
                    "--xmin", "-1", "--xmax", "1", "--ymin", "-1", "--ymax", "1",
                    "--nx", "3", "--ny", "3", "--out", str(out)]) == 0
    rows = [r.split(",") for r in data_lines(out)]
    assert len(rows) == 9
    centre = [r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0][0]
    assert float(centre[2]) == pytest.approx(1 / math.pi, abs=1e-12)


def test_phasespace_spherical_dicke(tmp_path):
    out = tmp_path / "q.csv"
    assert run_cli(["phasespace", "--name", "zeeman", "--j", "10", "--m", "7",
                    "--map", "husimi", "--coords", "spherical",
                    "--ntheta", "21", "--nphi", "9", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# kind=husimi coords=spherical n1=21 n2=9"
    assert len(lines) == 1 + 21 * 9


def test_phasespace_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["phasespace", "--name", "random", "--d", "8", "--seed", "9",
            "--map", "wigner", "--coords", "planar", "--nx", "5", "--ny", "5"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("state", ["coherent --d 30 --alpha 1+0.5j",
                                   "spin-coherent --j 10 --theta 1.1 --phi 2.3"])
@pytest.mark.parametrize("kind", ["husimi", "wigner"])
@pytest.mark.parametrize("coords", ["planar", "spherical"])
def test_phasespace_default_grid_rows(state, kind, coords, tmp_path):
    out = tmp_path / "map.csv"
    assert run_cli(["phasespace", "--name", *state.split(), "--map", kind, "--coords", coords,
                    "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 61 * 61     # a header and 61 x 61 rows


# ---------------------------------------------------------------------------
# tomography
# ---------------------------------------------------------------------------

def test_tomography_exact_report(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli(["tomography", "--name", "ghz", "--n", "2", "--set", "pauli",
                    "--shots", "exact", "--format", "json",
                    "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["fidelity"] >= 1 - 1e-9
    assert {"dimension", "set_kind", "shots", "backend", "seed", "fidelity",
            "trace_distance"} == set(rep)
    assert rep["shots"] == "exact"


# grouped (pauli), ungrouped (stoke), multi-group (mub) and single-group (sic) sets;
# MUB sets at a power of two past 4 (d = 8) and at an odd prime power (d = 9)
@pytest.mark.parametrize("state", ["ghz --n 2 --set pauli", "ghz --n 2 --set stoke",
                                   "ghz --n 2 --set mub", "ghz --n 2 --set sic",
                                   "ghz --n 3 --set mub", "random --d 9 --set mub"])
def test_tomography_every_built_in_set_reconstructs(state, tmp_path):
    argv = ["tomography", "--name", *state.split(), "--format", "json"]
    assert run_cli(argv + ["--shots", "exact", "--out", str(tmp_path / "t.json")]) == 0
    assert json.loads((tmp_path / "t.json").read_text())["fidelity"] > 1 - 1e-9
    assert run_cli(argv + ["--shots", "1000", "--backend", "cdf",
                           "--out", str(tmp_path / "s.json")]) == 0


def test_tomography_batch_rows(tmp_path):
    out = tmp_path / "batch.csv"
    assert run_cli(["tomography", "--name", "ghz", "--n", "1", "--set", "sic",
                    "--shots", "300", "--backend", "cdf", "--repeats", "20",
                    "--out", str(out)]) == 0
    rows = data_lines(out)
    assert len(rows) == 20
    seeds = [int(r.split(",")[4]) for r in rows]
    assert seeds == list(range(20))


# ---------------------------------------------------------------------------
# metrology
# ---------------------------------------------------------------------------

def test_metrology_default_theta_files(tmp_path, capsys):
    assert run_cli(["metrology", "--j", "2", "--points", "12",
                    "--out-dir", str(tmp_path)]) == 0
    files = sorted(tmp_path.glob("cat_theta_*.csv"))
    assert len(files) == 4
    one = [r for r in files[0].read_text().splitlines() if not r.startswith("#")]
    assert len(one) == 12
    # sql column constant 1/sqrt(2j)
    sqls = {r.split(",")[4] for r in one}
    assert len(sqls) == 1
    assert float(sqls.pop()) == pytest.approx(1 / math.sqrt(4))


def test_metrology_phi_axis_in_radians(tmp_path):
    run_cli(["metrology", "--j", "1", "--points", "5", "--t-max", "0.2",
             "--thetas-pi", "0.25", "--out-dir", str(tmp_path)])
    rows = [r for r in (tmp_path / "cat_theta_0.25pi.csv").read_text().splitlines()
            if not r.startswith("#")]
    phis = [float(r.split(",")[0]) for r in rows]
    assert phis[-1] == pytest.approx(0.2 * math.pi)


def test_metrology_deterministic(tmp_path):
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    for d in (d1, d2):
        run_cli(["metrology", "--j", "2", "--points", "8", "--out-dir", str(d)])
    for f1 in sorted(d1.glob("*.csv")):
        f2 = d2 / f1.name
        assert f1.read_bytes() == f2.read_bytes()


# ---------------------------------------------------------------------------
# stdout path
# ---------------------------------------------------------------------------

def test_stdout_output(capsys):
    assert run_cli(["state", "--name", "ghz", "--n", "1"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(rows) == 2


# ---------------------------------------------------------------------------
# fresh interpreters: import cost and the module entry point
# ---------------------------------------------------------------------------

def _python(args, cwd, timeout):
    """``python args`` in ``cwd`` on this checkout's qmkit, with RuntimeWarnings as errors."""
    src = str(Path(qmkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=timeout)


_NO_SCIPY = """
import sys
import qmkit as q, qmkit.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

# NumPy 2 loads numpy.random on first use, NumPy 1.x on import
lazy_random = "numpy.random" not in sys.modules
assert not scipy_modules(), scipy_modules()[:5]
for argv in (["state", "--name", "ghz", "--n", "3"],
             ["state", "--name", "squeezed", "--d", "30", "--alpha", "0.5+0.3j", "--beta", "0.3"],
             ["phasespace", "--name", "squeezed", "--d", "30", "--alpha", "0.5+0.3j", "--beta",
              "0.3", "--map", "wigner", "--coords", "planar", "--nx", "11", "--ny", "11"],
             ["phasespace", "--name", "spin-coherent", "--j", "10", "--theta", "1.0",
              "--map", "husimi", "--coords", "spherical"],
             ["metrology", "--j", "3", "--points", "10"]):
    argv += ["--out-dir", "."] if argv[0] == "metrology" else ["--out", argv[0] + ".csv"]
    assert qmkit.cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv[0], scipy_modules()[:5])
    # none of these commands draws random numbers
    assert not lazy_random or "numpy.random" not in sys.modules, argv

# the library calls behind the maps, tomography and Fisher information
p, s = q.squeezed(30, 0.5, 0.3), q.cat_state(10, 0.7, 0.4)
q.displacement(30, 0.5), q.squeezing(30, 0.3)
q.husimi_planar(p), q.wigner_planar(p), q.husimi_spherical(s), q.wigner_spherical(s)
r, m = q.ghz(3), q.build_pauli_set(3)
q.run_tomography(r, m, 1000, q.SamplerBackend("cdf", 1)), q.run_tomography(r, m)
h, sic, psi = q.spin(2, "z"), q.build_sic_set(5), q.spin_coherent(2, 1.0, 0.3)
q.classical_fisher(lambda phi: q.encode_phase(psi, h, phi), sic, 0.4)
q.quantum_fisher(q.encode_phase(psi, h, 0.4), h)
assert not scipy_modules(), scipy_modules()[:5]
"""


def test_cli_commands_do_not_load_scipy(tmp_path):
    res = _python(["-c", _NO_SCIPY], tmp_path, 120)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "phasespace.csv").exists()
    assert len(list(tmp_path.glob("cat_theta_*.csv"))) == 4


_LOADED = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "qmkit")

import qmkit
print(json.dumps(loaded()), file=sys.stderr)
import qmkit.cli
print(json.dumps(loaded()), file=sys.stderr)
assert qmkit.cli.main(sys.argv[1:]) == 0
print(json.dumps(loaded()), file=sys.stderr)
"""

_CLI = ["qmkit", "qmkit.cli", "qmkit.errors", "qmkit.operators", "qmkit.qcore", "qmkit.states"]


# a command loads the modules it calls, and a map or a precision curve never loads measurement
@pytest.mark.parametrize("argv, own", [
    ("state --name ghz --n 3", []),
    ("phasespace --name zeeman --j 2 --m 1 --map wigner --coords spherical --ntheta 5 --nphi 5",
     ["qmkit.phasespace"]),
    ("metrology --j 2 --points 5 --out-dir .", ["qmkit.metrology"]),
])
def test_each_command_loads_only_its_own_modules(argv, own, tmp_path):
    res = _python(["-c", _LOADED, *argv.split()], tmp_path, 60)
    assert res.returncode == 0, res.stderr
    assert [json.loads(line) for line in res.stderr.splitlines()] == [
        ["qmkit", "qmkit.errors"], _CLI, sorted(_CLI + own)]


_LARGE_SPINS = """
import sys, qmkit as q
from qmkit.errors import UnsupportedDimension
from qmkit.phasespace import spherical_multipole
spherical_multipole(q.spin_coherent(200, 0.7, 0.3), 200, 3)
q.clebsch_gordan(4095, 1, 4095, -1, 4094, 0)
try:
    q.clebsch_gordan(10**6, 0, 10**6, 0, 10**6, 0)
    raise SystemExit("clebsch_gordan admitted j = 10**6")
except UnsupportedDimension:
    pass
assert "scipy" not in sys.modules
"""


def test_large_spins_answer_quickly_without_scipy(tmp_path):
    res = _python(["-c", _LARGE_SPINS], tmp_path, 20)
    assert res.returncode == 0, res.stderr


# one success row and one failing command of the corpus
@pytest.mark.parametrize("argv", [" ".join(_COMMANDS["cli-state"]), "state --name ghz --n 64"])
def test_module_entry_point_runs_main(argv, tmp_path, monkeypatch, capsys):
    res = _python(["-m", "qmkit.cli", *argv.split()], tmp_path, 60)
    monkeypatch.chdir(tmp_path)
    code = run_cli(argv.split())
    assert (res.returncode, res.stdout, res.stderr) == (code, *capsys.readouterr())
    assert "Traceback" not in res.stderr
