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


@pytest.mark.parametrize("noise",[["--noise-std", "nan"], ["--noise-mean", "nan"]])
def test_state_nan_noise_exit_4(tmp_path, capsys, noise):
    out = tmp_path / "s.csv"
    assert run_cli(["state", "--name", "coherent", "--d", "3", "--alpha", "1", *noise,
                    "--out", str(out)]) == 4
    assert "InvalidParameter" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "state --name coherent --d 3 --alpha=nan", "state --name spin-coherent --j 1 --theta nan",
    "state --name squeezed --d 3 --alpha 0 --beta=inf", "state --name position --d 3 --x nan",
    "phasespace --name coherent --d 3 --alpha=nan --map husimi --coords planar"])
def test_non_finite_parameters_exit_4(tmp_path, capsys, argv):
    out = tmp_path / "s.csv"
    assert run_cli(argv.split() + ["--out", str(out)]) == 4
    assert "InvalidParameter" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    "state --name ghz --n 1 --out {missing}/x.csv",
    "phasespace --name coherent --d 3 --alpha 1 --map husimi --coords planar --nx 2 --ny 2 "
    "--out {missing}/x.csv",
    "metrology --j 1 --points 3 --thetas-pi 0 --out-dir {file}/sub"])
def test_paths_that_cannot_be_written_exit_4(tmp_path, capsys, argv):
    (tmp_path / "file").write_text("")
    argv = argv.format(missing=tmp_path / "missing", file=tmp_path / "file")
    assert run_cli(argv.split()) == 4
    err = capsys.readouterr().err
    assert err.startswith("InvalidParameter: cannot") and str(tmp_path) in err


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


def test_state_unknown_name_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["state", "--name", "bogus"])
    assert exc.value.code == 2


def test_state_missing_parameter_is_usage_error(capsys):
    assert run_cli(["state", "--name", "ghz"]) == 2
    assert "requires --n" in capsys.readouterr().err


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


def test_measure_unsupported_dimension_exit_3(tmp_path, capsys):
    code = run_cli(["measure", "--name", "random", "--d", "6", "--set", "mub",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "UnsupportedDimension" in capsys.readouterr().err


def test_measure_pauli_on_non_qubit_dimension_exit_3(tmp_path, capsys):
    code = run_cli(["measure", "--name", "random", "--d", "3", "--set", "pauli",
                    "--out", str(tmp_path / "x.csv")])
    assert code == 3


def test_measure_xyz_on_non_qubit_dimension_exit_3(tmp_path, capsys):
    code = run_cli(["measure", "--name", "coherent", "--d", "3", "--alpha", "1",
                    "--set", "xyz", "--backend", "exact", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "UnsupportedDimension: xyz set needs a qubit" in capsys.readouterr().err


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


@pytest.mark.parametrize("argv", [
    ["bench-povm", "--repeats", "0"],
    ["bench-povm", "--repeats", "-1"],
    ["bench-povm", "--repeats", "abc"],
    ["backend-compare", "--samples", "-2"],
    ["backend-compare", "--samples", "0"],
    ["backend-compare", "--samples", "1.5"],
    ["metrology", "--points", "-1"],
    ["metrology", "--points", "0"],
    ["tomography", "--name", "ghz", "--n", "1", "--set", "sic", "--repeats", "0"],
    ["backend-compare", "--iterations", "0"],
    ["measure", "--name", "ghz", "--n", "1", "--set", "xyz", "--shots", "0"],
    ["state", "--name", "ghz", "--n", "2", "--seed", "-1"],
], ids=" ".join)
def test_counts_below_one_are_usage_errors(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv + ["--out-dir" if argv[0] == "metrology" else "--out",
                        str(tmp_path / "x")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    least = 0 if argv[-2] == "--seed" else 1
    assert f"argument {argv[-2]}: must be an integer >= {least}, got '{argv[-1]}'" in err
    assert not (tmp_path / "x").exists()


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
    timing = tmp_path / "timing.csv"
    assert run_cli(["backend-compare", "--samples", "5", "--iterations", "10",
                    "--out", str(out), "--timing-out", str(timing)]) == 0
    rows = [r.split(",") for r in data_lines(timing)]
    assert [int(r[0]) for r in rows] == list(range(1000, 11000, 1000))
    # without --timing-out the table goes beside --out, as cmp_timing.csv
    assert run_cli(["backend-compare", "--samples", "5", "--iterations", "10",
                    "--out", str(out)]) == 0
    rows = [r.split(",") for r in data_lines(tmp_path / "cmp_timing.csv")]
    assert [int(r[0]) for r in rows] == list(range(1000, 11000, 1000))


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


@pytest.mark.parametrize("bound", [["--xmin", "nan"], ["--ymax", "inf"], ["--xmax=-inf"]])
def test_phasespace_non_finite_planar_range_exit_4(tmp_path, capsys, bound):
    out = tmp_path / "w.csv"
    assert run_cli(["phasespace", "--name", "coherent", "--d", "10", "--alpha", "1",
                    "--map", "wigner", "--coords", "planar", *bound, "--out", str(out)]) == 4
    assert "InvalidParameter" in capsys.readouterr().err
    assert not out.exists()


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


def test_tomography_batch_rows(tmp_path):
    out = tmp_path / "batch.csv"
    assert run_cli(["tomography", "--name", "ghz", "--n", "1", "--set", "sic",
                    "--shots", "300", "--backend", "cdf", "--repeats", "20",
                    "--out", str(out)]) == 0
    rows = data_lines(out)
    assert len(rows) == 20
    seeds = [int(r.split(",")[4]) for r in rows]
    assert seeds == list(range(20))


def test_tomography_shots_validation(tmp_path, capsys):
    code = run_cli(["tomography", "--name", "ghz", "--n", "1", "--set", "sic",
                    "--shots", "never", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_tomography_oversized_product_set_exit_3(tmp_path, capsys):
    # the 6-qubit Pauli stack would take 2.85 GiB; it is refused before it is built
    code = run_cli(["tomography", "--name", "ghz", "--n", "6", "--set", "pauli",
                    "--shots", "exact", "--out", str(tmp_path / "x.csv")])
    assert code == 3
    assert "UnsupportedDimension" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["ghz", "w"])
def test_state_past_the_qubit_limit_exit_3(name, capsys):
    # 2^64 amplitudes: refused before anything is allocated
    assert run_cli(["state", "--name", name, "--n", "64"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("UnsupportedDimension:") and "Traceback" not in err


_HUGE = str(2**96)     # past what NumPy can index: refused by NumPy without allocating


@pytest.mark.parametrize("argv", [
    f"state --name basis --d {_HUGE} --k 0",
    f"state --name coherent --d {_HUGE} --alpha 1",
    f"state --name squeezed --d {_HUGE} --alpha 1 --beta 1",
    "state --name zeeman --j 1e29 --m 0",
    "state --name spin-coherent --j 1e29 --theta 1",
    f"state --name random --d {_HUGE}",
    f"phasespace --name coherent --d 3 --alpha 1 --map husimi --coords planar --nx {_HUGE}",
    f"phasespace --name coherent --d 3 --alpha 1 --map husimi --coords spherical --nphi {_HUGE}",
    f"metrology --j 1 --points {_HUGE} --out-dir {{tmp}}/m",
    "metrology --j 1e29 --out-dir {tmp}/m",
    f"backend-compare --samples {_HUGE} --no-timing",
], ids=lambda argv: argv.replace(_HUGE, "HUGE").split(" --out-dir")[0])
def test_sizes_past_the_size_limit_exit_3(argv, tmp_path, capsys):
    assert run_cli(argv.format(tmp=tmp_path).split()) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("UnsupportedDimension:") and "over the 1 GiB limit" in captured.err
    assert captured.out == "" and not (tmp_path / "m").exists()


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


def test_metrology_single_level_exit_4(tmp_path, capsys):
    assert run_cli(["metrology", "--j", "0", "--out-dir", str(tmp_path)]) == 4
    assert "InvalidParameter" in capsys.readouterr().err


def test_metrology_one_point_grid_exit_4(tmp_path, capsys):
    assert run_cli(["metrology", "--j", "2", "--points", "1", "--out-dir", str(tmp_path)]) == 4
    assert "phase grid needs at least two points, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--format", "json"], ["--out", "x.json"], ["--seed", "3"]])
def test_metrology_refuses_the_flags_it_does_not_read(flag, tmp_path, capsys):
    # it writes CSV files into --out-dir and draws nothing; --out is not read as --out-dir
    with pytest.raises(SystemExit) as exc:
        run_cli(["metrology", "--j", "1", "--points", "3", "--out-dir", str(tmp_path)] + flag)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_metrology_bad_thetas_is_usage_error(tmp_path, capsys):
    assert run_cli(["metrology", "--thetas-pi", "abc", "--out-dir", str(tmp_path)]) == 2
    assert "--thetas-pi" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# stdout path
# ---------------------------------------------------------------------------

def test_stdout_output(capsys):
    assert run_cli(["state", "--name", "ghz", "--n", "1"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(rows) == 2


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------

_NO_SCIPY = """
import sys
import qmkit, qmkit.cli

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
"""


def test_cli_commands_do_not_load_scipy(tmp_path):
    src = str(Path(qmkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    res = subprocess.run([sys.executable, "-c", _NO_SCIPY], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "phasespace.csv").exists()
    assert len(list(tmp_path.glob("cat_theta_*.csv"))) == 4
