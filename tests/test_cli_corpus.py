"""CLI output across commits: the bytes of every success row, and the exit code
and message of every failing command (``_FAILURES``, the one list of them).

Each success row runs one command through ``cli.main`` in a fresh directory and
compares the SHA-256 of its stdout and every file it wrote with the values
recorded below.  Criterion 10 only checks that two runs within one checkout
agree; this table pins the bytes themselves, so a change that moves any of them
must re-record its row and say which command moved and by how much.

Left out: ``bench-povm`` and ``backend-compare`` without ``--no-timing``,
whose payloads are wall-clock times.
"""

import decimal
import hashlib

import pytest

from qmkit import coherent
from qmkit.cli import main
from test_phasespace import _PLATFORM_DIGEST, _exact_husimi, _platform_digest

_OUT = ["--out", "out"]

# row id -> argv; "--out out" / "--out-dir out" write into the test's directory
_COMMANDS = {
    # criterion 10
    "c10-state-ghz": ["state", "--name", "ghz", "--n", "3", "--seed", "5", *_OUT],
    "c10-state-random": ["state", "--name", "random", "--d", "6", "--seed", "5", *_OUT],
    "c10-measure-pauli-cdf": ["measure", "--name", "ghz", "--n", "2", "--set", "pauli",
                              "--backend", "cdf", "--shots", "400", "--seed", "5", *_OUT],
    "c10-measure-sic-mc": ["measure", "--name", "random", "--d", "4", "--set", "sic",
                           "--backend", "mc", "--shots", "300", "--seed", "8", *_OUT],
    "c10-backend-compare": ["backend-compare", "--samples", "40", "--iterations", "200",
                            "--seed", "3", "--no-timing", *_OUT],
    "c10-phasespace-wigner-spherical": ["phasespace", "--name", "zeeman", "--j", "3", "--m", "1",
                                        "--map", "wigner", "--coords", "spherical",
                                        "--ntheta", "7", "--nphi", "7", "--seed", "1", *_OUT],
    "c10-tomography-mub-cdf-x3": ["tomography", "--name", "ghz", "--n", "1", "--set", "mub",
                                  "--shots", "250", "--backend", "cdf", "--repeats", "3",
                                  "--seed", "2", *_OUT],
    "c10-metrology-j2": ["metrology", "--j", "2", "--points", "10", "--out-dir", "out"],
    # the benchmark's seven cli commands, at fixed seeds and angles
    "cli-state": ["state", "--name", "w", "--n", "3", "--seed", "11"],
    "cli-measure": ["measure", "--name", "ghz", "--n", "3", "--seed", "12", "--set", "pauli",
                    "--backend", "cdf", "--shots", "1000"],
    "cli-tomography-mub": ["tomography", "--name", "random", "--d", "5", "--seed", "13",
                           "--set", "mub", "--shots", "10000", "--backend", "cdf"],
    "cli-tomography-pauli-exact": ["tomography", "--name", "random", "--d", "8", "--seed", "14",
                                   "--set", "pauli", "--shots", "exact"],
    "cli-phasespace": ["phasespace", "--name", "spin-coherent", "--j", "10", "--theta", "1.234567",
                       "--phi", "4.500000", "--map", "husimi", "--coords", "spherical"],
    "cli-metrology-j10": ["metrology", "--j", "10", "--out-dir", "out"],
    "cli-backend-compare": ["backend-compare", "--no-timing", "--seed", "15"],
    # tomography reports: CSV and JSON, one and three runs, every set and sampler
    "tomography-stoke-mc-csv": ["tomography", "--name", "w", "--n", "2", "--set", "stoke",
                                "--shots", "500", "--backend", "mc", "--seed", "3", *_OUT],
    "tomography-stoke-mc-json": ["tomography", "--name", "w", "--n", "2", "--set", "stoke",
                                 "--shots", "500", "--backend", "mc", "--seed", "3",
                                 "--format", "json", *_OUT],
    "tomography-sic-mc-json-x3": ["tomography", "--name", "random", "--d", "3", "--set", "sic",
                                  "--shots", "200", "--backend", "mc", "--repeats", "3",
                                  "--seed", "4", "--format", "json", *_OUT],
    "tomography-pauli-cdf-csv-x3": ["tomography", "--name", "dicke", "--n", "3", "--k", "1",
                                    "--set", "pauli", "--shots", "300", "--repeats", "3",
                                    "--white-noise", "0.2", "--seed", "6", *_OUT],
    "tomography-sic-exact-json": ["tomography", "--name", "coherent", "--d", "4", "--alpha", "0.6",
                                  "--set", "sic", "--format", "json"],
    # one command per state
    "state-basis": ["state", "--name", "basis", "--d", "4", "--k", "2"],
    "state-zeeman-json": ["state", "--name", "zeeman", "--j", "1.5", "--m", "-0.5",
                          "--format", "json"],
    "state-coherent-json": ["state", "--name", "coherent", "--d", "10", "--alpha=-1+0.5j",
                            "--format", "json", *_OUT],
    "state-squeezed": ["state", "--name", "squeezed", "--d", "30", "--alpha", "0.5+0.3j",
                       "--beta", "0.3"],
    "state-position": ["state", "--name", "position", "--d", "12", "--x", "0.7"],
    "state-spin-coherent": ["state", "--name", "spin-coherent", "--j", "2.5", "--theta", "1.0",
                            "--phi", "0.3"],
    "state-dicke-white-noise": ["state", "--name", "dicke", "--n", "4", "--k", "2",
                                "--white-noise", "0.1", *_OUT],
    "state-coherent-amplitude-noise": ["state", "--name", "coherent", "--d", "5", "--alpha", "1",
                                       "--noise-mean", "0.1", "--noise-std", "0.05",
                                       "--seed", "9"],
    "state-ghz-overflowing-noise": ["state", "--name", "ghz", "--n", "1", "--noise-mean", "1e200"],
    # the sets not covered above
    "measure-xyz": ["measure", "--name", "spin-coherent", "--j", "0.5", "--theta", "0.8",
                    "--phi", "1.1", "--set", "xyz", *_OUT],
    "measure-stoke-exact-json": ["measure", "--name", "ghz", "--n", "2", "--set", "stoke",
                                 "--format", "json"],
    "measure-mub-mc": ["measure", "--name", "random", "--d", "7", "--set", "mub", "--backend", "mc",
                       "--shots", "100", "--seed", "10"],
    # the planar maps
    "phasespace-husimi-planar": ["phasespace", "--name", "coherent", "--d", "10", "--alpha", "1",
                                 "--map", "husimi", "--coords", "planar", "--nx", "21",
                                 "--ny", "17", *_OUT],
    "phasespace-wigner-planar-json": ["phasespace", "--name", "squeezed", "--d", "20", "--alpha",
                                      "0.5", "--beta", "0.3", "--map", "wigner", "--coords",
                                      "planar", "--nx", "15", "--ny", "15", "--format", "json"],
}


def _run(argv, tmp_path, monkeypatch, capsys) -> tuple[int, dict]:
    """Exit code of ``argv`` run in ``tmp_path``, and the SHA-256 of each of
    its non-empty outputs: "<stdout>", "<stderr>" and every file it wrote."""
    monkeypatch.chdir(tmp_path)
    code = main(list(argv))
    out, err = capsys.readouterr()
    streams = {"<stdout>": out.encode(), "<stderr>": err.encode()}
    files = {p.relative_to(tmp_path).as_posix(): p.read_bytes()
             for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    return code, {k: hashlib.sha256(v).hexdigest()
                  for k, v in {**streams, **files}.items() if v}


# recorded on NumPy 2.4.6 / x86-64 (AVX-512), where _platform_digest() equals
# _PLATFORM_DIGEST, before the tomography and Fisher paths stopped converting
# each input more than once (the row state-ghz-overflowing-noise was added
# when a ket whose squared norm overflows began to be rescaled, not zeroed;
# cli-phasespace was re-recorded when the spherical maps became one batched
# product, and moved by <= 2.3e-16, and again when a ket's spherical Husimi
# map took its own real product, moving by <= 2.8e-16; phasespace-husimi-planar
# when a ket's planar Husimi map took its own Horner pass, and moved by <= 1.7e-16;
# every row that samples mc, and backend-compare's cdf column drawn after it, when
# mc became one binomial draw per element, and the cdf rows c10-backend-compare,
# cli-backend-compare, cli-tomography-mub and tomography-pauli-cdf-csv-x3 when
# cdf came to draw one uniform per boundary stratum: new draws of the same
# distribution; the tomography rows c10-tomography-mub-cdf-x3, cli-tomography-mub,
# cli-tomography-pauli-exact, tomography-stoke-mc-csv, tomography-stoke-mc-json,
# tomography-sic-mc-json-x3, tomography-pauli-cdf-csv-x3 and tomography-sic-exact-json
# when linear inversion came to solve in the natural Hermitian coordinates: trace
# distances moved by <= 9.7e-16 and fidelities by <= 1.3e-8, the sqrt of rounding
# noise of a ket truth; phasespace-wigner-planar-json when the planar Wigner
# map's Laguerre coefficients became two real products, and moved by <= 1.11e-16
# at 101 of 225 values);
# rows: {output: SHA-256}, each of a command that exits 0
_DIGESTS = {
    "c10-backend-compare": {
        "out": "861dcdf5a706722a637a9c3309c42098b275fd8c0b31fb666492e454d05ddcbc",
    },
    "c10-measure-pauli-cdf": {
        "out": "631ad83f3a67efda7ccbceeb8a04934bf2aad3f5b7e645b779aee06675d40d10",
    },
    "c10-measure-sic-mc": {
        "out": "dc5110cd798c62ff3e2468cebe789cd6100e284fd0f9039c4c1535a9977bdf90",
    },
    "c10-metrology-j2": {
        "<stdout>": "8baa669c11f5f5586b810d6c2c4cafaf31849b2110fe3638888de17f32be6a82",
        "out/cat_theta_0.15pi.csv": "bed174757cbdbfbb34ee2702d9fb74fcd2d229397f714bd6e4f490d16feb0080",
        "out/cat_theta_0.25pi.csv": "589c16d401a88d0be120e4b0868f7b876db7ecb27e0e9ff258efc10e39f5e6ef",
        "out/cat_theta_0.35pi.csv": "07ff23801b88b155ed0af09c2d061ed44f7b58992b4c1cc554b8a4f1d1c91149",
        "out/cat_theta_0pi.csv": "73794613d489e4fc1a4950e49a1cbce17220f6653a1d0d9e6db75a08744bc2ee",
    },
    "c10-phasespace-wigner-spherical": {
        "out": "5dec762bbd4aac56ca32ff34da54b6faf6385b45459da016b89f3f7e7ed8134e",
    },
    "c10-state-ghz": {
        "out": "97740d41a8f400d9e6286c14686c11afb7242879b21d6d935b5b642a9bb978e0",
    },
    "c10-state-random": {
        "out": "17ecee30978459c54481ad6a53fde958a2b384606fd1824ff7916f24da786c1c",
    },
    "c10-tomography-mub-cdf-x3": {
        "out": "ecb0acf629f3116eb88382ec32deb7ccf0215ffd5693d3b01c56cee283774948",
    },
    "cli-backend-compare": {
        "<stdout>": "56c2050bf8d88489b7b7371522b8d2ff4cd551a988390ada4f9c6f9eddcc41d8",
    },
    "cli-measure": {
        "<stdout>": "f82507f1eab41dfa98b282b6dda47027c2095dc4a537a07178073cab1ea345b2",
    },
    "cli-metrology-j10": {
        "<stdout>": "8baa669c11f5f5586b810d6c2c4cafaf31849b2110fe3638888de17f32be6a82",
        "out/cat_theta_0.15pi.csv": "82544efc9a3d8e05a0768dac757a588889da0374e192ffec3ea6b897dae145aa",
        "out/cat_theta_0.25pi.csv": "5b4c679dfea3b8d9b4b3775449e04b0973af47a76fa0639c4d5b55a22e97b00f",
        "out/cat_theta_0.35pi.csv": "b74cf92ca2ec6e0f766f04df97093e33a91bae10f49b45b9b4ea5a1c7a3dddf7",
        "out/cat_theta_0pi.csv": "ac69fc8af294209a05a684593d01164e224846af993a8646b43ca14670d33bc5",
    },
    "cli-phasespace": {
        "<stdout>": "03bbdff2a2edd3997fb4542f22d5b967284e952ed78a7eaed3e794316b1a5f15",
    },
    "cli-state": {
        "<stdout>": "c26ff9930d2c8bb98f1cf70f7c77ff1f92496f71332bafd6c4d9e199ab1089fe",
    },
    "cli-tomography-mub": {
        "<stdout>": "7f7c7b8eb15b1a099d428f7cdf810a3bd731b5ec56f74037f4b273776cfaa71f",
    },
    "cli-tomography-pauli-exact": {
        "<stdout>": "5005b26099e10708ca33aa5f0aefa036c8efcd0bb7cd65fb93f29223f49a20e5",
    },
    "measure-mub-mc": {
        "<stdout>": "92726c9b558f655c0be87a7f47a46531d9aa31a3066de4ba4c8a6e9e12a60055",
    },
    "measure-stoke-exact-json": {
        "<stdout>": "28cb898687b98527f7a9cd57c7c34ec3477f8200e2808252278c195b47947dd0",
    },
    "measure-xyz": {
        "out": "4ebe69bf01ae4db569a24513c5aeff58acab69e1f408d88032062f4179225fba",
    },
    "phasespace-husimi-planar": {
        "out": "c11234c3099714d1aeaefc59c7db08459e907b0f9af9cf1e1850ff14eab3ab5b",
    },
    "phasespace-wigner-planar-json": {
        "<stdout>": "859894e1e81d70b067752da818b8f45d3a63f1fc73c191fdb02de8a93be50bfd",
    },
    "state-basis": {
        "<stdout>": "7393422264b3ed5edaeeb126d5a4fb9224145b8060360786618a5e78f626bd73",
    },
    "state-coherent-amplitude-noise": {
        "<stdout>": "8d50eabae6f7409cb61b264730a54307543b4bc5c0d70e5c1925cb005982df41",
    },
    "state-coherent-json": {
        "out": "72a740e6496e76e8e3207818074c4c46413a29a5e3578c9c601ad67816c8a4b0",
    },
    "state-dicke-white-noise": {
        "out": "a06dbded925de26d81efce51ed0eccbc68bf2f62d9e72ab0a9daa10538acd17c",
    },
    "state-ghz-overflowing-noise": {
        "<stdout>": "9f59f37943c789f46d34409b64578e9e1758779ae4f928c84519c968b1a35bc9",
    },
    "state-position": {
        "<stdout>": "c6175cf33f369e6d80c8dc8c272cac92a370b3ba41a75ed248aa140d4eaec926",
    },
    "state-spin-coherent": {
        "<stdout>": "4595447aed2ad587e00ef4ba885ae4ac97eb43e0c03212b32b105109bf092362",
    },
    "state-squeezed": {
        "<stdout>": "4667790628cdb7da5f38011972c160d0f6895ffccaafbc37bea530545463e1b7",
    },
    "state-zeeman-json": {
        "<stdout>": "86f82616d833d7530d39689c270c46cd941faa1cac1060d7177acc69c39cd36e",
    },
    "tomography-pauli-cdf-csv-x3": {
        "out": "cb45cf8ca59f49112aca98b1a67c3f09fe9605a2f7086e1c7ca7e970646d5b97",
    },
    "tomography-sic-exact-json": {
        "<stdout>": "1769ad2737a7c0ed9527a69c663f0f673aa783aa74acf6a75bdf121623e5b87e",
    },
    "tomography-sic-mc-json-x3": {
        "out": "9eeba52bdbd7a3fab2001e6d3a5a21381bf9c9d4883d166b576cc12821991a21",
    },
    "tomography-stoke-mc-csv": {
        "out": "84a6f9513b10986396e6273eb2229a4fa62f0d8bb669d41db137b50cc719d42d",
    },
    "tomography-stoke-mc-json": {
        "out": "76eb1f175a23bff1a047913be450dc4e5e0be007915e8b7978602b8330fd7c0c",
    },
}


def test_corpus_covers_every_row():
    assert sorted(_DIGESTS) == sorted(_COMMANDS)


@pytest.mark.parametrize("row", sorted(_COMMANDS))
def test_cli_output_keeps_its_recorded_bytes(row, tmp_path, monkeypatch, capsys):
    code, digests = _run(_COMMANDS[row], tmp_path, monkeypatch, capsys)
    assert code == 0
    # the bytes hold only where the platform digest matches, so they may be
    # skipped elsewhere but never on the machine that recorded them
    if _platform_digest() != _PLATFORM_DIGEST:
        pytest.skip("output bits depend on NumPy's SIMD math and the BLAS/LAPACK build")
    assert digests == _DIGESTS[row]


_HUGE = str(2**96)     # past what NumPy can index: refused before anything is allocated
_SPIN = "spin 1e+29 needs 199999999999999982866301714433"


def _below(flag, value, least=1):
    """argparse's refusal of a count below ``least``."""
    return 2, f"error: argument {flag}: must be an integer >= {least}, got '{value}'"


def _too_big(needs):
    """The refusal of a size past the size limit, before anything is allocated."""
    return 3, f"UnsupportedDimension: {needs} complex entries, over the 1 GiB limit"


# argv -> (exit code, stderr).  A stderr that starts "error: " is argparse's
# (SystemExit(2)), and only the start of what follows "<prog>: error: " is
# pinned: argparse's wording and wrapping move with the Python version and
# COLUMNS.  Any other stderr, a usage error that main returns (exit 2) or a
# library failure (exit 3 or 4), is pinned whole; no BLAS or SIMD build moves it.
# Where rows share a long tail of flags, the flag that differs comes first, so
# each row's test id stays distinct in reports that cut ids at 100 characters.
_FAILURES = {
    # argparse: a count below 1 (a seed below 0), a name outside the choices,
    # and the flags that metrology does not read
    "bench-povm --repeats 0": _below("--repeats", "0"),
    "bench-povm --repeats -1": _below("--repeats", "-1"),
    "bench-povm --repeats abc": _below("--repeats", "abc"),
    "backend-compare --samples -2": _below("--samples", "-2"),
    "backend-compare --samples 0": _below("--samples", "0"),
    "backend-compare --samples 1.5": _below("--samples", "1.5"),
    "backend-compare --samples 3 --iterations 0 --no-timing": _below("--iterations", "0"),
    "metrology --points -1": _below("--points", "-1"),
    "metrology --points 0": _below("--points", "0"),
    "tomography --name ghz --n 1 --set sic --repeats 0": _below("--repeats", "0"),
    "measure --name ghz --n 1 --set xyz --shots 0": _below("--shots", "0"),
    "state --name ghz --n 2 --seed -1": _below("--seed", "-1", least=0),
    "state --name bogus": (2, "error: argument --name: invalid choice: 'bogus'"),
    # metrology writes CSV files into --out-dir and draws nothing; --out is not read as --out-dir
    "metrology --format json": (2, "error: unrecognized arguments: --format json"),
    "metrology --out x.json": (2, "error: unrecognized arguments: --out x.json"),
    "metrology --seed 3": (2, "error: unrecognized arguments: --seed 3"),
    # usage errors that main returns
    "state --name ghz": (2, "usage error: state 'ghz' requires --n"),
    "tomography --name ghz --n 1 --set sic --shots never --out x.csv": (
        2, "usage error: --shots must be 'exact' or an integer >= 1, got 'never'"),
    "metrology --thetas-pi abc": (2, "usage error: --thetas-pi must be a comma list of numbers, "
                                     "got 'abc'"),
    # sizes past the size limit
    "state --name ghz --n 64": _too_big("a 64-qubit state needs 2**64"),
    "state --name w --n 64": _too_big("a 64-qubit state needs 2**64"),
    f"state --name basis --d {_HUGE} --k 0": _too_big(f"dimension {_HUGE} needs {_HUGE}"),
    f"state --name coherent --d {_HUGE} --alpha 1": _too_big(f"dimension {_HUGE} needs {_HUGE}"),
    f"state --name squeezed --d {_HUGE} --alpha 1 --beta 1": _too_big(
        f"dimension {_HUGE} needs {_HUGE}**2"),
    f"state --name random --d {_HUGE}": _too_big(f"dimension {_HUGE} needs {_HUGE}"),
    "state --name zeeman --j 1e29 --m 0": _too_big(_SPIN),
    "state --name spin-coherent --j 1e29 --theta 1": _too_big(_SPIN),
    "metrology --j 1e29": _too_big(_SPIN + "**2"),
    f"metrology --j 1 --points {_HUGE}": _too_big(
        f"a phase grid of {_HUGE} points needs {3 * 2**96}"),
    f"phasespace --name coherent --d 3 --alpha 1 --nx {_HUGE} --map husimi --coords planar": (
        _too_big(f"a {_HUGE} x 61 grid needs {61 * 2**96}")),
    f"phasespace --name coherent --d 3 --alpha 1 --nphi {_HUGE} --map husimi --coords spherical": (
        _too_big(f"a 61 x {_HUGE} grid needs {61 * 2**96}")),
    f"backend-compare --samples {_HUGE} --no-timing": _too_big(
        f"a grid of {_HUGE} samples needs {_HUGE}"),
    # the 6-qubit Pauli stack would take 2.85 GiB
    "tomography --name ghz --n 6 --set pauli --shots exact --out x.csv": _too_big(
        "a 6-qubit Pauli set needs 24**6"),
    "measure --name random --d 97 --set mub": _too_big("dimension 97 needs 97**4"),
    # sets that the state's dimension does not admit
    "measure --name coherent --d 3 --alpha 1 --set pauli": (
        3, "UnsupportedDimension: pauli set needs a 2^n-dimensional state, got d=3"),
    "measure --name random --d 3 --set pauli --out x.csv": (
        3, "UnsupportedDimension: pauli set needs a 2^n-dimensional state, got d=3"),
    "measure --name random --d 6 --set mub --out x.csv": (
        3, "UnsupportedDimension: MUB sets need a prime-power dimension, got 6"),
    "measure --name coherent --d 3 --alpha 1 --set xyz --backend exact --out x.csv": (
        3, "UnsupportedDimension: xyz set needs a qubit (d=2), got d=3"),
    # invalid quantum numbers and parameters
    "state --name zeeman --j nan --m 0": (
        4, "InvalidQuantumNumber: spin must be a non-negative half-integer, got nan"),
    "metrology --j inf --out-dir out": (
        4, "InvalidQuantumNumber: spin must be a non-negative half-integer, got inf"),
    "state --name dicke --n 3 --k 4": (4, "InvalidQuantumNumber: excitation count 4 outside 0..3"),
    "metrology --j 0": (4, "InvalidParameter: scenario dimension must be an integer >= 2, got 1"),
    "metrology --j 2 --points 1": (
        4, "InvalidParameter: phase grid needs at least two points, got 1"),
    "measure --name ghz --n 1 --set pauli --backend cdf --shots 36893488147419103232": (
        4, "InvalidParameter: iterations must be at most 2**53, got 36893488147419103232"),
    "backend-compare --iterations 9007199254740993 --no-timing": (
        4, "InvalidParameter: iterations must be at most 2**53, got 9007199254740993"),
    "backend-compare --iterations 36893488147419103232 --no-timing": (
        4, "InvalidParameter: iterations must be at most 2**53, got 36893488147419103232"),
    # non-finite values, printed to stdout and written with --out: neither prints nor writes
    "state --name coherent --d 3 --alpha 1 --noise-std nan": (
        4, "InvalidParameter: noise stdev must be finite and real within [0, inf], got nan"),
    "state --name coherent --d 3 --alpha 1 --noise-std nan --out s.csv": (
        4, "InvalidParameter: noise stdev must be finite and real within [0, inf], got nan"),
    "state --name coherent --d 3 --alpha 1 --noise-mean nan": (
        4, "InvalidParameter: noise mean must be finite and real, got nan"),
    "state --name coherent --d 3 --alpha 1 --noise-mean nan --out s.csv": (
        4, "InvalidParameter: noise mean must be finite and real, got nan"),
    "state --name coherent --d 3 --alpha=nan": (
        4, "InvalidParameter: alpha must be a finite number, got (nan+0j)"),
    "state --name coherent --d 3 --alpha=nan --out s.csv": (
        4, "InvalidParameter: alpha must be a finite number, got (nan+0j)"),
    "state --name spin-coherent --j 1 --theta nan": (
        4, "InvalidParameter: theta must be finite and real, got nan"),
    "state --name spin-coherent --j 1 --theta nan --out s.csv": (
        4, "InvalidParameter: theta must be finite and real, got nan"),
    "state --name squeezed --d 3 --alpha 0 --beta=inf": (
        4, "InvalidParameter: beta must be a finite number, got (inf+0j)"),
    "state --name squeezed --d 3 --alpha 0 --beta=inf --out s.csv": (
        4, "InvalidParameter: beta must be a finite number, got (inf+0j)"),
    "state --name position --d 3 --x nan": (
        4, "InvalidParameter: x must be finite and real, got nan"),
    "state --name position --d 3 --x nan --out s.csv": (
        4, "InvalidParameter: x must be finite and real, got nan"),
    "phasespace --name coherent --d 3 --alpha=nan --map husimi --coords planar": (
        4, "InvalidParameter: alpha must be a finite number, got (nan+0j)"),
    "phasespace --name coherent --d 3 --alpha=nan --out s.csv --map husimi --coords planar": (
        4, "InvalidParameter: alpha must be a finite number, got (nan+0j)"),
    # planar grids: non-finite or far ends
    "phasespace --name coherent --d 10 --alpha 1 --xmin nan --map wigner --coords planar "
    "--out w.csv": (
        4, "InvalidParameter: x_range must be finite and real within [-1e+150, 1e+150], got nan"),
    "phasespace --name coherent --d 10 --alpha 1 --ymax inf --map wigner --coords planar "
    "--out w.csv": (
        4, "InvalidParameter: y_range must be finite and real within [-1e+150, 1e+150], got inf"),
    "phasespace --name coherent --d 10 --alpha 1 --xmax=-inf --map wigner --coords planar "
    "--out w.csv": (
        4, "InvalidParameter: x_range must be finite and real within [-1e+150, 1e+150], got -inf"),
    "phasespace --name coherent --d 3 --alpha 1 --map wigner --coords planar --xmin 1e200 "
    "--xmax 1e201 --nx 2 --ny 2": (
        4, "InvalidParameter: x_range must be finite and real within [-1e+150, 1e+150], "
           "got 1e+200"),
    # and points where the map of a large cutoff overflows
    "phasespace --name coherent --d 1500 --alpha 38 --xmin 37.9 --xmax 38 --ymin 0 --ymax 0 "
    "--nx 2 --ny 2 --map husimi --coords planar": (
        4, "InvalidParameter: Husimi map of dimension 1500 overflows at |alpha|^2 = 1436.41"),
    # paths that cannot be written: a missing directory, and a directory under a file
    "state --name ghz --n 1 --out /dev/null/x.csv": (
        4, "InvalidParameter: cannot write /dev/null/x.csv: [Errno 20] Not a directory: "
           "'/dev/null/x.csv'"),
    "phasespace --name coherent --d 3 --alpha 1 --out missing/x.csv --map husimi --coords planar "
    "--nx 2 --ny 2": (
        4, "InvalidParameter: cannot write missing/x.csv: [Errno 2] No such file or directory: "
           "'missing/x.csv'"),
    "metrology --j 1 --points 3 --thetas-pi 0 --out-dir /dev/null/sub": (
        4, "InvalidParameter: cannot create /dev/null/sub: [Errno 20] Not a directory: "
           "'/dev/null/sub'"),
}


@pytest.mark.parametrize("argv", list(_FAILURES), ids=lambda argv: argv.replace(_HUGE, "HUGE"))
def test_failing_command(argv, tmp_path, monkeypatch, capsys):
    want_code, want = _FAILURES[argv]
    monkeypatch.chdir(tmp_path)
    try:
        code, returned = main(argv.split()), True
    except SystemExit as e:
        code, returned = e.code, False
    out, err = capsys.readouterr()
    assert (code, out, list(tmp_path.iterdir())) == (want_code, "", [])
    if want.startswith("error: "):
        assert not returned and err.partition(": error: ")[2].startswith(want[len("error: "):])
    else:
        assert returned and err == want + "\n"


# mc draws one binomial variate per element, so it takes shot counts whose
# uniforms no sampler could hold: command -> (estimate, target) pairs of one
# output row, each within 1e-5 (10^12 shots put the noise near 1e-6)
_ANY_SHOTS = {
    "measure --name ghz --n 1 --set pauli --backend mc --shots 1000000000000":
        lambda row: [(row["frequency"], row["probability"])],
    "tomography --name ghz --n 1 --set sic --backend mc --shots 1000000000000":
        lambda row: [(row["fidelity"], "1"), (row["trace_distance"], "0")],
    "backend-compare --iterations 1000000000000 --no-timing":
        lambda row: [(row["mc"], row["exact"])],
}


@pytest.mark.parametrize("argv", list(_ANY_SHOTS), ids=lambda argv: argv.split()[0])
def test_mc_takes_any_shot_count(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(argv.split())
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    *_, head = (line[2:].split(",") for line in out.splitlines() if line.startswith("# "))
    rows = [dict(zip(head, line.split(","))) for line in out.splitlines() if line[:1] != "#"]
    pairs = [pair for row in rows for pair in _ANY_SHOTS[argv](row)]
    assert pairs and all(abs(float(got) - float(want)) <= 1e-5 for got, want in pairs)


def test_planar_husimi_command_maps_points_past_the_old_reach(tmp_path, monkeypatch, capsys):
    # |alpha|^2 reaches 1,765 on this grid, past the 1,490 where e^{-|alpha|^2 / 2}
    # is 0: the map is the 50-digit sum at every point, about 1/pi
    argv = ("phasespace --name coherent --d 40 --alpha 30 --map husimi --coords planar "
            "--xmin 36 --xmax 42 --ymin 0 --ymax 1 --nx 4 --ny 2")
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert (err, lines[0], len(lines)) == ("", "# kind=husimi coords=planar n1=2 n2=4", 9)
    psi = coherent(40, 30).data.ravel()
    for line in lines[1:]:
        y, x, value = map(float, line.split(","))
        exact = _exact_husimi(psi, complex(x, y))
        assert abs(decimal.Decimal(value) - exact) <= exact * decimal.Decimal("1e-13")
