import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmkit
from conftest import random_density, random_ket
from qmkit import (
    MeasurementSet,
    MetrologyScenario,
    QuantumObject,
    SamplerBackend,
    basis,
    build_mub_set,
    build_pauli_set,
    build_sic_set,
    build_stoke_set,
    classical_fisher,
    density_matrix,
    diagonalize,
    eigen,
    encode_phase,
    fidelity,
    ghz,
    identity,
    measure_and_sample,
    normalize,
    probabilities,
    quantum_fisher,
    reconstruct_linear_inversion,
    run_scenario,
    run_tomography,
    spin,
    to_operator,
    trace_distance,
    trace_distance_pure,
)
from qmkit.errors import (
    DimensionMismatch,
    InvalidDistribution,
    InvalidObject,
    NotHermitian,
    NotPositive,
    QmkitError,
    RankDeficientSet,
    ZeroNorm,
)
from qmkit.cli import main as cli_main


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def test_trace_distance_pure_cases(rng):
    psi = random_ket(rng, 4)
    # sqrt(1 - |<psi|psi>|^2) amplifies roundoff to ~1e-8 for identical states
    assert trace_distance_pure(psi, psi) == pytest.approx(0.0, abs=1e-7)
    assert trace_distance_pure(basis(2, 0), basis(2, 1)) == pytest.approx(1.0)
    # overlap 1/sqrt2 -> distance 1/sqrt2
    from qmkit import normalize
    phi = normalize([1.0, 1.0])
    assert trace_distance_pure(basis(2, 0), phi) == pytest.approx(1 / math.sqrt(2))


@pytest.mark.parametrize("pair", [(identity(2) / 2, basis(2, 0)), (basis(2, 0), [[1.0]]),
                                  (basis(2, 0).data.T, basis(2, 0))])
def test_trace_distance_pure_takes_two_kets_only(pair):
    with pytest.raises(DimensionMismatch, match="expects two kets"):
        trace_distance_pure(*pair)


def test_trace_distance_cases():
    rho = random_density(np.random.default_rng(0), 3)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)
    assert trace_distance(identity(2) / 2, to_operator(basis(2, 0))) == pytest.approx(0.5)
    assert trace_distance(basis(2, 0), basis(2, 1)) == pytest.approx(1.0)


def test_fidelity_cases():
    rho = random_density(np.random.default_rng(1), 4)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    assert fidelity(basis(2, 0), basis(2, 1)) == pytest.approx(0.0, abs=1e-8)
    assert fidelity(identity(2) / 2, basis(2, 0)) == pytest.approx(1 / math.sqrt(2))


def test_fidelity_refuses_a_state_whose_hermitian_part_is_not_positive():
    # b passes the state rule: it is Hermitian to 1e-10 and eigh reads only its lower
    # triangle, |1><1|; on the uniform ket u over 2..d-1, <u|b|u> = -0.9e-10 (d - 3) / 2
    d = 400
    b = np.triu(np.full((d, d), -0.9e-10), 1)
    b[:2] = 0.0
    b[1, 1] = 1.0
    u = np.r_[0.0, 0.0, np.ones(d - 2)] / np.sqrt(d - 2)
    with pytest.raises(NotPositive, match="fidelity operand has eigenvalue -1.787e-08"):
        fidelity(u, b)


def test_metric_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        trace_distance(identity(2), identity(3))
    with pytest.raises(DimensionMismatch):
        trace_distance(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(DimensionMismatch):
        trace_distance_pure(basis(2, 0), basis(3, 0))


def test_only_the_set_rule_asks_whether_an_argument_is_a_set():
    sources = Path(qmkit.__file__).parent.glob("*.py")
    asks = [(path.name, line.strip()) for path in sources
            for line in path.read_text(encoding="utf-8").splitlines()
            if "isinstance(" in line and "MeasurementSet" in line]
    assert asks == [("measurement.py", "if isinstance(ops, MeasurementSet):")]


def test_only_the_set_module_reads_a_stack_as_floats_or_writes_a_sets_fields():
    # the float view needs a C-ordered stack, which only measurement.py guarantees
    lines = [(path.name, line.strip())
             for path in sorted(Path(qmkit.__file__).parent.glob("*.py"))
             if path.name != "measurement.py"
             for line in path.read_text(encoding="utf-8").splitlines()]
    assert [line for line in lines if ".stack.view(" in line[1]] == []
    targets = [(name, line.split("object.__setattr__(", 1)[1].split(",")[0])
               for name, line in lines if "object.__setattr__(" in line]
    assert targets == [("metrology.py", "self"), ("phasespace.py", "grid"),
                       ("phasespace.py", "grid")]
    # nor reads a set's layout: its stack (np.stack is NumPy's), cached inversion
    # data or index rows; a set is asked through _forward and _estimate instead
    layout = re.compile(r"\._inversion|\._blocks|\._members|(?<!\bnp)\.stack\b")
    assert [line for line in lines if layout.search(line[1])] == []


_SET_STATE, _SET_GENERATOR = ghz(2), np.diag([0.0, 1.0, 2.0, 3.0])
_EACH_LAYOUT = pytest.mark.parametrize(
    "make_set", [lambda: build_pauli_set(2), lambda: build_stoke_set(2), lambda: build_sic_set(4)],
    ids=["grouped", "ungrouped", "single-group"])


@_EACH_LAYOUT
def test_public_callers_reach_a_set_only_through_its_forward_map_and_estimate(monkeypatch,
                                                                              make_set):
    calls = {"_forward": 0, "_estimate": 0}

    def counted(name):
        method = getattr(MeasurementSet, name)

        def wrapper(self, *args):
            calls[name] += 1
            return method(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(MeasurementSet, name, counted(name))

    def count(fn):
        calls.update(_forward=0, _estimate=0)
        fn()
        return calls["_forward"], calls["_estimate"]

    mset = make_set()
    assert count(lambda: probabilities(_SET_STATE, mset)) == (1, 0)
    for method in ("mc", "cdf"):
        assert count(lambda: measure_and_sample(_SET_STATE, mset, SamplerBackend(method, 1),
                                                50)) == (1, 0)
    assert count(lambda: classical_fisher(
        lambda phi: encode_phase(_SET_STATE, _SET_GENERATOR, phi), mset, 0.3)) == (3, 0)
    assert count(lambda: reconstruct_linear_inversion(np.full(len(mset), 0.25), mset)) == (0, 1)
    assert count(lambda: run_tomography(_SET_STATE, mset)) == (1, 1)
    assert count(lambda: run_tomography(_SET_STATE, mset, 1000, SamplerBackend("cdf", 2))) == (1, 1)


class _Stackless(MeasurementSet):
    """A set laid out like ``real`` but built without a stack, as a subclass that makes
    its stack on first read would be: it counts the reads of ``stack`` and answers
    ``_forward`` and ``_estimate`` through ``real``."""

    def __init__(self, real):
        self.real, self.reads = real, 0
        self._lay_out(real.kind, len(real), real.dim, real.groups)

    @property
    def stack(self):
        self.reads += 1
        return self.real.stack

    def _forward(self, rho):
        return self.real._forward(rho)

    def _estimate(self, freqs):
        return self.real._estimate(freqs)


@_EACH_LAYOUT
def test_a_set_answers_every_caller_but_elements_without_reading_its_stack(make_set):
    real = make_set()
    stackless = _Stackless(real)
    freqs = np.linspace(0.0, 0.5, len(real))

    def answers(ms):
        return [len(ms), ms.dim, ms.groups, ms.group_sums(freqs).tobytes(),
                *(measure_and_sample(_SET_STATE, ms, SamplerBackend(m, 1), 50).tobytes()
                  for m in ("mc", "cdf")),
                reconstruct_linear_inversion(freqs, ms).data.tobytes()]
    assert answers(stackless) == answers(real)
    assert stackless.reads == 0
    assert [e.data.tobytes() for e in stackless.elements] == [e.data.tobytes()
                                                              for e in real.elements]
    assert stackless.reads == 1


def test_each_object_is_decomposed_once(monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        solver = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return solver(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))

    def count(fn):
        calls.update(eigh=0, eigvalsh=0)
        fn()
        return dict(calls)

    psi, h = normalize([1.0, 1j, 2.0]), spin(1, "z")
    assert count(lambda: quantum_fisher(psi, h)) == {"eigh": 1, "eigvalsh": 0}
    assert count(lambda: run_scenario(MetrologyScenario(
        probe=psi, generator=h, phis=[0.0, 0.5], observable=spin(1, "x")))) == {"eigh": 1,
                                                                               "eigvalsh": 0}
    # a ket is a state by construction: its score decomposes only the difference
    assert count(lambda: trace_distance(psi, [1.0, 0.0, 0.0])) == {"eigh": 0, "eigvalsh": 1}
    # one eigh for the state, one for the PSD projection; each score's kernel
    # decomposes a matrix it built
    rho = np.diag([0.5, 0.25, 0.25, 0.0]).astype(complex)
    assert count(lambda: run_tomography(rho, build_sic_set(4))) == {"eigh": 2, "eigvalsh": 2}
    # eigen and diagonalize of a checked state read the decomposition the check kept
    state = QuantumObject(rho)
    assert count(lambda: (density_matrix(state), eigen(state), diagonalize(state))) == {
        "eigh": 1, "eigvalsh": 0}


def test_eigen_of_a_checked_state_equals_eigen_of_its_matrix_bitwise(rng):
    for d in range(2, 7):
        rho = random_density(rng, d, rank=1 + d // 2).data
        state = QuantumObject(rho)
        fidelity(state, identity(d) / d)               # keeps the eigh on state
        got, want = eigen(state), eigen(rho)
        np.testing.assert_array_equal(got.values, want.values)
        for a, b in zip(got.vectors, want.vectors):
            np.testing.assert_array_equal(a.data, b.data)
        np.testing.assert_array_equal(diagonalize(state).data, diagonalize(rho).data)


def test_run_scores_equal_public_metrics_bitwise(rng):
    for mset, shots in ((build_sic_set(4), None), (build_sic_set(4), 300),
                        (build_pauli_set(2), 300), (build_stoke_set(2), None)):
        rho = random_density(rng, 4, rank=2)
        run = run_tomography(rho, mset, shots, SamplerBackend("cdf", 1))
        assert run.fidelity == fidelity(rho, run.reconstructed)
        assert run.trace_distance == trace_distance(rho, run.reconstructed)


def test_run_tomography_refuses_a_non_state_estimate():
    with pytest.raises(InvalidObject):
        run_tomography(basis(2, 0), build_pauli_set(1), estimator=lambda f, ms: identity(2))
    with pytest.raises(DimensionMismatch):
        run_tomography(basis(2, 0), build_pauli_set(1),
                       estimator=lambda f, ms: identity(3) / 3)


def test_metric_axioms_random_triples(rng):
    for _ in range(50):
        d = int(rng.integers(2, 9))
        a, b, c = (random_density(rng, d) for _ in range(3))
        dab = trace_distance(a, b)
        dba = trace_distance(b, a)
        assert dab >= 0
        assert abs(dab - dba) < 1e-10
        assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-8


def test_fuchs_van_de_graaff(rng):
    for _ in range(50):
        d = int(rng.integers(2, 7))
        rho, sigma = random_density(rng, d), random_density(rng, d)
        f = fidelity(rho, sigma)
        dist = trace_distance(rho, sigma)
        assert 1 - f <= dist + 1e-8
        assert dist <= math.sqrt(max(0.0, 1 - f * f)) + 1e-8


def test_pure_state_distance_consistency(rng):
    # each ket is normalised on use, unit norm or not
    assert trace_distance_pure([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / math.sqrt(2))
    for _ in range(20):
        psi, phi = (random_ket(rng, 5).data * s for s in rng.uniform(0.01, 100.0, 2))
        d_pure = trace_distance_pure(psi, phi)
        d_mixed = trace_distance(to_operator(psi), to_operator(phi))
        assert abs(d_pure - d_mixed) < 1e-12
    with pytest.raises(ZeroNorm):
        trace_distance_pure([0.0, 0.0], [1.0, 0.0])


# ---------------------------------------------------------------------------
# linear inversion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make_set", [lambda: build_pauli_set(2),
                                      lambda: build_sic_set(4)])
def test_exact_inversion_recovers_random_states(make_set, rng):
    mset = make_set()
    for _ in range(25):
        rho = random_density(rng, 4)
        rec = reconstruct_linear_inversion(probabilities(rho, mset), mset)
        assert fidelity(rho, rec) >= 1 - 1e-9
        assert trace_distance(rho, rec) <= 1e-8


def test_inversion_maximally_mixed_fixed_point():
    mset = build_sic_set(3)
    rec = reconstruct_linear_inversion(probabilities(identity(3) / 3, mset), mset)
    np.testing.assert_allclose(rec.data, np.eye(3) / 3, atol=1e-8)


def test_stoke_set_supports_inversion(rng):
    mset = build_stoke_set(2)
    rho = random_density(rng, 4)
    rec = reconstruct_linear_inversion(probabilities(rho, mset), mset)
    assert fidelity(rho, rec) >= 1 - 1e-9


def test_rank_deficient_set_rejected():
    incomplete = MeasurementSet(
        kind="custom",
        elements=(to_operator(basis(2, 0)), to_operator(basis(2, 1))),
        groups=((0, 1),),
    )
    with pytest.raises(RankDeficientSet):
        reconstruct_linear_inversion([0.5, 0.5], incomplete)


def _loop_basis(d):
    """Traceless Hermitian basis built element by element."""
    out = []
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1 / np.sqrt(2)
            out.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j], m[j, i] = -1j / np.sqrt(2), 1j / np.sqrt(2)
            out.append(m)
    for l in range(1, d):
        m = np.diag([1.0] * l + [-l] + [0.0] * (d - l - 1)).astype(complex)
        out.append(m / np.sqrt(l * (l + 1)))
    return out


def _lstsq_reconstruction(freqs, mset):
    """Reference linear inversion: np.linalg.lstsq on the explicit design
    matrix, then the same PSD clip-and-renormalize."""
    f = np.asarray(freqs, dtype=float).copy()
    for idx in mset.groups:
        f[list(idx)] /= f[list(idx)].sum()
    d = mset.dim
    B = _loop_basis(d)
    M = np.array([[np.real(np.trace(e.data @ b)) for b in B] for e in mset.elements])
    offset = np.array([np.trace(e.data).real / d for e in mset.elements])
    x, *_ = np.linalg.lstsq(M, f - offset, rcond=None)
    rho = np.eye(d) / d + sum(xa * b for xa, b in zip(x, B))
    vals, vecs = np.linalg.eigh(rho)
    vals = np.clip(vals, 0.0, None)
    return (vecs * (vals / vals.sum())) @ vecs.conj().T


def _noisy_frequencies(rng, mset):
    probs = probabilities(random_density(rng, mset.dim), mset)
    return np.clip(probs + rng.normal(0, 0.01, len(probs)), 0.0, 1.0)


_ORACLE_SETS = ([(build_pauli_set, n) for n in (1, 2, 3)]
                + [(build_stoke_set, n) for n in (1, 2, 3)]
                + [(build_mub_set, d) for d in (2, 3, 4, 5, 7, 8, 9)]
                + [(build_sic_set, d) for d in range(2, 9)])


@pytest.mark.parametrize("builder,param", _ORACLE_SETS)
def test_inversion_matches_lstsq_oracle(builder, param):
    mset = builder(param)
    rng = np.random.default_rng(param)
    for _ in range(3):
        f = _noisy_frequencies(rng, mset)
        rec = reconstruct_linear_inversion(f, mset)
        np.testing.assert_allclose(rec.data, _lstsq_reconstruction(f, mset), rtol=0, atol=1e-12)


def test_inversion_map_is_kept_per_set(rng):
    pauli2, sic4 = build_pauli_set(2), build_sic_set(4)
    # same dimension and size as pauli2, different elements and groups
    order = rng.permutation(len(pauli2))
    shuffled = MeasurementSet(kind="custom", elements=pauli2.stack[order][::-1].copy())
    sets = (pauli2, sic4, shuffled)
    for _ in range(3):
        for mset in sets:
            f = _noisy_frequencies(rng, mset)
            np.testing.assert_allclose(reconstruct_linear_inversion(f, mset).data,
                                       _lstsq_reconstruction(f, mset), rtol=0, atol=1e-12)
            assert mset._inversion is mset._inversion           # made once, kept on the set
    # each set's data is its own, the orthonormal traceless basis included
    basis = pauli2._inversion[3]
    assert basis is not shuffled._inversion[3] and np.array_equal(basis, shuffled._inversion[3])
    np.testing.assert_allclose(basis @ basis.T, np.eye(15), rtol=0, atol=1e-15)


def test_rank_deficient_set_rejected_on_every_call():
    incomplete = MeasurementSet(kind="custom", elements=build_pauli_set(1).stack[:4].copy())
    for _ in range(3):
        with pytest.raises(RankDeficientSet):
            reconstruct_linear_inversion([0.5, 0.5, 0.5, 0.5], incomplete)


def test_reconstruction_is_physical(rng):
    mset = build_pauli_set(1)
    backend = SamplerBackend(method="mc", seed=5)
    freqs = np.clip(probabilities(random_ket(rng, 2), mset)
                    + rng.normal(0, 0.05, 6), 0, 1)
    rec = reconstruct_linear_inversion(freqs, mset)
    assert rec.is_hermitian()
    vals = np.linalg.eigvalsh(rec.data)
    assert vals.min() >= -1e-10
    assert np.trace(rec.data).real == pytest.approx(1.0, abs=1e-10)
    del backend


def test_sampled_ghz2_fidelity():
    mset = build_pauli_set(2)
    state = ghz(2)
    fids = []
    for seed in range(20):
        run = run_tomography(state, mset, shots=10_000,
                             backend=SamplerBackend(method="cdf", seed=seed))
        fids.append(run.fidelity)
    assert np.mean(fids) >= 0.97


def test_fidelity_improves_with_shots():
    mset = build_pauli_set(2)
    state = ghz(2)
    lo, hi = [], []
    for seed in range(20):
        lo.append(run_tomography(state, mset, shots=100,
                                 backend=SamplerBackend("cdf", seed)).fidelity)
        hi.append(run_tomography(state, mset, shots=10_000,
                                 backend=SamplerBackend("cdf", seed)).fidelity)
    assert np.mean(hi) >= np.mean(lo)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def test_run_tomography_exact():
    run = run_tomography(ghz(2), build_pauli_set(2))
    assert run.shots is None and run.backend == "exact"
    assert run.trace_distance <= 1e-8
    assert 1 - run.fidelity <= run.trace_distance + 1e-8


def test_run_tomography_deterministic():
    mset = build_sic_set(2)
    a = run_tomography(ghz(1), mset, shots=500, backend=SamplerBackend("cdf", 7))
    b = run_tomography(ghz(1), mset, shots=500, backend=SamplerBackend("cdf", 7))
    np.testing.assert_array_equal(a.reconstructed.data, b.reconstructed.data)
    assert a.fidelity == b.fidelity


def test_run_tomography_samples_with_the_cdf_backend_at_seed_0_by_default():
    mset = build_mub_set(3)
    state = normalize([1.0, 1j, 0.5])
    default = run_tomography(state, mset, shots=300)
    named = run_tomography(state, mset, shots=300, backend=SamplerBackend("cdf", 0))
    assert (default.backend, default.seed) == ("cdf", 0)
    np.testing.assert_array_equal(default.reconstructed.data, named.reconstructed.data)
    assert default.report() == named.report()


def test_run_tomography_pluggable_estimator():
    mset = build_pauli_set(1)
    calls = []

    def fake_estimator(freqs, ms):
        calls.append(len(freqs))
        return identity(2) / 2

    run = run_tomography(basis(2, 0), mset, estimator=fake_estimator)
    assert calls == [6]
    assert run.fidelity == pytest.approx(1 / math.sqrt(2))


def test_fuchs_relation_on_runs():
    # scores of sampled runs satisfy 1 - F <= D
    mset = build_sic_set(2)
    for seed in range(5):
        run = run_tomography(ghz(1), mset, shots=200,
                             backend=SamplerBackend("cdf", seed))
        assert 1 - run.fidelity <= run.trace_distance + 1e-8


@pytest.mark.parametrize("operator, error", [
    (np.diag([2.0, 0.0]), InvalidObject),                # trace 2
    (np.diag([1.5, -0.5]), NotPositive),                 # unit trace, not PSD
    (np.array([[0.5, 0.5], [0.0, 0.5]]), NotHermitian),  # unit trace, not Hermitian
    (np.zeros(2), ZeroNorm),                             # zero ket
])
def test_run_tomography_rejects_non_states(operator, error):
    assert issubclass(error, QmkitError)
    for shots in (None, 100):
        with pytest.raises(error):
            run_tomography(operator, build_pauli_set(1), shots=shots)


def test_run_tomography_state_tolerances():
    ket = 2.0 * basis(2, 0)                              # kets are normalized first
    assert run_tomography(ket, build_pauli_set(1)).fidelity == pytest.approx(1.0)
    run_tomography(np.diag([0.5 + 5e-9, 0.5]), build_pauli_set(1))
    run_tomography(np.diag([1.0 + 5e-11, -5e-11]), build_pauli_set(1))
    with pytest.raises(InvalidObject):
        run_tomography(np.diag([0.5 + 2e-8, 0.5]), build_pauli_set(1))
    with pytest.raises(NotPositive):
        run_tomography(np.diag([1.0 + 2e-10, -2e-10]), build_pauli_set(1))


@pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
def test_inversion_rejects_non_finite_frequencies(bad):
    freqs = np.full(6, 0.5)
    freqs[3] = bad
    with pytest.raises(InvalidDistribution):
        reconstruct_linear_inversion(freqs, build_pauli_set(1))


@pytest.mark.parametrize("freqs, make_set", [
    (np.full(64, 1e308), lambda: build_stoke_set(3)),      # ungrouped: A overflows
    ([1e300, -1e300, 1e-300, 0.0], lambda: build_sic_set(2)),  # grouped: f / sum overflows
])
def test_inversion_refuses_frequencies_that_overflow(freqs, make_set):
    # Tier-1 turns RuntimeWarnings into errors, so this also checks that none is emitted
    with pytest.raises(InvalidDistribution, match="overflow"):
        reconstruct_linear_inversion(freqs, make_set())


def test_inversion_result_is_read_only():
    rec = reconstruct_linear_inversion(np.full(4, 0.25), build_sic_set(2))
    assert not rec.data.flags.writeable
    np.testing.assert_allclose(rec.data, np.eye(2) / 2, atol=1e-12)


def test_report_serialization(tmp_path):
    rep = run_tomography(ghz(1), build_pauli_set(1)).report()
    assert set(rep) == {"dimension", "set_kind", "shots", "backend", "seed",
                        "fidelity", "trace_distance"}
    assert rep["shots"] == "exact"

    # the CLI writes one CSV row, or one JSON object of a list, per report
    args = ["tomography", "--name", "ghz", "--n", "1", "--set", "pauli", "--shots", "100",
            "--seed", "3", "--repeats", "2"]
    csv_path, json_path = tmp_path / "runs.csv", tmp_path / "runs.json"
    assert cli_main(args + ["--out", str(csv_path)]) == 0
    text = csv_path.read_text().splitlines()
    assert len(text) == 3
    assert text[0] == "# dimension,set_kind,shots,backend,seed,fidelity,trace_distance"

    assert cli_main(args + ["--format", "json", "--out", str(json_path)]) == 0
    payload = json.loads(json_path.read_text())
    assert isinstance(payload, list) and len(payload) == 2
    assert payload[1]["shots"] == 100

    row = text[2].split(",")
    assert row[:5] == [str(payload[1][k]) for k in ("dimension", "set_kind", "shots",
                                                   "backend", "seed")]
    assert [float(v) for v in row[5:]] == [payload[1]["fidelity"], payload[1]["trace_distance"]]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_fidelity_symmetric(seed):
    rng = np.random.default_rng(seed)
    rho, sigma = random_density(rng, 3), random_density(rng, 3)
    assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-8)
