import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_ket
from qmkit import (
    MeasurementSet,
    SamplerBackend,
    basis,
    build_mub_set,
    build_pauli_set,
    build_sic_set,
    build_stoke_set,
    fidelity,
    ghz,
    identity,
    pauli,
    probabilities,
    reconstruct_linear_inversion,
    run_tomography,
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
)
from qmkit.tomography import report_lines, write_reports_csv, write_reports_json


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


def test_metric_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        trace_distance(identity(2), identity(3))
    with pytest.raises(DimensionMismatch):
        trace_distance_pure(basis(2, 0), basis(3, 0))


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
    for _ in range(20):
        psi, phi = random_ket(rng, 5), random_ket(rng, 5)
        d_pure = trace_distance_pure(psi, phi)
        d_mixed = trace_distance(to_operator(psi), to_operator(phi))
        assert d_pure == pytest.approx(d_mixed, abs=1e-8)


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
                + [(build_mub_set, d) for d in (2, 3, 4, 5, 7)]
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


def test_report_serialization(tmp_path):
    runs = [run_tomography(ghz(1), build_pauli_set(1)),
            run_tomography(ghz(1), build_pauli_set(1), shots=100,
                           backend=SamplerBackend("cdf", 3))]
    rep = runs[0].report()
    assert set(rep) == {"dimension", "set_kind", "shots", "backend", "seed",
                        "fidelity", "trace_distance"}
    assert rep["shots"] == "exact"

    csv_path = tmp_path / "runs.csv"
    write_reports_csv(runs, csv_path)
    text = csv_path.read_text().splitlines()
    assert len(text) == 3
    assert text[0].startswith("# dimension,")

    json_path = tmp_path / "runs.json"
    write_reports_json(runs, json_path)
    payload = json.loads(json_path.read_text())
    assert isinstance(payload, list) and len(payload) == 2
    assert payload[1]["shots"] == 100

    assert report_lines(runs)[1] == text[1]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_fidelity_symmetric(seed):
    rng = np.random.default_rng(seed)
    rho, sigma = random_density(rng, 3), random_density(rng, 3)
    assert fidelity(rho, sigma) == pytest.approx(fidelity(sigma, rho), abs=1e-8)
