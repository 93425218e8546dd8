import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density
from qmkit import (
    MeasurementSet,
    SamplerBackend,
    basis,
    build_mub_set,
    build_pauli_set,
    build_sic_set,
    build_stoke_set,
    ghz,
    identity,
    measure,
    measure_and_sample,
    pauli,
    post_measurement_state,
    probabilities,
    sample_cdf_continuous,
    sample_cdf_discrete,
    sample_mc,
    timed_measurement,
    to_operator,
    weyl_displacement,
)
from qmkit.errors import (
    DimensionMismatch,
    InvalidDistribution,
    InvalidParameter,
    NotHermitian,
    OutcomeImpossible,
    UnsupportedDimension,
)

MUB_DIMS = (2, 3, 4, 5, 7)
SIC_DIMS = (2, 3, 4, 5, 6, 7, 8)


# ---------------------------------------------------------------------------
# probabilities / post-measurement states
# ---------------------------------------------------------------------------

def test_pauli_expectations_of_plus_state():
    probs = probabilities(ghz(1), [pauli("x"), pauli("y"), pauli("z")])
    np.testing.assert_allclose(probs, [1.0, 0.0, 0.0], atol=1e-12)


def test_projector_probabilities():
    projs = [to_operator(basis(2, 0)), to_operator(basis(2, 1))]
    np.testing.assert_allclose(probabilities(basis(2, 0), projs), [1, 0], atol=1e-14)


def test_maximally_mixed_pauli_set():
    rho = identity(2) / 2
    probs = probabilities(rho, build_pauli_set(1))
    np.testing.assert_allclose(probs, np.full(6, 0.5), atol=1e-12)


def test_probabilities_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        probabilities(ghz(2), [pauli("x")])


def test_post_measurement_projective():
    plus = ghz(1)
    state, p = post_measurement_state(plus, to_operator(basis(2, 0)))
    assert p == pytest.approx(0.5)
    np.testing.assert_allclose(state.data, [[1, 0], [0, 0]], atol=1e-12)


def test_post_measurement_identity():
    rho = random_density(np.random.default_rng(0), 3)
    state, p = post_measurement_state(rho, identity(3))
    assert p == pytest.approx(1.0)
    np.testing.assert_allclose(state.data, rho.data, atol=1e-12)


def test_post_measurement_mixed_example():
    rho = np.diag([0.25, 0.75]).astype(complex)
    state, p = post_measurement_state(rho, to_operator(basis(2, 1)))
    assert p == pytest.approx(0.75)
    np.testing.assert_allclose(state.data, [[0, 0], [0, 1]], atol=1e-12)


def test_post_measurement_impossible():
    with pytest.raises(OutcomeImpossible):
        post_measurement_state(basis(2, 0), to_operator(basis(2, 1)))


def test_measure_returns_outcome_bundle():
    out = measure(ghz(1), [to_operator(basis(2, 0)), to_operator(basis(2, 1))])
    np.testing.assert_allclose(out.probabilities, [0.5, 0.5], atol=1e-12)
    assert len(out.post_states) == 2
    assert all(s is not None for s in out.post_states)


# ---------------------------------------------------------------------------
# built-in sets
# ---------------------------------------------------------------------------

def test_pauli_set_single_qubit():
    ms = build_pauli_set(1)
    assert len(ms) == 6
    assert len(ms.groups) == 3
    ms.validate()
    np.testing.assert_allclose(ms.elements[0].data, np.diag([1.0, 0.0]))  # |H><H|
    for idx in ms.groups:
        total = sum(ms.elements[i].data for i in idx)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-12)


def test_pauli_set_counts():
    assert len(build_pauli_set(2)) == 36
    assert len(build_pauli_set(2).groups) == 9


def test_stoke_set_counts_and_projectors():
    assert len(build_stoke_set(1)) == 4
    assert len(build_stoke_set(3)) == 64
    assert build_stoke_set(2).groups == ()
    for e in build_stoke_set(1).elements:
        np.testing.assert_allclose(e.data @ e.data, e.data, atol=1e-10)


@pytest.mark.parametrize("d", MUB_DIMS)
def test_mub_overlap_law(d):
    ms = build_mub_set(d)
    assert len(ms) == (d + 1) * d
    assert len(ms.groups) == d + 1
    ms.validate()
    # rank-1 projectors: recover the vectors and check cross-basis overlaps
    vecs = []
    for idx in ms.groups:
        group_vecs = []
        for i in idx:
            vals, vv = np.linalg.eigh(ms.elements[i].data)
            group_vecs.append(vv[:, -1])
        vecs.append(group_vecs)
    for (a, va), (b, vb) in itertools.combinations(enumerate(vecs), 2):
        for u, v_ in itertools.product(va, vb):
            assert abs(abs(np.vdot(u, v_)) ** 2 - 1 / d) < 1e-8


def test_mub_d2_matches_pauli_projectors():
    mub = build_mub_set(2)
    pl = build_pauli_set(1)
    # equal as multisets of projectors (order/phase free)
    remaining = list(range(6))
    for e in mub.elements:
        hit = None
        for k in remaining:
            if np.allclose(e.data, pl.elements[k].data, atol=1e-10):
                hit = k
                break
        assert hit is not None
        remaining.remove(hit)
    assert remaining == []


def test_mub_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        build_mub_set(6)


def test_weyl_displacement_identity_and_shift():
    np.testing.assert_allclose(weyl_displacement(4, 0, 0).data, np.eye(4))
    np.testing.assert_allclose(weyl_displacement(2, 0, 1).data, pauli("x").data)


@pytest.mark.parametrize("d", (2, 3, 5, 8))
def test_weyl_displacement_unitary(d):
    for j in range(d):
        for k in range(d):
            u = weyl_displacement(d, j, k).data
            np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-10)


@pytest.mark.parametrize("d", SIC_DIMS)
def test_sic_overlap_law(d):
    ms = build_sic_set(d)
    assert len(ms) == d * d
    assert ms.groups == (tuple(range(d * d)),)
    total = sum(e.data for e in ms.elements)
    np.testing.assert_allclose(total, np.eye(d), atol=1e-8)
    # |<h_i|h_j>|^2 = 1/(d+1): tr(E_i E_j) = |<h_i|h_j>|^2 / d^2
    for a in range(len(ms)):
        for b in range(a + 1, len(ms)):
            ov = np.real(np.einsum("ij,ji->", ms.elements[a].data,
                                   ms.elements[b].data)) * d * d
            assert abs(ov - 1 / (d + 1)) < 1e-6


def test_sic_d2_bloch_tetrahedron():
    ms = build_sic_set(2)
    sig = [pauli("x").data, pauli("y").data, pauli("z").data]
    blochs = []
    for e in ms.elements:
        rho = 2 * e.data  # rank-1 element times d is a pure state
        blochs.append([np.real(np.trace(s @ rho)) for s in sig])
    blochs = np.array(blochs)
    np.testing.assert_allclose(np.linalg.norm(blochs, axis=1), np.ones(4),
                               atol=1e-8)
    for a in range(4):
        for b in range(a + 1, 4):
            assert blochs[a] @ blochs[b] == pytest.approx(-1 / 3, abs=1e-8)


def test_sic_unsupported_dimension():
    with pytest.raises(UnsupportedDimension):
        build_sic_set(9)


@pytest.mark.parametrize("builder,params", [
    (build_pauli_set, (1, 2, 3)),
    (build_stoke_set, (1, 2, 3)),
    (build_mub_set, MUB_DIMS),
    (build_sic_set, SIC_DIMS),
])
def test_group_probabilities_sum_to_one(builder, params):
    rng = np.random.default_rng(42)
    for p in params:
        ms = builder(p)
        d = ms.dim
        for _ in range(100):
            rho = random_density(rng, d)
            probs = probabilities(rho, ms)
            assert probs.min() > -1e-12 and probs.max() < 1 + 1e-12
            for idx in ms.groups:
                assert probs[list(idx)].sum() == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_mc_endpoints_exact():
    assert sample_mc(1.0, 1000, rng=0) == 1.0
    assert sample_mc(0.0, 1000, rng=0) == 0.0


def test_mc_binomial_accuracy():
    est = sample_mc(0.3, 100_000, rng=123)
    assert abs(est - 0.3) < 0.015  # ~3 sigma of sqrt(p(1-p)/N)


def test_mc_validates():
    with pytest.raises(InvalidParameter):
        sample_mc(1.5, 10)
    with pytest.raises(InvalidParameter):
        sample_mc(0.5, 0)


def test_cdf_continuous_exponential_mean():
    draws = sample_cdf_continuous(lambda r: -np.log(1 - r), 100_000, rng=5)
    assert abs(draws.mean() - 1.0) < 0.01


def test_cdf_discrete_deterministic_cases():
    counts = sample_cdf_discrete([1.0, 0.0], 500, rng=1)
    np.testing.assert_array_equal(counts, [500, 0])


def test_cdf_discrete_balanced():
    counts = sample_cdf_discrete([0.5, 0.5], 100_000, rng=2)
    assert counts.sum() == 100_000
    assert abs(counts[0] - 50_000) < 500
    assert abs(counts[1] - 50_000) < 500


def test_cdf_discrete_validates():
    with pytest.raises(InvalidDistribution):
        sample_cdf_discrete([0.5, 0.4], 10)
    with pytest.raises(InvalidDistribution):
        sample_cdf_discrete([1.5, -0.5], 10)


def test_cdf_never_samples_zero_probability():
    counts = sample_cdf_discrete([0.35, 0.0, 0.65], 200_000, rng=7)
    assert counts[1] == 0


def test_measure_and_sample_concentration():
    ms = build_pauli_set(2)
    state = ghz(2)
    probs = probabilities(state, ms)
    backend = SamplerBackend(method="cdf", seed=11)
    freqs = measure_and_sample(state, ms, backend, shots=1_000_000)
    assert np.max(np.abs(freqs - probs)) <= 0.005


def test_measure_and_sample_deterministic_replay():
    ms = build_sic_set(3)
    state = basis(3, 1)
    for method in ("mc", "cdf"):
        backend = SamplerBackend(method=method, seed=99)
        a = measure_and_sample(state, ms, backend, shots=2000)
        b = measure_and_sample(state, ms, backend, shots=2000)
        np.testing.assert_array_equal(a, b)


def test_measure_and_sample_ungrouped_set():
    ms = build_stoke_set(1)
    state = ghz(1)
    backend = SamplerBackend(method="cdf", seed=4)
    freqs = measure_and_sample(state, ms, backend, shots=50_000)
    probs = probabilities(state, ms)
    assert np.max(np.abs(freqs - probs)) < 0.01


def test_backends_converge_to_same_frequencies():
    probs = np.array([0.1, 0.2, 0.3, 0.4])
    shots = 100_000
    mc_est = np.array([sample_mc(p, shots, rng=1000 + i)
                       for i, p in enumerate(probs)])
    cdf_counts = sample_cdf_discrete(probs, shots, rng=2000)
    assert np.max(np.abs(mc_est - cdf_counts / shots)) <= 0.01


def test_cdf_more_accurate_than_mc():
    # mean absolute error against the exact distribution, 20 seeds each
    probs = np.array([0.15, 0.25, 0.05, 0.55])
    shots = 2000
    mc_err, cdf_err = [], []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        mc_est = np.array([sample_mc(p, shots, rng) for p in probs])
        mc_err.append(np.abs(mc_est - probs).mean())
        counts = sample_cdf_discrete(probs, shots, rng=np.random.default_rng(seed))
        cdf_err.append(np.abs(counts / shots - probs).mean())
    assert np.mean(cdf_err) <= np.mean(mc_err)


def test_timed_measurement():
    ms = build_pauli_set(2)
    state = ghz(2)
    probs1, dt1 = timed_measurement(state, ms)
    probs2, dt2 = timed_measurement(state, ms)
    assert dt1 >= 0 and dt2 >= 0
    np.testing.assert_array_equal(probs1, probs2)


def test_pauli_n3_slower_than_sic_d8():
    pauli3 = build_pauli_set(3)
    sic8 = build_sic_set(8)
    rng = np.random.default_rng(1)
    t_pauli = t_sic = 0.0
    for _ in range(25):
        from qmkit import random_haar
        st8 = random_haar(8, rng)
        t_pauli += timed_measurement(st8, pauli3)[1]
        t_sic += timed_measurement(st8, sic8)[1]
    assert t_pauli > t_sic


def test_backend_validation():
    with pytest.raises(InvalidParameter):
        SamplerBackend(method="bogus")
    with pytest.raises(InvalidParameter):
        SamplerBackend(method="mc", iterations=0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 500))
def test_mc_frequency_in_range(seed, n):
    rng = np.random.default_rng(seed)
    p = float(rng.uniform())
    f = sample_mc(p, n, rng)
    assert 0.0 <= f <= 1.0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.integers(1, 2000))
def test_cdf_counts_sum_to_shots(seed, k, shots):
    rng = np.random.default_rng(seed)
    p = rng.uniform(size=k)
    p /= p.sum()
    counts = sample_cdf_discrete(p, shots, rng)
    assert counts.sum() == shots
    assert len(counts) == k


# ---------------------------------------------------------------------------
# stacked sets: the element loops of the original implementation, kept here
# as references
# ---------------------------------------------------------------------------

_KETS = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "A": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "L": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "R": np.array([1, -1j], dtype=complex) / np.sqrt(2),
}


def _product_projectors(letters, n):
    out = []
    for combo in itertools.product(letters, repeat=n):
        v = _KETS[combo[0]]
        for c in combo[1:]:
            v = np.kron(v, _KETS[c])
        out.append(np.outer(v, v.conj()))
    return np.array(out)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_product_stacks_follow_itertools_kron_order(n):
    np.testing.assert_array_equal(build_pauli_set(n).stack, _product_projectors("HVDALR", n))
    np.testing.assert_array_equal(build_stoke_set(n).stack, _product_projectors("HVDR", n))


def test_pauli_groups_pair_basis_outcomes():
    ms = build_pauli_set(2)
    for idx in ms.groups:
        total = ms.stack[list(idx)].sum(axis=0)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)
    assert sorted(k for idx in ms.groups for k in idx) == list(range(36))


@pytest.mark.parametrize("ms", [build_pauli_set(2), build_mub_set(3), build_sic_set(4),
                                MeasurementSet(kind="custom",
                                               elements=(pauli("x"), pauli("z")))])
def test_elements_are_read_only_views_of_the_stack(ms):
    assert ms.stack.shape == (len(ms), ms.dim, ms.dim)
    assert not ms.stack.flags.writeable
    for i, e in enumerate(ms.elements):
        assert not e.data.flags.writeable
        assert np.shares_memory(e.data, ms.stack)
        np.testing.assert_array_equal(e.data, ms.stack[i])
    with pytest.raises(ValueError):
        ms.elements[0].data[0, 0] = 2.0


def test_set_hashes_without_its_stack():
    ms = build_pauli_set(1)
    assert ms == ms and hash(ms) == hash(ms)
    assert "stack" not in repr(ms)


def test_set_rejects_mixed_or_empty_elements():
    with pytest.raises(DimensionMismatch):
        MeasurementSet(kind="custom", elements=(identity(2), identity(3)))
    with pytest.raises(DimensionMismatch):
        MeasurementSet(kind="custom", elements=())


def test_validate_reports_first_bad_element():
    bad = MeasurementSet(kind="custom",
                         elements=(identity(2), -identity(2), np.array([[0, 1], [0, 0]])))
    with pytest.raises(InvalidParameter, match="element 1"):
        bad.validate()
    skew = MeasurementSet(kind="custom", elements=(np.array([[0, 1], [0, 0]]), -identity(2)))
    with pytest.raises(NotHermitian, match="element 0"):
        skew.validate()


def _loop_measure_and_sample(state, mset, backend, shots):
    probs = probabilities(state, mset)
    g = backend.rng()
    freqs = np.zeros(len(mset), dtype=float)
    if backend.method == "mc":
        for k, p in enumerate(probs):
            freqs[k] = sample_mc(min(max(p, 0.0), 1.0), shots, g)
        return freqs
    covered = set()
    for idx in mset.groups:
        pg = np.clip(probs[list(idx)], 0.0, None)
        counts = sample_cdf_discrete(pg / pg.sum(), shots, g)
        for i, k in enumerate(idx):
            freqs[k] = counts[i] / shots
        covered.update(idx)
    for k, p in enumerate(probs):
        if k not in covered:
            p = min(max(p, 0.0), 1.0)
            freqs[k] = sample_cdf_discrete(np.array([1.0 - p, p]), shots, g)[1] / shots
    return freqs


@pytest.mark.parametrize("method", ("mc", "cdf"))
@pytest.mark.parametrize("make_set", [lambda: build_pauli_set(2), lambda: build_stoke_set(2),
                                      lambda: build_sic_set(4)])
def test_measure_and_sample_matches_element_loop(method, make_set):
    ms = make_set()
    rng = np.random.default_rng(8)
    for seed in (0, 1, 77):
        state = random_density(rng, ms.dim)
        backend = SamplerBackend(method=method, seed=seed)
        np.testing.assert_array_equal(measure_and_sample(state, ms, backend, 300),
                                      _loop_measure_and_sample(state, ms, backend, 300))


def _bincount_cdf_counts(probs, shots, rng):
    p = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    cum = np.cumsum(p / p.sum())
    r = (np.arange(shots) + rng.random(shots)) / shots
    return np.bincount(np.searchsorted(cum, r * cum[-1], side="right"), minlength=p.size)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**31 - 1), st.lists(st.booleans(), min_size=1, max_size=8),
       st.integers(1, 3000))
def test_cdf_counts_match_bincount_formula(seed, nonzero, shots):
    rng = np.random.default_rng(seed)
    p = rng.uniform(size=len(nonzero)) * np.array(nonzero)
    if p.sum() == 0:
        p[0] = 1.0
    p /= p.sum()
    counts = sample_cdf_discrete(p, shots, np.random.default_rng(seed + 1))
    np.testing.assert_array_equal(counts, _bincount_cdf_counts(p, shots, np.random.default_rng(seed + 1)))


class _TopStratumGenerator(np.random.Generator):
    """Uniform draws just below 1, so the last stratum rounds up to 1.0."""

    def random(self, size=None):
        return np.full(size, np.nextafter(1.0, 0.0))


def test_cdf_top_stratum_stays_in_range():
    counts = sample_cdf_discrete([0.5, 0.5, 0.0], 1000, _TopStratumGenerator(np.random.PCG64(0)))
    assert len(counts) == 3 and counts.sum() == 1000 and counts[2] == 0
