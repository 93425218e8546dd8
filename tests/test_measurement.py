import hashlib
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
    dicke,
    ghz,
    identity,
    measure,
    measure_and_sample,
    pauli,
    post_measurement_state,
    probabilities,
    random_haar,
    run_tomography,
    sample_cdf_continuous,
    sample_cdf_discrete,
    sample_mc,
    spin_coherent,
    timed_measurement,
    to_operator,
    w,
    weyl_displacement,
)
from qmkit.errors import (
    DimensionMismatch,
    InvalidDistribution,
    InvalidObject,
    InvalidParameter,
    NotHermitian,
    OutcomeImpossible,
    UnsupportedDimension,
)
import qmkit
from qmkit import measurement
from qmkit.measurement import _stratified_counts
from qmkit.qcore import _dimension, _fits, _qubit_count

MUB_DIMS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
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


def test_measure_refuses_kraus_products_that_overflow():
    # M rho M^dag = 1e400 rho: refused as the products, not as a RuntimeWarning
    for call in (lambda: measure(basis(2, 0), [1e200 * np.eye(2)]),
                 lambda: post_measurement_state(basis(2, 0), 1e200 * np.eye(2))):
        with pytest.raises(InvalidObject, match="Kraus products"):
            call()


def _pointer_mean(i, f, a, sigma):
    """Mean pointer position after a von Neumann measurement of the observable
    ``a`` with a Gaussian pointer of width ``sigma``, conditioned on finding
    the system in |f>.  Outcome x has Kraus operator |f><f| M(x) with
    M(x) = sqrt(dx) sum_a g(x - a) |a><a| and g(x) = (2 pi sigma^2)^(-1/4)
    exp(-x^2 / 4 sigma^2); sum_x M(x)^dag M(x) = I."""
    lam, vecs = np.linalg.eigh(a)
    dx = sigma / 8
    xs = np.arange(-10 * sigma - 1, 10 * sigma + 1, dx)
    g = (2 * np.pi * sigma**2) ** -0.25 * np.exp(-(xs[:, None] - lam) ** 2 / (4 * sigma**2))
    kraus = math.sqrt(dx) * np.einsum("xa,ia,ja->xij", g, vecs, vecs.conj())
    np.testing.assert_allclose(np.einsum("xji,xjk->ik", kraus.conj(), kraus), np.eye(len(a)),
                               atol=1e-12)
    p = measure(i, np.outer(f, f.conj()) @ kraus).probabilities
    return xs @ p / p.sum()


def test_weak_measurement_approaches_the_weak_value():
    # Aharonov, Albert & Vaidman, PRL 60, 1351 (1988): as the pointer width
    # grows, the post-selected pointer mean tends to Re <f|A|i> / <f|i>
    a = pauli("z").data
    i = np.array([1.0, 1.0]) / math.sqrt(2)
    for eps in (0.3, 0.1):                     # |<f|i>| shrinks with eps: nearly orthogonal
        beta = math.pi / 4 - eps
        f = np.array([math.cos(beta), -np.exp(0.4j) * math.sin(beta)])
        weak = ((f.conj() @ a @ i) / (f.conj() @ i)).real
        assert weak > 2.0                      # outside the eigenvalue range [-1, 1]
        # a sharp pointer gives the Aharonov-Bergmann-Lebowitz mean, inside the range
        w = np.abs(f.conj() * i) ** 2          # |<f|a><a|i>|^2 for a = +1, -1
        assert _pointer_mean(i, f, a, 0.05) == pytest.approx((w[0] - w[1]) / w.sum(), abs=1e-9)
        errors = [abs(_pointer_mean(i, f, a, s) - weak) for s in (1.0, 4.0, 16.0, 64.0)]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 3e-3
        assert _pointer_mean(i, f, a, 64.0) > 2.0


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
    for d in (1, 6, 10, 12):
        with pytest.raises(UnsupportedDimension, match="prime-power"):
            build_mub_set(d)
    with pytest.raises(UnsupportedDimension, match="over the 1 GiB limit"):
        build_mub_set(97)


def _earlier_mub_kets(d):
    """The kets, one per row, of the hand tables (d = 2, 4) and Gauss sums (d = 3, 5, 7)
    that the finite-field construction replaced."""
    if d == 2:
        s = 1 / np.sqrt(2)
        bases = [np.eye(2, dtype=complex), np.array([[s, s], [s, -s]], dtype=complex),
                 np.array([[s, s], [1j * s, -1j * s]], dtype=complex)]
    elif d == 4:
        i = 1j
        rows = [
            [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, -1, 1], [1, -1, 1, -1]],
            [[1, -1, -i, -i], [1, -1, i, i], [1, 1, i, -i], [1, 1, -i, i]],
            [[1, -i, -i, -1], [1, -i, i, 1], [1, i, i, -1], [1, i, -i, 1]],
            [[1, -i, -1, -i], [1, -i, 1, i], [1, i, 1, -i], [1, i, -1, i]],
        ]
        bases = [np.eye(4, dtype=complex)] + [0.5 * np.array(t, dtype=complex).T for t in rows]
    else:
        om = np.exp(2j * np.pi / d)
        bases = [np.eye(d, dtype=complex)]
        for a in range(d):
            B = np.empty((d, d), dtype=complex)
            for k in range(d):
                for m in range(d):
                    B[m, k] = om ** ((a * m * m + k * m) % d) / np.sqrt(d)
            bases.append(B)
    return np.concatenate([B.T for B in bases])


# the earlier d = 4 table's elements in the order the field construction gives them:
# basis 2's vectors swap in pairs, and bases 3 and 4 trade places
_D4_ORDER = [0, 1, 2, 3, 4, 5, 6, 7, 9, 8, 11, 10, 17, 16, 19, 18, 13, 12, 15, 14]


@pytest.mark.parametrize("d", (2, 3, 4, 5, 7))
def test_mub_sets_keep_the_bits_of_the_earlier_tables(d):
    kets = _earlier_mub_kets(d)
    earlier = np.multiply(kets[:, :, None], kets.conj()[:, None, :], order="C")
    order = _D4_ORDER if d == 4 else list(range(len(kets)))
    ms = build_mub_set(d)
    assert ms.stack.tobytes() == earlier[order].tobytes()
    assert ms.groups == tuple(tuple(range(g * d, g * d + d)) for g in range(d + 1))


_PRIMES = [p for p in range(2, 33) if all(p % q for q in range(2, p))]
_PRIME_POWERS = [d for d in range(2, 33) if sum(d % p == 0 for p in _PRIMES) == 1]


@pytest.mark.parametrize("d", _PRIME_POWERS)
def test_mub_sets_are_unbiased_and_complete(d):
    stack = build_mub_set(d).stack
    assert stack.shape == (d * (d + 1), d, d)
    # each element is |v><v| for v its largest column scaled to a unit vector
    rows, k = np.arange(len(stack)), np.argmax(np.einsum("kii->ki", stack).real, axis=1)
    kets = stack[rows, :, k] / np.sqrt(stack[rows, k, k].real)[:, None]
    assert np.abs(stack - kets[:, :, None] * kets.conj()[:, None, :]).max() < 1e-12
    same_basis = np.kron(np.eye(d + 1), np.ones((d, d))) == 1
    want = np.where(same_basis, np.eye(len(kets)), 1 / d)
    assert np.abs(np.abs(kets.conj() @ kets.T) ** 2 - want).max() < 1e-12
    assert np.abs(stack.reshape(d + 1, d, d, d).sum(axis=1) - np.eye(d)).max() < 1e-12


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
    for probs in ([], [[0.5, 0.5]]):
        with pytest.raises(InvalidDistribution, match="1-d and non-empty"):
            sample_cdf_discrete(probs, 10)


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


def test_cdf_refuses_a_group_of_zero_probability():
    # the group {|0><0|} has probability 0 in |1>: nothing to normalise the cdf row by
    ms = MeasurementSet("custom", [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], groups=[(0,)])
    backend = SamplerBackend("cdf", seed=1)
    with pytest.raises(InvalidDistribution, match="group 0 has total probability 0"):
        measure_and_sample(basis(2, 1), ms, backend, shots=100)
    with pytest.raises(InvalidDistribution, match="group 0 has total probability 0"):
        run_tomography(basis(2, 1), ms, shots=100, backend=backend)


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
    # the median call, not the sum: one stall of a shared machine (several
    # milliseconds) would outweigh all 25 calls of the faster set
    pauli3 = build_pauli_set(3)
    sic8 = build_sic_set(8)
    rng = np.random.default_rng(1)
    t_pauli, t_sic = [], []
    for _ in range(25):
        st8 = random_haar(8, rng)
        t_pauli.append(timed_measurement(st8, pauli3)[1])
        t_sic.append(timed_measurement(st8, sic8)[1])
    assert np.median(t_pauli) > np.median(t_sic)


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


@pytest.mark.parametrize("build, n", [(build_pauli_set, 6), (build_stoke_set, 7),
                                      (build_pauli_set, 40)])
def test_product_sets_over_the_size_limit_are_refused(build, n):
    # Pauli n = 6 would need 3.1 GB and Stoke n = 7 4.3 GB; nothing is allocated
    with pytest.raises(UnsupportedDimension, match="GiB"):
        build(n)


def test_pauli_groups_pair_basis_outcomes():
    ms = build_pauli_set(2)
    for idx in ms.groups:
        total = ms.stack[list(idx)].sum(axis=0)
        np.testing.assert_allclose(total, np.eye(4), atol=1e-12)
    assert sorted(k for idx in ms.groups for k in idx) == list(range(36))


@pytest.mark.parametrize("ms", [
    build_pauli_set(2), build_stoke_set(2), build_mub_set(3), build_sic_set(4),
    MeasurementSet(kind="custom", elements=(pauli("x"), pauli("z"))),
    # the projectors |k><k| as one F-ordered array
    MeasurementSet(kind="custom", elements=np.asfortranarray(np.eye(3)[:, :, None] * np.eye(3))),
])
def test_elements_are_read_only_views_of_the_stack(ms):
    assert ms.stack.shape == (len(ms), ms.dim, ms.dim)
    assert ms.stack.dtype == np.complex128 and ms.stack.flags.c_contiguous
    assert not ms.stack.flags.writeable
    assert ms.elements is ms.elements          # made once, on first read
    for i, e in enumerate(ms.elements):
        assert not e.data.flags.writeable
        assert np.shares_memory(e.data, ms.stack)
        np.testing.assert_array_equal(e.data, ms.stack[i])
    with pytest.raises(ValueError):
        ms.elements[0].data[0, 0] = 2.0


def test_set_hashes_without_its_stack():
    ms = build_pauli_set(1)
    assert ms == ms and hash(ms) == hash(ms) and ms in {ms}
    assert ms != build_pauli_set(1)  # equality is identity
    assert "stack" not in repr(ms)


@pytest.mark.parametrize("make", [lambda: build_pauli_set(2), lambda: build_sic_set(3),
                                  lambda: build_mub_set(3), lambda: build_stoke_set(2)])
def test_a_list_and_an_array_make_one_stack(make):
    ms = make()
    stack = np.array(ms.stack)
    for ops in (stack, list(stack), ms.elements, [e.tolist() for e in stack]):
        built = MeasurementSet(kind="custom", elements=ops).stack
        assert built.dtype == np.complex128 and built.flags.c_contiguous
        assert built.tobytes() == stack.tobytes()
    ints = [np.eye(3, dtype=int), np.ones((3, 3), dtype=bool)]
    assert MeasurementSet(kind="custom", elements=ints).stack.tobytes() == \
        MeasurementSet(kind="custom", elements=np.array(ints)).stack.tobytes()


def test_qubit_count_limit_is_the_last_count_that_fits():
    # (entries per qubit, the largest count whose 16-byte entries fit in 1 GiB)
    for base, most in ((2, 26), (16, 6), (24, 5)):
        assert _qubit_count(most, base, "array") == most
        with pytest.raises(UnsupportedDimension):
            _qubit_count(most + 1, base, "array")


def test_size_limit_is_the_last_size_that_fits():
    # 2**26 complex entries are 1 GiB: a ket of that dimension, an operator of 2**13
    assert _dimension(2**26) == 2**26 and _dimension(2**13, 2) == 2**13
    for size, power in ((2**26 + 1, 1), (2**13 + 1, 2)):
        with pytest.raises(UnsupportedDimension, match=f"dimension {size} needs"):
            _dimension(size, power)
    _fits(1, 10**9, "a one-level array")                # 1**n is one entry
    # a grid is checked on construction; its axes are made on first read
    assert qmkit.PlanarGrid(nx=2**13, ny=2**13).nx == 2**13
    with pytest.raises(UnsupportedDimension, match="a 8193 x 8192 grid"):
        qmkit.SphericalGrid(ntheta=2**13 + 1, nphi=2**13)


def test_sic_orbit_is_built_and_verified_once_per_dimension(monkeypatch):
    first = build_sic_set(5)
    monkeypatch.setattr(measurement, "weyl_displacement", None)    # a rebuild would fail
    again = build_sic_set(5)
    np.testing.assert_array_equal(again.stack, first.stack)
    assert again.stack is not first.stack


@pytest.mark.parametrize("groups, match", [(((0, 5),), "index 5 is outside"),
                                           (((-1, 0),), "index -1 is outside"),
                                           (((0, 1), (1, 0)), "element 0 is in more"),
                                           (((),), "group 0 is empty"),
                                           (((0.5, 1),), "integer")])
def test_set_rejects_malformed_groups(groups, match):
    with pytest.raises(InvalidParameter, match=match):
        MeasurementSet(kind="custom", elements=(pauli("x"), pauli("y"), pauli("z")),
                       groups=groups)


def test_set_groups_accept_tuples_lists_or_an_int_array():
    elements = np.array(build_pauli_set(2).stack)
    rows = [(0, 1), (2, 3), (12, 13), (4, 5), (6, 7)]
    sets = [MeasurementSet(kind="custom", elements=elements, groups=g)
            for g in (tuple(rows), [list(r) for r in rows], np.array(rows))]
    for ms in sets:
        assert ms.groups == tuple(rows) and type(ms.groups[0][0]) is int
        # the set is built on a copy: the caller's array stays its own
        assert elements.flags.writeable and not np.shares_memory(elements, ms.stack)
    expected = np.full(36, -1)
    for g, idx in enumerate(rows):
        expected[list(idx)] = g
    for ms in sets:
        np.testing.assert_array_equal(ms.group_of, expected)
        assert not ms.group_of.flags.writeable
    for method in ("cdf", "mc"):
        freqs = [measure_and_sample(dicke(2, 1), ms, SamplerBackend(method, seed=5), 700)
                 for ms in sets]
        for f in freqs[1:]:
            np.testing.assert_array_equal(f, freqs[0])


def test_validate_reports_first_bad_element():
    bad = MeasurementSet(kind="custom",
                         elements=(identity(2), -identity(2), np.array([[0, 1], [0, 0]])))
    with pytest.raises(InvalidParameter, match="element 1"):
        bad.validate()
    skew = MeasurementSet(kind="custom", elements=(np.array([[0, 1], [0, 0]]), -identity(2)))
    with pytest.raises(NotHermitian, match="element 0"):
        skew.validate()


def test_validate_reports_an_incomplete_group():
    # PSD elements whose group sums to diag(1, 0.5), not the identity
    half = MeasurementSet(kind="custom", elements=(np.diag([1.0, 0.0]), np.diag([0.0, 0.5])),
                          groups=[(0, 1)])
    with pytest.raises(InvalidParameter, match="group 0 misses identity by 5.000e-01"):
        half.validate()
    complete = MeasurementSet(kind="custom", elements=(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                              groups=[(0, 1)])
    complete.validate()


def test_probabilities_refuse_an_imaginary_residue():
    # tr(E rho) = 1j * rho_10 = 0.5j for the non-Hermitian E = 1j |0><1| on |+>
    with pytest.raises(NotHermitian, match="imaginary residue 5.000e-01"):
        probabilities(ghz(1), [pauli("z"), np.array([[0, 1j], [0, 0]])])
    # a residue below the tolerance passes and is dropped
    np.testing.assert_array_equal(probabilities(ghz(1), [np.array([[0, 1e-10j], [0, 0]])]), [0.0])


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


# ---------------------------------------------------------------------------
# skipping the stream: the cdf sampler draws only around each CDF crossing
# and the mc sampler draws nothing at p = 0 or 1, where the generator allows
# it; counts, frequencies and the generator's final state must equal those
# of drawing every uniform
# ---------------------------------------------------------------------------

def _full_draw_counts(probs, shots, g):
    """The stratified cdf sampler with every uniform drawn."""
    p = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    cum = np.cumsum(p / p.sum())
    below = np.searchsorted(((np.arange(shots) + g.random(shots)) / shots) * cum[-1], cum,
                            side="left")
    below[cum >= cum[-1]] = shots
    return np.diff(below, prepend=0)


def _generator(kind, seed):
    if kind == "mt19937":
        return np.random.Generator(np.random.MT19937(seed))
    g = np.random.default_rng(seed)
    if kind == "pcg64-half-word":
        g.integers(0, 10, dtype=np.int32)          # leaves a buffered 32-bit half-word
    return g


def _same_state(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


_GENERATORS = ("pcg64", "pcg64-half-word", "mt19937")
_WEIGHTS = st.one_of(st.just(0.0), st.floats(1e-9, 1e-4), st.floats(1e-3, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.lists(_WEIGHTS, min_size=1, max_size=48), st.integers(0, 8),
       st.sampled_from((1, 2, 10_000, 100_000, 123_457)), st.integers(0, 2**31 - 1),
       st.sampled_from(_GENERATORS))
def test_cdf_skip_path_matches_full_draw(lead, weights, trail, shots, seed, kind):
    p = np.array([0.0] * lead + weights + [0.0] * trail)
    if p.sum() == 0:
        p[lead] = 1.0
    p /= p.sum()
    g, oracle = _generator(kind, seed), _generator(kind, seed)
    np.testing.assert_array_equal(sample_cdf_discrete(p, shots, g),
                                  _full_draw_counts(p, shots, oracle))
    assert _same_state(g.bit_generator.state, oracle.bit_generator.state)


@pytest.mark.parametrize("kind", _GENERATORS)
def test_cdf_windows_overlap_below_five_strata(kind):
    # outcomes far below 5 / shots put several crossings in one window
    p = np.array([0.0, 1e-7, 2e-7, 0.3, 1e-6, 0.0, 3e-6, 0.7 - 4.3e-6, 0.0])
    for seed in range(20):
        g, oracle = _generator(kind, seed), _generator(kind, seed)
        np.testing.assert_array_equal(sample_cdf_discrete(p, 123_457, g),
                                      _full_draw_counts(p, 123_457, oracle))
        assert _same_state(g.bit_generator.state, oracle.bit_generator.state)


def test_cdf_skip_path_keeps_ties_at_a_crossing():
    # put a CDF boundary exactly on a draw's value, and one ulp either side:
    # the windows must evaluate r_i * cum[-1] with the full draw's roundings
    shots = 10_000
    u = np.random.default_rng(21).random(shots)
    for i in range(5_000, shots, 250):
        exact = ((i + u[i]) / shots) * 1.0
        for c in (exact, np.nextafter(exact, 0.0), np.nextafter(exact, 1.0)):
            p = np.array([c, 1.0 - c])
            assert p.sum() == 1.0
            counts = sample_cdf_discrete(p, shots, np.random.default_rng(21))
            np.testing.assert_array_equal(counts,
                                          _full_draw_counts(p, shots, np.random.default_rng(21)))
            assert counts[0] == i + (c > exact)


def test_cdf_top_stratum_generator_takes_the_full_draw():
    p = [0.5, 0.25, 0.25, 0.0]
    g = _TopStratumGenerator(np.random.PCG64(3))
    oracle = _TopStratumGenerator(np.random.PCG64(3))
    np.testing.assert_array_equal(sample_cdf_discrete(p, 100_000, g),
                                  _full_draw_counts(p, 100_000, oracle))
    assert _same_state(g.bit_generator.state, oracle.bit_generator.state)


def test_cdf_skip_path_never_draws_the_whole_stream():
    # 10^12 uniforms would take 8 TB; the skip path draws a few windows
    shots = 10**12
    g = np.random.default_rng(4)
    counts = sample_cdf_discrete([0.25, 0.0, 0.75], shots, g)
    assert counts.sum() == shots and counts[1] == 0
    assert abs(counts[0] - shots // 4) <= 1
    skipped = np.random.default_rng(4)
    skipped.bit_generator.advance(shots)
    assert g.bit_generator.state == skipped.bit_generator.state


@pytest.mark.parametrize("kind", _GENERATORS)
@pytest.mark.parametrize("p", (0.0, 1.0, -0.0, 0.5))
def test_mc_endpoints_leave_the_stream_of_a_full_draw(kind, p):
    g, oracle = _generator(kind, 9), _generator(kind, 9)
    f = sample_mc(p, 12_345, g)
    assert f == float(np.count_nonzero(oracle.random(12_345) < p)) / 12_345
    assert _same_state(g.bit_generator.state, oracle.bit_generator.state)


def test_mc_endpoints_never_draw_the_whole_stream():
    g = np.random.default_rng(6)
    assert sample_mc(1.0, 10**12, g) == 1.0 and sample_mc(0.0, 10**12, g) == 0.0
    skipped = np.random.default_rng(6)
    skipped.bit_generator.advance(2 * 10**12)
    assert g.bit_generator.state == skipped.bit_generator.state


def test_samplers_that_hold_every_draw_refuse_more_than_fit():
    # 10^12 draws pass the shots rule, but a sampler that holds them would need
    # 8 TB; each is refused before it draws
    mt = np.random.Generator(np.random.MT19937(1))        # no skip path
    for call in (lambda: sample_mc(0.5, 10**12, 1),
                 lambda: sample_cdf_discrete([0.5, 0.5], 10**12, mt),
                 lambda: sample_cdf_continuous(lambda r: r, 10**12, 1),
                 lambda: measure_and_sample(ghz(1), build_pauli_set(1), SamplerBackend("mc"),
                                            10**12)):
        with pytest.raises(UnsupportedDimension, match="holding every draw needs 1000000000000"):
            call()


def _full_draw_measure_and_sample(state, mset, shots, seed):
    probs = probabilities(state, mset)
    g = np.random.default_rng(seed)
    freqs = np.zeros(len(mset))
    for idx in mset.groups:
        pg = np.clip(probs[list(idx)], 0.0, None)
        freqs[list(idx)] = _full_draw_counts(pg / pg.sum(), shots, g) / shots
    grouped = {k for idx in mset.groups for k in idx}
    for k in sorted(set(range(len(mset))) - grouped):
        p = min(max(probs[k], 0.0), 1.0)
        freqs[k] = _full_draw_counts(np.array([1.0 - p, p]), shots, g)[1] / shots
    return freqs


def _ragged_set():
    # groups of two and three outcomes, then two ungrouped elements
    z0, z1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    third = np.eye(2) / 3
    return MeasurementSet(kind="custom", elements=(z0, z1, third, third, third, z0, pauli("x")),
                          groups=((0, 1), (2, 3, 4)))


def _ragged_sic_set():
    # the SIC POVM of d = 3 (nine outcomes) listed backwards, beside one basis
    # whose group lists its outcomes out of order, and one ungrouped element
    sic = build_sic_set(3).stack[::-1]
    z = np.eye(3)[:, :, None] * np.eye(3)[:, None, :]
    return MeasurementSet(kind="custom", elements=np.concatenate([z[:1], sic, z[1:], z[:1]]),
                          groups=(tuple(range(1, 10)), (10, 0, 11)))


@pytest.mark.parametrize("make_set", [lambda: build_pauli_set(3), lambda: build_stoke_set(3),
                                      lambda: build_mub_set(7), lambda: build_sic_set(8),
                                      _ragged_set, _ragged_sic_set])
def test_measure_and_sample_skip_path_matches_full_draw(make_set):
    ms = make_set()
    rng = np.random.default_rng(12)
    states = [random_density(rng, ms.dim), random_density(rng, ms.dim, rank=1)]
    if ms.dim == 8:
        states += [ghz(3), w(3)]
    for seed, state in enumerate(states):
        for shots in (3, 10_000, 54_321):
            backend = SamplerBackend(method="cdf", seed=seed)
            np.testing.assert_array_equal(measure_and_sample(state, ms, backend, shots),
                                          _full_draw_measure_and_sample(state, ms, shots, seed))


def test_measure_and_sample_mixes_full_and_skipped_rows():
    # at 3,500 shots the Z-basis groups of |D>|H>(sqrt(1-a)|V> + sqrt(a)|H>) have few
    # crossings and skip, the ZX/ZY groups are drawn in full, and group XZZ's first
    # outcome, of probability a, crosses within two strata of its block's start
    a = 5e-4
    state = np.kron(np.kron([1.0, 1.0], [1.0, 0.0]) / np.sqrt(2), [np.sqrt(a), np.sqrt(1 - a)])
    ms = build_pauli_set(3)
    for seed in range(12):
        backend = SamplerBackend(method="cdf", seed=seed)
        np.testing.assert_array_equal(measure_and_sample(state, ms, backend, 3_500),
                                      _full_draw_measure_and_sample(state, ms, 3_500, seed))


@st.composite
def _blocks(draw):
    """shots and a block of rows mixing those the sampler skips and draws in full."""
    shots = draw(st.sampled_from((1, 1_000, 3_500, 10_000)))
    rows = st.one_of(
        st.lists(_WEIGHTS, min_size=1, max_size=12),
        st.integers(7, 12).map(lambda k: [1.0] * k),        # drawn in full up to 3,500 shots
        # after zeros, a crossing within six strata of the row's start
        st.tuples(st.integers(0, 3), st.floats(0.0, 6.0)).map(
            lambda z: [0.0] * z[0] + [z[1] / shots, 1.0]),
    )
    return shots, draw(st.lists(rows, min_size=1, max_size=8))


def _rows_block(rows):
    p = np.zeros((len(rows), max(map(len, rows))))
    for r, row in enumerate(rows):
        p[r, :len(row)] = row
        if p[r].sum() == 0:
            p[r, 0] = 1.0
    return p / p.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("kind", _GENERATORS)
@pytest.mark.parametrize("rows", (
    [[0.5, 0.5], [1 / 8] * 8, [1e-4, 1 - 1e-4]],          # skipped, full, skipped from stratum 0
    [[1 / 8] * 8, [0.0, 1e-5, 0.2, 0.8 - 1e-5], [1 / 8] * 8, [2e-4, 0.0, 1 - 2e-4]],
    [[1e-4, 1e-4, 1e-4, 1 - 3e-4]],         # three crossings within a stratum: seeks back
))
def test_cdf_block_of_full_and_skipped_rows_matches_full_draw(rows, kind):
    p = _rows_block(rows)
    for seed in range(10):
        g, oracle = _generator(kind, seed), _generator(kind, seed)
        np.testing.assert_array_equal(_stratified_counts(p, 3_500, g),
                                      [_full_draw_counts(row, 3_500, oracle) for row in p])
        assert _same_state(g.bit_generator.state, oracle.bit_generator.state)


@settings(max_examples=300, deadline=None)
@given(_blocks(), st.integers(0, 2**31 - 1), st.sampled_from(_GENERATORS))
def test_cdf_blocks_of_rows_match_full_draw(block, seed, kind):
    shots, rows = block
    p = _rows_block(rows)
    g, oracle = _generator(kind, seed), _generator(kind, seed)
    np.testing.assert_array_equal(_stratified_counts(p, shots, g),
                                  [_full_draw_counts(row, shots, oracle) for row in p])
    assert _same_state(g.bit_generator.state, oracle.bit_generator.state)


# sha256 of the float64 little-endian frequencies, recorded before the skip
# paths existed: a change to any sampled stream shows here
_GOLDEN = {
    ("pauli3", "mc"): "cba57626a0c2e98f073f2424d75a90b4db111670b58e651c8af0a1b1da3fe92a",
    ("pauli3", "cdf"): "2e25aaea275f65bd2ab74d369963799482f133dce6bcbf81a2adb28ec8054bb4",
    ("stoke3", "mc"): "ed9fa334bf2c51e7dd69d7ac3c35c429a9fb7e6e781860caad1f447ce4579826",
    ("stoke3", "cdf"): "665aa4fe3e543eb858604adfdc808846fa7bb1e0c422aa954728a773d86fc92d",
    ("mub7", "mc"): "34707c49f8ce2d9065ff6073787e2821cf8c301df1bbde9134b852c1616a3d5c",
    ("mub7", "cdf"): "ad8cd44faff77b8c18e5886ed22516b5dfb59ef3fb6c3e143ac8f5859aa5ac15",
    ("sic8", "mc"): "9750336fca8e42bd422e27b2862d7917b6443c0e3b43a56ef57a783533e27d95",
    ("sic8", "cdf"): "0bddb39e62d3363bdbe0dbf0dbddeea5da843142666b1f094db60b836e52dbd4",
    ("pauli4", "mc"): "1effbad7922434c8686ec095822bad107b051c1842912aebabb444dcafbae941",
    ("pauli4", "cdf"): "298566d0255331b00fabedabc6d29df51df6169c2d8a15d0ca5eec03311a4d6e",
}
_GOLDEN_CASES = {
    "pauli3": (lambda: build_pauli_set(3), lambda: ghz(3)),
    "stoke3": (lambda: build_stoke_set(3), lambda: w(3)),
    "mub7": (lambda: build_mub_set(7), lambda: spin_coherent(3, 0.7, 0.3)),
    "sic8": (lambda: build_sic_set(8), lambda: spin_coherent(3.5, 1.1, 2.0)),
    "pauli4": (lambda: build_pauli_set(4), lambda: dicke(4, 2)),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_measure_and_sample_golden_digests(case):
    make_set, make_state = _GOLDEN_CASES[case[0]]
    freqs = measure_and_sample(make_state(), make_set(), SamplerBackend(method=case[1], seed=2024),
                               10_000)
    digest = hashlib.sha256(np.ascontiguousarray(freqs, dtype="<f8").tobytes()).hexdigest()
    assert digest == _GOLDEN[case]


@pytest.mark.parametrize("bad", ([np.nan, 1.0], [0.5, np.nan, 0.5], [np.inf, 1.0],
                                 [-np.inf, 1.0]))
def test_cdf_rejects_non_finite_probabilities(bad):
    with pytest.raises(InvalidDistribution):
        sample_cdf_discrete(bad, 10, 1)


@pytest.mark.parametrize("make_set", [lambda: build_pauli_set(1), lambda: build_stoke_set(1)])
def test_measure_and_sample_rejects_nan_states(make_set):
    nan_state = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidObject):
        measure_and_sample(nan_state, make_set(), SamplerBackend(method="cdf"), 10)
    with pytest.raises(InvalidObject):
        measure_and_sample(nan_state, make_set(), SamplerBackend(method="mc"), 10)


def test_non_integer_shot_counts_raise_invalid_parameter():
    with pytest.raises(InvalidParameter):
        sample_mc(0.5, 10.5)
    with pytest.raises(InvalidParameter):
        sample_cdf_discrete([0.5, 0.5], 10.5)
    with pytest.raises(InvalidParameter):
        sample_cdf_continuous(lambda r: r, 10.5)
    with pytest.raises(InvalidParameter):
        SamplerBackend(method="cdf", iterations=10.5)
    ms, state = build_pauli_set(1), basis(2, 0)
    for method in ("mc", "cdf"):
        for shots in (10.5, "10", np.float64(10.0)):
            with pytest.raises(InvalidParameter):
                measure_and_sample(state, ms, SamplerBackend(method=method), shots)


def test_numpy_integer_shot_counts_pass():
    assert sample_mc(0.5, np.int64(100), 3) == sample_mc(0.5, 100, 3)
    np.testing.assert_array_equal(sample_cdf_discrete([0.2, 0.8], np.int32(1000), 3),
                                  sample_cdf_discrete([0.2, 0.8], 1000, 3))
    ms, state = build_sic_set(2), basis(2, 1)
    for method in ("mc", "cdf"):
        backend = SamplerBackend(method=method, seed=5, iterations=np.int64(700))
        np.testing.assert_array_equal(measure_and_sample(state, ms, backend, np.uint16(700)),
                                      measure_and_sample(state, ms, backend, 700))
