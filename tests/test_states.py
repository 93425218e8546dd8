import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmkit import (
    add_random_noise,
    add_white_noise,
    basis,
    coherent,
    dicke,
    dual_basis,
    ghz,
    l2norm,
    position_state,
    random_haar,
    spin_coherent,
    squeezed,
    to_operator,
    w,
    zeeman,
)
from qmkit.errors import (
    InvalidParameter,
    InvalidQuantumNumber,
)
from qmkit.operators import lowering
from qmkit.states import _spin_coherent_magnitudes
from qmkit.tomography import fidelity


def test_basis_vectors():
    np.testing.assert_allclose(basis(3, 0).data.reshape(-1), [1, 0, 0])
    np.testing.assert_allclose(basis(3, 1).data.reshape(-1), [0, 1, 0])
    np.testing.assert_allclose(dual_basis(2, 1).data, [[0, 1]])


def test_zeeman_index_rule():
    np.testing.assert_allclose(zeeman(0.5, 0.5).data.reshape(-1), [1, 0])
    np.testing.assert_allclose(zeeman(1, -1).data.reshape(-1), [0, 0, 1])
    v = zeeman(10, 7).data.reshape(-1)
    assert v.shape == (21,)
    assert v[3] == 1.0  # index j - m
    assert np.count_nonzero(v) == 1


def test_zeeman_rejects_bad_m():
    with pytest.raises(InvalidQuantumNumber):
        zeeman(1, 0.5)
    with pytest.raises(InvalidQuantumNumber):
        zeeman(1, 2)
    for bad in (float("nan"), float("inf"), "a", None):
        with pytest.raises(InvalidQuantumNumber):
            zeeman(bad, 0)
        with pytest.raises(InvalidQuantumNumber):
            zeeman(1, bad)


def test_coherent_vacuum():
    np.testing.assert_allclose(coherent(10, 0).data.reshape(-1),
                               basis(10, 0).data.reshape(-1))


def test_coherent_amplitude_ratio():
    v = coherent(40, 0.7 + 0.2j).data.reshape(-1)
    assert v[1] / v[0] == pytest.approx(0.7 + 0.2j, abs=1e-12)


@pytest.mark.parametrize("d, alpha", [(30, 15), (30, 20), (5, 9), (40, 0.7 + 0.2j),
                                      (10, -2j), (1, 3)])
def test_coherent_matches_lgamma_oracle(d, alpha):
    """Far from the origin the Poisson weight e^{-|alpha|^2/2} underflows,
    so the amplitudes alpha^n / sqrt(n!) are compared in log space."""
    logs = [n * math.log(abs(alpha)) - 0.5 * math.lgamma(n + 1) for n in range(d)]
    top = max(logs)
    phase = cmath.phase(alpha)
    ref = np.array([cmath.exp(x - top + 1j * n * phase) for n, x in enumerate(logs)])
    ref /= np.linalg.norm(ref)
    np.testing.assert_allclose(coherent(d, alpha).data.reshape(-1), ref, rtol=1e-12, atol=0)


def test_coherent_mean_occupation():
    d, alpha = 20, 1.0
    psi = coherent(d, alpha)
    assert l2norm(psi) == pytest.approx(1.0, abs=1e-12)
    # direct-sum oracle for <a>: sum_n c*_n c_{n+1} sqrt(n+1)
    v = psi.data.reshape(-1)
    mean_a = sum(v[n].conjugate() * v[n + 1] * math.sqrt(n + 1)
                 for n in range(d - 1))
    assert mean_a == pytest.approx(alpha, abs=1e-6)


def test_squeezed_reduces_to_coherent():
    d, alpha = 25, 0.5 - 0.3j
    np.testing.assert_allclose(squeezed(d, alpha, 0).data,
                               coherent(d, alpha).data, atol=1e-8)
    np.testing.assert_allclose(squeezed(d, 0, 0).data.reshape(-1),
                               basis(d, 0).data.reshape(-1), atol=1e-12)


def test_squeezed_normalized():
    assert l2norm(squeezed(30, 0.4 + 0.1j, 0.3 - 0.2j)) == pytest.approx(1.0)


def test_position_state_qubit_case():
    # for d=2 the quadrature is sigma_x/sqrt(2)
    st = position_state(2, 1 / math.sqrt(2)).data.reshape(-1)
    np.testing.assert_allclose(st, np.ones(2) / math.sqrt(2), atol=1e-12)


def test_position_state_eigen_residual():
    d, x = 30, 0.8
    st = position_state(d, x).data.reshape(-1)
    a = lowering(d).data
    xop = (a + a.conj().T) / math.sqrt(2)
    lam = np.real(st.conj() @ xop @ st)
    assert np.linalg.norm(xop @ st - lam * st) < 1e-8
    assert np.linalg.norm(st) == pytest.approx(1.0)


def test_spin_coherent_north_pole():
    np.testing.assert_allclose(spin_coherent(3, 0.0, 1.3).data.reshape(-1),
                               zeeman(3, 3).data.reshape(-1), atol=1e-15)


def test_spin_coherent_half():
    theta, phi = 0.7, 1.9
    v = spin_coherent(0.5, theta, phi).data.reshape(-1)
    expected = [math.cos(theta / 2), math.sin(theta / 2) * np.exp(-1j * phi)]
    np.testing.assert_allclose(v, expected, atol=1e-15)


def test_spin_coherent_norm_binomial_identity():
    assert l2norm(spin_coherent(10, 0.3, 1.1)) == pytest.approx(1.0, abs=1e-10)


def test_spin_coherent_large_j_unit_norm():
    # C(1200, 600) overflows a float; the log-space amplitudes do not
    assert l2norm(spin_coherent(600, 1.0, 0.3)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("two_j", [1, 20, 1200])
def test_spin_coherent_log_binomial_term(two_j):
    # at theta = pi/2 the trig factors are known, so log c_i gives the
    # log-binomial term back: 2 (log c_i - (2j - i) log cos - i log sin)
    mags = _spin_coherent_magnitudes(two_j, np.array([math.pi / 2]))[0]
    i = np.arange(two_j + 1)
    term = 2 * (np.log(mags) - (two_j - i) * math.log(math.cos(math.pi / 4))
                - i * math.log(math.sin(math.pi / 4)))
    exact = [math.log(math.comb(two_j, k)) for k in range(two_j + 1)]
    np.testing.assert_allclose(term, exact, rtol=0, atol=1e-11)


def test_spin_coherent_poles_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mags = _spin_coherent_magnitudes(6, np.array([0.0, math.pi]))   # sin(0) = 0 exactly
    np.testing.assert_array_equal(mags[0], np.eye(7)[0])
    np.testing.assert_allclose(mags[1], np.eye(7)[6], rtol=0, atol=1e-15)


def test_spin_coherent_matches_closed_form():
    for j in (0.5, 1, 3, 7.5, 10, 20):
        two_j = round(2 * j)
        for theta in (0.0, math.pi, 4.0, -0.5, 1.3):
            phi = 0.7 * theta + 0.2
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            expected = [math.sqrt(math.comb(two_j, i)) * c ** (two_j - i) * s**i
                        * np.exp(-1j * i * phi) for i in range(two_j + 1)]
            np.testing.assert_allclose(spin_coherent(j, theta, phi).data.reshape(-1),
                                       expected, rtol=0, atol=1e-14)


def test_spin_coherent_overlap_law():
    j, theta = 7.5, 1.1
    sc = spin_coherent(j, theta, 0.0)
    top = zeeman(j, j)
    overlap = (top.data.conj() * sc.data).sum()
    assert overlap == pytest.approx(math.cos(theta / 2) ** (2 * j), abs=1e-10)


def test_random_haar_reproducible():
    a = random_haar(5, rng=20).data
    b = random_haar(5, rng=20).data
    np.testing.assert_array_equal(a, b)
    assert l2norm(a) == pytest.approx(1.0)


def test_random_haar_first_component_moment():
    # Haar moment: E|<0|psi>|^2 = 1/d; check the sample mean within 5 sigma
    rng = np.random.default_rng(7)
    d, trials = 4, 10_000
    samples = np.array(
        [abs(random_haar(d, rng).data[0, 0]) ** 2 for _ in range(trials)]
    )
    se = samples.std(ddof=1) / math.sqrt(trials)
    assert abs(samples.mean() - 1 / d) < 5 * se


def test_ghz_examples():
    np.testing.assert_allclose(ghz(1).data.reshape(-1), np.ones(2) / math.sqrt(2))
    v = ghz(3).data.reshape(-1)
    assert v[0] == pytest.approx(1 / math.sqrt(2))
    assert v[7] == pytest.approx(1 / math.sqrt(2))
    assert np.count_nonzero(v) == 2


def test_w_and_dicke():
    np.testing.assert_allclose(w(2).data.reshape(-1),
                               np.array([0, 1, 1, 0]) / np.sqrt(2))
    v = dicke(3, 2).data.reshape(-1)
    expected = np.zeros(8)
    expected[[3, 5, 6]] = 1 / math.sqrt(3)  # |011>, |101>, |110>
    np.testing.assert_allclose(v, expected)


def test_dicke_edges_and_w_identity():
    for n in (1, 2, 4):
        np.testing.assert_array_equal(dicke(n, 0).data.reshape(-1),
                                      basis(2**n, 0).data.reshape(-1))
        np.testing.assert_array_equal(dicke(n, n).data.reshape(-1),
                                      basis(2**n, 2**n - 1).data.reshape(-1))
        np.testing.assert_array_equal(w(n).data, dicke(n, 1).data)


def test_add_random_noise_degenerate():
    psi = ghz(3)
    out = add_random_noise(psi, mean=0.0, stdev=0.0, rng=1)
    np.testing.assert_allclose(out.data, psi.data, atol=1e-15)


@pytest.mark.parametrize("psi", [ghz(1).data.T, np.eye(2) / 2, [[1.0]]])
def test_add_random_noise_is_for_kets_only(psi):
    # a bra, a density matrix and a 1 x 1 operator are refused before any draw
    with pytest.raises(InvalidParameter, match="defined for kets"):
        add_random_noise(psi, 0.0, 0.1, rng=1)


def test_add_random_noise_normalized():
    out = add_random_noise(ghz(2), mean=0.1, stdev=0.3, rng=3)
    assert l2norm(out) == pytest.approx(1.0, abs=1e-12)


def test_add_random_noise_mean_fidelity():
    # Monte-Carlo check: at st = 0.1 the state stays close to the original
    rng = np.random.default_rng(11)
    psi = ghz(3)
    fids = [
        fidelity(to_operator(psi), to_operator(add_random_noise(psi, 0.0, 0.1, rng)))
        for _ in range(1000)
    ]
    assert np.mean(fids) > 0.9


def test_add_white_noise_examples():
    rho0 = to_operator(basis(2, 0))
    np.testing.assert_array_equal(add_white_noise(rho0, 0.0).data, rho0.data)
    out = add_white_noise(rho0, 1.0)
    np.testing.assert_allclose(out.data, np.eye(2) / 2)
    np.testing.assert_allclose(add_white_noise(basis(2, 0), 0.1).data,
                               np.diag([0.95, 0.05]))


def test_add_white_noise_validates_p():
    with pytest.raises(InvalidParameter):
        add_white_noise(basis(2, 0), 1.5)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0, 1), st.integers(2, 6))
def test_white_noise_keeps_state_valid(seed, p, d):
    rng = np.random.default_rng(seed)
    psi = random_haar(d, rng)
    rho = add_white_noise(psi, p)
    assert rho.is_hermitian()
    assert np.trace(rho.data).real == pytest.approx(1.0, abs=1e-10)
    assert np.linalg.eigvalsh(rho.data).min() >= -1e-10


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 5, 9]))
def test_factories_produce_unit_kets(seed, d):
    rng = np.random.default_rng(seed)
    assert l2norm(random_haar(d, rng)) == pytest.approx(1.0, abs=1e-10)
    alpha = complex(rng.normal(), rng.normal())
    assert l2norm(coherent(max(d, 2), alpha)) == pytest.approx(1.0, abs=1e-10)
    j = d / 2
    theta, phi = rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)
    assert l2norm(spin_coherent(j, theta, phi)) == pytest.approx(1.0, abs=1e-10)


def test_noise_channels_reject_out_of_range_parameters():
    with pytest.raises(InvalidParameter):
        add_white_noise(basis(2, 0), p=2.0)
    for mean, stdev in ((0.0, -1.0), (0.0, math.nan), (0.0, math.inf), (math.nan, 0.1),
                        (math.inf, 0.0)):
        with pytest.raises(InvalidParameter):
            add_random_noise(basis(2, 0), mean=mean, stdev=stdev)
