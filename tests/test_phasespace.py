import cmath
import dataclasses
import decimal
import hashlib
import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import racah_clebsch_gordan, random_density, random_ket
from qmkit import (
    PlanarGrid,
    SphericalGrid,
    basis,
    cat_state,
    clebsch_gordan,
    coherent,
    density_matrix,
    displacement,
    husimi_planar,
    husimi_spherical,
    identity,
    read_grid,
    spherical_harmonic,
    spin_coherent,
    squeezed,
    to_operator,
    wigner_planar,
    wigner_spherical,
    write_grid,
    zeeman,
)
from qmkit import qcore
from qmkit.errors import InvalidParameter, InvalidQuantumNumber, UnsupportedDimension, ZeroNorm
from qmkit.phasespace import (
    _axial_phases,
    _bits,
    _complex_product,
    _diagonal_layout,
    _horner,
    _husimi_diagonals,
    _husimi_terms,
    _laguerre_basis,
    _radial,
    _spin_magnitudes,
    _spin_phases,
    _stratonovich_kernel,
    _wigner_diagonals,
    _wigner_terms,
    spherical_multipole,
)
from qmkit.states import _spin_coherent_magnitudes


# ---------------------------------------------------------------------------
# Clebsch-Gordan
# ---------------------------------------------------------------------------

def test_cg_stretched():
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 1) == pytest.approx(1.0)


def test_cg_singlet():
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 0, 0) == pytest.approx(1 / math.sqrt(2))
    assert clebsch_gordan(0.5, -0.5, 0.5, 0.5, 0, 0) == pytest.approx(-1 / math.sqrt(2))


def test_cg_selection_rules():
    assert clebsch_gordan(1, 1, 1, 1, 2, 1) == 0.0   # M != m1+m2
    assert clebsch_gordan(1, 0, 1, 0, 3, 0) == 0.0   # J outside triangle
    assert clebsch_gordan(2, 0, 1, 0, 0.5, 0) == 0.0  # parity violated


def test_cg_projection_beyond_its_spin_vanishes():
    assert clebsch_gordan(1, 2, 1, -1, 1, 1) == 0.0   # |m1| > j1
    assert clebsch_gordan(1, -1, 1, 2, 1, 1) == 0.0   # |m2| > j2
    assert clebsch_gordan(1, 1, 1, 1, 1, 2) == 0.0    # |M| > J


def test_cg_rejects_non_half_integers():
    with pytest.raises(InvalidQuantumNumber):
        clebsch_gordan(0.3, 0.3, 1, 0, 1, 0.3)
    for bad in (float("nan"), float("inf"), "a", None):
        with pytest.raises(InvalidQuantumNumber):
            clebsch_gordan(bad, 0, 1, 0, 1, 0)
        with pytest.raises(InvalidQuantumNumber):
            clebsch_gordan(1, 0, 1, bad, 1, 0)


def test_cg_validation_names_the_argument():
    with pytest.raises(InvalidQuantumNumber, match="m2"):
        clebsch_gordan(1, 0, 1, 0.3, 1, 0)
    with pytest.raises(InvalidQuantumNumber, match="J must be a non-negative"):
        clebsch_gordan(1, 0, 1, 0, -1, 0)
    assert clebsch_gordan(1, -1, 1, 1, 1, 0) != 0.0   # negative projections are fine


def test_cg_against_sympy():
    sympy_cg = pytest.importorskip("sympy.physics.quantum.cg")
    from sympy import Rational, sqrt  # noqa: F401
    cases = [
        (1, 0, 1, 0, 2, 0), (1, 1, 1, -1, 0, 0), (1.5, 0.5, 1, -1, 1.5, -0.5),
        (2, 1, 1, 0, 2, 1), (2, -1, 2, 1, 3, 0), (0.5, -0.5, 1.5, 0.5, 2, 0),
        (3, 2, 2, -1, 4, 1), (2.5, 1.5, 1.5, -0.5, 3, 1),
    ]
    for j1, m1, j2, m2, J, M in cases:
        ours = clebsch_gordan(j1, m1, j2, m2, J, M)
        ref = float(sympy_cg.CG(Rational(2 * j1, 2), Rational(2 * m1, 2),
                                Rational(2 * j2, 2), Rational(2 * m2, 2),
                                Rational(2 * J, 2), Rational(2 * M, 2)).doit())
        assert ours == pytest.approx(ref, abs=1e-12)


def test_cg_orthogonality():
    # sum_{m1,m2} <j1 m1; j2 m2|J M><j1 m1; j2 m2|J' M'> = delta_JJ' delta_MM'
    for j1, j2 in [(0.5, 0.5), (1, 1), (1.5, 1), (3, 2)]:
        Js = np.arange(abs(j1 - j2), j1 + j2 + 1)
        for J, Jp in itertools.product(Js, repeat=2):
            for M in np.arange(-min(J, Jp), min(J, Jp) + 1):
                total = 0.0
                for m1 in np.arange(-j1, j1 + 1):
                    m2 = M - m1
                    if abs(m2) > j2:
                        continue
                    total += (clebsch_gordan(j1, m1, j2, m2, J, M)
                              * clebsch_gordan(j1, m1, j2, m2, Jp, M))
                expected = 1.0 if J == Jp else 0.0
                assert total == pytest.approx(expected, abs=1e-10)


def test_cg_large_j_still_finite():
    # the exact integer sum keeps working at 2j = 40
    v = clebsch_gordan(20, 0, 20, 0, 0, 0)
    assert v == pytest.approx((-1.0) ** 20 / math.sqrt(41), abs=1e-12)


def test_cg_matches_racah_bit_for_bit():
    # every valid label set with 2j <= 12 (the oracle raises past |M| = J), then a few past j = 100
    small = [(tj1 / 2, tm1 / 2, tj2 / 2, tm2 / 2, tJ / 2, (tm1 + tm2) / 2)
             for tj1, tj2 in itertools.product(range(13), repeat=2)
             for tJ in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
             for tm1 in range(-tj1, tj1 + 1, 2) for tm2 in range(-tj2, tj2 + 1, 2)
             if abs(tm1 + tm2) <= tJ]
    assert len(small) == 45045
    large = [(100, 0, 100, 0, 100, 0), (100, 3, 100, -3, 150, 0), (120.5, -7.5, 99.5, 12.5, 31, 5),
             (150, 150, 150, -150, 0, 0), (200, 17, 101, -16, 299, 1)]
    for args in small + large:
        assert clebsch_gordan(*args).hex() == racah_clebsch_gordan(*args).hex(), args


def test_cg_admits_a_spin_up_to_the_size_rule():
    # (2j + 1)**2 entries of 16 bytes fit in 1 GiB up to 2j + 1 = 8192
    assert clebsch_gordan(4095.5, 0.5, 4095.5, -0.5, 4095, 0) != 0.0
    with pytest.raises(UnsupportedDimension, match=r"j1 4096 needs 8193\*\*2 complex entries"):
        clebsch_gordan(4096, 0, 1, 0, 4096, 0)


# ---------------------------------------------------------------------------
# spherical harmonics
# ---------------------------------------------------------------------------

def test_y00_constant():
    for th, ph in [(0.1, 0.2), (1.5, 3.0), (3.0, 5.5)]:
        assert spherical_harmonic(0, 0, th, ph) == pytest.approx(1 / (2 * math.sqrt(math.pi)))


def test_y10_formula():
    for th in (0.0, 0.4, 1.2, 2.8):
        expected = math.sqrt(3 / (4 * math.pi)) * math.cos(th)
        assert spherical_harmonic(1, 0, th, 0.7) == pytest.approx(expected, abs=1e-12)


def test_y_conjugation_law(rng):
    for _ in range(20):
        k = int(rng.integers(0, 6))
        q = int(rng.integers(-k, k + 1))
        th = float(rng.uniform(0, math.pi))
        ph = float(rng.uniform(0, 2 * math.pi))
        lhs = np.conj(spherical_harmonic(k, q, th, ph))
        rhs = (-1.0) ** q * spherical_harmonic(k, -q, th, ph)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_y_orthonormality_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(32)
    thetas = np.arccos(nodes)
    nphi = 64
    phis = np.linspace(0, 2 * math.pi, nphi, endpoint=False)
    TH, PH = np.meshgrid(thetas, phis, indexing="ij")
    W = weights[:, None] * (2 * math.pi / nphi)
    for (k1, q1), (k2, q2) in itertools.combinations_with_replacement(
            [(k, q) for k in range(9) for q in range(-k, k + 1)], 2):
        y1 = spherical_harmonic(k1, q1, TH, PH)
        y2 = spherical_harmonic(k2, q2, TH, PH)
        inner = np.sum(np.conj(y1) * y2 * W)
        expected = 1.0 if (k1, q1) == (k2, q2) else 0.0
        assert abs(inner - expected) < 1e-6


def test_y_validates_quantum_numbers():
    with pytest.raises(InvalidQuantumNumber):
        spherical_harmonic(1, 2, 0.3, 0.4)
    with pytest.raises(InvalidQuantumNumber):
        spherical_harmonic(-1, 0, 0.3, 0.4)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "a", None, 1j])
@pytest.mark.parametrize("wrap", [lambda v: v, lambda v: [0.3, v]], ids=["scalar", "array"])
@pytest.mark.parametrize("slot", [0, 1], ids=["theta", "phi"])
def test_y_refuses_non_finite_or_non_real_angles(bad, wrap, slot):
    angles = [[0.3, 0.4], [0.3, 0.4]]
    angles[slot] = wrap(bad)
    with pytest.raises(InvalidParameter):
        spherical_harmonic(2, 1, *angles)


@pytest.mark.parametrize("theta, phi", [(0.7, 1.9), (0, 3), (np.float32(1.1), -0.4),
                                        (np.linspace(0, math.pi, 5), np.linspace(0, 6, 5)),
                                        ([0.2, 2.9], 4.0)])
def test_y_matches_scipy_bitwise(theta, phi):
    import scipy.special

    got = spherical_harmonic(3, -2, theta, phi)
    want = scipy.special.sph_harm_y(3, -2, theta, phi)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# ---------------------------------------------------------------------------
# planar maps
# ---------------------------------------------------------------------------

def test_husimi_vacuum_gaussian():
    grid = PlanarGrid(x_range=(-3, 3), y_range=(-3, 3), nx=41, ny=41)
    out = husimi_planar(to_operator(basis(30, 0)), grid)
    X, Y = np.meshgrid(grid.xs, grid.ys, indexing="xy")
    analytic = np.exp(-(grid.xs[None, :] ** 2 + grid.ys[:, None] ** 2)) / math.pi
    assert np.max(np.abs(out.values - analytic)) <= 1e-6
    assert out.values.min() >= -1e-12


def test_husimi_vacuum_origin():
    grid = PlanarGrid(x_range=(-1, 1), y_range=(-1, 1), nx=3, ny=3)
    out = husimi_planar(basis(20, 0), grid)
    assert out.values[1, 1] == pytest.approx(1 / math.pi, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 5, 12, 30])
@pytest.mark.parametrize("grid", [
    PlanarGrid(),
    PlanarGrid(x_range=(-2.0, 3.5), y_range=(-4.0, 1.0), nx=23, ny=17),
])
def test_husimi_planar_matches_coherent_state_loop(d, grid):
    rho = random_density(np.random.default_rng(70 + d), d).data
    ref = np.empty((grid.ny, grid.nx))
    for iy, y in enumerate(grid.ys):
        for ix, x in enumerate(grid.xs):
            ket = coherent(d, complex(x, y)).data[:, 0]
            ref[iy, ix] = np.real(np.vdot(ket, rho @ ket)) / math.pi
    assert np.max(np.abs(husimi_planar(rho, grid).values - ref)) <= 1e-13


@pytest.mark.parametrize("grid", [
    PlanarGrid(),
    PlanarGrid(x_range=(-2.0, 3.5), y_range=(-4.0, 1.0), nx=23, ny=17),
])
def test_husimi_planar_of_a_ket_equals_the_map_of_its_projector(grid):
    # a ket or bra takes one Horner pass with scalar coefficients, its projector the
    # diagonal sums; an unnormalised input is read as its unit vector by both
    rng = np.random.default_rng(41)
    for d in range(1, 41):
        psi = (2.0 - 1.0j) * random_ket(rng, d).data.ravel()
        for state in ([psi] if d == 1 else [psi, psi[:, None], psi[None, :]]):  # 1-d, ket, bra
            got = husimi_planar(state, grid).values
            want = husimi_planar(to_operator(state), grid).values
            assert np.abs(got - want).max() <= 1e-15, (d, np.shape(state))


_PI_50 = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582")


def _exact_husimi(psi, alpha):
    """|<alpha_d|psi>|^2 / pi at 50 digits from the float entries of psi and
    alpha: |sum_n conj(psi_n) alpha^n / sqrt(n!)|^2 / (pi |psi|^2 N(|alpha|^2))."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        dec = decimal.Decimal
        x, y = dec(alpha.real), dec(alpha.imag)
        f_re = f_im = total = size = dec(0)
        power_re, power_im, factorial = dec(1), dec(0), 1          # alpha^n and n!
        for n, c in enumerate(psi):
            c_re, c_im, root = dec(c.real), -dec(c.imag), dec(factorial).sqrt()
            f_re += (c_re * power_re - c_im * power_im) / root
            f_im += (c_re * power_im + c_im * power_re) / root
            total += (power_re * power_re + power_im * power_im) / factorial
            size += c_re * c_re + c_im * c_im
            power_re, power_im = power_re * x - power_im * y, power_re * y + power_im * x
            factorial *= n + 1
        return (f_re * f_re + f_im * f_im) / (_PI_50 * size * total)


@pytest.mark.parametrize("state, grid", [
    (coherent(30, 1 + 0.5j), PlanarGrid(nx=3, ny=3)),        # Q is 1.7e-13 at a corner
    (squeezed(30, 0.3 - 0.2j, 0.4), PlanarGrid(x_range=(-3.0, 2.0), y_range=(2.5, -1.0), nx=3, ny=2)),
    (coherent(40, 30), PlanarGrid(x_range=(36.0, 38.6), y_range=(0.0, 0.0), nx=4, ny=2)),  # reach
])
def test_husimi_planar_of_a_ket_matches_an_exact_decimal_sum(state, grid):
    psi = state.data.ravel()
    got = husimi_planar(state, grid).values
    for iy, y in enumerate(grid.ys):
        for ix, x in enumerate(grid.xs):
            exact = _exact_husimi(psi, complex(x, y))
            assert abs(decimal.Decimal(got[iy, ix]) - exact) <= exact * decimal.Decimal("1e-12")


def _refusal(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


def test_husimi_planar_refuses_a_ket_as_it_refuses_its_projector(monkeypatch):
    ket, far = coherent(40, 30), PlanarGrid(x_range=(36.0, 42.0), y_range=(0.0, 1.0), nx=4, ny=2)
    assert (_refusal(lambda: husimi_planar(ket, "grid"))
            == _refusal(lambda: husimi_planar(to_operator(ket), "grid")))
    for state in (ket, ket.data.T):         # past |alpha|^2 = 1,490 both paths map alike
        np.testing.assert_allclose(husimi_planar(state, far).values,
                                   husimi_planar(to_operator(state), far).values, rtol=1e-14, atol=0)
    assert _refusal(lambda: husimi_planar(np.zeros(3))) == _refusal(lambda: density_matrix(np.zeros(3)))
    assert _refusal(lambda: husimi_planar(np.zeros(3)))[0] is ZeroNorm
    monkeypatch.setattr(qcore, "MAX_STACK_BYTES", 2**20)
    _husimi_terms.cache_clear()
    ket = coherent(60, 1 + 0.5j)
    refusals = [_refusal(lambda: husimi_planar(state, PlanarGrid(nx=250, ny=250)))
                for state in (ket, to_operator(ket))]
    assert refusals[0] == refusals[1] and refusals[0][0] is UnsupportedDimension


def test_wigner_vacuum_gaussian():
    grid = PlanarGrid(x_range=(-2, 2), y_range=(-2, 2), nx=21, ny=21)
    out = wigner_planar(basis(30, 0), grid)
    analytic = (2 / math.pi) * np.exp(
        -2 * (grid.xs[None, :] ** 2 + grid.ys[:, None] ** 2))
    assert np.max(np.abs(out.values - analytic)) <= 1e-5


def test_wigner_single_photon_negative_origin():
    grid = PlanarGrid(x_range=(-1, 1), y_range=(-1, 1), nx=3, ny=3)
    _clear_caches()                      # so the kernels are built at alpha = 0 too
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # no log 0 or 0/0 where alpha = 0
        out = wigner_planar(basis(25, 1), grid)
    assert out.values[1, 1] == pytest.approx(-2 / math.pi, abs=1e-10)


def _rational_laguerre_wigner(rho, alpha: complex) -> float:
    """W(alpha) by the Laguerre series, each L_m^(k)(x) at x = |2 alpha|^2
    summed exactly in Fractions from the float alpha; sqrt(m!/n!) |2 alpha|^k
    e^{-x/2} and the phase are applied per term in floats."""
    d = len(rho)
    x = 4 * (Fraction(alpha.real) ** 2 + Fraction(alpha.imag) ** 2)
    powers = [x ** j / math.factorial(j) for j in range(d)]
    radius, damping = math.sqrt(x), math.exp(-float(x) / 2)
    unit = cmath.exp(1j * cmath.phase(alpha))
    total = 0.0
    for k in range(d):
        for m in range(d - k):
            lag = sum((-1) ** j * math.comb(m + k, m - j) * powers[j] for j in range(m + 1))
            scale = math.sqrt(math.factorial(m) / math.factorial(m + k)) * radius ** k * damping
            total += ((1 if k == 0 else 2) * (-1) ** m * rho[m, m + k] * unit ** k
                      * float(lag) * scale).real
    return 2 / math.pi * total


@pytest.mark.parametrize("grid", [PlanarGrid(), PlanarGrid(x_range=(-8, 8), y_range=(-8, 8))])
def test_wigner_planar_matches_an_exact_rational_laguerre_sum(grid):
    rho = random_density(np.random.default_rng(2024), 30).data
    out = wigner_planar(rho, grid)
    for iy, ix in ((0, 0), (0, 60), (60, 0), (60, 60), (30, 30), (17, 44), (52, 9)):
        alpha = complex(grid.xs[ix], grid.ys[iy])
        assert abs(out.values[iy, ix] - _rational_laguerre_wigner(rho, alpha)) <= 1e-14


def _decimal_laguerre_wigner(psi, alpha: float) -> decimal.Decimal:
    """W(alpha) of the ket psi at a real alpha >= 0 by the Laguerre series at
    40 digits from the float entries of psi and alpha: each L_m^(k)(x) at
    x = 4 alpha^2 by its three-term recurrence in m, and e^{-x/2} in decimals,
    which do not underflow where floats do."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        dec, d = decimal.Decimal, len(psi)
        x, re, im = 4 * dec(alpha) ** 2, [dec(c.real) for c in psi], [dec(c.imag) for c in psi]
        total = dec(0)
        for k in range(d):
            prev, lag, ratio, part = dec(0), dec(1), 1 / dec(math.factorial(k)), dec(0)
            for m in range(d - k):           # lag = L_m^(k)(x), ratio = m! / (m + k)!
                rho = re[m] * re[m + k] + im[m] * im[m + k]
                part += (-1) ** m * rho * ratio.sqrt() * lag
                prev, lag = lag, ((2 * m + k + 1 - x) * lag - (m + k) * prev) / (m + 1)
                ratio = ratio * (m + 1) / (m + k + 1)
            total += (1 if k == 0 else 2) * part * x.sqrt() ** k
        size = sum(a * a + b * b for a, b in zip(re, im))
        return 2 * total * (-x / 2).exp() / (_PI_50 * size)


@pytest.mark.parametrize("alpha", [19.3, 19.6])
def test_wigner_planar_matches_a_decimal_laguerre_sum_at_the_top_of_its_cutoff(alpha):
    # x = |2 alpha|^2 is 1,490 and 1,537: e^{-x/2} is subnormal or 0 in floats
    state = coherent(406, alpha)
    grid = PlanarGrid(x_range=(alpha - 0.1, alpha + 0.1), y_range=(0, 0), nx=3, ny=2)
    got = wigner_planar(state, grid).values[0, 1]
    exact = _decimal_laguerre_wigner(state.data.ravel(), grid.xs[1])
    assert abs(decimal.Decimal(got) - exact) <= decimal.Decimal("1e-12")


def _traced(call) -> tuple:
    """call() and the tracemalloc peak it reached."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_wigner_planar_stays_within_its_bound_to_the_top_of_its_cutoff():
    # each map after the first is warm: it keeps far under the 511 MiB basis
    grid = PlanarGrid(x_range=(17, 21), y_range=(0, 0), nx=41, ny=2)
    try:
        for alpha in (18, 19, 19.3, 19.6, 20):
            values, peak = _traced(lambda: wigner_planar(coherent(406, alpha), grid).values)
            assert np.isfinite(values).all() and np.abs(values).max() <= 2 / math.pi + 1e-12, alpha
            assert alpha == 18 or peak < 64 * 2**20, alpha
    finally:
        _laguerre_basis.cache_clear()


def test_a_warm_wigner_planar_map_never_copies_its_laguerre_basis():
    rho, grid = coherent(100, 1 + 0.5j), PlanarGrid(nx=5, ny=5)
    wigner_planar(rho, grid)
    assert _traced(lambda: wigner_planar(rho, grid))[1] < _laguerre_basis(100).nbytes / 4


@pytest.mark.parametrize("d", [2, 5, 30])
def test_laguerre_basis_gives_every_laguerre_function(d):
    g = _laguerre_basis(d)
    assert np.array_equal(g[0], np.eye(d))
    assert np.array_equal(g[1, :d - 1], np.eye(d - 1, d)) and not g[1, d - 1].any()
    grid = PlanarGrid(x_range=(-8, 8), y_range=(-8, 8))
    xs, ys = _bits(grid.xs), _bits(grid.ys)
    x = 4 * _radial(xs, ys)[1]
    table = _wigner_terms(d, xs, ys)[0]
    for k in range(d):
        # psi_n^k = sqrt(n!/(n+k)!) x^(k/2) e^(-x/2) L_n^(k)(x), forward in n
        prev, psi = 0.0, x ** (k / 2) * np.exp(-x / 2) / math.sqrt(math.factorial(k))
        for n in range(d - k):
            assert np.max(np.abs(g[k, n] @ table[k % 2] - psi)) <= 1e-13
            prev, psi = psi, (((2 * n + k + 1 - x) * psi - math.sqrt(n * (n + k)) * prev)
                              / math.sqrt((n + 1) * (n + k + 1)))


def _loop_laguerre_basis(d):
    """The Laguerre basis row by row, as it was built before the anti-diagonal form."""
    g = np.zeros((d, d, d))
    g[0] = np.eye(d)
    g[1:2, :d - 1] = np.eye(d - 1, d)
    for k in range(2, d):
        for n in range(d - k):
            row = math.sqrt(n + k - 1) * g[k - 2, n] - math.sqrt(n + 1) * g[k - 2, n + 1]
            if n:
                row += math.sqrt(n) * g[k, n - 1]
            g[k, n] = row / math.sqrt(n + k)
    return g


def _loop_husimi_terms(d, xs, ys):
    """``_husimi_terms`` as it was built before its recurrence ran in place; its
    scale is the expression kets read before the table was normalised."""
    _, radii, inverse = _radial(xs, ys)
    mant, exps = np.ones((d, radii.size)), np.zeros((d, radii.size), dtype=int)
    for m in range(1, d):
        mant[m], step = np.frexp(mant[m - 1] * radii / m)
        exps[m] = exps[m - 1] + step
    half, odd = np.divmod(top := exps.max(axis=0), 2)
    total = np.ldexp(mant, exps - top).sum(axis=0)
    scale = np.ldexp(1 / np.sqrt(np.ldexp(total, odd)), -half)
    return np.ldexp(mant, exps - top) / total, scale[inverse]


def test_kernel_builders_equal_their_loops_bitwise():
    for d in (*range(1, 8), 30, 61, 100):
        assert _laguerre_basis(d).tobytes() == _loop_laguerre_basis(d).tobytes(), d
    for grid in (PlanarGrid(), PlanarGrid(x_range=(36.0, 60.0), y_range=(0.0, 0.0), nx=4, ny=2),
                 PlanarGrid(x_range=(-8, 8), y_range=(-8, 8), nx=41, ny=41)):
        for d in (1, 2, 5, 30, 61, 200):
            built, loop = _husimi_terms(d, *grid._keys), _loop_husimi_terms(d, *grid._keys)
            assert [a.tobytes() for a in built] == [a.tobytes() for a in loop], (d, grid)


_SUBNORMAL = decimal.Decimal(2) ** -1074


def _log_norm(x: float, d: int) -> decimal.Decimal:
    """ln N(x), N(x) = sum_{m<d} x^m / m!, from the float x by a 40-digit log-sum-exp."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        if x == 0:
            return decimal.Decimal(0)
        ln_x, ln_factorial, logs = decimal.Decimal(x).ln(), decimal.Decimal(0), []
        for m in range(d):
            ln_factorial += decimal.Decimal(max(m, 1)).ln()
            logs.append(m * ln_x - ln_factorial)
        top = max(logs)
        return top + sum((v - top).exp() for v in logs).ln()


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 300), st.floats(0.0, 1e6))
def test_husimi_terms_are_normalised_at_any_radius(d, reach):
    # x^m / (m! N(x)) from x = 0 to 1e6, where x^m / m! alone passes 1e308 and
    # e^{-x/2} is 0: every column is a distribution, and scale^2 N(x) = 1 while
    # scale is a normal float (past N(x) = 2^2044 it is subnormal, and is read to
    # its spacing 2^-1074)
    grid = PlanarGrid(x_range=(0.0, math.sqrt(reach)), y_range=(0.0, 0.0), nx=4, ny=2)
    _husimi_terms.cache_clear()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        terms, scale = _husimi_terms(d, *grid._keys)
    assert terms.shape[0] == d and np.isfinite(terms).all() and terms.min() >= 0.0
    assert np.abs(terms.sum(axis=0) - 1.0).max() <= 1e-13
    _, radii, inverse = _radial(*grid._keys)
    for x, s in zip(radii[inverse], scale):
        want = (-_log_norm(x, d) / 2).exp()                             # 1 / sqrt(N(x))
        assert abs(decimal.Decimal(s) - want) <= want * decimal.Decimal("5e-14") + _SUBNORMAL, (x, d)


def test_wigner_planar_coherent_analytic_whole_grid():
    # the Laguerre series is exact for the truncated state, so the default
    # grid's corners (|alpha - alpha0| up to 4.6) are as good as its centre
    alpha0 = 1 + 0.5j
    grid = PlanarGrid()
    out = wigner_planar(coherent(30, alpha0), grid)
    pts = grid.xs[None, :] + 1j * grid.ys[:, None]
    analytic = 2 / math.pi * np.exp(-2 * np.abs(pts - alpha0) ** 2)
    assert np.max(np.abs(out.values - analytic)) <= 1e-12


def _displaced_parity_wigner(rho, pts, cutoff):
    """The displaced-parity sum W(alpha) = (2/pi) sum_k (-1)^k
    <k|D(alpha)^dag rho D(alpha)|k> with D(alpha) the exponential of the
    truncated generator at ``cutoff``, for every point at once.

    alpha a^dag - alpha* a = R (|alpha| K) R^dag with K = a^dag - a and
    R = exp(i arg(alpha) n), so D(alpha)^dag = R exp(-|alpha| K) R^dag and
    one eigendecomposition of the Hermitian iK serves the whole grid.
    """
    d = rho.shape[0]
    lam, small = np.linalg.eigh(rho)
    vecs = np.zeros((cutoff, d), dtype=complex)
    vecs[:d] = small
    n = np.arange(cutoff)
    a = np.diag(np.sqrt(n[1:]), 1)
    mu, v = np.linalg.eigh(1j * (a.T - a))        # K = -i v diag(mu) v^dag
    r, arg = np.abs(pts)[:, None], np.angle(pts)[:, None]
    out = np.zeros(pts.size)
    for weight, psi in zip(lam, vecs.T):
        shifted = ((np.exp(-1j * arg * n) * psi) @ v.conj() * np.exp(1j * r * mu)) @ v.T
        shifted *= np.exp(1j * arg * n)
        out += weight * (np.abs(shifted) ** 2 @ (-1.0) ** n)
    return 2 / math.pi * out


def test_displaced_parity_oracle_matches_displacement_operator():
    rng = np.random.default_rng(11)
    rho = random_density(rng, 5).data
    pts = np.array([0.3 - 0.2j, -1.5 + 2.5j, 3 - 3j])
    ref = _displaced_parity_wigner(rho, pts, 40)
    for alpha, w in zip(pts, ref):
        dd = displacement(40, alpha).data[:5]
        diag = np.einsum("ik,ij,jk->k", dd.conj(), rho, dd)
        assert w == pytest.approx(2 / math.pi * np.real((-1.0) ** np.arange(40) @ diag),
                                  abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 5, 12])
def test_wigner_planar_matches_displaced_parity_at_cutoff_80(d):
    rng = np.random.default_rng(40 + d)
    rho = random_density(rng, d).data
    grid = PlanarGrid()
    pts = (grid.xs[None, :] + 1j * grid.ys[:, None]).reshape(-1)
    ref = _displaced_parity_wigner(rho, pts, 80).reshape(grid.ny, grid.nx)
    assert np.max(np.abs(wigner_planar(rho, grid).values - ref)) <= 1e-9


def test_husimi_normalization_riemann():
    grid = PlanarGrid(x_range=(-5, 5), y_range=(-5, 5), nx=161, ny=161)
    out = husimi_planar(coherent(40, 1.0), grid)
    dx = grid.xs[1] - grid.xs[0]
    dy = grid.ys[1] - grid.ys[0]
    assert np.sum(out.values) * dx * dy == pytest.approx(1.0, abs=1e-3)


def test_planar_linearity():
    rng = np.random.default_rng(3)
    r1 = random_density(rng, 12)
    r2 = random_density(rng, 12)
    mix = (r1.data + r2.data) / 2
    grid = PlanarGrid(x_range=(-2, 2), y_range=(-2, 2), nx=9, ny=9)
    for fn in (husimi_planar, wigner_planar):
        a = fn(r1, grid).values
        b = fn(r2, grid).values
        c = fn(mix, grid).values
        np.testing.assert_allclose(c, (a + b) / 2, atol=1e-12)


# ---------------------------------------------------------------------------
# spherical maps
# ---------------------------------------------------------------------------

def test_spin_husimi_self_overlap():
    theta0, phi0 = 0.9, 2.2
    grid = SphericalGrid(theta_range=(0.0, 1.8), phi_range=(0.0, 4.4),
                         ntheta=3, nphi=3)  # midpoints hit (0.9, 2.2) exactly
    rho = to_operator(spin_coherent(6, theta0, phi0))
    out = husimi_spherical(rho, grid)
    assert out.values[1, 1] == pytest.approx(1 / math.pi, abs=1e-10)


def test_spin_husimi_top_state_profile():
    j = 4
    grid = SphericalGrid(ntheta=25, nphi=5)
    out = husimi_spherical(zeeman(j, j), grid)
    expected = np.cos(grid.thetas / 2) ** (4 * j) / math.pi
    for b in range(5):
        np.testing.assert_allclose(out.values[:, b], expected, atol=1e-10)


def test_spin_husimi_dicke_ring():
    grid = SphericalGrid(ntheta=41, nphi=17)
    out = husimi_spherical(zeeman(10, 7), grid)
    assert np.max(out.values[0, :]) <= 1e-12   # north pole
    assert np.max(out.values[-1, :]) <= 1e-12  # south pole
    imax = np.unravel_index(np.argmax(out.values), out.values.shape)[0]
    assert 0 < imax < 40


@pytest.mark.parametrize("j", [0.5, 3, 10])
def test_husimi_spherical_matches_coherent_state_loop(j):
    rng = np.random.default_rng(round(4 * j))
    rho = random_density(rng, round(2 * j + 1)).data
    grid = SphericalGrid()
    loop = np.empty((grid.ntheta, grid.nphi))
    for a, th in enumerate(grid.thetas):
        for b, ph in enumerate(grid.phis):
            v = spin_coherent(j, th, ph).data.reshape(-1)
            loop[a, b] = np.real(v.conj() @ rho @ v) / math.pi
    assert np.max(np.abs(husimi_spherical(rho, grid).values - loop)) <= 1e-14


def test_husimi_spherical_of_a_ket_equals_the_map_of_its_projector():
    # a ket or bra takes one real product with the magnitudes, its projector the
    # batched product over rho's diagonals; an unnormalised input is read as its unit vector
    rng = np.random.default_rng(42)
    for d in range(1, 82):
        psi = (2.0 - 1.0j) * random_ket(rng, d).data.ravel()
        for state in ([psi] if d == 1 else [psi, psi[:, None], psi[None, :]]):  # 1-d, ket, bra
            for grid in _SPHERICAL[1]:
                got = husimi_spherical(state, grid).values
                want = husimi_spherical(to_operator(state), grid).values
                assert np.abs(got - want).max() <= 1e-15, (d, np.shape(state), grid)


def test_husimi_spherical_of_a_ket_past_the_kernel_size_rule_matches_a_coherent_state_loop():
    # at j = 600 the density path would need a 61 x 1201 x 1201 kernel; a ket needs none
    psi = random_ket(np.random.default_rng(600), 1201)
    with pytest.raises(UnsupportedDimension, match=r"61 x 1201 x 1201 needs"):
        husimi_spherical(to_operator(psi), SphericalGrid())
    assert husimi_spherical(psi).values.shape == (61, 61)
    grid = SphericalGrid(theta_range=(0.2, 2.9), ntheta=19, nphi=23)
    got = husimi_spherical(psi, grid).values
    v = psi.data.ravel()
    for a, th in enumerate(grid.thetas):
        for b, ph in enumerate(grid.phis):
            want = abs(np.vdot(spin_coherent(600, th, ph).data.ravel(), v)) ** 2 / math.pi
            assert abs(got[a, b] - want) <= 1e-14, (a, b)


def test_husimi_spherical_refuses_a_ket_as_it_refuses_its_projector():
    ket = zeeman(3, 1)
    for state, grid in ((ket, "grid"), (ket.data.T, PlanarGrid()), (ket.data.ravel(), None)):
        assert (_refusal(lambda: husimi_spherical(state, grid))
                == _refusal(lambda: husimi_spherical(to_operator(state), grid)))
    assert (_refusal(lambda: husimi_spherical(np.zeros(3)))
            == _refusal(lambda: density_matrix(np.zeros(3))))
    assert _refusal(lambda: husimi_spherical(np.zeros(3)))[0] is ZeroNorm


def test_spherical_maps_place_a_coherent_state_at_the_same_point():
    rho = to_operator(spin_coherent(5, 1.1, 2.3))
    peaks = [np.unravel_index(np.argmax(fn(rho).values), (61, 61))
             for fn in (husimi_spherical, wigner_spherical)]
    assert peaks[0] == peaks[1]
    grid = SphericalGrid()
    a, b = peaks[0]
    assert abs(grid.thetas[a] - 1.1) < grid.thetas[1] and abs(grid.phis[b] - 2.3) < grid.phis[1]


def test_wigner_spherical_is_the_multipole_sum_at_minus_phi():
    rng = np.random.default_rng(17)
    grid = SphericalGrid(theta_range=(0.1, 3.0), phi_range=(0.3, 5.9), ntheta=7, nphi=9)
    TH, PH = np.meshgrid(grid.thetas, grid.phis, indexing="ij")
    for d in (2, 3, 4, 6):
        rho = random_density(rng, d)
        ref = sum(spherical_multipole(rho, k, q) * spherical_harmonic(k, q, TH, -PH)
                  for k in range(d) for q in range(-k, k + 1))
        assert np.max(np.abs(wigner_spherical(rho, grid).values - ref)) <= 1e-12


@pytest.mark.parametrize("j", [0.5, 3, 10])
def test_spherical_map_normalisation(j):
    # int W dOmega = sqrt(4 pi / (2j+1)) and int Q dOmega = 4 / (2j+1)
    d = round(2 * j + 1)
    rho = random_density(np.random.default_rng(d), d)
    grid = SphericalGrid(ntheta=401, nphi=4 * d + 1)
    for fn, expected in ((wigner_spherical, math.sqrt(4 * math.pi / d)),
                         (husimi_spherical, 4 / d)):
        per_theta = scipy.integrate.trapezoid(fn(rho, grid).values, grid.phis, axis=1)
        total = scipy.integrate.simpson(per_theta * np.sin(grid.thetas), x=grid.thetas)
        assert total == pytest.approx(expected, abs=1e-7)


def test_spherical_multipole_k0_is_trace_term():
    # <j,m;j,-m|0,0> = (-1)^(j-m)/sqrt(2j+1) so rho_00 = tr(rho)/sqrt(2j+1)
    rng = np.random.default_rng(8)
    for d in (2, 3, 5):
        rho = random_density(rng, d)
        r00 = spherical_multipole(rho, 0, 0)
        assert r00 == pytest.approx(1 / math.sqrt(d), abs=1e-10)
    # multipole labels are integers, as for spherical_harmonic
    for k, q in ((1.5, 0), (1, 0.5), ("a", 0), (1, None), (-1, 0)):
        with pytest.raises(InvalidQuantumNumber):
            spherical_multipole(rho, k, q)
        with pytest.raises(InvalidQuantumNumber):
            spherical_harmonic(k, q, 0.3, 0.2)


@pytest.mark.parametrize("two_j", range(1, 21))
def test_stratonovich_kernel_matches_racah_sum(two_j):
    j = two_j / 2
    ref = [(-1) ** i * sum(math.sqrt((2 * k + 1) / (4 * math.pi))
                           * racah_clebsch_gordan(j, j - i, j, i - j, k, 0)
                           for k in range(two_j + 1))
           for i in range(two_j + 1)]
    assert np.max(np.abs(_stratonovich_kernel(two_j)[2] - ref)) <= 1e-13


@pytest.mark.parametrize("two_j", [100, 200])
def test_stratonovich_kernel_trace_at_large_j(two_j):
    # only the k = 0 polynomial has a nonzero sum over m
    delta0 = _stratonovich_kernel(two_j)[2]
    assert abs(delta0.sum() - math.sqrt((two_j + 1) / (4 * math.pi))) <= 1e-12


def test_stratonovich_kernel_cache_is_read_only():
    for arr in _stratonovich_kernel(6):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert _stratonovich_kernel(6)[2] is _stratonovich_kernel(6)[2]


def test_wigner_spherical_maximally_mixed_constant():
    # only the k = 0 term survives: W = tr(rho)/sqrt(2j+1) * Y_00
    grid = SphericalGrid(ntheta=7, nphi=9)
    out = wigner_spherical(identity(2) / 2, grid)
    expected = (1 / math.sqrt(2)) * (1 / (2 * math.sqrt(math.pi)))
    np.testing.assert_allclose(out.values, np.full((7, 9), expected), atol=1e-12)


def test_wigner_spherical_reality_oracle():
    # independent recomputation of the multipole sum with sympy CG
    sympy_cg = pytest.importorskip("sympy.physics.quantum.cg")
    from sympy import Rational
    rng = np.random.default_rng(21)
    j = 1.0
    rho = random_density(rng, 3).data
    grid = SphericalGrid(ntheta=3, nphi=3)
    out = wigner_spherical(rho, grid)

    def oracle(theta, phi):
        total = 0.0 + 0.0j
        for k in range(0, 3):
            for q in range(-k, k + 1):
                rkq = 0.0 + 0.0j
                for i1 in range(3):
                    m = j - i1
                    m2 = m - q
                    i2 = round(j - m2)
                    if not 0 <= i2 <= 2:
                        continue
                    cg = float(sympy_cg.CG(
                        Rational(2, 2), Rational(int(2 * m), 2),
                        Rational(2, 2), Rational(int(-2 * m2), 2),
                        k, q).doit())
                    rkq += rho[i1, i2] * (-1.0) ** round(j - m - q) * cg
                total += rkq * complex(spherical_harmonic(k, q, theta, phi))
        return total

    for a, th in enumerate(grid.thetas):
        for b, ph in enumerate(grid.phis):
            ref = oracle(th, ph)
            assert abs(ref.imag) < 1e-8           # hermitian rho: real map
            assert out.values[a, b] == pytest.approx(ref.real, abs=1e-8)


def test_wigner_spherical_axial_symmetry():
    grid = SphericalGrid(ntheta=5, nphi=9)
    out = wigner_spherical(zeeman(3, 3), grid)
    for row in out.values:
        np.testing.assert_allclose(row, row[0], atol=1e-10)


def test_spherical_linearity():
    rng = np.random.default_rng(5)
    r1 = random_density(rng, 4)
    r2 = random_density(rng, 4)
    mix = (r1.data + r2.data) / 2
    grid = SphericalGrid(ntheta=5, nphi=5)
    for fn in (husimi_spherical, wigner_spherical):
        a = fn(r1, grid).values
        b = fn(r2, grid).values
        c = fn(mix, grid).values
        np.testing.assert_allclose(c, (a + b) / 2, atol=1e-12)


# ---------------------------------------------------------------------------
# grids and the file format
# ---------------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(InvalidParameter):
        SphericalGrid(theta_range=(0.0, 4.0))
    with pytest.raises(InvalidParameter):
        PlanarGrid(nx=1)
    for ranges in (dict(x_range=(math.nan, 1.0)), dict(y_range=(-1.0, math.inf)),
                   dict(x_range=[-math.inf, 0.0])):
        with pytest.raises(InvalidParameter, match="must be finite"):
            PlanarGrid(**ranges)
    for grid, ranges in ((PlanarGrid, dict(x_range=3)), (SphericalGrid, dict(theta_range=3)),
                         (PlanarGrid, dict(x_range=("a", "b"))), (PlanarGrid, dict(x_range=(1,))),
                         (PlanarGrid, dict(y_range=(1, 2, 3))),
                         (PlanarGrid, dict(x_range=(0, 1j)))):
        with pytest.raises(InvalidParameter, match="must be a pair of real numbers"):
            grid(**ranges)


def test_husimi_planar_maps_points_past_the_old_reach():
    # the table is normalised at each radius, so it does not underflow past
    # |alpha|^2 = 1,490, where e^{-|alpha|^2 / 2} is 0
    ket = coherent(40, 30)
    grid = PlanarGrid(x_range=(36.0, 60.0), y_range=(-1.0, 1.0), nx=5, ny=3)
    psi = ket.data.ravel()
    for state in (ket, ket.data.T, to_operator(ket)):       # ket, bra, projector
        got = husimi_planar(state, grid).values
        for iy, y in enumerate(grid.ys):
            for ix, x in enumerate(grid.xs):
                exact = _exact_husimi(psi, complex(x, y))
                assert abs(decimal.Decimal(got[iy, ix]) - exact) <= exact * decimal.Decimal("1e-13")


def test_husimi_planar_refuses_a_map_that_overflows():
    # near x = 1,440 a ket's Horner sums pass 1.8e308 once d reaches past x: a ket and
    # its bra refuse alike, while the projector's normalised table stays finite; no
    # warning escapes
    ket = coherent(1500, 38)
    grid = PlanarGrid(x_range=(37.9, 38.0), y_range=(0.0, 0.0), nx=2, ny=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        refusals = [_refusal(lambda: husimi_planar(state, grid)) for state in (ket, ket.data.T)]
        projected = husimi_planar(to_operator(ket), grid).values
    assert refusals[0] == refusals[1] == (
        InvalidParameter, "Husimi map of dimension 1500 overflows at |alpha|^2 = 1436.41")
    assert np.isfinite(projected).all()
    assert projected[:, 1] == pytest.approx([1 / math.pi] * 2, rel=0, abs=1e-12)    # Q(38)
    below = husimi_planar(ket, PlanarGrid(x_range=(30.0, 35.0), nx=3, ny=2))
    assert np.isfinite(below.values).all()


@pytest.mark.parametrize("ranges", [dict(x_range=(0.0, 1e151)), dict(y_range=(-1e151, 0.0))])
def test_planar_grid_ends_stay_within_1e150(ranges):
    # past about 1e154, |alpha|^2 overflows and both maps would be NaN
    with pytest.raises(InvalidParameter, match=r"within \[-1e\+150, 1e\+150\]"):
        PlanarGrid(**ranges)
    edge = PlanarGrid(x_range=(-1e150, 1e150), y_range=(-1e150, 1e150), nx=2, ny=2)
    assert np.isfinite(wigner_planar(basis(3, 1), edge).values).all()


def test_planar_ranges_may_run_backwards_and_spherical_ones_may_not():
    # a reversed planar range is a descending axis: the map is the forward one mirrored
    rho = coherent(8, 0.7 - 0.4j)
    forward = husimi_planar(rho, PlanarGrid(x_range=(-2.0, 2.0), y_range=(-1.0, 1.5), nx=9, ny=6))
    mirrored = husimi_planar(rho, PlanarGrid(x_range=(2.0, -2.0), y_range=(1.5, -1.0), nx=9, ny=6))
    np.testing.assert_array_equal(mirrored.axis2, forward.axis2[::-1])
    np.testing.assert_allclose(mirrored.values, forward.values[::-1, ::-1], rtol=0, atol=1e-15)
    for ranges in (dict(theta_range=(1.0, 0.5)), dict(phi_range=(6.0, 0.0))):
        with pytest.raises(InvalidParameter, match="run backwards"):
            SphericalGrid(**ranges)
    SphericalGrid(theta_range=(1.0, 1.0), phi_range=(0.0, 0.0))     # a single point is allowed


def test_spherical_kernels_are_bounded_by_the_size_rule(monkeypatch):
    # the grid passes, but ntheta x d x d kernel entries of 16 bytes do not fit in 1 MiB
    monkeypatch.setattr(qcore, "MAX_STACK_BYTES", 2**20)
    for fn in (husimi_spherical, wigner_spherical):
        with pytest.raises(UnsupportedDimension, match=r"4096 x 41 x 41 needs 6885376 complex"):
            fn(to_operator(zeeman(20, 3)), SphericalGrid(ntheta=4096, nphi=2))


def test_spherical_husimi_tables_of_a_ket_are_bounded_by_the_size_rule(monkeypatch):
    # a ket reads d x ntheta magnitudes and d x nphi phases: 41 x 4098 entries do not
    # fit in 1 MiB, and neither table is built
    monkeypatch.setattr(qcore, "MAX_STACK_BYTES", 2**20)
    _clear_caches()
    with pytest.raises(UnsupportedDimension, match=r"tables of 41 x \(4096 \+ 2\) needs 168018 "):
        husimi_spherical(zeeman(20, 3), SphericalGrid(ntheta=4096, nphi=2))
    assert _spin_magnitudes.cache_info().misses == _spin_phases.cache_info().misses == 0
    fits = husimi_spherical(zeeman(20, 3), SphericalGrid(ntheta=1500, nphi=2))
    assert fits.values.shape == (1500, 2)


def test_planar_kernels_are_bounded_by_the_size_rule(monkeypatch):
    # the 250 x 250 grid passes, but 60 levels on its 12,335 radii, or a 60 x 60 x 60
    # Laguerre basis, do not fit in 1 MiB; a kernel already kept would skip the check
    monkeypatch.setattr(qcore, "MAX_STACK_BYTES", 2**20)
    for kernel in (_husimi_terms, _wigner_terms, _laguerre_basis):
        kernel.cache_clear()
    rho = coherent(60, 1 + 0.5j)
    for fn in (husimi_planar, wigner_planar):
        with pytest.raises(UnsupportedDimension, match="kernel of 60 x 12335 radii needs 740100 "):
            fn(rho, PlanarGrid(nx=250, ny=250))
    with pytest.raises(UnsupportedDimension, match=r"basis of 60 x 60 x 60 needs 60\*\*3 complex"):
        wigner_planar(rho, PlanarGrid(nx=2, ny=2))


def test_a_spherical_kernel_past_the_size_rule_is_refused_before_it_is_built():
    # the Wigner rotation stack alone would take 4096 x 201**2 x 16 bytes = 2.47 GiB
    rho, grid = density_matrix(zeeman(100, 3)), SphericalGrid(ntheta=4096, nphi=2)
    tracemalloc.start()
    try:
        for fn in (husimi_spherical, wigner_spherical):
            with pytest.raises(UnsupportedDimension, match=r"4096 x 201 x 201 needs 165482496 "):
                fn(rho, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24


def test_grid_file_roundtrip(tmp_path):
    grid = SphericalGrid(ntheta=5, nphi=7)
    out = husimi_spherical(zeeman(2, 1), grid)
    path = tmp_path / "grid.csv"
    write_grid(out, path)
    text = path.read_text().splitlines()
    assert text[0] == "# kind=husimi coords=spherical n1=5 n2=7"
    assert len(text) == 1 + 5 * 7
    back = read_grid(path)
    assert back.kind == "husimi" and back.coords == "spherical"
    np.testing.assert_allclose(back.axis1, out.axis1)
    np.testing.assert_allclose(back.axis2, out.axis2)
    np.testing.assert_allclose(back.values, out.values)


def test_grid_file_paths_that_cannot_be_used_raise_invalid_parameter(tmp_path):
    grid = husimi_planar(coherent(3, 0.5), PlanarGrid(nx=2, ny=2))
    missing = tmp_path / "missing" / "grid.csv"
    with pytest.raises(InvalidParameter, match="cannot write"):
        write_grid(grid, missing)
    for path in (missing, None, tmp_path):
        with pytest.raises(InvalidParameter, match="cannot read grid file"):
            read_grid(path)
    binary = tmp_path / "grid.bin"
    binary.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(InvalidParameter):
        read_grid(binary)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_husimi_nonnegative_random_states(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 6)
    grid = PlanarGrid(x_range=(-2, 2), y_range=(-2, 2), nx=7, ny=7)
    assert husimi_planar(rho, grid).values.min() >= -1e-12
    sgrid = SphericalGrid(ntheta=5, nphi=5)
    assert husimi_spherical(rho, sgrid).values.min() >= -1e-12


# ---------------------------------------------------------------------------
# cached map kernels
# ---------------------------------------------------------------------------

MAPS = (husimi_planar, wigner_planar, husimi_spherical, wigner_spherical)
_KERNEL_CACHES = (_radial, _husimi_terms, _laguerre_basis, _wigner_terms, _diagonal_layout,
                  _husimi_diagonals, _wigner_diagonals, _axial_phases, _spin_magnitudes,
                  _spin_phases, _stratonovich_kernel)


def _clear_caches():
    for cache in _KERNEL_CACHES:
        cache.cache_clear()


def _map_arrays(out):
    return out.axis1, out.axis2, out.values


def _same_bits(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in zip(_map_arrays(a), _map_arrays(b)))


def _map_digest(out) -> str:
    h = hashlib.sha256()
    for a in _map_arrays(out):
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _platform_digest() -> str:
    """Bits of the NumPy math, BLAS and LAPACK calls that the maps make, on
    fixed inputs: the map digests below hold only where these match."""
    x = np.linspace(0.05, 3.0, 41)
    lam, vec = np.linalg.eigh(np.add.outer(x, x) + 1j * np.subtract.outer(x, x))
    rot = np.real((vec * np.exp(-1j * x[:, None, None] * lam)) @ vec.conj().T)
    parts = (np.exp(-x), np.cos(x), np.sin(x), np.log(x), np.sqrt(x), np.abs(vec),
             np.unique(np.abs(x + 1j * x[::-1]) ** 2), (rot * x) @ rot.transpose(0, 2, 1),
             rot[:, 0] @ (x + 1j * x[::-1]), np.outer(x, x) @ np.exp(-1j * np.outer(x, x)))
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in parts)).hexdigest()


# recorded, with the maps' axes and values, on NumPy 2.4.6 / x86-64 (AVX-512)
# before the grid kernels were cached; the two wigner_planar digests again when
# that map moved to the two-parity Laguerre basis (it moved by <= 2.8e-16), and
# the six non-Zeeman spherical digests again when both spherical maps became one
# batched product over the Hermitian half of rho (they moved by <= 2.3e-15), and
# the two husimi_planar digests when kets took their own Horner pass (they moved
# by <= 3.4e-16; by up to 7.6e-9 relative where the map is tiny, towards the
# exact map), the four husimi_spherical digests when kets took their own
# real product (they moved by <= 4.9e-16), and the two wigner_planar digests when
# its Laguerre coefficients became two real products (coherent moved by
# <= 1.67e-16 at 1,273 of 3,721 values, squeezed by <= 1.11e-16 at 1,699)
_PLATFORM_DIGEST = "9f77b20025423ab47be60b0ac130b5130c583c67c2bbb5ef53916d5076fbd044"
_DIGEST_STATES = {
    "coherent": lambda: coherent(30, 1 + 0.5j),
    "squeezed": lambda: squeezed(30, 0.3 - 0.2j, 0.4),
    "spin_coherent10": lambda: spin_coherent(10, 1.1, 2.3),
    "cat10": lambda: cat_state(10, 0.7, 0.4),
    "zeeman10": lambda: zeeman(10, 3),
    "cat20": lambda: cat_state(20, 1.2, 5.0),
}
_MAP_DIGESTS = {
    "husimi_planar:coherent":
        "2560e3ca0088da15784f0428310ae8cd63380f1da3b4050bd7d1c6c600392860",
    "wigner_planar:coherent":
        "717cdf798cfacebc087a18af1a8b66587fa69e9d8c526f8c4648faa7485b83fe",
    "husimi_planar:squeezed":
        "55760a6d1af068a6ece33d0bbb5562fee0718d171c322521fea688ae2b9f6284",
    "wigner_planar:squeezed":
        "e4412a03fa536cbe8e2a5dc7927de4a1c1ff58cf32fbf4045b81d39de75f3777",
    "husimi_spherical:spin_coherent10":
        "6ec9078a8dab5f9a2f2b4e4d2a34f3e51de4411a945c600405fe4cdb3471d218",
    "wigner_spherical:spin_coherent10":
        "2d90af8c3d754206cdcedb47fb406d05f5e55e79ba0756e91c500667f8377155",
    "husimi_spherical:cat10":
        "c80dc067b33e139a865cc0c95badfb93d85e3e8d94291878b40e1f318c9b3634",
    "wigner_spherical:cat10":
        "f6c270cc6e0d926a1fb071974356b71898c3728d37bbf4e4116992bfea4363d0",
    "husimi_spherical:zeeman10":
        "44800c90cca1d92284138d9d3361e062317bccdf0aada8796a570bb5da376dc7",
    "wigner_spherical:zeeman10":
        "ba70622c3296c9333599404c61be7d0cc99ef64a8d11d66d3e8b89b7c577fc08",
    "husimi_spherical:cat20":
        "6b00edcc635599c7207f319f29bd679d1051f906c64d494311c365729870b3e3",
    "wigner_spherical:cat20":
        "56024f17c31efe8a2b29d858b98d191a7b838f4ce0c39120f185858477fed9e0",
}


@pytest.mark.parametrize("case", sorted(_MAP_DIGESTS))
def test_maps_keep_the_bits_recorded_before_caching(case):
    if _platform_digest() != _PLATFORM_DIGEST:
        pytest.skip("map bits depend on NumPy's SIMD math and the BLAS/LAPACK build")
    fn, state = case.split(":")
    assert _map_digest(globals()[fn](_DIGEST_STATES[state]())) == _MAP_DIGESTS[case]


_CACHE_CASES = [(husimi_planar, lambda: squeezed(12, 0.3, 0.2)),
                (wigner_planar, lambda: squeezed(12, 0.3, 0.2)),
                (husimi_spherical, lambda: cat_state(3, 0.7, 0.4)),
                (wigner_spherical, lambda: cat_state(3, 0.7, 0.4))]


@pytest.mark.parametrize("fn, make", _CACHE_CASES)
def test_cold_call_equals_warm_call_bitwise(fn, make):
    rho = make()
    _clear_caches()
    cold = fn(rho)
    assert _same_bits(cold, fn(rho))


@pytest.mark.parametrize("fn, make", _CACHE_CASES)
def test_mutating_a_returned_map_leaves_the_next_call_unchanged(fn, make):
    rho = make()
    first = fn(rho)
    kept = type(first)(first.kind, first.coords, *(a.copy() for a in _map_arrays(first)))
    for a in _map_arrays(first):
        a[...] = 7.0                  # writable, so it is no view of a cached kernel
    assert _same_bits(fn(rho), kept)


def test_cached_kernels_are_read_only():
    pgrid, sgrid = PlanarGrid(nx=5, ny=4), SphericalGrid(ntheta=6, nphi=3)
    rho, spin_rho = squeezed(6, 0.3, 0.2), cat_state(2, 0.7, 0.4)
    for fn in MAPS[:2]:
        fn(rho, pgrid)
    for fn in MAPS[2:]:
        fn(spin_rho, sgrid)
    xs, ys, thetas, phis = _bits(pgrid.xs), _bits(pgrid.ys), _bits(sgrid.thetas), _bits(sgrid.phis)
    cached = [*_radial(xs, ys), *_husimi_terms(6, xs, ys),
              _laguerre_basis(6), *_wigner_terms(6, xs, ys), *_diagonal_layout(6),
              _husimi_diagonals(4, thetas), _wigner_diagonals(4, thetas),
              *_axial_phases(5, phis), _spin_magnitudes(4, thetas), _spin_phases(4, phis)]
    assert len(cached) == 3 + 2 + 1 + 2 + 6 + 1 + 1 + 2 + 1 + 1
    for arr in cached:
        with pytest.raises(ValueError):
            arr[...] = 0.0


def test_caches_stay_at_their_bound():
    _clear_caches()
    for n in range(2, 8):
        pgrid, sgrid = PlanarGrid(nx=n, ny=3), SphericalGrid(ntheta=n, nphi=3)
        for fn in MAPS[:2]:
            fn(basis(n, 1), pgrid)
        for fn in MAPS[2:]:             # the density path of husimi_spherical
            fn(to_operator(zeeman(n / 2, n / 2)), sgrid)
        husimi_spherical(zeeman(n / 2, n / 2), sgrid)                   # and its ket path
    for cache in _KERNEL_CACHES:
        info = cache.cache_info()
        assert info.currsize == info.maxsize == 4


def _kernel_bytes(out):
    return sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))


_PKEYS, _SKEYS = PlanarGrid()._keys, SphericalGrid()._keys


@pytest.mark.parametrize("kernel, keys", [
    (_laguerre_basis, [(d,) for d in range(29, 37)]),
    (_radial, [PlanarGrid(nx=n, ny=n)._keys for n in range(100, 140, 5)]),
    (_husimi_terms, [(d, *_PKEYS) for d in range(33, 41)]),
    (_wigner_terms, [(d, *_PKEYS) for d in range(10, 18)]),
    (_husimi_diagonals, [(two_j, _SKEYS[0]) for two_j in range(18, 26)]),
    (_wigner_diagonals, [(two_j, _SKEYS[0]) for two_j in range(18, 26)]),
    (_spin_magnitudes, [(two_j, _SKEYS[0]) for two_j in range(540, 700, 20)]),
    (_spin_phases, [(two_j, _SKEYS[1]) for two_j in range(270, 350, 10)]),
], ids=lambda v: getattr(v, "__name__", ""))
def test_kernel_caches_hold_at_most_the_size_rule_in_all(monkeypatch, kernel, keys):
    # each entry fits in 1 MiB, but four of them would not: the cache is emptied
    # before it keeps one that would take what it holds past the bound
    monkeypatch.setattr(qcore, "MAX_STACK_BYTES", 2**20)
    kernel.cache_clear()
    sizes, held = [], []
    for key in keys:
        sizes.append(_kernel_bytes(kernel(*key)))
        held.append(kernel.cache_info().currsize)       # the newest entries, each built once
        assert sum(sizes[-held[-1]:]) <= 2**20, held
    assert max(held) >= 3 and 1 in held[1:]
    assert max(sum(sizes[i:i + 4]) for i in range(len(sizes) - 3)) > 2**20
    assert _kernel_bytes(kernel(*keys[-1])) == sizes[-1] and kernel.cache_info().hits == 1


def test_grids_share_a_kernel_only_with_bitwise_equal_axes():
    rho = squeezed(8, 0.3, 0.2)
    pos = PlanarGrid(x_range=(-1.0, 0.0), y_range=(-1.0, 0.0), nx=3, ny=3)
    neg = PlanarGrid(x_range=(-1.0, -0.0), y_range=(-1.0, -0.0), nx=3, ny=3)
    same = PlanarGrid(x_range=[-1, 0], y_range=[-1, 0], nx=3, ny=3)
    assert pos == neg == same             # equal as numbers, but -0.0 is other bits
    _clear_caches()
    for grid in (pos, neg, same):
        wigner_planar(rho, grid)
    assert _wigner_terms.cache_info()[:2] == (1, 2)       # (hits, misses)
    assert wigner_planar(rho, neg).axis2[-1].tobytes() == np.float64(-0.0).tobytes()
    # the spherical G(theta) kernels depend on theta alone
    for phi_range in ((0.0, 1.0), (0.5, 2.0)):
        husimi_spherical(to_operator(zeeman(2, 1)),
                         SphericalGrid(ntheta=4, nphi=3, phi_range=phi_range))
    assert _husimi_diagonals.cache_info()[:2] == (1, 1)
    # a ket's magnitudes depend on theta alone, and its phases on phi alone
    for ranges in (dict(phi_range=(0.0, 1.0)), dict(phi_range=(0.5, 2.0)),
                   dict(theta_range=(0.0, 1.0), phi_range=(0.5, 2.0))):
        husimi_spherical(zeeman(2, 1), SphericalGrid(ntheta=4, nphi=3, **ranges))
    assert _spin_magnitudes.cache_info()[:2] == _spin_phases.cache_info()[:2] == (1, 2)


def test_planar_maps_share_one_radial_entry_per_grid():
    rho = squeezed(8, 0.3, 0.2)
    grid = PlanarGrid(x_range=(-2.0, 1.5), y_range=(-1.0, 2.0), nx=7, ny=5)
    _clear_caches()
    husimi_planar(rho, grid)
    wigner_planar(rho, grid)
    # one decomposition, read by both maps and, on their misses, both terms kernels
    assert _radial.cache_info()[:2] == (3, 1)             # (hits, misses)
    _radial.cache_clear()
    husimi_planar(rho, grid)
    wigner_planar(rho, grid)
    assert _radial.cache_info()[:2] == (1, 1)


@pytest.mark.parametrize("grid", [
    PlanarGrid(),
    PlanarGrid(x_range=(-8, 8), y_range=(-8, 8), nx=101, ny=101),
    PlanarGrid(x_range=(-2.5, 1.0), y_range=(-0.7, 3.1), nx=23, ny=17),
    PlanarGrid(x_range=(-1e-3, 1e-3), y_range=(-1e-3, 1e-3), nx=9, ny=9),
])
def test_wigner_kernel_equals_a_decomposition_at_twice_alpha(grid):
    xs, ys = _bits(grid.xs), _bits(grid.ys)
    alphas, radii, inverse = _radial(xs, ys)
    a2 = 2 * alphas
    radii2, inverse2 = np.unique(np.abs(a2) ** 2, return_inverse=True)
    assert (4 * radii).tobytes() == radii2.tobytes()
    assert np.array_equal(inverse, inverse2)
    table, phase = _wigner_terms(3, xs, ys)
    assert table[0, 0].tobytes() == np.exp(-radii2 / 2).tobytes()
    size = np.abs(alphas)
    unit = np.divide(alphas, size, out=np.ones_like(alphas), where=size > 0)
    assert unit.tobytes() == phase.tobytes()
    size2 = np.abs(a2)
    assert phase.tobytes() == np.divide(a2, size2, out=np.ones_like(a2), where=size2 > 0).tobytes()


def test_list_ranges_give_the_tuple_grid():
    rho = squeezed(8, 0.3, 0.2)
    lists = PlanarGrid(x_range=[-2, 2], y_range=[-1, 1.5], nx=7, ny=5)
    tuples = PlanarGrid(x_range=(-2.0, 2.0), y_range=(-1.0, 1.5), nx=7, ny=5)
    assert lists == tuples and hash(lists) == hash(tuples)
    assert lists.x_range == (-2, 2)
    for fn in MAPS[:2]:
        assert _same_bits(fn(rho, lists), fn(rho, tuples))
    spin_rho = cat_state(2, 0.7, 0.4)
    lists = SphericalGrid(theta_range=[0.5, 2], phi_range=[0, 3], ntheta=5, nphi=4)
    tuples = SphericalGrid(theta_range=(0.5, 2.0), phi_range=(0.0, 3.0), ntheta=5, nphi=4)
    assert lists == tuples and hash(lists) == hash(tuples)
    for fn in MAPS[2:]:
        assert _same_bits(fn(spin_rho, lists), fn(spin_rho, tuples))


# ---------------------------------------------------------------------------
# the maps against the formulas they had before their per-call layouts were
# cached: bit for bit, on every platform, with the module's cached kernels
# ---------------------------------------------------------------------------

def _linspace_bits(lo_hi, n):
    return _bits(np.linspace(lo_hi[0], lo_hi[1], n))


def _reference_diagonals(dm):
    d = len(dm)
    k, m = np.indices((d, d))
    c = np.where(m + k < d, dm[m, np.minimum(m + k, d - 1)], 0.0) * np.where(k > 0, 2.0, 1.0)
    return k, m, c


def _reference_husimi_planar(dm, grid):
    xs, ys = _linspace_bits(grid.x_range, grid.nx), _linspace_bits(grid.y_range, grid.ny)
    alphas, _, inverse = _radial(xs, ys)
    terms, _ = _husimi_terms(len(dm), xs, ys)
    k, m, c = _reference_diagonals(dm)
    coeffs = c * np.cumprod(np.sqrt(np.where(m > 0, m / np.maximum(m + k, 1), 1.0)), axis=1)
    sums = _complex_product(coeffs, terms)
    q = np.real(_horner(sums, inverse, lambda k: alphas * (1.0 / math.sqrt(k + 1)))) / math.pi
    return q.reshape(grid.ny, grid.nx)


def _reference_husimi_planar_ket(state, grid):
    psi = qcore.QuantumObject(state).data.ravel()
    bra = (psi / np.linalg.norm(psi)).conj()
    xs, ys = _linspace_bits(grid.x_range, grid.nx), _linspace_bits(grid.y_range, grid.ny)
    alphas = _radial(xs, ys)[0]
    scale = _husimi_terms(len(bra), xs, ys)[1]
    acc = np.full(alphas.shape, bra[-1])
    for n in range(len(bra) - 2, -1, -1):
        acc = acc * alphas * (1.0 / math.sqrt(n + 1)) + bra[n]
    return (np.abs(acc * scale) ** 2 / math.pi).reshape(grid.ny, grid.nx)


def _reference_husimi_spherical_ket(state, grid):
    q = qcore.QuantumObject(state)
    psi = q.data.ravel() / np.linalg.norm(q.data)
    psi = psi.conj() if q.kind is qcore.Kind.BRA else psi
    thetas, phis = (np.linspace(*grid.theta_range, grid.ntheta),
                    np.linspace(*grid.phi_range, grid.nphi))
    phases = np.exp(1j * np.outer(np.arange(len(psi)), phis))
    f = _spin_coherent_magnitudes(len(psi) - 1, thetas) @ (psi[:, None] * phases).view(float)
    return (f[:, ::2] ** 2 + f[:, 1::2] ** 2) / math.pi


def _reference_wigner_planar(dm, grid):
    d = len(dm)
    xs, ys = _linspace_bits(grid.x_range, grid.nx), _linspace_bits(grid.y_range, grid.ny)
    _, _, inverse = _radial(xs, ys)
    table, phase = _wigner_terms(d, xs, ys)
    _, m, c = _reference_diagonals(dm)
    coeffs = _complex_product((c * (-1.0) ** m)[:, None, :], _laguerre_basis(d))[:, 0]
    sums = np.empty((d, table.shape[2]), dtype=complex)
    for p in (0, 1):
        sums[p::2] = _complex_product(coeffs[p::2], table[p])
    vals = 2.0 / math.pi * np.real(_horner(sums, inverse, lambda k: phase))
    return vals.reshape(grid.ny, grid.nx)


def _reference_axial_map(kernel):
    def evaluate(dm, grid):
        thetas = _linspace_bits(grid.theta_range, grid.ntheta)
        phis, d = np.linspace(*grid.phi_range, grid.nphi), len(dm)
        k, m = np.ogrid[:d, :d]
        cols = np.minimum(m + k, d - 1)
        upper = np.where(m + k < d, dm[m, cols] + dm[cols, m].conj(), 0.0) / 2
        sums = kernel(d - 1, thetas) @ np.stack([upper.real, upper.imag], axis=2)
        angles, weights = np.outer(np.arange(d), phis), np.where(k > 0, 2.0, 1.0)
        return (sums[:, :, 0].T @ (weights * np.cos(angles))
                + sums[:, :, 1].T @ (weights * np.sin(angles)))
    return evaluate


_PLANAR = (range(1, 31),
           (PlanarGrid(), PlanarGrid(x_range=(-1.5, -0.0), y_range=(-0.0, 2.0), nx=9, ny=7)))
_SPHERICAL = (range(2, 42),
              (SphericalGrid(), SphericalGrid(theta_range=(0.3, 2.0), ntheta=8, nphi=5)))
_REFERENCES = {   # map -> (reference, (dimensions, grids))
    husimi_planar: (_reference_husimi_planar, _PLANAR),
    wigner_planar: (_reference_wigner_planar, _PLANAR),
    husimi_spherical: (_reference_axial_map(_husimi_diagonals), _SPHERICAL),
    wigner_spherical: (_reference_axial_map(_wigner_diagonals), _SPHERICAL),
}
_KET_REFERENCES = {husimi_planar: _reference_husimi_planar_ket,     # for kets and bras
                   husimi_spherical: _reference_husimi_spherical_ket}


@pytest.mark.parametrize("fn", MAPS, ids=lambda fn: fn.__name__)
def test_maps_equal_their_uncached_formulas_bitwise(fn):
    reference, (dims, grids) = _REFERENCES[fn]
    rng = np.random.default_rng(2027)
    for d in dims:
        # at d = 1, a phased 1-d ket, which QuantumObject alone reads as a 1 x 1 operator
        states = ((random_ket(rng, d), random_density(rng, d)) if d > 1
                  else (basis(1, 0), np.exp(0.7j) * np.ones(1)))
        for state in states:
            pure = qcore._kind(qcore.QuantumObject(state)) is not qcore.Kind.OPER
            for grid in grids:
                want = (_KET_REFERENCES[fn](state, grid) if pure and fn in _KET_REFERENCES
                        else reference(density_matrix(state), grid))
                assert np.array_equal(fn(state, grid).values, want), (d, grid)


# ---------------------------------------------------------------------------
# the spherical maps against the per-diagonal loop they replaced: each diagonal
# k = 1-d .. d-1 of rho o G(theta), both triangles, placed by e^{-ik phi}
# ---------------------------------------------------------------------------

def _husimi_kernel(two_j, thetas):
    c = _spin_coherent_magnitudes(two_j, thetas)
    return c[:, :, None] * c[:, None, :] / math.pi


def _wigner_kernel(two_j, thetas):
    lam, vec, delta0 = _stratonovich_kernel(two_j)
    rot = np.real((vec * np.exp(-1j * thetas[:, None, None] * lam)) @ vec.conj().T)
    return (rot * delta0) @ rot.transpose(0, 2, 1)


def _per_diagonal_map(dm, grid, kernel):
    g, offsets = kernel(len(dm) - 1, grid.thetas), np.arange(1 - len(dm), len(dm))
    sums = np.stack([np.diagonal(g, k, axis1=1, axis2=2) @ np.diagonal(dm, k) for k in offsets],
                    axis=1)
    return np.real(sums @ np.exp(-1j * np.outer(offsets, grid.phis)))


def _hermitian_to_1e10(rng, d):
    """A full-rank state with 9e-11 i added above the diagonal, which the
    state rule accepts: Hermitian to 1e-10 only."""
    rho = density_matrix(random_density(rng, d)) + 9e-11j * np.triu(np.ones((d, d)), 1)
    assert np.abs(rho - rho.conj().T).max() > 8e-11
    return rho


@pytest.mark.parametrize("fn, kernel", [(husimi_spherical, _husimi_kernel),
                                        (wigner_spherical, _wigner_kernel)],
                         ids=["husimi_spherical", "wigner_spherical"])
def test_spherical_maps_match_the_per_diagonal_loop(fn, kernel):
    rng = np.random.default_rng(2039)
    for d in range(1, 42):
        states = ((random_ket(rng, d), random_density(rng, d)) if d > 1
                  else (basis(1, 0), np.exp(0.7j) * np.ones(1)))
        if d == 12:
            states += (_hermitian_to_1e10(rng, d),)
        for state in states:
            for grid in _SPHERICAL[1]:
                want = _per_diagonal_map(density_matrix(state), grid, kernel)
                assert np.abs(fn(state, grid).values - want).max() <= 1e-14, (d, grid)


# ---------------------------------------------------------------------------
# grid axes: made once per grid, handed out as fresh arrays
# ---------------------------------------------------------------------------

_AXES = {PlanarGrid: (("xs", "x_range", "nx"), ("ys", "y_range", "ny")),
         SphericalGrid: (("thetas", "theta_range", "ntheta"), ("phis", "phi_range", "nphi"))}


@pytest.mark.parametrize("grid", [PlanarGrid(), SphericalGrid(),
                                  PlanarGrid(x_range=(-1.0, -0.0), y_range=[-0.0, 2], nx=5, ny=4),
                                  SphericalGrid(theta_range=(-0.0, 1.0), nphi=7)])
def test_each_axis_read_is_a_fresh_writable_linspace(grid):
    assert grid._keys is grid._keys                          # computed once per grid
    for name, bounds, count in _AXES[type(grid)]:
        lo, hi = getattr(grid, bounds)
        expected = np.linspace(lo, hi, getattr(grid, count)).tobytes()
        first = getattr(grid, name)
        assert first.flags.writeable and first.flags.owndata and first.tobytes() == expected
        assert np.signbit(first[-1]) == np.signbit(hi)        # linspace keeps a -0.0 end
        first[...] = 7.0
        again = getattr(grid, name)
        assert again is not first and again.tobytes() == expected


@pytest.mark.parametrize("fn, make", _CACHE_CASES)
def test_mutating_an_axis_read_or_a_map_axis_leaves_the_next_ones_unchanged(fn, make):
    rho = make()
    if "planar" in fn.__name__:
        grid, slow, fast = PlanarGrid(nx=9, ny=8), "ys", "xs"
    else:
        grid, slow, fast = SphericalGrid(ntheta=9, nphi=8), "thetas", "phis"
    kept_slow, kept_fast = getattr(grid, slow), getattr(grid, fast)
    first = fn(rho, grid)
    getattr(grid, fast)[...] = 7.0
    first.axis1[...] = 7.0
    first.axis2[...] = 7.0
    again = fn(rho, grid)
    assert again.axis1.tobytes() == kept_slow.tobytes() == getattr(grid, slow).tobytes()
    assert again.axis2.tobytes() == kept_fast.tobytes() == getattr(grid, fast).tobytes()
    assert again.values.tobytes() == fn(rho, dataclasses.replace(grid)).values.tobytes()


def test_grids_compare_and_hash_by_their_fields_only():
    for read, unread in ((PlanarGrid(nx=5), PlanarGrid(nx=5)),
                         (SphericalGrid(nphi=5), SphericalGrid(nphi=5))):
        name = _AXES[type(read)][0][0]
        getattr(read, name)                                  # caches the axes on one side only
        assert read == unread and hash(read) == hash(unread) and len({read, unread}) == 1
        assert repr(read) == repr(unread)
        copy = dataclasses.replace(read)
        assert copy == read and copy._keys is not read._keys
        assert getattr(copy, name).tobytes() == getattr(read, name).tobytes()
        count = _AXES[type(read)][0][2]
        resized = dataclasses.replace(read, **{count: 3})
        assert resized != read and getattr(resized, name).size == 3
