import math

import numpy as np
import pytest
import scipy.linalg

from conftest import random_density, random_hermitian, random_ket
from qmkit import (
    MeasurementSet,
    MetrologyScenario,
    add_white_noise,
    adjoint,
    basis,
    build_mub_set,
    build_pauli_set,
    build_sic_set,
    build_stoke_set,
    cat_state,
    classical_fisher,
    cramer_rao_bounds,
    encode_phase,
    error_propagation,
    ghz,
    identity,
    normalize,
    pauli,
    probabilities,
    quantum_fisher,
    run_scenario,
    spin,
    spin_coherent,
    tensor,
    to_operator,
    zeeman,
)
from qmkit import qcore
from qmkit.errors import (DimensionMismatch, InvalidObject, InvalidParameter, NotHermitian,
                          UnsupportedDimension)
from qmkit.cli import main as cli_main


def _plus():
    return normalize([1.0, 1.0])


def _sigma_x_set():
    plus = to_operator(_plus())
    minus = to_operator(normalize([1.0, -1.0]))
    return MeasurementSet(kind="custom", elements=(plus, minus), groups=((0, 1),))


def test_encode_phase_identity_at_zero():
    psi = random_ket(np.random.default_rng(0), 3)
    out = encode_phase(psi, identity(3), 0.0)
    np.testing.assert_allclose(out.data, psi.data, atol=1e-14)


def test_encode_phase_qubit_flip():
    # H = sz/2; phi = pi maps |+> to |-> up to a global phase
    out = encode_phase(_plus(), 0.5 * pauli("z"), math.pi)
    minus = normalize([1.0, -1.0]).data.reshape(-1)
    overlap = abs(np.vdot(minus, out.data.reshape(-1)))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_encode_phase_preserves_trace(rng):
    from conftest import random_density
    rho = random_density(rng, 4)
    h = spin(1.5, "z")
    out = encode_phase(rho, h, 0.7)
    assert np.trace(out.data).real == pytest.approx(1.0, abs=1e-10)


def test_encode_phase_normalises_kets_and_bras():
    # a ket or bra is read at unit norm, as every other state boundary reads it
    h = pauli("z")
    for scaled, unit in (([2, 0], [1, 0]), (adjoint([2, 0]), adjoint([1, 0])),
                         ([3e200, 4e200j], [3, 4j])):
        out = encode_phase(scaled, h, 0.3).data
        np.testing.assert_array_equal(out, encode_phase(unit, h, 0.3).data)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("d", range(2, 13))
def test_encode_phase_matches_expm(rng, d):
    h = random_hermitian(rng, d)
    phi = float(rng.uniform(-2.0, 2.0))
    u = scipy.linalg.expm(-1j * phi * h)
    psi, rho = random_ket(rng, d), random_density(rng, d)
    np.testing.assert_allclose(encode_phase(psi, h, phi).data, u @ psi.data,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(encode_phase(rho, h, phi).data, u @ rho.data @ u.conj().T,
                               rtol=0, atol=1e-12)


def test_encode_phase_requires_hermitian_generator():
    with pytest.raises(NotHermitian):
        encode_phase(_plus(), [[0, 1], [0, 0]], 0.3)


def test_generator_keeps_its_eigendecomposition(rng):
    # a QuantumObject generator is decomposed once; later calls give the same bits
    # as a plain array generator, which keeps nothing
    h = spin(2, "z")
    arr = h.data.copy()
    psi = random_ket(rng, 5)
    first = encode_phase(psi, h, 0.4)
    lam, v = h._eigh
    assert not (lam.flags.writeable or v.flags.writeable)
    for phi in (0.4, 1.3):
        np.testing.assert_array_equal(encode_phase(psi, h, phi).data,
                                      encode_phase(psi, arr, phi).data)
    assert h._eigh[1] is v
    assert not first.data.flags.writeable
    assert quantum_fisher(first, h) == quantum_fisher(first, arr)
    with pytest.raises(DimensionMismatch):                 # the kept spectrum skips no shape check
        encode_phase(random_ket(rng, 3), h, 0.4)


def test_encode_phase_refuses_a_phase_that_overflows():
    # phi * eigenvalue beyond the float range would give a NaN state
    with pytest.raises(InvalidParameter):
        encode_phase(_plus(), 2 * pauli("z"), 1e308)
    assert np.isfinite(encode_phase(_plus(), pauli("z"), 1e308).data).all()


def test_classical_fisher_ramsey():
    h = 0.5 * pauli("z")
    mset = _sigma_x_set()

    def rho_of(phi):
        return encode_phase(_plus(), h, phi)

    for phi in (0.3, 0.8, 1.4, 2.2):
        f = classical_fisher(rho_of, mset, phi, dphi=1e-4)
        assert f == pytest.approx(1.0, abs=1e-5)


def test_classical_fisher_zero_for_static_state():
    mset = _sigma_x_set()
    f = classical_fisher(lambda phi: basis(2, 0), mset, 0.5, dphi=1e-3)
    assert f == pytest.approx(0.0, abs=1e-12)


def test_classical_fisher_validates_step():
    with pytest.raises(InvalidParameter):
        classical_fisher(lambda phi: basis(2, 0), _sigma_x_set(), 0.1, dphi=0.0)
    for dphi in (math.nan, math.inf):
        with pytest.raises(InvalidParameter):
            classical_fisher(lambda phi: basis(2, 0), _sigma_x_set(), 0.1, dphi=dphi)
    # a step that phi +- dphi rounds away would score every derivative 0
    args = (lambda p: encode_phase(basis(2, 0), pauli("x"), p), build_pauli_set(1), 0.4)
    assert classical_fisher(*args) == pytest.approx(2.666663, abs=1e-6)
    with pytest.raises(InvalidParameter, match="rounds away at phi = 0.4"):
        classical_fisher(*args, dphi=1e-17)


def test_cfi_bounded_by_qfi(rng):
    h = 0.5 * pauli("z")
    mset = _sigma_x_set()
    for _ in range(25):
        psi = random_ket(rng, 2)
        q = quantum_fisher(psi, h)
        phi = float(rng.uniform(0.1, 2.0))
        f = classical_fisher(lambda p: encode_phase(psi, h, p), mset, phi,
                             dphi=1e-4)
        assert f <= q + 1e-6 + 1e-4


def test_grouped_cfi_is_mean_of_group_cfis(rng):
    mub2 = build_mub_set(2)
    h = 0.5 * pauli("z")
    for _ in range(10):
        psi = random_ket(rng, 2)
        phi = float(rng.uniform(0.2, 2.0))

        def rho_of(p):
            return encode_phase(psi, h, p)

        per_group = [classical_fisher(rho_of, MeasurementSet(kind="custom",
                                                             elements=mub2.stack[list(idx)]),
                                      phi, dphi=1e-4)
                     for idx in mub2.groups]
        q = quantum_fisher(rho_of(phi), h)
        f = classical_fisher(rho_of, mub2, phi, dphi=1e-4)
        assert f == pytest.approx(np.mean(per_group), abs=1e-12)
        assert max(per_group) <= q + 1e-6 + 1e-4


def test_a_set_is_scored_by_its_declared_groups_alone(rng):
    # the Z basis declared as the one group, D, A, L and R left outside it: those
    # four would see a z rotation, and counting them once scored 2x the QFI
    pauli1, h = build_pauli_set(1), spin(0.5, "z")
    one = MeasurementSet("custom", pauli1.stack, groups=[(0, 1)])
    alone = MeasurementSet("custom", pauli1.stack[:2], groups=[(0, 1)])
    probes = [(spin_coherent(0.5, 1.0, 0.3), 0.4)]
    probes += [(random_ket(rng, 2), float(rng.uniform(0.0, 3.0))) for _ in range(30)]
    for psi, phi in probes:
        def rho_of(p):
            return encode_phase(psi, h, p)
        f = classical_fisher(rho_of, one, phi)
        assert f == classical_fisher(rho_of, alone, phi)
        assert f <= quantum_fisher(rho_of(phi), h) + 1e-9


@pytest.mark.parametrize("n", [1, 2])
def test_a_set_without_groups_must_be_one_measurement(n):
    # Stoke elements sum to more than the identity: scored as one measurement
    # they gave 1.7x (n = 1) and 2.7x (n = 2) the QFI
    j = (2**n - 1) / 2
    psi, h = spin_coherent(j, 1.0, 0.3), spin(j, "z")
    with pytest.raises(InvalidParameter, match="one measurement, but its probabilities sum"):
        classical_fisher(lambda p: encode_phase(psi, h, p), build_stoke_set(n), 0.4)


def test_a_single_group_set_keeps_the_elementwise_sum(rng):
    # a SIC set's one group is added in element order, where the sum over every
    # element it used to be scored by was added in pairs: the values move by rounding
    def elementwise(rho_of, mset, phi, dphi=1e-3):
        p0, p_plus, p_minus = (probabilities(rho_of(p), mset) for p in (phi, phi + dphi,
                                                                         phi - dphi))
        dp = (p_plus - p_minus) / (2 * dphi)
        return float(np.sum(np.divide(dp**2, p0, out=np.zeros_like(p0), where=p0 > 1e-12)))

    for d in range(2, 9):
        sic, h = build_sic_set(d), spin((d - 1) / 2, "z")
        for _ in range(20):
            psi, phi = random_ket(rng, d), float(rng.uniform(0.0, 3.0))

            def rho_of(p):
                return encode_phase(psi, h, p)
            want = elementwise(rho_of, sic, phi)
            assert classical_fisher(rho_of, sic, phi) == pytest.approx(want, rel=1e-15, abs=0)


def test_qfi_pure_equals_four_variance(rng):
    for d in (2, 3):
        for _ in range(50):
            psi = random_ket(rng, d)
            h = spin((d - 1) / 2, "z")
            v = psi.data.reshape(-1)
            mean = np.real(v.conj() @ h.data @ v)
            mean2 = np.real(v.conj() @ h.data @ h.data @ v)
            expected = 4 * (mean2 - mean**2)
            assert quantum_fisher(psi, h) == pytest.approx(expected, abs=1e-8)


def test_qfi_ghz_heisenberg_scaling():
    from functools import reduce
    from operator import add

    for n in (2, 3):
        h = reduce(add, (
            tensor(*[pauli("z") if i == k else identity(2) for i in range(n)])
            for k in range(n)
        )) * 0.5
        assert quantum_fisher(ghz(n), h) == pytest.approx(n**2, abs=1e-6)


def test_qfi_maximally_mixed_zero():
    assert quantum_fisher(identity(4) / 4, spin(1.5, "z")) == pytest.approx(0.0)


def test_qfi_invariant_under_encoding():
    psi = cat_state(2, 0.3)
    h = spin(2, "z")
    q0 = quantum_fisher(psi, h)
    for phi in (0.2, 0.9, 1.7):
        q = quantum_fisher(encode_phase(psi, h, phi), h)
        assert q == pytest.approx(q0, abs=1e-8)


def test_qfi_requires_hermitian_generator():
    with pytest.raises(NotHermitian):
        quantum_fisher(basis(2, 0), [[0, 1], [0, 0]])


def test_qfi_scores_only_states():
    with pytest.raises(NotHermitian):
        quantum_fisher([[0.5, 1], [0, 0.5]], pauli("z"))
    with pytest.raises(InvalidObject):
        quantum_fisher(identity(2), pauli("z"))


def test_qfi_refuses_an_overflowing_result():
    # 4 Var(H) = 4e400 overflows: refused, not returned as inf with a RuntimeWarning
    with pytest.raises(InvalidParameter, match="quantum Fisher information overflows"):
        quantum_fisher(basis(2, 0), 1e200 * pauli("x").data)


def _qfi_loop(rho, h):
    """The spectral-form double loop over eigenvalue pairs."""
    q, v = np.linalg.eigh((rho + rho.conj().T) / 2)
    q = np.clip(q, 0.0, None)
    q = q / q.sum()
    ht = v.conj().T @ h @ v
    total = 0.0
    for m in range(len(q)):
        for n in range(len(q)):
            s = q[m] + q[n]
            if s <= 1e-12:
                continue
            total += (q[m] - q[n]) ** 2 / s * abs(ht[m, n]) ** 2
    return 2.0 * total


def test_quantum_fisher_matches_pairwise_loop():
    rng = np.random.default_rng(13)
    for d in range(2, 13):
        h = random_hermitian(rng, d)
        for rank in (d, max(1, d // 2), 1):
            rho = random_density(rng, d, rank).data
            assert quantum_fisher(rho, h) == pytest.approx(_qfi_loop(rho, h), rel=1e-12)


def test_cramer_rao_bounds():
    assert cramer_rao_bounds(1.0, 1.0, 1) == (1.0, 1.0)
    ccrb, qcrb = cramer_rao_bounds(2.0, 4.0, 100)
    assert qcrb <= ccrb
    assert qcrb == pytest.approx(0.05)
    assert cramer_rao_bounds(0.0, 0.0, 1) == (math.inf, math.inf)


def test_cat_state_equator_degenerates():
    j = 3
    cat = cat_state(j, math.pi / 2, 0.4)
    sc = spin_coherent(j, math.pi / 2, 0.4)
    overlap = abs(np.vdot(sc.data.reshape(-1), cat.data.reshape(-1)))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_cat_state_poles_give_ghz_like():
    j = 10
    cat = cat_state(j, 0.0)
    v = cat.data.reshape(-1)
    expected = np.zeros(21)
    expected[0] = expected[20] = 1 / math.sqrt(2)
    np.testing.assert_allclose(np.abs(v), expected, atol=1e-12)


def test_cat_state_norm_and_domain():
    assert np.linalg.norm(cat_state(10, 0.15 * math.pi).data) == pytest.approx(1.0)


def test_error_propagation_linear_signal():
    phis = np.linspace(0, 1, 50)
    mean = phis.copy()                  # <A> = phi
    second = phis**2 + 0.09             # constant variance 0.09
    out = error_propagation(phis, mean, second)
    np.testing.assert_allclose(out, np.full(50, 0.3), atol=1e-10)


def test_error_propagation_qubit_ramsey():
    # <sigma_y>(phi) = sin(phi), Var = cos^2(phi) for probe |+>, H = sz/2
    h = 0.5 * pauli("z")
    sy = pauli("y")
    phis = np.linspace(0.0, 0.5, 201)
    e1, e2 = [], []
    for phi in phis:
        st = encode_phase(_plus(), h, float(phi))
        v = st.data.reshape(-1)
        e1.append(np.real(v.conj() @ sy.data @ v))
        e2.append(np.real(v.conj() @ sy.data @ sy.data @ v))
    out = error_propagation(phis, np.array(e1), np.array(e2))
    assert out[0] == pytest.approx(1.0, abs=1e-3)


def test_error_propagation_flags_undefined():
    phis = np.linspace(0, 1, 11)
    mean = np.zeros(11)
    second = np.ones(11)
    out = error_propagation(phis, mean, second)
    assert np.all(np.isnan(out))


@pytest.mark.parametrize("sizes", [(3, 2, 3), (3, 3, 2), (3, 4, 4)])
def test_error_propagation_refuses_misaligned_arrays(sizes):
    phis, e1, e2 = (np.linspace(0.0, 1.0, n) for n in sizes)
    with pytest.raises(DimensionMismatch, match="must align"):
        error_propagation(phis, e1, e2)


def test_central_difference_accuracy():
    # derivative of sin(phi) at dphi = 1e-3 matches cos(phi) to 1e-5
    phis = np.arange(0.0, 1.0, 1e-3)
    deriv = np.gradient(np.sin(phis), phis)
    interior = slice(1, -1)
    assert np.max(np.abs(deriv[interior] - np.cos(phis)[interior])) < 1e-5


def test_run_scenario_structure_and_determinism():
    j = 2
    scenario = MetrologyScenario(
        probe=cat_state(j, 0.25 * math.pi),
        generator=spin(j, "z"),
        phis=np.linspace(0, 0.2, 40) * math.pi,
        observable=spin(j, "y"),
    )
    a = run_scenario(scenario)
    b = run_scenario(scenario)
    np.testing.assert_array_equal(a.delta_phi, b.delta_phi)
    assert a.sql == pytest.approx(1 / math.sqrt(2 * j))
    assert a.hl == pytest.approx(1 / (2 * j))
    assert a.phis.shape == a.expectation.shape == a.variance.shape


def test_run_scenario_respects_single_shot_qcrb():
    # coherent probe on the equator saturates the bound at phi = 0
    j = 5
    probe = spin_coherent(j, math.pi / 2, 0.0)
    scenario = MetrologyScenario(
        probe=probe, generator=spin(j, "z"),
        phis=np.linspace(0.0, 0.15, 120) * math.pi,
        observable=spin(j, "y"),
    )
    curve = run_scenario(scenario)
    q = quantum_fisher(probe, spin(j, "z"))
    bound = 1 / math.sqrt(q)
    # endpoints use one-sided (first-order) differences; check the interior,
    # where the central-difference discretization error is second order
    interior = curve.delta_phi[1:-1]
    defined = ~np.isnan(interior)
    assert np.all(interior[defined] >= bound - 1e-6)
    assert curve.delta_phi[0] == pytest.approx(bound, rel=1e-3)


def _moments_by_encoding(scenario):
    """<A> and <A^2> from one encode_phase per phase point."""
    a = scenario.observable.data
    e1, e2 = [], []
    for phi in scenario.phis:
        rho = to_operator(encode_phase(scenario.probe, scenario.generator, float(phi))).data
        e1.append(np.trace(a @ rho).real)
        e2.append(np.trace(a @ a @ rho).real)
    return np.array(e1), np.array(e2)


@pytest.mark.parametrize("generator", ["z", "x", "random"])
def test_run_scenario_matches_per_point_encoding(generator):
    j = 2
    h = (random_hermitian(np.random.default_rng(8), 2 * j + 1) if generator == "random"
         else spin(j, generator))
    ket = cat_state(j, 0.3)
    for probe in (ket, adjoint(ket), add_white_noise(ket, 0.2)):
        scenario = MetrologyScenario(probe=probe, generator=h,
                                     phis=np.linspace(-0.5, 2.0, 37),
                                     observable=spin(j, "y"))
        curve = run_scenario(scenario)
        e1, e2 = _moments_by_encoding(scenario)
        np.testing.assert_allclose(curve.expectation, e1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(curve.variance, e2 - e1**2, rtol=0, atol=1e-12)


def test_scenario_validation():
    j = 1
    with pytest.raises(NotHermitian):
        MetrologyScenario(probe=zeeman(j, 1), generator=spin(j, "+"),
                          phis=np.array([0.0, 0.1]), observable=spin(j, "y"))
    with pytest.raises(NotHermitian):
        MetrologyScenario(probe=zeeman(j, 1), generator=spin(j, "z"),
                          phis=np.array([0.0, 0.1]), observable=spin(j, "+"))
    for phis in ([0.1, 0.1], [0.0, np.nan], [0.0, np.inf]):
        with pytest.raises(InvalidParameter):
            MetrologyScenario(probe=zeeman(j, 1), generator=spin(j, "z"),
                              phis=np.array(phis), observable=spin(j, "y"))
        with pytest.raises(InvalidParameter):
            error_propagation(np.array(phis), np.zeros(2), np.ones(2))
    for phis in ([], [0.1]):
        with pytest.raises(InvalidParameter, match="at least two points"):
            MetrologyScenario(probe=zeeman(j, 1), generator=spin(j, "z"),
                              phis=np.array(phis), observable=spin(j, "y"))
    # the probe must be a state
    with pytest.raises(InvalidObject):
        MetrologyScenario(probe=2 * identity(3) / 3, generator=spin(j, "z"),
                          phis=np.array([0.0, 0.1]), observable=spin(j, "y"))
    # probe, generator and observable must share one dimension
    for probe, h, a in ((cat_state(2, 0.3), spin(2, "z"), spin(1, "y")),
                        (cat_state(2, 0.3), spin(1, "z"), spin(2, "y")),
                        (zeeman(j, 1), spin(2, "z"), spin(2, "y")),
                        (np.ones((3, 4)), spin(j, "z"), spin(j, "y"))):
        with pytest.raises(DimensionMismatch):
            MetrologyScenario(probe=probe, generator=h, phis=np.array([0.0, 0.1]),
                              observable=a)
    # a single level has no spins to count for the SQL and HL levels
    with pytest.raises(InvalidParameter, match="scenario dimension must be an integer >= 2"):
        MetrologyScenario(probe=cat_state(0, 0.3), generator=spin(0, "z"),
                          phis=np.array([0.0, 0.1]), observable=spin(0, "y"))


def test_a_scenario_phase_table_is_bounded_by_the_size_rule(monkeypatch):
    # run_scenario would hold 10**5 phases of 21 levels: 33.6 MB, past a 1 MiB limit
    monkeypatch.setattr(qcore, "MAX_STACK_BYTES", 2**20)
    with pytest.raises(UnsupportedDimension, match="a phase grid of 100000 points needs 2100000 "):
        MetrologyScenario(probe=spin_coherent(10, 1.0, 0.0), generator=spin(10, "z"),
                          phis=np.linspace(0.0, 1.0, 10**5), observable=spin(10, "y"))


def test_curve_csv_lines_mark_undefined_empty(tmp_path):
    assert cli_main(["metrology", "--j", "10", "--thetas-pi", "0", "--points", "10",
                     "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "cat_theta_0pi.csv").read_text().splitlines()
    assert lines[0] == "# phi,expectation,variance,delta_phi,sql,hl"
    assert len(lines) == 11
    # the GHZ-like cat has <S_y> identically zero: delta_phi all undefined
    for line in lines[1:]:
        assert line.split(",")[3] == ""
