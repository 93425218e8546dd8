import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex_matrix, random_hermitian, random_psd
from qmkit import (
    Kind,
    MeasurementSet,
    MetrologyScenario,
    PlanarGrid,
    QuantumObject,
    SamplerBackend,
    SphericalGrid,
    add_random_noise,
    add_white_noise,
    adjoint,
    build_mub_set,
    build_pauli_set,
    build_sic_set,
    build_stoke_set,
    cat_state,
    classical_fisher,
    classify,
    coherent,
    conjugate,
    cramer_rao_bounds,
    density_matrix,
    diagonalize,
    dicke,
    displacement,
    dot,
    eigen,
    encode_phase,
    error_propagation,
    fidelity,
    ground,
    husimi_planar,
    husimi_spherical,
    l2norm,
    lowering,
    mat_exp,
    mat_sqrt,
    normalize,
    partial_trace,
    position_state,
    probabilities,
    quantum_fisher,
    random_haar,
    read_grid,
    reconstruct_linear_inversion,
    run_scenario,
    run_tomography,
    sample_cdf_discrete,
    sample_mc,
    spherical_harmonic,
    spin_coherent,
    squeezed,
    squeezing,
    tensor,
    to_operator,
    trace,
    trace_distance_pure,
    transpose,
    w,
    weyl_displacement,
    wigner_planar,
    wigner_spherical,
)
from qmkit.qcore import _rng as as_rng
from qmkit.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidDistribution,
    InvalidObject,
    InvalidParameter,
    NotDiagonalizable,
    NotHermitian,
    NotPositive,
    NotQubitSystem,
    ZeroNorm,
)
from qmkit.operators import identity, pauli, spin
from qmkit.phasespace import spherical_multipole
from qmkit.states import basis, dual_basis, ghz


def test_classify_ket():
    kind, shape = classify(np.array([[1.0], [0.0]]))
    assert kind is Kind.KET
    assert shape == (2, 1)


def test_classify_bra_and_oper():
    assert classify(np.array([[1.0, 0.0]]))[0] is Kind.BRA
    assert classify(np.eye(2)) == (Kind.OPER, (2, 2))


def test_classify_scalar_is_oper():
    assert classify([[5.0]])[0] is Kind.OPER


def test_empty_matrix_rejected():
    with pytest.raises(InvalidObject):
        QuantumObject(np.zeros((0, 0)))


@pytest.mark.parametrize("data", ["a", [[1, "x"]], [[1, 2], [3]], {"a": 1}, [1, 2**1100]])
def test_non_numeric_input_rejected(data):
    with pytest.raises(InvalidObject):
        QuantumObject(data)
    with pytest.raises(InvalidObject):
        density_matrix(data)


def test_one_dimensional_input_is_column():
    assert classify([1, 0])[0] is Kind.KET


@pytest.mark.parametrize("ket", [np.array([1j]), np.array([-1.0]), [0.6j], (2.0,),
                                 QuantumObject(np.array([1j]))])
def test_a_one_element_1d_input_is_a_ket_state(ket):
    # a lone 1 x 1 matrix is an operator, but a 1-d input is a ket at every length
    assert classify(ket)[0] is Kind.OPER
    np.testing.assert_array_equal(density_matrix(ket), [[1.0]])
    grid = PlanarGrid(nx=3, ny=2)
    np.testing.assert_array_equal(husimi_planar(ket, grid).values,
                                  husimi_planar(basis(1, 0), grid).values)
    assert fidelity(ket, [[1.0]]) == 1.0
    np.testing.assert_array_equal(to_operator(ket).data, [[1.0]])
    assert trace_distance_pure(ket, np.array([1.0])) == 0.0
    np.testing.assert_array_equal(encode_phase(ket, [[0.5]], 0.3).data,
                                  encode_phase([[1.0]], [[0.5]], 0.3).data)
    np.testing.assert_allclose(encode_phase(ket, [[0.5]], 0.3).data, [[1.0]], rtol=0, atol=1e-15)
    np.testing.assert_allclose(add_random_noise(ket, 0, 0.1, rng=1).data, [[1.0]],
                               rtol=0, atol=1e-15)


def test_a_one_by_one_operator_is_still_checked_as_a_state():
    with pytest.raises(NotHermitian):
        density_matrix(np.array([[1j]]))
    with pytest.raises(InvalidObject, match="unit trace, got -1"):
        density_matrix([[-1.0]])
    np.testing.assert_array_equal(density_matrix([[1.0]]), [[1.0]])


def test_adjoint_of_ket_is_bra():
    out = adjoint(basis(2, 0))
    assert out.kind is Kind.BRA
    np.testing.assert_allclose(out.data, [[1, 0]])


def test_adjoint_fixes_hermitian():
    sy = pauli("y")
    np.testing.assert_allclose(adjoint(sy).data, sy.data)


def test_conjugate():
    np.testing.assert_allclose(conjugate([[1 + 1j]]).data, [[1 - 1j]])


def test_trace_examples():
    assert trace(identity(3)) == pytest.approx(3)
    assert trace(pauli("x")) == pytest.approx(0)
    assert trace(to_operator(basis(2, 0))) == pytest.approx(1)


def test_trace_rejects_vectors():
    with pytest.raises(InvalidObject):
        trace(basis(2, 0))


def test_eigen_sigma_z():
    dec = eigen(pauli("z"))
    np.testing.assert_allclose(dec.values, [1.0, -1.0])


def test_eigen_degenerate():
    dec = eigen(2 * identity(2))
    np.testing.assert_allclose(dec.values, [2.0, 2.0])
    v0 = dec.vectors[0].data.reshape(-1)
    v1 = dec.vectors[1].data.reshape(-1)
    assert abs(np.vdot(v0, v1)) < 1e-12


def test_ground_sigma_z():
    g = ground(pauli("z"))
    np.testing.assert_allclose(np.abs(g.data.reshape(-1)), [0, 1], atol=1e-12)


def test_ground_requires_hermitian():
    with pytest.raises(NotHermitian):
        ground([[0, 1], [0, 0]])


def test_mat_exp_zero():
    np.testing.assert_allclose(mat_exp(np.zeros((3, 3))).data, np.eye(3), atol=1e-14)


def test_mat_exp_diagonal_rotation():
    out = mat_exp(-1j * (np.pi / 2) * pauli("z").data)
    np.testing.assert_allclose(out.data, np.diag([-1j, 1j]), atol=1e-12)


def test_mat_sqrt_diagonal():
    np.testing.assert_allclose(mat_sqrt(np.diag([4.0, 9.0])).data,
                               np.diag([2.0, 3.0]), atol=1e-12)


def test_mat_sqrt_rejects_negative():
    with pytest.raises(NotPositive):
        mat_sqrt(np.diag([1.0, -1.0]))


def test_normalize_ket_and_norm():
    out = normalize([1.0, 1.0])
    np.testing.assert_allclose(out.data.reshape(-1), np.ones(2) / np.sqrt(2))
    assert l2norm([3.0, 4.0]) == pytest.approx(5.0)


def test_normalize_oper_unit_trace():
    out = normalize(2 * identity(2))
    np.testing.assert_allclose(out.data, np.eye(2) / 2)


def test_normalize_zero_raises():
    with pytest.raises(ZeroNorm):
        normalize(np.zeros(3))
    with pytest.raises(ZeroNorm):
        normalize(pauli("x"))  # traceless oper


@pytest.mark.parametrize("big, small", [([1e200, 1e200], [1.0, 1.0]),
                                        ([1e200j, 1e200j], [1j, 1j]),
                                        ([1e308, 1e308j], [1.0, 1j])])
def test_a_ket_whose_squared_norm_overflows_is_rescaled_first(big, small):
    # the norm is taken after dividing by the largest part, so the results
    # are those of the same ket at unit scale (|+> and |+i> up to a phase)
    np.testing.assert_array_equal(normalize(big).data, normalize(small).data)
    pset = build_pauli_set(1)
    np.testing.assert_array_equal(probabilities(big, pset), probabilities(small, pset))
    np.testing.assert_array_equal(husimi_planar(big).values, husimi_planar(small).values)


def test_l2norm_of_entries_whose_squares_overflow():
    assert l2norm([1e200, 1e200]) == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
    assert l2norm([[1e200j, 0], [0, -1e200]]) == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)
    assert l2norm([1.7e308] * 4) == math.inf          # past the float range, without a warning
    # below the overflow the plain norm is kept, bit for bit
    m = np.random.default_rng(3).normal(size=(5, 5)) * 1e150
    for x in ([3.0, 4.0], m, 1j * m):
        assert l2norm(x) == float(np.linalg.norm(x))


def test_to_operator():
    np.testing.assert_allclose(to_operator(basis(2, 0)).data, [[1, 0], [0, 0]])
    plus = normalize([1.0, 1.0])
    np.testing.assert_allclose(to_operator(plus).data, np.full((2, 2), 0.5))
    np.testing.assert_allclose(to_operator(dual_basis(2, 0)).data, [[1, 0], [0, 0]])


def test_to_operator_converts_a_ket_once(rng):
    # the outer product of the normalised ket, bit for bit, and read-only
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    u = (v / np.linalg.norm(v.reshape(-1, 1))).reshape(-1)
    for x, w in ((v, u), (v.reshape(1, -1), u.conj())):
        rho = to_operator(x)
        np.testing.assert_array_equal(rho.data, np.outer(w, w.conj()))
        assert not rho.data.flags.writeable
        assert not density_matrix(x).flags.writeable


def test_dot_evolution_example():
    # hand multiply: (0.5 sz - 0.25 sx) (1,1)/sqrt2 = (0.25, -0.75)/sqrt2
    u = 0.5 * pauli("z") - 0.25 * pauli("x")
    psi = normalize([1.0, 1.0])
    out = dot(u, psi)
    np.testing.assert_allclose(out.data.reshape(-1),
                               np.array([0.25, -0.75]) / np.sqrt(2), atol=1e-15)


def test_dot_identity_and_scalar():
    psi = normalize([1.0, 2.0])
    np.testing.assert_allclose(dot(identity(2), psi).data, psi.data)
    assert dot(dual_basis(2, 0), basis(2, 1)) == 0j


def test_dot_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dot(identity(2), identity(3))


def test_tensor_shapes_and_values():
    h = tensor(pauli("z"), pauli("x"), pauli("x"))
    assert h.shape == (8, 8)
    np.testing.assert_allclose(tensor(identity(2), identity(2)).data, np.eye(4))
    np.testing.assert_allclose(tensor(basis(2, 0), basis(2, 0)).data.reshape(-1),
                               [1, 0, 0, 0])


def test_partial_trace_traceless_factors():
    h = tensor(pauli("z"), pauli("x"), pauli("x"))
    out = partial_trace(h, [2, 3])
    np.testing.assert_allclose(out.data, np.zeros((2, 2)), atol=1e-14)


def test_partial_trace_product_state():
    rho = to_operator(tensor(basis(2, 0), basis(2, 0)))
    np.testing.assert_allclose(partial_trace(rho, [2]).data, [[1, 0], [0, 0]],
                               atol=1e-14)


def test_partial_trace_bell_state():
    rho = to_operator(ghz(2)).data
    # independent oracle: direct index sum rho_A[i,j] = sum_k rho[2i+k, 2j+k]
    expected = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                expected[i, j] += rho[2 * i + k, 2 * j + k]
    out = partial_trace(rho, [2])
    np.testing.assert_allclose(out.data, expected, atol=1e-14)
    np.testing.assert_allclose(out.data, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_errors():
    with pytest.raises(NotQubitSystem):
        partial_trace(np.eye(3), [1])
    with pytest.raises(IndexOutOfRange):
        partial_trace(np.eye(4), [3])
    with pytest.raises(IndexOutOfRange):
        partial_trace(np.eye(4), [1, 1])
    for index in (1.5, "a", None):
        with pytest.raises(InvalidParameter, match="subsystem index must be an integer, got"):
            partial_trace(np.eye(4), [index])


def test_partial_trace_needs_an_iterable_of_indices():
    for traced in (None, 1, 2.0):
        with pytest.raises(InvalidParameter, match="must be an iterable of indices"):
            partial_trace(np.eye(4) / 4, traced)
    np.testing.assert_array_equal(partial_trace(np.eye(4) / 4, (t for t in [2])).data,
                                  np.eye(2) / 2)


def test_diagonalize_examples():
    np.testing.assert_allclose(diagonalize(pauli("x")).data, np.diag([1.0, -1.0]),
                               atol=1e-12)
    np.testing.assert_allclose(diagonalize(np.diag([5.0, 2.0])).data,
                               np.diag([5.0, 2.0]), atol=1e-12)
    plus_proj = to_operator(normalize([1.0, 1.0]))
    np.testing.assert_allclose(diagonalize(plus_proj).data, np.diag([1.0, 0.0]),
                               atol=1e-12)


def test_diagonalize_defective():
    with pytest.raises(NotDiagonalizable):
        diagonalize([[0, 1], [0, 0]])


def test_quantum_object_immutable():
    q = basis(2, 0)
    with pytest.raises(ValueError):
        q.data[0, 0] = 5.0


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_adjoint_involution_and_factorization(seed, d):
    rng = np.random.default_rng(seed)
    m = random_complex_matrix(rng, d)
    q = QuantumObject(m)
    np.testing.assert_array_equal(adjoint(adjoint(q)).data, q.data)
    np.testing.assert_allclose(transpose(conjugate(q)).data, adjoint(q).data,
                               atol=1e-15)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_trace_cyclic(seed):
    rng = np.random.default_rng(seed)
    a = random_complex_matrix(rng, 8)
    b = random_complex_matrix(rng, 8)
    ab = trace(dot(QuantumObject(a), QuantumObject(b)))
    ba = trace(dot(QuantumObject(b), QuantumObject(a)))
    assert abs(ab - ba) < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(2, 3),
       st.integers(2, 3))
def test_tensor_associative(seed, d1, d2, d3):
    rng = np.random.default_rng(seed)
    a, b, c = (random_complex_matrix(rng, d) for d in (d1, d2, d3))
    left = tensor(tensor(a, b), c)
    flat = tensor(a, b, c)
    np.testing.assert_array_equal(left.data, flat.data)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_partial_trace_preserves_trace(seed, n):
    rng = np.random.default_rng(seed)
    m = random_complex_matrix(rng, 2**n)
    keep = rng.integers(1, n + 1)
    traced = list(rng.choice(np.arange(1, n + 1), size=keep, replace=False))
    reduced = partial_trace(m, traced)
    full = np.trace(m)
    part = np.trace(reduced.data) if reduced.data.shape[0] > 1 else reduced.data[0, 0]
    assert abs(full - part) < 1e-10


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 16))
def test_mat_sqrt_squares_back(seed, d):
    rng = np.random.default_rng(seed)
    p = random_psd(rng, d)
    r = mat_sqrt(p).data
    np.testing.assert_allclose(r @ r, p, atol=1e-8 * max(1.0, np.linalg.norm(p)))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_eigen_reconstructs_hermitian(seed, d):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    dec = eigen(h)
    rebuilt = sum(
        val * np.outer(vec.data.reshape(-1), vec.data.reshape(-1).conj())
        for val, vec in zip(dec.values, dec.vectors)
    )
    np.testing.assert_allclose(rebuilt, h, atol=1e-8)
    # orthonormality
    vmat = np.column_stack([v.data.reshape(-1) for v in dec.vectors])
    np.testing.assert_allclose(vmat.conj().T @ vmat, np.eye(d), atol=1e-8)


# every count, dimension, qubit count, grid size and seed goes through qcore._count:
# (call taking the checked value, least admitted value, a valid value)
_COUNTED = {
    "identity": (identity, 1, 3),
    "lowering": (lowering, 2, 3),
    "displacement": (lambda d: displacement(d, 0.5 - 0.2j), 1, 3),
    "squeezing": (lambda d: squeezing(d, 0.3), 2, 3),
    "basis": (lambda d: basis(d, 1), 1, 3),
    "coherent": (lambda d: coherent(d, 0.7j), 1, 3),
    "squeezed": (lambda d: squeezed(d, 0.5, 0.3), 1, 3),
    "position_state": (lambda d: position_state(d, 0.4), 2, 3),
    "random_haar": (lambda d: random_haar(d, 5), 1, 3),
    "ghz": (ghz, 1, 2),
    "w": (w, 1, 2),
    "dicke": (lambda n: dicke(n, 1), 1, 2),
    "build_pauli_set": (build_pauli_set, 1, 1),
    "build_stoke_set": (build_stoke_set, 1, 1),
    "build_mub_set": (build_mub_set, 1, 3),
    "build_sic_set": (build_sic_set, 1, 3),
    "weyl_displacement": (lambda d: weyl_displacement(d, 1, 0), 1, 3),
    "cramer_rao_bounds": (lambda n: cramer_rao_bounds(2.0, 3.0, n), 1, 3),
    "PlanarGrid.nx": (lambda n: PlanarGrid(nx=n), 2, 3),
    "PlanarGrid.ny": (lambda n: PlanarGrid(ny=n), 2, 3),
    "SphericalGrid.ntheta": (lambda n: SphericalGrid(ntheta=n), 2, 3),
    "SphericalGrid.nphi": (lambda n: SphericalGrid(nphi=n), 2, 3),
    "as_rng": (as_rng, 0, 3),
    "SamplerBackend.seed": (lambda s: SamplerBackend("cdf", seed=s).rng(), 0, 3),
    "SamplerBackend.iterations": (lambda n: SamplerBackend("mc", iterations=n), 1, 3),
}


def _bits(x):
    """Bytes of what ``x`` holds: a matrix, a stack, four draws, or its repr."""
    if isinstance(x, QuantumObject):
        return x.data.tobytes()
    if isinstance(x, MeasurementSet):
        return x.stack.tobytes()
    if isinstance(x, np.random.Generator):
        return x.random(4).tobytes()
    return repr(x)


@pytest.mark.parametrize("name", _COUNTED)
def test_counts_must_be_integers_at_or_above_their_floor(name):
    call, least, valid = _COUNTED[name]
    for bad in (2.5, 2.0, "3", least - 1, np.float64(valid)):
        with pytest.raises(InvalidParameter, match=f"must be an integer >= {least}, got"):
            call(bad)
    assert _bits(call(np.int64(valid))) == _bits(call(valid))


# every square, dimension and Hermitian check on an operator goes through qcore._square:
# (call, the error it raises).  A 2 x 3 matrix is no state and no generator.
_WIDE = np.ones((2, 3))
_SKEW = np.array([[0, 1], [0, 0]])        # square, not Hermitian


def _scenario(probe=basis(2, 0), generator=pauli("z"), observable=pauli("x")):
    return MetrologyScenario(probe=probe, generator=generator, phis=[0.0, 0.1],
                             observable=observable)


_SQUARED = {
    "density_matrix": (lambda: density_matrix(_WIDE), DimensionMismatch),
    "trace": (lambda: trace(_WIDE), DimensionMismatch),
    "eigen": (lambda: eigen(_WIDE), DimensionMismatch),
    "diagonalize": (lambda: diagonalize(_WIDE), DimensionMismatch),
    "mat_exp": (lambda: mat_exp(_WIDE), DimensionMismatch),
    "mat_sqrt": (lambda: mat_sqrt(_WIDE), DimensionMismatch),
    "mat_sqrt Hermitian": (lambda: mat_sqrt(_SKEW), NotHermitian),
    "ground": (lambda: ground(_WIDE), DimensionMismatch),
    "partial_trace": (lambda: partial_trace(_WIDE, [1]), DimensionMismatch),
    "add_white_noise": (lambda: add_white_noise(_WIDE, 0.1), DimensionMismatch),
    "probabilities": (lambda: probabilities(_WIDE, build_pauli_set(1)), DimensionMismatch),
    "fidelity": (lambda: fidelity(_WIDE, _WIDE), DimensionMismatch),
    "run_tomography": (lambda: run_tomography(_WIDE, build_pauli_set(1)), DimensionMismatch),
    "run_tomography Hermitian": (lambda: run_tomography(_SKEW + np.eye(2) / 2,
                                                        build_pauli_set(1)), NotHermitian),
    "husimi_planar": (lambda: husimi_planar(_WIDE, PlanarGrid(nx=3, ny=3)), DimensionMismatch),
    "wigner_planar": (lambda: wigner_planar(_WIDE, PlanarGrid(nx=3, ny=3)), DimensionMismatch),
    "husimi_spherical": (lambda: husimi_spherical(_WIDE, SphericalGrid(ntheta=3, nphi=3)),
                         DimensionMismatch),
    "wigner_spherical": (lambda: wigner_spherical(_WIDE, SphericalGrid(ntheta=3, nphi=3)),
                         DimensionMismatch),
    "spherical_multipole": (lambda: spherical_multipole(_WIDE, 0, 0), DimensionMismatch),
    "encode_phase state": (lambda: encode_phase(_WIDE, identity(2), 0.1), DimensionMismatch),
    "encode_phase generator": (lambda: encode_phase(basis(2, 0), identity(3), 0.1),
                               DimensionMismatch),
    "encode_phase Hermitian": (lambda: encode_phase(basis(2, 0), _SKEW, 0.1), NotHermitian),
    "quantum_fisher state": (lambda: quantum_fisher(_WIDE, identity(2)), DimensionMismatch),
    "quantum_fisher generator": (lambda: quantum_fisher(basis(2, 0), spin(1, "z")),
                                 DimensionMismatch),
    "quantum_fisher generator both": (lambda: quantum_fisher(basis(2, 0), spin(1, "+")),
                                      DimensionMismatch),
    "quantum_fisher Hermitian": (lambda: quantum_fisher(basis(2, 0), _SKEW), NotHermitian),
    "MetrologyScenario probe": (lambda: _scenario(probe=_WIDE), DimensionMismatch),
    "MetrologyScenario generator": (lambda: _scenario(generator=spin(1, "z")),
                                    DimensionMismatch),
    "MetrologyScenario observable": (lambda: _scenario(observable=_WIDE), DimensionMismatch),
    "MetrologyScenario generator Hermitian": (lambda: _scenario(generator=_SKEW), NotHermitian),
    "MetrologyScenario observable Hermitian": (lambda: _scenario(observable=_SKEW),
                                               NotHermitian),
}


@pytest.mark.parametrize("name", _SQUARED)
def test_operators_must_be_square_of_the_state_dimension_and_hermitian(name):
    call, error = _SQUARED[name]
    with pytest.raises(error):
        call()


# every real or complex scalar parameter goes through qcore._real or qcore._complex:
# (call taking the checked value, "real" or "complex", a valid value)
_KET = basis(2, 0)
_SCALARS = {
    "sample_mc p": (lambda p: sample_mc(p, 100, rng=1), "real", 0.3),
    "classical_fisher dphi": (lambda h: classical_fisher(
        lambda p: encode_phase(_KET, pauli("x"), p), build_pauli_set(1), 0.4, h), "real", 1e-3),
    "cramer_rao_bounds F": (lambda f: cramer_rao_bounds(f, 3.0), "real", 2.0),
    "cramer_rao_bounds Q": (lambda q: cramer_rao_bounds(2.0, q), "real", 3.0),
    "cat_state theta": (lambda t: cat_state(1, t, 0.2), "real", 0.7),
    "add_random_noise mean": (lambda m: add_random_noise(_KET, m, 0.1, rng=1), "real", 0.05),
    "add_random_noise stdev": (lambda s: add_random_noise(_KET, 0.0, s, rng=1), "real", 0.1),
    "add_white_noise p": (lambda p: add_white_noise(_KET, p), "real", 0.25),
    "coherent alpha": (lambda a: coherent(4, a), "complex", 0.7 - 0.2j),
    "displacement alpha": (lambda a: displacement(4, a), "complex", 0.7 - 0.2j),
    "squeezing beta": (lambda b: squeezing(4, b), "complex", 0.3 + 0.1j),
    "squeezed alpha": (lambda a: squeezed(4, a, 0.3), "complex", -0.5 + 0.1j),
    "squeezed beta": (lambda b: squeezed(4, 0.5, b), "complex", 0.3 + 0.1j),
    "squeezed alpha at d = 1": (lambda a: squeezed(1, a, 0.3), "complex", 0.5),
    "squeezed beta at d = 1": (lambda b: squeezed(1, 0.5, b), "complex", 0.3),
    "position_state x": (lambda x: position_state(4, x), "real", 0.4),
    "spin_coherent theta": (lambda t: spin_coherent(1, t, 0.3), "real", 1.1),
    "spin_coherent phi": (lambda p: spin_coherent(1, 0.3, p), "real", 2.3),
    "encode_phase phi": (lambda p: encode_phase(_KET, pauli("x"), p), "real", 0.9),
    "QuantumObject * factor": (lambda c: _KET * c, "complex", 0.5 - 2j),
    "QuantumObject / divisor": (lambda c: _KET / c, "complex", 0.5 - 2j),
    "PlanarGrid x_range": (lambda v: PlanarGrid(x_range=(v, 3.0)), "real", -2.5),
    "PlanarGrid y_range": (lambda v: PlanarGrid(y_range=(-3.0, v)), "real", 2.5),
    "SphericalGrid theta_range": (lambda v: SphericalGrid(theta_range=(v, 3.0)), "real", 0.5),
    "SphericalGrid phi_range": (lambda v: SphericalGrid(phi_range=(0.0, v)), "real", 6.0),
}


@pytest.mark.parametrize("name", _SCALARS)
def test_real_and_complex_parameters_must_be_finite_numbers(name):
    call, kind, valid = _SCALARS[name]
    bad_values = [math.nan, math.inf, -math.inf, "a", None, 10**400]
    for bad in bad_values + ([1j, complex(valid, 1e-3)] if kind == "real" else []):
        with pytest.raises(InvalidParameter):
            call(bad)
    numpy_scalar = np.float64 if kind == "real" else np.complex128
    assert _bits(call(numpy_scalar(valid))) == _bits(call(valid))


# every real-array parameter goes through qcore._reals:
# (call taking the checked array and returning an array, the error it raises, a valid int list)
_ARRAYS = {
    "spherical_harmonic theta": (lambda t: spherical_harmonic(2, 1, t, 0.4), InvalidParameter,
                                 [0, 1, 3]),
    "spherical_harmonic phi": (lambda p: spherical_harmonic(2, 1, 0.7, p), InvalidParameter,
                               [0, 1, 6]),
    "reconstruct_linear_inversion freqs": (
        lambda f: reconstruct_linear_inversion(f, build_pauli_set(1)).data, InvalidDistribution,
        [1, 0, 1, 1, 0, 1]),
    "sample_cdf_discrete probs": (lambda p: sample_cdf_discrete(p, 100, rng=1),
                                  InvalidDistribution, [0, 1, 0]),
    "MeasurementSet.group_sums values": (lambda v: build_pauli_set(1).group_sums(v),
                                         InvalidParameter, [1, 2, 3, 4, 5, 6]),
    "error_propagation phis": (lambda p: error_propagation(p, [0, 3], [1, 10]),
                               InvalidParameter, [0, 1]),
    "error_propagation expectation": (lambda e: error_propagation([0, 1], e, [1, 10]),
                                      InvalidParameter, [0, 3]),
    "error_propagation second_moment": (lambda m: error_propagation([0, 1], [0, 3], m),
                                        InvalidParameter, [1, 10]),
    "MetrologyScenario phis": (lambda p: run_scenario(MetrologyScenario(
        probe=[1, 1], generator=pauli("z"), phis=p, observable=pauli("x"))).delta_phi,
        InvalidParameter, [0, 1, 2]),
}


@pytest.mark.parametrize("name", _ARRAYS)
def test_real_arrays_must_hold_finite_real_numbers(name):
    call, error, valid = _ARRAYS[name]
    bad_values = [[0.3, v] for v in (math.nan, math.inf, -math.inf, "a", None, 1j)]
    for bad in bad_values + [[0.3, [0.3, 0.4]], "0.3"]:      # and a ragged list, a bare string
        with pytest.raises(error, match="must be finite real numbers"):
            call(bad)
    want = call(np.array(valid, dtype=float))
    for same in (valid, [float(v) for v in valid]):
        got = call(same)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _grid_file(tmp_path, cell):
    path = tmp_path / "grid.csv"
    path.write_text(f"# kind=husimi coords=planar n1=1 n2=2\n0,0,0.5\n0,1,{cell}\n")
    return path


# shapes and non-finite values that reached arithmetic or a result before the rule:
# (call taking a scratch directory, the error it raises)
_ARRAY_EXTRAS = {
    "reconstruct_linear_inversion scalar": (
        lambda tmp: reconstruct_linear_inversion(0.5, build_pauli_set(1)), DimensionMismatch),
    "reconstruct_linear_inversion column": (
        lambda tmp: reconstruct_linear_inversion(np.full((6, 1), 0.5), build_pauli_set(1)),
        DimensionMismatch),
    "error_propagation nan moment": (
        lambda tmp: error_propagation([0, 1], [math.nan, 2], [1, 1]), InvalidParameter),
    "error_propagation inf second moment": (
        lambda tmp: error_propagation([0, 1], [0, 1], [1, math.inf]), InvalidParameter),
    "error_propagation 2-d phase grid": (
        lambda tmp: error_propagation([[0, 1], [2, 3]], [[0, 1], [2, 3]], [[1, 2], [5, 10]]),
        InvalidParameter),
    "MetrologyScenario 2-d phase grid": (lambda tmp: MetrologyScenario(
        probe=[1, 1], generator=pauli("z"), phis=[[0, 1], [2, 3]], observable=pauli("x")),
        InvalidParameter),
    "MeasurementSet.group_sums long": (lambda tmp: build_pauli_set(1).group_sums(range(8)),
                                       DimensionMismatch),
    "MeasurementSet.group_sums short": (lambda tmp: build_pauli_set(1).group_sums([0.3, 0.5]),
                                        DimensionMismatch),
    "error_propagation overflowing square": (
        lambda tmp: error_propagation([0, 1], [1e200, 2e200], [1, 1]), InvalidParameter),
    "error_propagation overflowing derivative": (
        lambda tmp: error_propagation([0, 1e-300], [0, 1e10], [1, 1e21]), InvalidParameter),
    "run_scenario overflowing observable": (lambda tmp: run_scenario(MetrologyScenario(
        probe=[1, 1], generator=pauli("z"), phis=[0, 1], observable=1e160 * pauli("x"))),
        InvalidParameter),
    "read_grid nan cell": (lambda tmp: read_grid(_grid_file(tmp, "nan")), InvalidParameter),
    "read_grid inf cell": (lambda tmp: read_grid(_grid_file(tmp, "-inf")), InvalidParameter),
}


@pytest.mark.parametrize("name", _ARRAY_EXTRAS)
def test_real_arrays_of_the_wrong_shape_or_non_finite_are_refused(name, tmp_path):
    call, error = _ARRAY_EXTRAS[name]
    with pytest.raises(error):
        call(tmp_path)


@pytest.mark.parametrize("data", [[1, None], [[np.nan, 0], [0, 1]], [[1, 0], [0, -np.inf]]])
def test_non_finite_matrices_rejected(data):
    for call in (QuantumObject, density_matrix, eigen,
                 lambda x: husimi_planar(x, PlanarGrid(nx=2, ny=2))):
        with pytest.raises(InvalidObject, match="must be finite"):
            call(data)
