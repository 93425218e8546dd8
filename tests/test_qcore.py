import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_complex_matrix, random_hermitian, random_psd
from qmkit import (
    Kind,
    PlanarGrid,
    QuantumObject,
    add_random_noise,
    adjoint,
    build_pauli_set,
    classify,
    conjugate,
    density_matrix,
    diagonalize,
    dot,
    eigen,
    encode_phase,
    fidelity,
    ground,
    husimi_planar,
    l2norm,
    mat_exp,
    mat_sqrt,
    normalize,
    partial_trace,
    probabilities,
    sample_mc,
    tensor,
    to_operator,
    trace,
    trace_distance_pure,
    transpose,
    w,
)
from qmkit.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidObject,
    InvalidParameter,
    NotHermitian,
    NotPositive,
    NotQubitSystem,
    UnsupportedDimension,
    ZeroNorm,
)
from qmkit import qcore
from qmkit.operators import identity, pauli
from qmkit.states import basis, dual_basis, ghz


def test_classify_ket():
    kind, shape = classify(np.array([[1.0], [0.0]]))
    assert kind is Kind.KET and str(kind) == "ket"
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
    assert not QuantumObject(np.ones((2, 3))).is_hermitian()


def test_conjugate():
    np.testing.assert_allclose(conjugate([[1 + 1j]]).data, [[1 - 1j]])


def test_trace_examples():
    assert trace(identity(3)) == pytest.approx(3)
    assert trace(pauli("x")) == pytest.approx(0)
    assert trace(to_operator(basis(2, 0))) == pytest.approx(1)


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


def test_mat_exp_zero():
    np.testing.assert_allclose(mat_exp(np.zeros((3, 3))).data, np.eye(3), atol=1e-14)


def test_mat_exp_diagonal_rotation():
    out = mat_exp(-1j * (np.pi / 2) * pauli("z").data)
    np.testing.assert_allclose(out.data, np.diag([-1j, 1j]), atol=1e-12)


def test_mat_sqrt_diagonal():
    np.testing.assert_allclose(mat_sqrt(np.diag([4.0, 9.0])).data,
                               np.diag([2.0, 3.0]), atol=1e-12)


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


def test_narrow_numpy_scalars_are_range_checked_in_float64():
    # the float range is compared in float64, never cast to a narrow type
    # (which overflows, and warns, at 1.8e308)
    assert qcore._real(np.float16(0.5), "x") == 0.5
    assert qcore._real(np.float32(0.25), "p", 0.0, 1.0) == 0.25
    assert qcore._complex(np.complex64(1 + 2j), "z") == 1 + 2j
    assert 0.0 <= sample_mc(np.float32(0.25), 100, 3) <= 1.0
    for bad in (np.float16("nan"), np.float32("inf"), np.float32("-inf"), 10**400):
        with pytest.raises(InvalidParameter):
            qcore._real(bad, "x")
    for bad in (np.complex64(complex("nan+1j")), np.complex64(complex("1+infj")), 10**400):
        with pytest.raises(InvalidParameter):
            qcore._complex(bad, "z")


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


def test_a_projector_of_a_ket_is_a_state_without_a_decomposition(monkeypatch):
    solver, calls = np.linalg.eigh, []

    def counted(*args, **kwargs):
        calls.append(args)
        return solver(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigh", counted)
    p = to_operator(normalize([1.0, 1.0]))
    assert density_matrix(p) is p.data and density_matrix(QuantumObject(p)) is p.data
    assert calls == []
    # the same matrix from outside, or one built from it by arithmetic, is decomposed
    np.testing.assert_array_equal(density_matrix(p.data), p.data)
    with pytest.raises(InvalidObject, match="unit trace"):
        density_matrix(p + p)
    with pytest.raises(NotPositive):
        density_matrix(p.data + np.diag([0.1, -0.1]))
    assert len(calls) == 3


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
    np.testing.assert_array_equal((pauli("x") @ psi).data, dot(pauli("x"), psi).data)


def test_dot_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        dot(identity(2), identity(3))
    with pytest.raises(DimensionMismatch):
        identity(2) + identity(3)


@pytest.mark.parametrize("product", [dot, tensor])
def test_products_need_two_factors(product):
    with pytest.raises(InvalidObject, match="at least two factors"):
        product(identity(2))


def test_tensor_shapes_and_values():
    h = tensor(pauli("z"), pauli("x"), pauli("x"))
    assert h.shape == (8, 8)
    np.testing.assert_allclose(tensor(identity(2), identity(2)).data, np.eye(4))
    np.testing.assert_allclose(tensor(basis(2, 0), basis(2, 0)).data.reshape(-1),
                               [1, 0, 0, 0])


def test_a_tensor_product_is_bounded_by_the_size_rule(monkeypatch):
    # identity(1024) is refused, so the same matrix as a product of two factors is too
    monkeypatch.setattr(qcore, "MAX_STACK_BYTES", 2**20)
    with pytest.raises(UnsupportedDimension, match="dimension 1024 needs 1024"):
        identity(1024)
    with pytest.raises(UnsupportedDimension, match=r"\(32, 32\) x \(32, 32\) tensor product "
                                                   "needs 1048576 complex entries"):
        tensor(identity(32), identity(32))


def test_a_tensor_product_past_the_size_rule_is_refused_before_it_is_built():
    # 128**2 x 128**2 entries of 16 bytes are 4 GiB, and a third factor would make it 2**46 bytes
    factors = [identity(128)] * 3
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedDimension, match=r"\(128, 128\) x \(128, 128\) tensor"):
            tensor(*factors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**21


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
