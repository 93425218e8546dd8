import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from qmkit import (
    coherent,
    displacement,
    dot,
    identity,
    lowering,
    pauli,
    raising,
    spin,
    squeezing,
)
from qmkit.errors import InvalidParameter, InvalidQuantumNumber
from qmkit.states import basis


def test_identity():
    m = np.arange(4).reshape(2, 2).astype(complex)
    np.testing.assert_allclose(dot(identity(2), m).data, m)
    assert np.trace(identity(5).data) == pytest.approx(5)
    assert identity(3).is_hermitian()


def test_spin_half_z():
    np.testing.assert_allclose(spin(0.5, "z").data, np.diag([0.5, -0.5]))


def test_spin_one_z():
    np.testing.assert_allclose(spin(1, "z").data, np.diag([1.0, 0.0, -1.0]))
    # a label within the half-integer tolerance gives that half-integer's matrices
    for s, near in ((1, 1 + 1e-10), (1, 1 - 1e-10), (1.5, 1.5 + 1e-10)):
        for axis in "xyz+-":
            np.testing.assert_array_equal(spin(near, axis).data, spin(s, axis).data)


def test_spin_commutator_s10():
    sx, sy, sz = spin(10)
    comm = sx.data @ sy.data - sy.data @ sx.data
    np.testing.assert_allclose(comm, 1j * sz.data, atol=1e-10)


def test_spin_casimir():
    for s in (0.5, 1, 1.5, 5, 10):
        sx, sy, sz = spin(s)
        total = sx.data @ sx.data + sy.data @ sy.data + sz.data @ sz.data
        np.testing.assert_allclose(total, s * (s + 1) * np.eye(int(2 * s) + 1),
                                   atol=1e-8)


def test_spin_ladder_adjoint():
    np.testing.assert_array_equal(spin(3, "+").data, spin(3, "-").data.conj().T)


def _all_spin_operators(two_s: int) -> dict:
    """Every spin operator built the way ``spin`` once built them all on each call."""
    s = two_s / 2
    ms = s - np.arange(two_s + 1)
    sp = np.diag(np.sqrt(s * (s + 1) - ms[1:] * (ms[1:] + 1)), 1).astype(complex)
    sm = sp.conj().T
    return {"x": (sp + sm) / 2, "y": (sp - sm) / 2j, "z": np.diag(ms).astype(complex),
            "+": sp, "-": sm}


def test_spin_builds_each_axis_as_the_full_set_did():
    for two_s in range(61):
        ops = _all_spin_operators(two_s)
        for axis, want in ops.items():
            got = spin(two_s / 2, axis).data
            assert got.tobytes() == want.tobytes() and got.shape == want.shape, (two_s, axis)
        assert [m.data.tobytes() for m in spin(two_s / 2)] == [ops[a].tobytes() for a in "xyz"]


def test_spin_builds_only_the_operator_it_returns():
    # the full set of five (2j+1)^2 matrices peaked at 6x the result
    for axis in "xyz+-":
        spin(200, axis)
        tracemalloc.start()
        try:
            out = spin(200, axis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * out.data.nbytes, axis
    with pytest.raises(InvalidQuantumNumber):        # the label is read before the axis
        spin(0.3, "q")


def test_spin_rejects_bad_inputs():
    for s in (0.3, -1, float("nan"), float("inf"), -float("inf"), "a", None):
        with pytest.raises(InvalidQuantumNumber):
            spin(s, "z")
    with pytest.raises(InvalidParameter):
        spin(1, "q")


@pytest.mark.parametrize("axis", ["q", "", [], ["x"], {}, 1, b"x", np.array(["x", "y"])])
def test_an_axis_that_is_not_one_of_the_five_names_is_refused(axis):
    # unhashable and array-valued axes too, without a TypeError from a lookup
    for make in (pauli, lambda a: spin(1, a)):
        with pytest.raises(InvalidParameter, match="axis must be one of"):
            make(axis)


def test_pauli_basics():
    np.testing.assert_allclose(pauli("z").data, np.diag([1.0, -1.0]))
    np.testing.assert_allclose(pauli("x").data @ pauli("x").data, np.eye(2))
    np.testing.assert_allclose(dot(pauli("+"), basis(2, 1)).data.reshape(-1), [1, 0])


def test_pauli_algebra():
    # sigma_a sigma_b = delta_ab I + i eps_abc sigma_c, all nine products
    sigmas = {"x": pauli("x").data, "y": pauli("y").data, "z": pauli("z").data}
    eps = {("x", "y"): ("z", 1), ("y", "x"): ("z", -1),
           ("y", "z"): ("x", 1), ("z", "y"): ("x", -1),
           ("z", "x"): ("y", 1), ("x", "z"): ("y", -1)}
    for a, b in itertools.product("xyz", repeat=2):
        prod = sigmas[a] @ sigmas[b]
        if a == b:
            expected = np.eye(2, dtype=complex)
        else:
            c, sign = eps[(a, b)]
            expected = 1j * sign * sigmas[c]
        np.testing.assert_array_equal(prod, expected)


def test_lowering_action():
    out = dot(lowering(3), basis(3, 2))
    np.testing.assert_allclose(out.data.reshape(-1), [0, np.sqrt(2), 0])


def test_raising_is_adjoint():
    for d in (2, 5, 9):
        np.testing.assert_array_equal(raising(d).data, lowering(d).data.conj().T)


def test_ladder_commutator_truncation_corner():
    d = 6
    a = lowering(d).data
    comm = a @ a.conj().T - a.conj().T @ a
    expected = np.eye(d)
    expected[-1, -1] = 1 - d  # truncation artifact in the last level
    np.testing.assert_allclose(comm, expected, atol=1e-12)


def test_displacement_at_one_level_is_the_identity():
    # the truncated ladder needs two levels; at one the generator is zero
    for alpha in (0, 1.5 - 2j):
        np.testing.assert_array_equal(displacement(1, alpha).data, [[1.0]])


def test_displacement_identity_at_zero():
    np.testing.assert_allclose(displacement(8, 0).data, np.eye(8), atol=1e-14)


def test_displacement_generates_coherent():
    d, alpha = 40, 0.8 + 0.3j
    displaced_vac = dot(displacement(d, alpha), basis(d, 0))
    np.testing.assert_allclose(displaced_vac.data, coherent(d, alpha).data,
                               atol=1e-6)


def test_displacement_unitary():
    d, alpha = 30, 1.2 - 0.4j  # d >= 4|alpha|^2 + 20
    u = displacement(d, alpha).data
    np.testing.assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-8)


@pytest.mark.parametrize("d", [2, 30, 60])
def test_displacement_and_squeezing_match_expm(d):
    alpha, beta = 0.9 - 0.6j, 0.4 * np.exp(0.7j)
    a = lowering(d).data
    ad = a.conj().T
    np.testing.assert_allclose(displacement(d, alpha).data,
                               scipy.linalg.expm(alpha * ad - np.conj(alpha) * a),
                               rtol=0, atol=1e-13)
    np.testing.assert_allclose(squeezing(d, beta).data,
                               scipy.linalg.expm((np.conj(beta) * a @ a - beta * ad @ ad) / 2),
                               rtol=0, atol=1e-13)


def test_squeezing_identity_at_zero():
    np.testing.assert_allclose(squeezing(6, 0).data, np.eye(6), atol=1e-14)


def test_squeezing_unitary():
    d, beta = 60, 0.4 + 0.2j
    s = squeezing(d, beta).data
    np.testing.assert_allclose(s.conj().T @ s, np.eye(d), atol=1e-6)


def test_squeezed_vacuum_has_even_parity():
    d, beta = 30, 0.5
    vac = basis(d, 0)
    sv = dot(squeezing(d, beta), vac).data.reshape(-1)
    np.testing.assert_array_equal(sv[1::2], np.zeros(d // 2))
