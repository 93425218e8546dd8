"""State factories: computational/Zeeman bases, oscillator states, spin
coherent states, entangled qubit families, and the two noise channels."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import (
    IndexOutOfRange,
    InvalidParameter,
    InvalidQuantumNumber,
)
from .operators import _twice, _twice_spin, displacement, lowering, squeezing
from .qcore import (Kind, QuantumObject, _complex, _count, _dimension, _fix_phase,
                    _kind, _qubit_count, _real, _rng, density_matrix, dot, normalize)


def basis(d: int, k: int) -> QuantumObject:
    """Computational basis ket |k> in d dimensions."""
    d = _dimension(d)
    if not (0 <= _count(k, "index", least=None) < d):
        raise IndexOutOfRange(f"index {k} outside 0..{d - 1}")
    v = np.zeros((d, 1), dtype=complex)
    v[k, 0] = 1.0
    return QuantumObject(v)


def dual_basis(d: int, k: int) -> QuantumObject:
    """Dual (bra) of :func:`basis`."""
    return QuantumObject(basis(d, k).data.conj().T)


def zeeman(j, m) -> QuantumObject:
    """Zeeman / Dicke basis ket |j, m>, dimension 2j+1, ordered m = j..-j."""
    two_j, two_m = _twice_spin(j, 1), _twice(m, "m", signed=True)
    if (two_j - two_m) % 2 != 0 or abs(two_m) > two_j:
        raise InvalidQuantumNumber(f"m={m} invalid for j={j}")
    return basis(two_j + 1, (two_j - two_m) // 2)


def coherent(d: int, alpha: complex) -> QuantumObject:
    """Coherent state truncated at d Fock levels and renormalized: amplitudes
    alpha^n / sqrt(n!), n < d, in log space so none underflows at large |alpha|."""
    d, alpha = _dimension(d), _complex(alpha, "alpha")
    if alpha == 0:
        return basis(d, 0)
    n = np.arange(d)
    log_mag = n * math.log(abs(alpha)) - 0.5 * np.array([math.lgamma(k + 1) for k in n])
    return normalize(QuantumObject(np.exp(log_mag - log_mag.max() + 1j * n * np.angle(alpha))))


def squeezed(d: int, alpha: complex, beta: complex) -> QuantumObject:
    """Displaced squeezed vacuum D(alpha) S(beta) |0>, renormalized."""
    d, alpha, beta = _dimension(d, 2), _complex(alpha, "alpha"), _complex(beta, "beta")
    if d == 1:
        return basis(1, 0)
    vac = basis(d, 0)
    st = dot(displacement(d, alpha), squeezing(d, beta), vac)
    return normalize(st)


def position_state(d: int, x: float) -> QuantumObject:
    """Eigenstate of the truncated quadrature (a + a^dag)/sqrt(2) nearest to x."""
    a = lowering(d).data
    xop = (a + a.conj().T) / math.sqrt(2)
    vals, vecs = np.linalg.eigh(xop)
    i = int(np.argmin(np.abs(vals - _real(x, "x"))))
    return QuantumObject(_fix_phase(vecs[:, i]).reshape(-1, 1))


def _spin_coherent_magnitudes(two_j: int, thetas: np.ndarray) -> np.ndarray:
    """Rows c_i(theta) = sqrt(C(2j, i)) cos^(2j-i)(theta/2) sin^i(theta/2),
    i = j - m, one per theta: in log space, so nothing overflows at large j
    (with 0 log 0 = 0 at the poles), then signed by cos and sin."""
    i = np.arange(two_j + 1)
    c, s = np.cos(thetas / 2)[:, None], np.sin(thetas / 2)[:, None]
    k = np.arange(1, two_j + 1)      # log C(2j, i) = sum_{k <= i} log((2j - k + 1) / k)
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((two_j - k + 1) / k))))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_c = np.where(two_j - i == 0, 0.0, (two_j - i) * np.log(np.abs(c)))
        log_s = np.where(i == 0, 0.0, i * np.log(np.abs(s)))
    mags = np.exp(0.5 * log_binom + log_c + log_s)
    return mags * np.sign(c) ** (two_j - i) * np.sign(s) ** i


def spin_coherent(j, theta: float, phi: float) -> QuantumObject:
    """Spin-j coherent state pointing along (theta, phi).

    Amplitude on |j, m> is
    sqrt(C(2j, j-m)) cos^(j+m)(theta/2) sin^(j-m)(theta/2) e^{-i(j-m) phi}.
    """
    two_j, theta, phi = _twice_spin(j, 1), _real(theta, "theta"), _real(phi, "phi")
    mags = _spin_coherent_magnitudes(two_j, np.array([theta]))
    return QuantumObject((mags * np.exp(-1j * np.arange(two_j + 1) * phi)).T)


def random_haar(d: int, rng=None) -> QuantumObject:
    """Haar-random ket: normalized vector of i.i.d. standard complex Gaussians."""
    d = _dimension(d)
    g = _rng(rng)
    v = g.normal(size=d) + 1j * g.normal(size=d)
    return normalize(QuantumObject(v.reshape(-1, 1)))


def _uniform(n: int, indices) -> QuantumObject:
    """Equal superposition of the n-qubit basis kets at ``indices``, an iterable of
    ints read into one integer array (no list of them is held)."""
    idx = np.fromiter(indices, dtype=np.int64)
    v = np.zeros((2**n, 1), dtype=complex)
    v[idx, 0] = 1 / math.sqrt(idx.size)
    return QuantumObject(v)


def ghz(n: int) -> QuantumObject:
    """GHZ state (|0...0> + |1...1>)/sqrt(2) on n qubits."""
    n = _qubit_count(n, 2, "state")
    return _uniform(n, [0, 2**n - 1])


def w(n: int) -> QuantumObject:
    """W state: equal superposition of the n one-hot bitstrings."""
    n = _qubit_count(n, 2, "state")
    return _uniform(n, [1 << i for i in range(n)])


def dicke(n: int, k: int) -> QuantumObject:
    """Dicke state: equal superposition of all weight-k bitstrings on n qubits."""
    n = _qubit_count(n, 2, "state")
    if not (0 <= _count(k, "excitation count", least=None) <= n):
        raise InvalidQuantumNumber(f"excitation count {k} outside 0..{n}")
    return _uniform(n, (sum(1 << b for b in c) for c in itertools.combinations(range(n), k)))


def add_random_noise(psi: QuantumObject, mean: float = 0.0, stdev: float = 0.0,
                     rng=None) -> QuantumObject:
    """Perturb each amplitude by a complex Gaussian delta = a + ib, renormalize.

    a and b are independent Normal(mean, stdev) draws; the perturbed vector
    is rescaled to unit norm.
    """
    q = QuantumObject(psi)
    if _kind(q) is not Kind.KET:
        raise InvalidParameter("random amplitude noise is defined for kets")
    mean, stdev = _real(mean, "noise mean"), _real(stdev, "noise stdev", 0.0)
    g = _rng(rng)
    d = q.dim
    delta = g.normal(mean, stdev, size=d) + 1j * g.normal(mean, stdev, size=d)
    return normalize(QuantumObject(q.data.reshape(-1) + delta))


def add_white_noise(state: QuantumObject, p: float = 0.0) -> QuantumObject:
    """Mix a state with the maximally mixed one: (1-p) rho + p I/d.

    Kets are first promoted to density matrices, so the input may be pure
    or mixed.
    """
    p = _real(p, "white-noise weight", 0.0, 1.0)
    rho = density_matrix(state)
    d = rho.shape[0]
    return QuantumObject((1 - p) * rho + p * np.eye(d) / d)
