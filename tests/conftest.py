import math
from fractions import Fraction

import numpy as np
import pytest

from qmkit import QuantumObject


def random_complex_matrix(rng, d: int) -> np.ndarray:
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def random_hermitian(rng, d: int) -> np.ndarray:
    m = random_complex_matrix(rng, d)
    return (m + m.conj().T) / 2


def random_psd(rng, d: int) -> np.ndarray:
    m = random_complex_matrix(rng, d)
    return m @ m.conj().T


def random_density(rng, d: int, rank: int | None = None) -> QuantumObject:
    """Random mixed state: normalized Wishart of the given rank."""
    r = rank or d
    g = rng.normal(size=(d, r)) + 1j * rng.normal(size=(d, r))
    rho = g @ g.conj().T
    return QuantumObject(rho / np.trace(rho))


def random_ket(rng, d: int) -> QuantumObject:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return QuantumObject((v / np.linalg.norm(v)).reshape(-1, 1))


def racah_clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """<j1 m1; j2 m2 | J M> by the Racah formula, summed exactly in Fractions
    (Condon-Shortley phase).  Integer or half-integer arguments; every
    factorial argument is then an integer."""
    if m1 + m2 != M or not abs(j1 - j2) <= J <= j1 + j2:
        return 0.0

    def f(a):
        assert a == int(a), a
        return math.factorial(int(a))

    total = Fraction(0)
    for k in range(int(j1 + j2 - J) + 1):
        args = (k, j1 + j2 - J - k, j1 - m1 - k, j2 + m2 - k,
                J - j2 + m1 + k, J - j1 - m2 + k)
        if min(args) >= 0:
            total += Fraction((-1) ** k, math.prod(f(a) for a in args))
    norm = Fraction(int(2 * J + 1) * f(J + j1 - j2) * f(J - j1 + j2)
                    * f(j1 + j2 - J), f(j1 + j2 + J + 1))
    norm *= (f(J + M) * f(J - M) * f(j1 - m1) * f(j1 + m1)
             * f(j2 - m2) * f(j2 + m2))
    return math.copysign(math.sqrt(total * total * norm), total)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
