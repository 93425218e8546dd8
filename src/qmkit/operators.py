"""Factory functions for the built-in operators: identity, spin, Pauli,
ladder, displacement and squeezing (hbar = 1 throughout)."""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter, InvalidQuantumNumber
from .qcore import QuantumObject, _complex, _dimension, _evolution, _fits

_AXES = ("x", "y", "z", "+", "-")


def identity(d: int) -> QuantumObject:
    """d-dimensional identity matrix."""
    d = _dimension(d, 2)
    return QuantumObject(np.eye(d, dtype=complex))


def _twice(x, name: str = "spin", signed: bool = False) -> int:
    """Validate a half-integer x, non-negative unless ``signed`` (a
    projection m may be negative, an angular momentum not); return 2x."""
    try:
        t = round(2 * x)
        if abs(2 * x - t) <= 1e-9 and (t >= 0 or signed):
            return int(t)
    except (TypeError, ValueError, OverflowError):     # a string, None, NaN or +-inf
        pass
    kind = "a half-integer" if signed else "a non-negative half-integer"
    raise InvalidQuantumNumber(f"{name} must be {kind}, got {x}")


def _twice_spin(j, power: int, name: str = "spin") -> int:
    """2j for a spin label j that passes :func:`_twice`, once (2j + 1)**power
    complex entries, an operator's power 2 or a ket's 1, pass :func:`_fits`."""
    two_j = _twice(j, name)
    _fits(two_j + 1, power, f"{name} {j}")
    return two_j


def spin(s, axis: str | None = None):
    """Spin-s operator(s) in the basis m = s, s-1, ..., -s.

    With ``axis`` in {'x','y','z','+','-'} returns that single matrix;
    without it returns the (Sx, Sy, Sz) triple.
    """
    two_s = _twice_spin(s, 2)
    if axis is None:
        return tuple(spin(s, a) for a in "xyz")
    if not (isinstance(axis, str) and axis in _AXES):
        raise InvalidParameter(f"axis must be one of {_AXES}, got {axis!r}")
    s = two_s / 2                      # the half-integer that _twice accepted
    ms = s - np.arange(two_s + 1)
    if axis == "z":
        return QuantumObject(np.diag(ms).astype(complex))
    sp = np.diag(np.sqrt(s * (s + 1) - ms[1:] * (ms[1:] + 1)), 1).astype(complex)
    if axis == "+":
        return QuantumObject(sp)
    sm = sp.conj().T
    if axis == "-":
        return QuantumObject(sm)
    return QuantumObject((sp + sm) / 2 if axis == "x" else (sp - sm) / 2j)


def pauli(axis: str) -> QuantumObject:
    """2x2 Pauli matrix for axis in {'x','y','z','+','-'}."""
    mats = {
        "x": [[0, 1], [1, 0]],
        "y": [[0, -1j], [1j, 0]],
        "z": [[1, 0], [0, -1]],
        "+": [[0, 1], [0, 0]],
        "-": [[0, 0], [1, 0]],
    }
    if not (isinstance(axis, str) and axis in mats):
        raise InvalidParameter(f"axis must be one of {_AXES}, got {axis!r}")
    return QuantumObject(np.array(mats[axis], dtype=complex))


def lowering(d: int) -> QuantumObject:
    """Truncated annihilation operator: a|n> = sqrt(n)|n-1>."""
    d = _dimension(d, 2, least=2)
    return QuantumObject(np.diag(np.sqrt(np.arange(1, d)), 1))


def raising(d: int) -> QuantumObject:
    """Truncated creation operator, the adjoint of :func:`lowering`."""
    return QuantumObject(lowering(d).data.conj().T)


def displacement(d: int, alpha: complex) -> QuantumObject:
    """Displacement operator exp(alpha a^dag - alpha* a) at cutoff d.

    The truncated generator G is anti-Hermitian, so exp(G) = exp(-i (iG)) is
    exactly unitary at any cutoff (accuracy vs. the infinite-dimensional
    operator still needs d well above |alpha|^2).
    """
    d, alpha = _dimension(d, 2), _complex(alpha, "alpha")
    if d == 1:
        return identity(1)
    a = lowering(d).data
    gen = alpha * a.conj().T - np.conj(alpha) * a
    return QuantumObject(_evolution(np.linalg.eigh(1j * gen)))


def squeezing(d: int, beta: complex) -> QuantumObject:
    """Squeezing operator exp((beta* a^2 - beta a^dag^2)/2) at cutoff d, one
    Fock parity at a time: the generator couples n to n +- 2 only."""
    d, beta = _dimension(d, 2, least=2), _complex(beta, "beta")
    a = lowering(d).data
    ad = a.conj().T
    gen = (np.conj(beta) * (a @ a) - beta * (ad @ ad)) / 2.0
    u = np.zeros((d, d), dtype=complex)
    for block in (np.s_[0::2], np.s_[1::2]):
        u[block, block] = _evolution(np.linalg.eigh(1j * gen[block, block]))
    return QuantumObject(u)
