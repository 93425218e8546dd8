"""Dense complex linear algebra on classified quantum objects.

A :class:`QuantumObject` wraps an immutable complex matrix together with a
shape-derived kind (bra / ket / oper).  Everything else in the package is
built from the pure functions defined here.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidObject,
    NotDiagonalizable,
    NotHermitian,
    NotPositive,
    NotQubitSystem,
    ZeroNorm,
)

HERMITIAN_TOL = 1e-10
NORM_TOL = 1e-10

ArrayLike = Union[np.ndarray, Sequence, "QuantumObject"]


class Kind(enum.Enum):
    """Shape-derived classification of a quantum object."""

    BRA = "bra"
    KET = "ket"
    OPER = "oper"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class QuantumObject:
    """Immutable dense complex matrix with a shape-derived kind.

    A column (n x 1, n > 1) is a ket, a row (1 x n, n > 1) a bra, anything
    else (including 1 x 1 scalars) an oper.  One-dimensional input is read
    as a column vector.  The wrapped array is copied and frozen, so a
    QuantumObject can be shared freely between threads.
    """

    __slots__ = ("_data",)

    def __init__(self, data: ArrayLike):
        if isinstance(data, QuantumObject):
            self._data = data._data
            return
        arr = np.asarray(data, dtype=complex)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidObject(
                f"expected a non-empty matrix, got array of shape {arr.shape}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        self._data = arr

    @classmethod
    def _view(cls, arr: np.ndarray) -> "QuantumObject":
        """Wrap an already frozen 2-D complex array without copying it."""
        q = cls.__new__(cls)
        q._data = arr
        return q

    @property
    def data(self) -> np.ndarray:
        """Read-only view of the underlying matrix."""
        return self._data

    @property
    def shape(self) -> tuple[int, int]:
        return self._data.shape

    @property
    def kind(self) -> Kind:
        r, c = self._data.shape
        if c == 1 and r > 1:
            return Kind.KET
        if r == 1 and c > 1:
            return Kind.BRA
        return Kind.OPER

    @property
    def dim(self) -> int:
        """Hilbert-space dimension (rows for kets/opers, columns for bras)."""
        r, c = self._data.shape
        return c if self.kind is Kind.BRA else r

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        if self._data.shape[0] != self._data.shape[1]:
            return False
        return np.max(np.abs(self._data - self._data.conj().T)) <= tol

    def is_normalized(self, tol: float = NORM_TOL) -> bool:
        if self.kind is Kind.OPER:
            return abs(np.trace(self._data) - 1.0) <= tol
        return abs(np.linalg.norm(self._data) - 1.0) <= tol

    def item(self) -> complex:
        """Scalar value of a 1 x 1 object."""
        if self._data.size != 1:
            raise InvalidObject(f"item() on shape {self.shape} object")
        return complex(self._data[0, 0])

    # -- arithmetic (returns new objects; kind is re-derived from shape) --

    def __add__(self, other: "QuantumObject") -> "QuantumObject":
        other = QuantumObject(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"add: {self.shape} vs {other.shape}")
        return QuantumObject(self._data + other._data)

    def __sub__(self, other: "QuantumObject") -> "QuantumObject":
        other = QuantumObject(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"sub: {self.shape} vs {other.shape}")
        return QuantumObject(self._data - other._data)

    def __neg__(self) -> "QuantumObject":
        return QuantumObject(-self._data)

    def __mul__(self, scalar) -> "QuantumObject":
        return QuantumObject(self._data * complex(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "QuantumObject":
        return QuantumObject(self._data / complex(scalar))

    def __matmul__(self, other: "QuantumObject"):
        return dot(self, other)

    def __repr__(self) -> str:
        return f"QuantumObject(kind={self.kind.value}, shape={self.shape})"


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending by real part, ties by imaginary part) and kets."""

    values: np.ndarray
    vectors: tuple[QuantumObject, ...]


def classify(x: ArrayLike) -> tuple[Kind, tuple[int, int]]:
    """Return the kind tag and (rows, cols) of ``x``."""
    q = QuantumObject(x)
    return q.kind, q.shape


def conjugate(x: ArrayLike) -> QuantumObject:
    """Elementwise complex conjugate."""
    return QuantumObject(QuantumObject(x).data.conj())


def transpose(x: ArrayLike) -> QuantumObject:
    """Matrix transpose (kets flip to bras and vice versa)."""
    return QuantumObject(QuantumObject(x).data.T)


def adjoint(x: ArrayLike) -> QuantumObject:
    """Conjugate transpose."""
    return QuantumObject(QuantumObject(x).data.conj().T)


def trace(x: ArrayLike) -> complex:
    """Trace of a square operator."""
    q = QuantumObject(x)
    r, c = q.shape
    if q.kind is not Kind.OPER or r != c:
        raise InvalidObject(f"trace needs a square oper, got {q.kind.value} {q.shape}")
    return complex(np.trace(q.data))


def l2norm(x: ArrayLike) -> float:
    """Euclidean norm for vectors, Frobenius norm for operators."""
    return float(np.linalg.norm(QuantumObject(x).data))


def normalize(x: ArrayLike) -> QuantumObject:
    """Scale kets/bras to unit norm, opers to unit trace."""
    q = QuantumObject(x)
    if q.kind is Kind.OPER:
        t = np.trace(q.data)
        if abs(t) < 1e-14:
            raise ZeroNorm("operator has (near) zero trace")
        return QuantumObject(q.data / t)
    n = np.linalg.norm(q.data)
    if n < 1e-14:
        raise ZeroNorm("vector has (near) zero norm")
    return QuantumObject(q.data / n)


def to_operator(x: ArrayLike) -> QuantumObject:
    """Outer product |psi><psi| of a (normalized) bra or ket; opers pass through."""
    q = QuantumObject(x)
    if q.kind is Kind.OPER:
        return q
    v = q.data.reshape(-1)
    v = v / np.linalg.norm(v)
    if q.kind is Kind.BRA:
        v = v.conj()
    return QuantumObject(np.outer(v, v.conj()))


def density_matrix(x: ArrayLike) -> np.ndarray:
    """Plain ndarray density matrix of a ket, bra, or oper input."""
    return to_operator(x).data


def _require_state(x: ArrayLike) -> QuantumObject:
    """Density matrix of ``x``; raises unless Hermitian, unit-trace and PSD."""
    q = to_operator(x)
    if not q.is_hermitian():
        raise NotHermitian("a state must be a Hermitian operator")
    if abs((tr := np.trace(q.data).real) - 1.0) > 1e-8:
        raise InvalidObject(f"a state must have unit trace, got {tr:.6g}")
    if (low := np.linalg.eigvalsh(q.data)[0]) < -1e-10:
        raise NotPositive(f"state has eigenvalue {low:.3e} < -1e-10")
    return q


def _write_lines(lines: Sequence[str], path=None) -> None:
    """Write ``lines``, each ended by a bare newline, to a UTF-8 file or to
    stdout when ``path`` is None."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _csv_row(values: Iterable) -> str:
    """One CSV line: floats at 17 significant digits, None as an empty cell."""
    return ",".join("" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)
                    for v in values)


def dot(*factors: ArrayLike):
    """Matrix product of two or more objects, left to right.

    The result is reclassified from its shape; a chain collapsing to a
    1 x 1 matrix is returned as a plain complex scalar.
    """
    if len(factors) < 2:
        raise InvalidObject("dot expects at least two factors")
    mats = [QuantumObject(f).data for f in factors]
    acc = mats[0]
    for m in mats[1:]:
        if acc.shape[1] != m.shape[0]:
            raise DimensionMismatch(
                f"dot: inner dimensions {acc.shape} x {m.shape} do not match"
            )
        acc = acc @ m
    if acc.shape == (1, 1):
        return complex(acc[0, 0])
    return QuantumObject(acc)


def tensor(*factors: ArrayLike) -> QuantumObject:
    """Kronecker product of two or more objects, left to right."""
    if len(factors) < 2:
        raise InvalidObject("tensor expects at least two factors")
    acc = QuantumObject(factors[0]).data
    for f in factors[1:]:
        acc = np.kron(acc, QuantumObject(f).data)
    return QuantumObject(acc)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is real positive."""
    i = int(np.argmax(np.abs(v)))
    ph = v[i]
    if abs(ph) == 0.0:
        return v
    return v * (abs(ph) / ph)


def eigen(x: ArrayLike) -> EigenDecomposition:
    """Eigenvalues and eigenkets, ordered descending by real part.

    Hermitian input goes through the symmetric solver and yields real
    eigenvalues and an orthonormal eigenbasis.  Every eigenvector's global
    phase is fixed (largest component real positive) for reproducibility.
    """
    q = QuantumObject(x)
    r, c = q.shape
    if r != c:
        raise InvalidObject(f"eigen needs a square matrix, got {q.shape}")
    if q.is_hermitian():
        vals, vecs = np.linalg.eigh(q.data)
        vals = vals.astype(float)
    else:
        vals, vecs = np.linalg.eig(q.data)
    order = np.lexsort((-np.imag(vals), -np.real(vals)))
    vals = vals[order]
    vecs = vecs[:, order]
    kets = tuple(QuantumObject(_fix_phase(vecs[:, i]).reshape(-1, 1)) for i in range(r))
    return EigenDecomposition(values=vals, vectors=kets)


def ground(x: ArrayLike) -> QuantumObject:
    """Eigenvector of the minimal eigenvalue of a Hermitian matrix."""
    q = QuantumObject(x)
    if not q.is_hermitian():
        raise NotHermitian("ground state requires a Hermitian Hamiltonian")
    vals, vecs = np.linalg.eigh(q.data)
    # eigh sorts ascending, so column 0 is the ground space (first on ties)
    return QuantumObject(_fix_phase(vecs[:, 0]).reshape(-1, 1))


def mat_exp(x: ArrayLike) -> QuantumObject:
    """Matrix exponential (scaling-and-squaring)."""
    import scipy.linalg  # on first use, so that ``import qmkit`` does not load SciPy
    q = QuantumObject(x)
    if q.shape[0] != q.shape[1]:
        raise InvalidObject(f"mat_exp needs a square matrix, got {q.shape}")
    return QuantumObject(scipy.linalg.expm(q.data))


def mat_sqrt(x: ArrayLike) -> QuantumObject:
    """Principal square root of a PSD Hermitian matrix (spectral method).

    Eigenvalues in [-1e-10, 0) are clipped to zero; anything more negative
    raises :class:`NotPositive`.
    """
    q = QuantumObject(x)
    if not q.is_hermitian():
        raise NotHermitian("mat_sqrt requires a Hermitian matrix")
    vals, vecs = np.linalg.eigh(q.data)
    if np.min(vals) < -1e-10:
        raise NotPositive(f"matrix has eigenvalue {np.min(vals):.3e} < -1e-10")
    vals = np.clip(vals, 0.0, None)
    return QuantumObject((vecs * np.sqrt(vals)) @ vecs.conj().T)


def diagonalize(x: ArrayLike) -> QuantumObject:
    """Diagonal matrix of eigenvalues, descending by real part (ties by imag).

    Raises :class:`NotDiagonalizable` when the eigenvector matrix is
    (numerically) singular, i.e. the input is defective.
    """
    q = QuantumObject(x)
    r, c = q.shape
    if r != c:
        raise InvalidObject(f"diagonalize needs a square matrix, got {q.shape}")
    if q.is_hermitian():
        return QuantumObject(np.diag(eigen(q).values.astype(complex)))
    vals, vecs = np.linalg.eig(q.data)
    sv = np.linalg.svd(vecs, compute_uv=False)
    if sv[-1] < 1e-12 * sv[0]:
        raise NotDiagonalizable("eigenvector matrix is numerically singular")
    order = np.lexsort((-np.imag(vals), -np.real(vals)))
    return QuantumObject(np.diag(vals[order]))


def partial_trace(x: ArrayLike, traced: Iterable[int]) -> QuantumObject:
    """Trace out the listed qubits (1-based indices) of a 2^n x 2^n operator.

    Remaining qubits keep their original (ascending) order.  Only qubit
    systems are supported.
    """
    q = QuantumObject(x)
    r, c = q.shape
    if r != c:
        raise InvalidObject(f"partial_trace needs a square oper, got {q.shape}")
    n = r.bit_length() - 1
    if 2**n != r:
        raise NotQubitSystem(f"dimension {r} is not a power of two")
    traced = list(traced)
    if len(set(traced)) != len(traced):
        raise IndexOutOfRange(f"repeated subsystem index in {traced}")
    for t in traced:
        if not (1 <= t <= n):
            raise IndexOutOfRange(f"subsystem index {t} outside 1..{n}")
    keep = [s for s in range(1, n + 1) if s not in set(traced)]
    traced = sorted(traced)

    arr = q.data.reshape([2] * (2 * n))
    row_axes = [s - 1 for s in keep] + [s - 1 for s in traced]
    perm = row_axes + [n + a for a in row_axes]
    arr = arr.transpose(perm)
    dk, dt = 2 ** len(keep), 2 ** len(traced)
    arr = arr.reshape(dk, dt, dk, dt)
    return QuantumObject(np.trace(arr, axis1=1, axis2=3))
