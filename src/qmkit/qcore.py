"""Dense complex linear algebra on classified quantum objects.

A :class:`QuantumObject` wraps an immutable complex matrix together with a
shape-derived kind (bra / ket / oper).  Everything else in the package is
built from the pure functions defined here.
"""

from __future__ import annotations

import cmath
import contextlib
import enum
import math
import numbers
import operator
import reprlib
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidObject,
    InvalidParameter,
    NotDiagonalizable,
    NotHermitian,
    NotPositive,
    NotQubitSystem,
    UnsupportedDimension,
    ZeroNorm,
)

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10            # how far below zero an eigenvalue of a PSD matrix may round
MAX_STACK_BYTES = 2**30    # largest array a size may ask for: Pauli n <= 5, kets n <= 26

ArrayLike = Union[np.ndarray, Sequence, "QuantumObject"]


class Kind(enum.Enum):
    """Shape-derived classification of a quantum object."""

    BRA = "bra"
    KET = "ket"
    OPER = "oper"

    def __str__(self) -> str:
        return self.value


class QuantumObject:
    """Immutable dense complex matrix with a shape-derived kind.

    A column (n x 1, n > 1) is a ket, a row (1 x n, n > 1) a bra, anything
    else (including 1 x 1 scalars) an oper.  One-dimensional input is read
    as a column vector, and the object records that it was (see :func:`_kind`).
    The wrapped array is copied and frozen, so a QuantumObject can be shared
    freely between threads.  A Hermitian object keeps its eigendecomposition
    once :func:`_spectrum` has made it, and a wrapper of it shares that and
    the mark ``_state`` of a projector built as a state (see :func:`_projector`).
    """

    __slots__ = ("_data", "_eigh", "_flat", "_state")

    def __init__(self, data: ArrayLike):
        if isinstance(data, QuantumObject):
            self._data, self._eigh, self._flat, self._state = (data._data, data._eigh, data._flat,
                                                               data._state)
            return
        try:
            arr = np.asarray(data, dtype=complex)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InvalidObject(f"expected a numeric matrix: {exc}") from None
        if flat := arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidObject(
                f"expected a non-empty matrix, got array of shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise InvalidObject("matrix entries must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        self._data, self._eigh, self._flat, self._state = arr, None, flat, False

    @classmethod
    def _view(cls, arr: np.ndarray) -> "QuantumObject":
        """Freeze and wrap, without copying or scanning, a finite 2-D complex
        array computed from checked operands."""
        arr.flags.writeable = False
        q = cls.__new__(cls)
        q._data, q._eigh, q._flat, q._state = arr, None, False, False
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
        tol = _real(tol, "tolerance", 0.0)
        if self._data.shape[0] != self._data.shape[1]:
            return False
        return np.max(np.abs(self._data - self._data.conj().T)) <= tol

    # -- arithmetic (returns new objects; kind is re-derived from shape) --

    def __add__(self, other: "QuantumObject") -> "QuantumObject":
        other = QuantumObject(other)
        if self.shape != other.shape:
            raise DimensionMismatch(f"operands of shape {self.shape} vs {other.shape}")
        return QuantumObject(self._data + other._data)

    def __sub__(self, other: "QuantumObject") -> "QuantumObject":
        return self + -QuantumObject(other)      # x - y is x + (-y) exactly in IEEE arithmetic

    def __neg__(self) -> "QuantumObject":
        return QuantumObject(-self._data)

    def __mul__(self, scalar) -> "QuantumObject":
        return QuantumObject(self._data * _complex(scalar, "factor"))

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "QuantumObject":
        return QuantumObject(self._data / _complex(scalar, "divisor"))

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
    if q.kind is not Kind.OPER:
        raise InvalidObject(f"trace needs an oper, got a {q.kind.value}")
    return complex(np.trace(_square(q, "trace operand")))


def _scaled(v: np.ndarray) -> tuple[float, np.ndarray, float]:
    """(s, v / s, ||v / s||) with s = 1, unless the squares of v's entries
    overflow its norm: then s is the largest part of an entry."""
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if n != math.inf:
        return 1.0, v, n
    s = max(np.abs(v.real).max(), np.abs(v.imag).max())
    return s, v / s, np.linalg.norm(v / s)


def l2norm(x: ArrayLike) -> float:
    """Euclidean norm for vectors, Frobenius norm for operators (see :func:`_scaled`)."""
    s, _, n = _scaled(QuantumObject(x).data)
    return float(s) * float(n)


def normalize(x: ArrayLike) -> QuantumObject:
    """Scale kets/bras to unit norm, opers to unit trace."""
    q = QuantumObject(x)
    if q.kind is Kind.OPER:
        t = np.trace(q.data)
        if abs(t) < 1e-14:
            raise ZeroNorm("operator has (near) zero trace")
        return QuantumObject(q.data / t)
    return QuantumObject._view(_unit(q))


def _unit(q: QuantumObject) -> np.ndarray:
    """The matrix of a ket or bra over its norm (so each entry is at most 1),
    scaled first by :func:`_scaled` when its norm overflows."""
    _, v, n = _scaled(q.data)
    if n < 1e-14:
        raise ZeroNorm("vector has (near) zero norm")
    return v / n


def to_operator(x: ArrayLike) -> QuantumObject:
    """Outer product |psi><psi| of a (normalized) bra or ket; opers pass through."""
    q = x if isinstance(x, QuantumObject) else QuantumObject(x)
    return q if _kind(q) is Kind.OPER else _projector(q)


def _kind(q: QuantumObject) -> Kind:
    """The kind of ``q``'s input: any 1-d input, one entry included, is a ket."""
    return Kind.KET if q._flat else q.kind


def _projector(q: QuantumObject) -> QuantumObject:
    """|v><v| for the unit vector v of ``q``'s entries (conjugated for a bra),
    marked as a state so that :func:`_require_state` need not decompose it."""
    v = _unit(q).reshape(-1)
    if q.kind is Kind.BRA:
        v = v.conj()
    p = QuantumObject._view(np.outer(v, v.conj()))
    p._state = True
    return p


def density_matrix(x: ArrayLike) -> np.ndarray:
    """Plain ndarray density matrix of a ket, bra, or state under :func:`_require_state`."""
    return _require_state(x).data


def _square(x: ArrayLike, name: str, d: int | None = None, hermitian: bool = False) -> np.ndarray:
    """The matrix of ``x``: DimensionMismatch unless it is square (d x d when
    ``d`` is given), NotHermitian if ``hermitian`` and it is not Hermitian
    (an object that kept its eigendecomposition has passed that check)."""
    q = QuantumObject(x)
    if q.shape[0] != q.shape[1] or d not in (None, q.shape[0]):
        size = "" if d is None else f" of dimension {d}"
        raise DimensionMismatch(f"{name} must be a square matrix{size}, got shape {q.shape}")
    if hermitian and q._eigh is None and not q.is_hermitian():
        raise NotHermitian(f"{name} must be Hermitian")
    return q.data


def _count(value, name: str, least: int | None = 1) -> int:
    """``value`` as an int (NumPy integers pass), >= ``least`` unless that is
    None; else InvalidParameter."""
    try:
        n = operator.index(value)
        if least is None or n >= least:
            return n
    except TypeError:
        pass
    floor = "" if least is None else f" >= {least}"
    raise InvalidParameter(f"{name} must be an integer{floor}, got {value!r}")


def _draws(value, name: str) -> int:
    """A count of draws, shots or repetitions (as :func:`_count`) of at most 2**53,
    the largest integer a float holds exactly; else InvalidParameter."""
    if (n := _count(value, name)) > 2**53:
        raise InvalidParameter(f"{name} must be at most 2**53, got {n}")
    return n


def _typed(value, kind: type, name: str):
    """``value`` if it is an instance of ``kind`` (a class, or ``Callable`` for a
    function); else InvalidParameter."""
    if isinstance(value, kind):
        return value
    raise InvalidParameter(f"{name} must be a {kind.__name__}, got {reprlib.repr(value)}")


def _fits(base: int, power: int, what: str) -> None:
    """UnsupportedDimension, before anything is allocated, unless ``what`` of
    base**power complex entries fits in MAX_STACK_BYTES (base >= 1)."""
    if base > 1 and (power >= MAX_STACK_BYTES.bit_length() or 16 * base**power > MAX_STACK_BYTES):
        entries = f"{base}**{power}" if power > 1 else f"{base}"
        raise UnsupportedDimension(f"{what} needs {entries} complex entries, "
                                   f"over the {MAX_STACK_BYTES >> 30} GiB limit")


def _qubit_count(n, base: int, what: str) -> int:
    """A qubit count (as :func:`_count`) whose ``what`` of base**n complex entries
    passes :func:`_fits`."""
    n = _count(n, "qubit count")
    _fits(base, n, f"a {n}-qubit {what}")
    return n


def _dimension(d, power: int = 1, least: int = 1) -> int:
    """A dimension (as :func:`_count`) whose arrays of d**power complex entries,
    a ket's d or an operator's d**2, pass :func:`_fits`."""
    d = _count(d, "dimension", least)
    _fits(d, power, f"dimension {d}")
    return d


def _rng(rng: np.random.Generator | int | None = None) -> np.random.Generator:
    """``rng`` as a Generator: a ready one, a seed >= 0 or None (fresh OS-seeded),
    else InvalidParameter.  There is deliberately no module-level generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(None if rng is None else _count(rng, "seed", least=0))


def _real(value, name: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    """``value`` as a float (NumPy scalars pass) if it is a real number in [lo, hi]
    and within the float range; else InvalidParameter: NaN, +-inf, a complex,
    a string, None."""
    try:                                # in float64, where a narrow NumPy float cannot overflow
        if isinstance(value, numbers.Real) and lo <= (x := float(value)) <= hi and math.isfinite(x):
            return x
    except OverflowError:               # an int past the float range
        pass
    span = "" if (lo, hi) == (-math.inf, math.inf) else f" within [{lo:g}, {hi:g}]"
    raise InvalidParameter(f"{name} must be finite and real{span}, got {value!r}")


def _reals(values, name: str, error=InvalidParameter) -> np.ndarray:
    """``values`` as an array, not cast, if every entry is a finite bool, int or
    float; else ``error``: a ragged list, None, a string, a complex entry, NaN, +-inf."""
    with contextlib.suppress(TypeError, ValueError):     # np.asarray refuses a ragged list
        if (arr := np.asarray(values)).dtype.kind in "biuf" and np.isfinite(arr).all():
            return arr
    raise error(f"{name} must be finite real numbers, got {reprlib.repr(values)}")


def _complex(value, name: str) -> complex:
    """``value`` as a complex (NumPy scalars pass) if both its parts are within
    the float range; else InvalidParameter."""
    try:                                # in float64, where a narrow NumPy float cannot overflow
        if isinstance(value, numbers.Complex) and cmath.isfinite(z := complex(value)):
            return z
    except OverflowError:               # an int past the float range
        pass
    raise InvalidParameter(f"{name} must be a finite number, got {value!r}")


def _require_state(x: ArrayLike) -> QuantumObject:
    """The density matrix of ``x``.  A ket or bra (see :func:`_kind`) becomes its
    projector, a state by construction, and so passes a projector that
    :func:`_projector` marked; any other operator must be Hermitian,
    unit-trace and PSD, read off the eigendecomposition that :func:`_spectrum`
    keeps on it."""
    q = x if isinstance(x, QuantumObject) else QuantumObject(x)
    if _kind(q) is not Kind.OPER:
        return _projector(q)
    if q._state:
        return q
    vals = _spectrum(q, "state")[0]
    if abs((tr := q.data.trace().real) - 1.0) > 1e-8:
        raise InvalidObject(f"a state must have unit trace, got {tr:.6g}")
    if (low := vals[0]) < -PSD_TOL:
        raise NotPositive(f"state has eigenvalue {low:.3e} < -{PSD_TOL}")
    return q


def _spectrum(x: ArrayLike, name: str, d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The ``eigh`` (ascending eigenvalues, eigenvector columns) of the
    Hermitian part (m + m^dag) / 2 of a Hermitian ``x``, d x d when ``d`` is
    given: the one place an input is decomposed.  ``eigh`` of m would read one
    triangle only.  A QuantumObject keeps it, so the next call skips both the
    Hermitian check and the solver."""
    q = x if isinstance(x, QuantumObject) else QuantumObject(x)
    if q._eigh is None:
        m = _square(q, name, d, hermitian=True)
        lam, v = np.linalg.eigh((m + m.conj().T) / 2)
        lam.flags.writeable = v.flags.writeable = False
        q._eigh = lam, v
    elif d is not None:
        _square(q, name, d)
    return q._eigh


def _write_lines(lines: Sequence[str], path=None) -> None:
    """Write ``lines``, each ended by a bare newline, to a UTF-8 file or to
    stdout when ``path`` is None."""
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_text(text, encoding="utf-8", newline="\n")
        except (OSError, TypeError) as exc:
            raise InvalidParameter(f"cannot write {path}: {exc}") from None


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
        f = QuantumObject(f).data
        _fits(acc.size * f.size, 1, f"a {acc.shape} x {f.shape} tensor product")
        acc = np.kron(acc, f)
    return QuantumObject(acc)


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the largest-magnitude entry is real positive."""
    i = int(np.argmax(np.abs(v)))
    ph = v[i]
    return v * (abs(ph) / ph)


def _sorted_eig(x: ArrayLike, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of a square ``x``, descending by real part (ties by
    imaginary part), and the eigenvector columns in that order.  Hermitian
    input reads the kept :func:`_spectrum`, with real eigenvalues and an
    orthonormal eigenbasis."""
    q = x if isinstance(x, QuantumObject) else QuantumObject(x)
    try:
        vals, vecs = _spectrum(q, name)
        vals = vals.astype(float)
    except NotHermitian:
        vals, vecs = np.linalg.eig(q.data)
    order = np.lexsort((-np.imag(vals), -np.real(vals)))
    return vals[order], vecs[:, order]


def eigen(x: ArrayLike) -> EigenDecomposition:
    """Eigenvalues and eigenkets in the order of :func:`_sorted_eig`, each ket's
    global phase fixed (largest component real positive) for reproducibility."""
    vals, vecs = _sorted_eig(x, "eigen input")
    kets = tuple(QuantumObject(_fix_phase(vecs[:, i]).reshape(-1, 1)) for i in range(len(vals)))
    return EigenDecomposition(values=vals, vectors=kets)


def ground(x: ArrayLike) -> QuantumObject:
    """Eigenvector of the minimal eigenvalue of a Hermitian matrix."""
    vals, vecs = _spectrum(x, "Hamiltonian")
    # eigh sorts ascending, so column 0 is the ground space (first on ties)
    return QuantumObject(_fix_phase(vecs[:, 0]).reshape(-1, 1))


def _evolution(spectrum: tuple[np.ndarray, np.ndarray], t: float = 1.0) -> np.ndarray:
    """exp(-i t H) = V e^{-i t L} V^dag from the ``eigh`` (L, V) of a Hermitian H."""
    lam, v = spectrum
    return (v * np.exp(-1j * t * lam)) @ v.conj().T


def mat_exp(x: ArrayLike) -> QuantumObject:
    """Matrix exponential (scaling-and-squaring)."""
    import scipy.linalg  # on first use, so that ``import qmkit`` does not load SciPy
    return QuantumObject(scipy.linalg.expm(_square(x, "mat_exp input")))


def mat_sqrt(x: ArrayLike) -> QuantumObject:
    """Principal square root of a PSD Hermitian matrix (spectral method).

    Eigenvalues in [-PSD_TOL, 0) are clipped to zero; anything more negative
    raises :class:`NotPositive`.
    """
    vals, vecs = _spectrum(x, "mat_sqrt input")
    if vals[0] < -PSD_TOL:
        raise NotPositive(f"matrix has eigenvalue {vals[0]:.3e} < -{PSD_TOL}")
    return QuantumObject(_psd_sqrt(vals, vecs))


def _psd_sqrt(vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """V sqrt(max(L, 0)) V^dag from the ``eigh`` (L, V) of a PSD matrix."""
    return (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T


def diagonalize(x: ArrayLike) -> QuantumObject:
    """Diagonal matrix of eigenvalues, descending by real part (ties by imag).

    Raises :class:`NotDiagonalizable` when the eigenvector matrix is
    (numerically) singular, i.e. the input is defective.
    """
    vals, vecs = _sorted_eig(x, "diagonalize input")
    sv = np.linalg.svd(vecs, compute_uv=False)
    if sv[-1] < 1e-12 * sv[0]:
        raise NotDiagonalizable("eigenvector matrix is numerically singular")
    return QuantumObject(np.diag(vals.astype(complex)))


def partial_trace(x: ArrayLike, traced: Iterable[int]) -> QuantumObject:
    """Trace out the listed qubits (1-based indices) of a 2^n x 2^n operator.

    Remaining qubits keep their original (ascending) order.  Only qubit
    systems are supported.
    """
    m = _square(x, "partial_trace input")
    n = len(m).bit_length() - 1
    if 2**n != len(m):
        raise NotQubitSystem(f"dimension {len(m)} is not a power of two")
    if not isinstance(traced, Iterable):
        raise InvalidParameter(f"traced subsystems must be an iterable of indices, got {traced!r}")
    traced = [_count(t, "subsystem index", least=None) for t in traced]
    if len(set(traced)) != len(traced):
        raise IndexOutOfRange(f"repeated subsystem index in {traced}")
    for t in traced:
        if not (1 <= t <= n):
            raise IndexOutOfRange(f"subsystem index {t} outside 1..{n}")
    keep = [s for s in range(1, n + 1) if s not in set(traced)]
    traced = sorted(traced)

    arr = m.reshape([2] * (2 * n))
    row_axes = [s - 1 for s in keep] + [s - 1 for s in traced]
    perm = row_axes + [n + a for a in row_axes]
    arr = arr.transpose(perm)
    dk, dt = 2 ** len(keep), 2 ** len(traced)
    arr = arr.reshape(dk, dt, dk, dt)
    return QuantumObject(np.trace(arr, axis1=1, axis2=3))
