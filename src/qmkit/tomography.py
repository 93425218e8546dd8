"""State tomography: simulate measurement data, reconstruct by linear
inversion with a PSD projection, and score with trace distance / fidelity."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    NotPositive,
    RankDeficientSet,
)
from .measurement import MeasurementSet, SamplerBackend, measure_and_sample, probabilities
from .qcore import Kind, QuantumObject, _require_state, density_matrix, mat_sqrt


def trace_distance_pure(psi, phi) -> float:
    """sqrt(1 - |<phi|psi>|^2) for two unit kets."""
    a = QuantumObject(psi)
    b = QuantumObject(phi)
    if a.kind is not Kind.KET or b.kind is not Kind.KET:
        raise DimensionMismatch("trace_distance_pure expects two kets")
    if a.shape != b.shape:
        raise DimensionMismatch(f"kets of dimension {a.dim} vs {b.dim}")
    ov = np.vdot(b.data.reshape(-1), a.data.reshape(-1))
    return float(np.sqrt(max(0.0, 1.0 - abs(ov) ** 2)))


def trace_distance(rho, sigma) -> float:
    """(1/2) tr |rho - sigma| for Hermitian operators (kets are promoted)."""
    a = density_matrix(rho)
    b = density_matrix(sigma)
    if a.shape != b.shape:
        raise DimensionMismatch(f"operators of shape {a.shape} vs {b.shape}")
    diff = a - b
    vals = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.sum(np.abs(vals)))


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), clamped to [0, 1]."""
    a = density_matrix(rho)
    b = density_matrix(sigma)
    if a.shape != b.shape:
        raise DimensionMismatch(f"operators of shape {a.shape} vs {b.shape}")
    sq = mat_sqrt(QuantumObject(a)).data
    inner = sq @ b @ sq
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    if np.min(vals) < -1e-8:
        raise NotPositive(f"fidelity operand has eigenvalue {np.min(vals):.3e}")
    f = float(np.sum(np.sqrt(np.clip(vals, 0.0, None))))
    return min(max(f, 0.0), 1.0)


@functools.lru_cache(maxsize=8)
def _real_basis(d: int) -> np.ndarray:
    """Orthonormal (Hilbert-Schmidt) basis B_a of traceless Hermitian d x d
    matrices, one row per element with its entries as interleaved (re, im)
    pairs; taking any complex X the same way, Re tr(X B_a) = row_a . X.

    Rows: for each pair i < j the symmetric element (|i><j| + |j><i|)/sqrt2
    and the antisymmetric one (-i|i><j| + i|j><i|)/sqrt2, then the d - 1
    diagonal elements (1, ..., 1, -l, 0, ..., 0)/sqrt(l(l+1)).
    """
    i, j = np.triu_indices(d, 1)
    sym, anti = 2 * np.arange(len(i)), 2 * np.arange(len(i)) + 1
    basis = np.zeros((d * d - 1, d, d), dtype=complex)
    basis[sym, i, j] = basis[sym, j, i] = 1 / np.sqrt(2)
    basis[anti, i, j], basis[anti, j, i] = -1j / np.sqrt(2), 1j / np.sqrt(2)
    l, p = np.arange(1, d)[:, None], np.arange(d)
    basis[2 * len(i):, p, p] = np.where(p < l, 1.0, np.where(p == l, -l, 0.0)) / np.sqrt(l * (l + 1))
    real = basis.view(float).reshape(d * d - 1, 2 * d * d)
    real.flags.writeable = False
    return real


def _inversion_map(mset: MeasurementSet) -> tuple:
    """What linear inversion needs of a set, built on first use and kept on
    the set: (offsets, gram_inv).

    With off_k = tr(E_k)/d and M[k, a] = Re tr(E_k B_a), rho - 1/d has the
    least-squares coordinates x = (M^T M)^{-1} M^T (f - off), and
    M^T (f - off) = Re tr(A B_a) with A = sum_k (f_k - off_k) E_k, so M is
    never kept.  ``gram_inv`` is (M^T M)^{-1}, or None when M^T M is
    singular.
    """
    if mset._inversion is not None:
        return mset._inversion
    d = mset.dim
    basis = _real_basis(d)
    gram = np.zeros((d * d - 1, d * d - 1))
    for start in range(0, len(mset), 64):      # row blocks: M is never held whole
        rows = mset.stack[start:start + 64]
        m = rows.view(float).reshape(len(rows), -1) @ basis.T
        gram += m.T @ m
    full_rank = np.linalg.matrix_rank(gram, hermitian=True) == d * d - 1
    inv = (np.trace(mset.stack, axis1=1, axis2=2).real / d,
           np.linalg.inv(gram) if full_rank else None)
    object.__setattr__(mset, "_inversion", inv)
    return inv


def reconstruct_linear_inversion(freqs, mset: MeasurementSet) -> QuantumObject:
    """Least-squares inversion of tr(E_k rho) = f_k over unit-trace Hermitian
    matrices, followed by a PSD projection.

    Frequencies must be finite (else :class:`InvalidDistribution`); those
    of grouped sets are renormalized per group first.  The projection
    clips negative eigenvalues to zero and renormalizes the trace.  Raises
    :class:`RankDeficientSet` when the elements do not span the traceless
    operator space, i.e. when the Gram matrix M^T M of the design matrix
    is numerically singular.
    """
    f = np.asarray(freqs, dtype=float).copy()
    if len(f) != len(mset):
        raise DimensionMismatch(f"{len(f)} frequencies for {len(mset)} elements")
    if not np.isfinite(f).all():
        raise InvalidDistribution(f"frequency {f[~np.isfinite(f)][0]} is not finite")
    d = mset.dim
    offsets, gram_inv = _inversion_map(mset)
    if gram_inv is None:
        raise RankDeficientSet(
            f"{mset.kind} set with {len(mset)} elements does not determine a "
            f"{d}-dimensional state"
        )
    sums = mset.group_sums(f)
    # each element over its group's sum; an ungrouped one (group -1) over the trailing 1.0
    f /= np.append(np.where(sums > 0, sums, 1.0), 1.0)[mset.group_of]
    basis = _real_basis(d)
    a = (f - offsets) @ mset.stack.view(float).reshape(len(f), -1)   # A, interleaved
    x = gram_inv @ (basis @ a)
    rho = np.eye(d, dtype=complex) / d + (x @ basis).view(complex).reshape(d, d)
    vals, vecs = np.linalg.eigh((rho + rho.conj().T) / 2)
    vals = np.clip(vals, 0.0, None)
    vals /= vals.sum()
    return QuantumObject((vecs * vals) @ vecs.conj().T)


Estimator = Callable[[Sequence[float], MeasurementSet], QuantumObject]


@dataclass(frozen=True)
class TomographyRun:
    """One reconstruction: inputs, result, and its two scores."""

    true_state: QuantumObject
    set_kind: str
    shots: int | None            # None means exact probabilities
    backend: str                 # 'exact', 'mc' or 'cdf'
    seed: int
    reconstructed: QuantumObject
    fidelity: float
    trace_distance: float

    @property
    def dimension(self) -> int:
        return self.true_state.shape[0]

    def report(self) -> dict:
        """Flat report used by the JSON/CSV interfaces."""
        return {
            "dimension": self.dimension,
            "set_kind": self.set_kind,
            "shots": self.shots if self.shots is not None else "exact",
            "backend": self.backend,
            "seed": self.seed,
            "fidelity": self.fidelity,
            "trace_distance": self.trace_distance,
        }


def run_tomography(true_state, mset: MeasurementSet, shots: int | None = None,
                   backend: SamplerBackend | None = None,
                   estimator: Estimator | None = None) -> TomographyRun:
    """Simulate, reconstruct and score one tomography experiment.

    ``shots = None`` bypasses sampling and feeds exact probabilities to the
    estimator (default: linear inversion + PSD projection).
    """
    rho_true = _require_state(true_state)
    if shots is None:
        freqs = probabilities(rho_true, mset)
        backend_name, seed = "exact", 0
    else:
        if backend is None:
            backend = SamplerBackend(method="cdf", seed=0)
        freqs = measure_and_sample(rho_true, mset, backend, shots)
        backend_name, seed = backend.method, backend.seed
    est = estimator if estimator is not None else reconstruct_linear_inversion
    rec = est(freqs, mset)
    return TomographyRun(
        true_state=rho_true,
        set_kind=mset.kind,
        shots=shots,
        backend=backend_name,
        seed=seed,
        reconstructed=rec,
        fidelity=fidelity(rho_true, rec),
        trace_distance=trace_distance(rho_true, rec),
    )
