"""State tomography: simulate measurement data, reconstruct by linear
inversion with a PSD projection, and score with trace distance / fidelity."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidDistribution
from .measurement import MeasurementSet, SamplerBackend, _set, measure_and_sample, probabilities
from .qcore import (Kind, QuantumObject, _kind, _psd_sqrt, _reals, _require_state, _spectrum,
                    _square, _typed, _unit)


def trace_distance_pure(psi, phi) -> float:
    """sqrt(1 - |<phi|psi>|^2) for two kets, each normalised on use."""
    a, b = QuantumObject(psi), QuantumObject(phi)
    if _kind(a) is not Kind.KET or _kind(b) is not Kind.KET:
        raise DimensionMismatch("trace_distance_pure expects two kets")
    if a.shape != b.shape:
        raise DimensionMismatch(f"kets of dimension {a.dim} vs {b.dim}")
    ov = np.vdot(_unit(b).reshape(-1), _unit(a).reshape(-1))
    return float(np.sqrt(max(0.0, 1.0 - abs(ov) ** 2)))


def _states(rho, sigma) -> tuple:
    """The two states a score compares: both of one dimension, each operator
    square, then each input a state under :func:`_require_state`."""
    a, b = (x if isinstance(x, QuantumObject) else QuantumObject(x) for x in (rho, sigma))
    for q in (a, b):
        if q.kind is Kind.OPER:
            _square(q, "state")
    if a.dim != b.dim:
        raise DimensionMismatch(f"states of dimension {a.dim} vs {b.dim}")
    return _require_state(a), _require_state(b)


def trace_distance(rho, sigma) -> float:
    """(1/2) tr |rho - sigma| of two states (kets are promoted)."""
    a, b = _states(rho, sigma)
    return _trace_distance(a.data, b.data)


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance of two density matrices."""
    diff = a - b
    vals = np.linalg.eigvalsh((diff + diff.conj().T) / 2)
    return float(0.5 * np.abs(vals).sum())


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)) of two states (kets
    are promoted), clamped to [0, 1]."""
    a, b = _states(rho, sigma)
    return _fidelity(_psd_sqrt(*_spectrum(a, "state")), b.data)


def _fidelity(sq: np.ndarray, b: np.ndarray) -> float:
    """Fidelity from sqrt(rho) and sigma."""
    inner = sq @ b @ sq
    vals = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    f = float(np.sqrt(np.maximum(vals, 0.0)).sum())
    return min(max(f, 0.0), 1.0)


def reconstruct_linear_inversion(freqs, mset) -> QuantumObject:
    """Least-squares inversion of tr(E_k rho) = f_k, E_k in ``mset`` (read by
    ``_set``), over unit-trace Hermitian matrices, then a PSD projection.

    Frequencies must be finite, and small enough that the estimate does not
    overflow (else :class:`InvalidDistribution`).  The set's ``_estimate``
    renormalizes those of each group and raises :class:`RankDeficientSet` unless
    the elements span the traceless operators (:class:`InvalidObject` if their Gram
    matrix overflows); the projection clips negative eigenvalues to zero and
    renormalizes the trace.  The set keeps its inversion data,
    so pass a :class:`MeasurementSet` to reuse it: a list or array is a new set each call.
    """
    mset = _set(mset)
    if (freqs := _reals(freqs, "frequencies", InvalidDistribution)).shape != (len(mset),):
        raise DimensionMismatch(f"frequencies of shape {freqs.shape} for {len(mset)} elements")
    with np.errstate(over="ignore", invalid="ignore"):    # an overflow is refused below
        rho = mset._estimate(freqs)
        if finite := np.isfinite(rho).all():
            vals, vecs = np.linalg.eigh(rho)
            vals = np.maximum(vals, 0.0)
            finite = np.isfinite(total := vals.sum())
    if not finite:
        top = np.abs(freqs).max()
        raise InvalidDistribution(f"frequencies up to {top:.3g} in magnitude overflow the estimate")
    vals /= total
    return QuantumObject._view((vecs * vals) @ vecs.conj().T)


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


def run_tomography(true_state, mset, shots: int | None = None,
                   backend: SamplerBackend | None = None,
                   estimator: Estimator | None = None) -> TomographyRun:
    """Simulate, reconstruct and score one tomography experiment.

    ``shots = None`` bypasses sampling and feeds exact probabilities to the
    estimator (default: linear inversion + PSD projection).  ``mset`` is read by ``_set``.
    """
    rho_true = _require_state(true_state)
    mset = _set(mset)
    if backend is not None:
        _typed(backend, SamplerBackend, "backend")
    est = _typed(reconstruct_linear_inversion if estimator is None else estimator, Callable,
                 "estimator")
    if shots is None:
        freqs = probabilities(rho_true, mset)
        backend_name, seed = "exact", 0
    else:
        if backend is None:
            backend = SamplerBackend(method="cdf", seed=0)
        freqs = measure_and_sample(rho_true, mset, backend, shots)
        shots, backend_name, seed = int(shots), backend.method, backend.seed
    rec = est(freqs, mset)
    # linear inversion returns a state; another estimate is checked as a score's argument
    b = rec.data if estimator is None else _states(rho_true, rec)[1].data
    return TomographyRun(
        true_state=rho_true,
        set_kind=mset.kind,
        shots=shots,
        backend=backend_name,
        seed=seed,
        reconstructed=rec,
        fidelity=_fidelity(_psd_sqrt(*_spectrum(rho_true, "state")), b),
        trace_distance=_trace_distance(rho_true.data, b),
    )
