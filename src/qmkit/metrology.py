"""Single-parameter metrology: phase encoding, classical and quantum Fisher
information, Cramer-Rao bounds, spin cat states, and error-propagation
precision curves against the standard quantum and Heisenberg limits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NotHermitian,
    NotPositive,
)
from .measurement import MeasurementSet, _count, probabilities
from .qcore import (Kind, QuantumObject, _csv_row, _require_state, _write_lines, density_matrix,
                    normalize)
from .states import spin_coherent

DERIVATIVE_CUTOFF = 1e-12


def encode_phase(state, generator, phi: float) -> QuantumObject:
    """Evolve a state under U(phi) = exp(-i phi H) = V e^{-i phi L} V^dag for a
    Hermitian H = V L V^dag: kets map to U|psi>, operators to U rho U^dag."""
    st = QuantumObject(state)
    h = QuantumObject(generator)
    if h.shape[0] != h.shape[1] or h.shape[0] != st.dim:
        raise DimensionMismatch(f"generator {h.shape} vs state dimension {st.dim}")
    if not h.is_hermitian():
        raise NotHermitian("generator must be Hermitian")
    lam, v = np.linalg.eigh(h.data)
    u = (v * np.exp(-1j * phi * lam)) @ v.conj().T
    if st.kind is Kind.KET:
        return QuantumObject(u @ st.data)
    if st.kind is Kind.BRA:
        return QuantumObject(st.data @ u.conj().T)
    return QuantumObject(u @ st.data @ u.conj().T)


def classical_fisher(rho_of_phi: Callable[[float], object], mset, phi: float,
                     dphi: float = 1e-3) -> float:
    """Classical Fisher information of a measurement at phase phi.

    F = sum_k (d p_k / d phi)^2 / p_k with the derivative taken by central
    differences of step ``dphi``; outcomes with p_k < 1e-12 are dropped.

    A MeasurementSet with several groups (e.g. MUB) is scored as the
    uniform mixture of its groups, one picked at random per shot: the mean
    of the per-group values, each of which is at most the quantum one.
    """
    if dphi <= 0:
        raise InvalidParameter(f"finite-difference step must be > 0, got {dphi}")
    p0 = probabilities(rho_of_phi(phi), mset)
    p_plus = probabilities(rho_of_phi(phi + dphi), mset)
    p_minus = probabilities(rho_of_phi(phi - dphi), mset)
    dp = (p_plus - p_minus) / (2 * dphi)
    terms = np.divide(dp**2, p0, out=np.zeros_like(p0), where=p0 > 1e-12)
    if isinstance(mset, MeasurementSet) and len(mset.groups) > 1:
        return float(np.mean(mset.group_sums(terms)))
    return float(np.sum(terms))


def quantum_fisher(rho, generator) -> float:
    """Quantum Fisher information of rho for the generator H.

    Uses the spectral form 2 sum_{m,n} (q_m - q_n)^2 / (q_m + q_n)
    |<m|H|n>|^2, skipping eigenvalue pairs with q_m + q_n <= 1e-12.
    """
    dm = density_matrix(rho)
    h = QuantumObject(generator)
    if not h.is_hermitian():
        raise NotHermitian("generator must be Hermitian")
    if h.shape != dm.shape:
        raise DimensionMismatch(f"generator {h.shape} vs state {dm.shape}")
    q, v = np.linalg.eigh((dm + dm.conj().T) / 2)
    if np.min(q) < -1e-10:
        raise NotPositive(f"state has eigenvalue {np.min(q):.3e}")
    q = np.clip(q, 0.0, None)
    q = q / q.sum()
    ht = v.conj().T @ h.data @ v
    s = q[:, None] + q[None, :]
    ratio = np.divide((q[:, None] - q[None, :]) ** 2, s, out=np.zeros_like(s), where=s > 1e-12)
    return 2.0 * float(np.sum(ratio * np.abs(ht) ** 2))


def cramer_rao_bounds(F: float, Q: float, N: int = 1) -> tuple[float, float]:
    """Classical and quantum Cramer-Rao bounds (1/sqrt(NF), 1/sqrt(NQ)).

    Zero information yields ``math.inf`` as the unbounded flag.
    """
    if F < -1e-12 or Q < -1e-12:
        raise InvalidParameter("Fisher information must be non-negative")
    if N < 1:
        raise InvalidParameter(f"repetition count must be >= 1, got {N}")
    ccrb = 1.0 / math.sqrt(N * F) if F > 0 else math.inf
    qcrb = 1.0 / math.sqrt(N * Q) if Q > 0 else math.inf
    return ccrb, qcrb


def cat_state(j, theta: float, phi: float = 0.0) -> QuantumObject:
    """Normalized superposition of the spin coherent states at polar angles
    theta and pi - theta (same azimuth)."""
    if not (0.0 <= theta <= math.pi):
        raise InvalidParameter(f"theta must be in [0, pi], got {theta}")
    return normalize(spin_coherent(j, theta, phi) + spin_coherent(j, math.pi - theta, phi))


def _check_grid(phis: np.ndarray) -> None:
    """Raise unless ``phis`` holds at least two finite, strictly increasing phases."""
    if phis.size < 2 or not (np.isfinite(phis).all() and (np.diff(phis) > 0).all()):
        raise InvalidParameter("phase grid must be finite and strictly increasing")


def error_propagation(phis, expectation, second_moment) -> np.ndarray:
    """Precision Delta phi = sqrt(<A^2> - <A>^2) / |d<A>/d phi| on a grid.

    The derivative uses central differences (one-sided at the ends).
    Points where its magnitude is at or below 1e-12 are flagged undefined
    and returned as NaN rather than clipped to something finite.
    """
    phis = np.asarray(phis, dtype=float)
    e1 = np.asarray(expectation, dtype=float)
    e2 = np.asarray(second_moment, dtype=float)
    if phis.shape != e1.shape or phis.shape != e2.shape:
        raise DimensionMismatch("phase grid and moment arrays must align")
    _check_grid(phis)
    deriv = np.gradient(e1, phis)
    sigma = np.sqrt(np.clip(e2 - e1**2, 0.0, None))
    out = np.full(phis.shape, np.nan)
    mask = np.abs(deriv) > DERIVATIVE_CUTOFF
    out[mask] = sigma[mask] / np.abs(deriv[mask])
    return out


@dataclass(frozen=True)
class MetrologyScenario:
    """Probe + generator + phase grid + readout observable.

    The probe must be a state: a ket or bra (normalised on use) or a
    density matrix.  ``repetitions``, an integer >= 1, is the N used when
    reporting Cramer-Rao bounds.
    """

    probe: QuantumObject
    generator: QuantumObject
    phis: np.ndarray
    observable: QuantumObject
    repetitions: int = 1

    def __post_init__(self):
        probe, h, a = (QuantumObject(x) for x in (self.probe, self.generator, self.observable))
        d = probe.dim
        if (probe.kind is Kind.OPER and probe.shape != (d, d)) or {h.shape, a.shape} != {(d, d)}:
            raise DimensionMismatch(f"probe {probe.shape}, generator {h.shape} and "
                                    f"observable {a.shape} must share one dimension")
        if d < 2:
            raise InvalidParameter(f"a scenario needs dimension >= 2, got {d}")
        if not h.is_hermitian():
            raise NotHermitian("generator must be Hermitian")
        if not a.is_hermitian():
            raise NotHermitian("observable must be Hermitian")
        _require_state(probe)
        phis = np.asarray(self.phis, dtype=float)
        _check_grid(phis)
        for name, value in (("probe", probe), ("generator", h), ("observable", a),
                            ("phis", phis)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "repetitions", _count(self.repetitions, "repetitions"))


@dataclass(frozen=True)
class PrecisionCurve:
    """Expectation, variance and precision along the phase grid, with the
    standard-quantum-limit and Heisenberg-limit levels for n spins."""

    phis: np.ndarray
    expectation: np.ndarray
    variance: np.ndarray
    delta_phi: np.ndarray
    sql: float
    hl: float


def run_scenario(scenario: MetrologyScenario) -> PrecisionCurve:
    """Evaluate the error-propagation precision curve of a scenario.

    One eigendecomposition H = V L V^dag serves the whole phase grid: in
    that basis rho(phi)_mn = u_m rho_mn conj(u_n) with u = exp(-i phi L),
    so <A> and <A^2> are quadratic forms in u.  The spin count for the
    SQL/HL levels is n = 2j = dim - 1, i.e. the number of two-level
    constituents of the collective spin.
    """
    lam, v = np.linalg.eigh(scenario.generator.data)
    rho = v.conj().T @ density_matrix(scenario.probe) @ v
    a = v.conj().T @ scenario.observable.data @ v
    u = np.exp(-1j * np.outer(scenario.phis, lam))
    forms = np.stack([a.T * rho, (a @ a).T * rho])
    e1, e2 = np.einsum("pm,kmn,pn->kp", u, forms, u.conj()).real
    n_spins = lam.size - 1
    return PrecisionCurve(
        phis=scenario.phis,
        expectation=e1,
        variance=e2 - e1**2,
        delta_phi=error_propagation(scenario.phis, e1, e2),
        sql=1.0 / math.sqrt(n_spins),
        hl=1.0 / n_spins,
    )


def curve_lines(curve: PrecisionCurve) -> list[str]:
    """CSV content with columns phi,expectation,variance,delta_phi,sql,hl.

    Undefined precision points serialize as an empty field.
    """
    dp = [None if np.isnan(v) else v for v in curve.delta_phi]
    return ["# phi,expectation,variance,delta_phi,sql,hl"] + [
        _csv_row((*row, curve.sql, curve.hl))
        for row in zip(curve.phis, curve.expectation, curve.variance, dp)]


def write_curve_csv(curve: PrecisionCurve, path) -> None:
    _write_lines(curve_lines(curve), path)
