"""Single-parameter metrology: phase encoding, classical and quantum Fisher
information, Cramer-Rao bounds, spin cat states, and error-propagation
precision curves against the standard quantum and Heisenberg limits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParameter,
    NotHermitian,
    NotPositive,
)
from .measurement import MeasurementSet, probabilities
from .qcore import Kind, QuantumObject, density_matrix, mat_exp, normalize
from .states import spin_coherent

DERIVATIVE_CUTOFF = 1e-12


def encode_phase(state, generator, phi: float) -> QuantumObject:
    """Evolve a state under U(phi) = exp(-i phi H).

    Kets map to U|psi>, operators to U rho U^dag.
    """
    st = QuantumObject(state)
    h = QuantumObject(generator)
    if h.shape[0] != h.shape[1] or h.shape[0] != st.dim:
        raise DimensionMismatch(f"generator {h.shape} vs state dimension {st.dim}")
    u = mat_exp(QuantumObject(-1j * phi * h.data)).data
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
    groups = mset.groups if isinstance(mset, MeasurementSet) else ()
    if len(groups) > 1:
        return float(np.mean([terms[list(idx)].sum() for idx in groups]))
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
    total = 0.0
    d = len(q)
    for m in range(d):
        for n in range(d):
            s = q[m] + q[n]
            if s <= 1e-12:
                continue
            total += (q[m] - q[n]) ** 2 / s * abs(ht[m, n]) ** 2
    return 2.0 * total


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
    if phis.size < 2 or np.any(np.diff(phis) <= 0):
        raise InvalidParameter("phase grid must be strictly increasing")
    deriv = np.gradient(e1, phis)
    sigma = np.sqrt(np.clip(e2 - e1**2, 0.0, None))
    out = np.full(phis.shape, np.nan)
    mask = np.abs(deriv) > DERIVATIVE_CUTOFF
    out[mask] = sigma[mask] / np.abs(deriv[mask])
    return out


@dataclass(frozen=True)
class MetrologyScenario:
    """Probe + generator + phase grid + readout observable.

    ``repetitions`` is the N used when reporting Cramer-Rao bounds.
    """

    probe: QuantumObject
    generator: QuantumObject
    phis: np.ndarray
    observable: QuantumObject
    repetitions: int = 1

    def __post_init__(self):
        if not QuantumObject(self.generator).is_hermitian():
            raise NotHermitian("generator must be Hermitian")
        if not QuantumObject(self.observable).is_hermitian():
            raise NotHermitian("observable must be Hermitian")
        phis = np.asarray(self.phis, dtype=float)
        if phis.size < 2 or np.any(np.diff(phis) <= 0):
            raise InvalidParameter("phase grid must be strictly increasing")
        object.__setattr__(self, "phis", phis)
        if self.repetitions < 1:
            raise InvalidParameter(f"repetitions must be >= 1, got {self.repetitions}")


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

    The spin count for SQL/HL levels is n = 2j = dim - 1, i.e. the number
    of two-level constituents of the collective spin.
    """
    a = QuantumObject(scenario.observable).data
    a2 = a @ a
    e1 = np.empty(scenario.phis.size)
    e2 = np.empty(scenario.phis.size)
    for i, phi in enumerate(scenario.phis):
        st = encode_phase(scenario.probe, scenario.generator, float(phi))
        dm = density_matrix(st)
        e1[i] = float(np.real(np.einsum("ij,ji->", a, dm)))
        e2[i] = float(np.real(np.einsum("ij,ji->", a2, dm)))
    delta = error_propagation(scenario.phis, e1, e2)
    n_spins = QuantumObject(scenario.generator).shape[0] - 1
    return PrecisionCurve(
        phis=scenario.phis,
        expectation=e1,
        variance=e2 - e1**2,
        delta_phi=delta,
        sql=1.0 / math.sqrt(n_spins),
        hl=1.0 / n_spins,
    )


def curve_lines(curve: PrecisionCurve) -> list[str]:
    """CSV content with columns phi,expectation,variance,delta_phi,sql,hl.

    Undefined precision points serialize as an empty field.
    """
    lines = ["# phi,expectation,variance,delta_phi,sql,hl"]
    for i in range(curve.phis.size):
        dp = curve.delta_phi[i]
        dp_cell = "" if np.isnan(dp) else f"{dp:.17g}"
        lines.append(
            f"{curve.phis[i]:.17g},{curve.expectation[i]:.17g},"
            f"{curve.variance[i]:.17g},{dp_cell},{curve.sql:.17g},{curve.hl:.17g}"
        )
    return lines


def write_curve_csv(curve: PrecisionCurve, path) -> None:
    Path(path).write_text("\n".join(curve_lines(curve)) + "\n",
                          encoding="utf-8", newline="\n")
