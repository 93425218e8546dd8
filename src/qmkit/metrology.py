"""Single-parameter metrology: phase encoding, classical and quantum Fisher
information, Cramer-Rao bounds, spin cat states, and error-propagation
precision curves against the standard quantum and Heisenberg limits."""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidParameter
from .qcore import (Kind, QuantumObject, _count, _draws, _evolution, _fits, _real, _reals,
                    _require_state, _spectrum, _square, _typed, _unit, density_matrix, normalize)
from .states import spin_coherent

DERIVATIVE_CUTOFF = 1e-12


def encode_phase(state, generator, phi: float) -> QuantumObject:
    """Evolve a state under U(phi) = exp(-i phi H) = V e^{-i phi L} V^dag for a
    Hermitian H = V L V^dag: kets (normalised on use) map to U|psi>, operators to U rho U^dag.
    A QuantumObject generator keeps its V and L for the next call."""
    st = state if isinstance(state, QuantumObject) else QuantumObject(state)
    if st.kind is Kind.OPER:     # checked; a one-entry 1-d ket becomes its projector
        st = _require_state(st)
    lam, v = _spectrum(generator, "generator", st.dim)
    phi = _real(phi, "phi")
    if not abs(phi) * max(-float(lam[0]), float(lam[-1])) <= sys.float_info.max:
        raise InvalidParameter(f"phi = {phi!r} times the generator's eigenvalues overflows")
    u = _evolution((lam, v), phi)
    if st.kind is Kind.KET:
        return QuantumObject._view(u @ _unit(st))
    if st.kind is Kind.BRA:
        return QuantumObject._view(_unit(st) @ u.conj().T)
    return QuantumObject._view(u @ st.data @ u.conj().T)


def classical_fisher(rho_of_phi: Callable[[float], object], mset, phi: float,
                     dphi: float = 1e-3) -> float:
    """Classical Fisher information of a measurement at phase phi.

    F = sum_k (d p_k / d phi)^2 / p_k with the derivative taken by central
    differences of step ``dphi``, which phi +- dphi must not round away;
    outcomes with p_k < 1e-12 are dropped.  ``mset`` is read by ``_set``.

    A set is scored as the mean of F over its measurements, each at most the
    quantum value: its declared groups (e.g. the bases of a MUB set, one
    picked at random per shot), elements outside them not counted, or else
    the whole set, refused with InvalidParameter unless its probabilities at
    phi sum to 1 within ``COMPLETENESS_TOL``.
    """
    from .measurement import COMPLETENESS_TOL, _set, probabilities  # not loaded by run_scenario
    rho_of_phi, mset = _typed(rho_of_phi, Callable, "rho_of_phi"), _set(mset)
    phi = _real(phi, "phi")
    dphi = _real(dphi, "finite-difference step", math.ulp(0.0))   # least positive float: refuses 0
    if phi + dphi == phi or phi - dphi == phi:
        raise InvalidParameter(f"finite-difference step {dphi!r} rounds away at phi = {phi!r}")
    p0 = probabilities(rho_of_phi(phi), mset)
    if not mset.groups and abs(p0.sum() - 1.0) > COMPLETENESS_TOL:
        raise InvalidParameter(f"a set without groups is scored as one measurement, but its "
                               f"probabilities sum to {p0.sum():.6g}")
    p_plus = probabilities(rho_of_phi(phi + dphi), mset)
    p_minus = probabilities(rho_of_phi(phi - dphi), mset)
    dp = (p_plus - p_minus) / (2 * dphi)
    terms = np.divide(dp**2, p0, out=np.zeros_like(p0), where=p0 > 1e-12)
    return float(np.mean(mset.group_sums(terms) if mset.groups else np.sum(terms)))


def quantum_fisher(rho, generator) -> float:
    """Quantum Fisher information of the state rho for the generator H.

    Uses the spectral form 2 sum_{m,n} (q_m - q_n)^2 / (q_m + q_n)
    |<m|H|n>|^2, skipping eigenvalue pairs with q_m + q_n <= 1e-12.
    """
    rho = _require_state(rho)
    h = _square(generator, "generator", rho.dim, hermitian=True)
    q, v = _spectrum(rho, "state")
    q = np.maximum(q, 0.0)
    q = q / q.sum()
    s = q[:, None] + q[None, :]
    ratio = np.divide((q[:, None] - q[None, :]) ** 2, s, out=np.zeros_like(s), where=s > 1e-12)
    with np.errstate(over="ignore", invalid="ignore"):    # an overflow is refused below
        ht = v.conj().T @ h @ v
        fisher = 2.0 * float(np.sum(ratio * np.abs(ht) ** 2))
    if not math.isfinite(fisher):
        raise InvalidParameter("quantum Fisher information overflows the float range")
    return fisher


def cramer_rao_bounds(F: float, Q: float, N: int = 1) -> tuple[float, float]:
    """Classical and quantum Cramer-Rao bounds (1/sqrt(NF), 1/sqrt(NQ)).

    Zero information yields ``math.inf`` as the unbounded flag.
    """
    F = _real(F, "classical Fisher information", -1e-12)
    Q = _real(Q, "quantum Fisher information", -1e-12)
    N = _draws(N, "repetition count")
    ccrb = 1.0 / math.sqrt(N * F) if F > 0 else math.inf
    qcrb = 1.0 / math.sqrt(N * Q) if Q > 0 else math.inf
    return ccrb, qcrb


def cat_state(j, theta: float, phi: float = 0.0) -> QuantumObject:
    """Normalized superposition of the spin coherent states at polar angles
    theta and pi - theta (same azimuth)."""
    theta = _real(theta, "theta", 0.0, math.pi)
    return normalize(spin_coherent(j, theta, phi) + spin_coherent(j, math.pi - theta, phi))


def _phase_grid(phis) -> np.ndarray:
    """``phis`` as floats: one row of at least two finite, strictly increasing phases."""
    phis = _reals(phis, "phase grid").astype(float, copy=False)
    if phis.size < 2:
        raise InvalidParameter(f"phase grid needs at least two points, got {phis.size}")
    if phis.ndim != 1 or not (np.diff(phis) > 0).all():
        raise InvalidParameter("phase grid must be one strictly increasing row of phases")
    return phis


def error_propagation(phis, expectation, second_moment) -> np.ndarray:
    """Precision Delta phi = sqrt(<A^2> - <A>^2) / |d<A>/d phi| on a grid.

    The derivative uses central differences (one-sided at the ends).
    Points where its magnitude is at or below 1e-12 are flagged undefined
    and returned as NaN rather than clipped to something finite.  Moments
    whose variance or derivative overflows raise InvalidParameter.
    """
    phis = _phase_grid(phis)
    e1, e2 = (_reals(m, "moments").astype(float, copy=False) for m in (expectation, second_moment))
    if phis.shape != e1.shape or phis.shape != e2.shape:
        raise DimensionMismatch("phase grid and moment arrays must align")
    with np.errstate(over="ignore", invalid="ignore"):    # an overflow is refused below
        deriv = np.gradient(e1, phis)
        var = e2 - e1**2
    if not np.isfinite((deriv, var)).all():
        raise InvalidParameter("moments overflow their variance or derivative")
    sigma = np.sqrt(np.maximum(var, 0.0))
    out = np.full(phis.shape, np.nan)
    mask = np.abs(deriv) > DERIVATIVE_CUTOFF
    out[mask] = sigma[mask] / np.abs(deriv[mask])
    return out


@dataclass(frozen=True)
class MetrologyScenario:
    """Probe + generator + phase grid + readout observable.

    The probe must be a state: a ket or bra (normalised on use) or a
    density matrix.
    """

    probe: QuantumObject
    generator: QuantumObject
    phis: np.ndarray
    observable: QuantumObject

    def __post_init__(self):
        probe, h, a = (QuantumObject(x) for x in (self.probe, self.generator, self.observable))
        _spectrum(h, "generator", probe.dim)             # kept on h for run_scenario
        _square(a, "observable", probe.dim, hermitian=True)
        _count(probe.dim, "scenario dimension", least=2)
        _require_state(probe)
        phis = _phase_grid(self.phis)
        # run_scenario holds the phases of each level at each point
        _fits(phis.size * probe.dim, 1, f"a phase grid of {phis.size} points")
        for name, value in (("probe", probe), ("generator", h), ("observable", a), ("phis", phis)):
            object.__setattr__(self, name, value)


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
    lam, v = _spectrum(_typed(scenario, MetrologyScenario, "scenario").generator, "generator")
    rho = v.conj().T @ density_matrix(scenario.probe) @ v
    a = v.conj().T @ scenario.observable.data @ v
    u = np.exp(-1j * np.outer(scenario.phis, lam))
    with np.errstate(over="ignore", invalid="ignore"):    # error_propagation refuses an overflow
        forms = np.stack([a.T * rho, (a @ a).T * rho])
        e1, e2 = np.einsum("pm,kmn,pn->kp", u, forms, u.conj()).real
    delta_phi = error_propagation(scenario.phis, e1, e2)   # raises before an overflow is used
    n_spins = lam.size - 1
    return PrecisionCurve(
        phis=scenario.phis,
        expectation=e1,
        variance=e2 - e1**2,
        delta_phi=delta_phi,
        sql=1.0 / math.sqrt(n_spins),
        hl=1.0 / n_spins,
    )
