"""Measurement engine: probabilities, post-measurement states, the four
built-in measurement sets, and the two stochastic simulation back-ends.

A measurement set is an ordered collection of PSD operators with optional
grouping metadata; each declared group is one complete POVM (its elements
resolve the identity).  The mc back-end estimates every outcome frequency
by accept/reject over uniform draws (one binomial variate per outcome);
the cdf back-end draws outcomes by inverse-transform sampling of the
per-group distribution using stratified uniforms, which is what makes it
the more accurate of the two at equal shot budget.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from ._sic_fiducials import fiducial
from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    InvalidObject,
    InvalidParameter,
    NotHermitian,
    OutcomeImpossible,
    RankDeficientSet,
    UnsupportedDimension,
)
from .qcore import (HERMITIAN_TOL, PSD_TOL, QuantumObject, _count, _dimension, _draws, _fits,
                    _qubit_count, _real, _reals, _require_state, _rng, _typed)

COMPLETENESS_TOL = 1e-8

# single-qubit polarization kets: horizontal/vertical, diagonal/antidiagonal,
# left/right circular
_POL = {
    "H": np.array([1, 0], dtype=complex),
    "V": np.array([0, 1], dtype=complex),
    "D": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "A": np.array([1, -1], dtype=complex) / np.sqrt(2),
    "L": np.array([1, 1j], dtype=complex) / np.sqrt(2),
    "R": np.array([1, -1j], dtype=complex) / np.sqrt(2),
}


def _stack(ops) -> np.ndarray:
    """New (K, d, d) complex array of the operators ``ops``, a sequence of d x d
    operators or a (K, d, d) array, converted once and scanned once for finiteness.
    Anything else raises InvalidObject, or DimensionMismatch for a shape; entries not
    all of one non-empty 2-d shape are read as QuantumObjects, each its own error first."""
    try:
        if not isinstance(ops, np.ndarray):
            ops = [e.data if isinstance(e, QuantumObject) else np.asarray(e) for e in ops]
            if len({a.shape for a in ops}) != 1 or ops[0].ndim != 2 or ops[0].size == 0:
                ops = [QuantumObject(a).data for a in ops]
                if len({a.shape for a in ops}) != 1:
                    raise DimensionMismatch(f"elements have shapes {[a.shape for a in ops]}")
        stack = np.array(ops, dtype=complex, order="C")
    except (TypeError, ValueError):
        raise InvalidObject(f"expected a sequence of operators, got {type(ops).__name__}") from None
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.size == 0:
        raise DimensionMismatch(f"element stack has shape {stack.shape}, want (K, d, d)")
    if not np.isfinite(stack).all():
        raise InvalidObject("operator entries must be finite")
    return stack


@dataclass(frozen=True, eq=False, init=False)
class MeasurementSet:
    """Ordered POVM elements plus the partition into completeness groups.

    The elements live in one read-only (K, d, d) complex array ``stack``, which
    the constructor copies from a sequence of d x d operators or a (K, d, d)
    array; ``elements``, a tuple of views into it, and ``_inversion``, the bordered
    inverse and coordinate gather of linear inversion (no view of the stack), are made
    on first read and kept.  Other modules ask a set for tr(E_k rho) and a least-squares
    rho only by :meth:`_forward` and :meth:`_estimate`.

    ``groups`` lists disjoint, non-empty index tuples whose elements sum to
    the identity (none for sets without that structure, e.g. Stoke); any
    other groups raise InvalidParameter.  They are stored as int tuples,
    and ``group_of`` holds each element's group, or -1.

    A set equals and hashes as itself only: two builds of one set are unequal.
    """

    kind: str
    groups: tuple[tuple[int, ...], ...]
    stack: np.ndarray = field(repr=False)
    dim: int = field(repr=False)
    group_of: np.ndarray = field(repr=False)
    # grouped element indices in group order, and the index rows the cdf
    # sampler draws: one (G, L) block when all groups have L elements
    _members: np.ndarray = field(repr=False)
    _blocks: tuple[np.ndarray, ...] = field(repr=False)

    def __init__(self, kind: str, elements, groups=()):
        self._adopt(_typed(kind, str, "set kind"), _stack(elements), groups)

    @classmethod
    def _built(cls, kind: str, stack: np.ndarray, groups=()) -> MeasurementSet:
        """Freeze and wrap, without copying or scanning, a finite C-ordered complex
        (K, d, d) stack computed from checked tables, like QuantumObject._view."""
        ms = cls.__new__(cls)
        ms._adopt(kind, stack, groups)
        return ms

    def _adopt(self, kind: str, stack: np.ndarray, groups) -> None:
        """Freeze ``stack`` and store it with ``kind`` and the layout of ``groups``."""
        self._lay_out(kind, *stack.shape[:2], groups)
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)

    def _lay_out(self, kind: str, k: int, d: int, groups) -> None:
        """Store ``kind``, the dimension ``d`` and the layout of ``groups`` over ``k``
        elements: all a set knows without reading its stack."""
        try:
            groups = tuple(tuple(operator.index(i) for i in idx) for idx in groups)
            members = np.array([i for idx in groups for i in idx], dtype=int)
        except (TypeError, OverflowError):
            raise InvalidParameter("groups must be sequences of integer indices") from None
        sizes = [len(idx) for idx in groups]
        if 0 in sizes:
            raise InvalidParameter(f"group {sizes.index(0)} is empty")
        if (bad := members[(members < 0) | (members >= k)]).size:
            raise InvalidParameter(f"group index {bad[0]} is outside 0..{k - 1}")
        if (seen := np.bincount(members, minlength=k)).max() > 1:
            raise InvalidParameter(f"element {seen.argmax()} is in more than one group")
        group_of = np.full(k, -1)
        group_of[members] = np.repeat(np.arange(len(groups)), sizes)
        blocks = ((members.reshape(len(groups), -1),) if len(set(sizes)) == 1 else
                  tuple(np.array([idx]) for idx in groups))
        for a in (members, group_of, *blocks):
            a.flags.writeable = False
        for name, value in (("kind", kind), ("dim", d), ("groups", groups),
                            ("group_of", group_of), ("_members", members), ("_blocks", blocks)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def elements(self) -> tuple[QuantumObject, ...]:
        return tuple(QuantumObject._view(m) for m in self.stack)

    @functools.cached_property
    def _inversion(self) -> tuple:
        """What :meth:`_estimate` needs of the set, made on first use and kept:
        (inverse, at, ta, sign, half).

        rho has the real coordinates y_a = tr(C_a rho) in the orthonormal Hermitian
        basis C_a: |i><i|, (|i><j| + |j><i|)/sqrt2 and i(|i><j| - |j><i|)/sqrt2 for
        i < j.  Re tr(X C_a) = (v[at] + sign v[ta]) half for any complex d x d X with
        (re, im) entries v, so M[k, a] = Re tr(E_k C_a) is one gather from the stack.
        The unit trace t.y = 1, t marking the d diagonal coordinates, borders the
        normal equations: [[M^T M, s t], [s t^T, 0]] [y; l] = [M^T f; s], with s the
        largest diagonal entry of M^T M: the row keeps the set's scale, so the rank test
        reads a set scaled by 1e-150 as at 1.  ``inverse`` is the first d^2 rows of the
        system's inverse with its last column times s, so y = inverse @ [M^T f; 1]; None
        when the system is singular, i.e. the elements do not span the traceless
        operators.  Refused by the size rule before anything is allocated.
        """
        d, n = self.dim, self.dim ** 2
        _fits(n + 1, 2, f"the {self.kind} set's inversion system")
        i, j = np.triu_indices(d, 1)
        diag, upper, lower = 2 * (d + 1) * np.arange(d), 2 * (d * i + j), 2 * (d * j + i)
        at = np.concatenate([diag, upper, upper + 1])
        ta = np.concatenate([diag, lower, lower + 1])
        sign = np.repeat([1.0, 1.0, -1.0], [d, len(i), len(i)])
        half = np.repeat([0.5, np.sqrt(0.5)], [d, 2 * len(i)])
        real = self.stack.view(float).reshape(len(self), -1)
        system = np.zeros((n + 1, n + 1))
        with np.errstate(over="ignore", invalid="ignore"):    # an overflow is refused below
            for start in range(0, len(self), 64):      # row blocks: M is never held whole
                m = (real[start:start + 64, at] + sign * real[start:start + 64, ta]) * half
                system[:n, :n] += m.T @ m
        if not np.isfinite(system).all():
            raise InvalidObject(f"{self.kind} set's Gram matrix overflows the float range")
        system[:d, n] = system[n, :d] = s = system.diagonal().max()
        inverse = None
        if np.linalg.matrix_rank(system, hermitian=True) == n + 1:
            system = np.linalg.inv(system)     # in its place: the build holds two systems at most
            inverse = system[:n] * np.append(np.ones(n), s)
        return inverse, at, ta, sign, half

    def _forward(self, rho: np.ndarray) -> np.ndarray:
        """Complex tr(E_k rho) for each element E_k of a d x d matrix ``rho``."""
        if (shape := self.stack.shape[1:]) != rho.shape:
            raise DimensionMismatch(f"operators have shape {shape}, state has {rho.shape}")
        # the batched form of the per-element trace: bit-identical to it, and
        # its cost grows with K d^2 without a BLAS call's fixed overhead
        return np.einsum("kij,ji->k", self.stack, rho)

    def _estimate(self, freqs: np.ndarray) -> np.ndarray:
        """Unprojected least-squares rho of unit trace from K finite real frequencies,
        renormalised per group on a copy first, and Hermitian by construction as U + U^dag;
        RankDeficientSet if the elements do not span the traceless operators, InvalidObject
        if their Gram matrix overflows, UnsupportedDimension if their inversion system is past
        the size rule.  An overflow of the frequencies leaves rho not finite."""
        inverse, at, ta, sign, half = self._inversion
        d = self.dim
        if inverse is None:
            raise RankDeficientSet(f"{self.kind} set with {len(self)} elements does not "
                                   f"determine a {d}-dimensional state")
        f = freqs.astype(float)                               # a copy, renormalised in place
        sums = self.group_sums(f)
        sums = np.where(sums > 0, sums, 1.0)
        sums[sums == np.inf] = np.nan       # a sum past the float range leaves rho not finite
        # each element over its group's sum; an ungrouped one (group -1) over the trailing 1.0
        f /= np.append(sums, 1.0)[self.group_of]
        a = f @ self.stack.view(float).reshape(len(self), -1)    # sum_k f_k E_k, interleaved
        y = inverse @ np.append((a[at] + sign * a[ta]) * half, 1.0)
        u = np.zeros(2 * d * d)
        u[at] = half * y                    # rho = U + U^dag, U upper with half its diagonal
        u = u.view(complex).reshape(d, d)
        return u + u.conj().T

    def group_sums(self, values) -> np.ndarray:
        """(G,) sums of ``values`` (one per element) over each group, each
        added up in its group's element order."""
        if (v := _reals(values, "group values")).shape != (len(self),):
            raise DimensionMismatch(f"{v.shape} group values for {len(self)} elements")
        m = self._members
        return np.bincount(self.group_of[m], weights=v[m], minlength=len(self.groups))

    def __len__(self) -> int:
        return len(self.group_of)

    def validate(self) -> None:
        """Check PSD-ness of every element and completeness of every group."""
        s = self.stack
        asym = np.max(np.abs(s - s.conj().transpose(0, 2, 1)), axis=(1, 2))
        lo = np.linalg.eigvalsh(s).min(axis=1)
        bad = np.flatnonzero((asym > HERMITIAN_TOL) | (lo < -PSD_TOL))
        if bad.size:
            i = bad[0]
            if asym[i] > HERMITIAN_TOL:
                raise NotHermitian(f"element {i} is not Hermitian")
            raise InvalidParameter(f"element {i} has eigenvalue {lo[i]:.3e} < -{PSD_TOL}")
        eye = np.eye(self.dim)
        for g, idx in enumerate(self.groups):
            dev = np.max(np.abs(s[list(idx)].sum(axis=0) - eye))
            if dev > COMPLETENESS_TOL:
                raise InvalidParameter(f"group {g} misses identity by {dev:.3e}")


@dataclass(frozen=True)
class MeasurementOutcome:
    """Outcome probabilities aligned with the element order, plus the
    conditional post-measurement states when Kraus operators were given
    (None at impossible outcomes)."""

    probabilities: np.ndarray
    post_states: tuple[QuantumObject | None, ...] | None = None


@dataclass(frozen=True)
class SamplerBackend:
    """Configuration of an outcome simulator.

    method 'mc' runs accept/reject with ``iterations`` uniform draws per
    element (one binomial variate); method 'cdf' inverse-transform samples
    each group.  The seed fixes the whole sampling stream, so equal
    configuration and inputs replay bit-exactly.  ``iterations`` doubles as
    the default shot budget when the caller does not pass one.
    """

    method: str
    seed: int = 0
    iterations: int = 1000

    def __post_init__(self):
        if not (isinstance(self.method, str) and self.method in ("mc", "cdf")):
            raise InvalidParameter(f"backend method must be 'mc' or 'cdf', got {self.method!r}")
        object.__setattr__(self, "seed", _count(self.seed, "seed", least=0))
        object.__setattr__(self, "iterations", _draws(self.iterations, "iterations"))

    def rng(self) -> np.random.Generator:
        return _rng(self.seed)


def _set(ops) -> MeasurementSet:
    """The one reading of a set argument: a MeasurementSet passes through, anything
    else becomes an ungrouped ``custom`` set."""
    if isinstance(ops, MeasurementSet):
        return ops
    return MeasurementSet(kind="custom", elements=ops)


def probabilities(state, observables) -> np.ndarray:
    """tr(E_k rho) for each operator E_k, as real numbers.

    ``observables`` is a set or any sequence of operators, read by :func:`_set`
    and evaluated by its ``_forward``.  For POVM elements the result is the outcome
    distribution; for Hermitian observables it is the expectation values.  An
    imaginary residue above 1e-10 (non-Hermitian operator on a state) raises.
    """
    rho = _require_state(state).data
    v = _set(observables)._forward(rho)
    residue = np.abs(v.imag)
    if residue.max() > 1e-10:
        raise NotHermitian(f"tr(E rho) has imaginary residue {v.imag[residue.argmax()]:.3e}")
    return v.real.copy()


def post_measurement_state(state, kraus) -> tuple[QuantumObject, float]:
    """Conditional state M rho M^dag / p and its probability p = tr(M^dag M rho)."""
    out = measure(state, [kraus])
    p = float(out.probabilities[0])
    if p <= 1e-14:
        raise OutcomeImpossible(f"outcome probability {p:.3e} is (numerically) zero")
    return out.post_states[0], p


def measure(state, kraus_ops: Sequence) -> MeasurementOutcome:
    """Full general measurement: probabilities and conditional states."""
    rho = _require_state(state).data
    ks = _stack(kraus_ops)
    if ks.shape[1:] != rho.shape:
        raise DimensionMismatch(f"kraus shape {ks.shape[1:]}, state shape {rho.shape}")
    with np.errstate(over="ignore", invalid="ignore"):        # an overflow is refused below
        unnormalized = ks @ rho @ ks.conj().transpose(0, 2, 1)     # M rho M^dag
    if not np.isfinite(unnormalized).all():
        raise InvalidObject("Kraus products M rho M^dag overflow the float range")
    probs = np.real(np.trace(unnormalized, axis1=1, axis2=2))
    posts = tuple(QuantumObject(s / p) if p > 1e-14 else None
                  for s, p in zip(unnormalized, probs))
    return MeasurementOutcome(probabilities=probs, post_states=posts)


def _projectors(kets: np.ndarray) -> np.ndarray:
    """C-ordered (K, d, d) stack of the outer products |v><v| of the rows of ``kets``."""
    return np.multiply(kets[:, :, None], kets.conj()[:, None, :], order="C")


def _product_projectors(letters: str, n: int) -> np.ndarray:
    """(K, d, d) projectors onto the Kronecker products of the kets named by
    ``letters``, one per n-letter word in itertools.product order."""
    kets = single = np.array([_POL[c] for c in letters])
    for _ in range(n - 1):
        kets = np.einsum("ai,bj->abij", kets, single).reshape(len(kets) * len(single), -1)
    return _projectors(kets)


def build_pauli_set(n: int) -> MeasurementSet:
    """Pauli measurement set on n qubits: 6^n projectors in 3^n POVM groups.

    Single-qubit factors run over H, V, D, A, L, R in that order; groups
    pair the two outcomes of each of the 3^n basis choices.
    """
    n = _qubit_count(n, 24, "Pauli set")            # K d^2 = 6^n 4^n entries
    elements = _product_projectors("HVDALR", n)
    # outcome o of basis b is letter 2b + o; an element's letters are its
    # index in base 6, most significant first
    bases = np.array(list(itertools.product(range(3), repeat=n)))
    bits = np.array(list(itertools.product(range(2), repeat=n)))
    index = (2 * bases[:, None, :] + bits[None, :, :]) @ 6 ** np.arange(n - 1, -1, -1)
    return MeasurementSet._built("pauli", elements, index)


def build_stoke_set(n: int) -> MeasurementSet:
    """Stoke polarization set on n qubits: 4^n projectors (H, V, D, R factors).

    The four single-qubit projectors do not resolve the identity, so no
    completeness groups are declared.
    """
    n = _qubit_count(n, 16, "Stoke set")            # K d^2 = 4^n 4^n entries
    return MeasurementSet._built("stoke", _product_projectors("HVDR", n))


def _field(p: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """GF(p^m) as (mul, tr): element i is the polynomial with the base-p digits of i
    as coefficients of t^0..t^(m-1), ``mul[i, j]`` the index of i j modulo the first
    monic degree-m polynomial whose table has no zero divisor, ``tr[i]`` its trace."""
    powers = p ** np.arange(m)
    digits = np.arange(p ** m)[:, None] // powers % p
    for low in digits:                                  # the modulus t^m + low . (1, ..., t^(m-1))
        red = list(np.eye(m, dtype=int))                # red[k]: t^k reduced, k < 2m - 1
        for _ in range(m - 1):
            red.append((np.append(0, red[-1][:-1]) - red[-1][-1] * low) % p)
        products = np.array(red)[np.add.outer(range(m), range(m))]     # t^i t^j
        mul = np.einsum("xi,yj,ijk->xyk", digits, digits, products) % p @ powers
        if mul[1:, 1:].all():
            break
    # tr is GF(p)-linear, and tr(t^k) is the trace of multiplication by t^k over GF(p)
    return mul, digits @ digits[mul[np.ix_(powers, powers)], np.arange(m)].sum(axis=1) % p


def _self_dual(mul: np.ndarray, tr: np.ndarray, m: int, basis=()) -> list | None:
    """A self-dual basis of GF(2^m) extending ``basis``, by backtracking over the
    trace-one elements (tr(x x) = tr(x) at p = 2); orthonormal elements are independent."""
    if len(basis) == m:
        return list(basis)
    for x in range(basis[-1] + 1 if basis else 1, len(tr)):
        if tr[x] and not tr[mul[x, list(basis)]].any():
            if found := _self_dual(mul, tr, m, (*basis, x)):
                return found
    return None


def _mub_bases(d: int) -> np.ndarray:
    """(d + 1, d, d) kets of the d + 1 mutually unbiased bases of a prime power
    d = p^m, or UnsupportedDimension: basis 0 is the computational one, and
    vector b of basis a + 1 (a, b, x in GF(d)) is v[x] = u^q_a(x) w^tr(b x) / sqrt d.

    Odd p (Wootters and Fields): q_a(x) = tr(a x^2), u = w = exp(2 pi i / p).
    p = 2 (Klappenecker and Roetteler): q_a(x) = c^T [tr(a e_i e_j)] c over the
    integers mod 4, with c the coordinates c_i = tr(x e_i) of x in a self-dual
    basis e (tr(e_i e_j) = delta_ij), u = i and w = -1.
    """
    p = next((q for q in range(2, d + 1) if d % q == 0), 2)      # the least prime factor
    m = next(k for k in itertools.count(1) if p ** k >= d)
    if p ** m != d:
        raise UnsupportedDimension(f"MUB sets need a prime-power dimension, got {d}")
    mul, tr = _field(p, m)
    linear = tr[mul]                                    # [b, x]: tr(b x)
    if p == 2:
        e = _self_dual(mul, tr, m)
        c, form = tr[mul[:, e]], tr[mul[:, mul[np.ix_(e, e)]]]     # [x, i], [a, i, j]
        q = np.einsum("xi,aij,xj->ax", c, form, c)
        phases = np.array((1, 1j, -1, complex(0.0, -1.0)))[(q[:, None] + 2 * linear) % 4]
    else:
        om = np.exp(2j * np.pi / p)
        q = tr[mul[:, mul.diagonal()]]                  # [a, x]: tr(a x^2)
        phases = np.array([om ** k for k in range(p)])[(q[:, None] + linear) % p]
    return np.concatenate([np.eye(d, dtype=complex)[None], phases / np.sqrt(d)])


def build_mub_set(d: int) -> MeasurementSet:
    """Mutually unbiased bases set: d+1 groups of d rank-1 projectors.

    Any prime power d whose (d + 1) d^3 entries fit the stack limit (2 to 89),
    from the finite-field construction of :func:`_mub_bases`; group a is basis a.
    d = 2, 3, 5 and 7 give the bits of the earlier Pauli-eigenbasis and
    Gauss-sum tables; d = 4 gives the earlier hand table's 20 projectors,
    reordered as [0-7, 9, 8, 11, 10, 17, 16, 19, 18, 13, 12, 15, 14] of it.
    """
    d = _dimension(d, 4)                                # K d^2 = (d + 1) d^3 entries
    kets = _mub_bases(d)
    return MeasurementSet._built("mub", _projectors(kets.reshape(-1, d)),
                                 np.arange(len(kets) * d).reshape(-1, d))


def weyl_displacement(d: int, j: int, k: int) -> QuantumObject:
    """Weyl-Heisenberg displacement D_{j,k} on C^d.

    D_{j,k} = e^{i pi j k / d} sum_m omega^{j m} |k+m mod d><m| with
    omega = exp(2 pi i / d); the half-integer power of omega is taken on
    the principal branch.  All D_{j,k} are unitary.
    """
    d = _dimension(d, 2)
    if not (_count(j, "j", least=0) < d and _count(k, "k", least=0) < d):
        raise InvalidParameter(f"need 0 <= j,k < d, got j={j}, k={k}, d={d}")
    om = np.exp(2j * np.pi / d)
    mat = np.zeros((d, d), dtype=complex)
    for m in range(d):
        mat[(k + m) % d, m] = om ** (j * m)
    return QuantumObject(np.exp(1j * np.pi * j * k / d) * mat)


@functools.lru_cache(maxsize=None)
def _sic_orbit(d: int) -> np.ndarray:
    """Read-only (d^2, d) kets h_jk = D_{j,k} |phi_d> of the embedded fiducial,
    built and checked against |<h|h'>|^2 = 1/(d+1) once per dimension."""
    phi = fiducial(d)
    vecs = np.array([weyl_displacement(d, j, k).data @ phi
                     for j in range(d) for k in range(d)])
    target = 1.0 / (d + 1)
    overlaps = (np.abs(vecs.conj() @ vecs.T) ** 2)[~np.eye(d * d, dtype=bool)]
    worst = overlaps[np.argmax(np.abs(overlaps - target))]
    if abs(worst - target) > 1e-6:
        raise InvalidParameter(f"embedded d={d} fiducial fails the SIC condition: "
                               f"|overlap|^2 = {worst:.3e}, want {target:.3e}")
    vecs.flags.writeable = False
    return vecs


def build_sic_set(d: int) -> MeasurementSet:
    """Symmetric informationally complete POVM: d^2 elements, one group.

    Elements are (1/d) |h_jk><h_jk| over the orbit of :func:`_sic_orbit`
    (d in 2..8), which is verified before any set is handed out.
    """
    d = _count(d, "dimension")
    return MeasurementSet._built("sic", _projectors(_sic_orbit(d)) / d, (tuple(range(d * d)),))


def sample_mc(p: float, iterations: int, rng=None) -> float:
    """Accept/reject frequency estimate of a probability p.

    The fraction of ``iterations`` uniforms below p, its count drawn as one
    Binomial(iterations, p) variate, so none is held.  The endpoints are
    exact and draw nothing: p = 0 gives 0.0 and p = 1 gives 1.0.
    """
    p = _real(p, "probability", 0.0, 1.0)
    iterations = _draws(iterations, "iterations")
    return float(_independent_frequencies("mc", p, iterations, _rng(rng)))


def sample_cdf_continuous(inverse_cdf: Callable, shots: int, rng=None) -> np.ndarray:
    """Inverse-transform draws y_i = F^{-1}(r_i) from i.i.d. uniforms."""
    inverse_cdf, shots = _typed(inverse_cdf, Callable, "inverse_cdf"), _draws(shots, "shots")
    _fits(shots, 1, "holding every draw")
    return np.asarray(inverse_cdf(_rng(rng).random(shots)))


def _stratified_counts(p: np.ndarray, shots: int, g: np.random.Generator) -> np.ndarray:
    """Counts of the stratified uniforms r_i = (i + u_i)/shots under the CDF of each
    row of the (R, K) distributions ``p`` (finite, non-negative, summing to 1 within
    1e-8: a CDF ends at its own total t, by which the r_i scale).  Boundary cum[k]
    falls in stratum s = floor(x) of x = shots * (cum[k] / t), so s + [u_s < x - s]
    of the r_i lie below it, or all shots once s = shots.  Only those u_s are drawn,
    one per distinct stratum of a row, rows in order, in one g.random call."""
    if not p.min() >= -1e-12:
        raise InvalidDistribution(f"negative or NaN probability {p.min():.3e}")
    total = p.sum(axis=1)
    if (off := np.abs(total - 1.0)).max() > 1e-8:
        raise InvalidDistribution(f"probabilities sum to {total[off.argmax()]:.10f}, not 1")
    cum = np.cumsum(np.maximum(p, 0.0), axis=1)
    x = shots * (cum / cum[:, -1:])
    s = np.floor(x)
    inside = s < shots
    fresh = inside & (np.diff(s, axis=1, prepend=-1.0) > 0)     # s never falls along a row
    taken = np.cumsum(fresh)                 # row-major: each boundary's draw, 0 before any
    u = np.concatenate(([1.0], g.random(taken[-1])))[taken].reshape(x.shape)
    below = np.where(inside, s + (u < x - s), shots).astype(np.int64)
    return np.diff(below, axis=1, prepend=0)


def sample_cdf_discrete(probs, shots: int, rng=None) -> np.ndarray:
    """Outcome counts from inverse-transform sampling of a discrete distribution.

    Uses stratified uniforms r_i = (i + u_i)/shots, so each count deviates
    from shots * p_k by at most one stratum; zero-probability outcomes are
    never produced.  Counts always sum to ``shots``.
    """
    p = _reals(probs, "probabilities", InvalidDistribution).astype(float, copy=False)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistribution("probability vector must be 1-d and non-empty")
    return _stratified_counts(p[None], _draws(shots, "shots"), _rng(rng))[0]


def _independent_frequencies(method: str, probs, n: int, g: np.random.Generator) -> np.ndarray:
    """Each of the non-empty ``probs``, clipped to [0, 1], estimated on its own from n
    shots off g in turn: one binomial variate each for 'mc', else {1 - p, p} cdf counts."""
    p = np.clip(probs, 0.0, 1.0)
    if method == "mc":
        # NumPy draws a uniform even for Binomial(n, 1) = n, so p = 1 draws from n = 0
        return g.binomial(n * (p < 1.0), p) / n + (p == 1.0)
    return _stratified_counts(np.stack([1.0 - p, p], axis=1), n, g)[:, 1] / n


def measure_and_sample(state, mset, backend: SamplerBackend,
                       shots: int | None = None) -> np.ndarray:
    """Simulated outcome frequencies aligned with the elements of ``mset`` (see :func:`_set`).

    Exact probabilities are computed first, then simulated per back-end:
    'mc' estimates each element independently; 'cdf' samples each declared
    group as one discrete distribution (ungrouped elements fall back to a
    two-outcome {1-E, E} distribution).  ``shots`` defaults to the
    backend's iteration count.  'mc' draws one binomial variate per element
    in turn; 'cdf' runs the stream over the groups, then the ungrouped
    elements, one uniform per stratum that holds a CDF boundary.
    """
    backend, mset = _typed(backend, SamplerBackend, "backend"), _set(mset)
    probs = probabilities(state, mset)
    n = _draws(shots if shots is not None else backend.iterations, "shots")
    g = backend.rng()
    if backend.method == "mc":
        return _independent_frequencies("mc", probs, n, g)
    freqs = np.empty(len(mset))
    for idx in mset._blocks:
        pg = np.maximum(probs[idx], 0.0)
        if not (total := pg.sum(axis=1, keepdims=True)).all():
            group = mset.group_of[idx[total.argmin(), 0]]
            raise InvalidDistribution(f"group {group} has total probability 0 in this state")
        freqs[idx] = _stratified_counts(pg / total, n, g) / n
    if (rest := np.flatnonzero(mset.group_of < 0)).size:
        freqs[rest] = _independent_frequencies("cdf", probs[rest], n, g)
    return freqs


def timed_measurement(state, mset) -> tuple[np.ndarray, float]:
    """Probabilities plus the wall-clock seconds spent computing them."""
    t0 = time.perf_counter()
    probs = probabilities(state, mset)
    return probs, time.perf_counter() - t0
