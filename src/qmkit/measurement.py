"""Measurement engine: probabilities, post-measurement states, the four
built-in measurement sets, and the two stochastic simulation back-ends.

A measurement set is an ordered collection of PSD operators with optional
grouping metadata; each declared group is one complete POVM (its elements
resolve the identity).  The mc back-end estimates every outcome frequency
by accept/reject over uniform draws; the cdf back-end draws outcomes by
inverse-transform sampling of the per-group distribution using stratified
uniforms, which is what makes it the more accurate of the two at equal
shot budget.
"""

from __future__ import annotations

import bisect
import itertools
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ._mub_tables import mub_bases
from ._rng import as_rng
from ._sic_fiducials import fiducial
from .errors import (
    DimensionMismatch,
    InvalidDistribution,
    InvalidParameter,
    NotHermitian,
    OutcomeImpossible,
    UnsupportedDimension,
)
from .qcore import HERMITIAN_TOL, QuantumObject, density_matrix

PSD_TOL = 1e-10
COMPLETENESS_TOL = 1e-8
MAX_STACK_BYTES = 2**30    # largest (K, d, d) product-set stack: Pauli n <= 5, Stoke n <= 6
# cost of one CDF crossing on the cdf sampler's skip path, in draws of its full
# path; a row with more than shots / SKIP crossings is drawn in full
SKIP = 640

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


@dataclass(frozen=True)
class MeasurementSet:
    """Ordered POVM elements plus the partition into completeness groups.

    The elements live in one read-only (K, d, d) complex array ``stack``;
    ``elements`` holds views into it.  The constructor copies a sequence of
    d x d operators into a new stack, or adopts and freezes a (K, d, d) array.

    ``groups`` lists disjoint, non-empty index tuples whose elements sum to
    the identity (none for sets without that structure, e.g. Stoke); any
    other groups raise InvalidParameter.  They are stored as int tuples,
    and ``group_of`` holds each element's group, or -1.
    """

    kind: str
    elements: tuple[QuantumObject, ...]
    groups: tuple[tuple[int, ...], ...] = ()
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    group_of: np.ndarray = field(init=False, repr=False, compare=False)
    # grouped element indices in group order, and the index rows the cdf
    # sampler draws: one (G, L) block when all groups have L elements
    _members: np.ndarray = field(init=False, repr=False, compare=False)
    _blocks: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)
    # linear-inversion data, built by the first reconstruction from this set
    _inversion: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        mats = self.elements
        if not isinstance(mats, np.ndarray):
            mats = [QuantumObject(e).data for e in mats]
            if len({m.shape for m in mats}) != 1:
                raise DimensionMismatch(f"elements have shapes {[m.shape for m in mats]}")
        stack = np.ascontiguousarray(mats, dtype=complex)
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.size == 0:
            raise DimensionMismatch(f"element stack has shape {stack.shape}, want (K, d, d)")
        stack.flags.writeable = False
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "elements", tuple(QuantumObject._view(m) for m in stack))
        try:
            groups = tuple(tuple(operator.index(i) for i in idx) for idx in self.groups)
            members = np.array([i for idx in groups for i in idx], dtype=int)
        except (TypeError, OverflowError):
            raise InvalidParameter("groups must be sequences of integer indices") from None
        k, sizes = len(self), [len(idx) for idx in groups]
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
        for name, value in (("groups", groups), ("group_of", group_of),
                            ("_members", members), ("_blocks", blocks)):
            object.__setattr__(self, name, value)

    def group_sums(self, values) -> np.ndarray:
        """(G,) sums of ``values`` (one per element) over each group, each
        added up in its group's element order."""
        m = self._members
        return np.bincount(self.group_of[m], weights=np.asarray(values, dtype=float)[m],
                           minlength=len(self.groups))

    def __len__(self) -> int:
        return self.stack.shape[0]

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def validate(self, psd_tol: float = PSD_TOL,
                 completeness_tol: float = COMPLETENESS_TOL) -> None:
        """Check PSD-ness of every element and completeness of every group."""
        s = self.stack
        asym = np.max(np.abs(s - s.conj().transpose(0, 2, 1)), axis=(1, 2))
        lo = np.linalg.eigvalsh(s).min(axis=1)
        bad = np.flatnonzero((asym > HERMITIAN_TOL) | (lo < -psd_tol))
        if bad.size:
            i = bad[0]
            if asym[i] > HERMITIAN_TOL:
                raise NotHermitian(f"element {i} is not Hermitian")
            raise InvalidParameter(f"element {i} has eigenvalue {lo[i]:.3e} < -{psd_tol}")
        eye = np.eye(self.dim)
        for g, idx in enumerate(self.groups):
            dev = np.max(np.abs(s[list(idx)].sum(axis=0) - eye))
            if dev > completeness_tol:
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
    element; method 'cdf' inverse-transform samples each group.  The seed
    fixes the whole sampling stream, so equal configuration and inputs
    replay bit-exactly.  ``iterations`` doubles as the default shot budget
    when the caller does not pass one.
    """

    method: str
    seed: int = 0
    iterations: int = 1000

    def __post_init__(self):
        if self.method not in ("mc", "cdf"):
            raise InvalidParameter(f"backend method must be 'mc' or 'cdf', got {self.method!r}")
        _count(self.iterations, "iteration count")

    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


def probabilities(state, observables) -> np.ndarray:
    """tr(E_k rho) for each operator E_k, as real numbers.

    ``observables`` may be a MeasurementSet or any sequence of operators.
    For POVM elements the result is the outcome distribution; for Hermitian
    observables it is the expectation values.  An imaginary residue above
    1e-10 (non-Hermitian operator on a state) raises.
    """
    rho = density_matrix(state)
    if not isinstance(observables, MeasurementSet):
        observables = MeasurementSet(kind="custom", elements=tuple(observables))
    stack = observables.stack
    if stack.shape[1:] != rho.shape:
        raise DimensionMismatch(f"operators have shape {stack.shape[1:]}, state has {rho.shape}")
    # the batched form of the per-element trace: bit-identical to it, and
    # its cost grows with K d^2 without a BLAS call's fixed overhead
    v = np.einsum("kij,ji->k", stack, rho)
    residue = np.abs(v.imag)
    if residue.max() > 1e-10:
        raise NotHermitian(f"tr(E rho) has imaginary residue {v.imag[residue.argmax()]:.3e}")
    return v.real.copy()


def post_measurement_state(state, kraus) -> tuple[QuantumObject, float]:
    """Conditional state M rho M^dag / p and its probability p = tr(M^dag M rho)."""
    rho = density_matrix(state)
    m = QuantumObject(kraus).data
    if m.shape != rho.shape:
        raise DimensionMismatch(f"kraus shape {m.shape}, state shape {rho.shape}")
    out = measure(rho, [m])
    p = float(out.probabilities[0])
    if p <= 1e-14:
        raise OutcomeImpossible(f"outcome probability {p:.3e} is (numerically) zero")
    return out.post_states[0], p


def measure(state, kraus_ops: Sequence) -> MeasurementOutcome:
    """Full general measurement: probabilities and conditional states."""
    rho = density_matrix(state)
    ks = np.array([QuantumObject(m).data for m in kraus_ops])
    unnormalized = ks @ rho @ ks.conj().transpose(0, 2, 1)     # M rho M^dag
    probs = np.real(np.trace(unnormalized, axis1=1, axis2=2))
    posts = tuple(QuantumObject(s / p) if p > 1e-14 else None
                  for s, p in zip(unnormalized, probs))
    return MeasurementOutcome(probabilities=probs, post_states=posts)


def _projectors(kets: np.ndarray) -> np.ndarray:
    """(K, d, d) stack of the outer products |v><v| of the rows of ``kets``."""
    return kets[:, :, None] * kets.conj()[:, None, :]


def _product_projectors(letters: str, n: int) -> np.ndarray:
    """(K, d, d) projectors onto the Kronecker products of the kets named by
    ``letters``, one per n-letter word in itertools.product order; refused
    over MAX_STACK_BYTES before anything is built."""
    nbytes = (len(letters) * 4) ** n * 16          # K d^2 complex entries
    if nbytes > MAX_STACK_BYTES:
        raise UnsupportedDimension(f"a {n}-qubit {letters} product set needs a "
                                   f"{nbytes / 2**30:.3g} GiB stack, over the 1 GiB limit")
    kets = single = np.array([_POL[c] for c in letters])
    for _ in range(n - 1):
        kets = np.einsum("ai,bj->abij", kets, single).reshape(len(kets) * len(single), -1)
    return _projectors(kets)


def build_pauli_set(n: int) -> MeasurementSet:
    """Pauli measurement set on n qubits: 6^n projectors in 3^n POVM groups.

    Single-qubit factors run over H, V, D, A, L, R in that order; groups
    pair the two outcomes of each of the 3^n basis choices.
    """
    if n < 1:
        raise InvalidParameter(f"need n >= 1 qubits, got {n}")
    elements = _product_projectors("HVDALR", n)
    # outcome o of basis b is letter 2b + o; an element's letters are its
    # index in base 6, most significant first
    bases = np.array(list(itertools.product(range(3), repeat=n)))
    bits = np.array(list(itertools.product(range(2), repeat=n)))
    index = (2 * bases[:, None, :] + bits[None, :, :]) @ 6 ** np.arange(n - 1, -1, -1)
    return MeasurementSet(kind="pauli", elements=elements, groups=index)


def build_stoke_set(n: int) -> MeasurementSet:
    """Stoke polarization set on n qubits: 4^n projectors (H, V, D, R factors).

    The four single-qubit projectors do not resolve the identity, so no
    completeness groups are declared.
    """
    if n < 1:
        raise InvalidParameter(f"need n >= 1 qubits, got {n}")
    return MeasurementSet(kind="stoke", elements=_product_projectors("HVDR", n))


def build_mub_set(d: int) -> MeasurementSet:
    """Mutually unbiased bases set: d+1 groups of d rank-1 projectors.

    Supported at d in {2, 3, 4, 5, 7}.
    """
    bases = mub_bases(d)
    return MeasurementSet(kind="mub", elements=_projectors(np.concatenate([B.T for B in bases])),
                          groups=np.arange(len(bases) * d).reshape(-1, d))


def weyl_displacement(d: int, j: int, k: int) -> QuantumObject:
    """Weyl-Heisenberg displacement D_{j,k} on C^d.

    D_{j,k} = e^{i pi j k / d} sum_m omega^{j m} |k+m mod d><m| with
    omega = exp(2 pi i / d); the half-integer power of omega is taken on
    the principal branch.  All D_{j,k} are unitary.
    """
    if not (0 <= j < d and 0 <= k < d):
        raise InvalidParameter(f"need 0 <= j,k < d, got j={j}, k={k}, d={d}")
    om = np.exp(2j * np.pi / d)
    mat = np.zeros((d, d), dtype=complex)
    for m in range(d):
        mat[(k + m) % d, m] = om ** (j * m)
    return QuantumObject(np.exp(1j * np.pi * j * k / d) * mat)


_VERIFIED_SIC: set[int] = set()


def build_sic_set(d: int) -> MeasurementSet:
    """Symmetric informationally complete POVM: d^2 elements, one group.

    Elements are (1/d) |h_jk><h_jk| with |h_jk> = D_{j,k} |phi_d> over the
    embedded fiducial vectors (d in 2..8).  The first build at each
    dimension re-verifies the pairwise overlap condition
    |<h|h'>|^2 = 1/(d+1) before the set is handed out.
    """
    phi = fiducial(d)
    vecs = np.array([weyl_displacement(d, j, k).data @ phi
                     for j in range(d) for k in range(d)])
    if d not in _VERIFIED_SIC:
        target = 1.0 / (d + 1)
        overlaps = (np.abs(vecs.conj() @ vecs.T) ** 2)[~np.eye(d * d, dtype=bool)]
        worst = overlaps[np.argmax(np.abs(overlaps - target))]
        if abs(worst - target) > 1e-6:
            raise InvalidParameter(
                f"embedded d={d} fiducial fails the SIC condition: "
                f"|overlap|^2 = {worst:.3e}, want {target:.3e}"
            )
        _VERIFIED_SIC.add(d)
    return MeasurementSet(kind="sic", elements=_projectors(vecs) / d,
                          groups=(tuple(range(d * d)),))


def _count(value, name: str) -> int:
    """``value`` as an int >= 1 (NumPy integers pass), else InvalidParameter."""
    try:
        if (n := operator.index(value)) >= 1:
            return n
    except TypeError:
        pass
    raise InvalidParameter(f"{name} must be an integer >= 1, got {value!r}")


def _can_skip(g: np.random.Generator) -> bool:
    """Whether advance(n) leaves g where n random() doubles would (PCG64, no half-word)."""
    return (type(g) is np.random.Generator and type(g.bit_generator) is np.random.PCG64
            and not g.bit_generator.state["has_uint32"])


def sample_mc(p: float, iterations: int, rng=None) -> float:
    """Accept/reject frequency estimate of a probability p.

    Draws ``iterations`` uniforms and returns the fraction falling below
    p.  The endpoints are exact: p = 0 gives 0.0 and p = 1 gives 1.0.
    """
    if not (0.0 <= p <= 1.0):
        raise InvalidParameter(f"probability must be in [0, 1], got {p}")
    iterations = _count(iterations, "iterations")
    g = as_rng(rng)
    if (p == 0.0 or p == 1.0) and _can_skip(g):
        g.bit_generator.advance(iterations)     # every draw would agree
        return float(p == 1.0)
    return float(np.count_nonzero(g.random(iterations) < p)) / iterations


def sample_cdf_continuous(inverse_cdf: Callable, shots: int, rng=None) -> np.ndarray:
    """Inverse-transform draws y_i = F^{-1}(r_i) from i.i.d. uniforms."""
    return np.asarray(inverse_cdf(as_rng(rng).random(_count(shots, "shots"))))


def _cumulative(p: np.ndarray) -> np.ndarray:
    """Row-wise CDFs of the (R, K) distributions ``p``, each row checked to
    be finite, non-negative and to sum to 1."""
    if not p.min() >= -1e-12:
        raise InvalidDistribution(f"negative or NaN probability {p.min():.3e}")
    total = p.sum(axis=1)
    if (off := np.abs(total - 1.0)).max() > 1e-8:
        raise InvalidDistribution(f"probabilities sum to {total[off.argmax()]:.10f}, not 1")
    p = np.maximum(p, 0.0)
    return np.cumsum(p / p.sum(axis=1, keepdims=True), axis=1)


def _stratified_counts(cum: np.ndarray, shots: int, g: np.random.Generator) -> np.ndarray:
    """Counts of the stratified uniforms r_i = (i + u_i)/shots under each row
    of the (R, K) CDFs ``cum``, rows taking ``shots`` uniforms each from g.
    The r_i are sorted, so below[k] = #{i: r_i * cum[-1] < cum[k]} is where
    they cross cum[k]; if g can skip, a sparse row draws only around there."""
    below = np.full(cum.shape, shots)
    bitgen, random, skip = g.bit_generator, g.random, _can_skip(g)
    pos, w = 0, []                           # draws taken; the last ones, up to pos
    for r, row in enumerate(cum.tolist()):
        base, t = r * shots, row[-1]
        # cum[:m] < t are the crossed boundaries; the rest count every draw, so
        # one that rounds up to t goes to the last outcome of nonzero probability
        m = bisect.bisect_left(row, t)
        if not (skip and m * SKIP <= shots):
            if base > pos:
                bitgen.advance(base - pos)
            a = ((np.arange(shots) + random(shots)) / shots) * t
            below[r, :m] = np.searchsorted(a, cum[r, :m], side="left")
            pos = base + shots
            continue
        for k, c in enumerate(row[:m]):
            # r_i * t < c exactly when i + u_i < x = c / t * shots: the crossing
            # is at floor(x) or one past it.  Rounding moves x and i + u_i by a
            # few ulps of shots, far below a stratum, so [est - 2, est + 3)
            # holds it with a draw on either side; both sides are checked.
            est = int(c / t * shots)
            lo = est - 2 if est > 2 else 0
            hi = est + 3 if est + 3 < shots else shots
            start, end = base + lo, base + hi
            if start > pos:
                bitgen.advance(start - pos)
                pos = start
            # reuse draws [start, pos): only one row's windows overlap, below 5 / shots
            w = w[len(w) - (pos - start):] + random(end - pos).tolist()
            pos = end
            a = [((i + u) / shots) * t for i, u in enumerate(w, lo)]
            if (lo and not a[0] < c) or (hi < shots and not a[-1] >= c):
                raise RuntimeError(f"stratified draws do not cross {c!r} inside [{lo}, {hi})")
            below[r, k] = lo + bisect.bisect_left(a, c)
    if pos < len(cum) * shots:
        bitgen.advance(len(cum) * shots - pos)
    below[:, 1:] -= below[:, :-1]       # NumPy buffers the overlapping operands
    return below


def sample_cdf_discrete(probs, shots: int, rng=None) -> np.ndarray:
    """Outcome counts from inverse-transform sampling of a discrete distribution.

    Uses stratified uniforms r_i = (i + u_i)/shots, so each count deviates
    from shots * p_k by at most one stratum; zero-probability outcomes are
    never produced.  Counts always sum to ``shots``.
    """
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidDistribution("probability vector must be 1-d and non-empty")
    return _stratified_counts(_cumulative(p[None]), _count(shots, "shots"), as_rng(rng))[0]


def measure_and_sample(state, mset: MeasurementSet, backend: SamplerBackend,
                       shots: int | None = None) -> np.ndarray:
    """Simulated outcome frequencies aligned with the set's elements.

    Exact probabilities are computed first, then simulated per back-end:
    'mc' estimates each element independently; 'cdf' samples each declared
    group as one discrete distribution (ungrouped elements fall back to a
    two-outcome {1-E, E} distribution).  ``shots`` defaults to the
    backend's iteration count.  The stream runs over the groups, then the
    ungrouped elements, ``shots`` uniforms each.
    """
    probs = probabilities(state, mset)
    n = _count(shots if shots is not None else backend.iterations, "shots")
    g = backend.rng()
    if backend.method == "mc":
        return np.array([sample_mc(p, n, g) for p in np.clip(probs, 0.0, 1.0).tolist()])
    freqs = np.empty(len(mset))
    for idx in mset._blocks:
        pg = np.clip(probs[idx], 0.0, None)
        freqs[idx] = _stratified_counts(_cumulative(pg / pg.sum(axis=1, keepdims=True)), n, g) / n
    rest = np.flatnonzero(mset.group_of < 0)
    if rest.size:
        p = np.clip(probs[rest], 0.0, 1.0)
        cum = _cumulative(np.stack([1.0 - p, p], axis=1))
        freqs[rest] = _stratified_counts(cum, n, g)[:, 1] / n
    return freqs


def timed_measurement(state, mset) -> tuple[np.ndarray, float]:
    """Probabilities plus the wall-clock seconds spent computing them."""
    t0 = time.perf_counter()
    probs = probabilities(state, mset)
    return probs, time.perf_counter() - t0
