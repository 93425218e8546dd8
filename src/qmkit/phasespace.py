"""Husimi and Wigner quasi-probability maps on planar and spherical grids,
plus angular-momentum utilities (Clebsch-Gordan coefficients, spherical
harmonics and spin multipoles).

Grid values are stored row-major with the slow index being y (planar) or
theta (spherical); the CSV grid format mirrors that order.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidParameter, InvalidQuantumNumber
from . import qcore
from .operators import _twice, _twice_spin, spin
from .qcore import (Kind, QuantumObject, _count, _fits, _kind, _real, _reals, _typed, _unit,
                    _write_lines, density_matrix)
from .states import _spin_coherent_magnitudes


# ---------------------------------------------------------------------------
# angular-momentum utilities
# ---------------------------------------------------------------------------

def clebsch_gordan(j1, m1, j2, m2, J, M) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | J M> (Condon-Shortley).

    With a = j1+j2-J, e = J+j1-j2, f = J-j1+j2, b = j1-m1 and c = j2+m2, the
    Racah sum times a! e! f! is the integer
    S = sum_k (-1)^k C(a, k) C(e, b-k) C(f, c-k), each term the one before it
    times an exact integer ratio, and the squared coefficient is
    (2J+1) (J+M)! (J-M)! (j1-m1)! (j1+m1)! (j2-m2)! (j2+m2)! S^2
    / ((j1+j2+J+1)! a! e! f!), one correctly rounded int / int division.
    Returns 0 for violated selection rules.  Raises InvalidQuantumNumber for
    a label that is not a half-integer, and UnsupportedDimension for a j1, j2
    or J past the size that ``spin`` admits (2j + 1 <= 8192).
    """
    tj1, tm1 = _twice_spin(j1, 2, "j1"), _twice(m1, "m1", signed=True)
    tj2, tm2 = _twice_spin(j2, 2, "j2"), _twice(m2, "m2", signed=True)
    tJ, tM = _twice_spin(J, 2, "J"), _twice(M, "M", signed=True)
    # selection rules (violations yield a vanishing coefficient)
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tJ + tM) % 2:
        return 0.0
    if tm1 + tm2 != tM:
        return 0.0
    if tJ > tj1 + tj2 or tJ < abs(tj1 - tj2) or (tj1 + tj2 + tJ) % 2:
        return 0.0
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tM) > tJ:
        return 0.0
    a, e, f = (tj1 + tj2 - tJ) // 2, (tJ + tj1 - tj2) // 2, (tJ - tj1 + tj2) // 2
    b, c = (tj1 - tm1) // 2, (tj2 + tm2) // 2
    k0 = max(0, b - e, c - f)
    term = (-1) ** k0 * math.comb(a, k0) * math.comb(e, b - k0) * math.comb(f, c - k0)
    total = 0
    for k in range(k0, min(a, b, c) + 1):
        total += term
        term = -term * (a - k) * (b - k) * (c - k) // ((k + 1) * (e - b + k + 1) * (f - c + k + 1))
    if total == 0:
        return 0.0
    num = (tJ + 1) * total**2 * math.prod(math.factorial(t // 2) for t in (
        tJ + tM, tJ - tM, tj1 - tm1, tj1 + tm1, tj2 - tm2, tj2 + tm2))
    mag = math.sqrt(num / math.prod(map(math.factorial, (a + e + f + 1, a, e, f))))
    return mag if total > 0 else -mag


def _integer_labels(k, q) -> tuple[int, int]:
    """(k, q) as ints; InvalidQuantumNumber unless both are whole numbers."""
    two_k, two_q = _twice(k, "k", signed=True), _twice(q, "q", signed=True)
    if two_k % 2 or two_q % 2:
        raise InvalidQuantumNumber(f"k={k}, q={q} must be integers")
    return two_k // 2, two_q // 2


def spherical_harmonic(k: int, q: int, theta, phi):
    """Orthonormal spherical harmonic Y_kq(theta, phi), Condon-Shortley phase.

    ``theta`` is the polar (colatitude) angle; scalar and array arguments
    are both accepted, and every entry must be a finite real number.
    """
    k, q = _integer_labels(k, q)
    if not abs(q) <= k < 2**63:         # SciPy takes k as a 64-bit integer
        raise InvalidQuantumNumber(f"need 0 <= |q| <= k < 2**63, got k={k}, q={q}")
    import scipy.special  # on first use, so that ``import qmkit`` does not load SciPy
    return scipy.special.sph_harm_y(k, q, _reals(theta, "theta"), _reals(phi, "phi"))


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------

def _grid_fields(grid, counts: tuple[str, str], **bounds: tuple[float, float]) -> None:
    """Store each named range of a frozen grid as a pair of floats, so grids built
    from lists hash, and each named count as an int; InvalidParameter unless both
    ends pass ``_real`` in (lo, hi) and each count is an integer >= 2, and
    UnsupportedDimension unless the grid's points pass ``_fits``."""
    for name, (lo, hi) in bounds.items():
        value = getattr(grid, name)
        try:
            pair = tuple(value)
        except TypeError:
            pair = ()
        if len(pair) != 2 or not all(isinstance(v, numbers.Real) for v in pair):
            raise InvalidParameter(f"{name} must be a pair of real numbers, got {value!r}")
        object.__setattr__(grid, name, tuple(_real(v, name, lo, hi) for v in pair))
    for name in counts:
        object.__setattr__(grid, name, _count(getattr(grid, name), name, least=2))
    n1, n2 = (getattr(grid, name) for name in counts)
    _fits(n1 * n2, 1, f"a {n1} x {n2} grid")


def _fresh_axis(i: int) -> property:
    """A grid's axis i as a new writable array, read from the grid's ``_keys``."""
    return property(lambda grid: _axis(grid._keys[i]).copy())


@dataclass(frozen=True)
class PlanarGrid:
    """Rectangular grid in alpha = x + iy, each range end within +-1e150."""

    x_range: tuple[float, float] = (-3.0, 3.0)
    y_range: tuple[float, float] = (-3.0, 3.0)
    nx: int = 61
    ny: int = 61

    def __post_init__(self):
        _grid_fields(self, ("nx", "ny"), x_range=(-1e150, 1e150), y_range=(-1e150, 1e150))

    @functools.cached_property
    def _keys(self) -> tuple:
        """``_bits`` of (xs, ys), made once per grid."""
        return (_bits(np.linspace(*self.x_range, self.nx)),
                _bits(np.linspace(*self.y_range, self.ny)))

    xs, ys = _fresh_axis(0), _fresh_axis(1)


@dataclass(frozen=True)
class SphericalGrid:
    """Grid over the sphere, theta in [0, pi], phi in [0, 2 pi]."""

    theta_range: tuple[float, float] = (0.0, math.pi)
    phi_range: tuple[float, float] = (0.0, 2.0 * math.pi)
    ntheta: int = 61
    nphi: int = 61

    def __post_init__(self):
        _grid_fields(self, ("ntheta", "nphi"), theta_range=(0.0, math.pi + 1e-12),
                     phi_range=(0.0, 2 * math.pi + 1e-12))
        if self.theta_range[0] > self.theta_range[1] or self.phi_range[0] > self.phi_range[1]:
            raise InvalidParameter(f"ranges {self.theta_range}, {self.phi_range} run backwards")

    @functools.cached_property
    def _keys(self) -> tuple:
        """``_bits`` of (thetas, phis), made once per grid."""
        return (_bits(np.linspace(*self.theta_range, self.ntheta)),
                _bits(np.linspace(*self.phi_range, self.nphi)))

    thetas, phis = _fresh_axis(0), _fresh_axis(1)


@dataclass(frozen=True)
class PhaseSpaceGrid:
    """Evaluated map: axis1 is the slow coordinate (y or theta), axis2 the
    fast one (x or phi), values has shape (len(axis1), len(axis2))."""

    kind: str    # husimi | wigner
    coords: str  # planar | spherical
    axis1: np.ndarray
    axis2: np.ndarray
    values: np.ndarray


def grid_lines(grid: PhaseSpaceGrid) -> list[str]:
    """Grid file content: one comment header, then coord1,coord2,value rows.

    Rows run in row-major order (slow coordinate outermost), matching the
    values layout.  All floats carry 17 significant digits.
    """
    _typed(grid, PhaseSpaceGrid, "grid")
    lines = [
        f"# kind={grid.kind} coords={grid.coords} "
        f"n1={len(grid.axis1)} n2={len(grid.axis2)}"
    ]
    for i, c1 in enumerate(grid.axis1):
        for j, c2 in enumerate(grid.axis2):
            lines.append(f"{c1:.17g},{c2:.17g},{grid.values[i, j]:.17g}")
    return lines


def write_grid(grid: PhaseSpaceGrid, path) -> None:
    _write_lines(grid_lines(grid), path)


def read_grid(path) -> PhaseSpaceGrid:
    """Parse a grid file produced by :func:`write_grid`; every cell must be finite."""
    try:
        text = Path(path).read_text(encoding="utf-8").strip().splitlines()
        meta = dict(kv.split("=") for kv in text[0].lstrip("# ").split())
        kind, coords, n1, n2 = meta["kind"], meta["coords"], int(meta["n1"]), int(meta["n2"])
        rows = _reals([[float(v) for v in line.split(",")] for line in text[1:]], "grid cells")
    except (OSError, TypeError, IndexError, KeyError, ValueError) as exc:
        raise InvalidParameter(f"cannot read grid file {path}: {exc!r}") from None
    if min(n1, n2) < 1 or rows.shape != (n1 * n2, 3):
        raise InvalidParameter(f"grid file has rows of shape {rows.shape}, expected ({n1 * n2}, 3)")
    return PhaseSpaceGrid(
        kind=kind,
        coords=coords,
        axis1=rows[::n2, 0].copy(),
        axis2=rows[:n2, 1].copy(),
        values=rows[:, 2].reshape(n1, n2),
    )


# ---------------------------------------------------------------------------
# planar maps
# ---------------------------------------------------------------------------

# Each map's state-independent kernel is built once per (dimension, grid axes)
# and kept, read-only, in a small LRU cache.  A grid axis enters a cache key as
# its dtype and bytes, so two grids share an entry only if their axes are
# bitwise equal (0.0 and -0.0 ends compare equal as numbers, not as bytes).

_KERNELS = 4     # entries per cache


def _bits(axis: np.ndarray) -> tuple:
    return axis.dtype.str, axis.tobytes()


def _axis(bits: tuple) -> np.ndarray:
    return np.frombuffer(bits[1], dtype=bits[0])


def _frozen(*arrays: np.ndarray) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _kernel_cache(build):
    """``functools.lru_cache(maxsize=_KERNELS)`` of ``build`` whose entries hold at
    most MAX_STACK_BYTES in all: it is emptied before it keeps an entry that would
    take the bytes built since it was last empty past that bound."""
    lock = threading.Lock()                         # every miss reads and writes held

    def counted(*key):
        out = build(*key)
        size = sum(a.nbytes for a in (out if isinstance(out, tuple) else (out,)))
        with lock:
            if cached.cache_info().currsize and cached.held + size > qcore.MAX_STACK_BYTES:
                cached.cache_clear()                # with its hit and miss counts
            cached.held = size + (cached.held if cached.cache_info().currsize else 0)
        return out
    cached = functools.lru_cache(maxsize=_KERNELS)(functools.wraps(build)(counted))
    return cached


@_kernel_cache
def _radial(xs: tuple, ys: tuple) -> tuple:
    """alpha at each point of the grid with axes ``_bits`` xs, ys (row-major),
    the unique values of |alpha|^2, and the index with radii[inverse] = |alphas|^2."""
    alphas = (_axis(xs)[None, :] + 1j * _axis(ys)[:, None]).reshape(-1)
    radii, inverse = np.unique(np.abs(alphas) ** 2, return_inverse=True)
    return _frozen(alphas, radii, inverse)


@_kernel_cache
def _husimi_terms(d: int, xs: tuple, ys: tuple) -> tuple:
    """terms[m] = x^m / (m! N(x)) for m < d on the radii x of ``_radial``,
    N(x) = sum_{m<d} x^m / m!, and 1 / sqrt(N(x)) at each grid point: each
    x^m / m! is split exactly into a mantissa and a binary exponent, so
    neither table under- nor overflows at any x."""
    _, radii, inverse = _radial(xs, ys)
    _fits(d * radii.size, 1, f"a planar kernel of {d} x {radii.size} radii")   # as the map's sums
    mant, exps = np.ones((d, radii.size)), np.zeros((d, radii.size), dtype=np.intc)
    for m in range(1, d):               # x^m / m! = mant[m] 2^exps[m]
        np.multiply(mant[m - 1], radii, out=mant[m])
        mant[m] /= m
        np.frexp(mant[m], out=(mant[m], exps[m]))
        exps[m] += exps[m - 1]
    half, odd = np.divmod(top := exps.max(axis=0), 2)
    terms = np.ldexp(mant, exps - top, out=mant)
    total = terms.sum(axis=0)
    terms /= total
    return _frozen(terms, np.ldexp(1 / np.sqrt(np.ldexp(total, odd)), -half)[inverse])


@_kernel_cache
def _diagonal_layout(d: int) -> tuple:
    """State-independent arrays over rho's diagonals, [k, m] over (d, d) by broadcasting:
    row m, column min(m + k, d - 1), mask m + k < d, weight w_k (w_0 = 1, w_{k>0} = 2),
    and the planar maps' Husimi sqrt(m! k! / (m+k)!) and Wigner (-1)^m."""
    k, m = np.ogrid[:d, :d]
    ratios = np.cumprod(np.sqrt(np.where(m > 0, m / np.maximum(m + k, 1), 1.0)), axis=1)
    return _frozen(m, np.minimum(m + k, d - 1), m + k < d, np.where(k > 0, 2.0, 1.0), ratios,
                   (-1.0) ** m)


def _weighted_diagonals(dm: np.ndarray) -> tuple:
    """c[k, m] = w_k rho_{m,m+k}, zero past the corner m + k >= d, and the last
    two arrays of ``_diagonal_layout``."""
    rows, cols, inside, weights, ratios, signs = _diagonal_layout(len(dm))
    return np.where(inside, dm[rows, cols], 0.0) * weights, ratios, signs


def _complex_product(coeffs: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """coeffs @ terms for complex coeffs and real terms, as two real
    products: a mixed product would first copy terms to complex."""
    sums = (coeffs.real.copy() @ terms).astype(complex)
    sums.imag = coeffs.imag.copy() @ terms
    return sums


def _horner(sums: np.ndarray, inverse: np.ndarray, step) -> np.ndarray:
    """sum_k sums[k][inverse] z_0 z_1 ... z_(k-1) at each grid point by
    Horner's rule, where ``step(k)`` gives the grid array z_k."""
    acc = sums[-1][inverse]
    for order in range(len(sums) - 2, -1, -1):
        acc *= step(order)
        acc += sums[order][inverse]
    return acc


def husimi_planar(rho, grid: PlanarGrid = PlanarGrid()) -> PhaseSpaceGrid:
    """Husimi function Q(alpha) = <alpha|rho|alpha> / pi on a planar grid,
    normalized to integrate to 1 over the plane.

    Coherent states are truncated at the state's own dimension and
    renormalized, so the caller controls accuracy through the cutoff of
    ``rho``: with x = |alpha|^2 and N(x) = sum_{n<d} x^n / n!, a ket psi gives
    Q = |sum_n conj(psi_n) alpha^n / sqrt(n!)|^2 / (pi N(x)) by Horner's rule
    with scalar coefficients.  A density matrix gives Q = Re sum_k w_k alpha^k
    D_k(x) / (pi N(x)), D_k(x) = sum_m rho_{m,m+k} x^m / sqrt(m! (m+k)!),
    w_0 = 1 and w_{k>0} = 2, each D_k once per radius, nested by Horner's rule.
    """
    state = rho if isinstance(rho, QuantumObject) else QuantumObject(rho)
    if pure := _kind(state) is not Kind.OPER:       # the entries of <psi|, conj(psi_n)
        bra = _unit(state).ravel() if state.kind is Kind.BRA else _unit(state).conj().ravel()
    d = len(bra) if pure else len(dm := density_matrix(state))
    xs, ys = _typed(grid, PlanarGrid, "grid")._keys
    alphas, radii, inverse = _radial(xs, ys)
    with np.errstate(over="ignore", invalid="ignore"):     # refused below, as not finite
        terms, scale = _husimi_terms(d, xs, ys)
        if pure:
            acc = np.full(alphas.shape, bra[-1])
            for n in range(d - 2, -1, -1):
                acc *= alphas
                acc *= 1.0 / math.sqrt(n + 1)
                acc += bra[n]
            acc *= scale
            q = np.abs(acc) ** 2 / math.pi
        else:
            c, ratios, _ = _weighted_diagonals(dm)
            sums = _complex_product(c * ratios, terms)  # w_k sqrt(k!) D_k / N(x)
            q = np.real(_horner(sums, inverse, lambda k: alphas * (1.0 / math.sqrt(k + 1)))) / math.pi
    if not (finite := np.isfinite(q)).all():
        raise InvalidParameter(f"Husimi map of dimension {d} overflows at |alpha|^2 = "
                               f"{radii[inverse[~finite].min()]:g}")
    return PhaseSpaceGrid("husimi", "planar", grid.ys, grid.xs, q.reshape(grid.ny, grid.nx))


@_kernel_cache
def _laguerre_basis(d: int) -> np.ndarray:
    """G of shape (d, d, d) with psi_n^k = sum_i G[k, n, i] psi_i^(k mod 2)
    for n + k < d (other rows zero), for the orthonormal Laguerre functions
    psi_n^k(x) = sqrt(n!/(n+k)!) x^(k/2) e^(-x/2) L_n^(k)(x).  Each row is a
    unit vector, built exactly by psi_n^(a+2) = (sqrt(n+a+1) psi_n^a
    - sqrt(n+1) psi_(n+1)^a + sqrt(n) psi_(n-1)^(a+2)) / sqrt(n+a+2)."""
    _fits(d, 3, f"a Laguerre basis of {d} x {d} x {d}")     # counted as complex, as every rule is
    g = np.zeros((d, d, d))
    g[0] = np.eye(d)
    g[1:2, :d - 1] = np.eye(d - 1, d)
    rows, roots = g.reshape(d * d, d), np.sqrt(np.arange(d))
    for s in range(2, d):       # row k of rows[s::d - 1] is g[k, s - k], on anti-diagonal s
        two, one = rows[s - 2::d - 1], rows[s - 1::d - 1]
        row = roots[s - 1] * two[:s - 1] - roots[s - 1:0:-1, None] * one[:s - 1]
        row[:-1] += roots[s - 2:0:-1, None] * one[2:s]
        rows[s::d - 1][2:s + 1] = row / roots[s]
    return _frozen(g)[0]


@_kernel_cache
def _wigner_terms(d: int, xs: tuple, ys: tuple) -> tuple:
    """table[p, i] = psi_i^p for p = 0, 1 and i < d on x = 4 |alpha|^2 at the
    ``_radial`` radii, by the three-term recurrence in i at 2^s per radius, and the
    unit phase e^{i arg alpha} at each grid point (1 at alpha = 0)."""
    alphas, radii, _ = _radial(xs, ys)
    _fits(d * radii.size, 1, f"a planar kernel of {d} x {radii.size} radii")   # two reals each
    radii = 4 * radii
    table = np.empty((2, d, radii.size))
    shift = np.clip(np.ceil(radii / (2 * math.log(2))) - 1020, 0, 1000)   # e^{-x/2} 2^s stays normal
    table[0, 0] = np.exp(shift * math.log(2) - radii / 2)
    table[1, 0] = np.sqrt(radii) * table[0, 0]
    p, n = np.arange(2.0)[:, None], np.arange(1.0, d)[:, None, None]   # both parities at once
    steps = zip(2 * n + p - 1, np.sqrt(n * (n + p)), np.sqrt((n - 1) * (n + p - 1) / (n * (n + p))))
    for i, (lead, root, back) in enumerate(steps, 1):
        table[:, i] = (lead - radii) * table[:, i - 1] / root
        if i > 1:
            table[:, i] -= back * table[:, i - 2]
    table *= np.ldexp(1.0, -shift.astype(int))     # 2^-s, exactly
    size = np.abs(alphas)
    return _frozen(table, np.divide(alphas, size, out=np.ones_like(alphas), where=size > 0))


def wigner_planar(rho, grid: PlanarGrid = PlanarGrid()) -> PhaseSpaceGrid:
    """Wigner function in the Laguerre form (Cahill & Glauber 1969),
    W(alpha) = (2/pi) e^{-2|alpha|^2} sum_{m<=n} (2 - delta_mn) Re[rho_mn
    (-1)^m sqrt(m!/n!) (2 alpha)^(n-m) L_m^(n-m)(4|alpha|^2)], normalized to
    integrate to 1 over the plane.

    With x = |2 alpha|^2 and k = n - m, a term is rho_mn (-1)^m e^{ik arg alpha}
    psi_m^k(x).  Two real products with :func:`_laguerre_basis` (never complex)
    write each diagonal k over the psi_i^(k mod 2), two with their table from
    :func:`_wigner_terms` give every diagonal, and Horner's rule nests them in
    e^{i arg alpha}.  The series is exact for the truncated state at any alpha.
    """
    dm = density_matrix(rho)
    d = len(dm)
    xs, ys = _typed(grid, PlanarGrid, "grid")._keys
    _, _, inverse = _radial(xs, ys)
    table, phase = _wigner_terms(d, xs, ys)
    c, _, signs = _weighted_diagonals(dm)
    # coeffs[k] = sum_m c[k, m] (-1)^m G[k, m]: diagonal k in the psi^(k mod 2)
    coeffs = _complex_product((c * signs)[:, None, :], _laguerre_basis(d))[:, 0]
    sums = np.empty((d, table.shape[2]), dtype=complex)
    for p in (0, 1):
        sums[p::2] = _complex_product(coeffs[p::2], table[p])
    vals = 2.0 / math.pi * np.real(_horner(sums, inverse, lambda k: phase))
    return PhaseSpaceGrid("wigner", "planar", grid.ys, grid.xs, vals.reshape(grid.ny, grid.nx))


# ---------------------------------------------------------------------------
# spherical maps
# ---------------------------------------------------------------------------

@_kernel_cache
def _axial_phases(d: int, phis: tuple) -> tuple:
    """w_k cos k phi and w_k sin k phi for k < d (rows) on the ``_bits`` phis
    (columns), with the weights w_k of ``_diagonal_layout``."""
    angles, weights = np.outer(np.arange(d), _axis(phis)), _diagonal_layout(d)[3]
    return _frozen(weights * np.cos(angles), weights * np.sin(angles))


def _axial_map(kind: str, rho, grid, kernel) -> PhaseSpaceGrid:
    """Re sum_ab rho_ab G_ab(theta) e^{-i(b-a) phi} on a spherical grid, for a
    real symmetric G(theta) whose upper diagonals ``kernel`` gives as
    kernel[k, t, a] = G_{a,a+k}(theta_t).  Only the Hermitian part h of rho
    counts, and its diagonal -k is diagonal k conjugated, so the map is
    Re sum_k w_k s_k e^{-ik phi} with s_k = sum_a G_{a,a+k} h_{a,a+k}: one
    batched product gives every s_k, and two real products place them in phi."""
    dm, (thetas, phis) = density_matrix(rho), _typed(grid, SphericalGrid, "grid")._keys
    d = len(dm)
    _fits(grid.ntheta * d * d, 1, f"a spin kernel of {grid.ntheta} x {d} x {d}")
    rows, cols, inside = _diagonal_layout(d)[:3]
    upper = np.where(inside, dm[rows, cols] + dm[cols, rows].conj(), 0.0) / 2     # h_{a,a+k}
    sums = kernel(d - 1, thetas) @ upper.view(float).reshape(d, d, 2)     # (re, im) last
    cos, sin = _axial_phases(d, phis)
    vals = sums[:, :, 0].T @ cos + sums[:, :, 1].T @ sin
    return PhaseSpaceGrid(kind, "spherical", grid.thetas, grid.phis, vals)


@_kernel_cache
def _husimi_diagonals(two_j: int, thetas: tuple) -> np.ndarray:
    """Upper diagonals of G(theta) = c c^T / pi on the ``_bits`` thetas, laid
    out for :func:`_axial_map`."""
    c = _spin_coherent_magnitudes(two_j, _axis(thetas))
    kernel = np.zeros((two_j + 1, *c.shape))
    for k in range(two_j + 1):
        kernel[k, :, :two_j + 1 - k] = c[:, :two_j + 1 - k] * c[:, k:] / math.pi
    return _frozen(kernel)[0]


@_kernel_cache
def _spin_magnitudes(two_j: int, thetas: tuple) -> np.ndarray:
    """c[t, i] = c_i(theta_t) of ``spin_coherent`` on the ``_bits`` thetas."""
    return _frozen(_spin_coherent_magnitudes(two_j, _axis(thetas)))[0]


@_kernel_cache
def _spin_phases(two_j: int, phis: tuple) -> np.ndarray:
    """e^{i i phi} for i <= 2j (rows) on the ``_bits`` phis (columns)."""
    return _frozen(np.exp(1j * np.outer(np.arange(two_j + 1), _axis(phis))))[0]


def husimi_spherical(rho, grid: SphericalGrid = SphericalGrid()) -> PhaseSpaceGrid:
    """Spin Husimi function Q(theta, phi) = <theta,phi|rho|theta,phi> / pi,
    integrating to 4/(2j+1) over the sphere (dOmega = sin(theta) dtheta dphi).
    The amplitudes of ``spin_coherent`` are c_i(theta) e^{-i i phi}, so a ket
    psi gives Q = |f|^2 / pi with f = sum_i c_i(theta) psi_i e^{i i phi}, one
    real product of c with the (re, im) columns of psi_i e^{i i phi}, and a
    density matrix gives :func:`_axial_map` with G(theta) = c c^T / pi."""
    state = rho if isinstance(rho, QuantumObject) else QuantumObject(rho)
    if _kind(state) is Kind.OPER:
        return _axial_map("husimi", state, grid, _husimi_diagonals)
    psi = _unit(state).conj().ravel() if state.kind is Kind.BRA else _unit(state).ravel()
    (thetas, phis), d = _typed(grid, SphericalGrid, "grid")._keys, len(psi)
    _fits(d * (grid.ntheta + grid.nphi), 1, f"spin tables of {d} x ({grid.ntheta} + {grid.nphi})")
    f = _spin_magnitudes(d - 1, thetas) @ (psi[:, None] * _spin_phases(d - 1, phis)).view(float)
    f *= f                                          # re^2 and im^2, interleaved
    vals = (f[:, ::2] + f[:, 1::2]) / math.pi
    return PhaseSpaceGrid("husimi", "spherical", grid.thetas, grid.phis, vals)


def spherical_multipole(rho, k: int, q: int) -> complex:
    """Multipole component rho_kq = sum_{m} rho_{m, m-q} (-1)^{j-m-q}
    <j, m; j, -(m-q) | k, q> of a spin state."""
    k, q = _integer_labels(k, q)
    dm = density_matrix(rho)
    tj = len(dm) - 1
    return sum((dm[i, i + q] * (-1.0) ** (i - q)   # row i = j - m
                * clebsch_gordan(tj / 2, tj / 2 - i, tj / 2, q - tj / 2 + i, k, q)
                for i in range(tj + 1) if 0 <= i + q <= tj), 0.0 + 0.0j)


@_kernel_cache
def _stratonovich_kernel(two_j: int) -> tuple:
    """(lam, vec, delta0): J_y = vec diag(lam) vec^dag, and the Wigner kernel
    at the north pole, delta0_m = (-1)^{j-m} sum_k sqrt((2k+1)/4pi)
    <j m; j -m | k 0> for m = j..-j.  (-1)^{j-m} <j m; j -m | k 0> is p_k(m),
    the degree-k polynomial orthonormal over m = j..-j with a positive leading
    coefficient; Lanczos on diag(m) with full re-orthogonalisation builds the
    p_k stably at any j."""
    j = two_j / 2
    lam, vec = np.linalg.eigh(spin(j, "y").data)
    m = j - np.arange(two_j + 1)
    polys = np.full((two_j + 1, two_j + 1), 1.0 / math.sqrt(two_j + 1))   # row 0 is p_0
    for k in range(1, two_j + 1):
        v = m * polys[k - 1]
        for _ in range(2):                       # twice is enough
            v -= polys[:k].T @ (polys[:k] @ v)
        polys[k] = v / np.linalg.norm(v)
    delta0 = np.sqrt((2 * np.arange(two_j + 1) + 1) / (4 * math.pi)) @ polys
    return _frozen(lam, vec, delta0)


@_kernel_cache
def _wigner_diagonals(two_j: int, thetas: tuple) -> np.ndarray:
    """Upper diagonals of G(theta) = d Delta_0 d^T on the ``_bits`` thetas,
    laid out for :func:`_axial_map`."""
    lam, vec, delta0 = _stratonovich_kernel(two_j)
    rot = np.real((vec * np.exp(-1j * _axis(thetas)[:, None, None] * lam)) @ vec.conj().T)
    full = (rot * delta0) @ rot.transpose(0, 2, 1)
    kernel = np.zeros((two_j + 1, *full.shape[:2]))
    for k in range(two_j + 1):
        kernel[k, :, :two_j + 1 - k] = np.diagonal(full, k, axis1=1, axis2=2)
    return _frozen(kernel)[0]


def wigner_spherical(rho, grid: SphericalGrid = SphericalGrid()) -> PhaseSpaceGrid:
    """Spherical Wigner map W = tr(rho U Delta_0 U^dag): the Stratonovich
    kernel Delta_0 = diag(delta0_m) at the north pole (Agarwal, Phys. Rev. A
    24, 2889 (1981)), rotated by U = exp(i phi J_z) exp(-i theta J_y).

    U takes |j, j> to ``spin_coherent(j, theta, phi)``, so this map and
    :func:`husimi_spherical` place a state at the same point.  In standard
    harmonics W = sum_kq rho_kq Y_kq(theta, -phi) (see
    :func:`spherical_multipole`); it integrates to sqrt(4 pi/(2j+1)) over the
    sphere.  It is :func:`_axial_map` with G = d Delta_0 d^T, d = exp(-i theta J_y).
    """
    return _axial_map("wigner", rho, grid, _wigner_diagonals)
