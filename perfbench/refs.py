"""Independent references for the benchmark's output checks.

Everything here is plain NumPy/SciPy written from textbook formulas and
never calls :mod:`qmkit`, so a defect in the program cannot also hide in
the reference it is compared with.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# state scores
# ---------------------------------------------------------------------------

def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Square root of a PSD matrix; eigenvalues at rounding level count as 0,
    because sqrt would blow their noise up to about 1e-8."""
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
    vals[vals < 1e-13 * vals.max()] = 0.0
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity as the nuclear norm || sqrt(rho) sqrt(sigma) ||_1."""
    return float(np.sum(np.linalg.svd(_psd_sqrt(rho) @ _psd_sqrt(sigma), compute_uv=False)))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) || rho - sigma ||_1 from the singular values of the difference."""
    return float(0.5 * np.sum(np.linalg.svd(rho - sigma, compute_uv=False)))


def traceless_hermitian_basis(d: int) -> np.ndarray:
    """(d^2 - 1, d, d) stack of traceless Hermitian matrices, orthonormal in
    the Hilbert-Schmidt inner product."""
    out = []
    for a in range(d):
        for b in range(a + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[a, b] = m[b, a] = 1 / math.sqrt(2)
            out.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[a, b], m[b, a] = -1j / math.sqrt(2), 1j / math.sqrt(2)
            out.append(m)
    # orthonormal vectors orthogonal to (1, ..., 1): the traceless diagonals
    q, _ = np.linalg.qr(np.column_stack([np.ones(d), np.eye(d)[:, :d - 1]]))
    out += [np.diag(q[:, k]).astype(complex) for k in range(1, d)]
    return np.array(out)


def _stratified_covariance(probs: np.ndarray, shots: int) -> np.ndarray:
    """Covariance of the outcome frequencies of one stratified draw.

    With uniforms r_i = (i + u_i) / n, the count below a cumulative
    boundary c is floor(n c) + [u_m < phi], where m = floor(n c) is the
    boundary's stratum and phi = frac(n c).  The count's error e(c) therefore
    has mean 0 and Cov(e(a), e(b)) = min(phi_a, phi_b) - phi_a phi_b when a
    and b share a stratum and 0 otherwise.  Frequency k is
    (e(c_k) - e(c_{k-1})) / n.
    """
    k = probs.size
    nc = shots * np.cumsum(probs / probs.sum())[:-1]
    stratum, phi = np.floor(nc), nc - np.floor(nc)
    cov_e = np.where(stratum[:, None] == stratum[None, :],
                     np.minimum(phi[:, None], phi[None, :]) - np.outer(phi, phi), 0.0)
    diff = np.eye(k, k - 1) - np.eye(k, k - 1, -1)
    return diff @ cov_e @ diff.T / shots**2


def sampler_covariance(probs: np.ndarray, groups, shots: int, method: str) -> list:
    """Covariance of the frequency error the linear inversion sees, as its
    diagonal blocks: a list of (element indices, covariance block).

    ``method`` 'mc' draws every element as its own binomial of ``shots``
    uniforms, and inversion then divides each group's frequencies by their
    sum (linearised here).  'cdf' makes one stratified draw per group, and
    a two-outcome draw {1 - p, p} per ungrouped element.
    """
    p = np.clip(probs, 0.0, 1.0)
    blocks = []
    for idx in groups:
        idx = list(idx)
        pg = p[idx]
        if method == "mc":
            jac = np.eye(len(idx)) - np.outer(pg / pg.sum(), np.ones(len(idx)))
            blocks.append((idx, jac @ np.diag(pg * (1.0 - pg) / shots) @ jac.T))
        else:
            blocks.append((idx, _stratified_covariance(pg, shots)))
    covered = {i for idx in groups for i in idx}
    for i in sorted(set(range(p.size)) - covered):
        if method == "mc":
            var = p[i] * (1.0 - p[i]) / shots
        else:
            var = _stratified_covariance(np.array([1.0 - p[i], p[i]]), shots)[1, 1]
        blocks.append(([i], np.array([[var]])))
    return blocks


def inversion_map(elements: np.ndarray) -> np.ndarray:
    """Least-squares linear inversion as a matrix L: frequency errors to the
    coordinates of the estimate's error in the orthonormal basis of
    :func:`traceless_hermitian_basis`.  ``elements`` is the (K, d, d) stack
    of POVM elements; L is the pseudo-inverse of the map
    X -> (tr E_k X)_k on traceless Hermitian X."""
    k, d, _ = elements.shape
    basis = traceless_hermitian_basis(d)
    # tr(E B) = vec(E) . vec(B^T)
    frame = np.real(elements.reshape(k, d * d) @ basis.transpose(0, 2, 1).reshape(-1, d * d).T)
    return np.linalg.pinv(frame)


def linear_inversion_noise(inv: np.ndarray, blocks: list) -> tuple[float, float]:
    """Predicted Hilbert-Schmidt error of linear inversion with map ``inv``
    from frequencies whose error covariance has the diagonal ``blocks`` of
    :func:`sampler_covariance`: (rms error sigma, effective degrees of
    freedom nu).  The error is x = L eps, so E|x|^2 = tr(C) with
    C = L Sigma L^T; ``nu = tr(C)^2 / tr(C^2)`` fits |x|^2 by a scaled
    chi-square.
    """
    c = np.zeros((inv.shape[0], inv.shape[0]))
    for idx, block in blocks:
        g = inv[:, idx]
        c += g @ block @ g.T
    tr = float(np.trace(c))
    if tr <= 0.0:                   # every frequency is exact
        return 0.0, 1.0
    return math.sqrt(tr), tr * tr / float(np.sum(c * c))


def shot_noise_bound(sigma: float, nu: float, tail: float = 1e-9) -> float:
    """Hilbert-Schmidt distance that shot noise exceeds with probability
    ``tail``: sigma * sqrt(chi2_nu quantile / nu), plus 1e-9 for rounding.
    The quantile comes from scipy.special, which qmkit loads anyway;
    scipy.stats would add about 40 MB to the benchmark's peak memory."""
    from scipy.special import gammainccinv

    quantile = 2.0 * float(gammainccinv(nu / 2.0, tail))     # chi2_nu upper-tail quantile
    return sigma * math.sqrt(quantile / nu) + 1e-9


def unprojected_distance(rec: np.ndarray, rho: np.ndarray, bound: float) -> float:
    """Hilbert-Schmidt distance to ``rho`` of the clipped inversion estimate
    behind a reconstruction, at the best trace factor it may have had.

    The program's projection clips the negative eigenvalues of the
    inversion estimate x, giving x_+, and returns rec = x_+ / t with
    t = tr(x_+).  Clipping is the nearest-point map onto the PSD cone, which
    holds rho, so |x_+ - rho| <= |x - rho|; and t - 1 is the trace norm of
    the clipped part, at most sqrt(d) |x - rho|.  So if |x - rho| <= bound,
    some t in [1, 1 + sqrt(d) bound] has |t rec - rho| <= bound.
    """
    t_max = 1.0 + math.sqrt(rho.shape[0]) * bound
    t = float(np.real(np.vdot(rec, rho)) / np.real(np.vdot(rec, rec)))
    return float(np.linalg.norm(min(max(t, 1.0), t_max) * rec - rho))


# ---------------------------------------------------------------------------
# planar maps (alpha = x + iy, Fock-space convention a|alpha> = alpha|alpha>)
# ---------------------------------------------------------------------------

def planar_points(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    return xs[None, :] + 1j * ys[:, None]


def coherent_wigner(points: np.ndarray, alpha: complex) -> np.ndarray:
    return 2.0 / math.pi * np.exp(-2.0 * np.abs(points - alpha) ** 2)


def coherent_husimi(points: np.ndarray, alpha: complex) -> np.ndarray:
    return np.exp(-np.abs(points - alpha) ** 2) / math.pi


def squeezed_wigner(points: np.ndarray, alpha: complex, r: float) -> np.ndarray:
    """Wigner map of D(alpha) S(r) |0> with S(r) = exp(r (a^2 - a^dag^2) / 2), r real."""
    u = points - alpha
    return 2.0 / math.pi * np.exp(-2.0 * (math.exp(2 * r) * u.real ** 2
                                          + math.exp(-2 * r) * u.imag ** 2))


def squeezed_husimi(points: np.ndarray, alpha: complex, r: float) -> np.ndarray:
    """Husimi map of the same state: a Gaussian with covariance widened by 1/2."""
    u = points - alpha
    vx = (math.exp(-2 * r) + 1) / 4     # Var(x) of the state plus vacuum noise,
    vy = (math.exp(2 * r) + 1) / 4      # with x = Re(alpha) quadrature units
    return np.exp(-u.real ** 2 / (2 * vx) - u.imag ** 2 / (2 * vy)) / (
        2 * math.pi * math.sqrt(vx * vy))


# ---------------------------------------------------------------------------
# spin states in the basis m = j, j-1, ..., -j
# ---------------------------------------------------------------------------

def spin_coherent(j: float, theta: float, phi: float) -> np.ndarray:
    """Unit spin-coherent ket with amplitude on index i = j - m of
    sqrt(C(2j, i)) cos^(2j-i)(theta/2) sin^i(theta/2) e^{-i i phi}."""
    tj = round(2 * j)
    i = np.arange(tj + 1)
    binom = np.array([math.comb(tj, int(k)) for k in i], dtype=float)
    return (np.sqrt(binom) * math.cos(theta / 2) ** (tj - i) * math.sin(theta / 2) ** i
            * np.exp(-1j * i * phi))


def _overlap_matrix(j: float, thetas: np.ndarray, phis: np.ndarray,
                    theta0: float, phi0: float) -> np.ndarray:
    """<theta, phi | theta0, phi0> on the grid, from the closed form
    (cos(t/2) cos(t0/2) + sin(t/2) sin(t0/2) e^{i(p - p0)})^{2j}."""
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    base = (np.cos(t / 2) * math.cos(theta0 / 2)
            + np.sin(t / 2) * math.sin(theta0 / 2) * np.exp(1j * (p - phi0)))
    return base ** round(2 * j)


def spin_coherent_husimi(j, thetas, phis, theta0, phi0) -> np.ndarray:
    return np.abs(_overlap_matrix(j, thetas, phis, theta0, phi0)) ** 2 / math.pi


def cat_husimi(j, thetas, phis, theta0, phi0) -> np.ndarray:
    """Husimi map of the normalised |theta0, phi0> + |pi - theta0, phi0>."""
    a = _overlap_matrix(j, thetas, phis, theta0, phi0)
    b = _overlap_matrix(j, thetas, phis, math.pi - theta0, phi0)
    # <theta0|pi - theta0> at equal azimuth is (2 cos(t0/2) sin(t0/2))^{2j}
    cross = (math.sin(theta0)) ** round(2 * j)
    norm = 2.0 + 2.0 * cross
    return np.abs(a + b) ** 2 / norm / math.pi


def zeeman_husimi(j, m, thetas, phis) -> np.ndarray:
    tj, i = round(2 * j), round(j - m)
    t = thetas[:, None] + 0.0 * phis[None, :]
    return (math.comb(tj, i) * np.cos(t / 2) ** (2 * (tj - i))
            * np.sin(t / 2) ** (2 * i) / math.pi)


def _multipole_polys(j: float) -> np.ndarray:
    """Rows k = 0..2j: the diagonal of the tensor operator T_k0, i.e. the
    polynomials of degree k in m orthonormal over m = j..-j with positive
    leading coefficient: Lanczos on diag(m) with full re-orthogonalisation,
    which keeps them orthonormal to rounding level up to degree 2j."""
    tj = round(2 * j)
    m = j - np.arange(tj + 1)
    polys = np.zeros((tj + 1, tj + 1))
    polys[0] = 1.0 / math.sqrt(tj + 1)
    for k in range(tj):
        nxt = m * polys[k]
        for _ in range(2):
            nxt -= polys[:k + 1].T @ (polys[:k + 1] @ nxt)
        polys[k + 1] = nxt / np.linalg.norm(nxt)
    return polys


def _spin_y(j: float) -> np.ndarray:
    tj = round(2 * j)
    m = j - np.arange(tj + 1)
    jp = np.zeros((tj + 1, tj + 1), dtype=complex)
    for i in range(1, tj + 1):
        jp[i - 1, i] = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
    return (jp - jp.conj().T) / 2j


def spin_wigner(rho: np.ndarray, thetas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Stratonovich-Weyl map W(n) = tr(rho U(n) K U(n)^dag).

    The kernel K = sum_k sqrt((2k+1)/4pi) T_k0 is rotated by
    U(theta, phi) = exp(i phi J_z) exp(-i theta J_y), which takes |j, j>
    to the coherent state at (theta, phi) in the convention of
    :func:`spin_coherent`.
    """
    tj = rho.shape[0] - 1
    j = tj / 2
    m = j - np.arange(tj + 1)
    ks = np.arange(tj + 1)
    kernel = np.sqrt((2 * ks + 1) / (4 * math.pi)) @ _multipole_polys(j)
    lam, vec = np.linalg.eigh(_spin_y(j))
    out = np.empty((thetas.size, phis.size))
    for a, th in enumerate(thetas):
        ry = (vec * np.exp(-1j * th * lam)) @ vec.conj().T
        # tr(rho Rz Ry K Ry^dag Rz^dag) with Rz = diag(e^{i phi m})
        inner = (ry * kernel) @ ry.conj().T                 # Ry K Ry^dag
        ph = np.exp(1j * np.outer(phis, m))                 # (nphi, d)
        # sum_{ab} rho_ba Rz_a inner_ab Rz_b^* for each phi
        prod = inner * rho.T
        out[a] = np.real(np.einsum("pa,ab,pb->p", ph, prod, ph.conj()))
    return out

