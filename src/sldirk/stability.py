"""Fourier-space amplification matrices for SL-DIRK on the two-velocity model.

The linear two-velocity relaxation system diagonalizes per wavenumber into
a 2x2 system for the Fourier coefficients of (f_1, f_2).  One SL-DIRK step
maps the coefficient pair through a product of stage factors:

* an implicit relaxation solve per stage, (I - a_kk * xi * J)^{-1} with
  J the relaxation Jacobian and xi = dt / eps;
* diagonal phase factors exp(-+ i * k * shift) from the characteristic
  shifts of the Shu-Osher combination.

Since J = -(I - P0), with P0 the equilibrium projection, each stage
inverse is P0 + r (I - P0) with r = 1 / (1 + a_kk * xi), so the map is a
polynomial M = sum_kappa R_kappa(xi) N_kappa(b, k_dt) in the r of the
distinct diagonal weights (s + 1 terms for a singly diagonal tableau).
Per b, a scan builds the coefficients N over the k_dt grid, one real
matrix product with R writes the entry planes m[r, c] of shape
(n_kdt, n_xi), and their eigenvalue magnitudes go into the slices of the
(n_b, n_kdt, n_xi) result.  ``amplification`` runs the same kernel on a
one-point grid.  At xi = inf all r vanish and only kappa = 0 survives: the
stiff limit is exact, with no large finite xi and no inf / inf.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .butcher import ButcherTableau, ShuOsherForm, to_shu_osher
from .dg import ensure_buffer

#: distinguished value for the stiff limit dt/eps -> infinity
XI_INF = np.inf


def _check_grid(b, k_dt, xi):
    """Raise ValueError unless b lies in [-1, 1], k_dt is finite and >= 0 and
    xi >= 0 (inf allowed); NaN fails every check.  Accepts scalars or grids."""
    b, k_dt, xi = (np.asarray(g, dtype=float) for g in (b, k_dt, xi))
    b_ok = np.abs(b) <= 1.0
    if not np.all(b_ok):
        raise ValueError(f"b values must lie in [-1, 1], got {b[~b_ok]}")
    if not np.all(np.isfinite(k_dt) & (k_dt >= 0.0)):
        raise ValueError("k_dt values must be finite and >= 0")
    if not np.all(xi >= 0.0):
        raise ValueError("xi values must be >= 0 (inf allowed)")


@dataclass(frozen=True)
class StabilityPoint:
    """One point of the stability parameter space."""
    b: float
    k_dt: float
    xi: float

    def __post_init__(self):
        _check_grid(self.b, self.k_dt, self.xi)


@dataclass(frozen=True)
class AmplificationMatrix:
    """2x2 complex one-step map of Fourier coefficients, with provenance."""
    m: np.ndarray
    tableau_name: str
    point: StabilityPoint


def relaxation_jacobian(b: float) -> np.ndarray:
    """Jacobian of the two-velocity relaxation operator; eigenvalues {0, -1}."""
    return 0.5 * np.array([[-1.0 + b, 1.0 + b],
                           [1.0 - b, -1.0 - b]])


def equilibrium_projection(b):
    """Rank-1 projection onto the equilibrium direction (null space of the
    relaxation Jacobian); the xi -> infinity limit of every stage inverse."""
    b = np.asarray(b, dtype=float)
    p = np.empty(b.shape + (2, 2))
    p[..., 0, 0] = p[..., 0, 1] = 0.5 * (1.0 + b)
    p[..., 1, 0] = p[..., 1, 1] = 0.5 * (1.0 - b)
    return p


def stage_inverse(a_ll: float, xi, b) -> np.ndarray:
    """Closed-form (I - a_ll * xi * J)^{-1}, broadcast over xi and b.

    The matrix is nonsingular for every xi >= 0 because J has eigenvalues
    {0, -1}; its determinant is 1 + a_ll * xi.  Where xi = inf the result
    is the equilibrium projection, so no inf / inf is ever formed.
    """
    if a_ll <= 0.0:
        raise ValueError(f"stage weight a_ll = {a_ll} must be positive")
    ax, b = np.broadcast_arrays(a_ll * np.asarray(xi, dtype=float),
                                np.asarray(b, dtype=float))
    stiff = np.isinf(ax)
    ax = np.where(stiff, 0.0, ax)
    out = np.empty(ax.shape + (2, 2))
    out[..., 0, 0] = 1.0 + 0.5 * (1.0 + b) * ax
    out[..., 0, 1] = 0.5 * (1.0 + b) * ax
    out[..., 1, 0] = 0.5 * (1.0 - b) * ax
    out[..., 1, 1] = 1.0 + 0.5 * (1.0 - b) * ax
    out /= (1.0 + ax)[..., None, None]
    out[stiff] = equilibrium_projection(b[stiff])
    return out


def _grid_factors(so: ShuOsherForm, kdt_grid, xi_grid):
    """The b-independent factors of the expanded map, built once per grid.

    ``start[l]`` is the diagonal of B_l as (2, nk) rows and ``coupling[l][j]``
    that of C_lj as a (2, 1, nk, 1) column.  The terms kappa count the
    stages of each distinct weight a_g, flattened in C order, so a factor
    r_g = 1 / (1 + a_g * xi) moves a term ``shift[l]`` places up for the
    weight of stage l.  ``weights`` is the real kron(R, I_2), with
    R[kappa, xi] = prod_g r_g^kappa_g, applied to real and imaginary parts.
    """
    w, c = so.b_coeffs, so.c
    sign = np.array([[-1j], [1j]])
    start = [(1.0 - w[l, :l].sum()) * np.exp(sign * (c[l] * kdt_grid)) for l in range(so.s)]
    coupling = [[(w[l, j] * np.exp(sign * ((c[l] - c[j]) * kdt_grid)))[:, None, :, None]
                 for j in range(l)] for l in range(so.s)]
    a_g, group = np.unique(so.diag, return_inverse=True)
    dims = np.bincount(group) + 1
    stride = np.array([np.prod(dims[g + 1:]) for g in range(len(dims))])
    r = 1.0 / (1.0 + a_g[:, None] * xi_grid)
    kappa = np.indices(dims).reshape(len(dims), -1)
    weights = np.kron(np.prod(r[:, None, :] ** kappa[:, :, None], axis=0), np.eye(2))
    return start, coupling, stride[group], weights


def _one_step_planes(b: float, factors, out) -> np.ndarray:
    """Write the one-step map at ``b`` into ``out``, as complex planes
    m[r, c] of shape (2, 2, nk, nxi), and return it.

    The stage recursion E_l = B_l + sum_{j<l} C_lj X_j, X_l = A_l^{-1} E_l
    runs on coefficients of shape (2, 2, nk, n_terms).  A_l^{-1} keeps each
    term under P0 and moves it one power of r_g up under I - P0 = -J.  One
    real matrix product with the weights sums the terms of the last stage.
    """
    start, coupling, shift, weights = factors
    p0, q = equilibrium_projection(b), -relaxation_jacobian(b)
    nk = start[0].shape[1]
    stages = []
    for l in range(len(start)):
        e = np.zeros((2, 2, nk, weights.shape[0] // 2), dtype=complex)
        e[0, 0, :, 0], e[1, 1, :, 0] = start[l]
        for j in range(l):
            e += coupling[l][j] * stages[j]
        x = (p0 @ e.reshape(2, -1)).reshape(e.shape)
        x[..., shift[l]:] += (q @ e.reshape(2, -1)).reshape(e.shape)[..., :-shift[l]]
        stages.append(x)
    coeffs = stages[-1].view(np.float64).reshape(4 * nk, -1)
    np.matmul(coeffs, weights, out=out.view(np.float64).reshape(4 * nk, -1))
    return out


def amplification(t: ButcherTableau, p: StabilityPoint) -> AmplificationMatrix:
    """One-step amplification matrix of tableau ``t`` at point ``p``."""
    factors = _grid_factors(to_shu_osher(t), np.array([p.k_dt]), np.array([p.xi]))
    m = _one_step_planes(p.b, factors, np.empty((2, 2, 1, 1), dtype=complex))
    return AmplificationMatrix(m=m[:, :, 0, 0].copy(), tableau_name=t.name, point=p)


def eigenvalues_2x2(m, out=None, scratch=None):
    """Eigenvalue magnitudes (small, large) of stacked 2x2 complex matrices.

    The root aligned with the trace, lambda_1 = (tr + sqrt(d)) / 2, has no
    cancellation, and the other is det / lambda_1.  The discriminant
    d = (m00 - m11)^2 + 4 m01 m10, unlike tr^2 - 4 det, stays accurate near
    a double eigenvalue.  Only the planes ``m[..., r, c]`` are read, so a
    transposed view of planes (2, 2, ...) needs no copy.  The magnitudes go
    into the float pair ``out`` via ``scratch``, a complex array of shape
    (3,) + m.shape[:-2]; new ones are made when None.
    """
    m = np.asarray(m)
    shape = m.shape[:-2]
    small, large = (None, None) if out is None else out
    small, large = (ensure_buffer("out", a, shape, np.float64) for a in (small, large))
    scratch = ensure_buffer("scratch", scratch, (3,) + shape, np.complex128)
    sq, tr, tmp = scratch[0, ...], scratch[1, ...], scratch[2, ...]
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    np.subtract(m00, m11, out=sq)
    np.multiply(sq, sq, out=sq)
    np.multiply(m01, m10, out=tmp)
    tmp *= 4.0
    sq += tmp
    # sqrt(d) in real parts, as accurate as and cheaper than a complex sqrt: with
    # u = sqrt((|d| + |Re d|) / 2), v = Im d / 2u, it is u + iv if Re d >= 0, else v + iu
    x, y, u, v = sq.real, sq.imag, tmp.real, tmp.imag
    np.add(np.abs(sq, out=large), np.abs(x, out=small), out=large)
    np.sqrt(np.multiply(large, 0.5, out=large), out=u)
    v.fill(0.0)
    np.divide(0.5 * y, u, out=v, where=u != 0.0)
    swap = x < 0.0
    np.copyto(sq, tmp)
    np.copyto(x, v, where=swap)
    np.copyto(y, u, where=swap)
    # the larger |tr +- sqrt(d)| / 2 is |lambda_1|, whichever root sq holds
    np.add(m00, m11, out=tr)
    np.abs(np.add(tr, sq, out=tmp), out=large)
    np.abs(np.subtract(tr, sq, out=tmp), out=small)
    np.maximum(large, small, out=large)
    large *= 0.5
    np.multiply(m00, m11, out=tmp)
    np.multiply(m01, m10, out=sq)
    np.abs(np.subtract(tmp, sq, out=tmp), out=small)
    np.divide(small, large, out=small, where=large != 0.0)
    # where lambda_1 = 0 both roots vanish and small holds |det|, a rounding
    np.maximum(small, large, out=tr.real)
    np.minimum(small, large, out=small)
    np.copyto(large, tr.real)
    return small, large


def spectral_radius(m) -> float:
    """Largest eigenvalue magnitude of a 2x2 complex matrix."""
    arr = m.m if isinstance(m, AmplificationMatrix) else np.asarray(m)
    _, hi = eigenvalues_2x2(arr)
    return float(hi) if np.ndim(hi) == 0 else hi


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityScan:
    """Spectral radii over a (b, k_dt, xi) grid.

    Arrays have shape (nb, nk, nxi); ``lam_small``/``lam_large`` are the
    eigenvalue magnitudes sorted per point and ``rho`` equals ``lam_large``.
    """
    tableau_name: str
    b: np.ndarray
    k_dt: np.ndarray
    xi: np.ndarray
    lam_small: np.ndarray
    lam_large: np.ndarray

    @property
    def rho(self) -> np.ndarray:
        return self.lam_large

    def max_point(self):
        """(rho_max, b, k_dt, xi) at the grid point of largest radius."""
        idx = np.unravel_index(np.argmax(self.lam_large), self.lam_large.shape)
        return (float(self.lam_large[idx]), float(self.b[idx[0]]),
                float(self.k_dt[idx[1]]), float(self.xi[idx[2]]))


def scan(t: ButcherTableau, b_grid, kdt_grid, xi_grid) -> StabilityScan:
    """Evaluate both eigenvalue magnitudes over the full parameter grid.

    xi entries may include ``inf``.  Each b is evaluated on its own by the
    same operations, so a row's bits do not depend on the other b values
    or their order.  Raises ValueError for empty grids and for values
    ``_check_grid`` rejects.
    """
    b_grid, kdt_grid, xi_grid = (np.atleast_1d(np.asarray(g, dtype=float))
                                 for g in (b_grid, kdt_grid, xi_grid))
    if b_grid.size == 0 or kdt_grid.size == 0 or xi_grid.size == 0:
        raise ValueError("scan grids must be nonempty")
    _check_grid(b_grid, kdt_grid, xi_grid)
    factors = _grid_factors(to_shu_osher(t), kdt_grid, xi_grid)
    lo, hi = np.empty((2, len(b_grid), len(kdt_grid), len(xi_grid)))
    planes = np.empty((2, 2) + lo.shape[1:], dtype=complex)
    m = np.moveaxis(planes, (0, 1), (-2, -1))
    scratch = np.empty((3,) + lo.shape[1:], dtype=complex)
    for i, b in enumerate(b_grid.tolist()):
        _one_step_planes(b, factors, planes)
        eigenvalues_2x2(m, out=(lo[i], hi[i]), scratch=scratch)
    return StabilityScan(tableau_name=t.name, b=b_grid, k_dt=kdt_grid,
                         xi=xi_grid, lam_small=lo, lam_large=hi)


#: default grids mirror the ranges used for the contour plots
DEFAULT_B_GRID = np.linspace(0.0, 1.0, 101)
DEFAULT_KDT_GRID = np.linspace(0.0, 2.0 * np.pi, 401)
DEFAULT_XI_GRID = np.concatenate([np.linspace(0.0, 10.0, 101), [XI_INF]])
