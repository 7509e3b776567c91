"""Fourier-space amplification matrices for SL-DIRK on the two-velocity model.

The linear two-velocity relaxation system diagonalizes per wavenumber into
a 2x2 system for the Fourier coefficients of (f_1, f_2).  One SL-DIRK step
maps the coefficient pair through a product of stage factors:

* an implicit relaxation solve per stage, (I - a_kk * xi * J)^{-1} with
  J the relaxation Jacobian and xi = dt / eps;
* diagonal phase factors exp(-+ i * k * shift) from the characteristic
  shifts of the Shu-Osher combination.

Everything reduces to closed-form 2x2 complex algebra.  Scans never stack
tiny matrices: for one b at a time, the one-step map is held as four
contiguous complex planes m[r, c] of shape (n_kdt, n_xi), in one array of
shape (2, 2, n_kdt, n_xi).  The stage recursion runs one column of the map
at a time, so a stage holds two planes.  The phase factors are (n_kdt, 1)
columns that scale planes, the real stage inverses are (n_xi,) rows whose
entries combine planes by elementwise scaled sums, and the eigenvalues come
from the trace and determinant of the planes, so each b lands in the
contiguous slice ``rho[i]`` of the (n_b, n_kdt, n_xi) result.
``amplification`` runs the same kernel on a one-point grid.  The stiff
limit xi -> infinity is handled analytically by the equilibrium projection
instead of a large finite xi, which would cancel catastrophically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .butcher import ButcherTableau, ShuOsherForm, to_shu_osher

#: distinguished value for the stiff limit dt/eps -> infinity
XI_INF = np.inf


def _check_grid(b, k_dt, xi):
    """Raise ValueError unless b lies in [0, 1], k_dt is finite and >= 0 and
    xi >= 0 (inf allowed); NaN fails every check.  Accepts scalars or grids."""
    b, k_dt, xi = (np.asarray(g, dtype=float) for g in (b, k_dt, xi))
    b_ok = (b >= 0.0) & (b <= 1.0)
    if not np.all(b_ok):
        raise ValueError(f"b values must lie in [0, 1], got {b[~b_ok]}")
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


def _phase_pair(theta):
    """Diagonal advection factor diag(exp(-i theta), exp(+i theta)) as (.., 2)."""
    theta = np.asarray(theta, dtype=float)
    out = np.empty(theta.shape + (2,), dtype=complex)
    out[..., 0] = np.exp(-1j * theta)
    out[..., 1] = np.exp(1j * theta)
    return out


def _stage_factors(so: ShuOsherForm, b_grid, kdt_grid, xi_grid):
    """Factors of the stage recursion, computed once per grid.

    Phase factors depend on k_dt only: ``start[l]`` is the diagonal of B_l
    and ``coupling[l][j]`` that of C_lj, each as (2, nk, 1) columns that
    scale the planes of a row.  Real stage inverses depend on (b, xi) only:
    ``ainv[l][r, c, i]`` is the contiguous (nxi,) row of entry (r, c) at
    b_grid[i].
    """
    w, c = so.b_coeffs, so.c
    start = [((1.0 - w[l, :l].sum()) * _phase_pair(c[l] * kdt_grid)).T[:, :, None]
             for l in range(so.s)]
    coupling = [[(w[l, j] * _phase_pair((c[l] - c[j]) * kdt_grid)).T[:, :, None]
                 for j in range(l)] for l in range(so.s)]
    # singly diagonal tableaus share one inverse between all stages
    by_weight = {a_ll: np.ascontiguousarray(
        stage_inverse(a_ll, xi_grid[None, :], b_grid[:, None]).transpose(2, 3, 0, 1))
        for a_ll in set(so.diag.tolist())}
    return start, coupling, [by_weight[a_ll] for a_ll in so.diag.tolist()]


def _one_step_planes(start, coupling, ainv, i) -> np.ndarray:
    """One-step map at b_grid[i] as planes m[r, c], shape (2, 2, nk, nxi).

    The stage recursion accumulates E_l = B_l + sum_{j<l} C_lj X_j with
    diagonal B_l, C_lj and X_l = A_l^{-1} E_l; the map is the last X_l.
    Each column of the map is the response to one unit start vector, so
    the columns run one after the other: a stage holds one (2, nk, nxi)
    column, E_l is built in X_l's buffer, and the inverse is applied with
    two plane temporaries.
    """
    s = len(start)
    nk, nxi = start[0].shape[1], ainv[0].shape[-1]
    m = np.empty((2, 2, nk, nxi), dtype=complex)
    row = np.empty((nk, nxi), dtype=complex)
    tmp = np.empty_like(row)
    for col in range(2):
        stages = []
        for l in range(s):
            a = ainv[l][:, :, i]
            x = m[:, col] if l == s - 1 else np.empty((2, nk, nxi), dtype=complex)
            if l == 0:
                # E_0 = B_0 e_col, so X_0[r] = a[r, col] * B_0[col]
                for r in range(2):
                    np.multiply(start[0][col], a[r, col], out=x[r])
            else:
                np.multiply(coupling[l][0], stages[0], out=x)
                x[col] += start[l][col]
                for j in range(1, l):
                    for r in range(2):
                        np.multiply(coupling[l][j][r], stages[j][r], out=tmp)
                        x[r] += tmp
                np.multiply(x[0], a[0, 0], out=row)
                np.multiply(x[1], a[0, 1], out=tmp)
                row += tmp
                x[1] *= a[1, 1]
                np.multiply(x[0], a[1, 0], out=tmp)
                x[1] += tmp
                x[0] = row
            stages.append(x)
    return m


def amplification(t: ButcherTableau, p: StabilityPoint) -> AmplificationMatrix:
    """One-step amplification matrix of tableau ``t`` at point ``p``."""
    factors = _stage_factors(to_shu_osher(t), np.array([p.b]),
                             np.array([p.k_dt]), np.array([p.xi]))
    m = _one_step_planes(*factors, 0)[:, :, 0, 0].copy()
    return AmplificationMatrix(m=m, tableau_name=t.name, point=p)


def eigenvalues_2x2(m):
    """Eigenvalues of stacked 2x2 complex matrices, sorted by magnitude.

    Uses the quadratic formula with a cancellation-safe branch: the root
    aligned with the trace is computed first, the other as det / lambda_1.
    Returns (small, large) arrays of shape m.shape[:-2].  Only the four
    entry planes ``m[..., r, c]`` are read, so a transposed view of planes
    (2, 2, ...) is used without a copy.
    """
    m = np.asarray(m)
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    tr = m00 + m11
    det = m00 * m11 - m01 * m10
    # complex, and an array even for a single matrix, so the steps below
    # can work in place
    sq = np.asarray(tr * tr - 4.0 * det + 0j)
    np.sqrt(sq, out=sq)
    # flip sq where it opposes tr so tr + sq never cancels
    align = np.conj(tr) * sq
    np.negative(sq, out=sq, where=align.real < 0.0)
    lam_big = tr + sq
    lam_big *= 0.5
    lam_small = np.zeros_like(lam_big)
    np.divide(det, lam_big, out=lam_small, where=lam_big != 0.0)
    big = np.abs(lam_big)
    small = np.abs(lam_small)
    return np.minimum(small, big), np.maximum(small, big)


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

    xi entries may include ``inf``.  Each b is evaluated vectorized over
    the (k_dt, xi) plane, so points are independent and the output is
    deterministic regardless of execution order.  Raises ValueError for
    empty grids and for values ``_check_grid`` rejects.
    """
    b_grid = np.atleast_1d(np.asarray(b_grid, dtype=float))
    kdt_grid = np.atleast_1d(np.asarray(kdt_grid, dtype=float))
    xi_grid = np.atleast_1d(np.asarray(xi_grid, dtype=float))
    if b_grid.size == 0 or kdt_grid.size == 0 or xi_grid.size == 0:
        raise ValueError("scan grids must be nonempty")
    _check_grid(b_grid, kdt_grid, xi_grid)
    lo = np.empty((len(b_grid), len(kdt_grid), len(xi_grid)))
    hi = np.empty_like(lo)
    factors = _stage_factors(to_shu_osher(t), b_grid, kdt_grid, xi_grid)
    for i in range(len(b_grid)):
        m = np.moveaxis(_one_step_planes(*factors, i), (0, 1), (-2, -1))
        lo[i], hi[i] = eigenvalues_2x2(m)
        del m  # free the map before the next one is built
    return StabilityScan(tableau_name=t.name, b=b_grid, k_dt=kdt_grid,
                         xi=xi_grid, lam_small=lo, lam_large=hi)


#: default grids mirror the ranges used for the contour plots
DEFAULT_B_GRID = np.linspace(0.0, 1.0, 101)
DEFAULT_KDT_GRID = np.linspace(0.0, 2.0 * np.pi, 401)
DEFAULT_XI_GRID = np.concatenate([np.linspace(0.0, 10.0, 101), [XI_INF]])
