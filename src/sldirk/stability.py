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
Per b, a scan builds the coefficients N over the k_dt grid as
(row, term, column, k_dt), so that each stage operation streams over
contiguous k_dt rows and works only on the terms the stage can reach.
Then, one block of k_dt rows at a time, a real matrix product with R
writes the block's entry planes m[r, c] into a block-sized buffer, and
the eigenvalue kernel reads them from cache into the slices of the
(n_b, n_kdt, n_xi) result.  ``amplification`` runs the same recursion
and one product on a one-point grid.  At xi = inf all r vanish and only
kappa = 0 survives: the stiff limit is exact, with no large finite xi and
no inf / inf.
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
        for name in ("b", "k_dt", "xi"):
            value = getattr(self, name)
            if np.ndim(value) != 0:
                raise ValueError(f"StabilityPoint {name} must be a scalar, got {value!r}")
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
    """(I - a_ll * xi * J)^{-1} = P0 + r (I - P0) with r = 1 / (1 + a_ll * xi),
    broadcast over xi and b.

    J = -(I - P0) has eigenvalues {0, -1}, so the matrix is nonsingular for
    every xi >= 0.  At xi = inf, r = 0 and the result is exactly P0.
    """
    if a_ll <= 0.0:
        raise ValueError(f"stage weight a_ll = {a_ll} must be positive")
    r = 1.0 / (1.0 + a_ll * np.asarray(xi, dtype=float))
    p0 = equilibrium_projection(b)
    return p0 + r[..., None, None] * (np.eye(2) - p0)


def _grid_factors(so: ShuOsherForm, kdt_grid, xi_grid):
    """The b-independent factors of the expanded map, built once per grid.

    ``start[l]`` is the diagonal of B_l as (2, nk) rows and ``coupling[l][j]``
    that of C_lj as a (2, 1, 1, nk) array, whose row r scales row r of
    coefficients laid out as (row, term, column, k).  The terms kappa count
    the stages of each distinct weight a_g, flattened in C order, so the
    factor r_g = 1 / (1 + a_g * xi) moves a term stride_g places up.  Stage
    l, of weight a_g(l), thus reaches only the leading ``reach[l + 1]`` =
    1 + stride_g(0) + ... + stride_g(l) terms; ``reach[0]`` = 1 is B_l's.
    ``weights`` is the real kron(R, I_2), with R[kappa, xi] =
    prod_g r_g^kappa_g, applied to real and imaginary parts; a scan
    multiplies a block of k_dt rows of coefficients by it at a time.
    ``work`` holds the coefficients of every stage plus two more, room that
    each b reuses; it starts zero, and the terms a stage cannot reach stay
    zero.
    """
    w, c = so.b_coeffs, so.c
    sign = np.array([[-1j], [1j]])
    start = [(1.0 - w[l, :l].sum()) * np.exp(sign * (c[l] * kdt_grid)) for l in range(so.s)]
    coupling = [[(w[l, j] * np.exp(sign * ((c[l] - c[j]) * kdt_grid)))[:, None, None, :]
                 for j in range(l)] for l in range(so.s)]
    a_g, group = np.unique(so.diag, return_inverse=True)
    dims = np.bincount(group) + 1
    stride = np.array([np.prod(dims[g + 1:]) for g in range(len(dims))])
    r = 1.0 / (1.0 + a_g[:, None] * xi_grid)
    kappa = np.indices(dims).reshape(len(dims), -1)
    weights = np.kron(np.prod(r[:, None, :] ** kappa[:, :, None], axis=0), np.eye(2))
    reach = [1] + (1 + np.cumsum(stride[group])).tolist()
    work = np.zeros((so.s + 2, 2, kappa.shape[1], 2, len(kdt_grid)), dtype=complex)
    return start, coupling, reach, weights, work


def _coefficients(b: float, factors) -> np.ndarray:
    """The coefficients N_kappa of the one-step map at ``b``, as a
    (2, 2, nk, n_terms) array in ``work``.

    The stage recursion E_l = B_l + sum_{j<l} C_lj X_j, X_l = A_l^{-1} E_l
    runs on coefficients (row, term, column, k), so the leading terms of a
    row are one contiguous block, and stage l works only on the terms it can
    reach.  Each coupling multiply streams over the contiguous terms of one
    row, which numpy runs without iterator buffers (those of a broadcast
    over both rows would be the largest allocation of a scan), and
    I - P0 = -J moves a term one power of r_g up (P0 keeps it in place).
    The last stage is transposed once, for a product with the weights.
    """
    start, coupling, reach, _, work = factors
    p0, q = equilibrium_projection(b), -relaxation_jacobian(b)
    stages, e, prod = work[:-2], work[-2], work[-1]
    for l, x in enumerate(stages):
        n, up = reach[l], reach[l + 1] - reach[l]  # the terms of E_l, their shift in X_l
        head = e[:, :n]
        head.fill(0.0)
        head[0, 0, 0], head[1, 0, 1] = start[l]
        for j in range(l):
            n_j = reach[j + 1]
            for r in range(2):
                head[r, :n_j] += np.multiply(coupling[l][j][r], stages[j][r, :n_j],
                                             out=prod[r, :n_j])
        rows = head.reshape(2, -1)
        np.matmul(p0, rows, out=x[:, :n].reshape(2, -1))
        np.matmul(q, rows, out=prod[:, :n].reshape(2, -1))
        if up < n:
            x[:, up:n] += prod[:, :n - up]
        x[:, max(n, up):n + up] = prod[:, max(n, up) - up:n]  # the terms [n, up) stay zero
    _, n_terms, _, nk = e.shape
    coeffs = e.reshape(2, 2, nk, n_terms)
    np.copyto(coeffs, stages[-1].transpose(0, 2, 3, 1))
    return coeffs


def _one_step_planes(b: float, factors, out) -> np.ndarray:
    """Write the one-step map at ``b`` into ``out``, as complex planes
    m[r, c] of shape (2, 2, nk, nxi), and return it: one real matrix
    product of all k_dt rows of the coefficients with the weights sums
    their terms; a scan runs the same product one block of rows at a
    time."""
    coeffs = _coefficients(b, factors)
    nk = coeffs.shape[2]
    np.matmul(coeffs.view(np.float64).reshape(4 * nk, -1), factors[3],
              out=out.view(np.float64).reshape(4 * nk, -1))
    return out


def amplification(t: ButcherTableau, p: StabilityPoint) -> AmplificationMatrix:
    """One-step amplification matrix of tableau ``t`` at point ``p``."""
    factors = _grid_factors(to_shu_osher(t), np.array([p.k_dt]), np.array([p.xi]))
    m = _one_step_planes(p.b, factors, np.empty((2, 2, 1, 1), dtype=complex))
    return AmplificationMatrix(m=m[:, :, 0, 0].copy(), tableau_name=t.name, point=p)


#: the smallest positive double, so max(u, _TINY) is u for every u > 0
_TINY = np.finfo(np.float64).smallest_subnormal


def _mask_in(plane):
    """A boolean view on the first byte of each element of the C-contiguous
    float64 ``plane``: room for a mask in a buffer that is free, so none is
    allocated."""
    return np.ndarray(plane.shape, np.bool_, buffer=plane, strides=plane.strides)


#: elements per block of a scan: per block of k_dt rows it writes the four
#: entry planes straight from the weights product and runs the eigenvalue
#: kernel on them; the planes, the scratch and the output of 12,000 elements
#: take 1.5 MB, which stays in a 2 MB per-core L2 cache from the product
#: through the kernel's passes
_EIGEN_BLOCK = 12_000


def eigenvalues_2x2(m, out=None, scratch=None):
    """Eigenvalue magnitudes (small, large) of stacked 2x2 complex matrices.

    The magnitudes are |lambda_1| <= |lambda_2|, the ``lambda1_abs`` and
    ``lambda2_abs`` columns of ``stability-scan --out``.  lambda_2 is the
    root aligned with the trace, (tr + sqrt(d)) / 2, which has no
    cancellation, and |lambda_1| = |det| / |lambda_2|.  The discriminant
    d = (m00 - m11)^2 + 4 m01 m10, unlike tr^2 - 4 det, stays accurate near
    a double eigenvalue; m01 m10 is formed once for both d and det.  Only
    the planes ``m[..., r, c]`` are read, so a transposed view of planes
    (2, 2, ...) needs no copy.  The magnitudes go into the float pair
    ``out`` via ``scratch``, a complex array of shape (3,) + m.shape[:-2];
    new ones are made when None.  With both given and ``m`` complex, no
    array of the size of a plane is allocated.  The kernel does not
    block: it runs once over the whole stack, and :func:`scan` passes it
    one block at a time.  Masks live in an ``out`` plane that is free at
    the time, and the scratch doubles as six float planes ``f``.
    """
    m = np.asarray(m)
    shape = m.shape[:-2]
    small, large = (None, None) if out is None else out
    small, large = (ensure_buffer("out", a, shape, np.float64) for a in (small, large))
    scratch = ensure_buffer("scratch", scratch, (3,) + shape, np.complex128)
    p, d, w = scratch[0, ...], scratch[1, ...], scratch[2, ...]
    f = scratch.view(np.float64).reshape((6,) + small.shape)
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    np.multiply(m01, m10, out=p)
    np.subtract(m00, m11, out=d)
    np.multiply(d, d, out=d)
    d += np.multiply(p, 4.0, out=w)
    np.abs(np.subtract(np.multiply(m00, m11, out=w), p, out=w), out=small)
    # sqrt(d) in real parts, as accurate as and cheaper than a complex sqrt: with
    # u = sqrt((|d| + |Re d|) / 2), v = Im d / 2u, it is u + iv if Re d >= 0, else v + iu;
    # u = 0 only where d = 0, and there v = 0 / _TINY = 0.  w = u + iv throughout.
    x, y = d.real, d.imag
    np.add(np.abs(d, out=large), np.abs(x, out=f[0, ...]), out=large)
    np.sqrt(np.multiply(large, 0.5, out=large), out=w.real)
    np.divide(np.multiply(y, 0.5, out=f[1, ...]), np.maximum(w.real, _TINY, out=f[0, ...]),
              out=w.imag)
    # |tr +- (v + iu)| = |T +- w| for T = Im tr + i Re tr, so where Re d < 0 the
    # trace is swapped instead of the root, computed again from the entries
    swap = np.less(x, 0.0, out=_mask_in(large))
    tr = np.add(m00, m11, out=p)
    np.add(m00.imag, m11.imag, out=tr.real, where=swap)
    np.add(m00.real, m11.real, out=tr.imag, where=swap)
    # the larger |T +- w| / 2 is |lambda_2|, whichever root w is
    lam = f[0, ...]  # in the memory of tr, after its last read
    np.abs(np.add(tr, w, out=d), out=large)
    np.abs(np.subtract(tr, w, out=d), out=lam)
    np.maximum(large, lam, out=lam)
    lam *= 0.5
    if lam.min(initial=np.inf) > 0.0:
        small /= lam
    else:  # where lambda_2 = 0 both roots vanish and small keeps |det|, a rounding
        np.divide(small, lam, out=small, where=np.not_equal(lam, 0.0, out=_mask_in(large)))
    np.maximum(small, lam, out=large)
    np.minimum(small, lam, out=small)
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
    or their order.  Per b, a block of ``_EIGEN_BLOCK // n_xi`` k_dt rows at
    a time goes from the coefficients to its entry planes and eigenvalue
    magnitudes, in buffers of one block.  A scalar is a one-point grid.  Raises ValueError for
    grids that are empty or not 1-D, and for values ``_check_grid``
    rejects.
    """
    grids = []
    for name, g in (("b", b_grid), ("k_dt", kdt_grid), ("xi", xi_grid)):
        g = np.atleast_1d(np.asarray(g, dtype=float))
        if g.ndim != 1:
            raise ValueError(f"scan {name} grid must be 1-D, got shape {g.shape}")
        if g.size == 0:
            raise ValueError(f"scan {name} grid must be nonempty")
        grids.append(g)
    b_grid, kdt_grid, xi_grid = grids
    _check_grid(b_grid, kdt_grid, xi_grid)
    factors = _grid_factors(to_shu_osher(t), kdt_grid, xi_grid)
    nk, nxi = len(kdt_grid), len(xi_grid)
    lo, hi = np.empty((2, len(b_grid), nk, nxi))
    rows = min(nk, max(1, _EIGEN_BLOCK // nxi))
    planes = np.empty(4 * rows * nxi, dtype=complex)
    scratch = np.empty(3 * rows * nxi, dtype=complex)
    blocks = []  # per block of k_dt rows: the rows, its planes as floats and as maps, its scratch
    for k in range(0, nk, rows):
        n = min(rows, nk - k)
        block = planes[:4 * n * nxi].reshape(2, 2, n, nxi)
        blocks.append((slice(k, k + n), block.view(np.float64),
                       np.moveaxis(block, (0, 1), (-2, -1)),
                       scratch[:3 * n * nxi].reshape(3, n, nxi)))
    weights = factors[3]
    for i, b in enumerate(b_grid.tolist()):
        coeffs = _coefficients(b, factors).view(np.float64)
        for ks, block, m, block_scratch in blocks:
            np.matmul(coeffs[:, :, ks], weights, out=block)
            eigenvalues_2x2(m, out=(lo[i, ks], hi[i, ks]), scratch=block_scratch)
    return StabilityScan(tableau_name=t.name, b=b_grid, k_dt=kdt_grid,
                         xi=xi_grid, lam_small=lo, lam_large=hi)


#: default grids mirror the ranges used for the contour plots
DEFAULT_B_GRID = np.linspace(0.0, 1.0, 101)
DEFAULT_KDT_GRID = np.linspace(0.0, 2.0 * np.pi, 401)
DEFAULT_XI_GRID = np.concatenate([np.linspace(0.0, 10.0, 101), [XI_INF]])
