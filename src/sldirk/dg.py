"""Nodal DG fields on a uniform periodic mesh and the conservative remap.

Each element carries a degree-p polynomial stored as values at the p+1
Gauss-Legendre points, so the local mass matrix is diagonal and element
integrals are exact for the stored polynomials.

Shifting a field by an arbitrary distance (the semi-Lagrangian evaluation
at upstream characteristic feet) is done by exact L2 projection of the
shifted piecewise polynomial back onto the mesh: a target element overlaps
exactly two source elements, and the two overlap integrals are Gauss
quadratures of polynomial integrands, hence exact.  The remap preserves
total mass to roundoff and reproduces mesh-aligned shifts as pure index
permutations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


def gauss_nodes(degree: int):
    """Gauss-Legendre nodes and weights on the unit interval [0, 1]."""
    if degree < 0:
        raise ValueError("polynomial degree must be >= 0")
    x, w = np.polynomial.legendre.leggauss(degree + 1)
    return 0.5 * (x + 1.0), 0.5 * w


def lagrange_eval(nodes: np.ndarray, y) -> np.ndarray:
    """Evaluate the Lagrange basis for ``nodes`` at points ``y``.

    Returns shape y.shape + (len(nodes),).  Evaluation at a node itself is
    exact (0/1) because the product form cancels factor by factor.
    """
    nodes = np.asarray(nodes, dtype=float)
    y = np.asarray(y, dtype=float)
    q = len(nodes)
    out = np.empty(y.shape + (q,))
    for a in range(q):
        num = 1.0
        for b in range(q):
            if b == a:
                continue
            num = num * (y - nodes[b]) / (nodes[a] - nodes[b])
        out[..., a] = num
    return out


@dataclass(frozen=True)
class Mesh1D:
    """Uniform periodic mesh over [x_lo, x_hi]."""
    x_lo: float
    x_hi: float
    n_elements: int

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("need at least one element")
        if not self.x_hi > self.x_lo:
            raise ValueError("empty domain")

    @property
    def length(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def dx(self) -> float:
        return self.length / self.n_elements

    def node_coords(self, degree: int) -> np.ndarray:
        """Global coordinates of the Gauss nodes, shape (n_elements, degree+1)."""
        nodes, _ = gauss_nodes(degree)
        left = self.x_lo + self.dx * np.arange(self.n_elements)
        return left[:, None] + self.dx * nodes[None, :]

    def integrate(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Gauss-quadrature domain integral of nodal values (..., n_el, q), one
        value per leading index; ``weights`` are :func:`gauss_nodes`' for q."""
        return self.dx * np.tensordot(values, weights, axes=(-1, 0)).sum(axis=-1)


@dataclass
class DGField:
    """Piecewise polynomial data: values at Gauss nodes, shape (..., n_el, q).

    Leading axes are free (velocity index, moment component); all dg
    operations act on the trailing (element, node) axes.
    """
    mesh: Mesh1D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.shape[-2] != self.mesh.n_elements:
            raise ValueError(f"values have {self.values.shape[-2]} elements, "
                             f"mesh has {self.mesh.n_elements}")

    @property
    def degree(self) -> int:
        return self.values.shape[-1] - 1

    @classmethod
    def interpolate(cls, mesh: Mesh1D, degree: int, func: Callable) -> "DGField":
        """Sample ``func`` at the Gauss nodes.

        ``func`` receives the flat node coordinate array and may return
        extra leading axes (e.g. one slice per velocity).
        """
        coords = mesh.node_coords(degree)
        vals = np.asarray(func(coords.ravel()))
        vals = vals.reshape(vals.shape[:-1] + coords.shape)
        return cls(mesh=mesh, values=vals)

    def evaluate(self, x) -> np.ndarray:
        """Point values of the owning element's polynomial, periodic in x."""
        x = np.asarray(x, dtype=float)
        mesh = self.mesh
        rel = (x - mesh.x_lo) / mesh.dx
        elem = np.floor(rel).astype(int) % mesh.n_elements
        local = rel - np.floor(rel)
        nodes, _ = gauss_nodes(self.degree)
        phi = lagrange_eval(nodes, local)                     # x.shape + (q,)
        picked = self.values[..., elem, :]                    # (..., *x.shape, q)
        return np.einsum("...b,...b->...", picked, phi)

    def integral(self) -> np.ndarray:
        """Exact integral over the domain, one value per leading index."""
        return self.mesh.integrate(self.values, gauss_nodes(self.degree)[1])

    def l1_norm(self) -> np.ndarray:
        """Gauss-quadrature L1 norm per leading index."""
        return self.mesh.integrate(np.abs(self.values), gauss_nodes(self.degree)[1])


def _fractional_matrices(nodes, weights, theta):
    """Remap matrices (A0, A1) for fractional shifts theta in [0, 1).

    theta has shape (L,); output (L, q, q).  A0 applies to the left source
    element (the piece covering local coordinates [0, theta)), A1 to the
    aligned one.  Rows are scaled by the inverse diagonal mass matrix.
    """
    theta = np.asarray(theta, dtype=float)
    q = len(nodes)
    th = theta[:, None]
    # overlap [0, theta): target points theta*n, source points 1 - theta*(1-n)
    p_tgt0 = lagrange_eval(nodes, th * nodes[None, :])
    p_src0 = lagrange_eval(nodes, 1.0 - th * (1.0 - nodes[None, :]))
    s0 = th[..., None] * np.einsum("m,lmc,lmb->lcb", weights, p_tgt0, p_src0)
    # overlap [theta, 1): target points theta + (1-theta)*n, source (1-theta)*n
    p_tgt1 = lagrange_eval(nodes, th + (1.0 - th) * nodes[None, :])
    p_src1 = lagrange_eval(nodes, (1.0 - th) * nodes[None, :])
    s1 = (1.0 - th)[..., None] * np.einsum("m,lmc,lmb->lcb", weights, p_tgt1, p_src1)
    a0 = s0 / weights[None, :, None]
    a1 = s1 / weights[None, :, None]
    # mesh-aligned entries: force the exact permutation
    aligned = theta == 0.0
    if np.any(aligned):
        a0[aligned] = 0.0
        a1[aligned] = np.eye(q)
    return a0, a1


class ShiftOperator:
    """Conservative remap of DG values by fixed per-slice shift distances.

    ``shifts`` holds one physical displacement per leading slice of the
    value array (e.g. v * tau per discrete velocity); a scalar shift acts
    on fields without a leading axis.  Operators are cheap to build and
    reusable, so callers advancing many steps with the same shifts should
    cache them.

    Building precomputes, per slice, the flat rows in the (L * n_el, q)
    view of the values that ``apply`` gathers in one ``take`` into n_el+1
    rows: row j holds source element j - cells - 1.  Target element i then
    reads its left piece (A0) from row i and its aligned piece (A1) from
    row i + 1, so both operands of the two batched (n_el, q) @ (q, q)
    products per slice are views of the one gather.  Mesh-aligned shifts
    skip the products and copy the gathered rows, an exact permutation.

    ``apply(values, out=...)`` writes the result into ``out``, which may be
    ``values`` itself because the gather reads every value before anything
    is written; the keyword-only ``gather`` and ``product`` scratch arrays
    spare the two remaining temporaries, so a caller that passes all three
    buffers makes ``apply`` allocate no field-sized array.
    """

    def __init__(self, mesh: Mesh1D, degree: int, shifts):
        self.mesh = mesh
        self.degree = degree
        shifts = np.asarray(shifts, dtype=float)
        self.scalar = shifts.ndim == 0
        shifts = np.atleast_1d(shifts)
        nodes, weights = gauss_nodes(degree)
        z = shifts / mesh.dx
        # snap shifts that are an integer number of cells up to roundoff,
        # so mesh-aligned transport stays an exact permutation
        nearest = np.round(z)
        z = np.where(np.abs(z - nearest) <= 1e-12 * (1.0 + np.abs(z)), nearest, z)
        cells = np.floor(z)
        theta = z - cells
        bump = theta >= 1.0
        cells = cells + bump
        theta = np.where(bump, 0.0, theta)
        cells = cells.astype(int)
        a0, a1 = _fractional_matrices(nodes, weights, theta)
        self._a0t = np.ascontiguousarray(np.swapaxes(a0, -1, -2))
        self._a1t = np.ascontiguousarray(np.swapaxes(a1, -1, -2))
        n = mesh.n_elements
        # row j of slice l's gather holds source element j - cells - 1,
        # periodically: target i reads rows i (left piece) and i + 1
        first_row = (np.arange(len(shifts)) * n)[:, None]
        self._rows = (first_row + (np.arange(n + 1)[None, :] - cells[:, None] - 1) % n).ravel()
        self._pure_roll = bool(np.all(theta == 0.0))

    def apply(self, values: np.ndarray, out: np.ndarray | None = None, *,
              gather: np.ndarray | None = None,
              product: np.ndarray | None = None) -> np.ndarray:
        """Remap values of shape (L, n_el, q) (or (n_el, q) for scalar shift).

        The result has the values' shape and the dtype of their product
        with a float matrix.  ``out`` receives it and may be ``values``;
        ``gather`` (the values' shape with n_el+1 elements, in their dtype)
        and ``product`` (like the result) are scratch.  A buffer of the
        wrong shape or dtype raises ``ValueError``.
        """
        vals = values[None] if self.scalar else values
        lead, n, q = vals.shape
        if lead * (n + 1) != len(self._rows):
            raise ValueError(f"values of shape {values.shape} do not match an operator "
                             f"for {len(self._rows) // (self.mesh.n_elements + 1)} shifts "
                             f"on {self.mesh.n_elements} elements")
        dtype = np.promote_types(vals.dtype, self._a1t.dtype)
        out = ensure_buffer("out", out, values.shape, dtype)
        gather = ensure_buffer("gather", gather, values.shape[:-2] + (n + 1, q), vals.dtype)
        gather = gather.reshape(lead, n + 1, q)
        res = out[None] if self.scalar else out
        # the rows are in range by construction; mode="clip" only spares
        # the buffered copy that take(..., out=) makes under mode="raise"
        vals.reshape(lead * n, q).take(self._rows, axis=0,
                                       out=gather.reshape(lead * (n + 1), q), mode="clip")
        if self._pure_roll:
            res[...] = gather[:, 1:]
        else:
            product = ensure_buffer("product", product, values.shape, dtype)
            product = product[None] if self.scalar else product
            # batched (n_el, q) @ (q, q)^T per leading slice
            np.matmul(gather[:, 1:], self._a1t, out=res)
            np.matmul(gather[:, :-1], self._a0t, out=product)
            res += product
        return out


def ensure_buffer(name: str, buf: np.ndarray | None, shape: tuple, dtype) -> np.ndarray:
    """``buf`` as an output or scratch array of ``shape`` and ``dtype``, or a
    new one when it is None.  Raises ``ValueError`` unless ``buf`` can be
    written in place: C-contiguous, of that shape and dtype exactly."""
    if buf is None:
        return np.empty(shape, dtype)
    if buf.shape != shape or buf.dtype != dtype or not buf.flags.c_contiguous:
        raise ValueError(f"{name} buffer must be a C-contiguous {np.dtype(dtype)} array of "
                         f"shape {shape}, got {buf.dtype} {buf.shape}")
    return buf


def advect(field: DGField, velocity, tau: float) -> DGField:
    """Return the field shifted along characteristics: x -> field(x - v*tau).

    ``velocity`` is a scalar (field without a leading axis) or one speed
    per leading slice.  Any shift magnitude and sign is handled through the
    periodic wrap; mass is preserved exactly.
    """
    shifts = np.asarray(velocity, dtype=float) * tau
    op = ShiftOperator(field.mesh, field.degree, shifts)
    return DGField(mesh=field.mesh, values=op.apply(field.values))


def fourier_coefficient(field: DGField, mode: int, n_quad: int = 16) -> np.ndarray:
    """Fourier coefficient (1/L) * integral f(x) exp(-i k x) dx, k = 2 pi mode / L.

    Per-element Gauss quadrature with ``n_quad`` points; for the smooth
    exponential factor this is accurate far beyond the field's own
    polynomial resolution.
    """
    mesh = field.mesh
    xq, wq = np.polynomial.legendre.leggauss(n_quad)
    xq = 0.5 * (xq + 1.0)
    wq = 0.5 * wq
    nodes, _ = gauss_nodes(field.degree)
    basis = lagrange_eval(nodes, xq)                       # (n_quad, q)
    f_at_q = np.einsum("...nb,mb->...nm", field.values, basis)
    left = mesh.x_lo + mesh.dx * np.arange(mesh.n_elements)
    x = left[:, None] + mesh.dx * xq[None, :]
    k = 2.0 * np.pi * mode / mesh.length
    phase = np.exp(-1j * k * x)
    acc = np.einsum("...nm,nm,m->...", f_at_q, phase, wq)
    return acc * mesh.dx / mesh.length
