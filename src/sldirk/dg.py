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

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np


# typed, so that a bool or float degree is not served the int's entry
@functools.lru_cache(maxsize=None, typed=True)
def gauss_nodes(degree: int):
    """Gauss-Legendre nodes and weights on the unit interval [0, 1].

    Computed once per degree; the arrays are shared, hence read-only."""
    x, w = np.polynomial.legendre.leggauss(whole_number("degree", degree, 0) + 1)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


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
        whole_number("n_elements", self.n_elements, 1)
        if not math.isfinite(self.x_hi - self.x_lo):
            raise ValueError(f"mesh length must be finite, got [{self.x_lo}, {self.x_hi}]")
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

    def integrate(self, values: np.ndarray) -> np.ndarray:
        """Gauss-quadrature domain integral of nodal values (..., n_el, q), one
        value per leading index."""
        q = values.shape[-1]
        _, weights = gauss_nodes(q - 1)
        # the product np.tensordot makes, without its Python wrapper
        per_element = np.dot(values.reshape(-1, q), weights).reshape(values.shape[:-1])
        return self.dx * per_element.sum(axis=-1)


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


#: bytes of stacked float64 gather a multi-term remap handles per group (see
#: ShiftOperator): a group's gather and product stay in a core's cache
_GATHER_BUDGET = 256 * 1024


def _group_size(term_shape: tuple, n_terms: int) -> int:
    """Terms per stacked group of a remap of ``n_terms`` terms of shape
    ``term_shape`` (L, n_el, q); 0 when one term's stacked gather, both
    windows of float64 values, is past ``_GATHER_BUDGET``."""
    lead, n, q = term_shape
    return min(n_terms, _GATHER_BUDGET // (16 * lead * n * q))


def shift_cells(shifts, dx: float) -> tuple[np.ndarray, np.ndarray]:
    """The whole cells (ints) and the fractions in [0, 1) of ``shifts``
    over elements of width ``dx``, as :class:`ShiftOperator` remaps them.
    A shift within roundoff of a whole number of cells is snapped to it,
    so that mesh-aligned transport stays an exact permutation."""
    z = np.asarray(shifts, dtype=float) / dx
    nearest = np.round(z)
    z = np.where(np.abs(z - nearest) <= 1e-12 * (1.0 + np.abs(z)), nearest, z)
    cells = np.floor(z)
    theta = z - cells
    bump = theta >= 1.0
    return (cells + bump).astype(int), np.where(bump, 0.0, theta)


class ShiftOperator:
    """Conservative remap of DG values by fixed per-slice shift distances,
    or a weighted sum of such remaps of the blocks of a stacked input.

    ``shifts`` holds one physical displacement per leading slice of the
    value array (e.g. v * tau per discrete velocity).  Operators are cheap
    to build and reusable, so callers advancing many steps with the same
    shifts should cache them.

    A 2-D ``shifts`` of shape (m, L) makes m terms.  The input then stacks
    blocks of L slices, (B * L, n_el, q) with B = max(blocks) + 1; term b
    remaps block ``blocks[b]`` (default: block b) by row b of ``shifts``,
    and ``apply`` returns, with shape (L, n_el, q),

        S_0 x_0 + sum_{b >= 1} weights[b - 1] * S_b x_b,

    each weight one number or one number per slice.

    A slice shifted by ``cells`` whole elements and a fraction maps source
    element i - cells - 1 (its left piece, matrix A0) and source element
    i - cells (its aligned piece, A1) onto target element i, periodically.
    The remap is linear, so each term's weight is folded into its A0 and
    A1 when the operator is built.  A term thus reads element offsets,
    target minus source, from the least ``cells`` of its slices to the
    greatest plus one (:func:`shift_cells`).

    Terms are processed in groups whose stacked float64 gather fits
    ``_GATHER_BUDGET`` bytes.  One indexed ``take`` gathers both source
    elements of every term of a group into an (L, n_el, 2 * terms * q)
    array, and one batched matmul with the (L, 2 * terms * q, q) stack of
    the terms' matrices forms the group's sum.  The first group writes the
    result; each later one is added to it.  A lone term past the budget (a
    remap of many slices) gathers n_el + 1 rows per slice instead, row j
    holding source element j - cells - 1, so that the windows [0, n_el)
    and [1, n_el] are the operands of its two overlap products; each run
    of consecutive slices with one ``cells`` is gathered by two block
    copies.  A one-term operator whose shifts are all whole cells only
    gathers and copies, an exact permutation.  The sum of the terms agrees
    with a sum of one-term remaps to roundoff.

    ``apply(values, out=...)`` writes the result into ``out``, which may be
    ``values`` itself for a one-term operator; with the keyword-only
    ``gather`` and ``product`` scratch (shapes from :meth:`scratch_shapes`)
    as well, ``apply`` allocates no field-sized array.  It then also keeps
    its binding -- its checked arrays and its (kernel, arguments) list --
    and a call on the same four arrays of the same shape reruns those
    kernels on whatever the values hold by then.  Threads sharing an
    operator, each with its own buffers, get serial bits.
    """

    def __init__(self, mesh: Mesh1D, degree: int, shifts, blocks=None, weights=()):
        self.mesh = mesh
        self.degree = degree
        terms = np.asarray(shifts, dtype=float)
        if terms.ndim not in (1, 2):
            raise ValueError(f"shifts must be one per slice or (terms, slices), "
                             f"got shape {terms.shape}")
        terms = terms.reshape(-1, terms.shape[-1])
        m, self._lead = terms.shape
        blocks = tuple(range(m)) if blocks is None else tuple(int(b) for b in blocks)
        self._weights = tuple(float(w) if np.ndim(w) == 0 else tuple(map(float, w))
                              for w in weights)
        if (len(blocks) != m or len(self._weights) != m - 1 or min(blocks) < 0
                or any(isinstance(w, tuple) and len(w) != self._lead for w in self._weights)):
            raise ValueError(f"{m} terms need {m} source blocks >= 0 and {m - 1} weights, "
                             f"each one number or one per slice ({self._lead}), got blocks "
                             f"{blocks} and weights {self._weights}")
        self.n_blocks = max(blocks) + 1
        nodes, weights = gauss_nodes(degree)
        cells, theta = shift_cells(terms.ravel(), mesh.dx)
        n, q, L = mesh.n_elements, degree + 1, self._lead
        # (w A0^T, w A1^T) of every (term, slice), the matrices of the products
        scale = np.concatenate([np.broadcast_to(w, L) for w in (1.0,) + self._weights])
        scale = scale[:, None, None]
        pair = np.ascontiguousarray(np.swapaxes(np.stack(
            _fractional_matrices(nodes, weights, theta)), -1, -2) * scale)
        # the flat source slice of every (term, slice)
        sources = (np.asarray(blocks)[:, None] * L + np.arange(L)).ravel()
        size = _group_size((L, n, q), m)
        roll = m == 1 and not theta.any()
        # per group: its first term, its gather shape, its flat gather rows
        # (None when it copies its runs), its slice runs and its matrices
        # (None for a roll)
        self._groups = []
        if size and not roll:
            for t0 in range(0, m, size):
                t1 = min(t0 + size, m)
                # gather entry (l, i, t, w) holds source element
                # i + w - cells - 1 of slice l of term t0 + t
                src, shift = (a[t0 * L:t1 * L].reshape(-1, L).T[:, None, :, None]
                              for a in (sources, cells))
                i, w = np.arange(n)[:, None, None], np.arange(2)
                rows = (src * n + (i + w - shift - 1) % n).ravel()
                stack = pair[:, t0 * L:t1 * L].reshape(2, t1 - t0, L, q, q)
                stack = np.ascontiguousarray(stack.transpose(2, 1, 0, 3, 4)).reshape(L, -1, q)
                self._groups.append((t0, (L, n, 2 * (t1 - t0) * q), rows, None, stack))
            # each later group's sum passes through the product
            product_rows = L if len(self._groups) > 1 else 0
        else:
            # the runs of slices with one cell offset, per term; slice 0
            # starts one.  Per run: its first slice, its first source slice,
            # its length and the source element of its gather row 0
            for t in range(m):
                per_slice = cells[t * L:(t + 1) * L]
                starts = np.flatnonzero(np.r_[True, per_slice[1:] != per_slice[:-1]])
                runs = np.stack([starts, sources[t * L + starts], np.diff(starts, append=L),
                                 (-per_slice[starts] - 1) % n], axis=1).tolist()
                matrices = None if roll else pair[:, t * L:(t + 1) * L]
                self._groups.append((t, (L, n + 1, q), None, runs, matrices))
            # a lone term's two overlap products
            product_rows = 0 if roll else 2 * L
        # the first group gathers the most
        self._gather_shape = (math.prod(self._groups[0][1]),)
        self._product_shape = (product_rows, n, q)
        self._bound = (None,) * 6  # the binding kept, as _bind returns it

    @staticmethod
    def scratch_shapes(term_shape: tuple, n_terms: int = 1) -> tuple[tuple, tuple]:
        """Shapes of the ``gather`` and ``product`` scratch with which
        ``apply`` remaps ``n_terms`` terms of shape ``term_shape``
        (L, n_el, q): a flat gather and (rows, n_el, q) products, at least
        L rows.  Longer buffers serve as well, so one pair sized for the
        most terms serves operators with fewer."""
        lead, n, q = term_shape
        size = _group_size(term_shape, n_terms)
        gather = lead * n * 2 * size * q if size else lead * (n + 1) * q
        return (gather,), ((1 if size else 2) * lead, n, q)

    def apply(self, values: np.ndarray, out: np.ndarray | None = None, *,
              gather: np.ndarray | None = None,
              product: np.ndarray | None = None) -> np.ndarray:
        """Remap values of shape (B * L, n_el, q) into an array of shape
        (L, n_el, q).

        The result has the dtype of the values' product with a float
        matrix.  ``out`` receives it and may be ``values`` for one term;
        ``gather`` (in the values' dtype) and ``product`` (in the result's)
        are scratch of at least the :meth:`scratch_shapes`.  A buffer of
        the wrong shape or dtype raises ``ValueError``.
        """
        bound = self._bound
        if not (bound[0] is values and bound[1] == values.shape and bound[2] is out
                and bound[3] is gather and bound[4] is product):
            bound = self._bind(values, out, gather, product)
            if all(b is not None for b in (out, gather, product)) and values.flags.c_contiguous:
                self._bound = bound
        for kernel, args in bound[5]:
            kernel(*args)
        return bound[2]

    def _bind(self, values, out, gather, product) -> tuple:
        """(values, their shape, out or a new array, gather, product, the
        (kernel, arguments) pairs of the remap); ``ValueError`` for bad arrays."""
        L, n, q = self._lead, self.mesh.n_elements, values.shape[-1]
        if values.shape[:-1] != (self.n_blocks * L, n):
            raise ValueError(f"values of shape {values.shape} do not match an operator "
                             f"for {self.n_blocks} block(s) of {L} shifts on {n} elements")
        dtype = np.promote_types(values.dtype, float)
        out = ensure_buffer("out", out, (L, n, q), dtype)
        gathered = self._scratch("gather", gather, self._gather_shape, values.dtype)
        products = self._scratch("product", product, self._product_shape, dtype)
        calls = []
        for t0, shape, rows, runs, matrices in self._groups:
            g = gathered[:math.prod(shape)].reshape(shape)
            if rows is None:
                # gather row j of a run holds source element (j + first) % n
                for dst, src, length, first in runs:
                    calls += [(np.copyto, (g[dst:dst + length, :n - first],
                                           values[src:src + length, first:])),
                              (np.copyto, (g[dst:dst + length, n - first:],
                                           values[src:src + length, :first + 1]))]
            # the rows are in range by construction; mode="clip" only spares
            # the buffered copy that take(..., out=) makes under mode="raise".
            # Rows of three 8-byte values (float64 at degree 2) go by element:
            # take moves 24-byte items with memmove but 8-byte ones with one
            # load and store each
            elif values.itemsize == 8 and q == 3:
                elements = (rows[:, None] * q + np.arange(q)).ravel()
                calls.append((values.reshape(-1).take, (elements, 0, g.reshape(-1), "clip")))
            else:
                calls.append((values.reshape(-1, q).take, (rows, 0, g.reshape(-1, q), "clip")))
            if matrices is None:  # whole-cell shifts: the gathered rows are the result
                calls.append((np.copyto, (out, g[:, 1:])))
                continue
            matrices = matrices.astype(dtype, copy=False)
            acc = out if t0 == 0 else products[:L]
            if shape[1] > n:
                # a lone term past the budget: the A1 product goes straight
                # to acc, as a product hides the cache misses of writing
                # the result and an add does not
                left = products[L:2 * L]
                calls += [(np.matmul, (g[:, 1:], matrices[1], acc)),
                          (np.matmul, (g[:, :-1], matrices[0], left)),
                          (np.add, (acc, left, acc))]
            else:
                calls.append((np.matmul, (g, matrices, acc)))
            if t0:
                calls.append((np.add, (out, acc, out)))
        return values, values.shape, out, gather, product, tuple(calls)

    def _scratch(self, name: str, buf, shape: tuple, dtype) -> np.ndarray:
        """The leading ``shape[0]`` entries of scratch ``buf``, or a new
        array; ``ValueError`` unless ``buf`` is C-contiguous, in ``dtype``,
        of ``shape`` apart from a leading axis at least as long."""
        if buf is None:
            return np.empty(shape, dtype)
        if (buf.dtype != dtype or not buf.flags.c_contiguous or buf.ndim != len(shape)
                or buf.shape[1:] != shape[1:] or buf.shape[0] < shape[0]):
            raise ValueError(f"{name} buffer must be a C-contiguous {np.dtype(dtype)} array "
                             f"of shape {shape} or longer, got {buf.dtype} {buf.shape}")
        return buf[:shape[0]]


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


def whole_number(name: str, value, low: int, high: int | None = None) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, in
    ``low``-``high`` (no upper bound when ``high`` is None).  Anything
    else, 2.0 too, raises ``ValueError``."""
    # int first: it matches a Python int without the slower ABC check
    if type(value) is int or (isinstance(value, numbers.Integral) and not isinstance(value, bool)):
        if low <= value and (high is None or value <= high):
            return int(value)
    span = f">= {low}" if high is None else f"in {low}-{high}"
    raise ValueError(f"{name} must be a whole number {span}, got {value!r}")


def require_positive(name: str, value) -> None:
    """Raise ValueError unless ``value`` is finite and > 0 (NaN fails)."""
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {float(value)!r}")


def scalar_operand(value: float, dtype) -> np.ndarray:
    """``value`` as a 0-d array of the inexact ``dtype``, to bind as a ufunc
    operand.  A ufunc takes it for less than it spends converting a Python
    float, and computes in ``dtype`` as it would with the float; a float64
    0-d array would instead compute a float32 input in float64 (NEP 50).
    ``TypeError`` for an integer or boolean ``dtype``."""
    return np.array(value, float).astype(dtype, casting="same_kind")


#: Gauss points per element of :func:`fourier_coefficient`'s quadrature
_FOURIER_POINTS = 16


def fourier_coefficient(field: DGField, mode: int) -> np.ndarray:
    """Fourier coefficient (1/L) * integral f(x) exp(-i k x) dx, k = 2 pi mode / L.

    Per-element Gauss quadrature with ``_FOURIER_POINTS`` points; for the
    smooth exponential factor this is accurate far beyond the field's own
    polynomial resolution.
    """
    mesh = field.mesh
    xq, wq = gauss_nodes(_FOURIER_POINTS - 1)
    nodes, _ = gauss_nodes(field.degree)
    basis = lagrange_eval(nodes, xq)                       # (points, q)
    f_at_q = np.einsum("...nb,mb->...nm", field.values, basis)
    x = mesh.node_coords(_FOURIER_POINTS - 1)
    k = 2.0 * np.pi * mode / mesh.length
    phase = np.exp(-1j * k * x)
    acc = np.einsum("...nm,nm,m->...", f_at_q, phase, wq)
    return acc * mesh.dx / mesh.length
