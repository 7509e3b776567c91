import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from sldirk import dg
from sldirk.dg import (DGField, Mesh1D, ShiftOperator, fourier_coefficient, gauss_nodes,
                       lagrange_eval, shift_cells)
from conftest import assert_close, remap


def test_gauss_nodes_unit_interval():
    for p in range(5):
        x, w = gauss_nodes(p)
        assert len(x) == p + 1
        assert np.all((x > 0) & (x < 1))
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        # exactness on monomials up to degree 2p+1
        for d in range(2 * p + 2):
            assert np.dot(w, x ** d) == pytest.approx(1.0 / (d + 1), abs=1e-14)


@pytest.mark.parametrize("degree", [-1, 2.0, True, False, np.True_])
def test_gauss_nodes_reject_a_degree_that_is_not_a_whole_number(degree):
    # the cache once served True the nodes of degree 1, and 2.0 reached
    # leggauss, which raised TypeError
    gauss_nodes(1), gauss_nodes(2)
    with pytest.raises(ValueError, match=re.escape(f"degree must be a whole number >= 0, "
                                                   f"got {degree!r}")):
        gauss_nodes(degree)
    assert np.array_equal(gauss_nodes(np.int64(2))[0], gauss_nodes(2)[0])


def test_gauss_nodes_are_cached_read_only():
    for p in range(5):
        x, w = gauss_nodes(p)
        assert gauss_nodes(p)[0] is x and gauss_nodes(p)[1] is w
        assert not x.flags.writeable and not w.flags.writeable
        fresh_x, fresh_w = np.polynomial.legendre.leggauss(p + 1)
        assert np.array_equal(x, 0.5 * (fresh_x + 1.0)) and np.array_equal(w, 0.5 * fresh_w)
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0.0


def test_lagrange_eval_cardinal_at_nodes():
    nodes, _ = gauss_nodes(3)
    np.testing.assert_array_equal(lagrange_eval(nodes, nodes), np.eye(4))


def test_lagrange_eval_partition_of_unity(rng):
    nodes, _ = gauss_nodes(2)
    y = rng.uniform(-0.5, 1.5, size=40)
    np.testing.assert_allclose(lagrange_eval(nodes, y).sum(axis=-1), 1.0, atol=1e-12)


def test_mesh_properties():
    mesh = Mesh1D(-1.0, 1.0, 160)
    assert mesh.dx == pytest.approx(0.0125)
    assert mesh.node_coords(2).shape == (160, 3)
    with pytest.raises(ValueError):
        Mesh1D(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        Mesh1D(1.0, 0.0, 4)
    assert Mesh1D(-1.0, 1.0, np.int64(160)) == mesh


@pytest.mark.parametrize("x_lo, x_hi, n_elements, match", [
    # a fractional count gave dx 0.4 with 3 node rows; a bool was taken as 1
    (0.0, 1.0, 2.5, "whole number"),
    *((0.0, 1.0, n, f"n_elements must be a whole number >= 1, got {n!r}")
      for n in (0, 2.0, True, False, np.True_)),
    # an infinite bound gave dx = inf, and so did finite bounds whose distance overflows
    (0.0, np.inf, 4, "finite"),
    (-1e308, 1e308, 4, "finite"),
])
def test_mesh_rejects_a_fractional_count_and_infinite_bounds(x_lo, x_hi, n_elements, match):
    with pytest.raises(ValueError, match=match):
        Mesh1D(x_lo, x_hi, n_elements)


def test_field_integral_and_l1():
    mesh = Mesh1D(0.0, 2.0, 13)
    f = np.full((13, 3), -0.7)
    assert mesh.integrate(f) == pytest.approx(-1.4, abs=1e-14)
    assert mesh.integrate(np.abs(f)) == pytest.approx(1.4, abs=1e-14)


def test_field_leading_axes():
    mesh = Mesh1D(0.0, 1.0, 8)
    x = mesh.node_coords(1)
    f = DGField(mesh=mesh, values=np.stack([x, 2 * x]))
    assert f.values.shape == (2, 8, 2) and f.degree == 1
    np.testing.assert_allclose(mesh.integrate(f.values), [0.5, 1.0], atol=1e-14)


def test_integrate_has_the_bits_of_tensordot(rng):
    for shape in ((100, 160, 3), (3, 160, 3), (2, 160, 5), (100, 40, 1), (40, 2)):
        mesh = Mesh1D(-1.0, 1.0, shape[-2])
        values = rng.normal(size=shape)
        strided = np.asfortranarray(values)[..., ::-1]
        for f in (values, strided, values + 1j * rng.normal(size=shape)):
            _, weights = gauss_nodes(shape[-1] - 1)
            expected = mesh.dx * np.tensordot(f, weights, axes=(-1, 0)).sum(axis=-1)
            assert np.array_equal(mesh.integrate(f), expected), shape


# ---------------------------------------------------------------------------
# conservative remap
# ---------------------------------------------------------------------------

def _smooth(mesh):
    return np.exp(np.sin(2 * np.pi * mesh.node_coords(2)))


def test_advect_zero_shift_bit_identical():
    mesh = Mesh1D(0.0, 1.0, 20)
    f = _smooth(mesh)
    assert np.array_equal(remap(mesh, f, 0.0), f)


def test_advect_mesh_aligned_is_permutation():
    mesh = Mesh1D(0.0, 1.0, 20)
    f = _smooth(mesh)
    assert np.array_equal(remap(mesh, f, mesh.dx), np.roll(f, 1, axis=0))
    assert np.array_equal(remap(mesh, f, -3.0 * mesh.dx), np.roll(f, -3, axis=0))


def test_advect_conserves_mass(rng):
    mesh = Mesh1D(0.0, 1.0, 40)
    f = _smooth(mesh)
    mass = mesh.integrate(f)
    for tau in (0.2, -0.37, 17.77, 0.003, float(rng.uniform(-2, 2))):
        assert abs(mesh.integrate(remap(mesh, f, tau)) - mass) <= 1e-13 * abs(mass)


def test_advect_exact_for_constants():
    mesh = Mesh1D(0.0, 1.0, 16)
    np.testing.assert_allclose(remap(mesh, np.full((16, 3), 1.7), 0.123456), 1.7, atol=1e-14)


def test_advect_exact_for_stored_polynomials_on_aligned_shift():
    # piecewise-cubic-free data: any degree-2 polynomial per element is
    # moved exactly when the shift is a whole number of cells
    mesh = Mesh1D(0.0, 1.0, 10)
    rng = np.random.default_rng(3)
    f = rng.normal(size=(10, 3))
    assert np.array_equal(remap(mesh, f, 4 * mesh.dx), np.roll(f, 4, axis=0))


def _l1_against_exact(mesh, values, exact):
    xq, wq = gauss_nodes(11)
    nodes, _ = gauss_nodes(values.shape[-1] - 1)
    B = lagrange_eval(nodes, xq)
    left = mesh.x_lo + mesh.dx * np.arange(mesh.n_elements)
    X = left[:, None] + mesh.dx * xq[None, :]
    vals = np.einsum("nb,mb->nm", values, B)
    return mesh.dx * np.einsum("nm,m->", np.abs(vals - exact(X)), wq)


def test_advect_third_order_convergence():
    errs = []
    for n in (40, 80, 160):
        mesh = Mesh1D(0.0, 1.0, n)
        g = remap(mesh, _smooth(mesh), 0.2)
        errs.append(_l1_against_exact(mesh, g, lambda x: np.exp(np.sin(2 * np.pi * (x - 0.2)))))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    for r in ratios:
        assert 6.0 < r < 10.0  # third order: halving dx cuts the error ~8x


def test_shift_operator_per_velocity():
    mesh = Mesh1D(0.0, 1.0, 24)
    coords = mesh.node_coords(2)
    vals = np.stack([np.sin(2 * np.pi * coords), np.cos(2 * np.pi * coords)])
    tau = 0.11
    op = ShiftOperator(mesh, 2, np.array([1.0, -1.0]) * tau)
    out = op.apply(vals)
    np.testing.assert_array_equal(out[0], remap(mesh, vals[0], tau))
    np.testing.assert_array_equal(out[1], remap(mesh, vals[1], -tau))


def _snapped(mesh, shifts):
    """The cell offsets and fractions of ``shifts``, with shifts within
    roundoff of a whole cell snapped to it."""
    z = np.asarray(shifts, dtype=float) / mesh.dx
    nearest = np.round(z)
    z = np.where(np.abs(z - nearest) <= 1e-12 * (1.0 + np.abs(z)), nearest, z)
    cells = np.floor(z)
    theta = z - cells
    bump = theta >= 1.0
    return (cells + bump).astype(int), np.where(bump, 0.0, theta)


def _fancy_index_apply(mesh, shifts, values):
    """Remap by 2-D fancy indexing and one product per overlap, the formula
    ShiftOperator.apply had before it gathered rows through flat indices;
    kept as the reference."""
    cells, theta = _snapped(mesh, shifts)
    n, q = mesh.n_elements, values.shape[-1]
    tgt = np.arange(n)
    idx0 = (tgt[None, :] - cells[:, None] - 1) % n
    idx1 = (tgt[None, :] - cells[:, None]) % n
    lead = np.arange(values.shape[0])[:, None]
    if not theta.any():
        return values[lead, idx1]
    a0, a1 = dg._fractional_matrices(*gauss_nodes(q - 1), theta)
    out = values[lead, idx1] @ np.swapaxes(a1, -1, -2)
    out += values[lead, idx0] @ np.swapaxes(a0, -1, -2)
    return out


def _check_remap(out, expected, aligned):
    """A whole-cell remap has the bits of the reference, a fractional one
    its numerics."""
    if aligned:
        assert np.array_equal(out, expected, equal_nan=True)
    else:
        assert_close(out, expected)


@pytest.mark.parametrize("degree", [0, 2, 4])
def test_shift_operator_matches_fancy_index_formula(degree, rng):
    mesh = Mesh1D(-1.0, 1.0, 24)
    dx = mesh.dx
    per_slice = {
        "fractional": np.array([0.3, 0.71, 0.05]) * dx,
        "negative": np.array([-0.3, -1.71, -5.05]) * dx,
        "multi-wrap": np.array([3.37, -2.9, 7.123]) * mesh.length,
        "mixed": np.array([-2.5, 0.0, 1.0, 0.25, 40.6]) * dx,
        "aligned": np.array([-3.0, 0.0, 1.0, 29.0]) * dx,
    }
    for name, shifts in per_slice.items():
        op = ShiftOperator(mesh, degree, shifts)
        aligned = not _snapped(mesh, shifts)[1].any()
        assert aligned == (name == "aligned")
        values = rng.normal(size=(len(shifts), 24, degree + 1))
        out = op.apply(values)
        _check_remap(out, _fancy_index_apply(mesh, shifts, values), aligned)
        assert not np.shares_memory(out, values)
    for shift in (0.37 * dx, -4.6 * dx, 5.25 * mesh.length, 3.0 * dx, -50.0 * dx):
        op = ShiftOperator(mesh, degree, [shift])
        values = rng.normal(size=(1, 24, degree + 1))
        out = op.apply(values)
        assert out.shape == values.shape
        _check_remap(out, _fancy_index_apply(mesh, [shift], values), shift % dx == 0.0)


@pytest.mark.parametrize("budget", [None, 1])
def test_one_term_aligned_shift_is_a_roll(budget, rng, monkeypatch):
    # whole-cell shifts, one or many slices, within the budget or past it,
    # gathered by run copies: the remap only moves values, so an inf stays
    # on its node
    if budget is not None:
        monkeypatch.setattr(dg, "_GATHER_BUDGET", budget)
    mesh = Mesh1D(0.0, 1.0, 20)
    for cells in ([3], [-1, 0, 2], [5] * 40 + [-7] * 300):
        op = ShiftOperator(mesh, 2, np.array(cells) * mesh.dx)
        real = rng.normal(size=(len(cells), 20, 3))
        real[0, 4, 1] = np.inf
        for values in (real, real + 1j * rng.normal(size=real.shape)):
            expected = np.stack([np.roll(v, c, axis=0) for v, c in zip(values, cells)])
            assert np.array_equal(op.apply(values), expected)
            assert np.array_equal(_apply_bound(op, values), expected)
            assert not any(kernel is np.matmul for kernel, _ in op._bound[5])
            assert _takes(op) == 0


_PER_SLICE_SHIFTS = {
    "fractional": np.array([0.3, 0.71, 0.05]),
    "negative": np.array([-0.3, -1.71, -5.05]),
    "multi-wrap": np.array([3.37, -2.9, 7.123]) * 24,
    "mixed": np.array([-2.5, 0.0, 1.0, 0.25, 40.6]),
    "aligned": np.array([-3.0, 0.0, 1.0, 29.0]),
}


@pytest.mark.parametrize("degree", [0, 2, 4])
def test_shift_operator_out_matches_fresh_apply(degree, rng):
    # apply(values, out) and apply with caller scratch give the bits of a
    # fresh apply, also in place, for a one-slice shift, complex values and
    # pure rolls
    mesh = Mesh1D(-1.0, 1.0, 24)
    cases = [(name, shifts * mesh.dx) for name, shifts in _PER_SLICE_SHIFTS.items()]
    cases += [("one-slice", np.array([0.37]) * mesh.dx),
              ("one-slice-aligned", np.array([-4.0]) * mesh.dx)]
    for name, shifts in cases:
        op = ShiftOperator(mesh, degree, shifts)
        lead = (len(shifts),)
        real = rng.normal(size=lead + (24, degree + 1))
        for values in (real, real + 1j * rng.normal(size=real.shape)):
            fresh = op.apply(values)
            _check_remap(fresh, _fancy_index_apply(mesh, shifts, values),
                         name.endswith("aligned"))
            out = np.full_like(fresh, np.nan)
            assert op.apply(values, out) is out
            assert np.array_equal(out, fresh), name
            gather_shape, product_shape = ShiftOperator.scratch_shapes(fresh.shape)
            gather = np.empty(gather_shape, values.dtype)
            product = np.empty(product_shape, fresh.dtype)
            scratch = op.apply(values, np.empty_like(fresh), gather=gather, product=product)
            assert np.array_equal(scratch, fresh), name
            inplace = values.copy()
            assert op.apply(inplace, inplace, gather=gather) is inplace
            assert np.array_equal(inplace, fresh), name


def test_shift_operator_rejects_bad_buffers():
    mesh = Mesh1D(0.0, 1.0, 8)
    op = ShiftOperator(mesh, 1, np.array([0.1, -0.2]))
    values = np.zeros((2, 8, 2))
    bad = {"out": [np.zeros((2, 8, 3)), np.zeros((2, 8, 2), complex),
                   np.zeros((2, 2, 8)).transpose(0, 2, 1)],
           "gather": [np.zeros((2, 8, 2)), np.zeros(64, np.float32), np.zeros(63)],
           "product": [np.zeros((2, 9, 2))]}
    for name, buffers in bad.items():
        for buf in buffers:
            with pytest.raises(ValueError, match=name):
                op.apply(values, **{name: buf})
    # complex values need a complex out
    with pytest.raises(ValueError, match="out"):
        op.apply(values + 1j, np.zeros((2, 8, 2)))


def test_shift_operator_rejects_mismatched_slices():
    mesh = Mesh1D(0.0, 1.0, 8)
    op = ShiftOperator(mesh, 1, np.array([0.1, -0.2]))
    with pytest.raises(ValueError, match="do not match"):
        op.apply(np.zeros((3, 8, 2)))


def _per_term_sum(mesh, degree, shifts, blocks, weights, values):
    """The multi-term remap as one-term remaps, each by the fancy-index
    formula, weighted and added in term order; kept as the reference."""
    lead = shifts.shape[1]
    block = lambda b: values[b * lead:(b + 1) * lead]
    out = _fancy_index_apply(mesh, shifts[0], block(blocks[0]))
    for row, b, w in zip(shifts[1:], blocks[1:], weights):
        term = _fancy_index_apply(mesh, row, block(b))
        term *= w
        out += term
    return out


_TERM_SHIFTS = np.array([[0.3, -1.71, 0.0], [2.0, -3.0, 1.0], [0.25, 7.123, -0.5],
                         [-4.0, 0.0, 29.0]])


@pytest.mark.parametrize("degree", [0, 2, 4])
def test_multi_term_shift_matches_per_term_applies(degree, rng):
    mesh = Mesh1D(-1.0, 1.0, 24)
    rows = _TERM_SHIFTS * mesh.dx  # rows 1 and 3 are mesh-aligned terms
    cases = [(rows, (0, 1, 2, 3), (0.5, -1.25, 3.0)), (rows, (0, 3, 1, 3), (1e-3, 2.0, -0.7)),
             (rows, (2, 0, 0, 1), (0.1, 0.2, 0.3)),
             # all terms aligned: a weighted sum of rolls
             (rows[[1, 3]], (1, 0), (-0.7,))]
    for shifts, blocks, weights in cases:
        op = ShiftOperator(mesh, degree, shifts, blocks=blocks, weights=weights)
        assert op.n_blocks == max(blocks) + 1
        assert (not _snapped(mesh, shifts.ravel())[1].any()) == (len(blocks) == 2)
        real = rng.normal(size=(3 * op.n_blocks, 24, degree + 1))
        for values in (real, real + 1j * rng.normal(size=real.shape)):
            expected = _per_term_sum(mesh, degree, shifts, blocks, weights, values)
            out = op.apply(values)
            assert out.shape == (3, 24, degree + 1) and out.dtype == values.dtype
            assert_close(out, expected)
            # scratch sized for more terms serves too, with the same bits
            gather_shape, product_shape = ShiftOperator.scratch_shapes((3, 24, degree + 1), 6)
            again = op.apply(values, np.full_like(out, np.nan),
                             gather=np.empty(gather_shape, values.dtype),
                             product=np.empty(product_shape, values.dtype))
            assert np.array_equal(again, out), blocks


def test_per_slice_weights_weight_each_slice(rng):
    # a weight of one number per slice scales each slice's term by its own
    # number; a weight the same on every slice has the bits of that number
    mesh = Mesh1D(-1.0, 1.0, 24)
    shifts = _TERM_SHIFTS * mesh.dx
    weights = ((0.5, -2.0, 1e-3), 3.0, (1.0, 7.5, -0.25))
    values = rng.normal(size=(12, 24, 3))
    op = ShiftOperator(mesh, 2, shifts, weights=weights)
    expected = _per_term_sum(mesh, 2, shifts, (0, 1, 2, 3),
                             [np.reshape(w, (-1, 1, 1)) for w in weights], values)
    assert_close(op.apply(values), expected)
    uniform = ShiftOperator(mesh, 2, shifts, weights=((0.5,) * 3, 3.0, (-1.25,) * 3))
    scalar = ShiftOperator(mesh, 2, shifts, weights=(0.5, 3.0, -1.25))
    assert np.array_equal(uniform.apply(values), scalar.apply(values))


def test_reach_spans_the_offsets_each_term_reads():
    # per term, from the least cells of its slices to the greatest plus one:
    # an impulse in element 0 of its source block lands only at those
    # element offsets, target minus source
    mesh = Mesh1D(0.0, 1.0, 64)
    blocks = (3, 2, 1, 0)
    op = ShiftOperator(mesh, 2, _TERM_SHIFTS * mesh.dx, blocks=blocks, weights=(1.0, 1.0, 1.0))
    cells = shift_cells(_TERM_SHIFTS * mesh.dx, mesh.dx)[0]
    reach = [(row.min(), row.max() + 1) for row in cells]
    assert reach == [(-2, 1), (-3, 3), (-1, 8), (-4, 30)]
    for block, (lo, hi) in zip(blocks, reach):
        values = np.zeros((12, 64, 3))
        values[3 * block:3 * block + 3, 0] = 1.0
        landed = np.flatnonzero(op.apply(values).any(axis=(0, 2)))
        assert set((landed - lo) % 64 + lo) <= set(range(lo, hi + 1)), block


def test_one_term_shift_is_the_plain_operator(rng):
    mesh = Mesh1D(0.0, 1.0, 16)
    for row in _TERM_SHIFTS * mesh.dx:
        plain = ShiftOperator(mesh, 2, row)
        values = rng.normal(size=(3, 16, 3))
        expected = plain.apply(values)
        assert np.array_equal(ShiftOperator(mesh, 2, row[None]).apply(values), expected)
        stacked = np.concatenate([rng.normal(size=values.shape), values])
        assert np.array_equal(ShiftOperator(mesh, 2, row, blocks=[1]).apply(stacked), expected)


def test_stacked_multi_term_shift_matches_per_term_remaps(rng, monkeypatch):
    # float64, complex128 and float32 values, grouped below one term per
    # group (each term's two products made apart), one term, two terms
    # and all four terms per group
    mesh = Mesh1D(-1.0, 1.0, 24)
    shifts = _TERM_SHIFTS * mesh.dx
    weights = (0.5, -1.25, 3.0)
    real = rng.normal(size=(12, 24, 3))
    term_bytes = 16 * 3 * 24 * 3  # both windows of one term of float64 values
    for values in (real, real + 1j * rng.normal(size=real.shape), real.astype(np.float32)):
        expected = _per_term_sum(mesh, 2, shifts, (0, 1, 2, 3), weights,
                                 values.astype(np.promote_types(values.dtype, float)))
        for budget, per_group in ((1, 0), (term_bytes, 1), (2 * term_bytes, 2), (1 << 40, 4)):
            monkeypatch.setattr(dg, "_GATHER_BUDGET", budget)
            op = ShiftOperator(mesh, 2, shifts, weights=weights)
            assert len(op._groups) == 4 // max(per_group, 1)
            gather = 3 * 24 * 2 * per_group * 3 if per_group else 3 * 25 * 3
            assert ShiftOperator.scratch_shapes((3, 24, 3), 4)[0] == (gather,)
            assert_close(op.apply(values), expected)
            assert_close(_apply_bound(op, values), expected)


def test_multi_term_shift_rejects_bad_terms():
    mesh = Mesh1D(0.0, 1.0, 8)
    shifts = np.array([[0.1, -0.2], [0.3, 0.4]])
    for kwargs in ({"blocks": [0]}, {"blocks": [0, 1, 2], "weights": [1.0]},
                   {"blocks": [0, -1], "weights": [1.0]}, {"weights": []},
                   {"weights": [1.0, 2.0]}, {"weights": [(1.0, 2.0, 3.0)]}):
        with pytest.raises(ValueError, match="terms need"):
            ShiftOperator(mesh, 1, shifts, **kwargs)
    with pytest.raises(ValueError, match="shifts"):
        ShiftOperator(mesh, 1, np.zeros((2, 2, 2)))
    op = ShiftOperator(mesh, 1, shifts, blocks=[0, 2], weights=[1.0])
    for lead in (2, 4, 5, 8):  # three blocks of two slices are needed
        with pytest.raises(ValueError, match="do not match"):
            op.apply(np.zeros((lead, 8, 2)))
    assert op.apply(np.zeros((6, 8, 2))).shape == (2, 8, 2)
    # gather scratch too short for one group of two terms
    gather_shape, _ = ShiftOperator.scratch_shapes((2, 8, 2), 2)
    with pytest.raises(ValueError, match="gather"):
        op.apply(np.zeros((6, 8, 2)), gather=np.zeros(gather_shape[0] - 1))


def _three_term_operator(mesh):
    """A three-term remap of 3 slices and caller buffers for one apply."""
    op = ShiftOperator(mesh, 2, _TERM_SHIFTS[:3] * mesh.dx, weights=(0.5, -1.25))
    gather_shape, product_shape = ShiftOperator.scratch_shapes((3, mesh.n_elements, 3), 3)
    return op, lambda: {"out": np.full((3, mesh.n_elements, 3), np.nan),
                        "gather": np.full(gather_shape, np.nan),
                        "product": np.full(product_shape, np.nan)}


def _takes(op):
    """The number of indexed ``take`` gathers in the operator's kept binding."""
    return sum(getattr(kernel, "__name__", "") == "take" for kernel, _ in op._bound[5])


def test_kept_binding_reads_values_changed_in_place(rng, monkeypatch):
    _check_kept_binding(rng, monkeypatch, takes=1)


def test_kept_binding_by_run_copies_reads_values_changed_in_place(rng, monkeypatch):
    # only a lone term past the budget gathers by run copies
    monkeypatch.setattr(dg, "_GATHER_BUDGET", 1)
    _check_kept_binding(rng, monkeypatch, takes=0)


def _check_kept_binding(rng, monkeypatch, takes):
    # repeated applies on the same four arrays bind once and then run the
    # kept kernels on what the values hold by then; values that are not
    # C-contiguous, or a missing buffer, keep no binding
    mesh = Mesh1D(-1.0, 1.0, 24)
    op, buffers = _three_term_operator(mesh)
    binds = []
    bind = ShiftOperator._bind
    monkeypatch.setattr(ShiftOperator, "_bind", lambda *args: binds.append(1) or bind(*args))
    for order, expected_binds in (("C", [1, 0, 0, 0]), ("F", [1, 1, 1, 1])):
        values = np.asarray(rng.normal(size=(9, 24, 3)), order=order)
        bufs = buffers()
        warm_binds = []
        for _ in range(4):
            values[...] = rng.normal(size=values.shape)
            expected = ShiftOperator(mesh, 2, _TERM_SHIFTS[:3] * mesh.dx,
                                     weights=(0.5, -1.25)).apply(values.copy())
            assert np.array_equal(op.apply(values.copy(), gather=bufs["gather"]), expected)
            n = len(binds)
            assert op.apply(values, **bufs) is bufs["out"]
            warm_binds.append(len(binds) - n)
            assert np.array_equal(bufs["out"], expected), order
        assert warm_binds == expected_binds, order
    assert _takes(op) == takes


#: shifts of a monotone velocity grid, in cells: runs of 1-4 slices per offset
_RAMP_SHIFTS = np.linspace(-2.6, 3.4, 13) * np.array([[1.0], [0.5], [-10.0]])


def _apply_bound(op, values):
    """``op.apply(values)`` with caller buffers, so the binding is kept."""
    gather_shape, product_shape = ShiftOperator.scratch_shapes(
        (op._lead,) + values.shape[1:], len(op._weights) + 1)
    result_dtype = np.promote_types(values.dtype, float)
    return op.apply(values, np.empty((op._lead,) + values.shape[1:], result_dtype),
                    gather=np.empty(gather_shape, values.dtype),
                    product=np.empty(product_shape, result_dtype))


def test_gather_by_run_copies_matches_the_per_term_sum(rng, monkeypatch):
    # lone terms past the budget, gathered by run copies only: aligned
    # terms, an inf, multi-cell and negative shifts, monotone shifts (runs
    # of several slices), shifts whose cell offsets change at every slice
    # (runs of one slice), complex values
    monkeypatch.setattr(dg, "_GATHER_BUDGET", 1)
    mesh = Mesh1D(-1.0, 1.0, 24)
    zigzag = np.array([[0.3, -2.4, 5.7, -0.2, 3.1, -7.9], [2.2, 0.6, -1.0, 31.5, 0.0, -0.7]])
    cases = [(_RAMP_SHIFTS, (0, 1, 0), (0.5, -2.0)),
             (_TERM_SHIFTS, (0, 1, 2, 3), (0.5, -1.25, 3.0)),
             (_TERM_SHIFTS, (0, 3, 1, 3), (1e-3, 2.0, -0.7)),
             (_TERM_SHIFTS, (2, 0, 0, 1), (0.1, 0.2, 0.3)),
             (zigzag, (0, 1), (-0.4,)), (zigzag[::-1], (1, 1), (2.5,))]
    for degree in (0, 2):
        for shifts, blocks, weights in cases:
            shifts = shifts * mesh.dx
            lead = shifts.shape[1]
            real = rng.normal(size=((max(blocks) + 1) * lead, 24, degree + 1))
            for values in (real, real + 1j * rng.normal(size=real.shape)):
                assert_close(ShiftOperator(mesh, degree, shifts, blocks=blocks,
                                           weights=weights).apply(values),
                             _per_term_sum(mesh, degree, shifts, blocks, weights, values))
                values = values.copy()
                values[4, 5, 0] = np.inf
                results = []
                for apply in (ShiftOperator.apply, _apply_bound):
                    op = ShiftOperator(mesh, degree, shifts, blocks=blocks, weights=weights)
                    with np.errstate(invalid="ignore"):
                        results.append(apply(op, values))
                assert np.array_equal(*results, equal_nan=True), blocks
                assert _takes(op) == 0
    # the ramp runs one cell offset over several slices, the zigzag changes
    # it at every slice; only a take group keeps flat gather rows
    op = ShiftOperator(mesh, 2, _RAMP_SHIFTS * mesh.dx, weights=(1.0, 1.0))
    assert ([run[2] for group in op._groups for run in group[3]]
            == [2] * 6 + [1] + [2, 4, 4, 3] + [1] * 13)
    op = ShiftOperator(mesh, 2, zigzag * mesh.dx, weights=(1.0,))
    assert [run[2] for group in op._groups for run in group[3]] == [1] * zigzag.size
    assert all(group[2] is None for group in op._groups)


def test_element_gather_has_the_bits_of_the_row_gather(rng, monkeypatch):
    # a stacked group gathers rows of three 8-byte values (float64 or
    # complex64 at degree 2) by element indices, any other row by row
    # indices; both leave the gathered rows in the gather scratch
    mesh = Mesh1D(-1.0, 1.0, 24)
    real = rng.normal(size=(3 * 3, 24, 3))
    complex_ = real + 1j * rng.normal(size=real.shape)
    for degree, values, per_row in [(2, real, 3), (2, complex_.astype(np.complex64), 3),
                                    (2, complex_, 1), (2, real.astype(np.float32), 1),
                                    (3, rng.normal(size=(9, 24, 4)), 1)]:
        op = ShiftOperator(mesh, degree, _TERM_SHIFTS[:3] * mesh.dx, weights=(0.5, -1.25))
        gather_shape, product_shape = ShiftOperator.scratch_shapes((3,) + values.shape[1:], 3)
        gather = np.empty(gather_shape, values.dtype)
        result_dtype = np.promote_types(values.dtype, float)
        out = op.apply(values, np.empty((3,) + values.shape[1:], result_dtype),
                       gather=gather, product=np.empty(product_shape, result_dtype))
        expected = _per_term_sum(mesh, degree, _TERM_SHIFTS[:3] * mesh.dx, (0, 1, 2),
                                 (0.5, -1.25), values.astype(result_dtype))
        (group,) = op._groups
        rows = group[2]
        (indices,) = [args[0] for kernel, args in op._bound[5] if kernel.__name__ == "take"]
        assert indices.size == rows.size * per_row, (degree, values.dtype)
        by_row = values.reshape(-1, degree + 1).take(rows, axis=0)
        assert np.array_equal(gather[:by_row.size].reshape(by_row.shape), by_row)
        assert_close(out, expected)


def test_one_term_gather_by_run_copies_in_place(rng, monkeypatch):
    monkeypatch.setattr(dg, "_GATHER_BUDGET", 1)
    mesh = Mesh1D(-1.0, 1.0, 24)
    for shifts in (_TERM_SHIFTS * mesh.dx, _RAMP_SHIFTS * mesh.dx,
                   np.array([[0.3, -2.4, 5.7, -0.2, 3.1]]) * mesh.dx):
        for row in shifts:
            real = rng.normal(size=(len(row), 24, 3))
            for values in (real, real + 1j * rng.normal(size=real.shape)):
                expected = _fancy_index_apply(mesh, row, values)
                op = ShiftOperator(mesh, 2, row)
                gather_shape, product_shape = ShiftOperator.scratch_shapes(values.shape)
                inplace = values.copy()
                assert op.apply(inplace, inplace,
                                gather=np.empty(gather_shape, values.dtype),
                                product=np.empty(product_shape, values.dtype)) is inplace
                _check_remap(inplace, expected, not _snapped(mesh, row)[1].any())
                assert _takes(op) == 0


def test_swapped_buffer_rebinds(rng, monkeypatch):
    # a new out, gather or product gets the work; the one it replaced is
    # left as it was.  One term per group, so that the later groups'
    # sums pass through the product
    monkeypatch.setattr(dg, "_GATHER_BUDGET", 16 * 3 * 24 * 3)
    mesh = Mesh1D(-1.0, 1.0, 24)
    op, buffers = _three_term_operator(mesh)
    assert len(op._groups) == 3
    values = rng.normal(size=(9, 24, 3))
    expected = op.apply(values)
    bufs = buffers()
    op.apply(values, **bufs)
    for name in ("out", "gather", "product", "out"):
        old, bufs[name] = bufs[name], np.full_like(bufs[name], np.nan)
        old[...] = 7.0
        result = op.apply(values, **bufs)
        assert result is bufs["out"] and np.array_equal(result, expected), name
        assert not np.isnan(bufs[name]).all(), name
        assert (old == 7.0).all(), name


def test_bad_buffer_raises_after_a_kept_binding():
    mesh = Mesh1D(0.0, 1.0, 8)
    op = ShiftOperator(mesh, 1, np.array([0.1, -0.2]))
    values = np.ones((2, 8, 2))
    gather_shape, product_shape = ShiftOperator.scratch_shapes((2, 8, 2))
    good = {"out": np.empty((2, 8, 2)), "gather": np.empty(gather_shape),
            "product": np.empty(product_shape)}
    for name, buf in (("out", np.zeros((2, 8, 3))), ("out", np.zeros((2, 8, 2), complex)),
                      ("gather", np.zeros(gather_shape, np.float32)),
                      ("product", np.zeros((2, 9, 2)))):
        op.apply(values, **good)
        with pytest.raises(ValueError, match=name):
            op.apply(values, **{**good, name: buf})
    # the same values object reshaped in place binds again and is rejected
    op.apply(values, **good)
    values.shape = (1, 16, 2)
    with pytest.raises(ValueError, match="do not match"):
        op.apply(values, **good)


def test_threads_sharing_an_operator_get_serial_bits(rng):
    mesh = Mesh1D(-1.0, 1.0, 24)
    op, buffers = _three_term_operator(mesh)
    inputs = [rng.normal(size=(9, 24, 3)) for _ in range(2)]
    expected = [op.apply(values) for values in inputs]

    def work(i):
        bufs = buffers()
        wrong = 0
        for _ in range(200):
            bufs["out"].fill(np.nan)  # a result written elsewhere shows as NaN
            wrong += not np.array_equal(op.apply(inputs[i], **bufs), expected[i])
        return wrong

    # switch threads as often as the interpreter allows, so the two
    # interleave between the key check, the binding and the kernels
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(work, i) for i in range(2)]
            assert [future.result(timeout=60) for future in futures] == [0, 0]
    finally:
        sys.setswitchinterval(interval)


def test_advect_complex_values():
    mesh = Mesh1D(0.0, 1.0, 32)
    x = mesh.node_coords(2)
    k = 2 * np.pi
    g = remap(mesh, np.exp(1j * k * x), 0.25)
    np.testing.assert_allclose(g, np.exp(1j * k * (x - 0.25)), atol=1e-4)


def test_fourier_coefficient_of_pure_mode():
    mesh = Mesh1D(0.0, 1.0, 32)
    x = mesh.node_coords(2)
    f = DGField(mesh=mesh, values=np.exp(1j * 2 * np.pi * x))
    c1 = fourier_coefficient(f, 1)
    assert abs(c1 - 1.0) < 1e-8
    assert abs(fourier_coefficient(f, 2)) < 1e-8
    g = DGField(mesh=mesh, values=0.3 * np.cos(2 * np.pi * x))
    assert abs(fourier_coefficient(g, 1) - 0.15) < 1e-9


def test_field_shape_mismatch_rejected():
    mesh = Mesh1D(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        DGField(mesh=mesh, values=np.zeros((7, 3)))
