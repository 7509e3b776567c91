import numpy as np
import pytest

from sldirk.butcher import ButcherTableau
from sldirk.dg import DGField, ShiftOperator


def random_sa_dirk(rng, s, diag_lo=0.05, diag_hi=2.0, name="random"):
    """Random stiffly accurate DIRK tableau with positive diagonal.

    Off-diagonal entries are uniform in [-1, 1]; the last row is rescaled so
    it sums to 1 (stiff accuracy forces c_s = 1 and b = last row).
    """
    A = np.zeros((s, s))
    for k in range(s):
        A[k, k] = rng.uniform(diag_lo, diag_hi)
        A[k, :k] = rng.uniform(-1.0, 1.0, size=k)
    if s > 1:
        while True:
            row = rng.uniform(-1.0, 1.0, size=s - 1)
            if abs(row.sum()) > 0.1:
                break
        A[s - 1, :s - 1] = row * (1.0 - A[s - 1, s - 1]) / row.sum()
    else:
        A[0, 0] = 1.0
    return ButcherTableau(name, A)


def remap(mesh, values, shifts):
    """``values`` (L, n_el, q) remapped by one shift distance per slice, or
    (n_el, q) by one distance, through a one-term ShiftOperator."""
    values = np.asarray(values)
    stack = values.reshape((-1,) + values.shape[-2:])
    shifts = np.broadcast_to(shifts, stack.shape[:1])
    return ShiftOperator(mesh, values.shape[-1] - 1, shifts).apply(stack).reshape(values.shape)


#: largest deviation of a remap or a step from its former-kernel reference,
#: relative to the reference's largest magnitude.  The kernels fold weights
#: into matrices and sum the terms in one product, so they keep the
#: numerics of the reference to roundoff but not its bits
REF_RTOL = 1e-14


def assert_close(got, expected, rtol=REF_RTOL):
    """``got`` has the shape and dtype of ``expected`` and lies within
    ``rtol * max|expected|`` of it everywhere."""
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    scale, delta = np.max(np.abs(expected)), np.max(np.abs(got - expected))
    assert delta <= rtol * scale, f"max|delta| {delta:.3g} against max|ref| {scale:.3g}"


def initial_field(cfg, func):
    """``func(x, v)`` sampled at the DG nodes of ``cfg``, one velocity at a
    time on the flat node coordinates."""
    coords = cfg.mesh.node_coords(cfg.degree)
    return DGField(mesh=cfg.mesh, values=np.stack(
        [np.asarray(func(coords.ravel(), v)).reshape(coords.shape)
         for v in cfg.model.velocity_set.v]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
