import re

import numpy as np
import pytest

import sldirk
from sldirk import harness, models, sl_solver
from sldirk.models import (BGK1D, DivergenceError, LinearTwoVelocity, NonlinearTwoVelocity,
                           UnphysicalStateError, VelocitySet, maxwellian)


def analytic_equilibrium(vs, U):
    """Reference: the analytic Maxwellian at the parameters of U, which the
    discrete equilibrium matches only to quadrature accuracy."""
    return maxwellian(vs.v, *BGK1D.parameters(U))


def relaxation(model, f, eps=1.0):
    """(M[U[f]] - f) / eps, the stiff right-hand side."""
    return (model.equilibrium(model.moments(f)) - f) / eps


def test_velocity_set_two_velocity():
    vs = VelocitySet.two_velocity()
    np.testing.assert_array_equal(vs.v, [1.0, -1.0])
    np.testing.assert_array_equal(vs.w, [1.0, 1.0])
    assert vs.max_speed == 1.0


def test_velocity_set_uniform():
    vs = VelocitySet.uniform(-15.0, 15.0, 100)
    assert vs.n == 100
    assert vs.v[0] == -15.0 and vs.v[-1] == 15.0
    np.testing.assert_allclose(vs.w, 30.0 / 99.0)


def test_velocity_set_validation():
    with pytest.raises(ValueError):
        VelocitySet(v=[1.0, -1.0], w=[1.0, -1.0])
    with pytest.raises(ValueError):
        VelocitySet(v=[1.0], w=[1.0, 1.0])
    # a count that is not an integer, also through a sweep's build_case:
    # numpy's linspace would raise TypeError
    for n_v in (1, 2.5, 100.0, 2.0, True, False, np.True_):
        message = re.escape(f"n_v must be a whole number >= 2, got {n_v!r}")
        with pytest.raises(ValueError, match=message):
            VelocitySet.uniform(0.0, 1.0, n_v)
        study = harness.ConvergenceStudy("5.3", ("BE",), (1e-2,), (0.5, 1.0, 2.0), n_v=n_v)
        with pytest.raises(ValueError, match=message):
            harness.run_convergence(study)
    assert VelocitySet.uniform(0.0, 1.0, np.int64(3)).n == 3
    # NaN passes the w <= 0 test, so finiteness is checked first
    for v, w in (([1.0, np.nan], [1.0, 1.0]), ([np.inf, -1.0], [1.0, 1.0]),
                 ([1.0, -1.0], [np.nan, 1.0]), ([1.0, -1.0], [np.inf, 1.0])):
        with pytest.raises(ValueError, match="must be finite"):
            VelocitySet(v=v, w=w)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def test_linear_moments_simple_sum():
    m = LinearTwoVelocity(b=0.6)
    U = m.moments(np.array([0.8, 0.2]))
    assert U.shape == (1,)
    assert U[0] == pytest.approx(1.0, abs=0)


def test_nonlinear_moments_recover_u():
    m = NonlinearTwoVelocity(b=0.2)
    u, v = 0.7, 0.3
    f = np.array([(u + v) / 2.0, (u - v) / 2.0])
    assert m.moments(f)[0] == pytest.approx(u, abs=1e-15)


def test_bgk_moments_of_maxwellian_samples():
    m = BGK1D()
    f = maxwellian(m.velocity_set.v, 1.0, 0.0, 1.0)
    U = m.moments(f)
    # equal-weight quadrature of a Gaussian decayed below machine epsilon
    # at the boundary is spectrally accurate
    assert U[0] == pytest.approx(1.0, abs=1e-10)
    assert U[1] == pytest.approx(0.0, abs=1e-12)
    assert U[2] == pytest.approx(0.5, abs=1e-10)


def test_bgk_moments_have_the_bits_of_tensordot(rng):
    m = BGK1D(velocity_set=VelocitySet.uniform(-6.0, 6.0, 24))
    vs = m.velocity_set
    single = maxwellian(vs.v, 1.3, 0.2, 0.9)
    field = maxwellian(vs.v, rng.uniform(0.5, 2.0, (7, 3)), rng.uniform(-0.5, 0.5, (7, 3)),
                       rng.uniform(0.5, 1.5, (7, 3)))
    strided = np.asfortranarray(field)[:, ::2, 1:]
    assert not strided.flags.c_contiguous
    for f in (single, field, strided):
        U = m.moments(f)
        assert U.shape == (3,) + f.shape[1:]
        assert np.array_equal(U, np.tensordot(m._wphi, f, axes=(1, 0)))


def test_bgk_moments_reject_unphysical():
    m = BGK1D(velocity_set=VelocitySet.uniform(-5, 5, 20))
    f = -np.ones((20, 3))
    with pytest.raises(UnphysicalStateError):
        m.moments(f)
    # negative temperature: all mass concentrated so E < rho u^2 / 2 is
    # impossible with positive f, so craft signed values
    f = np.zeros((20, 3))
    f[10] = 1.0
    f[11] = -0.5
    with pytest.raises(UnphysicalStateError):
        m.moments(2.0 * f - 0.9 * np.roll(f, 1, axis=0))


# ---------------------------------------------------------------------------
# equilibria
# ---------------------------------------------------------------------------

def test_linear_equilibrium_split():
    m = LinearTwoVelocity(b=0.6)
    np.testing.assert_allclose(m.equilibrium(np.array([1.0])), [0.8, 0.2], atol=0)


def test_nonlinear_equilibrium_values():
    m = NonlinearTwoVelocity(b=0.2)
    np.testing.assert_allclose(m.equilibrium(np.array([0.5])), [0.275, 0.225],
                               atol=1e-16)


@pytest.mark.parametrize("dtype", [np.float32, np.complex128])
def test_two_velocity_equilibria_keep_the_input_dtype(rng, dtype):
    # the coefficients are bound as 0-d arrays of the output dtype, which
    # computes as the Python-scalar expressions do: float32 stays float32
    u = rng.uniform(0.5, 2.0, size=(1, 7, 3)).astype(dtype)
    if u.dtype.kind == "c":
        u += 1j * rng.normal(size=u.shape)
    b = 0.35
    flux = b * u[0] * u[0]
    cases = [(LinearTwoVelocity(b), [0.5 * (1.0 + b) * u[0], 0.5 * (1.0 - b) * u[0]]),
             (NonlinearTwoVelocity(b), [(flux + u[0]) * 0.5, (-flux + u[0]) * 0.5])]
    for model, expected in cases:
        M = model.equilibrium(u)
        assert M.dtype == dtype and expected[0].dtype == dtype, model.name
        assert np.array_equal(M, np.stack(expected)), model.name


def test_maxwellian_peak_value():
    val = maxwellian(np.array([0.0]), 1.0, 0.0, 1.0)
    assert val[0] == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), abs=1e-15)


def test_maxwellian_broadcasting():
    v = np.linspace(-5, 5, 11)
    u = np.zeros((4, 3))
    out = maxwellian(v, 1.0, u, 1.0)
    assert out.shape == (11, 4, 3)


def test_bgk_equilibrium_moment_consistency(rng):
    m = BGK1D()
    for _ in range(20):
        rho = rng.uniform(0.5, 2.0)
        u = rng.uniform(-1.0, 1.0)
        T = rng.uniform(0.5, 2.0)
        E = 0.5 * rho * u * u + 0.5 * rho * T
        U = np.array([rho, rho * u, E])
        back = m.moments(m.equilibrium(U))
        np.testing.assert_allclose(back, U, rtol=1e-12, atol=1e-12)


def test_bgk_equilibrium_analytic_variant_close_to_conservative():
    cons = BGK1D()
    U = np.array([1.1, 0.2, 0.8])
    np.testing.assert_allclose(cons.equilibrium(U), analytic_equilibrium(cons.velocity_set, U),
                               rtol=1e-9, atol=1e-12)


def _random_moments(rng, shape=(5, 3)):
    rho = rng.uniform(0.5, 2.0, size=shape)
    u = rng.uniform(-0.5, 0.5, size=shape)
    T = rng.uniform(0.5, 1.5, size=shape)
    return np.stack([rho, rho * u, 0.5 * rho * (u * u + T)])


@pytest.mark.parametrize("v_max, n_v", [(6.0, 24), (15.0, 100)])
def test_bgk_equilibrium_moments_are_U(v_max, n_v, rng):
    # the discrete Maxwellian's quadrature moments equal U within the
    # Newton tolerance; on the coarse grid the analytic one misses them
    m = BGK1D(velocity_set=VelocitySet.uniform(-v_max, v_max, n_v))
    U = _random_moments(rng)
    miss = np.max(np.abs(m.moments(m.equilibrium(U)) - U) / U[0])
    assert miss <= models.NEWTON_TOL
    analytic_miss = np.max(np.abs(m.moments(analytic_equilibrium(m.velocity_set, U)) - U) / U[0])
    assert (analytic_miss > models.NEWTON_TOL) == (n_v == 24)


def test_bgk_equilibrium_is_analytic_maxwellian_on_a_resolved_grid(rng):
    # where the quadrature is exact to roundoff, the fit stays at the
    # analytic parameters: the two agree wherever M is not negligible
    vs = VelocitySet.uniform(-15.0, 15.0, 100)
    U = _random_moments(rng, (7, 4))
    M = BGK1D(velocity_set=vs).equilibrium(U)
    ref = analytic_equilibrium(vs, U)
    big = ref > 1e-8 * ref.max(axis=0)
    assert np.max(np.abs(M - ref)[big] / ref[big]) <= 1e-13


def test_equilibrium_out_matches_fresh(rng):
    # out= gives the bits of a fresh evaluation; the Maxwellian is its
    # closed form to the bit
    vs = VelocitySet.uniform(-6.0, 6.0, 24)
    rho = rng.uniform(0.5, 2.0, size=(5, 3))
    u = rng.uniform(-0.5, 0.5, size=(5, 3))
    T = rng.uniform(0.5, 1.5, size=(5, 3))
    vv = vs.v[:, None, None]
    closed = rho / np.sqrt(2.0 * np.pi * T) * np.exp(-((vv - u) ** 2) / (2.0 * T))
    assert np.array_equal(maxwellian(vs.v, rho, u, T), closed)
    U = np.stack([rho, rho * u, 0.5 * rho * (u * u + T)])
    cases = [(BGK1D(velocity_set=vs), U), (LinearTwoVelocity(0.6), U[:1]),
             (NonlinearTwoVelocity(0.2), U[:1]), (LinearTwoVelocity(0.6), U[:1] + 1j * U[1:2]),
             (NonlinearTwoVelocity(0.2), U[:1, 0, 0])]
    for model, moments in cases:
        fresh = model.equilibrium(moments)
        out = np.full_like(fresh, np.nan)
        assert model.equilibrium(moments, out=out) is out
        assert np.array_equal(out, fresh), model.name
        with pytest.raises(ValueError, match="out"):
            model.equilibrium(moments, out=np.empty(fresh.shape[:-1] + (7,), fresh.dtype))


def test_stage_kernels_give_the_bits_of_equilibrium_of_moments(rng):
    # the moment kernel then the equilibrium kernels, as the solver binds
    # them once to fixed arrays, serve every new f written into them; real
    # fields for all models, complex for the two-velocity ones
    vs = VelocitySet.uniform(-6.0, 6.0, 24)
    gas = BGK1D(velocity_set=vs)
    shape = (5, 3)
    for model in (gas, LinearTwoVelocity(0.6), NonlinearTwoVelocity(0.2)):
        dtypes = (float,) if model is gas else (float, complex)
        for dtype in dtypes:
            n_v = model.velocity_set.n
            f = np.empty((n_v,) + shape, dtype)
            out = np.full_like(f, np.nan)
            U = np.empty((model.n_invariants,) + shape, dtype)
            kernels = [model.moment_kernel(f, U)] + model.equilibrium_kernels(U, out)
            for _ in range(3):
                if model is gas:
                    f[...] = maxwellian(vs.v, rng.uniform(0.5, 2.0, shape),
                                        rng.uniform(-0.5, 0.5, shape),
                                        rng.uniform(0.5, 1.5, shape)) * rng.uniform(0.9, 1.1)
                else:
                    f.real = rng.uniform(0.1, 1.0, f.shape)
                    if dtype is complex:
                        f.imag = rng.normal(size=f.shape)
                for kernel, args in kernels:
                    kernel(*args)
                expected = model.equilibrium(model.moments(f))
                assert out.dtype == expected.dtype
                assert np.array_equal(out, expected), (model.name, dtype)


def test_gas_model_rejects_complex_values():
    # the gas model computes in float64: complex moments or f raise one
    # ValueError naming the dtype, not a ComplexWarning or a numpy error
    m = BGK1D(velocity_set=VelocitySet.uniform(-6.0, 6.0, 24))
    U = np.array([[1.0, 1.2], [0.0, 0.1], [0.5, 0.7]])
    f = m.equilibrium(U)
    assert m.equilibrium(U.astype(np.float32)).dtype == np.float64
    for call, values in ((m.equilibrium, U), (m.moments, f)):
        with pytest.raises(ValueError, match="complex128"):
            call(values + 0j)


def test_bgk_equilibrium_rejects_negative_temperature():
    m = BGK1D()
    with pytest.raises(UnphysicalStateError):
        m.equilibrium(np.array([1.0, 2.0, 0.5]))  # E < rho u^2 / 2
    # equilibrium shares the moments check, so it also locates the bad point
    U = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 2.0], [0.5, 0.5, 0.5]])
    with pytest.raises(UnphysicalStateError) as info:
        m.equilibrium(U)
    assert info.value.flat_index == 2


def test_bgk_newton_non_convergence_raises_divergence_error(monkeypatch):
    U = np.array([[1.0, 0.9], [0.1, 0.0], [0.6, 0.5]])
    BGK1D().equilibrium(U)
    monkeypatch.setattr(models, "NEWTON_MAX_ITER", 0)
    with pytest.raises(DivergenceError, match="did not converge within 0 iterations"):
        BGK1D().equilibrium(U)
    assert sl_solver.DivergenceError is DivergenceError
    assert sldirk.DivergenceError is DivergenceError


@pytest.mark.parametrize("n_v,reason", [(8, "hit a singular Jacobian"),
                                         (10, "did not converge within 50 iterations")])
def test_bgk_fit_failure_names_grid_spacing_and_temperature(n_v, reason):
    # the point at T = 1 is under-resolved (dv > 2 sqrt(T)), the one at T = 9 is not
    m = BGK1D(velocity_set=VelocitySet.uniform(-15.0, 15.0, n_v))
    T = np.array([1.0, 9.0])
    U = np.stack([np.ones(2), np.full(2, 0.3), 0.5 * (0.09 + T)])
    m.equilibrium(U[:, 1:])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError) as info:
        m.equilibrium(U)
    message = str(info.value)
    assert message.startswith(f"discrete Maxwellian fit {reason}: "), message
    assert f"dv = {30.0 / (n_v - 1):.3g}, " in message
    assert "smallest sqrt(T) among the failing points = 1;" in message


def test_run_failures_form_one_family():
    # configuration problems are ValueErrors; a failed run is not
    for cls in (models.SimulationError, DivergenceError, UnphysicalStateError):
        assert issubclass(cls, models.SimulationError)
        assert not issubclass(cls, ValueError)
        exc = cls("failed")
        assert exc.step is None and exc.time is None
    assert sldirk.SimulationError is models.SimulationError


def test_bgk_discrete_conservation_on_coarse_grid():
    # with only 24 points the analytic Maxwellian has visible quadrature
    # error; the Newton-corrected one is still exact
    vs = VelocitySet.uniform(-6.0, 6.0, 24)
    cons = BGK1D(velocity_set=vs)
    U = np.array([1.0, 0.3, 0.9])
    err_cons = np.max(np.abs(cons.moments(cons.equilibrium(U)) - U))
    err_plain = np.max(np.abs(cons.moments(analytic_equilibrium(vs, U)) - U))
    assert err_cons < 1e-13
    assert err_plain > 1e-9


# ---------------------------------------------------------------------------
# relaxation
# ---------------------------------------------------------------------------

def test_relaxation_vanishes_at_equilibrium_two_velocity(rng):
    # both models share one moments body; each keeps its own equilibrium,
    # equal to the bit to its closed form
    assert LinearTwoVelocity.moments is NonlinearTwoVelocity.moments
    closed_forms = {
        LinearTwoVelocity(0.6): lambda u: [0.5 * (1.0 + 0.6) * u, 0.5 * (1.0 - 0.6) * u],
        NonlinearTwoVelocity(0.2): lambda u: [(0.2 * u * u + u) * 0.5,
                                              (u - 0.2 * u * u) * 0.5],
    }
    for model, closed_form in closed_forms.items():
        assert (model.n_invariants, model.invariant_names) == (1, ("mass",))
        U = rng.uniform(0.2, 2.0, size=(1, 5))
        M = model.equilibrium(U)
        assert np.array_equal(M, np.array(closed_form(U[0])))
        assert np.array_equal(model.moments(M), (M[0] + M[1])[None])
        np.testing.assert_allclose(relaxation(model, M, eps=0.37), 0.0, atol=1e-14)


def test_relaxation_linear_substitution():
    m = LinearTwoVelocity(b=0.6)
    q = relaxation(m, np.array([1.0, 0.0]), eps=1.0)
    np.testing.assert_allclose(q, [-0.2, 0.2], atol=1e-15)


def test_relaxation_equals_linear_collision_formula(rng):
    # the equilibrium-based form reproduces the explicit linear operator
    b = 0.6
    m = LinearTwoVelocity(b=b)
    for _ in range(20):
        f = rng.normal(size=(2, 7))
        eps = rng.uniform(0.1, 2.0)
        expected = 0.5 * (b * (f[0] + f[1]) - (f[0] - f[1])) / eps
        q = relaxation(m, f, eps)
        np.testing.assert_allclose(q[0], expected, atol=1e-14)
        np.testing.assert_allclose(q[1], -expected, atol=1e-14)


def test_relaxation_moments_vanish_bgk(rng):
    m = BGK1D()
    v = m.velocity_set.v
    f = maxwellian(v, 1.0, 0.1 * np.ones(4), 1.0) * (1.0 + 0.05 * np.cos(v)[:, None])
    q = relaxation(m, f, eps=1e-2)
    np.testing.assert_allclose(m._wphi @ q, 0.0, atol=1e-12)


def test_relaxation_fixed_point_bgk():
    m = BGK1D()
    U = np.array([[1.0, 1.2], [0.0, 0.1], [0.5, 0.7]])
    M = m.equilibrium(U)
    np.testing.assert_allclose(relaxation(m, M, eps=1.0), 0.0, atol=1e-12)
    # dividing by a small eps amplifies the Newton tolerance accordingly
    np.testing.assert_allclose(relaxation(m, M, eps=1e-3), 0.0, atol=1e-9)


def test_relaxation_conserves_invariants_all_models(rng):
    models = [LinearTwoVelocity(0.6), NonlinearTwoVelocity(0.2), BGK1D()]
    for model in models:
        n_v = model.velocity_set.n
        w = model.velocity_set.w
        v = model.velocity_set.v
        for _ in range(10):
            if model.n_invariants == 1:
                f = rng.uniform(0.1, 1.0, size=(n_v, 6))
            else:
                f = maxwellian(v, 1.0, rng.uniform(-0.2, 0.2, size=6), 1.0) \
                    * (1.0 + 0.1 * np.sin(v)[:, None])
            q = relaxation(model, f, eps=1.0)
            # each collision invariant of the relaxation term vanishes
            assert abs(np.tensordot(w, q, axes=(0, 0))).max() < 1e-12
            if model.n_invariants == 3:
                assert abs(np.tensordot(w * v, q, axes=(0, 0))).max() < 1e-12
                assert abs(np.tensordot(0.5 * w * v * v, q, axes=(0, 0))).max() < 1e-12


def test_bgk_parameters_of_maxwellian():
    m = BGK1D()
    f = maxwellian(m.velocity_set.v, 2.0, 0.5, 1.5)
    rho, u, T = BGK1D.parameters(m.moments(f))
    assert rho == pytest.approx(2.0, rel=1e-10)
    assert u == pytest.approx(0.5, rel=1e-10)
    assert T == pytest.approx(1.5, rel=1e-10)


def test_linear_coupling_must_be_below_one():
    with pytest.raises(ValueError):
        LinearTwoVelocity(b=1.0)
