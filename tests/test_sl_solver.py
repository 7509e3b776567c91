import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from sldirk import models
from sldirk.butcher import catalog, get_tableau, to_shu_osher
from sldirk.dg import DGField, Mesh1D, ShiftOperator, fourier_coefficient, gauss_nodes
from sldirk.harness import build_case, fit_slope
from sldirk.models import (BGK1D, LinearTwoVelocity, NonlinearTwoVelocity,
                           UnphysicalStateError, VelocitySet, maxwellian)
from sldirk import harness, sl_solver
from sldirk.sl_solver import (DivergenceError, SemiLagrangianSolver, SimConfig, _Workspace,
                              _linear_step_of, _power, _product, _roots_of_unity, l1_error,
                              run)
from sldirk.stability import StabilityPoint, amplification
from conftest import assert_close, initial_field, random_sa_dirk, remap

B = 0.6


def _linear_cfg(tableau="DIRK2", n=32, eps=1e-2, cfl=0.5, t_final=0.1, degree=2):
    model = LinearTwoVelocity(B)
    mesh = Mesh1D(0.0, 1.0, n)
    return SimConfig(model=model, tableau=get_tableau(tableau), mesh=mesh,
                     degree=degree, cfl=cfl, eps=eps, t_final=t_final)


def _nonlinear_cfg(**kwargs):
    """``_linear_cfg`` on the quadratic-flux model: the same remaps, stepped
    through the stage plan."""
    return dataclasses.replace(_linear_cfg(**kwargs), model=NonlinearTwoVelocity(0.2))


def _mode_field(mesh, degree, coeffs, mode=1):
    k = 2 * np.pi * mode / mesh.length
    coords = mesh.node_coords(degree)
    vals = np.stack([c * np.exp(1j * k * coords) for c in coeffs])
    return DGField(mesh=mesh, values=vals)


def _stage_ops(solver):
    """The stage operators in the plan of the solver's one workspace."""
    (ws,) = solver._workspaces.values()
    return [op for op, _, _ in ws.plan[0]]


def _mode_coeffs(field, mode=1):
    return np.array([fourier_coefficient(DGField(mesh=field.mesh, values=field.values[i]), mode)
                     for i in range(field.values.shape[0])])


def test_constant_equilibrium_is_steady():
    cfg = _linear_cfg()
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    f0 = initial_field(cfg, lambda x, v: np.full_like(x, 0.8 if v > 0 else 0.2))
    np.testing.assert_allclose(solver.step_values(f0.values, cfg.dt), f0.values, atol=1e-14)


@pytest.mark.parametrize("tableau", ["BE", "DIRK2", "DIRK3-B10"])
def test_step_values_output_owns_its_memory(tableau):
    # the stage combination works in place; the step output must still be
    # a fresh array, apart from the input and from earlier outputs
    for model in (LinearTwoVelocity(B), BGK1D(velocity_set=VelocitySet.uniform(-5, 5, 16))):
        mesh = Mesh1D(-1.0, 1.0, 12)
        cfg = SimConfig(model=model, tableau=get_tableau(tableau), mesh=mesh, degree=2,
                        cfl=0.7, eps=1e-3, t_final=0.1)
        f0 = initial_field(cfg, lambda x, v: (1.0 + 0.2 * np.sin(np.pi * x))
                            * np.exp(-0.5 * (v - 0.1) ** 2))
        before = f0.values.copy()
        solver = SemiLagrangianSolver(model, mesh, 2, cfg.tableau, cfg.eps)
        out = solver.step_values(f0.values, cfg.dt)
        again = solver.step_values(f0.values, cfg.dt)
        assert np.array_equal(f0.values, before)
        assert np.array_equal(again, out)
        assert not np.shares_memory(out, again)
        for arr in (out, again):
            assert not np.shares_memory(arr, f0.values)


def test_step_results_never_alias_workspaces():
    # the solver reuses its workspaces from step to step; every returned
    # array must keep its bits while the solver steps on, and equal a step
    # by a solver of its own
    lin_cfg = _linear_cfg(tableau="DIRK3-B10", n=12)
    gas_cfg = SimConfig(model=BGK1D(velocity_set=VelocitySet.uniform(-5, 5, 16)),
                        tableau=get_tableau("DIRK3-B10"), mesh=lin_cfg.mesh, degree=2,
                        cfl=0.7, eps=1e-3, t_final=0.1)
    f0 = initial_field(gas_cfg, lambda x, v: (1.0 + 0.2 * np.sin(np.pi * x))
                        * np.exp(-0.5 * (v - 0.1) ** 2)).values
    r0 = initial_field(lin_cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x))
                        * (1.5 if v > 0 else 0.5)).values
    c0 = _mode_field(lin_cfg.mesh, 2, [0.7 + 0.2j, -0.3 + 0.5j]).values

    def solver_for(cfg, eps):
        return SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, eps)

    kept = []  # (returned array, its bits when returned, a fresh solver's step)

    def step(solver, cfg, values):
        out = solver.step_values(values, cfg.dt)
        kept.append((out, out.copy(), solver_for(cfg, solver.eps).step_values(values, cfg.dt)))
        return out

    # one solver in sequence
    gas = solver_for(gas_cfg, 1e-3)
    values = f0
    for _ in range(4):
        values = step(gas, gas_cfg, values)
    # real and complex values alternating on one solver
    lin = solver_for(lin_cfg, lin_cfg.eps)
    real, cplx = r0, c0
    for _ in range(2):
        real = step(lin, lin_cfg, real)
        cplx = step(lin, lin_cfg, cplx)
    assert real.dtype == float and cplx.dtype == complex
    # two solvers of one shape stepping in turn
    first, second = solver_for(gas_cfg, 1e-3), solver_for(gas_cfg, 1e-6)
    va = vb = f0
    for _ in range(2):
        va = step(first, gas_cfg, va)
        vb = step(second, gas_cfg, vb)

    for out, bits, fresh in kept:
        assert np.array_equal(out, bits) and np.array_equal(out, fresh)


def test_warm_step_allocates_only_its_result(monkeypatch):
    # a warm step keeps its field-sized temporaries in the solver's
    # workspaces, so the traced peak is the returned array plus the
    # per-point moments and fit parameters
    cfg, f0 = build_case("5.3", "DIRK3-B10", 1e-6, 0.1, n_elements=40, degree=2, n_v=100)
    layer_peaks, tracing = [], []

    def traced(fn):
        def wrapper(*args, **kwargs):
            if not tracing:
                return fn(*args, **kwargs)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            layer_peaks.append(tracemalloc.get_traced_memory()[1] - before)
            return result
        return wrapper

    # a lone transient field would hide under the returned array, so every
    # remap and fit of the second traced step is traced on its own too; the
    # fits are bound into the stage plan, so they are wrapped before it is
    equilibrium_kernels = cfg.model.equilibrium_kernels
    monkeypatch.setattr(cfg.model, "equilibrium_kernels", lambda U, out: [
        (traced(kernel), args) for kernel, args in equilibrium_kernels(U, out)])
    monkeypatch.setattr(ShiftOperator, "apply", traced(ShiftOperator.apply))
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    values = f0.values
    for _ in range(2):
        values = solver.step_values(values, cfg.dt)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        solver.step_values(values, cfg.dt)
        peak = tracemalloc.get_traced_memory()[1] - before
        tracing.append(True)
        solver.step_values(values, cfg.dt)
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * values.nbytes, peak / values.nbytes
    # one remap and one bound fit per stage
    assert len(layer_peaks) == 2 * cfg.tableau.s
    assert max(layer_peaks) <= 0.25 * values.nbytes, max(layer_peaks) / values.nbytes


def test_gas_stage_checks_its_moments_once(monkeypatch):
    # the stage's moment kernel only sums; its fit checks rho > 0 and T > 0
    cfg, f0 = build_case("5.3", "DIRK3-B10", 1e-6, 0.1, n_elements=8, degree=2, n_v=16)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    values = solver.step_values(f0.values, cfg.dt)
    calls = []
    check = models._gas_parameters
    monkeypatch.setattr(models, "_gas_parameters", lambda *a: calls.append(1) or check(*a))
    solver.step_values(values, cfg.dt)
    assert len(calls) == cfg.tableau.s


@pytest.mark.parametrize("example,takes", [("5.3", 0), ("5.2", 1)])
def test_warm_step_gathers_by_run_copies_for_many_velocities(example, takes):
    # the gas model's 100 velocities make long runs of one cell offset,
    # gathered by block copies; the two-velocity slices each make their
    # own run, too short for copies, and keep the indexed take
    cfg, f0 = build_case(example, "DIRK3-B10", 1e-6, 0.1)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    values = f0.values
    for _ in range(2):
        values = solver.step_values(values, cfg.dt)
    for op in _stage_ops(solver):
        kernels = [getattr(kernel, "__name__", "") for kernel, _ in op._bound[5]]
        assert kernels.count("take") == takes * len(op._groups), example


def test_huge_eps_reduces_to_pure_advection():
    cfg = _linear_cfg(tableau="DIRK3-B10", eps=1e12)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    f0 = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x)) * (1.5 if v > 0 else 0.5))
    # c_s = 1, so the step output is the data shifted by v * dt
    shifted = remap(cfg.mesh, f0.values, cfg.model.velocity_set.v * cfg.dt)
    np.testing.assert_allclose(solver.step_values(f0.values, cfg.dt), shifted, atol=1e-10)


def test_backward_euler_step_matches_amplification():
    mesh = Mesh1D(0.0, 1.0, 128)
    model = LinearTwoVelocity(B)
    t = get_tableau("BE")
    dt = 0.5 * mesh.dx
    eps = dt / 2.0
    solver = SemiLagrangianSolver(model, mesh, 2, t, eps)
    f0 = _mode_field(mesh, 2, [0.9 - 0.4j, 0.1 + 0.3j])
    out = solver.step_values(f0.values, dt)
    m = amplification(t, StabilityPoint(B, 2 * np.pi * dt, 2.0)).m
    np.testing.assert_allclose(_mode_coeffs(DGField(mesh=mesh, values=out)),
                               m @ _mode_coeffs(f0), atol=1e-10)


def test_multi_step_matches_amplification_power(rng):
    # several random tableaus and stiffness ratios, 5 steps on 32 elements
    mesh = Mesh1D(0.0, 1.0, 32)
    model = LinearTwoVelocity(B)
    dt = 0.5 * mesh.dx
    k_dt = 2 * np.pi * dt
    for _ in range(5):
        t = random_sa_dirk(rng, int(rng.integers(1, 5)), diag_lo=0.2)
        xi = float(rng.uniform(0.2, 20.0))
        solver = SemiLagrangianSolver(model, mesh, 2, t, dt / xi)
        f0 = _mode_field(mesh, 2, [0.8 + 0.1j, -0.2 + 0.6j])
        c0 = _mode_coeffs(f0)
        vals = f0.values
        for _ in range(5):
            vals = solver.step_values(vals, dt)
        m = amplification(t, StabilityPoint(B, k_dt, xi)).m
        got = _mode_coeffs(DGField(mesh=mesh, values=vals))
        np.testing.assert_allclose(got, np.linalg.matrix_power(m, 5) @ c0, atol=1e-8)


def test_per_step_conservation_all_models(rng):
    cases = []
    cases.append((LinearTwoVelocity(0.6), "5.1"))
    cases.append((NonlinearTwoVelocity(0.2), "5.2"))
    cases.append((BGK1D(velocity_set=VelocitySet.uniform(-15, 15, 50)), "5.3"))
    for model, example in cases:
        cfg, f0 = build_case(example, "DIRK3-B10", 1e-2, 0.5, n_elements=24,
                             degree=2, n_v=50)
        solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree,
                                      cfg.tableau, cfg.eps)
        vals = f0.values
        before = solver.invariant_integrals(vals)
        for _ in range(10):
            vals = solver.step_values(vals, cfg.dt)
        after = solver.invariant_integrals(vals)
        np.testing.assert_allclose(after, before, rtol=1e-12, atol=1e-14)


def test_relaxation_drives_field_to_equilibrium():
    # stiff regime, well-prepared data: the distance from equilibrium stays
    # O(eps) after stepping
    eps = 1e-6
    cfg = _linear_cfg(tableau="DIRK3-B10", eps=eps, n=64)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    u0 = lambda x: np.exp(np.sin(2 * np.pi * x))
    f0 = initial_field(cfg, lambda x, v: 0.5 * (1 + B if v > 0 else 1 - B) * u0(x))
    vals = solver.step_values(f0.values, cfg.dt)
    assert solver.equilibrium_distance(vals) < 100 * eps
    # data started off equilibrium relaxes within a few steps
    g0 = initial_field(cfg, lambda x, v: 1.0 + (0.4 if v > 0 else -0.3) * np.sin(2 * np.pi * x))
    vals = g0.values
    for _ in range(3):
        vals = solver.step_values(vals, cfg.dt)
    assert solver.equilibrium_distance(vals) < 1e-3
    assert solver.equilibrium_distance(solver.step_values(vals, cfg.dt)) < 100 * eps


def test_run_linear_benchmark_conserves_mass():
    cfg, f0 = build_case("5.1", "DIRK2", 1e-2, 0.5, n_elements=64)
    result = run(cfg, f0)
    drift = abs(result.invariants[-1, 0] - result.invariants[0, 0])
    assert drift < 1e-12 * abs(result.invariants[0, 0])
    assert result.times[-1] == cfg.t_final


def test_run_bgk_benchmark_conserves_all_invariants():
    cfg, f0 = build_case("5.3", "DIRK3-B10", 1e-2, 2.0, n_elements=32, n_v=50)
    result = run(cfg, f0, diagnostics_every=0)
    rel = np.abs(result.invariants[-1] - result.invariants[0]) / np.abs(result.invariants[0])
    assert np.max(rel) < 1e-10
    assert result.times[-1] == cfg.t_final


def test_run_rejects_a_negative_diagnostics_interval():
    # Python's % by a negative divisor still reaches 0, which would record
    # every third step for -3
    cfg, f0 = build_case("5.1", "DIRK2", 1e-2, 0.5, n_elements=8)
    with pytest.raises(ValueError, match="diagnostics_every must be >= 0, got -3"):
        run(cfg, f0, diagnostics_every=-3)


@pytest.mark.parametrize("every", [2.0, 1.5, "2", True, False, np.True_])
def test_run_rejects_a_diagnostics_interval_that_is_not_a_whole_number(every):
    # range() would raise TypeError for these, not the documented ValueError
    cfg, f0 = build_case("5.1", "DIRK2", 1e-2, 0.5, n_elements=8)
    with pytest.raises(ValueError, match=re.escape(f"diagnostics_every must be a whole "
                                                   f"number, got {every!r}")):
        run(cfg, f0, diagnostics_every=every)


def test_run_zero_velocity_constant_state_unchanged():
    cfg = _linear_cfg(tableau="DIRK3-B2", eps=0.5, t_final=0.07)
    f0 = initial_field(cfg, lambda x, v: np.full_like(x, 0.8 if v > 0 else 0.2))
    result = run(cfg, f0)
    np.testing.assert_allclose(result.final.values, f0.values, atol=1e-12)


def test_run_final_partial_step_lands_on_t_final():
    cfg = _linear_cfg(t_final=0.0503)  # not a multiple of dt
    f0 = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x)))
    result = run(cfg, f0)
    assert result.times[-1] == cfg.t_final
    assert result.n_steps == int(np.ceil(cfg.t_final / cfg.dt - 1e-12))


def test_run_takes_full_steps_when_t_final_is_a_whole_number_of_steps(monkeypatch):
    # T = 0.2 is 6,400 steps at CFL 0.005, but the summed times fall short
    # of it by 4.7e-10 dt; the last step is still a full one, so the run
    # builds one plan
    cfg, f0 = build_case("5.1", "DIRK3-B10", 1e-6, 0.005)
    plans = []
    plan = SemiLagrangianSolver._stage_plan
    monkeypatch.setattr(SemiLagrangianSolver, "_stage_plan",
                        lambda self, ws, dt: plans.append(dt) or plan(self, ws, dt))
    result = run(cfg, f0, diagnostics_every=0)
    assert result.n_steps == 6400 and result.times[-1] == cfg.t_final
    assert plans == [cfg.dt]


def test_run_aborts_on_nonfinite():
    # quadratic equilibrium overflows for a huge seed value: genuine
    # mid-run divergence, reported with its step index
    model = NonlinearTwoVelocity(0.2)
    mesh = Mesh1D(0.0, 1.0, 16)
    cfg = SimConfig(model=model, tableau=get_tableau("DIRK2"), mesh=mesh,
                    degree=2, cfl=0.5, eps=1e-2, t_final=0.1)
    f0 = initial_field(cfg, lambda x, v: np.full_like(x, 1e200))
    with pytest.raises(DivergenceError) as info:
        run(cfg, f0)
    assert info.value.step == 1
    # corrupt initial data is rejected before stepping
    g0 = initial_field(cfg, lambda x, v: np.full_like(x, 1.0))
    g0.values[0, 3, 1] = np.inf
    with pytest.raises(DivergenceError) as info:
        run(cfg, g0)
    assert info.value.step == 0


@pytest.mark.parametrize("name", ["cfl", "eps", "t_final"])
@pytest.mark.parametrize("value", [0.0, -0.5, np.nan, np.inf])
def test_sim_config_rejects_bad_run_parameters(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
        _linear_cfg(**{name: value})


def test_bad_run_parameter_is_printed_as_a_plain_float():
    # numpy 2 prints a numpy scalar as np.float64(-1.0)
    with pytest.raises(ValueError, match=re.escape("eps must be finite and positive, got -1.0")
                       + "$"):
        _linear_cfg(eps=np.float64(-1.0))


def test_sim_config_rejects_a_velocity_set_at_rest():
    # no nonzero speed: the CFL number gives no time step
    model = BGK1D(velocity_set=VelocitySet(v=[0.0, 0.0], w=[1.0, 1.0]))
    with pytest.raises(ValueError, match="every velocity is 0"):
        SimConfig(model=model, tableau=get_tableau("DIRK2"), mesh=Mesh1D(0.0, 1.0, 8),
                  degree=2, cfl=0.5, eps=1e-2, t_final=0.1)


@pytest.mark.parametrize("eps", [0.0, -1e-3, np.nan, np.inf])
def test_solver_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps must be finite and positive"):
        SemiLagrangianSolver(LinearTwoVelocity(B), Mesh1D(0.0, 1.0, 8), 2,
                             get_tableau("DIRK2"), eps)


def test_unphysical_state_reports_stage_and_location():
    vs = VelocitySet.uniform(-5, 5, 30)
    model = BGK1D(velocity_set=vs)
    mesh = Mesh1D(-1.0, 1.0, 8)
    solver = SemiLagrangianSolver(model, mesh, 2, get_tableau("BE"), eps=1e-2)
    f0 = initial_field(
        SimConfig(model=model, tableau=get_tableau("BE"), mesh=mesh, degree=2,
                  cfl=0.5, eps=1e-2, t_final=0.1),
        lambda x, v: np.where(x > 0, -1.0, 1.0) * np.ones_like(x))
    with pytest.raises(UnphysicalStateError, match="stage 1.*near x"):
        solver.step_values(f0.values, 0.01)
    # run() refuses the same data up front while recording diagnostics
    cfg = SimConfig(model=model, tableau=get_tableau("BE"), mesh=mesh, degree=2,
                    cfl=0.5, eps=1e-2, t_final=0.1)
    with pytest.raises(UnphysicalStateError):
        run(cfg, f0)
    # a positive density jump passes that check, but the remap of stage 1
    # undershoots below zero; run() stamps the failing step and its time
    jump = initial_field(cfg, lambda x, v: np.where(x > 0, 1e-6, 1.0) * np.exp(-v * v / 2))
    with pytest.raises(UnphysicalStateError, match="stage 1.*near x") as info:
        run(cfg, jump)
    assert info.value.step == 1
    assert info.value.time == cfg.dt


def test_run_stamps_diagnostics_failures(monkeypatch):
    model = BGK1D(velocity_set=VelocitySet.uniform(-5, 5, 30))
    cfg = SimConfig(model=model, tableau=get_tableau("BE"), mesh=Mesh1D(-1.0, 1.0, 8),
                    degree=2, cfl=0.5, eps=1e-2, t_final=0.1)
    # unphysical initial data fails in the first record, at step 0
    f0 = initial_field(cfg, lambda x, v: np.where(x > 0, -1.0, 1.0) * np.ones_like(x))
    with pytest.raises(UnphysicalStateError, match="diagnostics after step 0 near x") as info:
        run(cfg, f0)
    assert (info.value.step, info.value.time) == (0, 0.0)
    # a later record that fails carries its step and that step's time
    good = initial_field(cfg, lambda x, v: np.exp(-v * v / 2) * np.ones_like(x))
    distance = SemiLagrangianSolver.equilibrium_distance
    for error, step in ((UnphysicalStateError, 4), (DivergenceError, 2)):
        calls = []

        def failing(self, values, moments=None):
            calls.append(1)
            if len(calls) == step // 2 + 1:
                exc = error("failed in the diagnostics")
                exc.flat_index = 5
                raise exc
            return distance(self, values, moments)

        monkeypatch.setattr(SemiLagrangianSolver, "equilibrium_distance", failing)
        with pytest.raises(error) as info:
            run(cfg, good, diagnostics_every=2)
        t = 0.0
        for _ in range(step):
            t += cfg.dt
        assert (info.value.step, info.value.time) == (step, t)
        if error is UnphysicalStateError:
            assert f"diagnostics after step {step} near x" in str(info.value)


def _per_term_step(solver, values, dt):
    """One step by single-term remaps: the step-start values and each earlier
    increment are shifted one at a time, weighted and added in order, as
    step_values did before a stage gathered them into one remap and folded
    the weights and divisors into its matrices.  Kept as the reference of
    the stage plan."""
    A, c, eps, model = solver.tableau.A, solver.tableau.c, solver.eps, solver.model
    mesh, v = solver.mesh, model.velocity_set.v
    values = np.asarray(values, dtype=np.promote_types(values.dtype, float))
    increments = []
    for k in range(solver.tableau.s):
        predicted = remap(mesh, values, v * (c[k] * dt))
        for j in range(k):
            if A[k, j] != 0.0:
                shifted = remap(mesh, increments[j], v * ((c[k] - c[j]) * dt))
                shifted *= dt * A[k, j]
                predicted += shifted
        M = model.equilibrium(model.moments(predicted))
        w_dt = A[k, k] * dt
        stage = eps * predicted
        stage += w_dt * M
        stage /= eps + w_dt
        increments.append((M - predicted) / (eps + w_dt))
    return stage


@pytest.mark.parametrize("example", ["5.1", "5.2", "5.3"])
def test_stage_remap_matches_per_term_steps(example):
    # every catalog tableau, a few warm steps on one solver; at CFL 2 and 4
    # the two-velocity shifts are partly or wholly mesh-aligned, so some
    # terms are pure permutations, alone or grouped with fractional ones
    cfls = (0.7, 1.5) if example == "5.3" else (0.7, 2.0, 4.0)
    for name in catalog():
        for cfl in cfls:
            cfg, f0 = build_case(example, name, 1e-3, cfl, n_elements=16, degree=2, n_v=16)
            solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
            values = f0.values
            for _ in range(3):
                out = solver.step_values(values, cfg.dt)
                assert_close(out, _per_term_step(solver, values, cfg.dt))
                values = out


@pytest.mark.parametrize("tableau", ["DIRK3-B2", "DIRK3-B6", "DIRK3-B10"])
def test_stage_remap_matches_per_term_stages_real_and_complex(tableau):
    cfg = _linear_cfg(tableau=tableau, n=20, eps=1e-2)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    real = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x))
                          * (1.5 if v > 0 else 0.5)).values
    cplx = _mode_field(cfg.mesh, 2, [0.7 + 0.2j, -0.3 + 0.5j]).values
    for dt in (cfg.dt, 2 * cfg.mesh.dx, 0.37 * cfg.dt):
        for values in (real, cplx):
            out = solver.step_values(values, dt)
            assert out.dtype == values.dtype
            assert_close(out, _per_term_step(solver, values, dt))


def test_stage_operators_skip_zero_coefficients():
    # DIRK3-B10's last stage reads the values and the third increment only
    # (a_41 = a_42 = 0): one remap of two terms
    cfg = _nonlinear_cfg(tableau="DIRK3-B10")
    A = cfg.tableau.A
    assert A[3, 0] == 0.0 and A[3, 1] == 0.0 and A[3, 2] != 0.0
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    solver.step_values(np.ones((2, cfg.mesh.n_elements, 3)), cfg.dt)
    ops = _stage_ops(solver)
    assert [op.n_blocks for op in ops] == [1, 2, 3, 4]
    last = ops[-1]
    # the third increment slot holds M - predicted, unscaled
    assert last._weights == (cfg.dt * A[3, 2] / (cfg.eps + cfg.dt * A[2, 2]),)
    stacked = np.zeros((4 * 2, cfg.mesh.n_elements, 3))
    stacked[2:6] = 1.0  # the first two increments must not be read
    stacked[6:] = 0.5
    np.testing.assert_allclose(last.apply(stacked), 0.5 * last._weights[0], rtol=1e-13)


def test_operator_cache_holds_one_step_size():
    cfg, f0 = build_case("5.3", "DIRK3-B10", 1e-3, 0.5, n_elements=16, degree=2, n_v=12)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    values = f0.values
    for i in range(20):
        values = solver.step_values(values, cfg.dt * (1.0 - 0.01 * i))
    last_dt = cfg.dt * (1.0 - 0.01 * 19)
    (ws,) = solver._workspaces.values()
    assert ws.dt == last_dt
    assert len(_stage_ops(solver)) == cfg.tableau.s
    # the same dt again reuses them, another one replaces them
    ops = _stage_ops(solver)
    solver.step_values(values, last_dt)
    assert all(a is b for a, b in zip(_stage_ops(solver), ops))
    solver.step_values(values, cfg.dt)
    assert ws.dt == cfg.dt
    assert len(_stage_ops(solver)) == cfg.tableau.s
    assert not any(a is b for a, b in zip(_stage_ops(solver), ops))


def test_warm_step_runs_kept_remap_bindings(monkeypatch):
    # a warm step makes one apply per stage on the bindings its operators
    # kept; a new dt builds and binds new operators, once
    cfg = _nonlinear_cfg(tableau="DIRK3-B10", n=20)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    values = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x))
                            * (1.5 if v > 0 else 0.5)).values
    values = solver.step_values(values, cfg.dt)
    calls = {"__init__": 0, "apply": 0, "_bind": 0}

    def counted(name):
        fn = getattr(ShiftOperator, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    s = cfg.tableau.s
    plans = []
    plan = SemiLagrangianSolver._stage_plan
    for dt, built in ((cfg.dt, 0), (cfg.dt, 0), (0.5 * cfg.dt, s), (0.5 * cfg.dt, 0)):
        expected = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau,
                                        cfg.eps).step_values(values, dt)
        with monkeypatch.context() as patch:
            for name in calls:
                calls[name] = 0
                patch.setattr(ShiftOperator, name, counted(name))
            patch.setattr(SemiLagrangianSolver, "_stage_plan",
                          lambda *args: plans.append(1) or plan(*args))
            plans.clear()
            out = solver.step_values(values, dt)
        assert calls == {"__init__": built, "apply": s, "_bind": built}, dt
        # the stage plan is built with the operators, once per dt
        assert len(plans) == (built > 0), dt
        assert np.array_equal(out, expected), dt
        (ws,) = solver._workspaces.values()
        assert all(op._bound[0] is ws.inputs[op.n_blocks - 1] for op in _stage_ops(solver))
        values = out


@pytest.mark.parametrize("tableau,kernels", [("DIRK3-B10", 8), ("DIRK3-B2", 6)])
def test_warm_two_velocity_step_remap_kernels(tableau, kernels):
    # every weight and divisor sits in the remap matrices: a stage's
    # prediction binds one take and one product of every term's both
    # overlaps, and no stage divides
    cfg, f0 = build_case("5.2", tableau, 1e-6, 0.005)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    values = f0.values
    for _ in range(2):
        values = solver.step_values(values, cfg.dt)
    assert sum(len(op._bound[5]) for op in _stage_ops(solver)) == kernels
    (ws,) = solver._workspaces.values()
    for op, _, stage_kernels in ws.plan[0]:
        assert [getattr(kernel, "__name__", "") for kernel, _ in op._bound[5]] == [
            "take", "matmul"]
        assert not any(kernel is np.true_divide for kernel, _ in stage_kernels)


def test_warm_two_velocity_plan_binds_no_python_float():
    # a Python float operand costs every ufunc call a conversion; the plan
    # binds each scalar as a 0-d array of the workspace dtype instead
    cfg, f0 = build_case("5.2", "DIRK3-B10", 1e-6, 0.005)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    for values in (f0.values, (0.8 - 0.3j) * f0.values):
        for _ in range(2):
            values = solver.step_values(values, cfg.dt)
    assert len(solver._workspaces) == 2
    for dtype, ws in solver._workspaces.items():
        stages, _ = ws.plan
        args = [a for op, _, kernels in stages
                for _, bound in kernels + list(op._bound[5]) for a in bound]
        assert not any(isinstance(a, float) for a in args), dtype
        # each scalar once: the quadratic-flux equilibrium binds its 1/2 twice
        scalars = list({id(a): a for a in args
                        if isinstance(a, np.ndarray) and a.ndim == 0}.values())
        # the last stage's two scales and each stage's two coefficients;
        # the weights and divisors sit in the remap matrices
        assert len(scalars) == 2 + 4 * 2, dtype
        assert all(a.dtype == dtype for a in scalars), dtype


def test_alternating_dtypes_keep_their_bindings(monkeypatch):
    # each dtype's workspace owns its stage operators, so real and complex
    # values stepped in turn bind no remap on a warm step, and each step
    # has the bits of a solver that steps one dtype only
    cfg, f0 = build_case("5.2", "DIRK3-B10", 1e-6, 0.005, n_elements=20)

    def fresh():
        return SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)

    starts = [f0.values, (0.8 - 0.3j) * f0.values]
    singles = [fresh(), fresh()]
    expected = []
    values = list(starts)
    for _ in range(6):
        values = [single.step_values(v, cfg.dt) for single, v in zip(singles, values)]
        expected.append(values)
    solver = fresh()
    values = [solver.step_values(v, cfg.dt) for v in starts]
    binds = []
    bind = ShiftOperator._bind
    monkeypatch.setattr(ShiftOperator, "_bind",
                        lambda *args: binds.append(1) or bind(*args))
    for step in expected[1:]:
        values = [solver.step_values(v, cfg.dt) for v in values]
        for out, ref in zip(values, step):
            assert out.dtype == ref.dtype and np.array_equal(out, ref)
    assert len(binds) == 0
    assert len(solver._workspaces) == 2


def test_values_of_another_shape_are_rejected():
    cfg, f0 = build_case("5.1", "DIRK3-B10", 1e-6, 0.5, n_elements=20)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    solver.step_values(f0.values, cfg.dt)
    workspaces = dict(solver._workspaces)
    for bad in (f0.values[:, :-1], f0.values[..., :-1], f0.values[:1], 1j * f0.values[:, 1:]):
        for call in (lambda v: solver.step_values(v, cfg.dt), solver.equilibrium_distance):
            with pytest.raises(ValueError, match=re.escape(f"{bad.shape} do not match")
                               + r".*" + re.escape("(2, 20, 3)")):
                call(bad)
            assert solver._workspaces == workspaces


# ---------------------------------------------------------------------------
# the compiled step of the linear model
# ---------------------------------------------------------------------------

class _Planned(LinearTwoVelocity):
    """The linear model stepped through its stage plan, the source of its
    compiled step."""
    linear = False


def _solvers(cfg):
    """A solver of ``cfg`` and one that steps the same model through its plan."""
    return tuple(SemiLagrangianSolver(model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
                 for model in (cfg.model, _Planned(cfg.model.b)))


@pytest.mark.parametrize("n", [1, 2, 4, 16])
@pytest.mark.parametrize("degree", [0, 1, 2, 3, 4])
def test_compiled_step_matches_the_plan(degree, n):
    # on 1, 2 and 4 elements the step reaches further than the mesh, so
    # every offset wraps; float32 values step in float64, complex ones in
    # complex128, and one solver takes real and complex values in turn
    for tableau in ("DIRK3-B2", "DIRK3-B10"):
        cfg = _linear_cfg(tableau=tableau, n=n, eps=1e-3, cfl=0.7, degree=degree)
        real = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x))
                              * (1.5 if v > 0 else 0.5)).values
        cplx = (0.8 - 0.3j) * real + 0.2j
        for dt in (cfg.dt, 2.3 * cfg.mesh.dx):
            for starts in ([real.astype(np.float32)], [real], [cplx], [real, cplx]):
                compiled, planned = _solvers(cfg)
                values = starts
                for _ in range(3):
                    values = [compiled.step_values(v, dt) for v in values]
                    for v, out in zip(starts, values):
                        assert_close(out, planned.step_values(v, dt))
                    starts = values


def test_a_warm_one_step_jump_runs_no_remap_and_no_build(monkeypatch):
    # a warm single step of a linear model is a jump through the kept
    # symbol's power: one FFT pair, no remap and no long-double plan run
    cfg, f0 = build_case("5.1", "DIRK3-B10", 1e-6, 0.1)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    values = solver.step_values(f0.values, cfg.dt)
    for owner, name in ((ShiftOperator, "apply"), (SemiLagrangianSolver, "_run_plan"),
                        (SemiLagrangianSolver, "_compile")):
        monkeypatch.setattr(owner, name, lambda *a, _name=name, **k:
                            pytest.fail(f"a warm step called {_name}"))
    jumps = []
    jump = SemiLagrangianSolver._jump
    monkeypatch.setattr(SemiLagrangianSolver, "_jump",
                        lambda self, *a: jumps.append(a[1:]) or jump(self, *a))
    out = solver.step_values(values, cfg.dt)
    assert jumps == [(cfg.dt, 1)]
    assert out.shape == values.shape and out.dtype == values.dtype


def test_compiled_step_is_built_once_per_dt(monkeypatch):
    # each new dt builds one compiled step alone, from one long-double plan
    # that no workspace keeps; real and complex values share it, and the
    # same dt again reuses it, also after another dt was stepped
    cfg, f0 = build_case("5.1", "DIRK3-B10", 1e-6, 0.5, n_elements=20)
    compiled, planned = _solvers(cfg)
    builds = []
    build = SemiLagrangianSolver._compile
    monkeypatch.setattr(SemiLagrangianSolver, "_compile",
                        lambda self, *dts: builds.append(dts) or build(self, *dts))
    values = [f0.values, (0.8 - 0.3j) * f0.values]
    for dt, built in ((cfg.dt, 1), (cfg.dt, 0), (0.5 * cfg.dt, 1), (0.5 * cfg.dt, 0),
                      (cfg.dt, 0)):
        builds.clear()
        out = [compiled.step_values(v, dt) for v in values]
        assert builds == [(dt,)] * built, dt
        for v, o in zip(values, out):
            assert_close(o, planned.step_values(v, dt))
        values = out
    assert list(compiled._workspaces) == [np.dtype(float), np.dtype(complex)]
    assert list(compiled._linear) == [cfg.dt, 0.5 * cfg.dt]


def _one_impulse_per_run(solver, dt):
    """The compiled step of ``dt`` built one impulse per plan run: each unit
    impulse (v, j) of element 0 alone through the long-double plan, its
    response the whole field."""
    n_v, n, q = solver._shape
    exact = _Workspace(solver, np.longdouble)
    stages, M = solver._stage_plan(exact, dt)
    impulse = np.zeros(solver._shape, np.longdouble)
    response = np.empty((n_v, q) + solver._shape, np.longdouble)
    for v in range(n_v):
        for j in range(q):
            impulse[v, 0, j] = 1.0
            response[v, j] = solver._run_plan(exact, impulse, stages, M)
            impulse[v, 0, j] = 0.0
    return _linear_step_of(response, np.arange(n), _roots_of_unity(n))


_STEP_FIELDS = ("offsets", "symbol")


def _step_reach(solver, dt):
    """The lowest and highest element offset the step of ``dt`` can reach."""
    return solver._patch(dt)[2]


@pytest.mark.parametrize("tableau", ["BE", "DIRK3-B2", "DIRK3-B10"])
@pytest.mark.parametrize("degree", [0, 2, 4])
def test_impulses_sharing_plan_runs_build_the_bits_of_one_per_run(degree, tableau):
    # every build is one run on a patch; where the patch is narrower than
    # the mesh, the step has the bits of one impulse per run on the mesh.
    # Where it is wider (1-4 elements, and 16 at CFL 5) offsets that
    # coincide modulo n_el keep their own blocks, so the symbol sums them
    # in another order: 4.7 eps at most here
    rtol = 8 * np.finfo(np.longdouble).eps
    for n in (1, 2, 4, 16, 24, 160):
        for cfl in (0.1, 0.7, 2.3, 5.0):
            for eps in (1e-3, 1e-10):
                cfg = _linear_cfg(tableau=tableau, n=n, eps=eps, cfl=cfl, degree=degree)
                solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau,
                                              cfg.eps)
                (got,), ref = solver._compile(cfg.dt), _one_impulse_per_run(solver, cfg.dt)
                if solver._patch(cfg.dt)[0].n_elements < n:
                    for name in _STEP_FIELDS:
                        assert np.array_equal(getattr(got, name), getattr(ref, name)), \
                            (n, cfl, eps, name)
                else:
                    a, b = got.symbol, ref.symbol
                    assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b)), (n, cfl, eps)


def _counted_compiles(monkeypatch):
    """The step sizes of every ``_compile`` call from now on, per call."""
    calls = []
    build = SemiLagrangianSolver._compile
    monkeypatch.setattr(SemiLagrangianSolver, "_compile",
                        lambda self, *dts: calls.append(dts) or build(self, *dts))
    return calls


def _built_alone(solver, dt):
    """The step of ``dt`` built alone, by a fresh solver of the same case."""
    (step,) = SemiLagrangianSolver(solver.model, solver.mesh, solver.degree, solver.tableau,
                                   solver.eps)._compile(dt)
    return step


@pytest.mark.parametrize("tableau", ["BE", "DIRK3-B2", "DIRK3-B10"])
@pytest.mark.parametrize("degree", [0, 2, 4])
def test_a_batched_build_has_the_bits_of_one_build_per_dt(degree, tableau, monkeypatch):
    # the step sizes of preset 5.1's desk sweep and its reference, a
    # repeated one and one of T = 0.2 itself, which reaches around the
    # narrow meshes and past a third of the widest
    for n in (1, 4, 16, 160):
        cfg, _ = build_case("5.1", tableau, 1e-10, 0.1, n_elements=n, degree=degree)
        dts = [cfl * cfg.mesh.dx for cfl in (0.001, 0.1, 0.2, 0.4, 0.8)] + [0.2, 0.1 * cfg.mesh.dx]
        solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
        calls = _counted_compiles(monkeypatch)
        solver.compile(*dts)
        unique = list(dict.fromkeys(dts))
        assert [dt for chunk in calls for dt in chunk] == unique
        assert list(solver._linear) == unique
        for dt in unique:
            alone = _built_alone(solver, dt)
            for name in _STEP_FIELDS:
                assert np.array_equal(getattr(solver._linear[dt], name), getattr(alone, name)), \
                    (n, dt, name)
        monkeypatch.undo()


@pytest.mark.parametrize("tableau,degree,chunks", [
    ("DIRK3-B10", 2, [5]), ("DIRK3-B10", 3, [5]), ("DIRK3-B10", 4, [4, 1]),
    ("DIRK3-B2", 4, [4, 1])])
def test_a_build_chunks_step_sizes_as_the_stage_groups_allow(tableau, degree, chunks,
                                                               monkeypatch):
    # on 160 elements a build runs on a patch of 64 or 128 elements and
    # groups each stage's terms there as a build of one step size does, so
    # five step sizes go in one or two chunks; the chunked build keeps the
    # bits of one build per dt
    cfg, _ = build_case("5.1", tableau, 1e-10, 0.1, degree=degree)
    dts = [cfl * cfg.mesh.dx for cfl in (0.001, 0.0625, 0.125, 0.25, 0.5)]
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    calls = _counted_compiles(monkeypatch)
    solver.compile(*dts)
    assert [len(chunk) for chunk in calls] == chunks
    monkeypatch.undo()
    for dt in dts:
        alone = _built_alone(solver, dt)
        for name in _STEP_FIELDS:
            assert np.array_equal(getattr(solver._linear[dt], name), getattr(alone, name)), \
                (dt, name)


@pytest.mark.parametrize("degree,chunks", [(2, 1), (4, 2)])
def test_a_linear_sweep_compiles_once_per_chunk_and_runs_through_harness_run(
        degree, chunks, monkeypatch):
    # one solver per (tableau, eps) pair: its reference and CFL step sizes
    # compiled before the first run, one call per chunk, and each of its
    # runs one call of harness.run with that solver
    calls = _counted_compiles(monkeypatch)
    runs = []
    real_run = harness.run

    def counted_run(cfg, initial, diagnostics_every=1, **kwargs):
        runs.append((cfg.tableau.name, cfg.cfl, kwargs["solver"]))
        return real_run(cfg, initial, diagnostics_every, **kwargs)

    monkeypatch.setattr(harness, "run", counted_run)
    study = harness.ConvergenceStudy(
        example="5.1", tableaus=("DIRK3-B2", "DIRK3-B10"), eps_values=(1e-10, 1e-2),
        cfl_values=(0.0625, 0.125, 0.25, 0.5), degree=degree)
    result = harness.run_convergence(study)
    assert len(calls) == 4 * chunks
    assert [len(dts) for dts in calls[:chunks]] == ([5] if chunks == 1 else [4, 1])
    assert len(runs) == 4 * 5
    assert [(tab, cfl) for tab, cfl, _ in runs] == [
        (tab, cfl) for tab in study.tableaus for _ in study.eps_values
        for cfl in (0.001,) + study.cfl_values]
    solvers = [solver for _, _, solver in runs]
    assert all(s is solvers[5 * (i // 5)] for i, s in enumerate(solvers))
    assert len(set(map(id, solvers))) == 4
    assert all(np.isfinite(r.error) for r in result.rows)


def test_a_shortened_last_step_compiles_alone_and_keeps_the_batch(monkeypatch):
    # T = 0.05 is 26 steps of dt = 3/1600 and a shortened 27th: the run
    # compiles that step size alone, and the batch stays for the next run
    cfg = _linear_cfg(tableau="DIRK3-B10", eps=1e-6, cfl=0.3, t_final=0.05)
    cfg = dataclasses.replace(cfg, mesh=Mesh1D(0.0, 1.0, 160))
    f0 = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x)))
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    calls = _counted_compiles(monkeypatch)
    dts = [cfg.dt, 0.5 * cfg.dt, 0.25 * cfg.dt]
    solver.compile(*dts)
    assert calls == [tuple(dts)]
    kept = dict(solver._linear)
    result = run(cfg, f0, diagnostics_every=0, solver=solver)
    assert result.n_steps == 27 and result.times[-1] == cfg.t_final
    (short,) = [dt for dt in solver._linear if dt not in dts]
    assert 0.0 < short < cfg.dt
    assert calls == [tuple(dts), (short,)]
    assert all(solver._linear[dt] is step for dt, step in kept.items())
    again = run(cfg, f0, diagnostics_every=0, solver=solver)
    assert len(calls) == 2
    fresh = run(cfg, f0, diagnostics_every=0)
    assert np.array_equal(result.final.values, fresh.final.values)
    assert np.array_equal(again.final.values, fresh.final.values)


def test_only_a_linear_model_compiles():
    cfg = _nonlinear_cfg(n=8)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    with pytest.raises(ValueError, match="is not linear, so its step does not compile"):
        solver.compile(cfg.dt)
    assert solver._linear == {}


def test_run_rejects_a_solver_of_another_case():
    cfg, f0 = build_case("5.1", "DIRK3-B10", 1e-6, 0.4, n_elements=16)
    other = {"model": LinearTwoVelocity(B), "tableau": get_tableau("DIRK3-B2"),
             "mesh": Mesh1D(0.0, 1.0, 16), "degree": 1, "eps": 1e-3}
    assert other["mesh"] == cfg.mesh  # an equal mesh passes
    good = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    assert np.array_equal(run(cfg, f0, solver=good).final.values, run(cfg, f0).final.values)
    other["mesh"] = Mesh1D(0.0, 2.0, 16)
    for name, value in other.items():
        kwargs = {"model": cfg.model, "mesh": cfg.mesh, "degree": cfg.degree,
                  "tableau": cfg.tableau, "eps": cfg.eps, name: value}
        solver = SemiLagrangianSolver(**kwargs)
        with pytest.raises(ValueError, match=f"the solver does not match the config's {name}$"):
            run(cfg, f0, solver=solver)


@pytest.mark.parametrize("tableau,n,degree,runs", [
    ("DIRK3-B10", 160, 2, 1), ("DIRK3-B2", 160, 2, 1),  # the 5.1 desk size
    ("DIRK3-B10", 32, 4, 1),  # all 10 impulses on a 128-element patch
    ("DIRK3-B10", 4, 2, 1), ("DIRK3-B2", 4, 2, 1)])  # a mesh narrower than the reach
def test_a_build_runs_the_plan_once_per_group_of_impulses(tableau, n, degree, runs,
                                                           monkeypatch):
    cfg, _ = build_case("5.1", tableau, 1e-6, 0.1, n_elements=n, degree=degree)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    calls = []
    run_plan = SemiLagrangianSolver._run_plan
    monkeypatch.setattr(SemiLagrangianSolver, "_run_plan",
                        lambda self, *a: calls.append(1) or run_plan(self, *a))
    solver._compile(cfg.dt)
    assert len(calls) == runs


#: the fluid CFLs of a degree-2 desk sweep of preset 5.1 and its reference
_DESK_CFLS = (0.001, 0.075, 0.15, 0.3, 0.6)


def _desk_build(n, eps=1e-10):
    """A DIRK3-B10 solver of preset 5.1 at degree 2 on ``n`` elements and
    the step sizes of its desk sweep."""
    cfg, _ = build_case("5.1", "DIRK3-B10", eps, 0.1, n_elements=n, degree=2)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    return solver, [cfl * cfg.mesh.dx for cfl in _DESK_CFLS]


def test_a_build_on_a_patch_has_the_bits_of_one_impulse_per_run_on_the_mesh(monkeypatch):
    # on 640 elements the six impulses at all five step sizes go in one plan
    # run on a patch of 64 elements, which stacks every stage's terms in
    # one group as a one-dt build on the mesh does
    solver, dts = _desk_build(640)
    widths = []
    run_plan = SemiLagrangianSolver._run_plan
    monkeypatch.setattr(SemiLagrangianSolver, "_run_plan",
                        lambda self, ws, *a: widths.append(ws.mesh.n_elements)
                        or run_plan(self, ws, *a))
    solver.compile(*dts)
    monkeypatch.undo()
    assert widths == [64]
    for dt in dts:
        ref = _one_impulse_per_run(solver, dt)
        for name in _STEP_FIELDS:
            assert np.array_equal(getattr(solver._linear[dt], name), getattr(ref, name)), \
                (dt, name)


def test_a_patch_stacks_the_stage_terms_that_the_whole_mesh_splits():
    # on 1280 elements a one-dt build on the mesh stacks the three terms of
    # DIRK3-B10's third stage in two groups, and the patch in one; the sums
    # regroup, so the symbols agree to long-double roundoff only
    solver, dts = _desk_build(1280)
    patch = solver._patch(*dts)[0]
    for dt in dts:
        for ws in (_Workspace(solver, np.longdouble),
                   _Workspace(solver, np.longdouble, 1, patch)):
            groups = [len(op._groups) for op, _, _ in solver._stage_plan(ws, dt)[0]]
            assert groups == ([1, 1, 2, 1] if ws.mesh is solver.mesh else [1, 1, 1, 1])
    solver.compile(*dts)
    # 9.8e-19 in x87 extended precision
    rtol = 9 * np.finfo(np.longdouble).eps
    for dt in dts:
        got, ref = solver._linear[dt], _one_impulse_per_run(solver, dt)
        assert np.array_equal(got.offsets, ref.offsets), dt
        a, b = got.symbol, ref.symbol
        assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b)), dt


def test_a_build_working_set_does_not_grow_with_the_mesh():
    # the long-double plan runs on the same 64-element patch for 160 and
    # 1280 elements and keeps each response's window of 9 elements; a
    # build on the whole mesh peaked at 1.85 MB and 10.2 MB
    peaks = []
    for n in (160, 1280):
        solver, dts = _desk_build(n, eps=1e-6)
        tracemalloc.start()
        try:
            response, window = solver._responses(*dts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert response.shape == (5, 2, 3, 2, 9, 3) and window.tolist() == list(range(-4, 5))
    assert abs(peaks[0] - peaks[1]) <= 0.1 * min(peaks), peaks
    assert max(peaks) < 640_000, peaks


@pytest.mark.parametrize("degree", [0, 2, 4])
def test_step_reach_holds_every_kept_offset(degree):
    # on 80 elements no catalog step at these CFLs reaches around the mesh
    # (DIRK3-B5, c_1 = 4.03, reaches +-38 at CFL 5), and each kept offset of
    # a build of one impulse per run lies in its reach
    n = 80
    for name in catalog():
        for cfl in (0.1, 0.7, 2.3, 5.0):
            for eps in (1e-3, 1e-10):
                cfg = _linear_cfg(tableau=name, n=n, eps=eps, cfl=cfl, degree=degree)
                solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau,
                                              cfg.eps)
                lo, hi = _step_reach(solver, cfg.dt)
                assert hi - lo + 1 < n, (name, cfl)
                kept = _one_impulse_per_run(solver, cfg.dt).offsets
                assert set(kept.tolist()) <= set(np.arange(lo, hi + 1) % n), (name, cfl, eps)


@pytest.mark.parametrize("tableau,reach", [("DIRK3-B10", 4), ("DIRK3-B2", 3)])
def test_step_reach_is_the_kept_span_at_the_desk_settings(tableau, reach):
    # preset 5.1 at degree 2 on 160 elements, at the desk and reference CFLs
    for cfl in (0.005, 0.1, 0.2, 0.4, 0.8):
        cfg, _ = build_case("5.1", tableau, 1e-6, cfl)
        solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
        n = cfg.mesh.n_elements
        kept = (solver._linear_step(cfg.dt).offsets + reach) % n - reach
        assert _step_reach(solver, cfg.dt) == (-reach, reach)
        assert (kept.min(), kept.max()) == (-reach, reach), cfl


@pytest.mark.parametrize("n", [1, 2, 4, 16])
@pytest.mark.parametrize("degree", [0, 2, 4])
def test_jump_matches_stepping(degree, n):
    # several steps of a linear model are one product with the symbol's
    # power, also where every offset wraps; float32 values jump in float64
    # and complex ones as their real and imaginary parts
    cfg = _linear_cfg(tableau="DIRK3-B10", n=n, eps=1e-3, cfl=0.7, degree=degree)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    real = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x))
                          * (1.5 if v > 0 else 0.5)).values
    for values in (real.astype(np.float32), real, (0.8 - 0.3j) * real + 0.2j):
        stepped = values
        for _ in range(7):
            stepped = solver.step_values(stepped, cfg.dt)
        assert_close(solver.step_values(values, cfg.dt, 7), stepped, rtol=1e-13)


def test_steps_of_other_models_and_work_dtypes_go_in_turn():
    # a nonlinear model and long-double work take several steps one by one
    cfg = _linear_cfg(tableau="DIRK3-B10", n=8)
    values = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x))).values
    for model, start in ((NonlinearTwoVelocity(0.2), values),
                         (cfg.model, values.astype(np.longdouble))):
        solver = SemiLagrangianSolver(model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
        stepped = start
        for _ in range(3):
            stepped = solver.step_values(stepped, cfg.dt)
        out = solver.step_values(start, cfg.dt, 3)
        assert out.dtype == stepped.dtype and np.array_equal(out, stepped)


@pytest.mark.parametrize("steps", [0, -2, 1.0, 2.0, 1.5, True, False, np.True_])
def test_step_count_must_be_a_whole_number(steps):
    cfg = _linear_cfg(n=8)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    values = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x))).values
    with pytest.raises(ValueError, match=re.escape(f"steps must be a whole number >= 1, "
                                                   f"got {steps!r}")):
        solver.step_values(values, cfg.dt, steps)


def _same_bits(a, b):
    """Equal dtype, values and sign bits of both parts.  Long double is
    compared by value, not by bytes: its padding bytes are undefined."""
    return (a.dtype == b.dtype and np.array_equal(a, b)
            and all(np.array_equal(np.signbit(part(a)), np.signbit(part(b)))
                    for part in (np.real, np.imag)))


def _wide_blocks(rng, shape):
    """A clongdouble array of ``shape`` whose entries carry bits beyond
    float64 where long double is wider.  In a stack of square blocks each
    block has spectral radius 1, so its powers stay finite also in float64,
    and the first is diagonal with negative zeros off the diagonal, so its
    sums meet signed zeros."""
    third = np.longdouble(1) / 3
    a = (rng.standard_normal(shape) * third + 1j * rng.standard_normal(shape) * third
         ).astype(np.clongdouble)
    if len(shape) == 3 and shape[1] == shape[2]:
        a[0] = complex(-0.0, -0.0)
        np.fill_diagonal(a[0], rng.standard_normal(shape[1]) * third)
        # a real divisor on each part keeps the signs of the zeros
        radius = np.abs(np.linalg.eigvals(a.astype(complex))).max(axis=1)[:, None, None]
        a.real /= radius
        a.imag /= radius
    return a


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 40, 6399, 6400, np.int64(6400)])
def test_power_has_the_bits_of_matrix_power(n, rng):
    # the products of np.linalg.matrix_power in its association, for a
    # NumPy int count too
    a = _wide_blocks(rng, (5, 6, 6))
    if np.finfo(np.longdouble).nmant > np.finfo(float).nmant:
        assert np.any(a != a.astype(complex))
    got = _power(a, n)
    assert np.isfinite(got).all() and _same_bits(got, np.linalg.matrix_power(a, n))


def test_product_of_a_strided_real_operand_has_the_bits_of_matmul(rng):
    # the real parts of a complex stack, as a build multiplies its phases
    phases = _wide_blocks(rng, (81, 9))
    blocks = _wide_blocks(rng, (9, 36)).real
    assert not phases.real.flags.c_contiguous
    for a, b in ((phases.real, blocks), (phases.imag, blocks),
                 (_wide_blocks(rng, (4, 3, 5)), _wide_blocks(rng, (4, 5, 2)))):
        got = _product(a, b)
        assert got.flags.c_contiguous and _same_bits(got, a @ b)


def test_product_without_matvec_falls_back_to_the_same_bits(rng, monkeypatch):
    # before NumPy 2.2 there is no np.matvec, and np.matmul makes the products
    a, b = _wide_blocks(rng, (81, 6, 6)), _wide_blocks(rng, (81, 6, 6))
    expected = _product(a, b), _power(a, 40)
    monkeypatch.delattr(np, "matvec", raising=False)
    for got, want in zip((_product(a, b), _power(a, 40)), expected):
        assert got.flags.c_contiguous and _same_bits(got, want)


def test_every_kept_power_is_c_contiguous():
    cfg = _linear_cfg(tableau="DIRK3-B10", n=16, eps=1e-3, cfl=0.7)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    values = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x))).values
    for steps in (1, 2, 3, 7, 40):
        solver.step_values(values, cfg.dt, steps)
    step = solver._linear_step(cfg.dt)
    assert step.symbol.flags.c_contiguous and sorted(step.powers) == [1, 2, 3, 7, 40]
    for power in step.powers.values():
        assert power.dtype == complex and power.flags.c_contiguous


@pytest.mark.skipif(not hasattr(np, "matvec"), reason="NumPy before 2.2 has no np.matvec")
def test_a_long_jump_raises_its_power_through_the_product_alone(monkeypatch):
    # 6,400 steps: floor(log2 n) squarings and popcount(n) - 1 products of
    # them, 12 + 2, and no call of np.linalg.matrix_power
    cfg = _linear_cfg(tableau="DIRK3-B10", n=16, eps=1e-3, cfl=0.7)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    values = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x))).values
    solver.compile(cfg.dt)
    products = []
    product = sl_solver._product
    monkeypatch.setattr(sl_solver, "_product", lambda a, b: products.append(1) or product(a, b))
    monkeypatch.setattr(np.linalg, "matrix_power",
                        lambda *a: pytest.fail("a jump called np.linalg.matrix_power"))
    solver.step_values(values, cfg.dt, 6400)
    assert len(products) == 14 == (6400).bit_length() - 1 + bin(6400).count("1") - 1


@pytest.mark.parametrize("example", ["5.1", "5.2"])
@pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, np.inf])
def test_a_step_size_that_is_not_finite_and_positive_is_rejected(example, dt):
    # in float64 and in long-double work, one step or several, and for 5.1
    # also when compiled ahead; the good step size already planned stays
    cfg, f0 = build_case(example, "DIRK3-B10", 1e-6, 0.1, n_elements=16)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    message = re.escape(f"dt must be finite and positive, got {dt!r}")
    for start in (f0.values, f0.values.astype(np.longdouble)):
        good = solver.step_values(start, cfg.dt)
        for steps in (1, 3):
            with pytest.raises(ValueError, match=message):
                solver.step_values(start, dt, steps)
        assert np.array_equal(solver.step_values(start, cfg.dt), good)
    if cfg.model.linear:
        with pytest.raises(ValueError, match=message):
            solver.compile(0.5 * cfg.dt, dt)
        assert list(solver._linear) == [cfg.dt]


@pytest.mark.parametrize("t_final", [0.28125, 0.29])
def test_jumped_run_records_what_stepping_records(t_final, monkeypatch):
    # dt = 3/320: T = 0.28125 is 30 whole steps and T = 0.29 ends with a
    # shortened 31st; records every 7 steps jump from one to the next, the
    # shortened step goes alone, and the times are the sums of stepping
    cfg = _linear_cfg(tableau="DIRK3-B10", eps=1e-6, cfl=0.3, t_final=t_final)
    f0 = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x)))
    stepped = run(cfg, f0, diagnostics_every=1)
    assert stepped.steps.tolist() == list(range(stepped.n_steps + 1))
    # stepping in turn: full steps, then what is left of T
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    values = f0.values
    for _ in range(stepped.n_steps - 1):
        values = solver.step_values(values, cfg.dt)
    values = solver.step_values(values, min(cfg.dt, t_final - stepped.times[-2]))
    assert_close(stepped.final.values, values, rtol=1e-14)
    calls = []
    step_values = SemiLagrangianSolver.step_values
    monkeypatch.setattr(SemiLagrangianSolver, "step_values",
                        lambda self, v, dt, steps=1: calls.append(steps)
                        or step_values(self, v, dt, steps))
    jumped = run(cfg, f0, diagnostics_every=7)
    assert calls == ([7, 7, 7, 7, 2] if t_final == 0.28125 else [7, 7, 7, 7, 2, 1])
    picked = jumped.steps
    assert picked.tolist() == [*range(0, stepped.n_steps, 7), stepped.n_steps]
    assert np.array_equal(jumped.times, stepped.times[picked])
    assert jumped.times[-1] == t_final
    assert_close(jumped.final.values, stepped.final.values, rtol=1e-12)
    assert_close(jumped.invariants, stepped.invariants[picked], rtol=1e-12)
    assert_close(jumped.equilibrium_distance, stepped.equilibrium_distance[picked], rtol=1e-12)


def test_jumped_run_diverges_at_the_step_of_stepping():
    # preset 5.1 at degree 3 is unstable at CFL 0.8 (rho 1.48) and
    # overflows within the 2,400 steps to T = 12; the jump over the whole
    # run ends non-finite and is taken again step by step, so it names the
    # step and time that a run recording every step names
    cfg, f0 = build_case("5.1", "DIRK3-B10", 1e-10, 0.8, degree=3, t_final=12.0)
    failures = []
    for every in (1, 0):
        with pytest.raises(DivergenceError) as info:
            run(cfg, f0, diagnostics_every=every)
        failures.append((info.value.step, info.value.time, str(info.value)))
    assert failures[0] == failures[1]
    assert 1 < failures[0][0] < 2400


def test_compiled_run_stays_near_a_long_double_run_of_the_plan():
    # 2,000 steps in both regimes: the stencil is rounded once from a
    # long-double build, and its float64 run stays within 5e-13 of the
    # plan run in long double (at most 1.3e-13 measured); one jump over
    # the 2,000 steps is no further from it
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double has no more precision than float64 here")
    for eps in (1e-6, 1e-2):
        for tableau in ("DIRK3-B2", "DIRK3-B10"):
            cfg, f0 = build_case("5.1", tableau, eps, 0.1, n_elements=40)
            compiled, planned = _solvers(cfg)
            values, exact = f0.values, f0.values.astype(np.longdouble)
            for _ in range(2000):
                values = compiled.step_values(values, cfg.dt)
                exact = planned.step_values(exact, cfg.dt)
            assert_close(values.astype(np.longdouble), exact, rtol=5e-13)
            # the jump, powered in long double, stays closer still
            jumped = compiled.step_values(f0.values, cfg.dt, 2000).astype(np.longdouble)
            assert np.max(np.abs(jumped - exact)) <= np.max(np.abs(values - exact))


@pytest.mark.parametrize("tableau,unstable", [("DIRK3-B10", (1.150, 1.479)),
                                              ("DIRK3-B2", (1.181, 1.356))])
def test_symbol_gives_the_quoted_spectral_radii(tableau, unstable):
    # the solver's symbol is the step's (n_v q)^2 block per wavenumber, the
    # DFT of its impulse responses over the element offsets; preset 5.1 at
    # degree 3, 160 elements, eps 1e-10 is stable at criterion 9's CFLs and
    # not at CFL 0.7 and 0.8
    cfg, f0 = build_case("5.1", tableau, 1e-10, 0.1, degree=3)
    n_v, n, q = f0.values.shape
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    radii = []
    for cfl in (0.075, 0.15, 0.3, 0.6, 0.7, 0.8):
        dt = cfl * cfg.mesh.dx
        step = solver._linear_step(dt)
        # the symbol of wavenumbers 0 ... n // 2; the rest are their conjugates
        assert step.symbol.shape == (n // 2 + 1, n_v * q, n_v * q)
        radii.append(np.max(np.abs(np.linalg.eigvals(step.symbol.astype(complex)))))
    # response[v, j, w, d, a] is entry ((w, a), (v, j)) of the block of offset window[d]
    (response,), window = solver._responses(dt)
    blocks = np.zeros((n, n_v * q, n_v * q))
    blocks[window % n] = response.astype(float).transpose(3, 2, 4, 0, 1).reshape(
        len(window), n_v * q, n_v * q)
    assert_close(step.symbol.astype(complex), np.fft.rfft(blocks, axis=0), rtol=1e-15)
    np.testing.assert_allclose(radii[:4], 1.0, rtol=0.0, atol=1e-14)
    assert tuple(np.round(radii[4:], 3)) == unstable, radii


def _dt_weighted_step(solver, values, dt):
    """Reference stage update with the plain prediction-correction weight dt
    in place of a_kk * dt.  It is inconsistent with the stage equations
    whenever a_kk != 1; the tests below show what that costs."""
    A, c, eps, model = solver.tableau.A, solver.tableau.c, solver.eps, solver.model
    mesh, v = solver.mesh, model.velocity_set.v
    increments = []
    for k in range(solver.tableau.s):
        predicted = remap(mesh, values, v * (c[k] * dt))
        for j in range(k):
            predicted += dt * A[k, j] * remap(mesh, increments[j], v * ((c[k] - c[j]) * dt))
        M = model.equilibrium(model.moments(predicted))
        stage = (eps * predicted + dt * M) / (eps + dt)
        increments.append((M - predicted) / (eps + dt))
    return stage


def _dt_weighted_run(cfg, f0):
    """Moments at t_final of a fixed-step run with :func:`_dt_weighted_step`."""
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    values, t = f0.values, 0.0
    for _ in range(int(np.ceil(cfg.t_final / cfg.dt - 1e-12))):
        step_dt = min(cfg.dt, cfg.t_final - t)
        values = _dt_weighted_step(solver, values, step_dt)
        t += step_dt
    return DGField(mesh=cfg.mesh, values=cfg.model.moments(values))


def test_legacy_update_matches_for_unit_diagonal():
    # with a_kk = 1 (implicit Euler) both stage-update weights coincide
    cfg = _linear_cfg(tableau="BE")
    f0 = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x)))
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, 2, cfg.tableau, cfg.eps)
    assert_close(solver.step_values(f0.values, cfg.dt),
                 _dt_weighted_step(solver, f0.values, cfg.dt))


def test_legacy_update_differs_for_fractional_diagonal():
    cfg = _linear_cfg(tableau="DIRK2")
    f0 = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x)))
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, 2, cfg.tableau, cfg.eps)
    va = solver.step_values(f0.values, cfg.dt)
    vb = _dt_weighted_step(solver, f0.values, cfg.dt)
    assert np.max(np.abs(va - vb)) > 1e-6


def test_legacy_update_loses_second_order():
    # the plain prediction-correction weight is inconsistent with the stage
    # equations unless a_kk = 1: DIRK2 degrades to first order
    errs_consistent, errs_legacy = [], []
    dts = []
    ref_cfg, f0 = build_case("5.1", "DIRK2", 1e-2, 0.01, n_elements=64)
    ref = run(ref_cfg, f0, diagnostics_every=0).macro
    ref_legacy = _dt_weighted_run(ref_cfg, f0)
    for cfl in (0.2, 0.4, 0.8):
        cfg, _ = build_case("5.1", "DIRK2", 1e-2, cfl, n_elements=64)
        errs_consistent.append(l1_error(run(cfg, f0, diagnostics_every=0).macro, ref))
        errs_legacy.append(l1_error(_dt_weighted_run(cfg, f0), ref_legacy))
        dts.append(cfg.dt)
    slope_consistent = fit_slope(dts, errs_consistent)
    slope_legacy = fit_slope(dts, errs_legacy)
    assert slope_consistent > 1.7
    assert slope_legacy < 1.5


# ---------------------------------------------------------------------------
# L1 error
# ---------------------------------------------------------------------------

def test_l1_error_identical_fields():
    cfg = _linear_cfg()
    f = initial_field(cfg, lambda x, v: np.exp(np.sin(2 * np.pi * x)))
    assert l1_error(f, f) == 0.0


def test_l1_error_constant_offset():
    mesh = Mesh1D(0.0, 2.5, 17)
    x = mesh.node_coords(2)
    a = DGField(mesh=mesh, values=np.sin(x))
    b = DGField(mesh=mesh, values=np.sin(x) + 0.3)
    assert l1_error(a, b) == pytest.approx(0.3 * 2.5, abs=1e-14)


def test_l1_error_velocity_weighted():
    mesh = Mesh1D(0.0, 1.0, 9)
    a = DGField(mesh=mesh, values=np.stack([np.full((9, 2), 1.0), np.full((9, 2), 2.0)]))
    b = DGField(mesh=mesh, values=np.zeros((2, 9, 2)))
    assert l1_error(a, b, velocity_weights=[0.5, 0.25]) == pytest.approx(1.0, abs=1e-14)


def test_l1_error_against_fine_riemann_oracle():
    # a sawtooth against its mesh-aligned (exact) shift: the difference is
    # dx except on the wrap element, where it is 1 - dx, so the element
    # Gauss quadrature is exact
    mesh = Mesh1D(0.0, 1.0, 20)
    f = DGField(mesh=mesh, values=np.mod(mesh.node_coords(2), 1.0))
    g = DGField(mesh=mesh, values=remap(mesh, f.values, mesh.dx))
    quad = l1_error(f, g)
    assert quad == pytest.approx(2 * mesh.dx * (1 - mesh.dx), abs=1e-13)


def test_l1_error_shape_mismatch():
    mesh = Mesh1D(0.0, 1.0, 8)
    other = Mesh1D(0.0, 1.0, 9)
    a = DGField(mesh=mesh, values=mesh.node_coords(2))
    b = DGField(mesh=other, values=other.node_coords(2))
    with pytest.raises(ValueError):
        l1_error(a, b)
    c = DGField(mesh=mesh, values=mesh.node_coords(1))
    with pytest.raises(ValueError):
        l1_error(a, c)


# ---------------------------------------------------------------------------
# temporal order (kinetic regime)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tableau,lo,hi", [("BE", 0.7, 1.4), ("DIRK2", 1.7, 2.4)])
def test_kinetic_temporal_order(tableau, lo, hi):
    errs, dts = [], []
    ref_cfg, f0 = build_case("5.1", tableau, 1e-2, 0.001, n_elements=64)
    ref = run(ref_cfg, f0, diagnostics_every=0)
    for cfl in (0.1, 0.2, 0.4, 0.8):
        cfg, _ = build_case("5.1", tableau, 1e-2, cfl, n_elements=64)
        out = run(cfg, f0, diagnostics_every=0)
        errs.append(l1_error(out.macro, ref.macro))
        dts.append(cfg.dt)
    slope = fit_slope(dts, errs)
    assert lo <= slope <= hi, (tableau, slope, errs)


def test_fluid_limit_per_mode_orders():
    # the stiff-limit one-step map is rank one, so the induced moment
    # update per Fourier mode is its nonzero eigenvalue; comparing its
    # power against the exact transport factor isolates the asymptotic
    # temporal order with no spatial discretization at all
    T, b = 0.2, 0.6
    k = 2 * np.pi
    for name, expected in (("DIRK3-B2", 2.0), ("DIRK3-B10", 3.0)):
        t = get_tableau(name)
        errs, dts = [], []
        for n_steps in (50, 100, 200, 400):
            dt = T / n_steps
            m = amplification(t, StabilityPoint(b, k * dt, np.inf)).m
            lam = m[0, 0] + m[1, 1]
            errs.append(abs(lam ** n_steps - np.exp(-1j * k * b * T)))
            dts.append(dt)
        slope = fit_slope(dts, errs)
        assert slope == pytest.approx(expected, abs=0.15), (name, slope)


@pytest.mark.parametrize("example", ["5.2", "5.3"])
def test_diagnostics_take_moments_once_per_record(example, monkeypatch):
    cfg, f0 = build_case(example, "DIRK3-B10", 1e-6, 0.5, n_elements=8, degree=2, n_v=16)
    calls = []
    # the stages and ``moments`` alike take the moments in the moment kernel
    moment_kernel = cfg.model.moment_kernel

    def counted(f, U):
        kernel, operands = moment_kernel(f, U)
        return (lambda *a: calls.append(1) or kernel(*a), operands)
    monkeypatch.setattr(cfg.model, "moment_kernel", counted)
    result = run(cfg, f0, diagnostics_every=1)
    n, s = result.n_steps, cfg.tableau.s
    # one per stage, one per record (the initial one included), one for the macro field
    assert len(calls) == n * s + (n + 1) + 1


@pytest.mark.parametrize("example", ["5.1", "5.3"])
def test_diagnostics_history_bitwise_per_method(example):
    # the shared moments must not change one bit of the recorded history:
    # replay the run and evaluate each diagnostic on its own
    cfg, f0 = build_case(example, "DIRK3-B10", 1e-6, 0.5, n_elements=8, degree=2, n_v=16)
    result = run(cfg, f0, diagnostics_every=1)
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    values, t = f0.values.copy(), 0.0
    invariants = [solver.invariant_integrals(values)]
    distance = [solver.equilibrium_distance(values)]
    for n in range(result.n_steps):
        step_dt = min(cfg.dt, cfg.t_final - t)
        values = solver.step_values(values, step_dt)
        t += step_dt
        invariants.append(solver.invariant_integrals(values))
        distance.append(solver.equilibrium_distance(values))
    assert np.array_equal(result.invariants, np.asarray(invariants))
    assert np.array_equal(result.equilibrium_distance, np.asarray(distance))


def _allocating_gas_fit(model, U):
    """The gas equilibrium of U (3, P) and its number of Newton solves, as
    the fit computed it on fresh arrays before it was bound into the stage
    plan; kept as the bit-for-bit reference of the bound fit."""
    rho = U[0]
    u = U[1] / rho
    T = 2.0 * U[2] / rho - u * u
    theta = np.stack([np.log(rho / np.sqrt(2.0 * np.pi * T)) - u * u / (2.0 * T),
                      u / T, -0.5 / T])
    for solves in range(models.NEWTON_MAX_ITER):
        M = np.exp(np.dot(model._basis, theta))
        S = np.dot(model._wpow, M)
        res = S[:3] - U
        if np.max(np.abs(res) / U[0]) <= models.NEWTON_TOL:
            return M, solves
        J = np.stack([S[0], S[1], 2.0 * S[2], S[1], 2.0 * S[2], 2.0 * S[3],
                      S[2], S[3], S[4]], axis=-1).reshape(-1, 3, 3)
        theta -= np.linalg.solve(J, res.T[..., None])[..., 0].T
    raise AssertionError("the reference fit did not converge")


@pytest.mark.parametrize("v_max,n_v,iterates", [(15.0, 100, False), (6.0, 24, True)])
def test_equilibrium_distance_has_the_bits_of_the_allocating_fit(v_max, n_v, iterates, rng):
    # the resolved default grid needs no Newton solve; on 24 velocities
    # the analytic start misses the moments and the fit iterates
    model = BGK1D(velocity_set=VelocitySet.uniform(-v_max, v_max, n_v))
    mesh = Mesh1D(-1.0, 1.0, 7)
    solver = SemiLagrangianSolver(model, mesh, 2, get_tableau("DIRK3-B10"), 1e-6)
    shape = (7, 3)
    values = maxwellian(model.velocity_set.v, rng.uniform(0.5, 2.0, shape),
                        rng.uniform(-0.5, 0.5, shape), rng.uniform(0.5, 1.5, shape))
    values *= rng.uniform(0.8, 1.2, values.shape)
    U = model.moments(values)
    M, solves = _allocating_gas_fit(model, U.reshape(3, -1))
    assert (solves > 0) == iterates
    # Mesh1D.integrate and the velocity sum as they were, by tensordot
    _, weights = gauss_nodes(2)
    per_v = mesh.dx * np.tensordot(np.abs(M.reshape(values.shape) - values), weights,
                                   axes=(-1, 0)).sum(axis=-1)
    expected = float(np.dot(model.velocity_set.w, per_v))
    assert solver.equilibrium_distance(values) == expected
    assert solver.equilibrium_distance(values, U) == expected
    assert np.array_equal(model.equilibrium(U).reshape(n_v, -1), M)


@pytest.mark.parametrize("degree", [-1, 5, 2.5])
def test_sim_config_rejects_unsupported_degree(degree):
    with pytest.raises(ValueError, match="degree"):
        _linear_cfg(degree=degree)


@pytest.mark.parametrize("degree", [0, 4])
def test_sim_config_accepts_degree_range_ends(degree):
    assert _linear_cfg(degree=degree).degree == degree


@pytest.mark.parametrize("example", ["5.1", "5.2"])
def test_complex_run_records_the_real_distances(example):
    # the distance of complex values is real: a complex run must not raise
    # ComplexWarning, and with a zero imaginary part it reads the real run's
    cfg, f0 = build_case(example, "DIRK3-B10", 1e-2, 0.5, n_elements=16, t_final=0.02)
    real = run(cfg, f0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cplx = run(cfg, DGField(mesh=f0.mesh, values=f0.values.astype(complex)))
    assert cplx.equilibrium_distance.dtype == float
    np.testing.assert_allclose(cplx.equilibrium_distance, real.equilibrium_distance,
                               rtol=1e-12, atol=0.0)
