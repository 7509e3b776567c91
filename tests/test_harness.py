import math
import re
from dataclasses import replace

import numpy as np
import pytest

from sldirk import harness, models
from sldirk.harness import (ConvergenceStudy, build_case, fit_slope,
                            normalize_example, rows_to_csv, run_convergence,
                            slopes_csv, study_csv)
from sldirk.models import DivergenceError, SimulationError, UnphysicalStateError
from sldirk.sl_solver import l1_error


def test_normalize_example_aliases():
    assert normalize_example("linear") == "5.1"
    assert normalize_example("5.2") == "5.2"
    assert normalize_example("bgk") == "5.3"
    with pytest.raises(ValueError):
        normalize_example("7.1")


def test_fit_slope_recovers_synthetic_exponent():
    dts = np.array([1e-3, 2e-3, 4e-3, 8e-3])
    for q in (1.0, 2.0, 2.7, 3.0):
        errors = 3.7 * dts ** q
        assert fit_slope(dts, errors) == pytest.approx(q, abs=1e-8)


def test_fit_slope_skips_nan_rows():
    dts = [1e-3, 2e-3, 4e-3, 8e-3]
    errors = [1e-6, 4e-6, math.nan, 6.4e-5]
    assert fit_slope(dts, errors) == pytest.approx(2.0, abs=1e-8)
    assert math.isnan(fit_slope(dts, [math.nan] * 4))


def test_fit_slope_needs_two_distinct_step_sizes():
    assert math.isnan(fit_slope([1e-3] * 3, [1e-6, 2e-6, 3e-6]))
    assert math.isnan(fit_slope([1e-3, 1e-3, 2e-3], [1e-6, 2e-6, math.nan]))


def test_sweep_past_t_final_records_the_step_taken_and_no_slope():
    # every dt (0.025 to 0.1) is past T = 0.01, so each run is one step of
    # size T with the same error, and there is no slope to fit
    study = ConvergenceStudy(example="5.1", tableaus=("BE",), eps_values=(1e-2,),
                             cfl_values=(0.2, 0.4, 0.8), n_elements=8, t_final=0.01)
    result = run_convergence(study)
    assert [row.dt for row in result.rows] == [0.01] * 3
    assert len({row.error for row in result.rows}) == 1
    assert math.isnan(result.slope("BE", 1e-2))


def test_build_case_two_velocity_well_prepared():
    for example in ("5.1", "5.2"):
        cfg, f0 = build_case(example, "DIRK2", 1e-2, 0.5, n_elements=16)
        eq = cfg.model.equilibrium(cfg.model.moments(f0.values))
        np.testing.assert_allclose(f0.values, eq, atol=1e-14)
        # a custom coupling starts at its own equilibrium of the same u0
        cfg_b, f0_b = build_case(example, "DIRK2", 1e-2, 0.5, n_elements=16, b=0.3)
        assert cfg_b.model.b == 0.3 and cfg.model.b != 0.3
        u0 = cfg.model.moments(f0.values)
        np.testing.assert_allclose(cfg_b.model.moments(f0_b.values), u0, rtol=1e-15)
        np.testing.assert_allclose(f0_b.values, cfg_b.model.equilibrium(u0), rtol=1e-15)


def test_build_case_rejects_coupling_for_gas_preset():
    with pytest.raises(ValueError, match="coupling b"):
        build_case("bgk", "DIRK2", 1e-2, 0.5, n_elements=16, n_v=20, b=0.3)


@pytest.mark.parametrize("example, tableau, message", [
    ("5.1", "DIRK9", "'DIRK9' is neither a catalog tableau"),
    ("7.1", "DIRK2", "unknown example '7.1'"),
])
def test_build_case_rejects_unknown_names(example, tableau, message):
    with pytest.raises(ValueError, match=message):
        build_case(example, tableau, 1e-2, 0.5, n_elements=16)


def test_build_case_bgk_profile():
    cfg, f0 = build_case("5.3", "DIRK3-B10", 1e-2, 1.0, n_elements=16, n_v=40)
    assert f0.values.shape == (40, 16, 3)
    U = cfg.model.moments(f0.values)
    np.testing.assert_allclose(U[0], 1.0, atol=1e-10)       # uniform density
    assert cfg.mesh.x_lo == -1.0 and cfg.mesh.x_hi == 1.0
    assert cfg.t_final == 0.04
    # dt uses the maximum transport speed of the velocity grid
    assert cfg.dt == pytest.approx(1.0 * cfg.mesh.dx / 15.0)


def test_study_validation():
    base = dict(example="5.1", tableaus=("BE",), eps_values=(1e-2,))
    with pytest.raises(ValueError, match="at least 3"):
        ConvergenceStudy(cfl_values=(0.4, 0.8), **base).resolved()
    with pytest.raises(ValueError, match="at least 3"):
        ConvergenceStudy(cfl_values=(0.1, 0.1, 0.1), **base).resolved()
    with pytest.raises(ValueError, match="must be positive"):
        ConvergenceStudy(cfl_values=(0.1, 0.2, 0.4), ref_cfl=-0.01, **base).resolved()
    with pytest.raises(ValueError, match="must be positive"):
        ConvergenceStudy(cfl_values=(0.1, 0.2, 0.4), ref_cfl=0.0, **base).resolved()
    for empty in ({"tableaus": ()}, {"eps_values": ()}):
        with pytest.raises(ValueError, match="at least one tableau"):
            ConvergenceStudy(cfl_values=(0.1, 0.2, 0.4), **{**base, **empty}).resolved()
    with pytest.raises(ValueError, match="strictly smaller"):
        ConvergenceStudy(cfl_values=(0.1, 0.2, 0.4), ref_cfl=0.1, **base).resolved()
    with pytest.raises(ValueError, match="error_on"):
        ConvergenceStudy(cfl_values=(0.1, 0.2, 0.4), error_on="rho", **base).resolved()
    resolved = ConvergenceStudy(cfl_values=(0.1, 0.2, 0.4), **base).resolved()
    assert resolved.ref_cfl == 0.001
    assert resolved.t_final == 0.2
    bgk = ConvergenceStudy(example="bgk", tableaus=("BE",), eps_values=(1e-2,),
                           cfl_values=(1.0, 2.0, 4.0)).resolved()
    assert bgk.ref_cfl == 0.01


@pytest.mark.parametrize("jobs", [0, -2, 1.5, "2", 2.0, True, False, np.True_])
def test_study_rejects_jobs_below_one(jobs):
    study = ConvergenceStudy(example="5.1", tableaus=("BE",), eps_values=(1e-2,),
                             cfl_values=(0.1, 0.2, 0.4), jobs=jobs)
    with pytest.raises(ValueError, match=re.escape(f"jobs must be a whole number >= 1, "
                                                   f"got {jobs!r}")):
        study.resolved()
    assert replace(study, jobs=3).resolved().jobs == 3
    assert replace(study, jobs=np.int64(3)).resolved().jobs == 3


def _small_study(**kw):
    base = dict(example="5.1", tableaus=("BE",), eps_values=(1e-2,),
                cfl_values=(0.2, 0.4, 0.8), ref_cfl=0.02, n_elements=24,
                t_final=0.05)
    base.update(kw)
    return ConvergenceStudy(**base)


def test_run_convergence_smoke_first_order():
    result = run_convergence(_small_study())
    assert len(result.rows) == 3
    slope = result.slope("BE", 1e-2)
    assert 0.6 <= slope <= 1.4
    errs = [r.error for r in result.rows]
    assert errs == sorted(errs)  # larger CFL, larger error


def test_run_convergence_rows_in_configuration_order():
    study = _small_study(tableaus=("DIRK2", "BE"), eps_values=(1e-1, 1e-2))
    result = run_convergence(study)
    combos = [(r.tableau, r.eps, r.cfl) for r in result.rows]
    expected = [(tab, eps, cfl) for tab in ("DIRK2", "BE")
                for eps in (1e-1, 1e-2) for cfl in (0.2, 0.4, 0.8)]
    assert combos == expected


def test_run_convergence_parallel_matches_serial():
    study = _small_study(tableaus=("BE", "DIRK2"))
    serial = run_convergence(study)
    parallel = run_convergence(_small_study(tableaus=("BE", "DIRK2"), jobs=2))
    assert study_csv(serial) == study_csv(parallel)
    assert slopes_csv(serial) == slopes_csv(parallel)


def test_run_convergence_error_on_distribution():
    on_u = run_convergence(_small_study())
    on_f = run_convergence(_small_study(error_on="f"))
    # for the linear model both metrics see the same convergence order
    assert on_f.slope("BE", 1e-2) == pytest.approx(on_u.slope("BE", 1e-2), abs=0.3)
    assert all(np.isfinite(r.error) for r in on_f.rows)


def test_diverged_runs_recorded_as_nan_rows():
    # this tableau is unstable on the quadratic-flux model in the stiff
    # regime at these settings; the sweep must record NaN rows and finish
    study = ConvergenceStudy(example="5.2", tableaus=("DIRK3-B5",),
                             eps_values=(1e-6,), cfl_values=(0.25, 0.5, 1.0),
                             ref_cfl=0.02, n_elements=32, t_final=1.0)
    result = run_convergence(study)
    assert len(result.rows) == 3
    assert all(math.isnan(r.error) for r in result.rows)
    assert math.isnan(result.slope("DIRK3-B5", 1e-6))
    text = study_csv(result)
    assert "nan" in text


def test_unphysical_run_recorded_as_nan_row(monkeypatch):
    # one CFL run fails, by leaving the physical region or by any other
    # SimulationError; the sweep records a NaN row for it and still fits
    # the slope through the other runs
    real_run = harness.run
    for error in (UnphysicalStateError("moments left the physical region"),
                  SimulationError("solver gave up")):
        def run_or_fail(cfg, initial, diagnostics_every=1, **kwargs):
            if cfg.cfl == 0.4:
                raise error
            return real_run(cfg, initial, diagnostics_every=diagnostics_every, **kwargs)

        monkeypatch.setattr(harness, "run", run_or_fail)
        result = run_convergence(_small_study())
        errors = {r.cfl: r.error for r in result.rows}
        assert list(errors) == [0.2, 0.4, 0.8]
        assert math.isnan(errors[0.4])
        assert np.isfinite(errors[0.2]) and np.isfinite(errors[0.8])
        assert np.isfinite(result.slope("BE", 1e-2))


def test_failed_reference_run_gives_nan_rows(monkeypatch):
    # the reference run of one (tableau, eps) pair fails: its rows and slope
    # are NaN and the other pair still finishes
    real_run = harness.run

    def run_or_fail(cfg, initial, diagnostics_every=1, **kwargs):
        if cfg.tableau.name == "DIRK2" and cfg.cfl == 0.02:
            raise DivergenceError("non-finite values after step 3", step=3)
        return real_run(cfg, initial, diagnostics_every=diagnostics_every, **kwargs)

    monkeypatch.setattr(harness, "run", run_or_fail)
    result = run_convergence(_small_study(tableaus=("DIRK2", "BE")))
    assert [r.tableau for r in result.rows] == ["DIRK2"] * 3 + ["BE"] * 3
    assert all(math.isnan(r.error) for r in result.rows[:3])
    assert all(np.isfinite(r.error) for r in result.rows[3:])
    assert math.isnan(result.slope("DIRK2", 1e-2))
    assert np.isfinite(result.slope("BE", 1e-2))


def test_newton_non_convergence_recorded_as_nan_row(monkeypatch):
    # the discrete Maxwellian fit of the CFL-0.4 run gets no iterations
    real_run = harness.run

    def run_starved(cfg, initial, diagnostics_every=1, **kwargs):
        if cfg.cfl != 0.4:
            return real_run(cfg, initial, diagnostics_every=diagnostics_every, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(models, "NEWTON_MAX_ITER", 0)
            return real_run(cfg, initial, diagnostics_every=diagnostics_every, **kwargs)

    monkeypatch.setattr(harness, "run", run_starved)
    study = ConvergenceStudy(example="5.3", tableaus=("BE",), eps_values=(1e-2,),
                             cfl_values=(0.2, 0.4, 0.8), ref_cfl=0.1, n_elements=8,
                             degree=1, n_v=24, v_max=6.0, t_final=0.01)
    errors = {r.cfl: r.error for r in run_convergence(study).rows}
    assert math.isnan(errors[0.4])
    assert np.isfinite(errors[0.2]) and np.isfinite(errors[0.8])


def test_csv_formatting_deterministic():
    rows = [("5.1", "BE", 0.01, 0.2, 0.000125, 1.5e-7)]
    text = rows_to_csv(rows, ("example", "tableau", "eps", "cfl", "dt", "error"))
    assert text == ("example,tableau,eps,cfl,dt,error\n"
                    "5.1,BE,0.01,0.2,0.000125,1.5e-07\n")


def test_study_csv_contains_all_rows():
    result = run_convergence(_small_study())
    text = study_csv(result)
    lines = text.strip().split("\n")
    assert lines[0] == "example,tableau,eps,cfl,dt,error"
    assert len(lines) == 4
    s_text = slopes_csv(result)
    assert s_text.startswith("example,tableau,eps,slope\n")
