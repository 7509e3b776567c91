"""Convergence studies: run the solver over (tableau, eps, CFL) sweeps.

Three benchmark setups are built in (``PRESETS``), selectable by id or
model name:

* ``5.1`` / ``linear``    -- linear two-velocity model, smooth periodic
  wave exp(sin 2 pi x) started at equilibrium;
* ``5.2`` / ``nonlinear`` -- quadratic-flux two-velocity model,
  u0 = exp(sin 2 pi x) / 2 started at equilibrium;
* ``5.3`` / ``bgk``       -- 1D1V gas with uniform density/temperature and
  a two-bump velocity perturbation.

Errors are L1 distances at the final time against a reference computed by
the same scheme on the same mesh with a much smaller CFL.  The reference
cancels only the dt-independent part of the spatial error: the remap error
also depends on how many projections a run performs, so a run and its
reference differ by a spatial floor that falls with dt far more slowly
than a third-order temporal error (it shrinks with the mesh width and the
degree instead).  The fitted log-log slope is the temporal order only
where that floor is small against the temporal error.  Sweep combinations
are independent jobs; a process pool may run them concurrently and the
output rows are assembled in configuration order, so results are
deterministic regardless of worker count.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .butcher import resolve_tableau
from .dg import DGField, Mesh1D
from .models import (BGK1D, N_V, V_MAX, LinearTwoVelocity, NonlinearTwoVelocity,
                     SimulationError, VelocitySet, maxwellian)
from .sl_solver import (RunResult, SemiLagrangianSolver, SimConfig, _require_positive,
                        l1_error, run)

#: the default mesh of a run: its elements, its elements at paper scale
#: (the CLI's ``--paper-scale``) and the polynomial degree per element
N_ELEMENTS = 160
PAPER_N_ELEMENTS = 640
DEGREE = 2


@dataclass(frozen=True)
class Preset:
    """One benchmark setup.  ``amplitude`` scales the initial data: it is
    the factor on exp(sin 2 pi x) of a two-velocity preset and the uniform
    density of the gas preset.  ``model`` names the preset as well as its
    id does.  ``desk_cfls`` and ``paper_cfls`` are the CLI's default sweep
    CFLs without and with ``--paper-scale``."""
    model: str
    b: float | None
    amplitude: float
    domain: tuple[float, float]
    t_final: float
    ref_cfl: float
    desk_cfls: tuple[float, ...]
    paper_cfls: tuple[float, ...]


#: the benchmark presets by id
PRESETS = {
    "5.1": Preset("linear", 0.6, 1.0, (0.0, 1.0), 0.2, 0.001,
                  (0.1, 0.2, 0.4, 0.8), (0.1, 0.2, 0.4, 0.8)),
    "5.2": Preset("nonlinear", 0.2, 0.5, (0.0, 1.0), 0.2, 0.001,
                  (0.1, 0.2, 0.4, 0.8), (0.1, 0.2, 0.4, 0.8)),
    "5.3": Preset("bgk", None, 1.0, (-1.0, 1.0), 0.04, 0.01,
                  (0.5, 1.0, 2.0, 4.0), (1.0, 2.0, 4.0)),
}


def normalize_example(example: str) -> str:
    """The preset id for a preset id or its model name."""
    names = {name: ex for ex, preset in PRESETS.items() for name in (ex, preset.model)}
    try:
        return names[str(example)]
    except KeyError:
        raise ValueError(f"unknown example {example!r}; "
                         f"choose from {sorted(names)}") from None


def bump_velocity_profile(x):
    """Small two-bump mean-velocity perturbation for the gas benchmark."""
    return 0.1 * (np.exp(-((10.0 * x - 1.0) ** 2)) - 2.0 * np.exp(-((10.0 * x + 3.0) ** 2)))


@dataclass(frozen=True)
class ConvergenceStudy:
    """One sweep definition; all fields are plain data (picklable)."""
    example: str
    tableaus: tuple[str, ...]
    eps_values: tuple[float, ...]
    cfl_values: tuple[float, ...]
    ref_cfl: float | None = None
    n_elements: int = N_ELEMENTS
    degree: int = DEGREE
    n_v: int = N_V
    v_max: float = V_MAX
    t_final: float | None = None
    error_on: str = "U"
    jobs: int = 1

    def resolved(self) -> "ConvergenceStudy":
        ex = normalize_example(self.example)
        preset = PRESETS[ex]
        out = replace(self, example=ex,
                      tableaus=tuple(self.tableaus),
                      eps_values=tuple(float(e) for e in self.eps_values),
                      cfl_values=tuple(float(c) for c in self.cfl_values),
                      ref_cfl=preset.ref_cfl if self.ref_cfl is None else float(self.ref_cfl),
                      t_final=preset.t_final if self.t_final is None else float(self.t_final))
        if not out.tableaus or not out.eps_values:
            raise ValueError("a sweep needs at least one tableau and one eps value")
        for cfl in out.cfl_values:
            _require_positive("cfl", cfl)
        if len(set(out.cfl_values)) < 3:
            raise ValueError(f"slope fitting needs at least 3 CFL values that differ, "
                             f"got {out.cfl_values}")
        for what, items in (("tableau", out.tableaus), ("eps", out.eps_values),
                            ("CFL", out.cfl_values)):
            if len(set(items)) < len(items):
                raise ValueError(f"each {what} may be given once in a sweep, got {items}")
        if not out.ref_cfl > 0.0:
            raise ValueError(f"reference CFL {out.ref_cfl} must be positive")
        if out.ref_cfl >= min(out.cfl_values):
            raise ValueError(f"reference CFL {out.ref_cfl} must be strictly smaller "
                             f"than every tested CFL {out.cfl_values}")
        if out.error_on not in ("U", "f"):
            raise ValueError(f"error_on must be 'U' or 'f', got {out.error_on!r}")
        if not (isinstance(out.jobs, numbers.Integral) and out.jobs >= 1):
            raise ValueError(f"jobs must be an integer >= 1, got {out.jobs!r}")
        return out


def build_case(example: str, tableau_name: str, eps: float, cfl: float,
               n_elements: int = N_ELEMENTS, degree: int = DEGREE, n_v: int = N_V,
               v_max: float = V_MAX, t_final: float | None = None,
               b: float | None = None) -> tuple[SimConfig, DGField]:
    """Materialize (config, initial field) for one benchmark run.

    ``b`` replaces the coupling of a two-velocity preset, which then starts
    at the equilibrium of its own u0 under that coupling.
    """
    ex = normalize_example(example)
    preset = PRESETS[ex]
    if preset.model == "bgk":
        if b is not None:
            raise ValueError(f"coupling b = {b} applies to the two-velocity presets only, "
                             f"not to preset {ex}")
        model = BGK1D(VelocitySet.uniform(-v_max, v_max, n_v))
    else:
        two_velocity = LinearTwoVelocity if preset.model == "linear" else NonlinearTwoVelocity
        model = two_velocity(preset.b if b is None else b)
    mesh = Mesh1D(x_lo=preset.domain[0], x_hi=preset.domain[1], n_elements=n_elements)
    cfg = SimConfig(model=model, tableau=resolve_tableau(tableau_name), mesh=mesh,
                    degree=degree, cfl=cfl, eps=eps,
                    t_final=preset.t_final if t_final is None else t_final)
    coords = mesh.node_coords(degree)
    if preset.model == "bgk":
        values = maxwellian(model.velocity_set.v, preset.amplitude,
                            bump_velocity_profile(coords), 1.0)
    else:
        u0 = preset.amplitude * np.exp(np.sin(2.0 * np.pi * coords))
        values = model.equilibrium(u0[None])
    return cfg, DGField(mesh=mesh, values=values)


def _case_error(result: RunResult, reference: RunResult, error_on: str) -> float:
    if error_on == "f":
        w = result.config.model.velocity_set.w
        return l1_error(result.final, reference.final, velocity_weights=w)
    return l1_error(result.macro, reference.macro)


@dataclass(frozen=True)
class ConvergenceRow:
    example: str
    tableau: str
    eps: float
    cfl: float
    dt: float
    error: float


@dataclass(frozen=True)
class StudyResult:
    study: ConvergenceStudy
    rows: tuple[ConvergenceRow, ...]
    slopes: dict[tuple[str, float], float] = field(default_factory=dict)

    def slope(self, tableau: str, eps: float) -> float:
        return self.slopes[(tableau, float(eps))]


def fit_slope(dts, errors) -> float:
    """Least-squares slope of log(error) vs log(dt), skipping bad rows; NaN
    unless the rows kept have at least two distinct step sizes."""
    dts = np.asarray(dts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = np.isfinite(errors) & (errors > 0.0)
    if len(set(dts[keep].tolist())) < 2:
        return math.nan
    coeffs = np.polyfit(np.log(dts[keep]), np.log(errors[keep]), 1)
    return float(coeffs[0])


def _sweep_job(study: ConvergenceStudy, tableau_name: str, eps: float,
               cfg_ref: SimConfig, f0: DGField):
    """Reference run of the case (cfg_ref, f0) plus all CFL runs for one
    (tableau, eps) pair, all on one solver; a linear model's steps of
    every run are compiled up front, in one call.  A run that fails gives
    a NaN row, a failed reference NaN rows throughout."""
    configs = [replace(cfg_ref, cfl=cfl) for cfl in study.cfl_values]
    # a dt past T runs one step of size T
    step_sizes = [min(cfg.dt, cfg.t_final) for cfg in configs]
    solver = SemiLagrangianSolver(cfg_ref.model, cfg_ref.mesh, cfg_ref.degree, cfg_ref.tableau,
                                  cfg_ref.eps)
    if cfg_ref.model.linear:
        solver.compile(min(cfg_ref.dt, cfg_ref.t_final), *step_sizes)
    try:
        reference = run(cfg_ref, f0, diagnostics_every=0, solver=solver)
    except SimulationError:
        reference = None
    rows = []
    for cfg, dt in zip(configs, step_sizes):
        err = math.nan
        if reference is not None:
            try:
                err = _case_error(run(cfg, f0, diagnostics_every=0, solver=solver), reference,
                                  study.error_on)
            except SimulationError:
                pass
        rows.append(ConvergenceRow(example=study.example, tableau=tableau_name,
                                   eps=eps, cfl=cfg.cfl, dt=dt, error=err))
    slope = fit_slope([r.dt for r in rows], [r.error for r in rows])
    return rows, slope


def run_convergence(study: ConvergenceStudy) -> StudyResult:
    """Execute the full sweep, one worker job per (tableau, eps) pair."""
    study = study.resolved()
    combos = [(tab, eps) for tab in study.tableaus for eps in study.eps_values]
    # every case is built before the first run, so a bad tableau, eps or
    # degree fails the sweep before any work is spent on it
    jobs = [(study, tab, eps, *build_case(study.example, tab, eps, study.ref_cfl,
                                          study.n_elements, study.degree, study.n_v,
                                          study.v_max, study.t_final))
            for tab, eps in combos]
    if study.jobs > 1 and len(combos) > 1:
        with ProcessPoolExecutor(max_workers=min(study.jobs, len(combos))) as pool:
            results = list(pool.map(_sweep_job, *zip(*jobs)))
    else:
        results = [_sweep_job(*job) for job in jobs]
    rows = [row for job_rows, _ in results for row in job_rows]
    slopes = {combo: slope for combo, (_, slope) in zip(combos, results)}
    return StudyResult(study=study, rows=tuple(rows), slopes=slopes)


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # plain-float repr even for numpy scalars
    return str(value)


def rows_to_csv(rows, header) -> str:
    """Deterministic CSV text: repr() floats, \\n line endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def study_csv(result: StudyResult) -> str:
    header = ("example", "tableau", "eps", "cfl", "dt", "error")
    rows = [(r.example, r.tableau, r.eps, r.cfl, r.dt, r.error) for r in result.rows]
    return rows_to_csv(rows, header)


def slopes_csv(result: StudyResult) -> str:
    header = ("example", "tableau", "eps", "slope")
    rows = [(result.study.example, tab, eps, slope)
            for (tab, eps), slope in result.slopes.items()]
    return rows_to_csv(rows, header)
