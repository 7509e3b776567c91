"""Convergence studies: run the solver over (tableau, eps, CFL) sweeps.

Three benchmark setups are built in, selectable by preset id:

* ``5.1`` / ``linear``    -- linear two-velocity model, b = 0.6, smooth
  periodic wave exp(sin 2 pi x) started at equilibrium, T = 0.2;
* ``5.2`` / ``nonlinear`` -- quadratic-flux two-velocity model, b = 0.2,
  u0 = exp(sin 2 pi x) / 2 started at equilibrium, T = 0.2;
* ``5.3`` / ``bgk``       -- 1D1V gas with uniform density/temperature and
  a two-bump velocity perturbation, T = 0.04.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .butcher import resolve_tableau
from .dg import DGField, Mesh1D
from .models import UnphysicalStateError, VelocitySet, make_model, maxwellian
from .sl_solver import DivergenceError, RunResult, SimConfig, l1_error, run

EXAMPLE_ALIASES = {
    "5.1": "5.1", "linear": "5.1",
    "5.2": "5.2", "nonlinear": "5.2",
    "5.3": "5.3", "bgk": "5.3",
}

#: per-example defaults: (model name, b, domain, t_final, reference cfl)
_EXAMPLE_DEFAULTS = {
    "5.1": ("linear", 0.6, (0.0, 1.0), 0.2, 0.001),
    "5.2": ("nonlinear", 0.2, (0.0, 1.0), 0.2, 0.001),
    "5.3": ("bgk", None, (-1.0, 1.0), 0.04, 0.01),
}


def normalize_example(example: str) -> str:
    try:
        return EXAMPLE_ALIASES[str(example)]
    except KeyError:
        raise ValueError(f"unknown example {example!r}; "
                         f"choose from {sorted(set(EXAMPLE_ALIASES))}") from None


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
    n_elements: int = 160
    degree: int = 2
    n_v: int = 100
    v_max: float = 15.0
    t_final: float | None = None
    error_on: str = "U"
    legacy_update: bool = False
    jobs: int = 1

    def resolved(self) -> "ConvergenceStudy":
        ex = normalize_example(self.example)
        _, _, _, t_default, ref_default = _EXAMPLE_DEFAULTS[ex]
        out = replace(self, example=ex,
                      tableaus=tuple(self.tableaus),
                      eps_values=tuple(float(e) for e in self.eps_values),
                      cfl_values=tuple(float(c) for c in self.cfl_values),
                      ref_cfl=ref_default if self.ref_cfl is None else float(self.ref_cfl),
                      t_final=t_default if self.t_final is None else float(self.t_final))
        if len(out.cfl_values) < 3:
            raise ValueError("slope fitting needs at least 3 CFL values")
        if out.ref_cfl >= min(out.cfl_values):
            raise ValueError(f"reference CFL {out.ref_cfl} must be strictly smaller "
                             f"than every tested CFL {out.cfl_values}")
        if out.error_on not in ("U", "f"):
            raise ValueError(f"error_on must be 'U' or 'f', got {out.error_on!r}")
        return out


def build_case(example: str, tableau_name: str, eps: float, cfl: float,
               n_elements: int = 160, degree: int = 2, n_v: int = 100,
               v_max: float = 15.0, t_final: float | None = None,
               legacy_update: bool = False) -> tuple[SimConfig, DGField]:
    """Materialize (config, initial field) for one benchmark run."""
    ex = normalize_example(example)
    model_name, b, domain, t_default, _ = _EXAMPLE_DEFAULTS[ex]
    if model_name == "bgk":
        model = make_model("bgk", velocity_set=VelocitySet.uniform(-v_max, v_max, n_v))
    else:
        model = make_model(model_name, b=b)
    mesh = Mesh1D(x_lo=domain[0], x_hi=domain[1], n_elements=n_elements)
    cfg = SimConfig(model=model, tableau=resolve_tableau(tableau_name), mesh=mesh,
                    degree=degree, cfl=cfl, eps=eps,
                    t_final=t_default if t_final is None else t_final,
                    legacy_update=legacy_update)
    coords = mesh.node_coords(degree)
    if ex == "5.1":
        u0 = np.exp(np.sin(2.0 * np.pi * coords))
        values = model.equilibrium(u0[None])
    elif ex == "5.2":
        u0 = 0.5 * np.exp(np.sin(2.0 * np.pi * coords))
        values = model.equilibrium(u0[None])
    else:
        values = maxwellian(model.velocity_set.v, 1.0, bump_velocity_profile(coords), 1.0)
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
    """Least-squares slope of log(error) vs log(dt), skipping bad rows."""
    dts = np.asarray(dts, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = np.isfinite(errors) & (errors > 0.0)
    if keep.sum() < 2:
        return math.nan
    coeffs = np.polyfit(np.log(dts[keep]), np.log(errors[keep]), 1)
    return float(coeffs[0])


def _sweep_job(study: ConvergenceStudy, tableau_name: str, eps: float):
    """Reference run plus all CFL runs for one (tableau, eps) pair."""
    cfg_ref, f0 = build_case(study.example, tableau_name, eps, study.ref_cfl,
                             study.n_elements, study.degree, study.n_v,
                             study.v_max, study.t_final, study.legacy_update)
    reference = run(cfg_ref, f0, diagnostics_every=0)
    rows = []
    for cfl in study.cfl_values:
        cfg = replace(cfg_ref, cfl=cfl)
        try:
            result = run(cfg, f0, diagnostics_every=0)
            err = _case_error(result, reference, study.error_on)
        except (DivergenceError, UnphysicalStateError):
            err = math.nan
        rows.append(ConvergenceRow(example=study.example, tableau=tableau_name,
                                   eps=eps, cfl=cfl, dt=cfg.dt, error=err))
    slope = fit_slope([r.dt for r in rows], [r.error for r in rows])
    return rows, slope


def run_convergence(study: ConvergenceStudy) -> StudyResult:
    """Execute the full sweep, one worker job per (tableau, eps) pair."""
    study = study.resolved()
    combos = [(tab, eps) for tab in study.tableaus for eps in study.eps_values]
    results: dict[tuple[str, float], tuple[list[ConvergenceRow], float]] = {}
    if study.jobs > 1 and len(combos) > 1:
        with ProcessPoolExecutor(max_workers=min(study.jobs, len(combos))) as pool:
            futures = {combo: pool.submit(_sweep_job, study, *combo) for combo in combos}
            for combo, fut in futures.items():
                results[combo] = fut.result()
    else:
        for combo in combos:
            results[combo] = _sweep_job(study, *combo)
    rows: list[ConvergenceRow] = []
    slopes: dict[tuple[str, float], float] = {}
    for combo in combos:
        job_rows, slope = results[combo]
        rows.extend(job_rows)
        slopes[combo] = slope
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
