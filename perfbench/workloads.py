"""The three benchmark workloads: inputs from a seed, one timed job, checks.

Each workload object is built from a freshly imported ``sldirk`` package and
a seed (``None`` gives the unrotated, unpermuted inputs the stored reference
was made from).  ``run()`` is the timed job; it looks every program function
up through its module at call time, so the tracer's wrappers are seen.
``summary(output)`` maps the job output back to seed-independent numbers,
which ``check`` compares against ``reference.json``.
"""

from __future__ import annotations

import random

import numpy as np

#: tableau, eps, elements and degree shared by the two solver workloads
TABLEAU = "DIRK3-B10"
EPS = 1e-6
N_ELEMENTS = 160
DEGREE = 2

#: relative conservation drift allowed over a bgk-simulate run
DRIFT_TOL = 1e-10


def rotate_elements(values: np.ndarray, shift: int) -> np.ndarray:
    """Roll nodal values (..., n_el, q) by ``shift`` whole elements.

    On the uniform periodic mesh the remap, the models and the stepper are
    exactly equivariant under this rotation, so rotating a run's output
    back by ``-shift`` recovers the unrotated run up to reordered sums.
    """
    return np.roll(values, shift, axis=-2)


def _element_shift(seed) -> int:
    return 0 if seed is None else random.Random(seed).randrange(N_ELEMENTS)


class BgkSimulate:
    """Preset 5.3 (BGK), one full run with diagnostics on every step."""

    name = "bgk-simulate"
    #: (rtol, atol) per summary key; atol is against O(1) moments
    tolerance = {"macro": (1e-9, 1e-12)}

    def __init__(self, pkg, seed):
        self.pkg = pkg
        self.shift = _element_shift(seed)
        self.cfg, f0 = pkg.harness.build_case("5.3", TABLEAU, EPS, 0.1, n_elements=N_ELEMENTS,
                                              degree=DEGREE, n_v=100, t_final=0.04)
        self.initial = pkg.dg.DGField(mesh=f0.mesh, values=rotate_elements(f0.values, self.shift))
        self.steps = None

    def run(self):
        result = self.pkg.sl_solver.run(self.cfg, self.initial, diagnostics_every=1)
        self.steps = result.n_steps
        return result

    def summary(self, result) -> dict:
        return {"macro": rotate_elements(result.macro.values, -self.shift)}

    def extra_problems(self, result) -> list[str]:
        inv = result.invariants
        drift = np.max(np.abs(inv - inv[0]) / np.maximum(np.abs(inv[0]), 1e-300))
        if not drift <= DRIFT_TOL:
            return [f"relative conservation drift {drift:.3e} exceeds {DRIFT_TOL:g}"]
        return []


class LinearSweep:
    """Convergence study on preset 5.1 for two tableaus, diagnostics off."""

    name = "linear-sweep"
    #: reference CFL above the acceptance value 0.001 so a sweep takes seconds
    REF_CFL = 0.005
    tolerance = {"errors": (1e-6, 1e-11), "slopes": (1e-6, 0.0)}

    def __init__(self, pkg, seed):
        self.pkg = pkg
        self.shift = _element_shift(seed)
        harness = pkg.harness
        self.study = harness.ConvergenceStudy(
            example="5.1", tableaus=("DIRK3-B2", TABLEAU), eps_values=(EPS,),
            cfl_values=(0.1, 0.2, 0.4, 0.8), ref_cfl=self.REF_CFL,
            n_elements=N_ELEMENTS, degree=DEGREE, jobs=1).resolved()
        # the harness builds its initial data itself: rotate what it gets
        # and count the steps its runs report
        build_case, run = harness.build_case, harness.run

        def rotated_case(*args, **kwargs):
            cfg, f0 = build_case(*args, **kwargs)
            return cfg, pkg.dg.DGField(mesh=f0.mesh, values=rotate_elements(f0.values, self.shift))

        def counted_run(*args, **kwargs):
            result = run(*args, **kwargs)
            self.steps += result.n_steps
            return result

        harness.build_case = rotated_case
        harness.run = counted_run
        self.steps = 0

    def run(self):
        self.steps = 0
        return self.pkg.harness.run_convergence(self.study)

    def summary(self, result) -> dict:
        return {"errors": np.array([row.error for row in result.rows]),
                "slopes": np.array([result.slopes[key] for key in sorted(result.slopes)])}

    def extra_problems(self, result) -> list[str]:
        return []


class StabilityScan:
    """Order report plus a Von Neumann scan on the CLI default grid."""

    name = "stability-scan"
    tolerance = {"rho_max": (1e-10, 0.0), "max_at": (0.0, 0.0), "order": (0.0, 0.0),
                 "sum_by_b": (1e-10, 0.0), "sum_by_kdt": (1e-10, 0.0),
                 "sum_by_xi": (1e-10, 0.0), "sum_sq": (1e-10, 0.0)}

    def __init__(self, pkg, seed):
        self.pkg = pkg
        stab = pkg.stability
        self.tableau = pkg.butcher.get_tableau(TABLEAU)
        n_b = len(stab.DEFAULT_B_GRID)
        self.perm = np.arange(n_b)
        if seed is not None:
            random.Random(seed).shuffle(self.perm)
        self.b_grid = stab.DEFAULT_B_GRID[self.perm]
        self.kdt_grid = stab.DEFAULT_KDT_GRID.copy()
        self.xi_grid = stab.DEFAULT_XI_GRID.copy()
        self.steps = None  # no solver steps, so no ms_per_step
        self.points = n_b * len(self.kdt_grid) * len(self.xi_grid)

    def run(self):
        report = self.pkg.order_analysis.order_report(self.tableau)
        scan = self.pkg.stability.scan(self.tableau, self.b_grid, self.kdt_grid, self.xi_grid)
        return report, scan

    def summary(self, output) -> dict:
        # checksums of rho in the unpermuted b order, without copying rho
        report, scan = output
        rho = scan.rho
        sum_by_b = np.empty(len(self.perm))
        sum_by_b[self.perm] = rho.sum(axis=(1, 2))
        rho_max, b, kdt, xi = scan.max_point()
        flat = rho.reshape(-1)
        return {"rho_max": np.array([rho_max]),
                "max_at": np.array([b, kdt, xi]),
                "order": np.array([report.kinetic_order, report.fluid_order], dtype=float),
                "sum_by_b": sum_by_b,
                "sum_by_kdt": rho.sum(axis=(0, 2)),
                "sum_by_xi": rho.sum(axis=(0, 1)),
                "sum_sq": np.array([np.dot(flat, flat)])}

    def extra_problems(self, output) -> list[str]:
        return []


WORKLOADS = {cls.name: cls for cls in (BgkSimulate, LinearSweep, StabilityScan)}
WORKLOAD_NAMES = tuple(WORKLOADS)


def check(workload, output, reference: dict) -> list[str]:
    """Problems found comparing a job's output with the stored reference.

    Each summary array must match elementwise within
    ``|actual - expected| <= rtol * |expected| + atol``; the tolerances are
    tight enough to reject a changed scheme and loose enough for sums taken
    in another order.
    """
    problems = workload.extra_problems(output)
    for key, actual in workload.summary(output).items():
        expected = np.asarray(reference[key], dtype=float)
        actual = np.asarray(actual, dtype=float)
        if actual.shape != expected.shape:
            problems.append(f"{key}: shape {actual.shape} != reference {expected.shape}")
            continue
        rtol, atol = workload.tolerance[key]
        with np.errstate(invalid="ignore"):
            excess = np.abs(actual - expected) - (rtol * np.abs(expected) + atol)
        excess[actual == expected] = 0.0  # equal infinities pass
        if not np.all(excess <= 0.0):
            worst = int(np.argmax(np.where(np.isnan(excess), np.inf, excess)))
            problems.append(f"{key}: element {worst} is {actual.flat[worst]!r}, reference "
                            f"{expected.flat[worst]!r} (rtol {rtol:g}, atol {atol:g})")
    return problems
