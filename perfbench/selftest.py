"""Self-test of the benchmark's seed transforms, tracer and metric lists.

    python3 perfbench/selftest.py

On tiny meshes it checks that rotating the initial data by whole elements
commutes with a solver run (the solver workloads compare rotated-back
outputs with one stored reference), that permuting the b-grid permutes the
stability scan, that the tracer sees the calls the harness makes through
its own bindings and restores every original, and that BENCHMARK.json
lists exactly the metrics run.py prints.  Exits nonzero on any failure.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import run
import spans
import workloads

#: rotation must reproduce the unrotated run up to reordered sums
ROTATION_TOL = 1e-13


def check_rotation(pkg, example: str, n_v: int) -> list[str]:
    cfg, f0 = pkg.harness.build_case(example, "DIRK3-B10", 1e-6, 0.5, n_elements=8,
                                     degree=1, n_v=n_v)
    base = pkg.sl_solver.run(cfg, f0, diagnostics_every=0).final.values
    problems = []
    for shift in (1, 3, 7):
        rotated = pkg.dg.DGField(mesh=f0.mesh, values=workloads.rotate_elements(f0.values, shift))
        out = pkg.sl_solver.run(cfg, rotated, diagnostics_every=0).final.values
        err = np.max(np.abs(workloads.rotate_elements(out, -shift) - base)) / np.max(np.abs(base))
        if not err <= ROTATION_TOL:
            problems.append(f"preset {example}: rotation by {shift} changed the run by {err:.3e}")
    return problems


def check_permutation(pkg) -> list[str]:
    tab = pkg.butcher.get_tableau("DIRK3-B10")
    b, kdt, xi = np.linspace(0.0, 1.0, 7), np.linspace(0.0, 6.0, 5), np.array([0.0, 3.0, np.inf])
    perm = np.array([3, 0, 6, 1, 5, 2, 4])
    base = pkg.stability.scan(tab, b, kdt, xi).rho
    permuted = pkg.stability.scan(tab, b[perm], kdt, xi).rho
    if not np.array_equal(permuted, base[perm]):
        return ["stability scan does not commute with a b-grid permutation"]
    return []


def check_tracer(pkg) -> list[str]:
    study = pkg.harness.ConvergenceStudy(example="5.1", tableaus=("DIRK3-B2", "DIRK3-B10"),
                                         eps_values=(1e-6,), cfl_values=(0.2, 0.4, 0.8),
                                         ref_cfl=0.1, n_elements=8, degree=1)
    originals = [getattr(*spans.resolve_target(pkg, m, p)) for m, p, _ in spans.TARGETS]
    tracer = spans.Tracer()
    with tracer.installed(pkg):
        pkg.harness.run_convergence(study)
    metrics = tracer.derive([1.0], [1.0], points=0)
    problems = []
    restored = [getattr(*spans.resolve_target(pkg, m, p)) for m, p, _ in spans.TARGETS]
    if any(a is not b for a, b in zip(originals, restored)):
        problems.append("tracer left a wrapper installed")
    # two tableaus, each one reference run plus three CFL runs
    if metrics["harness.runs.attempted"] != 8:
        problems.append(f"tracer saw {metrics['harness.runs.attempted']} sweep runs, expected 8")
    for name in ("dg.shift_apply.calls", "dg.shift_build.calls", "models.moments.calls",
                 "sl_solver.step.calls"):
        if not metrics[name] > 0:
            problems.append(f"tracer recorded no {name}")
    if set(metrics) != {m for m, _, _, _ in spans.PER_LAYER}:
        problems.append("derived metrics differ from spans.PER_LAYER")
    return problems


def check_benchmark_json() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOAD_NAMES")
    if {(m["name"], m["unit"]) for m in spec["end_to_end"]} != set(run.END_TO_END_UNITS.items()):
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END_UNITS")
    layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if layer != [m[:3] for m in spans.PER_LAYER]:
        problems.append("BENCHMARK.json per_layer differs from spans.PER_LAYER")
    return problems


def main() -> int:
    pkg = run.fresh_import()
    problems = (check_rotation(pkg, "5.3", n_v=16) + check_rotation(pkg, "5.1", n_v=2)
                + check_permutation(pkg) + check_tracer(pkg) + check_benchmark_json())
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
