"""Spans around the calls into each sldirk module, recorded from outside.

``Tracer.installed(pkg)`` swaps each target in ``TARGETS`` for a wrapper
that records a span (name, start, end, parent) and restores the originals
on exit, so untraced jobs run the unmodified program.  Targets are the
bindings callers actually look up: ``harness`` imported ``run``,
``l1_error`` and ``build_case`` by name, so those are wrapped on ``harness``
as well; methods are wrapped on their class, which every binding shares.

``derive`` turns the spans of the traced jobs into the per-layer metrics of
``PER_LAYER``.  Self time is a span's duration minus the time its child
spans cover; every time and count is per job (total over the traced jobs
divided by their number).
"""

from __future__ import annotations

import collections
import functools
import time
from contextlib import contextmanager

import numpy as np

#: (module, attribute path, span name)
TARGETS = (
    ("dg", "ShiftOperator.apply", "dg.shift_apply"),
    ("dg", "ShiftOperator.__init__", "dg.shift_build"),
    ("models", "LinearTwoVelocity.moments", "models.moments"),
    ("models", "NonlinearTwoVelocity.moments", "models.moments"),
    ("models", "BGK1D.moments", "models.moments"),
    ("models", "LinearTwoVelocity.equilibrium", "models.equilibrium"),
    ("models", "NonlinearTwoVelocity.equilibrium", "models.equilibrium"),
    ("models", "BGK1D.equilibrium", "models.equilibrium"),
    ("models", "maxwellian", "models.maxwellian"),
    ("sl_solver", "SemiLagrangianSolver.step_values", "sl_solver.step"),
    ("sl_solver", "SemiLagrangianSolver.invariant_integrals", "sl_solver.diagnostics"),
    ("sl_solver", "SemiLagrangianSolver.equilibrium_distance", "sl_solver.diagnostics"),
    ("sl_solver", "run", "sl_solver.run"),
    ("harness", "run", "sl_solver.run"),
    ("sl_solver", "l1_error", "sl_solver.l1_error"),
    ("harness", "l1_error", "sl_solver.l1_error"),
    ("harness", "build_case", "harness.build_case"),
    ("harness", "run_convergence", "harness.sweep"),
    ("stability", "scan", "stability.scan"),
    ("stability", "eigenvalues_2x2", "stability.eigenvalues"),
    ("stability", "stage_inverse", "stability.stage_inverse"),
    ("order_analysis", "order_report", "order_analysis.order_report"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))

_S, _US, _MS, _N = "s", "us", "ms", "count"

#: (metric, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("dg.shift_apply.calls", _N, "lower", "ms_per_step on bgk-simulate, linear-sweep"),
    ("dg.shift_apply.self_s", _S, "lower", "ms_per_step on bgk-simulate (main share)"),
    ("dg.shift_apply.us_per_call", _US, "lower",
     "ms_per_step on bgk-simulate; linear-sweep only via per-call overhead"),
    ("dg.shift_apply.bytes_computed", "B", "lower", "ms_per_step on bgk-simulate"),
    ("dg.shift_apply.flops_computed", "flop", "lower", "ms_per_step on bgk-simulate"),
    ("dg.shift_apply.gbps_computed", "GB/s", "higher", "ms_per_step on bgk-simulate"),
    ("dg.shift_build.calls", _N, "lower", "wall_s and setup_s on linear-sweep"),
    ("dg.shift_build.self_s", _S, "lower", "wall_s and setup_s on linear-sweep"),
    ("dg.shift_cache_hit_ratio", "ratio", "higher", "wall_s on linear-sweep"),
    ("models.moments.calls", _N, "lower", "ms_per_step on bgk-simulate"),
    ("models.moments.self_s", _S, "lower", "ms_per_step on bgk-simulate"),
    ("models.equilibrium.calls", _N, "lower", "ms_per_step on bgk-simulate"),
    ("models.equilibrium.self_s", _S, "lower", "ms_per_step on bgk-simulate"),
    ("models.maxwellian.calls", _N, "lower", "ms_per_step on bgk-simulate"),
    ("models.maxwellian.self_s", _S, "lower", "ms_per_step on bgk-simulate"),
    ("models.newton_iters.mean", _N, "lower", "ms_per_step on bgk-simulate"),
    ("models.newton_iters.max", _N, "lower", "ms_per_step on bgk-simulate"),
    ("sl_solver.step.calls", _N, "lower", "ms_per_step on bgk-simulate, linear-sweep"),
    ("sl_solver.step.self_s", _S, "lower", "ms_per_step on bgk-simulate, linear-sweep"),
    ("sl_solver.step.p50_ms", _MS, "lower", "ms_per_step on bgk-simulate, linear-sweep"),
    ("sl_solver.step.p95_ms", _MS, "lower", "ms_per_step on bgk-simulate, linear-sweep"),
    ("sl_solver.diagnostics.calls", _N, "lower", "wall_s on bgk-simulate"),
    ("sl_solver.diagnostics.self_s", _S, "lower", "wall_s on bgk-simulate"),
    ("sl_solver.diagnostics.total_s", _S, "lower", "wall_s on bgk-simulate"),
    ("sl_solver.run.self_s", _S, "lower", "wall_s on linear-sweep"),
    ("sl_solver.l1_error.self_s", _S, "lower", "wall_s on linear-sweep"),
    ("harness.build_case.self_s", _S, "lower", "setup_s and wall_s on linear-sweep"),
    ("harness.sweep.self_s", _S, "lower", "wall_s on linear-sweep"),
    ("harness.runs.attempted", _N, "lower", "wall_s on linear-sweep"),
    ("harness.runs.diverged", _N, "lower", "wall_s on linear-sweep"),
    ("stability.scan.self_s", _S, "lower", "wall_s and peak_rss_mb on stability-scan"),
    ("stability.eigenvalues.calls", _N, "lower", "wall_s on stability-scan"),
    ("stability.eigenvalues.self_s", _S, "lower", "wall_s and peak_rss_mb on stability-scan"),
    ("stability.stage_inverse.calls", _N, "lower", "wall_s on stability-scan"),
    ("stability.stage_inverse.self_s", _S, "lower", "wall_s on stability-scan"),
    ("stability.ns_per_point", "ns", "lower", "wall_s on stability-scan"),
    ("order_analysis.order_report.self_s", _S, "lower", "wall_s on stability-scan (tiny)"),
    ("trace.wall_s", _S, "lower", "none: median traced job time"),
    ("trace.overhead_ratio", "ratio", "lower", "none: traced over untraced wall_s, minus 1"),
    ("trace.self_sum_ratio", "ratio", "higher",
     "none: layer self times over traced wall_s; near 1 when the spans cover the job"),
)


def resolve_target(pkg, module: str, path: str):
    owner = getattr(pkg, module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def apply_kernel_figures(values_shape, pure_roll: bool) -> tuple[int, int]:
    """Computed (bytes, flops) of one ``ShiftOperator.apply`` on float64 data.

    ``values_shape`` is (L, n_el, q).  Each gather reads an index array and
    the picked values and writes a copy; each batched matmul reads its
    (n_el, q) operand and a q x q matrix per slice and writes the product;
    the sum of the two products reads both and writes one.  Cache misses
    are ignored, so the figures are "computed", not measured.
    """
    lead, n, q = (1, *values_shape) if len(values_shape) == 2 else values_shape
    gather = 8 * lead * n * (2 * q + 1)
    if pure_roll:
        return gather, 0
    matmul = 8 * lead * (2 * n * q + q * q)
    add = 8 * 3 * lead * n * q
    return 2 * gather + 2 * matmul + add, lead * n * q * (4 * q + 1)


class Tracer:
    """In-memory span recorder; one instance per traced benchmark run."""

    def __init__(self):
        self._jobs: list[dict] = []
        self._reset()

    def _reset(self):
        self._name: list[int] = []
        self._parent: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._failed: list[int] = []
        self._applied: list[tuple] = []  # (operator, values shape) per apply
        self._stack = [-1]

    def _wrap(self, fn, name: str, is_apply: bool):
        name_id = SPAN_NAMES.index(name)
        names, parents, starts, ends = self._name, self._parent, self._start, self._end
        stack, clock, applied = self._stack, time.perf_counter, self._applied

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_apply:  # kernel figures are computed after the job
                applied.append((args[0], args[1].shape))
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self._failed.append(idx)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        return wrapper

    @contextmanager
    def installed(self, pkg):
        """Wrap every target while the block runs one job; keep its spans."""
        self._reset()
        saved = []
        try:
            for module, path, name in TARGETS:
                owner, attr = resolve_target(pkg, module, path)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, name == "dg.shift_apply"))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
        applies = collections.Counter(
            (shape, bool(getattr(op, "_pure_roll", False))) for op, shape in self._applied)
        self._jobs.append({
            "name": np.asarray(self._name, dtype=np.int32),
            "parent": np.asarray(self._parent, dtype=np.int32),
            "start": np.asarray(self._start, dtype=float),
            "end": np.asarray(self._end, dtype=float),
            "failed": np.asarray(self._failed, dtype=np.int64),
            "applies": applies,
        })
        self._reset()

    def save(self, path):
        """Write every traced job's spans to one ``.npz`` file."""
        arrays = {"span_names": np.array(SPAN_NAMES)}
        for i, job in enumerate(self._jobs):
            for key in ("name", "parent", "start", "end", "failed"):
                arrays[f"job{i}_{key}"] = job[key]
        np.savez_compressed(path, **arrays)

    def derive(self, traced_walls, untraced_walls, points: int) -> dict:
        """Per-layer metrics from the recorded jobs, per job."""
        n_jobs = len(self._jobs)
        n_names = len(SPAN_NAMES)
        calls = np.zeros(n_names)
        self_s = np.zeros(n_names)
        total_s = np.zeros(n_names)
        step_ms, newton = [], []
        runs = diverged = 0
        apply_bytes = apply_flops = 0
        idx = SPAN_NAMES.index
        for job in self._jobs:
            name, parent = job["name"], job["parent"]
            dur = job["end"] - job["start"]
            has_parent = parent >= 0
            child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
            calls += np.bincount(name, minlength=n_names)
            total_s += np.bincount(name, weights=dur, minlength=n_names)
            self_s += np.bincount(name, weights=dur - child, minlength=n_names)
            step_ms.append(1e3 * dur[name == idx("sl_solver.step")])
            # a converged fit evaluates the Maxwellian twice: once for the
            # residual check, once for the returned equilibrium
            under_eq = has_parent & (name == idx("models.maxwellian"))
            under_eq[under_eq] = name[parent[under_eq]] == idx("models.equilibrium")
            per_eq = np.bincount(parent[under_eq], minlength=len(dur))
            eq_bgk = (name == idx("models.equilibrium")) & (per_eq > 0)
            newton.append(per_eq[eq_bgk] - 2)
            swept = has_parent & (name == idx("sl_solver.run"))
            swept[swept] = name[parent[swept]] == idx("harness.sweep")
            runs += int(swept.sum())
            diverged += int(np.isin(np.flatnonzero(swept), job["failed"]).sum())
            for (shape, pure_roll), count in job["applies"].items():
                nbytes, nflops = apply_kernel_figures(shape, pure_roll)
                apply_bytes += count * nbytes
                apply_flops += count * nflops

        def per_job(values):
            return {span: float(v) / n_jobs for span, v in zip(SPAN_NAMES, values)}

        c, s, t = per_job(calls), per_job(self_s), per_job(total_s)
        step_ms = np.concatenate(step_ms)
        newton = np.concatenate(newton)
        n_apply = calls[idx("dg.shift_apply")]
        apply_self = self_s[idx("dg.shift_apply")]
        traced_wall = float(np.median(traced_walls))
        out = {
            "dg.shift_apply.calls": c["dg.shift_apply"],
            "dg.shift_apply.self_s": s["dg.shift_apply"],
            "dg.shift_apply.us_per_call": 1e6 * apply_self / n_apply if n_apply else 0.0,
            "dg.shift_apply.bytes_computed": apply_bytes / n_apply if n_apply else 0.0,
            "dg.shift_apply.flops_computed": apply_flops / n_apply if n_apply else 0.0,
            "dg.shift_apply.gbps_computed": apply_bytes / apply_self / 1e9 if apply_self else 0.0,
            "dg.shift_build.calls": c["dg.shift_build"],
            "dg.shift_build.self_s": s["dg.shift_build"],
            "dg.shift_cache_hit_ratio":
                1.0 - calls[idx("dg.shift_build")] / n_apply if n_apply else 0.0,
            "models.newton_iters.mean": float(newton.mean()) if newton.size else 0.0,
            "models.newton_iters.max": float(newton.max()) if newton.size else 0.0,
            "sl_solver.step.calls": c["sl_solver.step"],
            "sl_solver.step.self_s": s["sl_solver.step"],
            "sl_solver.step.p50_ms": float(np.percentile(step_ms, 50)) if step_ms.size else 0.0,
            "sl_solver.step.p95_ms": float(np.percentile(step_ms, 95)) if step_ms.size else 0.0,
            "sl_solver.diagnostics.calls": c["sl_solver.diagnostics"],
            "sl_solver.diagnostics.self_s": s["sl_solver.diagnostics"],
            "sl_solver.diagnostics.total_s": t["sl_solver.diagnostics"],
            "sl_solver.run.self_s": s["sl_solver.run"],
            "sl_solver.l1_error.self_s": s["sl_solver.l1_error"],
            "harness.build_case.self_s": s["harness.build_case"],
            "harness.sweep.self_s": s["harness.sweep"],
            "harness.runs.attempted": runs / n_jobs,
            "harness.runs.diverged": diverged / n_jobs,
            "stability.scan.self_s": s["stability.scan"],
            "stability.eigenvalues.calls": c["stability.eigenvalues"],
            "stability.eigenvalues.self_s": s["stability.eigenvalues"],
            "stability.stage_inverse.calls": c["stability.stage_inverse"],
            "stability.stage_inverse.self_s": s["stability.stage_inverse"],
            "stability.ns_per_point": 1e9 * t["stability.scan"] / points if points else 0.0,
            "order_analysis.order_report.self_s": s["order_analysis.order_report"],
            "trace.wall_s": traced_wall,
            "trace.overhead_ratio": traced_wall / float(np.median(untraced_walls)) - 1.0,
            "trace.self_sum_ratio": float(self_s.sum()) / float(np.sum(traced_walls)),
        }
        for layer in ("models.moments", "models.equilibrium", "models.maxwellian"):
            out[f"{layer}.calls"] = c[layer]
            out[f"{layer}.self_s"] = s[layer]
        return {name: out[name] for name, _, _, _ in PER_LAYER}
