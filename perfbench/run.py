"""sldirk benchmark: run one workload (or all three) and print its metrics.

    python3 perfbench/run.py --workload bgk-simulate --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 1
    python3 perfbench/run.py --write-reference

Run from the repository root; the package is imported from ``src/``.  A run
repeats the workload's job in one process, closed loop, until ``--seconds``
would be exceeded (at least one job).  Before the first job and after each
one it imports ``sldirk`` afresh and rebuilds the workload's inputs from the
seed; the median of those set-up times is ``setup_s``.  Each job's output
is checked against ``perfbench/reference.json``.

The summary line of each workload gives the measured times: ``wall_s``
(median job wall time), ``ms_per_step`` (on the solver workloads),
``setup_s``, ``peak_rss_mb`` and ``failed_ratio``.  A calibration kernel
that does not call sldirk is timed before and after every job (see
``Calibration``); ``wall_rel`` is the median of job time over the mean
kernel time around it, a machine-speed-free figure with no unit.  With
``--trace 0`` the last stdout line carries ``wall_rel``, ``setup_s`` and
``peak_rss_mb``; with ``--trace 1`` untraced and traced jobs alternate, the
per-layer metrics are derived from the traced ones and the spans are written
to ``perfbench/out/<workload>.spans.npz``.  ``--workload all`` runs the
three in turn in one process, so its ``peak_rss_mb`` is the process peak so
far.  The exit code is 0 only when every job ran and passed its checks.
"""

from __future__ import annotations

import os

# One process, one thread: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import importlib.metadata
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = BENCH_DIR / "out"

#: import-and-build repetitions before the first job; one more follows each
#: job, so setup_s (their median) samples the whole run like wall_s does
SETUP_REPEATS = 11

END_TO_END_UNITS = {"wall_rel": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


class SetupError(RuntimeError):
    """The checkout does not hold the package the benchmark measures."""


def fresh_import():
    """Import ``sldirk`` from ``src/`` anew, dropping any loaded copy."""
    if not (SRC / "sldirk" / "__init__.py").is_file():
        raise SetupError(f"no sldirk package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "sldirk" or m.startswith("sldirk.")]:
        del sys.modules[name]
    pkg = importlib.import_module("sldirk")
    if Path(pkg.__file__).resolve().parent != SRC / "sldirk":
        raise SetupError(f"imported sldirk from {pkg.__file__}, not from {SRC}")
    return pkg


def set_up(cls, seed):
    """Import the package and build the workload's inputs; return both and the time."""
    t0 = time.perf_counter()
    workload = cls(fresh_import(), seed)
    return workload, time.perf_counter() - t0


class Calibration:
    """A fixed mix of interpreter and numpy work that does not touch sldirk.

    A shared 2-vCPU VM can run at speeds that drift by up to 1.5x over
    minutes, for every process alike.  Timing this kernel before and after
    each job measures the speed of the moment; dividing a job's time by it
    removes the drift but not a change in sldirk, which the kernel never
    calls.  It costs about 0.25 s per job on a 2-vCPU x86 VM.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.cases = [(rng.random((lead, 160, 3)), rng.integers(0, 160, (lead, 160)),
                       rng.random((lead, 3, 3)), reps)
                      for lead, reps in ((2, 3000), (100, 150))]

    def run(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_200_000):
            acc += i * i % 7
        for values, idx, mats, reps in self.cases:
            lead = np.arange(values.shape[0])[:, None]
            for _ in range(reps):
                out = values[lead, idx] @ mats
                out += np.exp(-values)
        return time.perf_counter() - t0


def environment() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": importlib.metadata.version("scipy"),
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


def timed_job(workload, reference, tracer=None) -> dict:
    """Run one job, check its output, and return its record."""
    load0, cpu0 = os.getloadavg()[0], time.process_time()
    spans_kept = contextlib.nullcontext() if tracer is None else tracer.installed(workload.pkg)
    t0 = time.perf_counter()
    try:
        with spans_kept:
            output = workload.run()
            wall = time.perf_counter() - t0  # before the tracer packs its spans
        problems = workloads.check(workload, output, reference)
    except Exception as exc:  # a failed job is counted, not fatal
        wall = time.perf_counter() - t0
        problems = [f"{type(exc).__name__}: {exc}"]
    return {"wall_s": wall, "cpu_s": time.process_time() - cpu0, "steps": workload.steps,
            "load_before": load0, "load_after": os.getloadavg()[0],
            "traced": tracer is not None, "problems": problems}


def measure(name: str, seed: int, seconds: float, trace: bool, reference: dict) -> dict:
    """Set up one workload, repeat its job for ``seconds``, return the result."""
    cls = workloads.WORKLOADS[name]
    calibration = Calibration()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        workload, setup_time = set_up(cls, seed)
        setup_times.append(setup_time)
    cal_times = [calibration.run()]  # cal_times[i] and cal_times[i + 1] bracket job i
    tracer = spans.Tracer() if trace else None
    jobs = []
    t_start = time.perf_counter()
    while True:
        # traced runs alternate untraced and traced jobs for the overhead ratio
        use_tracer = tracer if trace and len(jobs) % 2 == 1 else None
        job = timed_job(workload, reference[name], use_tracer)
        cal_times.append(calibration.run())
        job["wall_rel"] = 2.0 * job["wall_s"] / (cal_times[-2] + cal_times[-1])
        workload, setup_time = set_up(cls, seed)
        setup_times.append(setup_time)
        jobs.append(job)
        print("job " + json.dumps({"workload": name, **job}), flush=True)
        elapsed = time.perf_counter() - t_start
        longest = max(j["wall_s"] for j in jobs)
        if elapsed + longest > seconds and (not trace or len(jobs) >= 2):
            break

    failed = sum(1 for j in jobs if j["problems"])
    ok = [j for j in jobs if not j["problems"]]
    if trace:
        traced = [j for j in ok if j["traced"]]
        untraced = [j for j in ok if not j["traced"]]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"{name}.spans.npz")
        metrics = (tracer.derive([j["wall_s"] for j in traced], [j["wall_s"] for j in untraced],
                                 getattr(workload, "points", 0))
                   if traced and untraced else {})
        units = {m: unit for m, unit, _, _ in spans.PER_LAYER}
    else:
        metrics = {}
        if ok:
            metrics = {
                "wall_rel": statistics.median(j["wall_rel"] for j in ok),
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        units = END_TO_END_UNITS
    measured = [f"{len(jobs)} jobs, {failed} failed (failed_ratio {failed / len(jobs):g})"]
    untraced = [j for j in ok if not j["traced"]]
    if untraced:
        wall = statistics.median(j["wall_s"] for j in untraced)
        measured.append(f"wall_s {wall:.6g} s over {len(untraced)} jobs")
        if untraced[0]["steps"]:
            measured.append(f"ms_per_step {1e3 * wall / untraced[0]['steps']:.6g} ms")
    measured.append(f"setup_s {statistics.median(setup_times):.6g} s")
    measured.append(f"peak_rss_mb {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.6g}"
                    f" MB; calibration kernel {statistics.median(cal_times):.6g} s")
    print(f"{name}: " + ", ".join(measured), flush=True)
    if metrics:
        print(f"{name} metrics: " + ", ".join(f"{m} {v:.6g} {units[m]}" for m, v in metrics.items()),
              flush=True)
    return {"attempted": len(jobs), "failed": failed,
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def write_reference():
    """Store the unrotated, unpermuted outputs as the correctness reference."""
    pkg = fresh_import()
    data = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(pkg, None)
        output = workload.run()
        problems = workload.extra_problems(output)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        data[name] = {k: np.asarray(v).tolist() for k, v in workload.summary(output).items()}
    REFERENCE.write_text(json.dumps(data) + "\n")
    print(f"wrote {REFERENCE}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="recompute reference.json from unrotated inputs and exit")
    args = parser.parse_args(argv)
    try:
        if args.write_reference:
            write_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        reference = json.loads(REFERENCE.read_text())
        names = workloads.WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        print("env " + json.dumps(environment()), flush=True)
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace), reference)
                   for name in names}
    except (SetupError, ImportError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[args.workload]["metrics"]
    else:
        metrics = {f"{name}/{m}": v for name, r in results.items() for m, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
