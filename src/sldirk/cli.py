"""Command-line front end: order checks, stability scans, runs, sweeps.

Exit codes: 0 on success, 2 for configuration problems (``ValueError``,
an unknown tableau or example name and an option value that does not parse
included) and files that cannot be read or written (``OSError``), 3 when a
run raised a :class:`~sldirk.models.SimulationError`.
All CSV output is deterministic for a fixed configuration (floats via repr,
rows in configuration order).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import numpy as np

from . import butcher, harness, order_analysis, stability
from .models import BGK1D, N_V, V_MAX, SimulationError
from .sl_solver import MAX_DEGREE, run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def parse_grid(spec: str) -> np.ndarray:
    """Parse a grid spec: value | lo:hi:n | inf, comma-separated mixes allowed."""
    out = []
    for token in parse_name_list(spec):
        if ":" in token:
            parts = token.split(":")
            if len(parts) != 3 or int(parts[2]) < 1:
                raise ValueError(f"bad range {token!r}, expected lo:hi:n with n >= 1")
            out.append(np.linspace(float(parts[0]), float(parts[1]), int(parts[2])))
        else:
            out.append(np.array([float(token)]))
    if not out:
        raise ValueError(f"empty grid spec {spec!r}")
    return np.concatenate(out)


def parse_float_list(spec: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in spec.split(",") if tok.strip())


def parse_name_list(spec: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in spec.split(",") if tok.strip())


def _write(path: str, text: str):
    Path(path).write_text(text, newline="\n")


def _add_options(parser, options):
    """One ``--flag`` of plain text per option of a table that maps each
    flag to (keyword, converter, default, help); the help ends in the
    default unless that is None or a grid array (whose help states it)."""
    for flag, (_, _, default, text) in options.items():
        if isinstance(default, tuple):
            default = ",".join(map(str, default))
        if default is not None and not isinstance(default, np.ndarray):
            text = f"{text} (default {default})"
        parser.add_argument(f"--{flag}", help=text)


def _read_options(args, options, config=None) -> dict:
    """The declared options by keyword: a flag overrides an entry of the
    ``config`` file, which overrides the default, and text from either
    source is converted, a failure being a ``ValueError`` naming the flag."""
    entries = butcher.parse_key_values(Path(config).read_text()) if config else {}
    unknown = set(entries) - set(options)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}; "
                         f"expected a subset of {sorted(options)}")
    values = {}
    for flag, (keyword, convert, default, _) in options.items():
        text = getattr(args, flag.replace("-", "_"))
        if text is None:
            text = entries.get(flag)
        try:
            values[keyword] = default if text is None else convert(text)
        except ValueError:
            kind = convert.__name__.removeprefix("parse_").replace("_", " ")
            raise ValueError(f"{flag}: invalid {kind} value {text!r}") from None
    return values


# ---------------------------------------------------------------------------
# order-check
# ---------------------------------------------------------------------------

_ORDER_OPTIONS = {
    "tol": ("tol", float, order_analysis.DEFAULT_ORDER_TOL,
            "residual tolerance for the order verdict"),
    "csv": ("csv", str, None, "write the per-stage coefficient table to this CSV file"),
}


def cmd_order_check(args) -> int:
    opts = _read_options(args, _ORDER_OPTIONS)
    t = butcher.resolve_tableau(args.tableau)
    so = butcher.to_shu_osher(t)
    cols = order_analysis.coefficients(so)
    report = order_analysis.order_report(t, tol=opts["tol"])

    print(f"tableau {t.name} ({t.s} stages)")
    print("stage" + "".join(f"{name:>14}" for name in cols))
    for k in range(t.s):
        print(f"{k + 1:5d}" + "".join(f"{vals[k]:14.6g}" for vals in cols.values()))
    for regime in ("kinetic", "fluid"):
        order = getattr(report, f"{regime}_order")
        top = max(o for *_, r, o in order_analysis.CONDITIONS if r == regime)
        print(f"{regime} order: {order}{'+' if order == top else ''}")
    print(f"G_s = {float(cols['G'][-1])!r}")
    print("condition residuals:")
    for name, value in report.residuals.items():
        print(f"  {name:12s} {value: .3e}")
    ident = order_analysis.max_identity_residual(so)
    print(f"max cross-identity residual over stages: {ident:.3e}")

    if opts["csv"]:
        rows = [[k + 1] + [float(vals[k]) for vals in cols.values()] for k in range(t.s)]
        _write(opts["csv"], harness.rows_to_csv(rows, ["stage", *cols]))
    return EXIT_OK


# ---------------------------------------------------------------------------
# stability-scan
# ---------------------------------------------------------------------------

_SCAN_OPTIONS = {
    "b": ("b", parse_grid, stability.DEFAULT_B_GRID,
          "coupling grid: value, lo:hi:n or list (default 0:1:101)"),
    "kdt": ("kdt", parse_grid, stability.DEFAULT_KDT_GRID,
            "k*dt grid (default [0, 2 pi] with 401 points)"),
    "xi": ("xi", parse_grid, stability.DEFAULT_XI_GRID,
           "dt/eps grid; 'inf' selects the stiff-limit projection (default 0:10:101,inf)"),
    "out": ("out", str, None, "CSV output path (columns b, k_dt, xi, lambda1_abs, "
                              "lambda2_abs, rho: the smaller and the larger eigenvalue "
                              "magnitude, and rho = lambda2_abs)"),
}


def cmd_stability_scan(args) -> int:
    opts = _read_options(args, _SCAN_OPTIONS)
    t = butcher.resolve_tableau(args.tableau)
    result = stability.scan(t, opts["b"], opts["kdt"], opts["xi"])
    rho_max, b_at, kdt_at, xi_at = result.max_point()
    print(f"tableau {t.name}: {result.rho.size} grid points")
    print(f"max spectral radius {rho_max!r} at b = {b_at!r}, "
          f"k_dt = {kdt_at!r}, xi = {xi_at!r}")
    if opts["out"]:
        _write_scan_csv(opts["out"], result)
        print(f"wrote {result.rho.size} rows to {opts['out']}")
    return EXIT_OK


def _write_scan_csv(path: str, result: stability.StabilityScan):
    """Stream the scan as CSV, one b at a time; the bytes equal
    ``harness.rows_to_csv`` over all rows (repr floats, \\n endings)."""
    header = ("b", "k_dt", "xi", "lambda1_abs", "lambda2_abs", "rho")
    kdt, xi = result.k_dt.tolist(), result.xi.tolist()
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for b, small, large in zip(result.b.tolist(), result.lam_small, result.lam_large):
            fh.write("".join(
                f"{b!r},{k!r},{x!r},{lo!r},{hi!r},{hi!r}\n"
                for k, lo_k, hi_k in zip(kdt, small.tolist(), large.tolist())
                for x, lo, hi in zip(xi, lo_k, hi_k)))


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

#: the run options that simulate and convergence share: flag (and config
#: key) -> (keyword of build_case and ConvergenceStudy, type, default, help)
_RUN_OPTIONS = {
    "nx": ("n_elements", int, harness.N_ELEMENTS, "number of mesh elements"),
    "p": ("degree", int, harness.DEGREE, f"polynomial degree per element, 0-{MAX_DEGREE}"),
    "nv": ("n_v", int, N_V, "velocity grid points for the gas model"),
    "vmax": ("v_max", float, V_MAX, "velocity domain half-width for the gas model"),
    "T": ("t_final", float, None, "final time (default: the preset's)"),
}

#: every option of simulate, declared as the shared ones; all but ``out``
#: are build_case arguments
_SIM_OPTIONS = {
    "model": ("example", str, "linear", "kinetic model: "
              + ", ".join(preset.model for preset in harness.PRESETS.values())),
    "tableau": ("tableau_name", str, "DIRK3-B10", "time integrator"),
    "b": ("b", float, None, "coupling constant of the two-velocity models "
                            "(default: the preset's)"),
    "eps": ("eps", float, 1e-2, "relaxation time"),
    "cfl": ("cfl", float, 0.5, "CFL number dt * a / dx"),
    **_RUN_OPTIONS,
    "out": ("out", str, None, "output prefix for the snapshot CSVs"),
}

#: simulate's option that is a flag only, not a ``--config`` key
_DIAG_OPTIONS = {"diag-every": ("diagnostics_every", int, 1,
                                "record diagnostics every N steps (0: endpoints only)")}


def cmd_simulate(args) -> int:
    opts = _read_options(args, _SIM_OPTIONS, args.config)
    diagnostics = _read_options(args, _DIAG_OPTIONS)
    prefix = opts.pop("out")
    cfg, f0 = harness.build_case(**opts)

    result = run(cfg, f0, **diagnostics)
    drift = np.abs(result.invariants[-1] - result.invariants[0])
    scale = np.maximum(np.abs(result.invariants[0]), 1e-300)
    print(f"completed {result.n_steps} steps to T = {cfg.t_final!r} "
          f"(dt = {cfg.dt!r}, xi = dt/eps = {cfg.dt / cfg.eps!r})")
    for name, rel in zip(cfg.model.invariant_names, drift / scale):
        print(f"  {name} drift (relative): {rel:.3e}")
    print(f"  distance from equilibrium: {float(result.equilibrium_distance[-1])!r}")

    if prefix:
        _write_snapshot(prefix, cfg, result)
        print(f"wrote {prefix}_distribution.csv, {prefix}_macro.csv, "
              f"{prefix}_diagnostics.csv")
    return EXIT_OK


def _write_snapshot(prefix, cfg, result):
    x = cfg.mesh.node_coords(cfg.degree).ravel().tolist()
    # streamed one velocity at a time; the bytes equal harness.rows_to_csv
    # over all (x, v, f) rows
    with open(f"{prefix}_distribution.csv", "w", newline="\n") as fh:
        fh.write("x,v,f\n")
        for v, fv in zip(cfg.model.velocity_set.v.tolist(), result.final.values):
            fh.write("".join(f"{xx!r},{v!r},{val!r}\n"
                             for xx, val in zip(x, fv.ravel().tolist())))

    U = result.macro.values
    gas = isinstance(cfg.model, BGK1D)
    fields = BGK1D.parameters(U) if gas else (U[0],)
    macro_header = ("x", "rho", "u", "T") if gas else ("x", "U")
    macro_rows = list(zip(x, *(map(float, f.ravel()) for f in fields)))
    _write(f"{prefix}_macro.csv", harness.rows_to_csv(macro_rows, macro_header))

    diag_header = ("step", "t") + cfg.model.invariant_names + ("equilibrium_distance",)
    diag_rows = [(step, t) + tuple(map(float, inv)) + (float(dist),)
                 for step, t, inv, dist in zip(result.steps.tolist(), result.times.tolist(),
                                               result.invariants, result.equilibrium_distance)]
    _write(f"{prefix}_diagnostics.csv", harness.rows_to_csv(diag_rows, diag_header))


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

#: every option of convergence; all but the two output paths are
#: ConvergenceStudy fields
_SWEEP_OPTIONS = {
    "tableaus": ("tableaus", parse_name_list, ("DIRK3-B2", "DIRK3-B10"),
                 "comma-separated tableau names"),
    "eps": ("eps_values", parse_float_list, (1e-2, 1e-6), "comma-separated relaxation times"),
    "cfls": ("cfl_values", parse_float_list, None,
             "comma-separated CFL values (default: desk-scale preset per example)"),
    "ref-cfl": ("ref_cfl", float, None,
                f"reference CFL (default {harness.PRESETS['5.1'].ref_cfl:g}, "
                f"{harness.PRESETS['5.3'].ref_cfl:g} for the gas model)"),
    **_RUN_OPTIONS,
    "error-on": ("error_on", str, "U", "L1 error on the moments (U) or the distribution (f)"),
    "jobs": ("jobs", int, 1, "worker processes for independent sweep jobs"),
    "out": ("out", str, None, "CSV output path for the error rows"),
    "slopes-out": ("slopes_out", str, None, "CSV output path for the fitted slopes"),
}


def cmd_convergence(args) -> int:
    preset = harness.PRESETS[harness.normalize_example(args.example)]
    opts = _read_options(args, _SWEEP_OPTIONS)
    out, slopes_out = opts.pop("out"), opts.pop("slopes_out")
    if args.paper_scale and args.nx is None:
        opts["n_elements"] = harness.PAPER_N_ELEMENTS
    if opts["cfl_values"] is None:
        opts["cfl_values"] = preset.paper_cfls if args.paper_scale else preset.desk_cfls
    result = harness.run_convergence(harness.ConvergenceStudy(example=args.example, **opts))
    study = result.study
    print(f"example {study.example}: {len(result.rows)} runs "
          f"(reference CFL {study.ref_cfl!r}, N_x = {study.n_elements})")
    for (tab, eps), slope in result.slopes.items():
        print(f"  {tab:12s} eps = {eps:<8g} slope = {slope:.4f}")
    if out:
        _write(out, harness.study_csv(result))
        print(f"wrote {len(result.rows)} rows to {out}")
    if slopes_out:
        _write(slopes_out, harness.slopes_csv(result))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sldirk",
        description="Semi-Lagrangian DIRK toolkit: order conditions, Von Neumann "
                    "stability scans, kinetic relaxation runs and convergence sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order-check", help="per-stage order-condition coefficients "
                                           "and kinetic/fluid order verdicts")
    p.add_argument("tableau", help="catalog tableau name or tableau file path")
    _add_options(p, _ORDER_OPTIONS)
    p.set_defaults(func=cmd_order_check)

    p = sub.add_parser("stability-scan", help="spectral radii of the one-step "
                                              "amplification matrix over a parameter grid")
    p.add_argument("--tableau", required=True, help="catalog tableau name or file path")
    _add_options(p, _SCAN_OPTIONS)
    p.set_defaults(func=cmd_stability_scan)

    p = sub.add_parser("simulate", help="advance one configuration and write snapshots")
    p.add_argument("--config", help="plain-text key = value config file; "
                                    "command-line flags override file entries")
    _add_options(p, _SIM_OPTIONS)
    _add_options(p, _DIAG_OPTIONS)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("convergence", help="temporal convergence sweep against a "
                                           "small-CFL reference")
    gas_cfls = ", ".join(f"{cfl:g}" for cfl in harness.PRESETS["5.3"].paper_cfls)
    p.add_argument("--example", required=True,
                   help="benchmark preset: 5.1/linear, 5.2/nonlinear, 5.3/bgk")
    _add_options(p, _SWEEP_OPTIONS)
    p.add_argument("--paper-scale", action="store_true",
                   help=f"{harness.PAPER_N_ELEMENTS} elements instead of "
                        f"{harness.N_ELEMENTS}, and CFLs {gas_cfls} for the "
                        "gas model (slow; at the default degree a spatial floor still "
                        "caps the fluid-limit slopes, see the README)")
    p.set_defaults(func=cmd_convergence)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """``argv`` with each long option and a separate value that starts with
    '-' and a digit, '.' or 'inf' joined as ``--option=value``: argparse
    reads a separate ``-1e-3`` or ``-1:1:5`` as an unknown option."""
    joined = []
    for arg in argv:
        if joined and re.fullmatch(r"--[\w-]+", joined[-1]) and re.match(r"-(\d|\.|inf)", arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except SimulationError as exc:
        where = [f"step {exc.step}"] if exc.step is not None else []
        if exc.time is not None:
            where.append(f"t = {exc.time:.6g}")
        print(f"run diverged: {exc}" + (f" ({', '.join(where)})" if where else ""),
              file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
