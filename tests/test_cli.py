import re

import numpy as np
import pytest

from sldirk import cli, harness, models
from sldirk.models import SimulationError, UnphysicalStateError
from sldirk.sl_solver import DivergenceError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# order-check
# ---------------------------------------------------------------------------

def test_order_check_dirk3_b2(capsys):
    code, out, _ = run_cli(capsys, "order-check", "DIRK3-B2")
    assert code == 0
    assert re.search(r"kinetic order: 3", out)
    assert re.search(r"fluid order: 2", out)
    g = float(re.search(r"G_s = ([-0-9.e]+)", out).group(1))
    assert g == pytest.approx(0.066745, abs=5e-6)


def test_order_check_csv(capsys, tmp_path):
    path = tmp_path / "coeffs.csv"
    code, out, _ = run_cli(capsys, "order-check", "DIRK3-B10", "--csv", str(path))
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("stage,c,d,g,h,C,D,B,G,H")
    assert len(lines) == 5
    last = lines[-1].split(",")
    assert float(last[1]) == pytest.approx(1.0, abs=1e-12)       # c_s
    assert float(last[8]) == pytest.approx(1 / 6, abs=1e-12)     # G_s


def test_order_check_names_come_from_the_condition_table(capsys, tmp_path):
    # the printed columns and residual names, the CSV header and the report's
    # keys are the rows of the one condition table, in its order
    from sldirk.butcher import get_tableau
    from sldirk.order_analysis import CONDITIONS, order_report
    names = [name for name, *_ in CONDITIONS]
    residuals = [f"{name}_s" + (f" - {target}" if target != "0" else "")
                 for name, target, *_ in CONDITIONS]
    assert residuals == ["c_s - 1", "d_s - 1/2", "g_s - 1/6", "h_s - 1/6", "C_s - 1",
                         "D_s - 1/2", "B_s", "G_s - 1/6", "H_s - 1/6", "B*_s", "B**_s",
                         "B***_s"]
    path = tmp_path / "coeffs.csv"
    code, out, _ = run_cli(capsys, "order-check", "DIRK3-B10", "--csv", str(path))
    assert code == 0
    assert path.read_text().splitlines()[0] == ",".join(["stage", *names])
    assert out.splitlines()[1].split() == ["stage", *names]
    printed = out.split("condition residuals:\n")[1].splitlines()[:len(CONDITIONS)]
    assert [line[2:14].rstrip() for line in printed] == residuals
    assert list(order_report(get_tableau("DIRK3-B10")).residuals) == residuals


def test_order_check_tableau_file_with_unknown_key_exits_2(capsys, tmp_path):
    from sldirk.butcher import get_tableau, tableau_to_text
    path = tmp_path / "t.tab"
    path.write_text(tableau_to_text(get_tableau("DIRK2")) + "stifly_accurate = 1\n")
    code, out, err = run_cli(capsys, "order-check", str(path))
    assert code == 2
    assert out == ""
    assert err == ("error: unknown tableau keys ['stifly_accurate']; expected a subset "
                   "of ['A', 'b', 'c', 'name', 's', 'stiffly_accurate']\n")


def test_order_check_custom_file(capsys, tmp_path):
    from sldirk.butcher import get_tableau, tableau_to_text
    path = tmp_path / "t.tab"
    path.write_text(tableau_to_text(get_tableau("DIRK2")))
    code, out, _ = run_cli(capsys, "order-check", str(path))
    assert code == 0
    assert "kinetic order: 2" in out


def test_order_check_prints_a_plain_last_row_sum(capsys, tmp_path):
    # the row sum is a numpy scalar, which numpy 2 would print as np.float64(0.5)
    path = tmp_path / "half.txt"
    path.write_text("name = half\ns = 1\nA = 0.5\nc = 0.5\nb = 0.5\n")
    code, _, err = run_cli(capsys, "order-check", str(path))
    assert code == 2
    assert err == ("error: tableau 'half' rejected: last row sums to 0.5, not 1: only "
                   "stiffly accurate tableaus are supported\n")


def test_order_check_unknown_exits_2(capsys):
    code, _, err = run_cli(capsys, "order-check", "DIRK17")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-1e-3"])
def test_order_check_bad_tolerance_exits_2(capsys, tol):
    code, out, err = run_cli(capsys, "order-check", "DIRK3-B10", "--tol", tol)
    assert code == 2
    assert err.startswith("error: order tolerance must be finite and >= 0")
    assert "order" not in out


def test_key_error_message_printed_without_repr_quotes(capsys):
    code, _, err = run_cli(capsys, "order-check", "NOPE")
    assert code == 2
    assert err == ("error: 'NOPE' is neither a catalog tableau (BE, DIRK2, DIRK3-B10, "
                   "DIRK3-B2, DIRK3-B3, DIRK3-B4, DIRK3-B5, DIRK3-B6, DIRK3-B7, DIRK3-B8, "
                   "DIRK3-B9) nor an existing file\n")


# ---------------------------------------------------------------------------
# stability-scan
# ---------------------------------------------------------------------------

def test_stability_scan_backward_euler(capsys, tmp_path):
    path = tmp_path / "scan.csv"
    code, out, _ = run_cli(capsys, "stability-scan", "--tableau", "BE",
                           "--b", "0:1:11", "--kdt", "0:6.2832:21",
                           "--xi", "0:10:5,inf", "--out", str(path))
    assert code == 0
    assert "max spectral radius" in out
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "b,k_dt,xi,lambda1_abs,lambda2_abs,rho"
    assert len(lines) == 1 + 11 * 21 * 6
    rho = np.array([float(l.split(",")[-1]) for l in lines[1:]])
    assert rho.max() <= 1.0 + 1e-12
    # the xi = inf rows serialize as 'inf'
    assert any(l.split(",")[2] == "inf" for l in lines[1:])


def test_stability_scan_deterministic_output(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(capsys, "stability-scan", "--tableau", "DIRK2",
                             "--b", "0.6", "--kdt", "0:6.2832:50",
                             "--xi", "inf", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_stability_scan_bad_grid_exits_2(capsys):
    code, _, err = run_cli(capsys, "stability-scan", "--tableau", "BE",
                           "--b", "0:2:5", "--kdt", "0:1:5", "--xi", "1")
    assert code == 2
    assert "b values" in err


def test_stability_scan_accepts_negative_b(capsys):
    code, out, _ = run_cli(capsys, "stability-scan", "--tableau", "DIRK2", "--b=-1:1:5",
                           "--kdt", "0:6.2832:11", "--xi", "0,1,inf")
    assert code == 0
    assert "165 grid points" in out


def test_stability_scan_separate_negative_grid_value(capsys):
    # a separate value that starts with '-' is the option's value, as with '='
    outputs = []
    for b in (["--b=-1:1:5"], ["--b", "-1:1:5"]):
        outputs.append(run_cli(capsys, "stability-scan", "--tableau", "DIRK2", *b,
                               "--kdt", "0:6.2832:11", "--xi", "0,1,inf"))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0
    assert "165 grid points" in outputs[0][1]
    code, _, err = run_cli(capsys, "stability-scan", "--tableau", "DIRK2", "--b", "0.5",
                           "--kdt", "-1:1:3", "--xi", "-.5,1")
    assert code == 2 and err == "error: k_dt values must be finite and >= 0\n"


@pytest.mark.parametrize("grid", [("--xi", "-4"), ("--xi", "nan"), ("--kdt", "-1"),
                                  ("--kdt", "nan"), ("--b", "nan"), ("--b", "-1.5")])
def test_stability_scan_invalid_grid_exits_2(capsys, grid):
    args = {"--b": "0.5", "--kdt": "1", "--xi": "1"}
    args[grid[0]] = grid[1]
    code, _, err = run_cli(capsys, "stability-scan", "--tableau", "DIRK2",
                           *[tok for item in args.items() for tok in item])
    assert code == 2
    assert "error" in err


def test_stability_scan_csv_bytes_match_row_list(capsys, tmp_path):
    # the streamed CSV must equal rows_to_csv over the full row list
    from sldirk import harness, stability
    from sldirk.butcher import get_tableau
    path = tmp_path / "scan.csv"
    code, out, _ = run_cli(capsys, "stability-scan", "--tableau", "DIRK3-B10",
                           "--b", "0:1:3,0.37", "--kdt", "0:6.283185307179586:7",
                           "--xi", "0:10:4,inf", "--out", str(path))
    assert code == 0
    b_grid = cli.parse_grid("0:1:3,0.37")
    kdt_grid = cli.parse_grid("0:6.283185307179586:7")
    xi_grid = cli.parse_grid("0:10:4,inf")
    result = stability.scan(get_tableau("DIRK3-B10"), b_grid, kdt_grid, xi_grid)
    rows = [(float(b), float(kdt), float(xi), float(result.lam_small[i, j, l]),
             float(result.lam_large[i, j, l]), float(result.rho[i, j, l]))
            for i, b in enumerate(b_grid) for j, kdt in enumerate(kdt_grid)
            for l, xi in enumerate(xi_grid)]
    header = ("b", "k_dt", "xi", "lambda1_abs", "lambda2_abs", "rho")
    assert path.read_bytes() == harness.rows_to_csv(rows, header).encode()
    assert f"wrote {len(rows)} rows" in out


def test_stability_scan_default_grids_are_the_module_constants(capsys, monkeypatch):
    # an omitted grid flag scans stability's default grid, which is
    # bit-equal to the spec the help states
    from sldirk import stability
    real_scan, seen = stability.scan, []

    def spy(t, *grids):
        seen.append(grids)
        return real_scan(t, *(grid[:2] for grid in grids))
    monkeypatch.setattr(stability, "scan", spy)
    code, _, _ = run_cli(capsys, "stability-scan", "--tableau", "BE", "--b", "0.5")
    assert code == 0
    b, kdt, xi = seen[0]
    assert np.array_equal(b, [0.5])
    assert kdt is stability.DEFAULT_KDT_GRID and xi is stability.DEFAULT_XI_GRID
    with pytest.raises(SystemExit):
        cli.main(["stability-scan", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for grid, spec in ((stability.DEFAULT_B_GRID, "0:1:101"),
                       (stability.DEFAULT_KDT_GRID, "0:6.283185307179586:401"),
                       (stability.DEFAULT_XI_GRID, "0:10:101,inf")):
        assert np.array_equal(grid, cli.parse_grid(spec))
    assert "default 0:1:101" in help_text and "default 0:10:101,inf" in help_text
    assert "default [0, 2 pi] with 401 points" in help_text


def test_grid_spec_parsing():
    np.testing.assert_allclose(cli.parse_grid("0:1:3"), [0.0, 0.5, 1.0])
    np.testing.assert_allclose(cli.parse_grid("0.25"), [0.25])
    grid = cli.parse_grid("0:1:2,inf")
    assert np.isinf(grid[-1])
    with pytest.raises(ValueError, match="bad range"):
        cli.parse_grid("1:2")
    with pytest.raises(ValueError, match="empty grid spec"):
        cli.parse_grid("")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_snapshots(capsys, tmp_path):
    prefix = str(tmp_path / "lin")
    code, out, _ = run_cli(capsys, "simulate", "--model", "linear",
                           "--tableau", "DIRK2", "--eps", "1e-2",
                           "--cfl", "0.5", "--nx", "16", "--T", "0.05",
                           "--out", prefix)
    assert code == 0
    assert "completed" in out
    dist = (tmp_path / "lin_distribution.csv").read_text().strip().split("\n")
    assert dist[0] == "x,v,f"
    assert len(dist) == 1 + 2 * 16 * 3
    macro = (tmp_path / "lin_macro.csv").read_text().strip().split("\n")
    assert macro[0] == "x,U"
    diag = (tmp_path / "lin_diagnostics.csv").read_text().strip().split("\n")
    assert diag[0] == "step,t,mass,equilibrium_distance"
    mass = [float(l.split(",")[2]) for l in diag[1:]]
    assert abs(mass[-1] - mass[0]) < 1e-12 * abs(mass[0])


def test_simulate_diagnostics_name_each_record_by_its_step(capsys, tmp_path):
    # 16 steps to T = 1, recorded every 5 steps and at the last one
    prefix = str(tmp_path / "lin")
    code, _, _ = run_cli(capsys, "simulate", "--model", "linear", "--nx", "8", "--T", "1",
                         "--diag-every", "5", "--out", prefix)
    assert code == 0
    rows = [line.split(",") for line in
            (tmp_path / "lin_diagnostics.csv").read_text().strip().split("\n")[1:]]
    assert [row[0] for row in rows] == ["0", "5", "10", "15", "16"]
    assert rows[-1][1] == "1.0"


def test_simulate_states_the_stiffness_regime(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--model", "linear", "--nx", "8",
                           "--eps", "1e-3", "--cfl", "0.5", "--T", "0.02")
    assert code == 0
    match = re.search(r"\(dt = (\S+), xi = dt/eps = (\S+)\)$", out.splitlines()[0])
    cfg, _ = harness.build_case("linear", "DIRK3-B10", 1e-3, 0.5, n_elements=8)
    assert (float(match[1]), float(match[2])) == (cfg.dt, cfg.dt / 1e-3)


def test_simulate_bgk_macro_columns(capsys, tmp_path):
    prefix = str(tmp_path / "gas")
    code, _, _ = run_cli(capsys, "simulate", "--model", "bgk", "--nx", "16",
                         "--nv", "40", "--cfl", "2", "--T", "0.01",
                         "--out", prefix)
    assert code == 0
    macro = (tmp_path / "gas_macro.csv").read_text().strip().split("\n")
    assert macro[0] == "x,rho,u,T"
    diag = (tmp_path / "gas_diagnostics.csv").read_text().strip().split("\n")
    assert diag[0] == "step,t,mass,momentum,energy,equilibrium_distance"


def test_simulate_config_file_with_flag_override(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("model = linear\ntableau = BE\neps = 1e-2\n"
                      "cfl = 0.5\nnx = 8\nT = 0.02\n# comment\n")
    code, out, _ = run_cli(capsys, "simulate", "--config", str(config),
                           "--tableau", "DIRK2")
    assert code == 0


def test_simulate_config_setting_every_key_equals_the_flags(capsys, tmp_path):
    # one declaration converts both sources, so the run and its CSVs agree
    settings = dict(model="linear", tableau="DIRK3-B2", b="0.4", eps="1e-3", cfl="0.5",
                    nx="8", p="1", nv="20", vmax="8", T="0.01")
    config = tmp_path / "every.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items())
                      + f"out = {tmp_path / 'file'}\n")
    code, from_file, _ = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 0
    flags = [arg for key, value in settings.items() for arg in (f"--{key}", value)]
    code, from_flags, _ = run_cli(capsys, "simulate", *flags, "--out", str(tmp_path / "flag"))
    assert code == 0
    assert from_file.replace("file_", "flag_") == from_flags
    for name in ("distribution", "macro", "diagnostics"):
        assert ((tmp_path / f"file_{name}.csv").read_bytes()
                == (tmp_path / f"flag_{name}.csv").read_bytes())


def test_simulate_defaults_are_build_case_defaults(capsys, monkeypatch):
    seen = []

    def capture(*args, **kwargs):
        seen.append((args, kwargs))
        raise ValueError("captured")

    monkeypatch.setattr(harness, "build_case", capture)
    assert run_cli(capsys, "simulate")[0] == 2
    assert seen == [((), dict(example="linear", tableau_name="DIRK3-B10", b=None, eps=0.01,
                              cfl=0.5, n_elements=160, degree=2, n_v=100, v_max=15.0,
                              t_final=None))]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("key, value", [
    ("nx", "8x"), ("vmax", "wide"), ("p", "2.5"), ("nv", "1e2"), ("T", "soon"),
    ("b", "0.6x"), ("eps", "1e-2,1e-6"), ("cfl", "half")])
def test_simulate_value_that_does_not_parse_exits_2(capsys, tmp_path, source, key, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    argv = ("--config", str(config)) if source == "config" else (f"--{key}", value)
    short = ("--T", "0.01") if key != "T" else ()  # a flag would override the entry
    code, out, err = run_cli(capsys, "simulate", *short, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {key}: invalid ") and repr(value) in err
    assert err.count("\n") == 1


def test_convergence_value_that_does_not_parse_exits_2(capsys):
    code, _, err = run_cli(capsys, "convergence", "--example", "5.1", "--p", "two")
    assert code == 2
    assert err == "error: p: invalid int value 'two'\n"
    # the same one-line error, and no argparse exit, for every declared
    # value option of every subcommand whose text can fail to convert
    bad = {int: "two", float: "1.5x", cli.parse_grid: "0:1:x", cli.parse_float_list: "1e-2,x"}
    any_text = set()
    for argv, options in ((("order-check", "BE"), cli._ORDER_OPTIONS),
                          (("stability-scan", "--tableau", "BE"), cli._SCAN_OPTIONS),
                          (("simulate",), {**cli._SIM_OPTIONS, **cli._DIAG_OPTIONS}),
                          (("convergence", "--example", "5.1"), cli._SWEEP_OPTIONS)):
        for flag, (_, convert, _, _) in options.items():
            if convert in (str, cli.parse_name_list):
                any_text.add(flag)
                continue
            code, out, err = run_cli(capsys, *argv, f"--{flag}", bad[convert])
            assert code == 2 and out == "", (argv[0], flag)
            assert err.startswith(f"error: {flag}: invalid "), (argv[0], err)
            assert repr(bad[convert]) in err and err.count("\n") == 1, (argv[0], err)
    assert any_text == {"csv", "out", "model", "tableau", "tableaus", "error-on", "slopes-out"}


@pytest.mark.parametrize("command", ["simulate", "convergence"])
def test_help_shows_the_run_defaults(capsys, command):
    with pytest.raises(SystemExit):
        cli.main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for flag, default in (("nx", "160"), ("p", "2"), ("nv", "100"), ("vmax", "15.0")):
        assert re.search(rf"--{flag} \w+ .*?\(default {re.escape(default)}\)", text), flag
    if command == "convergence":
        assert "640 elements instead of 160, and CFLs 1, 2, 4 for the gas model" in text
        assert "reference CFL (default 0.001, 0.01 for the gas model)" in text


def test_simulate_unknown_config_key_exits_2(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("model = linear\nwavelets = 7\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 2
    assert "wavelets" in err


def test_simulate_malformed_config_line_exits_2(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("model = linear\nnx 8\n")
    code, _, err = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 2
    assert "malformed" in err


def test_simulate_repeated_config_key_exits_2(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("model = linear\nnx = 8\nT = 0.02\nnx = 16\n")
    code, out, err = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 2 and out == ""
    assert "repeated key 'nx'" in err


def test_simulate_divergence_exits_3(capsys, monkeypatch):
    def explode(cfg, initial, diagnostics_every=1):
        raise DivergenceError("non-finite values after step 7", step=7)
    monkeypatch.setattr(cli, "run", explode)
    code, _, err = run_cli(capsys, "simulate", "--model", "linear", "--nx", "8",
                           "--T", "0.01")
    assert code == 3
    assert "diverged" in err and "(step 7)" in err


def test_simulate_unphysical_state_exits_3(capsys, monkeypatch):
    def explode(cfg, initial, diagnostics_every=1):
        raise UnphysicalStateError("stage 2 of tableau 'DIRK3-B10': min rho = -1e-3")
    monkeypatch.setattr(cli, "run", explode)
    code, _, err = run_cli(capsys, "simulate", "--model", "bgk", "--nx", "8",
                           "--nv", "12", "--T", "0.01")
    assert code == 3
    assert err.startswith("run diverged:")
    assert "min rho" in err


def test_simulate_bare_simulation_error_exits_3(capsys, monkeypatch):
    def explode(cfg, initial, diagnostics_every=1):
        raise SimulationError("solver gave up", step=4, time=0.002)
    monkeypatch.setattr(cli, "run", explode)
    code, _, err = run_cli(capsys, "simulate", "--model", "linear", "--nx", "8",
                           "--T", "0.01")
    assert code == 3
    assert "solver gave up (step 4, t = 0.002)" in err


def test_simulate_newton_non_convergence_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(models, "NEWTON_MAX_ITER", 0)
    code, _, err = run_cli(capsys, "simulate", "--model", "bgk", "--nx", "8",
                           "--nv", "12", "--T", "0.01")
    assert code == 3
    assert "did not converge" in err


def test_singular_newton_jacobian_is_a_failed_run(capsys, tmp_path):
    # two velocities cannot fix the three parameters of the discrete
    # Maxwellian, so its fit meets a singular Jacobian: simulate exits 3,
    # and a sweep records NaN rows
    coarse = ("--nv", "2", "--nx", "8", "--T", "0.001")
    code, _, err = run_cli(capsys, "simulate", "--model", "bgk", *coarse)
    assert code == 3
    assert err.startswith("run diverged:") and "singular Jacobian" in err
    rows = tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "convergence", "--example", "5.3", "--tableaus", "BE",
                         "--eps", "1e-2", "--cfls", "0.5,1,2", *coarse, "--out", str(rows))
    assert code == 0
    assert [line.split(",")[-1] for line in rows.read_text().split()[1:]] == ["nan"] * 3


def test_failed_run_names_its_step_and_time(capsys):
    # the initial data's fit fails before any step
    code, _, err = run_cli(capsys, "simulate", "--model", "bgk", "--nv", "2", "--nx", "8",
                           "--T", "0.001")
    assert code == 3
    assert err.startswith("run diverged:") and "(step 0, t = 0)" in err


def test_simulate_negative_diagnostics_interval_exits_2(capsys):
    code, out, err = run_cli(capsys, "simulate", "--model", "linear", "--nx", "8",
                             "--T", "0.01", "--diag-every", "-3")
    assert code == 2
    assert "diagnostics_every must be a whole number >= 0, got -3" in err
    assert "completed" not in out


@pytest.mark.parametrize("argv", [
    ("simulate", "--config", "/nonexistent/run.cfg"),
    ("simulate", "--model", "linear", "--nx", "8", "--T", "0.01",
     "--out", "/nonexistent/dir/run"),
    ("stability-scan", "--tableau", "BE", "--b", "0.5", "--kdt", "1", "--xi", "1",
     "--out", "/nonexistent/s.csv"),
    ("order-check", "BE", "--csv", "/nonexistent/c.csv"),
])
def test_file_errors_exit_2(capsys, argv):
    # a file that cannot be read or written is an error line, not a traceback
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "/nonexistent/" in err


@pytest.mark.parametrize("vmax", ["nan", "inf", "1e308"])
def test_simulate_non_finite_velocity_grid_exits_2(capsys, vmax):
    # at 1e308 the grid spacing overflows to inf
    code, out, err = run_cli(capsys, "simulate", "--model", "bgk", "--nx", "8", "--vmax", vmax)
    assert code == 2
    assert "velocities and quadrature weights must be finite" in err
    assert "completed" not in out


def _small_gas_snapshot(capsys, monkeypatch, prefix):
    """Run a small gas-model ``simulate --out prefix``; return its RunResult."""
    seen = []
    real_run = cli.run

    def spy(cfg, initial, diagnostics_every=1):
        seen.append(real_run(cfg, initial, diagnostics_every=diagnostics_every))
        return seen[-1]

    monkeypatch.setattr(cli, "run", spy)
    code, _, _ = run_cli(capsys, "simulate", "--model", "bgk", "--nx", "6", "--p", "1",
                         "--nv", "10", "--cfl", "2", "--T", "0.01", "--out", prefix)
    assert code == 0
    return seen[0]


def test_simulate_distribution_csv_bytes_match_row_list(capsys, tmp_path, monkeypatch):
    # the streamed distribution CSV equals rows_to_csv over all (x, v, f) rows
    result = _small_gas_snapshot(capsys, monkeypatch, str(tmp_path / "gas"))
    x = result.config.mesh.node_coords(1).ravel()
    rows = [(float(xx), float(v), float(val))
            for vi, v in enumerate(result.config.model.velocity_set.v)
            for xx, val in zip(x, result.final.values[vi].ravel())]
    expected = harness.rows_to_csv(rows, ("x", "v", "f")).encode()
    assert (tmp_path / "gas_distribution.csv").read_bytes() == expected


def test_simulate_bgk_macro_csv_bytes(capsys, tmp_path, monkeypatch):
    # the gas macro CSV holds (rho, u, T) of the final moments, byte for byte
    result = _small_gas_snapshot(capsys, monkeypatch, str(tmp_path / "gas"))
    x = result.config.mesh.node_coords(1).ravel()
    U = result.macro.values.reshape(3, -1)
    u = U[1] / U[0]
    T = 2.0 * U[2] / U[0] - u * u
    rows = [tuple(map(float, row)) for row in zip(x, U[0], u, T)]
    expected = harness.rows_to_csv(rows, ("x", "rho", "u", "T")).encode()
    assert (tmp_path / "gas_macro.csv").read_bytes() == expected


def test_simulate_coupling_on_gas_model_exits_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", "bgk", "--nx", "8",
                           "--nv", "20", "--b", "0.3", "--T", "0.01")
    assert code == 2
    assert "coupling b" in err


def test_simulate_coupling_runs_on_build_case_data(capsys, monkeypatch):
    seen = []
    real_run = cli.run

    def capture(cfg, initial, diagnostics_every=1):
        seen.append((cfg, initial))
        return real_run(cfg, initial, diagnostics_every=diagnostics_every)

    monkeypatch.setattr(cli, "run", capture)
    # a negative value in exponent notation is the option's value too
    for text, b in (("0.3", 0.3), ("-5e-1", -0.5)):
        code, _, _ = run_cli(capsys, "simulate", "--model", "linear", "--nx", "8",
                             "--b", text, "--T", "0.01")
        assert code == 0
        cfg, f0 = seen[-1]
        want_cfg, want_f0 = harness.build_case("5.1", "DIRK3-B10", 1e-2, 0.5, n_elements=8,
                                               t_final=0.01, b=b)
        assert cfg.model.b == b
        assert cfg.dt == want_cfg.dt
        np.testing.assert_array_equal(f0.values, want_f0.values)


# ---------------------------------------------------------------------------
# convergence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("example, paper_scale, cfls, nx", [
    ("5.1", False, (0.1, 0.2, 0.4, 0.8), 160), ("linear", True, (0.1, 0.2, 0.4, 0.8), 640),
    ("5.2", False, (0.1, 0.2, 0.4, 0.8), 160), ("nonlinear", True, (0.1, 0.2, 0.4, 0.8), 640),
    ("5.3", False, (0.5, 1.0, 2.0, 4.0), 160), ("bgk", True, (1.0, 2.0, 4.0), 640)])
def test_convergence_preset_defaults(capsys, monkeypatch, example, paper_scale, cfls, nx):
    studies = []

    def capture(study):
        studies.append(study)
        return harness.StudyResult(study=study, rows=())

    monkeypatch.setattr(harness, "run_convergence", capture)
    flags = ["--paper-scale"] if paper_scale else []
    code, _, _ = run_cli(capsys, "convergence", "--example", example, "--tableaus", "BE", *flags)
    assert code == 0
    assert studies[0].cfl_values == cfls
    assert studies[0].n_elements == nx


def test_convergence_subcommand(capsys, tmp_path):
    out_csv = tmp_path / "rows.csv"
    slopes_csv = tmp_path / "slopes.csv"
    code, out, _ = run_cli(capsys, "convergence", "--example", "5.1",
                           "--tableaus", "BE", "--eps", "1e-2",
                           "--cfls", "0.2,0.4,0.8", "--ref-cfl", "0.02",
                           "--nx", "24", "--T", "0.05",
                           "--out", str(out_csv), "--slopes-out", str(slopes_csv))
    assert code == 0
    assert re.search(r"slope = 0\.[89]|slope = 1\.[0-3]", out)
    rows = out_csv.read_text().strip().split("\n")
    assert rows[0] == "example,tableau,eps,cfl,dt,error"
    assert len(rows) == 4
    slopes = slopes_csv.read_text().strip().split("\n")
    assert slopes[0] == "example,tableau,eps,slope"


def test_convergence_byte_identical_reruns(capsys, tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code, _, _ = run_cli(capsys, "convergence", "--example", "5.1",
                             "--tableaus", "BE", "--eps", "1e-2",
                             "--cfls", "0.2,0.4,0.8", "--ref-cfl", "0.02",
                             "--nx", "16", "--T", "0.05", "--out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_convergence_bad_config_exits_2(capsys):
    code, _, err = run_cli(capsys, "convergence", "--example", "5.1",
                           "--tableaus", "BE", "--eps", "1e-2",
                           "--cfls", "0.4,0.8")
    assert code == 2
    assert "3 CFL" in err


@pytest.mark.parametrize("flag, value, name", [
    ("--cfl", "0", "cfl"),
    ("--cfl", "-0.5", "cfl"),
    ("--T", "inf", "t_final"),
    ("--eps", "nan", "eps"),
    ("--eps", "inf", "eps"),
    ("--eps", "-1e-3", "eps"),
    ("--T", "-1e-3", "t_final"),
])
def test_simulate_bad_run_parameter_exits_2(capsys, flag, value, name):
    code, out, err = run_cli(capsys, "simulate", "--model", "linear", "--nx", "8",
                             flag, value)
    assert code == 2
    assert f"{name} must be finite and positive" in err
    assert "completed" not in out


@pytest.mark.parametrize("args, fragment", [
    (("--ref-cfl", "-0.01"), "reference CFL"),
    (("--tableaus", ","), "at least one tableau"),
    (("--cfls", "0.1,0.1,0.1"), "3 CFL values that differ"),
    (("--jobs", "0"), "error: jobs must be a whole number >= 1, got 0"),
    (("--jobs", "-2"), "error: jobs must be a whole number >= 1, got -2"),
    (("--ref-cfl", "-1e-3"), "error: reference CFL -0.001 must be positive"),
    (("--T", "-1e-3"), "error: t_final must be finite and positive, got -0.001"),
])
def test_convergence_degenerate_sweep_exits_2(capsys, monkeypatch, args, fragment):
    def no_run(*a, **k):
        raise AssertionError("a degenerate sweep must be rejected before any run")
    monkeypatch.setattr(harness, "run", no_run)
    code, out, err = run_cli(capsys, "convergence", "--example", "5.1", "--nx", "8",
                             "--tableaus", "BE", "--eps", "1e-2", *args)
    assert code == 2
    assert fragment in err
    assert "runs" not in out


@pytest.mark.parametrize("args, fragment", [
    (("--tableaus", "BE,NOPE"), "'NOPE' is neither a catalog tableau"),
    (("--eps", "1e-2,nan"), "eps must be finite and positive"),
    (("--p", "7"), "degree must be a whole number in 0-4, got 7"),
    (("--tableaus", "BE,DIRK2,BE"), "each tableau may be given once"),
    (("--eps", "1e-2,0.01"), "each eps may be given once"),
    (("--cfls", "0.2,0.4,0.8,0.4"), "each CFL may be given once"),
    (("--cfls", "0.2,0.4,nan"), "cfl must be finite and positive"),
    (("--cfls", "0.2,0.4,inf"), "cfl must be finite and positive"),
])
def test_convergence_bad_sweep_input_exits_2_before_any_run(capsys, monkeypatch, args,
                                                            fragment):
    # every (tableau, eps) case is built before the first run, so a bad
    # input in a later combination costs no runs of the earlier ones
    runs = []
    real_run = harness.run

    def counted_run(*a, **k):
        runs.append(1)
        return real_run(*a, **k)

    monkeypatch.setattr(harness, "run", counted_run)
    code, out, err = run_cli(capsys, "convergence", "--example", "5.1", "--nx", "8",
                             "--tableaus", "BE,DIRK2", "--eps", "1e-2", *args)
    assert code == 2
    assert fragment in err
    assert runs == []
    assert "runs" not in out


def _bad_tableau_files(tmp_path):
    from sldirk.butcher import get_tableau, tableau_to_text
    dirk2 = tableau_to_text(get_tableau("DIRK2"))
    texts = {
        "not_lower": "s = 2\nA = 0.5 0.1 0.5 0.5\n",
        "not_stiffly_accurate": dirk2 + "stiffly_accurate = 0\n",
        "c_mismatch": "s = 2\nA = 0.5 0 0.5 0.5\nc = 0.9 1\n",
    }
    paths = {}
    for key, text in texts.items():
        paths[key] = tmp_path / f"{key}.tab"
        paths[key].write_text(text)
    return paths


@pytest.mark.parametrize("kind, fragment", [
    ("not_lower", "lower triangular"),
    ("not_stiffly_accurate", "stiffly accurate"),
    ("c_mismatch", "row sums"),
])
def test_every_tableau_consumer_rejects_bad_file(capsys, tmp_path, kind, fragment):
    path = str(_bad_tableau_files(tmp_path)[kind])
    for argv in (("order-check", path),
                 ("stability-scan", "--tableau", path, "--b", "0.5", "--kdt", "1",
                  "--xi", "1"),
                 ("simulate", "--tableau", path, "--nx", "8", "--T", "0.01")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert fragment in err, argv
        assert out == "", argv


def test_order_check_output_of_every_catalog_tableau_is_pinned(capsys):
    # sha256 over the order-check output of all 11 catalog tableaus, in
    # catalog order: the printed coefficients and verdicts must stay
    # byte-identical
    import hashlib
    from sldirk.butcher import catalog
    digest = hashlib.sha256()
    for name in catalog():
        code, out, _ = run_cli(capsys, "order-check", name)
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == \
        "18712e9c09f8dea010d98896d923c10baa5f084eaea49619bd2a21d9b725f2c6"


def test_simulate_degree_outside_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "simulate", "--model", "linear", "--nx", "8",
                           "--p", "5", "--T", "0.01")
    assert code == 2
    assert "degree" in err


def test_convergence_degree_outside_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "convergence", "--example", "5.1", "--tableaus", "DIRK2",
                           "--eps", "1e-2", "--cfls", "0.2,0.4,0.8", "--nx", "8", "--p", "5")
    assert code == 2
    assert "degree" in err


def test_convergence_unknown_example_exits_2(capsys):
    code, _, err = run_cli(capsys, "convergence", "--example", "9.9",
                           "--tableaus", "BE", "--eps", "1e-2")
    assert code == 2


def test_help_runs(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for sub in ("order-check", "stability-scan", "simulate", "convergence"):
        assert sub in out
