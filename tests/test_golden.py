"""Golden check of desk-size runs and of the tableau catalog: the numerics
against stored results.

``data/golden_runs.npz`` holds, per case of ``CASES``, the final
distribution, the macro field and the invariant history of a ``run()``.
A kernel change may reorder roundoff but must keep every field within
``FIELD_RTOL`` of the stored one (max|delta| against max|ref|) and keep
each run's conservation drift within ``DRIFT_TOL``.

``data/golden_orders.npz`` holds the row errors and the slopes of the two
sweeps of acceptance criterion 9 (``ORDER_STUDIES``).  Each must stay
within ``FIELD_RTOL`` of its stored figure, relative to that figure.

``data/golden_tableaus.npz`` holds, per catalog tableau, the residuals of
``order_report`` (named by ``residual_names``), the largest spectral
radius of a ``scan`` over ``SCAN_GRID`` and the grid point (b, k_dt, xi)
where it lies.  They must stay within ``RESIDUAL_ATOL`` and ``RHO_RTOL``
of the stored figures, and the point must be the stored one exactly.

The stored results are fixed: write a file again only for a change that is
meant to move its numerics, with
``PYTHONPATH=src python tests/test_golden.py --write runs`` (or ``orders``
or ``tableaus``).
"""

import pathlib
import sys

import numpy as np
import pytest

from sldirk.butcher import catalog
from sldirk.harness import ConvergenceStudy, build_case, run_convergence
from sldirk.order_analysis import order_report
from sldirk.sl_solver import run
from sldirk.stability import scan

GOLDEN = pathlib.Path(__file__).with_name("data") / "golden_runs.npz"
GOLDEN_ORDERS = GOLDEN.with_name("golden_orders.npz")
GOLDEN_TABLEAUS = GOLDEN.with_name("golden_tableaus.npz")

#: largest field deviation, relative to the field's largest magnitude
FIELD_RTOL = 1e-12
#: largest invariant drift over a run, relative to the invariant's largest magnitude
DRIFT_TOL = 1e-10

#: name -> build_case arguments; each run makes 24-640 steps.
#: The gas cases cover a remap past the gather budget (degree 2, 160 x 100)
#: and one that groups several terms (degree 4, 40 x 50)
CASES = {
    "5.1-DIRK3-B10": dict(example="5.1", tableau_name="DIRK3-B10", eps=1e-6, cfl=0.05),
    "5.1-DIRK3-B2": dict(example="5.1", tableau_name="DIRK3-B2", eps=1e-2, cfl=0.1),
    "5.2-DIRK3-B10": dict(example="5.2", tableau_name="DIRK3-B10", eps=1e-3, cfl=0.15),
    "5.3-p2": dict(example="5.3", tableau_name="DIRK3-B10", eps=1e-6, cfl=0.5),
    "5.3-p4": dict(example="5.3", tableau_name="DIRK3-B10", eps=1e-2, cfl=0.5,
                   n_elements=40, degree=4, n_v=50),
}

FIELDS = ("final", "macro", "invariants")


def golden_run(name: str) -> dict[str, np.ndarray]:
    """The stored arrays of case ``name``, computed by the current code."""
    cfg, f0 = build_case(**CASES[name])
    result = run(cfg, f0, diagnostics_every=1)
    return {"final": result.final.values, "macro": result.macro.values,
            "invariants": result.invariants}


def mismatches(got: dict, ref: dict) -> list[str]:
    """The fields of ``got`` off ``ref`` by more than ``FIELD_RTOL``, and a
    drift past ``DRIFT_TOL``, each with its figure; empty when all hold."""
    bad = []
    for field in FIELDS:
        scale = np.max(np.abs(ref[field]))
        delta = np.max(np.abs(got[field] - ref[field]))
        if not delta <= FIELD_RTOL * scale:
            bad.append(f"{field}: max|delta| {delta:.3g} against max|ref| {scale:.3g}")
    inv = got["invariants"]
    drift = np.max(np.abs(inv - inv[0]) / np.max(np.abs(inv), axis=0))
    if not drift <= DRIFT_TOL:
        bad.append(f"invariant drift {drift:.3g}")
    return bad


def _stored(name: str) -> dict[str, np.ndarray]:
    with np.load(GOLDEN) as data:
        return {field: data[f"{name}/{field}"] for field in FIELDS}


@pytest.fixture(scope="module")
def runs():
    return {name: golden_run(name) for name in CASES}


def test_runs_match_the_golden_results(runs):
    for name, got in runs.items():
        assert mismatches(got, _stored(name)) == [], name


def test_golden_check_fails_on_a_perturbed_copy(runs):
    # a 1e-9 relative change of one entry of any stored field must fail,
    # so the tolerance cannot loosen unseen
    for name, got in runs.items():
        for field in FIELDS:
            ref = _stored(name)
            flat = ref[field].reshape(-1)
            i = int(np.argmax(np.abs(flat)))
            flat[i] += 1e-9 * abs(flat[i])
            assert [m.split(":")[0] for m in mismatches(got, ref)] == [field], (name, field)


# ---------------------------------------------------------------------------
# the order sweeps of acceptance criterion 9
# ---------------------------------------------------------------------------

#: name -> ConvergenceStudy arguments: preset 5.1 at degree 3 on 160
#: elements to T = 0.2, in the fluid limit and in the kinetic regime
_ORDER_CFLS = (0.075, 0.15, 0.3, 0.6)
ORDER_STUDIES = {
    "fluid": dict(example="5.1", tableaus=("DIRK3-B2", "DIRK3-B10"), eps_values=(1e-10,),
                  cfl_values=_ORDER_CFLS, degree=3),
    "kinetic": dict(example="5.1", tableaus=("DIRK3-B2",), eps_values=(1e-2,),
                    cfl_values=_ORDER_CFLS, degree=3),
}


def order_figures(name: str) -> dict[str, np.ndarray]:
    """The row errors and the slopes of sweep ``name``, computed by the current code."""
    result = run_convergence(ConvergenceStudy(**ORDER_STUDIES[name]))
    return {"errors": np.array([row.error for row in result.rows]),
            "slopes": np.array(list(result.slopes.values()))}


def order_mismatches(got: dict, ref: dict) -> list[str]:
    """The figures of ``got`` off ``ref`` by more than ``FIELD_RTOL`` of the
    stored figure, each with its largest relative change; empty when all hold."""
    bad = []
    for key in ("errors", "slopes"):
        rel = np.max(np.abs(got[key] - ref[key]) / np.abs(ref[key]))
        if not rel <= FIELD_RTOL:
            bad.append(f"{key}: relative delta {rel:.3g}")
    return bad


def _stored_orders(name: str) -> dict[str, np.ndarray]:
    with np.load(GOLDEN_ORDERS) as data:
        return {key: data[f"{name}/{key}"] for key in ("errors", "slopes")}


@pytest.fixture(scope="module")
def order_runs():
    return {name: order_figures(name) for name in ORDER_STUDIES}


def test_order_sweeps_match_the_golden_figures(order_runs):
    with np.load(GOLDEN_ORDERS) as data:
        assert {key.split("/")[0] for key in data.files} == set(order_runs)
    # criterion 9's three slopes: two in the fluid limit, one kinetic
    assert sum(got["slopes"].size for got in order_runs.values()) == 3
    for name, got in order_runs.items():
        assert got["errors"].shape == (4 * got["slopes"].size,), name
        assert order_mismatches(got, _stored_orders(name)) == [], name


def test_order_check_fails_on_a_perturbed_copy(order_runs):
    # a 1e-9 relative change of any one stored error or slope must fail
    for name, got in order_runs.items():
        for key in ("errors", "slopes"):
            for i in range(got[key].size):
                ref = _stored_orders(name)
                ref[key][i] *= 1 + 1e-9
                assert [m.split(":")[0] for m in order_mismatches(got, ref)] == [key], \
                    (name, key, i)


# ---------------------------------------------------------------------------
# tableau catalog
# ---------------------------------------------------------------------------

#: largest deviation of an order-condition residual
RESIDUAL_ATOL = 1e-14
#: largest deviation of a tableau's largest spectral radius, relative to it
RHO_RTOL = 1e-12
#: the (b, k_dt, xi) grid of the stored scans, a reduced default grid
SCAN_GRID = (np.linspace(0.0, 1.0, 21), np.linspace(0.0, 2.0 * np.pi, 81),
             np.append(np.linspace(0.0, 10.0, 21), np.inf))


def tableau_figures(name: str) -> dict[str, np.ndarray]:
    """The stored figures of catalog tableau ``name``, computed by the current code."""
    tableau = catalog()[name]
    residuals = order_report(tableau).residuals
    rho, *point = scan(tableau, *SCAN_GRID).max_point()
    return {"residual_names": np.array(list(residuals)),
            "residuals": np.array(list(residuals.values())),
            "rho": np.array(rho), "max_point": np.array(point)}


def tableau_mismatches(got: dict, ref: dict) -> list[str]:
    """The figures of ``got`` off ``ref`` past their tolerance, each with its
    figure; empty when all hold."""
    if not np.array_equal(got["residual_names"], ref["residual_names"]):
        return [f"residual_names: {list(got['residual_names'])}"]
    bad = []
    delta = np.max(np.abs(got["residuals"] - ref["residuals"]))
    if not delta <= RESIDUAL_ATOL:
        bad.append(f"residuals: max|delta| {delta:.3g}")
    rel = abs(got["rho"] - ref["rho"]) / abs(ref["rho"])
    if not rel <= RHO_RTOL:
        bad.append(f"rho: relative delta {rel:.3g}")
    if not np.array_equal(got["max_point"], ref["max_point"]):
        bad.append(f"max_point: {got['max_point']} against {ref['max_point']}")
    return bad


def _stored_tableau(name: str) -> dict[str, np.ndarray]:
    with np.load(GOLDEN_TABLEAUS) as data:
        return {key: data[f"{name}/{key}"]
                for key in ("residual_names", "residuals", "rho", "max_point")}


@pytest.fixture(scope="module")
def tableau_runs():
    return {name: tableau_figures(name) for name in catalog()}


def test_tableaus_match_the_golden_figures(tableau_runs):
    with np.load(GOLDEN_TABLEAUS) as data:
        assert {key.split("/")[0] for key in data.files} == set(tableau_runs)
    for name, got in tableau_runs.items():
        assert tableau_mismatches(got, _stored_tableau(name)) == [], name


def test_tableau_check_fails_on_a_perturbed_copy(tableau_runs):
    # a residual moved by twice its tolerance, rho by ten times its own, or
    # the maximum point by one ulp of one coordinate must fail, so no
    # tolerance can loosen unseen
    for name, got in tableau_runs.items():
        ref = _stored_tableau(name)
        ref["residuals"][-1] += 2 * RESIDUAL_ATOL
        assert [m.split(":")[0] for m in tableau_mismatches(got, ref)] == ["residuals"], name
        ref = _stored_tableau(name)
        ref["rho"] = ref["rho"] * (1 + 10 * RHO_RTOL)
        assert [m.split(":")[0] for m in tableau_mismatches(got, ref)] == ["rho"], name
        for axis in range(3):
            ref = _stored_tableau(name)
            ref["max_point"][axis] = np.nextafter(ref["max_point"][axis], 1.0)
            assert [m.split(":")[0] for m in tableau_mismatches(got, ref)] == ["max_point"], \
                (name, axis)


if __name__ == "__main__" and sys.argv[1:2] == ["--write"]:
    GOLDEN.parent.mkdir(exist_ok=True)
    if sys.argv[2:] == ["runs"]:
        np.savez_compressed(GOLDEN, **{f"{name}/{field}": array for name in CASES
                                       for field, array in golden_run(name).items()})
        print(f"wrote {GOLDEN}")
    elif sys.argv[2:] == ["orders"]:
        np.savez_compressed(GOLDEN_ORDERS, **{
            f"{name}/{key}": array for name in ORDER_STUDIES
            for key, array in order_figures(name).items()})
        print(f"wrote {GOLDEN_ORDERS}")
    elif sys.argv[2:] == ["tableaus"]:
        np.savez_compressed(GOLDEN_TABLEAUS, **{
            f"{name}/{key}": array for name in catalog()
            for key, array in tableau_figures(name).items()})
        print(f"wrote {GOLDEN_TABLEAUS}")
