"""Golden check of desk-size runs: the solver's numerics against stored results.

``data/golden_runs.npz`` holds, per case of ``CASES``, the final
distribution, the macro field and the invariant history of a ``run()``.
A kernel change may reorder roundoff but must keep every field within
``FIELD_RTOL`` of the stored one (max|delta| against max|ref|) and keep
each run's conservation drift within ``DRIFT_TOL``.  The stored results
are fixed: write them again only for a change that is meant to move the
numerics, with ``PYTHONPATH=src python tests/test_golden.py --write``.
"""

import pathlib
import sys

import numpy as np
import pytest

from sldirk.harness import build_case
from sldirk.sl_solver import run

GOLDEN = pathlib.Path(__file__).with_name("data") / "golden_runs.npz"

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


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN, **{f"{name}/{field}": array for name in CASES
                                   for field, array in golden_run(name).items()})
    print(f"wrote {GOLDEN}")
