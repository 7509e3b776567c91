import numpy as np
import pytest

from sldirk.butcher import (ButcherTableau, catalog, get_tableau, load_tableau,
                            resolve_tableau, tableau_from_text, tableau_to_text,
                            to_shu_osher, validate_tableau)
from conftest import random_sa_dirk

NU = 1.0 - np.sqrt(2.0) / 2.0


def test_validate_backward_euler_clean():
    t = ButcherTableau(name="be", A=[[1.0]], c=[1.0], b_weights=[1.0])
    assert validate_tableau(t) == []


def test_validate_dirk2_clean():
    assert validate_tableau(get_tableau("DIRK2")) == []


def test_validate_flags_nonpositive_diagonal():
    t = ButcherTableau(name="bad", A=[[0.5, 0.0], [0.5, 0.0]], c=[0.5, 0.5],
                       b_weights=[0.5, 0.0], stiffly_accurate=False)
    report = validate_tableau(t)
    assert any("nonpositive diagonal" in line for line in report)


def test_validate_flags_upper_triangle_and_row_sums():
    t = ButcherTableau(name="bad", A=[[0.5, 0.1], [0.2, 0.5]], c=[0.9, 0.7],
                       b_weights=[0.2, 0.5], stiffly_accurate=False)
    report = validate_tableau(t)
    assert any("lower triangular" in line for line in report)
    assert any("row sums" in line for line in report)


def test_validate_flags_broken_stiff_accuracy():
    t = ButcherTableau(name="bad", A=[[0.5, 0.0], [0.25, 0.5]], c=[0.5, 0.75],
                       b_weights=[0.25, 0.5], stiffly_accurate=True)
    report = validate_tableau(t)
    assert any("stiffly accurate" in line for line in report)


# ---------------------------------------------------------------------------
# Shu-Osher conversion
# ---------------------------------------------------------------------------

def _shu_osher_oracle(A):
    """Independent recursive evaluation of the coefficient relation."""
    s = A.shape[0]

    def w(k, j):
        acc = A[k, j] / A[j, j]
        for l in range(j + 1, k):
            acc -= A[k, l] * w(l, j) / A[l, l]
        return acc

    out = np.zeros((s, s))
    for k in range(s):
        for j in range(k):
            out[k, j] = w(k, j)
    return out


def test_shu_osher_single_stage_empty():
    so = to_shu_osher(get_tableau("BE"))
    assert so.b_coeffs.shape == (1, 1)
    assert np.all(so.b_coeffs == 0.0)


def test_shu_osher_dirk2_subdiagonal():
    so = to_shu_osher(get_tableau("DIRK2"))
    # (1 - nu) / nu = 1 + sqrt(2)
    assert so.b_coeffs[1, 0] == pytest.approx(2.414213562373095, abs=1e-14)


def test_shu_osher_matches_recursive_oracle_on_dirk3():
    t = get_tableau("DIRK3-B2")
    so = to_shu_osher(t)
    np.testing.assert_allclose(so.b_coeffs, _shu_osher_oracle(t.A), atol=1e-14)


def test_shu_osher_matches_recursive_oracle_random(rng):
    for _ in range(50):
        t = random_sa_dirk(rng, int(rng.integers(2, 6)))
        so = to_shu_osher(t)
        np.testing.assert_allclose(so.b_coeffs, _shu_osher_oracle(t.A),
                                   rtol=1e-12, atol=1e-12)


def test_shu_osher_b10_exact_fractions():
    so = to_shu_osher(get_tableau("DIRK3-B10"))
    expected = {(1, 0): 4 / 7, (2, 0): 89 / 36, (2, 1): -49 / 36,
                (3, 0): -89 / 12, (3, 1): 49 / 12, (3, 2): 3.0}
    for (k, j), val in expected.items():
        assert so.b_coeffs[k, j] == pytest.approx(val, abs=1e-13)


def test_shu_osher_requires_positive_diagonal():
    t = ButcherTableau(name="bad", A=[[1.0, 0.0], [1.0, 0.0]], c=[1.0, 1.0],
                       b_weights=[1.0, 0.0], stiffly_accurate=False)
    with pytest.raises(ValueError):
        to_shu_osher(t)


def _stage_values_plain(A, L, dt, f0):
    """Stage values of the scheme applied to f' = L f, solved directly."""
    s = A.shape[0]
    n = len(f0)
    stages = []
    eye = np.eye(n)
    for k in range(s):
        rhs = f0.copy()
        for j in range(k):
            rhs += dt * A[k, j] * (L @ stages[j])
        stages.append(np.linalg.solve(eye - dt * A[k, k] * L, rhs))
    return stages


def _stage_values_shu_osher(so, L, dt, f0):
    stages = []
    n = len(f0)
    eye = np.eye(n)
    for k in range(so.s):
        rhs = (1.0 - so.b_coeffs[k, :k].sum()) * f0
        for j in range(k):
            rhs = rhs + so.b_coeffs[k, j] * stages[j]
        stages.append(np.linalg.solve(eye - dt * so.diag[k] * L, rhs))
    return stages


def test_shu_osher_form_reproduces_stage_updates(rng):
    # literal algebraic equivalence of the two stage formulations on a
    # linear 2x2 operator with random data
    L = np.array([[-0.2, 0.8], [0.2, -0.8]])
    for _ in range(100):
        t = random_sa_dirk(rng, int(rng.integers(1, 6)))
        so = to_shu_osher(t)
        f0 = rng.normal(size=2)
        dt = rng.uniform(0.01, 0.5)
        a = _stage_values_plain(t.A, L, dt, f0)
        b = _stage_values_shu_osher(so, L, dt, f0)
        for sa, sb in zip(a, b):
            np.testing.assert_allclose(sa, sb, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_contents():
    names = set(catalog())
    assert names == {"BE", "DIRK2", "DIRK3-B2"} | {f"DIRK3-B{i}" for i in range(3, 11)}


def test_catalog_all_valid_and_stiffly_accurate():
    for name, t in catalog().items():
        assert validate_tableau(t) == [], name
        assert abs(t.c[-1] - 1.0) <= 1e-12, name
        np.testing.assert_allclose(t.A[-1], t.b_weights, atol=1e-12)


def test_catalog_b10_entries():
    t = get_tableau("DIRK3-B10")
    np.testing.assert_allclose(t.A[3], [0.0, 0.0, 0.75, 0.25], atol=0)
    np.testing.assert_allclose(t.c, [0.25, 11.0 / 28.0, 1.0 / 3.0, 1.0], atol=1e-15)


def test_catalog_b2_diagonal_root():
    t = get_tableau("DIRK3-B2")
    g = t.A[0, 0]
    # real root of 6 g^3 - 18 g^2 + 9 g - 1
    assert abs(((6 * g - 18) * g + 9) * g - 1) < 1e-14
    assert g == pytest.approx(0.435866521508459, abs=1e-12)


def test_catalog_b2_diagonal_literal_is_brentq_root():
    # the catalog stores the root as a literal; it must be the value the
    # bracketing solver returns, bit for bit
    from scipy.optimize import brentq
    poly = lambda g: ((6.0 * g - 18.0) * g + 9.0) * g - 1.0
    root = brentq(poly, 0.4, 0.5, xtol=1e-16, rtol=8.881784197001252e-16)
    assert root == catalog()["DIRK3-B2"].A[0, 0]


def test_import_does_not_load_scipy():
    import os
    import subprocess
    import sys
    from pathlib import Path
    import sldirk
    src = str(Path(sldirk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, sldirk; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "False"


def test_catalog_b3_entry():
    assert get_tableau("DIRK3-B3").A[0, 0] == 1.482285978970554


def test_get_tableau_unknown():
    with pytest.raises(KeyError, match="unknown tableau"):
        get_tableau("DIRK9")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_text_round_trip():
    for name, t in catalog().items():
        back = tableau_from_text(tableau_to_text(t))
        assert back.name == name
        np.testing.assert_array_equal(back.A, t.A)
        np.testing.assert_array_equal(back.c, t.c)
        np.testing.assert_array_equal(back.b_weights, t.b_weights)
        assert back.stiffly_accurate == t.stiffly_accurate


def test_text_parse_errors():
    with pytest.raises(ValueError, match="missing keys"):
        tableau_from_text("s = 2\n")
    with pytest.raises(ValueError, match="entries"):
        tableau_from_text("s = 2\nA = 1 0 1\nc = 0.5 1\nb = 0.5 0.5\n")
    with pytest.raises(ValueError, match="malformed"):
        tableau_from_text("not a key value line\n")


def test_load_and_resolve_from_file(tmp_path):
    path = tmp_path / "custom.tab"
    path.write_text(tableau_to_text(get_tableau("DIRK2")))
    t = load_tableau(path)
    assert t.s == 2
    t2 = resolve_tableau(str(path))
    np.testing.assert_array_equal(t2.A, t.A)
    with pytest.raises(KeyError):
        resolve_tableau("no-such-tableau-or-file")


def test_tableau_arrays_read_only():
    t = get_tableau("DIRK2")
    with pytest.raises(ValueError):
        t.A[0, 0] = 2.0
