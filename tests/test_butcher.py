import numpy as np
import pytest

from sldirk.butcher import (ButcherTableau, catalog, get_tableau, load_tableau,
                            parse_key_values, resolve_tableau, tableau_from_text,
                            tableau_to_text, to_shu_osher)
from conftest import random_sa_dirk

NU = 1.0 - np.sqrt(2.0) / 2.0


def test_validate_backward_euler_clean():
    t = ButcherTableau("be", [[1.0]])
    assert t.s == 1
    np.testing.assert_array_equal(t.c, [1.0])
    np.testing.assert_array_equal(t.b_weights, [1.0])


def test_validate_dirk2_clean():
    t = ButcherTableau("DIRK2", get_tableau("DIRK2").A)
    np.testing.assert_allclose(t.c, [NU, 1.0], atol=1e-15)
    np.testing.assert_allclose(t.b_weights, [1.0 - NU, NU], atol=1e-15)


def test_validate_flags_nonpositive_diagonal():
    with pytest.raises(ValueError, match="nonpositive diagonal at stage"):
        ButcherTableau("bad", [[0.5, 0.0], [1.0, 0.0]])


def test_validate_flags_upper_triangle_and_row_sums():
    with pytest.raises(ValueError, match="lower triangular"):
        ButcherTableau("bad", [[0.5, 0.1], [0.5, 0.5]])
    # a tableau file's c is checked against the row sums of A
    text = "s = 2\nA = 0.5 0 0.5 0.5\nc = 0.9 1\n"
    with pytest.raises(ValueError, match="row sums"):
        tableau_from_text(text)


def test_validate_flags_broken_stiff_accuracy():
    with pytest.raises(ValueError, match="stiffly accurate"):
        ButcherTableau("bad", [[0.5, 0.0], [0.25, 0.5]])


@pytest.mark.parametrize("A, fragment", [
    ([[1.0, 0.0]], "shape"),
    ([[[1.0]]], "shape"),
    ([], "shape"),
    ([[np.nan]], "non-finite"),
    ([[0.5, 0.0], [np.inf, 0.5]], "non-finite"),
    ([[np.nan, 0.0], [0.0, 1.0]], "nonpositive diagonal"),
])
def test_construction_rejects_malformed_matrix(A, fragment):
    with pytest.raises(ValueError, match=fragment):
        ButcherTableau("bad", A)


def test_derived_values_are_read_only_and_not_init_fields():
    import dataclasses
    assert [f.name for f in dataclasses.fields(ButcherTableau) if f.init] == ["name", "A"]
    t = get_tableau("DIRK3-B10")
    for arr in (t.A, t.c, t.b_weights):
        with pytest.raises(ValueError):
            arr[0] = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.c = np.ones(4)
    with pytest.raises(TypeError):
        ButcherTableau("midpoint", [[0.5]], c=[0.5])


def test_construction_copies_the_caller_matrix():
    A = np.array([[1.0]])
    t = ButcherTableau("be", A)
    A[0, 0] = 2.0
    assert t.A[0, 0] == 1.0


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
    # the rewrite divides by the diagonal, so such a tableau cannot be built
    with pytest.raises(ValueError, match="nonpositive diagonal"):
        ButcherTableau("bad", [[1.0, 0.0], [1.0, 0.0]])


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
        np.testing.assert_array_equal(ButcherTableau(name, t.A).c, t.c)
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
    with pytest.raises(ValueError, match="unknown tableau"):
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


def test_catalog_matrices_and_abscissae_are_pinned():
    # sha256 over A and c of every catalog tableau, in catalog order: the
    # catalog entries must stay bit-identical
    import hashlib
    digest = hashlib.sha256()
    for t in catalog().values():
        digest.update(t.A.tobytes())
        digest.update(t.c.tobytes())
    assert digest.hexdigest() == \
        "efc385e39d389b4c82403b61b2c51bfed81ce504c6ea49314d70dd1e04019b4f"


def test_text_without_c_and_b_builds_the_same_tableau():
    for t in catalog().values():
        text = "".join(line + "\n" for line in tableau_to_text(t).splitlines()
                       if not line.startswith(("c =", "b =")))
        back = tableau_from_text(text)
        np.testing.assert_array_equal(back.A, t.A)
        np.testing.assert_array_equal(back.c, t.c)


def test_text_checks_given_c_and_b_against_a():
    text = tableau_to_text(get_tableau("DIRK2"))
    assert "stiffly_accurate" not in text
    # older files carry the flag; 1 is accepted, 0 is rejected
    tableau_from_text(text + "stiffly_accurate = 1\n")
    with pytest.raises(ValueError, match="stiffly accurate"):
        tableau_from_text(text + "stiffly_accurate = 0\n")
    lines = text.splitlines()
    b_line = next(i for i, line in enumerate(lines) if line.startswith("b ="))
    for bad_b, fragment in (("0.5 0.5", "last row"), ("1.0", "entries")):
        lines[b_line] = f"b = {bad_b}"
        with pytest.raises(ValueError, match=fragment):
            tableau_from_text("\n".join(lines) + "\n")


def test_text_parse_errors():
    with pytest.raises(ValueError, match="missing keys"):
        tableau_from_text("s = 2\n")
    with pytest.raises(ValueError, match="entries"):
        tableau_from_text("s = 2\nA = 1 0 1\nc = 0.5 1\nb = 0.5 0.5\n")
    with pytest.raises(ValueError, match="malformed"):
        tableau_from_text("not a key value line\n")
    with pytest.raises(ValueError, match="repeated key 's'"):
        tableau_from_text("s = 1\nA = 1\ns = 2\n")


def test_text_rejects_unknown_keys():
    text = tableau_to_text(get_tableau("DIRK2"))
    for extra in ("stifly_accurate = 1", "b_weights = 0.7 0.3"):
        key = extra.split()[0]
        with pytest.raises(ValueError) as info:
            tableau_from_text(text + extra + "\n")
        assert str(info.value) == (f"unknown tableau keys ['{key}']; expected a subset of "
                                   "['A', 'b', 'c', 'name', 's', 'stiffly_accurate']")


@pytest.mark.parametrize("text,message", [
    ("s = 1.5\nA = 1.0\n", "s: invalid int value '1.5'"),
    ("s = 1\nA = 1 x\n", "A: invalid float list value '1 x'"),
    ("s = 1\nA = 1.0\nstiffly_accurate = yes\n", "stiffly_accurate: invalid int value 'yes'"),
    ("s = 1\nA = 1.0\nstiffly_accurate = 2\n",
     "stiffly_accurate = 2: only stiffly accurate tableaus are supported"),
    ("s = 1\nA = 1.0\nc = one\n", "c: invalid float list value 'one'"),
    ("s = 1\nA = 1.0\nb = 1,0\n", "b: invalid float list value '1,0'"),
    ("s = -1\nA = 1.0\n", "s must be >= 1, got -1"),
    ("s = 0\nA =\n", "s must be >= 1, got 0"),
])
def test_text_value_errors_name_their_key(text, message):
    with pytest.raises(ValueError) as info:
        tableau_from_text(text)
    assert str(info.value) == message


def test_parse_key_values_rejects_repeated_keys():
    assert parse_key_values("eps = 1\n# eps = 3\nnx = 8\n") == {"eps": "1", "nx": "8"}
    with pytest.raises(ValueError, match="repeated key 'eps'"):
        parse_key_values("eps = 1\n eps=2 # again\n")


def test_load_and_resolve_from_file(tmp_path):
    path = tmp_path / "custom.tab"
    path.write_text(tableau_to_text(get_tableau("DIRK2")))
    t = load_tableau(path)
    assert t.s == 2
    t2 = resolve_tableau(str(path))
    np.testing.assert_array_equal(t2.A, t.A)
    with pytest.raises(ValueError):
        resolve_tableau("no-such-tableau-or-file")


def test_tableau_arrays_read_only():
    t = get_tableau("DIRK2")
    with pytest.raises(ValueError):
        t.A[0, 0] = 2.0
