import numpy as np
import pytest

from sldirk.butcher import ButcherTableau, catalog, get_tableau, to_shu_osher
from sldirk.stability import (DEFAULT_KDT_GRID, DEFAULT_XI_GRID, XI_INF,
                              StabilityPoint, amplification, eigenvalues_2x2,
                              equilibrium_projection, relaxation_jacobian,
                              scan, spectral_radius, stage_inverse)
from conftest import assert_close, random_sa_dirk

#: weights (a, b, a): two distinct weights, one of them twice, so 3 x 2 terms
_MIXED = ButcherTableau("mixed", [[0.3, 0.0, 0.0], [0.2, 0.5, 0.0], [0.4, 0.3, 0.3]])


def _mode_recursion_oracle(t, b, k_dt, xi):
    """Independent per-mode stage recursion: build the one-step matrix by
    pushing the two unit coefficient vectors through the stage relations,
    with numpy's generic inverse instead of the closed forms."""
    so = to_shu_osher(t)
    J = 0.5 * np.array([[-1.0 + b, 1.0 + b], [1.0 - b, -1.0 - b]])
    cols = []
    for start in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        stages = []
        for l in range(so.s):
            rhs = (1.0 - so.b_coeffs[l, :l].sum()) * \
                np.array([np.exp(-1j * k_dt * so.c[l]), np.exp(1j * k_dt * so.c[l])]) * start
            for j in range(l):
                d = so.c[l] - so.c[j]
                rhs = rhs + so.b_coeffs[l, j] * \
                    np.array([np.exp(-1j * k_dt * d), np.exp(1j * k_dt * d)]) * stages[j]
            if np.isinf(xi):
                stages.append(equilibrium_projection(b) @ rhs)
            else:
                stages.append(np.linalg.inv(np.eye(2) - so.diag[l] * xi * J) @ rhs)
        cols.append(stages[-1])
    return np.stack(cols, axis=1)


def test_relaxation_jacobian_substitutions():
    np.testing.assert_allclose(relaxation_jacobian(0.0),
                               0.5 * np.array([[-1.0, 1.0], [1.0, -1.0]]))
    np.testing.assert_allclose(relaxation_jacobian(1.0),
                               np.array([[0.0, 1.0], [0.0, -1.0]]))


def test_relaxation_jacobian_eigenvalues(rng):
    for b in rng.uniform(0.0, 1.0, size=20):
        lam = np.sort(np.linalg.eigvals(relaxation_jacobian(b)).real)
        np.testing.assert_allclose(lam, [-1.0, 0.0], atol=1e-14)


def test_stage_inverse_closed_form_unit_weight():
    b, xi = 0.3, 4.0
    expected = np.array([[1 + (1 + b) / 2 * xi, (1 + b) / 2 * xi],
                         [(1 - b) / 2 * xi, 1 + (1 - b) / 2 * xi]]) / (1 + xi)
    np.testing.assert_allclose(stage_inverse(1.0, xi, b), expected, atol=1e-15)


def test_stage_inverse_matches_numpy_inverse(rng):
    for _ in range(50):
        a = rng.uniform(0.05, 3.0)
        xi = rng.uniform(0.0, 50.0)
        b = rng.uniform(0.0, 1.0)
        direct = np.linalg.inv(np.eye(2) - a * xi * relaxation_jacobian(b))
        np.testing.assert_allclose(stage_inverse(a, xi, b), direct,
                                   rtol=1e-12, atol=1e-12)


def test_stage_inverse_xi_zero_identity():
    np.testing.assert_array_equal(stage_inverse(0.7, 0.0, 0.4), np.eye(2))


def test_stage_inverse_infinite_limit():
    np.testing.assert_allclose(stage_inverse(1.0, XI_INF, 0.0),
                               np.full((2, 2), 0.5), atol=1e-15)


def test_stage_inverse_limit_continuity(rng):
    # analytic projection agrees with a huge finite xi
    for _ in range(100):
        a = rng.uniform(0.05, 3.0)
        b = rng.uniform(0.0, 1.0)
        far = stage_inverse(a, 1e12, b)
        lim = stage_inverse(a, XI_INF, b)
        assert np.max(np.abs(far - lim)) < 1e-6


def test_stage_inverse_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        stage_inverse(0.0, 1.0, 0.5)


def test_spectral_radius_limit_continuity(rng):
    # the radius at a huge finite xi agrees with the analytic limit matrix
    for _ in range(100):
        name = ("DIRK2", "DIRK3-B2", "DIRK3-B10")[int(rng.integers(0, 3))]
        t = get_tableau(name)
        b = float(rng.uniform(0.0, 1.0))
        kdt = float(rng.uniform(0.0, 2.0 * np.pi))
        far = spectral_radius(amplification(t, StabilityPoint(b, kdt, 1e12)).m)
        lim = spectral_radius(amplification(t, StabilityPoint(b, kdt, XI_INF)).m)
        assert abs(far - lim) < 1e-6


# ---------------------------------------------------------------------------
# amplification matrices
# ---------------------------------------------------------------------------

def test_amplification_backward_euler_closed_form(rng):
    t = get_tableau("BE")
    for _ in range(20):
        b = rng.uniform(0.0, 1.0)
        kdt = rng.uniform(0.0, 2.0 * np.pi)
        xi = rng.uniform(0.0, 20.0)
        m = amplification(t, StabilityPoint(b, kdt, xi)).m
        R = np.array([[1 + (1 + b) / 2 * xi, (1 + b) / 2 * xi],
                      [(1 - b) / 2 * xi, 1 + (1 - b) / 2 * xi]]) / (1 + xi)
        expected = R @ np.diag([np.exp(-1j * kdt), np.exp(1j * kdt)])
        np.testing.assert_allclose(m, expected, atol=1e-14)


def test_amplification_xi_zero_pure_advection(rng):
    for name in ("DIRK2", "DIRK3-B2", "DIRK3-B10"):
        t = get_tableau(name)
        kdt = 1.234
        m = amplification(t, StabilityPoint(0.5, kdt, 0.0)).m
        np.testing.assert_allclose(
            m, np.diag([np.exp(-1j * kdt), np.exp(1j * kdt)]), atol=1e-13)
        assert spectral_radius(m) == pytest.approx(1.0, abs=1e-13)


def test_amplification_dirk2_limit_matrix_entrywise():
    t = get_tableau("DIRK2")
    so = to_shu_osher(t)
    w = so.b_coeffs[1, 0]
    c1, c2 = t.c
    e = lambda th: np.exp(1j * th)
    for b in (0.0, 0.35, 0.6):
        for kdt in (0.3, 2.2, 5.0):
            top = (1 + (-1 + b) / 2 * w) * e(-kdt * c2) + (1 - b) / 2 * w * e(kdt * (c2 - 2 * c1))
            bot = (1 + b) / 2 * w * e(-kdt * (c2 - 2 * c1)) + (1 + (-1 - b) / 2 * w) * e(kdt * c2)
            expected = np.array([[(1 + b) / 2 * top, (1 + b) / 2 * bot],
                                 [(1 - b) / 2 * top, (1 - b) / 2 * bot]])
            m = amplification(t, StabilityPoint(b, kdt, XI_INF)).m
            np.testing.assert_allclose(m, expected, atol=1e-13)
            lo, _ = eigenvalues_2x2(m)
            assert lo < 1e-13  # rank-1 limit: one eigenvalue vanishes


def test_amplification_dirk2_limit_eigenvalue_formula_b0():
    # for b = 0 the surviving eigenvalue is the real cosine combination
    t = get_tableau("DIRK2")
    so = to_shu_osher(t)
    w = so.b_coeffs[1, 0]
    c1, c2 = t.c
    for kdt in np.linspace(0.0, 2 * np.pi, 17):
        m = amplification(t, StabilityPoint(0.0, kdt, XI_INF)).m
        lam2 = (1 - w / 2) * np.cos(kdt * c2) + w / 2 * np.cos(kdt * (c2 - 2 * c1))
        assert spectral_radius(m) == pytest.approx(abs(lam2), abs=1e-13)


def test_amplification_matches_mode_recursion_oracle(rng):
    for _ in range(40):
        t = random_sa_dirk(rng, int(rng.integers(1, 6)), diag_lo=0.1)
        b = rng.uniform(0.0, 1.0)
        kdt = rng.uniform(0.0, 2 * np.pi)
        xi = np.inf if rng.random() < 0.25 else rng.uniform(0.0, 30.0)
        m = amplification(t, StabilityPoint(b, kdt, float(xi))).m
        np.testing.assert_allclose(m, _mode_recursion_oracle(t, b, kdt, xi),
                                   rtol=1e-11, atol=1e-11)


def test_stability_point_validation():
    for b in (-1.0, -0.3, 1.0):
        StabilityPoint(b, 1.0, 1.0)
    with pytest.raises(ValueError):
        StabilityPoint(-1.1, 1.0, 1.0)
    with pytest.raises(ValueError):
        StabilityPoint(0.5, -1.0, 1.0)
    with pytest.raises(ValueError):
        StabilityPoint(0.5, 1.0, -2.0)
    with pytest.raises(ValueError, match="b values"):
        StabilityPoint(np.nan, 1.0, 1.0)
    with pytest.raises(ValueError):
        StabilityPoint(0.5, np.nan, 1.0)
    with pytest.raises(ValueError):
        StabilityPoint(0.5, 1.0, np.nan)


# ---------------------------------------------------------------------------
# eigenvalues and spectral radius
# ---------------------------------------------------------------------------

def test_eigenvalues_2x2_against_numpy(rng):
    m = rng.normal(size=(200, 2, 2)) + 1j * rng.normal(size=(200, 2, 2))
    lo, hi = eigenvalues_2x2(m)
    for i in range(m.shape[0]):
        ref = np.sort(np.abs(np.linalg.eigvals(m[i])))
        assert lo[i] == pytest.approx(ref[0], rel=1e-10, abs=1e-12)
        assert hi[i] == pytest.approx(ref[1], rel=1e-10, abs=1e-12)


def test_eigenvalues_2x2_real_input_against_numpy(rng):
    m = rng.normal(size=(100, 2, 2))
    lo, hi = eigenvalues_2x2(m)
    ref = np.sort(np.abs(np.linalg.eigvals(m)), axis=-1)
    np.testing.assert_allclose(lo, ref[:, 0], rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(hi, ref[:, 1], rtol=1e-10, atol=1e-12)
    assert spectral_radius(np.array([[0.0, 2.0], [-2.0, 0.0]])) == pytest.approx(2.0)


def test_eigenvalues_2x2_near_double_eigenvalue():
    # tr^2 - 4 det cancels to about sqrt(eps) here; the entry-wise
    # discriminant (m00 - m11)^2 + 4 m01 m10 does not
    lo, hi = eigenvalues_2x2(np.array([[1.0, 1e-9], [1e-9, 1.0]]))
    assert abs(lo - (1.0 - 1e-9)) <= 1e-15
    assert abs(hi - (1.0 + 1e-9)) <= 1e-15


def test_eigenvalues_2x2_out_matches_allocating_call(rng):
    planes = rng.normal(size=(2, 2, 7, 5)) + 1j * rng.normal(size=(2, 2, 7, 5))
    planes[:, :, 0] = np.eye(2)[:, :, None]  # a zero discriminant
    planes[0, 0, 1] = planes[1, 1, 1]        # a zero diagonal difference
    m = np.moveaxis(planes, (0, 1), (-2, -1))
    before = planes.copy()
    lo, hi = eigenvalues_2x2(m)
    out = (np.full((7, 5), np.nan), np.full((7, 5), np.nan))
    scratch = np.full((3, 7, 5), np.nan, dtype=complex)
    for _ in range(2):  # scratch left over from a call changes nothing
        got = eigenvalues_2x2(m, out=out, scratch=scratch)
        assert got[0] is out[0] and got[1] is out[1]
        np.testing.assert_array_equal(out[0], lo)
        np.testing.assert_array_equal(out[1], hi)
    np.testing.assert_array_equal(planes, before)
    with pytest.raises(ValueError, match="scratch"):
        eigenvalues_2x2(m, scratch=np.empty((2, 7, 5), dtype=complex))
    with pytest.raises(ValueError, match="out"):
        eigenvalues_2x2(m, out=(np.empty((7, 5)), np.empty((7, 5), dtype=np.float32)))


def test_spectral_radius_of_phase_diagonal():
    m = np.diag([np.exp(-0.7j), np.exp(0.7j)])
    assert spectral_radius(m) == pytest.approx(1.0, abs=1e-15)


def test_backward_euler_radius_bounded(rng):
    t = get_tableau("BE")
    result = scan(t, np.linspace(0, 1, 40), np.linspace(0, 2 * np.pi, 60),
                  np.concatenate([np.linspace(0, 10, 20), [XI_INF]]))
    assert result.rho.max() <= 1.0 + 1e-12


def test_dirk2_limit_boundary_location():
    # at b = 0 the radius first exceeds 1 between 1.79 pi and 1.80 pi
    t = get_tableau("DIRK2")
    r_in = spectral_radius(amplification(t, StabilityPoint(0.0, 1.7927 * np.pi, XI_INF)).m)
    r_out = spectral_radius(amplification(t, StabilityPoint(0.0, 1.80 * np.pi, XI_INF)).m)
    assert r_in == pytest.approx(1.0, abs=5e-3)
    assert r_in <= 1.0
    assert r_out > 1.0


def test_limit_eigenvalue_vanishes_for_multistage(rng):
    for name in ("DIRK2", "DIRK3-B2", "DIRK3-B10"):
        t = get_tableau(name)
        for _ in range(30):
            p = StabilityPoint(float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * np.pi)), XI_INF)
            lo, _ = eigenvalues_2x2(amplification(t, p).m)
            assert lo < 1e-12


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_scan_shapes_and_max_point():
    t = get_tableau("DIRK2")
    result = scan(t, [0.0, 0.6], np.linspace(0, 2 * np.pi, 11), [0.0, 1.0, XI_INF])
    assert result.rho.shape == (2, 11, 3)
    assert np.all(result.lam_small <= result.lam_large + 1e-15)
    rho_max, b, kdt, xi = result.max_point()
    assert rho_max == result.rho.max()


def test_scan_rejects_empty_grids():
    with pytest.raises(ValueError):
        scan(get_tableau("BE"), [], [1.0], [1.0])


def test_scan_matches_pointwise_amplification(rng):
    t = get_tableau("DIRK3-B10")
    b_grid = np.linspace(0, 1, 5)
    kdt_grid = np.linspace(0, 2 * np.pi, 7)
    xi_grid = np.array([0.0, 2.5, XI_INF])
    result = scan(t, b_grid, kdt_grid, xi_grid)
    for i in (0, 3):
        for j in (1, 6):
            for l in range(3):
                p = StabilityPoint(float(b_grid[i]), float(kdt_grid[j]), float(xi_grid[l]))
                assert result.rho[i, j, l] == pytest.approx(
                    spectral_radius(amplification(t, p).m), abs=1e-13)


def test_dirk2_radius_bounded_for_b06():
    t = get_tableau("DIRK2")
    kdt = np.linspace(0, 2 * np.pi, 201)
    mixed = scan(t, [0.6], kdt, np.linspace(0, 10, 51))
    assert mixed.rho.max() <= 1.0 + 1e-9
    limit = scan(t, [0.6], kdt, [XI_INF])
    assert limit.rho.max() <= 1.0 + 1e-9


def test_dirk3_b10_window_bounded():
    t = get_tableau("DIRK3-B10")
    result = scan(t, [0.6], np.linspace(0, 1.5924 * np.pi, 201),
                  np.concatenate([np.linspace(0, 10, 51), [XI_INF]]))
    assert result.rho.max() <= 1.0 + 1e-9


@pytest.mark.parametrize("name,order", [
    ("BE", 1.0), ("DIRK2", 2.0), ("DIRK3-B2", 3.0), ("DIRK3-B10", 3.0)])
def test_kinetic_global_order_against_matrix_exponential(name, order):
    # floor-free temporal-order check: per Fourier mode the exact evolution
    # is a matrix exponential, and the N-step amplification power must
    # approach it at the scheme's kinetic order
    from scipy.linalg import expm
    from sldirk.harness import fit_slope
    b, eps, k, T = 0.6, 1e-1, 2 * np.pi, 0.5
    gen = -1j * k * np.diag([1.0, -1.0]) + relaxation_jacobian(b) / eps
    exact = expm(T * gen)
    t = get_tableau(name)
    errs, dts = [], []
    for n in (20, 40, 80, 160):
        dt = T / n
        m = amplification(t, StabilityPoint(b, k * dt, dt / eps)).m
        errs.append(np.abs(np.linalg.matrix_power(m, n) - exact).max())
        dts.append(dt)
    assert fit_slope(dts, errs) == pytest.approx(order, abs=0.15)


def test_dirk3_limit_scans_b2_vs_b10(tmp_path):
    # limit-regime scan data for the two third-order candidates; the
    # 3-stage scheme and the 4-stage scheme have different stable ranges
    kdt = np.linspace(0, 2 * np.pi, 101)
    b_grid = np.linspace(0, 1, 21)
    for name in ("DIRK3-B2", "DIRK3-B10"):
        result = scan(get_tableau(name), b_grid, kdt, [XI_INF])
        path = tmp_path / f"{name}.csv"
        rows = ["b,k_dt,rho"]
        for i, b in enumerate(b_grid):
            for j, k in enumerate(kdt):
                rows.append(f"{b!r},{k!r},{result.rho[i, j, 0]!r}")
        path.write_text("\n".join(rows))
        assert path.exists()
        # every tableau is exact at k_dt = 0 in the limit
        np.testing.assert_allclose(result.rho[:, 0, 0], 1.0, atol=1e-12)


# ---------------------------------------------------------------------------
# the plane kernel against an independent Butcher-form oracle
# ---------------------------------------------------------------------------

def _butcher_oracle(t, b, k_dt, xi):
    """One-step map from the Butcher form with a dense solve per stage.

    Per Fourier mode stage k solves
        (I - a_kk xi J) F_k = S(c_k) + sum_{j<k} a_kj S(c_k - c_j) K_j,
    with the shift S(tau) = diag(exp(-i k_dt tau), exp(+i k_dt tau)) and
    the relaxation increment K_j = xi J F_j; the step output is F_s.  At
    xi = inf the stage is the spectral projector I + J of the eigenvalue
    0 applied to the right-hand side, and K_k = (F_k - rhs) / a_kk.
    """
    J = relaxation_jacobian(b)
    shift = lambda tau: np.diag([np.exp(-1j * k_dt * tau), np.exp(1j * k_dt * tau)])
    F, K = [], []
    for k in range(t.s):
        rhs = shift(t.c[k]) + sum((t.A[k, j] * shift(t.c[k] - t.c[j]) @ K[j]
                                   for j in range(k)), np.zeros((2, 2), complex))
        if np.isinf(xi):
            F.append((np.eye(2) + J) @ rhs)
            K.append((F[-1] - rhs) / t.A[k, k])
        else:
            F.append(np.linalg.solve(np.eye(2) - t.A[k, k] * xi * J, rhs))
            K.append(xi * J @ F[-1])
    return F[-1]


def _oracle_points(rng, n_random=12):
    points = [(b, kdt, xi) for b in (0.0, 1.0) for xi in (0.0, XI_INF)
              for kdt in (0.0, 1.3, 2.0 * np.pi)]
    points += [(float(rng.uniform(0, 1)), float(rng.uniform(0, 2 * np.pi)),
                float(rng.uniform(0, 30))) for _ in range(n_random)]
    return points


@pytest.mark.parametrize("name", sorted(catalog()))
def test_amplification_matches_butcher_form_oracle(name, rng):
    t = get_tableau(name)
    for b, kdt, xi in _oracle_points(rng):
        m = amplification(t, StabilityPoint(b, kdt, xi)).m
        ref = _butcher_oracle(t, b, kdt, xi)
        assert np.max(np.abs(m - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), (b, kdt, xi)


@pytest.mark.parametrize("name", sorted(catalog()))
def test_scan_matches_numpy_eigvals(name):
    t = get_tableau(name)
    b_grid = np.array([0.0, 0.37, 1.0])
    kdt_grid = np.linspace(0.0, 2.0 * np.pi, 9)
    xi_grid = np.array([0.0, 0.8, 7.5, XI_INF])
    result = scan(t, b_grid, kdt_grid, xi_grid)
    assert result.rho.flags.c_contiguous
    for i, b in enumerate(b_grid):
        for j, kdt in enumerate(kdt_grid):
            for l, xi in enumerate(xi_grid):
                m = amplification(t, StabilityPoint(b, kdt, xi)).m
                mags = np.sort(np.abs(np.linalg.eigvals(m)))
                # LAPACK resolves a (nearly) defective matrix, such as the
                # nilpotent stiff-limit map at b = 0, only to sqrt(eps)
                tr, det = np.trace(m), np.linalg.det(m)
                defective = abs(tr * tr - 4.0 * det) <= 1e-12 * max(1.0, abs(tr) ** 2)
                floor = 1e-7 if defective else 1e-13
                assert result.lam_small[i, j, l] == pytest.approx(mags[0], rel=1e-10, abs=floor)
                assert result.rho[i, j, l] == pytest.approx(mags[1], rel=1e-10, abs=floor)


def test_stage_inverse_broadcasts_over_xi_with_inf_column():
    b = np.array([0.0, 0.4, 1.0])[:, None]
    xi = np.array([0.0, 2.0, XI_INF])[None, :]
    out = stage_inverse(0.25, xi, b)
    assert out.shape == (3, 3, 2, 2)
    assert np.all(np.isfinite(out))
    for i in range(3):
        for l in range(3):
            np.testing.assert_array_equal(out[i, l], stage_inverse(0.25, xi[0, l], b[i, 0]))
    np.testing.assert_array_equal(out[:, 2], equilibrium_projection(b[:, 0]))


@pytest.mark.parametrize("grids", [
    ([0.5], [1.0], [-4.0]),
    ([0.5], [1.0], [np.nan]),
    ([0.5], [-1.0], [1.0]),
    ([0.5], [np.nan], [1.0]),
    ([1.5], [1.0], [1.0]),
    ([-1.1, 0.5], [1.0], [1.0]),
    ([np.nan], [1.0], [1.0]),
])
def test_scan_rejects_invalid_grids(grids):
    with pytest.raises(ValueError):
        scan(get_tableau("DIRK2"), *grids)


# ---------------------------------------------------------------------------
# the expanded map on grids
# ---------------------------------------------------------------------------

def test_grid_map_matches_butcher_oracle_off_the_catalog(rng):
    # distinct diagonal weights make one expansion term per subset of the
    # stages, 2^s in all, and weights (a, b, a) make 3 x 2 terms; xi = 0,
    # large and inf weight the terms differently.
    # Past xi ~ 1e3 the dense solves of the oracle lose digits themselves
    # (about 1e-11 at xi = 1e6, where the expansion stays within 1e-15 of
    # a 50-digit evaluation).
    from sldirk.stability import _grid_factors, _one_step_planes
    kdt = np.array([0.0, 1.1, 2.0 * np.pi])
    xi = np.array([0.0, 0.7, 13.0, 1e3, XI_INF])
    cases = [(_MIXED, 6)] + [(random_sa_dirk(rng, s, diag_lo=0.1), 2 ** s)
                            for s in range(1, 6) for _ in range(3)]
    for t, n_terms in cases:
        factors = _grid_factors(to_shu_osher(t), kdt, xi)
        assert factors[3].shape == (2 * n_terms, 2 * len(xi))
        b = float(rng.uniform(-1.0, 1.0))
        planes = np.empty((2, 2, len(kdt), len(xi)), dtype=complex)
        _one_step_planes(b, factors, planes)
        for j, k in enumerate(kdt):
            for l, x in enumerate(xi):
                ref = _butcher_oracle(t, b, k, x)
                err = np.max(np.abs(planes[:, :, j, l] - ref))
                assert err <= 1e-12 * max(1.0, np.max(np.abs(ref))), (t.A, b, k, x)


def test_scan_row_independent_of_the_other_b_values():
    t = get_tableau("DIRK3-B10")
    b_grid = np.array([0.0, 0.15, 0.37, 0.5, 0.6, 0.85, 1.0])
    kdt, xi = np.linspace(0.0, 2.0 * np.pi, 9), np.array([0.0, 0.5, 4.0, XI_INF])
    full = scan(t, b_grid, kdt, xi)
    for i, b in enumerate(b_grid):
        one = scan(t, [b], kdt, xi)
        np.testing.assert_array_equal(one.rho[0], full.rho[i])
        np.testing.assert_array_equal(one.lam_small[0], full.lam_small[i])


@pytest.mark.parametrize("name", ["BE", "DIRK2", "DIRK3-B2", "DIRK3-B10"])
def test_radius_symmetric_in_b(name):
    # the map at -b is the map at b with the two velocities swapped and
    # complex conjugated, so the radii agree
    t = get_tableau(name)
    b = np.linspace(0.0, 1.0, 11)
    kdt = np.linspace(0.0, 2.0 * np.pi, 41)
    xi = np.concatenate([np.linspace(0.0, 10.0, 11), [XI_INF]])
    plus, minus = scan(t, b, kdt, xi), scan(t, -b, kdt, xi)
    np.testing.assert_allclose(minus.rho, plus.rho, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(minus.lam_small, plus.lam_small, rtol=0.0, atol=1e-12)


def test_scan_working_set_is_a_few_planes():
    # a scan keeps the four entry planes and three eigenvalue scratch planes
    # of one block of k_dt rows, and the coefficients of every stage;
    # nothing of the size of the output
    import tracemalloc
    t = get_tableau("DIRK3-B10")
    b = np.array([0.0, 0.6, 1.0])
    kdt, xi = np.linspace(0.0, 2.0 * np.pi, 401), np.concatenate([np.linspace(0.0, 10.0, 101), [XI_INF]])
    plane = len(kdt) * len(xi) * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        result = scan(t, b, kdt, xi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = result.lam_small.nbytes + result.lam_large.nbytes
    assert peak - outputs < 4 * plane


# ---------------------------------------------------------------------------
# bit-for-bit references: the k-major stage recursion and the masked kernel
# ---------------------------------------------------------------------------

def _k_major_planes(t, b, kdt, xi):
    """One-step planes (2, 2, nk, nxi) by the stage recursion on k-major
    coefficients (2, 2, nk, n_terms), with a new array for every product
    and every term in every stage, as ``_one_step_planes`` ran before it
    went term-major.  Kept as the bit-for-bit reference of the recursion on
    (row, term, column, k) coefficients over the terms each stage reaches."""
    so = to_shu_osher(t)
    w, c = so.b_coeffs, so.c
    kdt, xi = np.asarray(kdt, dtype=float), np.asarray(xi, dtype=float)
    sign = np.array([[-1j], [1j]])
    start = [(1.0 - w[l, :l].sum()) * np.exp(sign * (c[l] * kdt)) for l in range(so.s)]
    coupling = [[(w[l, j] * np.exp(sign * ((c[l] - c[j]) * kdt)))[:, None, :, None]
                 for j in range(l)] for l in range(so.s)]
    a_g, group = np.unique(so.diag, return_inverse=True)
    dims = np.bincount(group) + 1
    shift = np.array([np.prod(dims[g + 1:]) for g in range(len(dims))])[group]
    r = 1.0 / (1.0 + a_g[:, None] * xi)
    kappa = np.indices(dims).reshape(len(dims), -1)
    weights = np.kron(np.prod(r[:, None, :] ** kappa[:, :, None], axis=0), np.eye(2))
    p0, q = equilibrium_projection(b), -relaxation_jacobian(b)
    nk = len(kdt)
    stages = []
    for l in range(so.s):
        e = np.zeros((2, 2, nk, weights.shape[0] // 2), dtype=complex)
        e[0, 0, :, 0], e[1, 1, :, 0] = start[l]
        for j in range(l):
            e += coupling[l][j] * stages[j]
        x = (p0 @ e.reshape(2, -1)).reshape(e.shape)
        x[..., shift[l]:] += (q @ e.reshape(2, -1)).reshape(e.shape)[..., :-shift[l]]
        stages.append(x)
    out = np.empty((2, 2, nk, len(xi)), dtype=complex)
    np.matmul(stages[-1].view(np.float64).reshape(4 * nk, -1), weights,
              out=out.view(np.float64).reshape(4 * nk, -1))
    return out


def _masked_eigenvalues(m):
    """Eigenvalue magnitudes (small, large) by the kernel that
    ``eigenvalues_2x2`` ran before it went allocation-free: it forms
    m01 m10 twice and routes sqrt(d) through fresh masks.  Kept as the
    bit-for-bit reference of the allocation-free kernel."""
    m = np.asarray(m)
    shape = m.shape[:-2]
    small, large = np.empty(shape), np.empty(shape)
    scratch = np.empty((3,) + shape, dtype=complex)
    sq, tr, tmp = scratch[0, ...], scratch[1, ...], scratch[2, ...]
    m00, m01, m10, m11 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    np.subtract(m00, m11, out=sq)
    np.multiply(sq, sq, out=sq)
    np.multiply(m01, m10, out=tmp)
    tmp *= 4.0
    sq += tmp
    x, y, u, v = sq.real, sq.imag, tmp.real, tmp.imag
    np.add(np.abs(sq, out=large), np.abs(x, out=small), out=large)
    np.sqrt(np.multiply(large, 0.5, out=large), out=u)
    v.fill(0.0)
    np.divide(0.5 * y, u, out=v, where=u != 0.0)
    swap = x < 0.0
    np.copyto(sq, tmp)
    np.copyto(x, v, where=swap)
    np.copyto(y, u, where=swap)
    np.add(m00, m11, out=tr)
    np.abs(np.add(tr, sq, out=tmp), out=large)
    np.abs(np.subtract(tr, sq, out=tmp), out=small)
    np.maximum(large, small, out=large)
    large *= 0.5
    np.multiply(m00, m11, out=tmp)
    np.multiply(m01, m10, out=sq)
    np.abs(np.subtract(tmp, sq, out=tmp), out=small)
    np.divide(small, large, out=small, where=large != 0.0)
    np.maximum(small, large, out=tr.real)
    np.minimum(small, large, out=small)
    np.copyto(large, tr.real)
    return small, large


_PIN_B = (-1.0, -0.3, 0.0, 0.37, 1.0)
_PIN_KDT = np.linspace(0.0, 2.0 * np.pi, 401)
_PIN_XI = np.array([0.0, 0.7, 13.0, 1e3, XI_INF])


@pytest.mark.parametrize("name", sorted(catalog()))
def test_scan_bits_match_the_k_major_recursion_and_masked_kernel(name):
    from sldirk.stability import _grid_factors, _one_step_planes
    t = get_tableau(name)
    result = scan(t, _PIN_B, _PIN_KDT, _PIN_XI)
    factors = _grid_factors(to_shu_osher(t), _PIN_KDT, _PIN_XI)
    planes = np.empty((2, 2, len(_PIN_KDT), len(_PIN_XI)), dtype=complex)
    for i, b in enumerate(_PIN_B):
        ref = _k_major_planes(t, b, _PIN_KDT, _PIN_XI)
        assert np.array_equal(_one_step_planes(b, factors, planes), ref), b
        lo, hi = _masked_eigenvalues(np.moveaxis(ref, (0, 1), (-2, -1)))
        assert np.array_equal(result.lam_small[i], lo), b
        assert np.array_equal(result.lam_large[i], hi), b
        for k in _PIN_KDT[::40]:
            for xi in _PIN_XI:
                m = amplification(t, StabilityPoint(b, float(k), float(xi))).m
                assert np.array_equal(m, _k_major_planes(t, b, [k], [xi])[:, :, 0, 0]), (b, k, xi)


def test_one_step_planes_bits_match_the_k_major_recursion_off_the_catalog(rng):
    # weights (a, b, a) and distinct weights make multi-indexed terms, so a
    # stage reaches its terms in steps of several places; the product of all
    # rows keeps its operands, so its bits do not depend on the BLAS
    from sldirk.stability import _grid_factors, _one_step_planes
    cases = [(_MIXED, 6)] + [(random_sa_dirk(rng, s, diag_lo=0.1), 2 ** s)
                             for s in range(3, 7) for _ in range(4)]
    planes = np.empty((2, 2, len(_PIN_KDT), len(_PIN_XI)), dtype=complex)
    for t, n_terms in cases:
        factors = _grid_factors(to_shu_osher(t), _PIN_KDT, _PIN_XI)
        assert factors[3].shape == (2 * n_terms, 2 * len(_PIN_XI))
        for b in _PIN_B:
            ref = _k_major_planes(t, b, _PIN_KDT, _PIN_XI)
            assert np.array_equal(_one_step_planes(b, factors, planes), ref), (t.A, b)


@pytest.mark.parametrize("name", ["BE", "DIRK3-B2", "DIRK3-B10", "random-4-stage"])
def test_scan_block_seams_match_the_k_major_recursion_and_masked_kernel(name):
    # the default grid runs as blocks of 117, 117, 117 and 50 k_dt rows; a
    # product of fewer rows may round differently on another BLAS (here the
    # 16 terms of the random tableau do), so this pin has a tolerance
    from sldirk.stability import _EIGEN_BLOCK
    kdt, xi = DEFAULT_KDT_GRID, DEFAULT_XI_GRID
    rows = _EIGEN_BLOCK // len(xi)
    assert rows < len(kdt) and len(kdt) % rows  # several blocks, the last one short
    t = (random_sa_dirk(np.random.default_rng(4), 4, diag_lo=0.1)
         if name.startswith("random") else get_tableau(name))
    b_grid = (-1.0, 0.37, 1.0)
    result = scan(t, b_grid, kdt, xi)
    for i, b in enumerate(b_grid):
        lo, hi = _masked_eigenvalues(np.moveaxis(_k_major_planes(t, b, kdt, xi), (0, 1), (-2, -1)))
        assert_close(result.lam_small[i], lo, rtol=1e-14)
        assert_close(result.lam_large[i], hi, rtol=1e-14)


@pytest.mark.parametrize("shape", [(), (7,), (6, 5), (30_001,), (401, 102)])
def test_eigenvalues_2x2_bits_match_the_masked_kernel(rng, shape):
    # the kernel against the masked reference, on a single map, small
    # stacks and stacks larger than a scan block, with double, zero,
    # triangular and scaled maps
    m = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    flat = m.reshape(-1, 2, 2)
    flat[::5] = np.eye(2)
    flat[1::7] = 0.0
    flat[2::9, 1, 0] = 0.0
    flat[3::11, 1, 1] = flat[3::11, 0, 0]
    flat[4::13] *= 1e-160
    flat[5::17] *= 1e150
    for arr in (m, m.real.copy()):
        lo, hi = eigenvalues_2x2(arr)
        ref = _masked_eigenvalues(arr)
        assert np.array_equal(lo, ref[0])
        assert np.array_equal(hi, ref[1])


def test_eigenvalues_2x2_allocates_no_plane():
    # with out and scratch given, the kernel's masks and temporaries live in
    # them; the zero maps take the lambda_2 = 0 branch
    import tracemalloc
    rng = np.random.default_rng(7)
    planes = rng.normal(size=(2, 2, 401, 102)) + 1j * rng.normal(size=(2, 2, 401, 102))
    planes[:, :, 0, :5] = 0.0
    m = np.moveaxis(planes, (0, 1), (-2, -1))
    out = (np.empty((401, 102)), np.empty((401, 102)))
    scratch = np.empty((3, 401, 102), dtype=complex)
    eigenvalues_2x2(m, out=out, scratch=scratch)
    tracemalloc.start()
    try:
        eigenvalues_2x2(m, out=out, scratch=scratch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(out[1][0, :5] == 0.0)
    assert peak < 0.5 * out[0].nbytes


@pytest.mark.parametrize("grids,name", [
    (([[0.1, 0.2]], [1.0], [1.0]), "b"),
    (([0.5], [[0.5, 1.0]], [1.0]), "k_dt"),
    (([0.5], [[0.5], [1.0]], [1.0]), "k_dt"),
    (([0.5], [1.0], [[0.0], [1.0]]), "xi"),
])
def test_scan_rejects_grids_that_are_not_1d(grids, name):
    with pytest.raises(ValueError, match=f"scan {name} grid must be 1-D"):
        scan(get_tableau("DIRK2"), *grids)


@pytest.mark.parametrize("kwargs,name", [
    (dict(b=[0.1, 0.2], k_dt=1.0, xi=1.0), "b"),
    (dict(b=0.1, k_dt=np.array([1.0]), xi=1.0), "k_dt"),
    (dict(b=0.1, k_dt=1.0, xi=[[1.0]]), "xi"),
])
def test_stability_point_rejects_non_scalars(kwargs, name):
    with pytest.raises(ValueError, match=f"StabilityPoint {name} must be a scalar"):
        StabilityPoint(**kwargs)


def test_stability_point_accepts_numpy_scalars():
    p = StabilityPoint(np.float64(0.3), np.array(1.0), 2)
    assert spectral_radius(amplification(get_tableau("DIRK2"), p).m) <= 1.0 + 1e-12
