import numpy as np
import pytest

from sldirk.butcher import ButcherTableau, catalog, get_tableau, to_shu_osher
from sldirk.order_analysis import (CONDITIONS, coefficients, max_identity_residual,
                                   order_report, verify_identities)
from conftest import random_sa_dirk


def _kinetic_oracle(t):
    """Closed-form matrix expressions for the kinetic coefficients.

    Independently of the stagewise recursion, Taylor expansion of the plain
    stage equations gives c = A 1, d = A c, g = A c^2 / 2, h = A^2 c.
    """
    A, ones = t.A, np.ones(t.s)
    c = A @ ones
    return c, A @ c, 0.5 * A @ (c * c), A @ (A @ c)


def test_backward_euler_stage_one_values():
    x = coefficients(to_shu_osher(get_tableau("BE")))
    assert x["c"][0] == 1.0
    assert x["d"][0] == 1.0
    assert x["g"][0] == 0.5
    assert x["h"][0] == 1.0


def test_backward_euler_limit_seeds():
    x = coefficients(to_shu_osher(get_tableau("BE")))
    assert x["C"][0] == 1.0
    assert x["D"][0] == 0.0
    assert x["B"][0] == 1.0


def test_dirk2_second_order():
    x = coefficients(to_shu_osher(get_tableau("DIRK2")))
    assert x["c"][-1] == pytest.approx(1.0, abs=1e-14)
    assert x["d"][-1] == pytest.approx(0.5, abs=1e-14)
    # cross-check against the classical condition sum(b_j c_j)
    t = get_tableau("DIRK2")
    assert x["d"][-1] == pytest.approx(float(t.b_weights @ t.c), abs=1e-14)


def test_kinetic_recursion_matches_matrix_oracle(rng):
    for _ in range(100):
        t = random_sa_dirk(rng, int(rng.integers(1, 6)))
        x = coefficients(to_shu_osher(t))
        c, d, g, h = _kinetic_oracle(t)
        np.testing.assert_allclose(x["c"], c, rtol=1e-11, atol=1e-11)
        np.testing.assert_allclose(x["d"], d, rtol=1e-11, atol=1e-11)
        np.testing.assert_allclose(x["g"], g, rtol=1e-11, atol=1e-11)
        np.testing.assert_allclose(x["h"], h, rtol=1e-11, atol=1e-11)


def test_dirk3_b2_third_order_kinetic():
    x = coefficients(to_shu_osher(get_tableau("DIRK3-B2")))
    assert x["g"][-1] == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert x["h"][-1] == pytest.approx(1.0 / 6.0, abs=1e-10)


def test_dirk3_b2_limit_third_order_fails():
    G = coefficients(to_shu_osher(get_tableau("DIRK3-B2")))["G"]
    assert G[-1] == pytest.approx(0.066745, abs=5e-6)
    assert abs(G[-1] - 1.0 / 6.0) > 1e-2


def test_dirk3_b10_limit_third_order():
    G = coefficients(to_shu_osher(get_tableau("DIRK3-B10")))["G"]
    assert G[-1] == pytest.approx(1.0 / 6.0, abs=1e-10)


def test_b10_hand_computed_fractions():
    # stage values derived by hand from the exact rational tableau entries
    x = coefficients(to_shu_osher(get_tableau("DIRK3-B10")))
    assert x["d"][1] == pytest.approx(15.0 / 112.0, abs=1e-14)
    assert x["d"][2] == pytest.approx(1.0 / 18.0, abs=1e-14)
    assert x["g"][1] == pytest.approx(149.0 / 6272.0, abs=1e-14)
    assert x["g"][2] == pytest.approx(7.0 / 8064.0, abs=1e-14)
    assert x["h"][2] == pytest.approx(-1.0 / 192.0, abs=1e-14)
    assert x["g"][3] == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert x["h"][3] == pytest.approx(1.0 / 6.0, abs=1e-14)
    assert x["D"][1] == pytest.approx(1.0 / 49.0, abs=1e-14)
    assert x["G"][1] == pytest.approx(1.0 / 392.0, abs=1e-14)


# ---------------------------------------------------------------------------
# order reports
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name,kinetic,fluid", [
    ("BE", 1, 1),
    ("DIRK2", 2, 2),
    ("DIRK3-B2", 3, 2),
    ("DIRK3-B3", 3, 3),
    ("DIRK3-B4", 3, 3),
    ("DIRK3-B5", 3, 3),
    ("DIRK3-B6", 3, 3),
    ("DIRK3-B7", 3, 3),
    ("DIRK3-B8", 3, 3),
    ("DIRK3-B9", 3, 3),
    ("DIRK3-B10", 3, 3),
])
def test_catalog_orders(name, kinetic, fluid):
    report = order_report(get_tableau(name))
    assert report.kinetic_order == kinetic
    assert report.fluid_order == fluid


def test_inconsistent_tableau_rejected_before_order_report():
    # implicit midpoint: its last stage is the half step, so c_s = 1/2;
    # order_report reads the last stage as the step and would call it
    # order 0, so the tableau cannot be built at all
    with pytest.raises(ValueError, match="stiffly accurate"):
        ButcherTableau("midpoint", [[0.5]])


def test_order_report_tolerance_configurable():
    report = order_report(get_tableau("DIRK3-B2"), tol=1.0)
    assert report.fluid_order == 3  # everything passes at an absurd tolerance


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_order_report_rejects_bad_tolerance(tol):
    # a NaN tolerance passes no condition and an infinite one every one;
    # a zero tolerance is valid and passes the exactly met conditions
    with pytest.raises(ValueError, match="order tolerance must be finite and >= 0"):
        order_report(get_tableau("DIRK3-B10"), tol=tol)
    report = order_report(get_tableau("BE"), tol=0.0)
    assert (report.kinetic_order, report.fluid_order) == (1, 1)


def test_order_report_rejects_invalid_tableau():
    with pytest.raises(ValueError):
        order_report(ButcherTableau("bad", [[0.0]]))


# ---------------------------------------------------------------------------
# cross identities between kinetic and limit coefficients
# ---------------------------------------------------------------------------

def test_identities_single_stage_exact_zero():
    res = verify_identities(to_shu_osher(get_tableau("BE")))
    for vals in res.values():
        assert np.all(vals == 0.0)


def test_identities_hold_for_all_catalog_tableaus():
    for name, t in catalog().items():
        assert max_identity_residual(to_shu_osher(t)) < 1e-12, name


def test_identities_hold_despite_order_failure():
    # third-order scheme whose limit scheme is only second order: the
    # stagewise identities are order-independent
    so = to_shu_osher(get_tableau("DIRK3-B2"))
    assert max_identity_residual(so) < 1e-10
    assert abs(coefficients(so)["G"][-1] - 1.0 / 6.0) > 1e-2


def test_identities_random_tableaus(rng):
    for _ in range(100):
        t = random_sa_dirk(rng, int(rng.integers(1, 6)))
        res = verify_identities(to_shu_osher(t))
        assert set(res) == {"d + D - c^2", "B - (d - D)", "2G - H + 2g - c*d",
                            "B* - (2G - 2H)", "B** - (2g - 2H - c^3 + 2c*D)",
                            "B*** - (c^3 - 3B** - 6G)"}
        for name, vals in res.items():
            assert np.max(np.abs(vals)) < 1e-10, name


def test_third_order_with_g_condition_implies_fluid_third_order():
    for name, t in catalog().items():
        report = order_report(t)
        g_final = report.residuals["G_s - 1/6"]
        if report.kinetic_order == 3 and abs(g_final) < 1e-10:
            assert report.fluid_order == 3, name
