"""Order conditions for DIRK schemes on stiff relaxation problems.

Two sets of per-stage Taylor coefficients are computed from the Shu-Osher
form of a tableau:

* kinetic coefficients (c_k, d_k, g_k, h_k) govern the accuracy of the
  scheme applied directly to the distribution function;
* limit coefficients (C_k, D_k, B_k, G_k, H_k, B*_k, B**_k, B***_k) govern
  the accuracy of the induced scheme on the moment field once the
  relaxation time goes to zero.

Classical order needs c_s = 1, d_s = 1/2, g_s = h_s = 1/6.  The limit
scheme keeps first and second order automatically but third order requires
the extra condition G_s = 1/6 on top of the kinetic ones; the remaining
limit conditions (H_s = 1/6, B*_s = B**_s = B***_s = 0) then follow from
algebraic identities linking the two coefficient families, which
:func:`verify_identities` checks stage by stage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .butcher import ButcherTableau, ShuOsherForm, to_shu_osher

DEFAULT_ORDER_TOL = 1e-10


@dataclass(frozen=True)
class KineticCoefficients:
    """Per-stage expansion coefficients of the scheme on the distribution."""
    c: np.ndarray
    d: np.ndarray
    g: np.ndarray
    h: np.ndarray


@dataclass(frozen=True)
class LimitCoefficients:
    """Per-stage expansion coefficients of the induced moment scheme."""
    C: np.ndarray
    D: np.ndarray
    B: np.ndarray
    G: np.ndarray
    H: np.ndarray
    Bstar: np.ndarray
    Bstarstar: np.ndarray
    Bstarstarstar: np.ndarray


@dataclass(frozen=True)
class OrderReport:
    """Order verdicts plus the raw condition residuals.

    Orders are capped at 3: conditions beyond third order are not derived
    for this family of schemes, so 3 means "all checked conditions hold".
    """
    name: str
    kinetic_order: int
    fluid_order: int
    residuals: dict[str, float]
    tol: float


def kinetic_coefficients(so: ShuOsherForm) -> KineticCoefficients:
    """Forward recursion for (c_k, d_k, g_k, h_k), k = 1..s.

    Stage 1 seeds: c_1 = a_11, d_1 = a_11^2, g_1 = a_11^3/2, h_1 = a_11^3.
    """
    s = so.s
    w, a = so.b_coeffs, so.diag
    c, d, g, h = np.zeros((4, s))
    for k in range(s):
        wk = w[k, :k]
        c[k] = wk @ c[:k] + a[k]
        d[k] = wk @ d[:k] + a[k] * c[k]
        g[k] = wk @ g[:k] + 0.5 * a[k] * c[k] ** 2
        h[k] = wk @ h[:k] + a[k] * d[k]
    return KineticCoefficients(c=c, d=d, g=g, h=h)


def limit_coefficients(so: ShuOsherForm, kc: KineticCoefficients) -> LimitCoefficients:
    """Forward recursion for the limit-scheme coefficients, k = 1..s.

    Stage 1 seeds: C_1 = c_1, B_1 = c_1^2, B***_1 = c_1^3, all others 0.
    """
    s = so.s
    w = so.b_coeffs
    c = kc.c
    C = c.copy()
    D, B, G, H, Bs, Bss, Bsss = np.zeros((7, s))
    for k in range(s):
        wk = w[k, :k]
        dc = c[k] - c[:k]
        one_minus = 1.0 - wk.sum()
        D[k] = wk @ (D[:k] + dc * c[:k])
        B[k] = one_minus * c[k] ** 2 + wk @ (B[:k] + dc ** 2)
        G[k] = wk @ (G[:k] + 0.5 * dc * c[:k] ** 2)
        H[k] = wk @ (H[:k] + dc * D[:k])
        Bs[k] = wk @ (Bs[:k] + dc * B[:k])
        Bss[k] = wk @ (Bss[:k] + dc ** 2 * c[:k])
        Bsss[k] = one_minus * c[k] ** 3 + wk @ (Bsss[:k] + dc ** 3)
    return LimitCoefficients(C=C, D=D, B=B, G=G, H=H,
                             Bstar=Bs, Bstarstar=Bss, Bstarstarstar=Bsss)


def coefficient_table(t: ButcherTableau):
    """Convenience: (ShuOsherForm, KineticCoefficients, LimitCoefficients)."""
    so = to_shu_osher(t)
    kc = kinetic_coefficients(so)
    lc = limit_coefficients(so, kc)
    return so, kc, lc


def order_report(t: ButcherTableau, tol: float = DEFAULT_ORDER_TOL) -> OrderReport:
    """Classify kinetic and fluid order from the final-stage coefficients.

    Both orders are cumulative: order p requires every condition up to p.
    The fluid order is computed directly from the limit coefficients, never
    inferred from the kinetic order.  A NaN, infinite or negative ``tol``
    raises ``ValueError``.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"order tolerance must be finite and >= 0, got {tol!r}")
    _, kc, lc = coefficient_table(t)
    res = {
        "c_s - 1": kc.c[-1] - 1.0,
        "d_s - 1/2": kc.d[-1] - 0.5,
        "g_s - 1/6": kc.g[-1] - 1.0 / 6.0,
        "h_s - 1/6": kc.h[-1] - 1.0 / 6.0,
        "C_s - 1": lc.C[-1] - 1.0,
        "D_s - 1/2": lc.D[-1] - 0.5,
        "B_s": lc.B[-1],
        "G_s - 1/6": lc.G[-1] - 1.0 / 6.0,
        "H_s - 1/6": lc.H[-1] - 1.0 / 6.0,
        "B*_s": lc.Bstar[-1],
        "B**_s": lc.Bstarstar[-1],
        "B***_s": lc.Bstarstarstar[-1],
    }
    # an order is the count of leading condition groups that all hold
    order = lambda *groups: next((p for p, keys in enumerate(groups)
                                  if not all(abs(res[k]) <= tol for k in keys)), len(groups))
    kinetic = order(["c_s - 1"], ["d_s - 1/2"], ["g_s - 1/6", "h_s - 1/6"])
    fluid = order(["C_s - 1"], ["D_s - 1/2", "B_s"],
                  ["G_s - 1/6", "H_s - 1/6", "B*_s", "B**_s", "B***_s"])
    return OrderReport(name=t.name, kinetic_order=kinetic, fluid_order=fluid,
                       residuals={k: float(v) for k, v in res.items()}, tol=tol)


def verify_identities(so: ShuOsherForm) -> dict[str, np.ndarray]:
    """Residuals of the kinetic/limit cross identities at every stage.

    The identities tie the limit coefficients to the kinetic ones; they hold
    for every DIRK tableau with positive diagonal, independent of its order.
    """
    kc = kinetic_coefficients(so)
    lc = limit_coefficients(so, kc)
    c, d, g = kc.c, kc.d, kc.g
    return {
        "d + D - c^2": d + lc.D - c ** 2,
        "B - (d - D)": lc.B - (d - lc.D),
        "2G - H + 2g - c*d": 2.0 * lc.G - lc.H + 2.0 * g - c * d,
        "B* - (2G - 2H)": lc.Bstar - (2.0 * lc.G - 2.0 * lc.H),
        "B** - (2g - 2H - c^3 + 2c*D)":
            lc.Bstarstar - (2.0 * g - 2.0 * lc.H - c ** 3 + 2.0 * c * lc.D),
        "B*** - (c^3 - 3B** - 6G)":
            lc.Bstarstarstar - (c ** 3 - 3.0 * lc.Bstarstar - 6.0 * lc.G),
    }


def max_identity_residual(so: ShuOsherForm) -> float:
    return max(float(np.max(np.abs(r))) for r in verify_identities(so).values())
