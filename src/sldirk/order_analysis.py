"""Order conditions for DIRK schemes on stiff relaxation problems.

Per-stage Taylor coefficients are computed from the Shu-Osher form of a
tableau, in two regimes:

* kinetic coefficients (c_k, d_k, g_k, h_k) govern the accuracy of the
  scheme applied directly to the distribution function;
* fluid (limit) coefficients (C_k, D_k, B_k, G_k, H_k, B*_k, B**_k,
  B***_k) govern the accuracy of the induced scheme on the moment field
  once the relaxation time goes to zero.

Classical order needs c_s = 1, d_s = 1/2, g_s = h_s = 1/6.  The limit
scheme keeps first and second order automatically but third order requires
the extra condition G_s = 1/6 on top of the kinetic ones; the remaining
limit conditions (H_s = 1/6, B*_s = B**_s = B***_s = 0) then follow from
algebraic identities linking the two coefficient families, which
:func:`verify_identities` checks stage by stage.

:data:`CONDITIONS` is the one table of these conditions; the reports and
the ``order-check`` columns are derived from it.  A new condition is one
row of the table plus one recursion line in :func:`coefficients` (which
also names the row's array where it unpacks them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .butcher import ButcherTableau, ShuOsherForm, to_shu_osher

DEFAULT_ORDER_TOL = 1e-10

#: (name, last-stage target, regime, order) of every coefficient, in the
#: order of the reports; order p of a regime needs its rows of order <= p
CONDITIONS = (
    ("c", "1", "kinetic", 1),
    ("d", "1/2", "kinetic", 2),
    ("g", "1/6", "kinetic", 3),
    ("h", "1/6", "kinetic", 3),
    ("C", "1", "fluid", 1),
    ("D", "1/2", "fluid", 2),
    ("B", "0", "fluid", 2),
    ("G", "1/6", "fluid", 3),
    ("H", "1/6", "fluid", 3),
    ("B*", "0", "fluid", 3),
    ("B**", "0", "fluid", 3),
    ("B***", "0", "fluid", 3),
)


@dataclass(frozen=True)
class OrderReport:
    """Order verdicts plus the raw condition residuals.

    Each order is capped at the highest order of its regime in
    :data:`CONDITIONS`: conditions beyond it are not derived for this
    family of schemes, so the cap means "all checked conditions hold".
    """
    name: str
    kinetic_order: int
    fluid_order: int
    residuals: dict[str, float]
    tol: float


def coefficients(so: ShuOsherForm) -> dict[str, np.ndarray]:
    """Per-stage coefficients k = 1..s by name, in the order of
    :data:`CONDITIONS`, from one forward recursion over the stages.

    Stage 1 seeds: c_1 = C_1 = a_11, d_1 = a_11^2, g_1 = a_11^3/2,
    h_1 = a_11^3, B_1 = c_1^2, B***_1 = c_1^3, all others 0.
    """
    w, a = so.b_coeffs, so.diag
    x = {name: np.zeros(so.s) for name, *_ in CONDITIONS}
    c, d, g, h, C, D, B, G, H, Bs, Bss, Bsss = x.values()
    for k in range(so.s):
        wk = w[k, :k]
        c[k] = C[k] = wk @ c[:k] + a[k]
        d[k] = wk @ d[:k] + a[k] * c[k]
        g[k] = wk @ g[:k] + 0.5 * a[k] * c[k] ** 2
        h[k] = wk @ h[:k] + a[k] * d[k]
        dc = c[k] - c[:k]
        one_minus = 1.0 - wk.sum()
        D[k] = wk @ (D[:k] + dc * c[:k])
        B[k] = one_minus * c[k] ** 2 + wk @ (B[:k] + dc ** 2)
        G[k] = wk @ (G[:k] + 0.5 * dc * c[:k] ** 2)
        H[k] = wk @ (H[:k] + dc * D[:k])
        Bs[k] = wk @ (Bs[:k] + dc * B[:k])
        Bss[k] = wk @ (Bss[:k] + dc ** 2 * c[:k])
        Bsss[k] = one_minus * c[k] ** 3 + wk @ (Bsss[:k] + dc ** 3)
    return x


def order_report(t: ButcherTableau, tol: float = DEFAULT_ORDER_TOL) -> OrderReport:
    """Classify kinetic and fluid order from the final-stage coefficients.

    The residual of a row is named ``"<name>_s - <target>"`` (``"<name>_s"``
    for target 0).  Both orders are cumulative: order p requires every row
    of the regime up to order p.  The fluid order is computed directly from
    the limit coefficients, never inferred from the kinetic order.  A NaN,
    infinite or negative ``tol`` raises ``ValueError``.
    """
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"order tolerance must be finite and >= 0, got {tol!r}")
    x = coefficients(to_shu_osher(t))
    residuals, held = {}, {}
    for name, target, regime, order in CONDITIONS:
        num, _, den = target.partition("/")
        value = float(x[name][-1] - float(num) / float(den or 1))
        residuals[f"{name}_s" + (f" - {target}" if target != "0" else "")] = value
        orders = held.setdefault(regime, {})
        orders[order] = orders.get(order, True) and abs(value) <= tol
    # an order is the count of leading orders whose rows all hold
    verdict = lambda regime: next((p - 1 for p, ok in held[regime].items() if not ok),
                                  len(held[regime]))
    return OrderReport(name=t.name, kinetic_order=verdict("kinetic"),
                       fluid_order=verdict("fluid"), residuals=residuals, tol=tol)


def verify_identities(so: ShuOsherForm) -> dict[str, np.ndarray]:
    """Residuals of the kinetic/limit cross identities at every stage.

    The identities tie the limit coefficients to the kinetic ones; they hold
    for every DIRK tableau with positive diagonal, independent of its order.
    """
    x = coefficients(so)
    c, d, g, D, G, H, Bss = (x[name] for name in ("c", "d", "g", "D", "G", "H", "B**"))
    return {
        "d + D - c^2": d + D - c ** 2,
        "B - (d - D)": x["B"] - (d - D),
        "2G - H + 2g - c*d": 2.0 * G - H + 2.0 * g - c * d,
        "B* - (2G - 2H)": x["B*"] - (2.0 * G - 2.0 * H),
        "B** - (2g - 2H - c^3 + 2c*D)": Bss - (2.0 * g - 2.0 * H - c ** 3 + 2.0 * c * D),
        "B*** - (c^3 - 3B** - 6G)": x["B***"] - (c ** 3 - 3.0 * Bss - 6.0 * G),
    }


def max_identity_residual(so: ShuOsherForm) -> float:
    return max(float(np.max(np.abs(r))) for r in verify_identities(so).values())
