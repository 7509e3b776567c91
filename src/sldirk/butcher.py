"""Stiffly accurate DIRK Butcher tableaus and their Shu-Osher rewriting.

A diagonally implicit Runge-Kutta (DIRK) method is given here by its matrix
A alone: lower triangular with a positive diagonal, and stiffly accurate,
so the abscissae c are the row sums of A, the weights b are its last row
and the last stage is the step.  A :class:`ButcherTableau` is checked once,
when it is built; every consumer takes it as valid.  For the
semi-Lagrangian update and the order-condition recursions it is convenient
to rewrite the stage equations in Shu-Osher form,

    stage_k = (1 - sum_j w_kj) * state_n + sum_j w_kj * stage_j
              + dt * a_kk * RHS(stage_k),

where the convex-combination coefficients w_kj (``b_coeffs`` below) follow
from A by a backward recursion over j at each stage k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

import numpy as np

#: absolute tolerance for tableau consistency checks (all data is float64)
VALIDATION_TOL = 1e-12


@dataclass(frozen=True)
class ButcherTableau:
    """A stiffly accurate DIRK tableau, given by its matrix A.

    ``c`` (the row sums of A) and ``b_weights`` (its last row) are derived.
    Construction raises ValueError unless A is finite and square, lower
    triangular, has a positive diagonal, and has a last row that sums to 1
    within ``VALIDATION_TOL``.  The arrays are read-only, so a tableau can
    be shared freely across threads and worker processes.
    """

    name: str
    A: np.ndarray
    c: np.ndarray = field(init=False, repr=False, compare=False)
    b_weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.array(self.A, dtype=float))
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
            raise ValueError(f"tableau {self.name!r}: A has shape {A.shape}, "
                             f"expected (s, s)")
        c = A.sum(axis=1)
        problems = []
        if not np.isfinite(A).all():
            problems.append("non-finite entries")
        if np.triu(A, 1).any():
            problems.append("A is not lower triangular")
        bad = np.flatnonzero(~(np.diag(A) > 0.0))
        if bad.size:
            problems.append(f"nonpositive diagonal at stage(s) {(bad + 1).tolist()}")
        if not abs(c[-1] - 1.0) <= VALIDATION_TOL:
            problems.append(f"last row sums to {float(c[-1])!r}, not 1: only stiffly "
                            f"accurate tableaus are supported")
        if problems:
            raise ValueError(f"tableau {self.name!r} rejected: {'; '.join(problems)}")
        for arr in (A, c):
            arr.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "b_weights", A[-1])

    @property
    def s(self) -> int:
        """Stage count."""
        return len(self.c)


@dataclass(frozen=True)
class ShuOsherForm:
    """Shu-Osher coefficients of a DIRK tableau.

    ``b_coeffs`` is strictly lower triangular: entry (k, j) multiplies
    stage j in the update of stage k (0-based indices, k > j).  ``diag``
    carries the implicit weights a_kk and ``c`` the abscissae.
    """

    b_coeffs: np.ndarray
    diag: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        for attr in ("b_coeffs", "diag", "c"):
            arr = np.asarray(getattr(self, attr), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, attr, arr)

    @property
    def s(self) -> int:
        return len(self.c)


def to_shu_osher(t: ButcherTableau) -> ShuOsherForm:
    """Convert a DIRK tableau to Shu-Osher form.

    For each stage k the coefficients are filled from j = k-1 down to 0:

        w_kj = a_kj / a_jj - sum_{l=j+1}^{k-1} a_kl * w_lj / a_ll
    """
    A = t.A
    s = t.s
    diag = np.diag(A)
    w = np.zeros((s, s))
    for k in range(1, s):
        for j in range(k - 1, -1, -1):
            acc = A[k, j] / A[j, j]
            for l in range(j + 1, k):
                acc -= A[k, l] * w[l, j] / A[l, l]
            w[k, j] = acc
    return ShuOsherForm(b_coeffs=w, diag=diag.copy(), c=t.c.copy())


# ---------------------------------------------------------------------------
# tableau catalog
# ---------------------------------------------------------------------------

@cache
def _build_catalog() -> dict[str, ButcherTableau]:
    cat: dict[str, ButcherTableau] = {}

    def add(name, A):
        cat[name] = ButcherTableau(name, A)

    # implicit (backward) Euler
    add("BE", [[1.0]])

    # classical 2-stage second-order SDIRK, nu = 1 - sqrt(2)/2
    nu = 1.0 - np.sqrt(2.0) / 2.0
    add("DIRK2", [[nu, 0.0],
                  [1.0 - nu, nu]])

    # classical 3-stage third-order DIRK; third order on the distribution
    # but only second order in the relaxation limit (the motivating case).
    # g is the root of 6 g^3 - 18 g^2 + 9 g - 1 in (0.4, 0.5); the limit
    # coefficients are sensitive at the 1e-6 level, so a test pins this
    # literal bitwise to the root a bracketing solver finds there
    g = 0.4358665215084589
    beta1 = -1.5 * g * g + 4.0 * g - 0.25
    beta2 = 1.5 * g * g - 5.0 * g + 1.25
    add("DIRK3-B2", [[g, 0.0, 0.0],
                     [(1.0 - g) / 2.0, g, 0.0],
                     [beta1, beta2, g]])

    # eight 4-stage third-order tableaus that additionally keep third order
    # in the relaxation limit, where at b = 0.6 they are unstable from k dt =
    # 0.003-0.004 pi (B3, B4, B6-B9), 0.116 pi (B5) or 1.623 pi (B10; README)
    add("DIRK3-B3", [
        [1.482285978970554, 0.0, 0.0, 0.0],
        [-0.6416366731243188, 1.482285978970554, 0.0, 0.0],
        [0.849139645385794, -1.961651886907531, 1.482285978970554, 0.0],
        [-0.1539440520308502, -1.343634476018696, 1.015292549078992, 1.482285978970554]])
    add("DIRK3-B4", [
        [0.1376586577601238, 0.0, 0.0, 0.0],
        [0.4224699960590905, 0.1376586577601238, 0.0, 0.0],
        [0.3693098698936377, 0.1203368321096427, 0.1376586577601238, 0.0],
        [0.330756291090243, 0.2479472066914047, 0.2836378444582285, 0.1376586577601238]])
    add("DIRK3-B5", [
        [4.025563222205342, 0.0, 0.0, 0.0],
        [-1.13430013749107, 4.025563222205342, 0.0, 0.0],
        [0.8450375691764959, -2.998987699483981, 4.025563222205342, 0.0],
        [-1.33950660036402, 4.925563641076701, -6.611620262918024, 4.025563222205342]])
    # exact rational entries
    add("DIRK3-B6", [
        [1.0 / 2.0, 0.0, 0.0, 0.0],
        [-1.0 / 4.0, 1.0 / 2.0, 0.0, 0.0],
        [-1.0, 2.0, 1.0 / 2.0, 0.0],
        [-1.0 / 12.0, 2.0 / 3.0, -1.0 / 12.0, 1.0 / 2.0]])
    add("DIRK3-B7", [
        [0.153198102889014, 0.0, 0.0, 0.0],
        [0.448032922908699, 0.153198102889014, 0.0, 0.0],
        [0.0, 0.021595742145288, 0.153198102889014, 0.0],
        [0.0, 0.466155735240408, 0.380646161870577, 0.153198102889014]])
    add("DIRK3-B8", [
        [0.193031472980198, 0.0, 0.0, 0.0],
        [-0.105824758791290, 0.193031472980198, 0.0, 0.0],
        [0.0, 0.286826200347934, 0.193031472980198, 0.0],
        [0.0, 0.204409312996206, 0.602559214023597, 0.193031472980198]])
    add("DIRK3-B9", [
        [0.127224858518235, 0.0, 0.0, 0.0],
        [0.204378631032151, 0.127224858518235, 0.0, 0.0],
        [0.0, 0.862399381468212, 0.127224858518235, 0.0],
        [0.0, 0.746092420734223, 0.126682720747542, 0.127224858518235]])
    # exact rational entries; the default third-order choice
    add("DIRK3-B10", [
        [1.0 / 4.0, 0.0, 0.0, 0.0],
        [1.0 / 7.0, 1.0 / 4.0, 0.0, 0.0],
        [61.0 / 144.0, -49.0 / 144.0, 1.0 / 4.0, 0.0],
        [0.0, 0.0, 3.0 / 4.0, 1.0 / 4.0]])
    return cat


def catalog() -> dict[str, ButcherTableau]:
    """Named map of the built-in tableaus (BE, DIRK2, DIRK3-B2 .. DIRK3-B10)."""
    return dict(_build_catalog())


def get_tableau(name: str) -> ButcherTableau:
    """The catalog tableau ``name``; ``ValueError`` for an unknown name."""
    cat = _build_catalog()
    if name not in cat:
        raise ValueError(f"unknown tableau {name!r}; known names: {', '.join(sorted(cat))}")
    return cat[name]


# ---------------------------------------------------------------------------
# plain-text serialization (CLI interchange format)
# ---------------------------------------------------------------------------

def tableau_to_text(t: ButcherTableau) -> str:
    """Serialize as `key = value` lines; A is row-major on one line."""
    fmt = lambda vals: " ".join(repr(float(v)) for v in vals)
    lines = [
        f"name = {t.name}",
        f"s = {t.s}",
        f"A = {fmt(t.A.ravel())}",
        f"c = {fmt(t.c)}",
        f"b = {fmt(t.b_weights)}",
    ]
    return "\n".join(lines) + "\n"


def parse_key_values(text: str) -> dict[str, str]:
    """Parse `key = value` lines; '#' starts a comment, blank lines are
    skipped.  A malformed line or a repeated key raises ``ValueError``."""
    entries: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed line {raw!r} (expected 'key = value')")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ValueError(f"repeated key {key!r} in line {raw!r}")
        entries[key] = value
    return entries


_TABLEAU_KEYS = ("A", "b", "c", "name", "s", "stiffly_accurate")


def tableau_from_text(text: str) -> ButcherTableau:
    """Parse the `key = value` format written by :func:`tableau_to_text`.

    ``s`` (at least 1) and ``A`` are required.  ``c`` and ``b`` are
    optional; when given, each must match what A implies (row sums, last
    row) within ``VALIDATION_TOL``.  ``stiffly_accurate``, if present, must
    be 1.  An unknown key, or a value that does not parse (reported as
    ``<key>: invalid <kind> value '<text>'``), raises ``ValueError``.
    """
    entries = parse_key_values(text)
    unknown = entries.keys() - set(_TABLEAU_KEYS)
    if unknown:
        raise ValueError(f"unknown tableau keys {sorted(unknown)}; "
                         f"expected a subset of {list(_TABLEAU_KEYS)}")
    missing = {"s", "A"} - entries.keys()
    if missing:
        raise ValueError(f"tableau file missing keys: {sorted(missing)}")

    def parse(key, convert, kind):
        try:
            return convert(entries[key])
        except ValueError:
            raise ValueError(f"{key}: invalid {kind} value {entries[key]!r}") from None

    floats = lambda text: np.array([float(v) for v in text.split()], dtype=float)
    if "stiffly_accurate" in entries and parse("stiffly_accurate", int, "int") != 1:
        raise ValueError(f"stiffly_accurate = {entries['stiffly_accurate']}: only "
                         f"stiffly accurate tableaus are supported")
    s = parse("s", int, "int")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    A = parse("A", floats, "float list")
    if A.size != s * s:
        raise ValueError(f"A has {A.size} entries, expected {s * s}")
    t = ButcherTableau(entries.get("name", "custom"), A.reshape(s, s))
    for key, implied, what in (("c", t.c, "the row sums of A"),
                               ("b", t.b_weights, "the last row of A")):
        if key in entries:
            given = parse(key, floats, "float list")
            if given.shape != (s,):
                raise ValueError(f"{key} has {given.size} entries, expected {s}")
            dev = np.max(np.abs(given - implied))
            if not dev <= VALIDATION_TOL:
                raise ValueError(f"{key} disagrees with {what} "
                                 f"(max deviation {dev:.3e})")
    return t


def load_tableau(path) -> ButcherTableau:
    return tableau_from_text(Path(path).read_text())


def resolve_tableau(name_or_path: str) -> ButcherTableau:
    """Look up a catalog name, falling back to reading a tableau file;
    ``ValueError`` when it is neither."""
    cat = _build_catalog()
    if name_or_path in cat:
        return cat[name_or_path]
    p = Path(name_or_path)
    if p.exists():
        return load_tableau(p)
    raise ValueError(f"{name_or_path!r} is neither a catalog tableau "
                     f"({', '.join(sorted(cat))}) nor an existing file")
