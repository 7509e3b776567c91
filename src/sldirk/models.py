"""Kinetic relaxation models: collision invariants, moments, equilibria.

All models share the relaxation structure df/dt = (M[U] - f) / eps along
characteristics, where U are the conserved moments of f and M[U] the local
equilibrium.  Distribution arrays carry the velocity index on the leading
axis, so f has shape (n_v, ...) and the moment vector U has shape (K, ...)
with K the number of collision invariants.

A model states U and M[U] once, as bound kernels: ``moment_kernel``
writes the moments of f into U and ``equilibrium_kernels`` write M[U].
The solver binds them once per stage plan; ``moments`` and
``equilibrium`` run them on fresh arrays.  A model whose M[U] is linear
says so (``linear``), and the solver then compiles its step.  The gas
model takes real values only and raises ``ValueError`` for complex ones.

A failed run raises a :class:`SimulationError`: an
:class:`UnphysicalStateError` when the moments leave the physical region,
a :class:`DivergenceError` when the field stops being finite or the
discrete Maxwellian fit does not converge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dg import ensure_buffer, scalar_operand


class SimulationError(RuntimeError):
    """A run failed; ``step`` and ``time`` locate it when known."""

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class UnphysicalStateError(SimulationError):
    """Moments left the physical region (nonpositive density or temperature)."""


class DivergenceError(SimulationError):
    """The solution left the finite range mid-run, or the discrete Maxwellian
    fit did not converge or hit a singular Jacobian."""


@dataclass(frozen=True)
class VelocitySet:
    """Discrete velocities with positive quadrature weights."""
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float).ravel()
        w = np.asarray(self.w, dtype=float).ravel()
        if v.shape != w.shape:
            raise ValueError("velocities and weights must have equal length")
        if not (np.isfinite(v).all() and np.isfinite(w).all()):
            raise ValueError("velocities and quadrature weights must be finite")
        if np.any(w <= 0.0):
            raise ValueError("quadrature weights must be positive")
        v.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    @property
    def n(self) -> int:
        return len(self.v)

    @property
    def max_speed(self) -> float:
        return float(np.max(np.abs(self.v)))

    @classmethod
    def two_velocity(cls) -> "VelocitySet":
        """The set {+1, -1} with unit weights (moments are plain sums)."""
        return cls(v=np.array([1.0, -1.0]), w=np.array([1.0, 1.0]))

    @classmethod
    def uniform(cls, v_min: float, v_max: float, n_v: int) -> "VelocitySet":
        """Uniform grid with equal weights dv.

        For equilibria that decay below machine epsilon at the endpoints
        this quadrature is spectrally accurate, so the grid doubles as a
        trapezoid/midpoint rule.
        """
        if not (isinstance(n_v, (int, np.integer)) and n_v >= 2):
            raise ValueError(f"the velocity count must be a whole number >= 2, got {n_v!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # __post_init__ rejects non-finite
            v = np.linspace(v_min, v_max, n_v)
            dv = (v_max - v_min) / (n_v - 1)
        return cls(v=v, w=np.full(n_v, dv))


class KineticModel:
    """Common relaxation machinery.  Subclasses set the attributes below
    and give their relaxation once, in bound form: ``moment_kernel`` and
    ``equilibrium_kernels``.  ``moments`` and ``equilibrium`` run those
    kernels on fresh arrays."""

    name: str
    velocity_set: VelocitySet
    n_invariants: int
    invariant_names: tuple[str, ...]
    #: M[U] is linear in U, so that a step of the model is a linear map of f
    linear = False

    def _dtype(self, a: np.ndarray) -> np.dtype:
        """The dtype the model computes ``a`` in: float64; ``ValueError``
        for complex ``a``."""
        if a.dtype.kind == "c":
            raise ValueError(f"the {self.name} model takes real values, got {a.dtype}")
        return np.dtype(np.float64)

    def moments(self, f) -> np.ndarray:
        """The moments U of ``f`` (n_v, ...), shape (K,) + f.shape[1:]."""
        f = np.asarray(f)
        f = np.ascontiguousarray(f, dtype=self._dtype(f))
        U = np.empty((self.n_invariants,) + f.shape[1:], f.dtype)
        kernel, args = self.moment_kernel(f, U)
        kernel(*args)
        return U

    def equilibrium(self, U, out=None) -> np.ndarray:
        """M[U], shape (n_v,) + U.shape[1:], written into ``out`` when given."""
        U = np.asarray(U)
        U = np.ascontiguousarray(U, dtype=self._dtype(U))
        out = ensure_buffer("out", out, (self.velocity_set.n,) + U.shape[1:], U.dtype)
        for kernel, args in self.equilibrium_kernels(U, out):
            kernel(*args)
        return out

    def moment_kernel(self, f, U) -> tuple:
        """The (callable, arguments) pair that writes the moments of ``f``
        into ``U`` (shape (K,) + f.shape[1:]); the equilibrium kernels that
        read ``U`` check it.  It reads ``f`` when called, so a pair bound
        to fixed arrays serves every step."""
        raise NotImplementedError

    def equilibrium_kernels(self, U, out) -> list:
        """(callable, arguments) pairs that, called in turn, write M[U] into
        ``out``, raising for moments outside the physical region."""
        raise NotImplementedError


class _TwoVelocity(KineticModel):
    """Components (f_1, f_2) moving at v = +1 / -1 with coupling ``b``; the
    single conserved moment is U = f_1 + f_2.  Float and complex values
    keep their dtype.  Subclasses supply the equilibrium as
    ``equilibrium_kernels``, the (ufunc, arguments) pairs writing M of the
    density U[0] into ``out``; they bind each coefficient as a 0-d array
    of ``out``'s dtype."""

    n_invariants = 1
    invariant_names = ("mass",)

    def __init__(self, b: float):
        self.b = float(b)
        self.velocity_set = VelocitySet.two_velocity()

    def _dtype(self, a):
        return a.dtype if a.dtype.kind in "fc" else np.dtype(np.float64)

    def moment_kernel(self, f, U):
        # views, also for f of shape (2,)
        return (np.add, (f[0, ...], f[1, ...], U[0, ...]))


class LinearTwoVelocity(_TwoVelocity):
    """Two opposite unit velocities with a linear equilibrium.

    The equilibrium splits U as ((1+b)/2, (1-b)/2), so the relaxation term
    is (b*(f_1+f_2) - (f_1-f_2)) / 2 with opposite signs on the two
    components.
    """

    name = "linear-two-velocity"
    linear = True

    def __init__(self, b: float):
        if not abs(b) < 1.0:
            raise ValueError(f"coupling b = {b} must satisfy |b| < 1")
        super().__init__(b)

    def equilibrium_kernels(self, U, out):
        u = U[0, ...]
        return [(np.multiply, (scalar_operand(0.5 * (1.0 + self.b), out.dtype), u, out[0, ...])),
                (np.multiply, (scalar_operand(0.5 * (1.0 - self.b), out.dtype), u, out[1, ...]))]


class NonlinearTwoVelocity(_TwoVelocity):
    """Two-velocity model whose relaxation limit is a quadratic-flux law.

    The equilibrium is ((b*u^2 + u)/2, (-b*u^2 + u)/2) for u = f_1 + f_2,
    so the limiting conservation law transports u with flux b*u^2.
    """

    name = "nonlinear-two-velocity"

    def equilibrium_kernels(self, U, out):
        u, flux, minus = U[0, ...], out[0, ...], out[1, ...]  # views, also for 0-d u
        b, half = scalar_operand(self.b, out.dtype), scalar_operand(0.5, out.dtype)
        return [(np.multiply, (b, u, flux)), (np.multiply, (flux, u, flux)),
                (np.negative, (flux, minus)), (np.add, (minus, u, minus)),
                (np.multiply, (minus, half, minus)), (np.add, (flux, u, flux)),
                (np.multiply, (flux, half, flux))]


def maxwellian(v, rho, u, T):
    """1V Maxwellian rho / sqrt(2 pi T) * exp(-(v-u)^2 / (2T)).

    ``v`` has shape (n_v,); rho/u/T broadcast against each other and become
    the trailing field axes, producing shape (n_v,) + field shape.  The
    operations of that expression run in place on the result, so it is the
    expression to the bit with no field-sized temporary.
    """
    v = np.asarray(v, dtype=float)
    rho, u, T = np.broadcast_arrays(np.asarray(rho, dtype=float),
                                    np.asarray(u, dtype=float),
                                    np.asarray(T, dtype=float))
    f = v.reshape((v.shape[0],) + (1,) * rho.ndim) - u
    np.square(f, out=f)
    np.negative(f, out=f)
    np.divide(f, 2.0 * T, out=f)
    np.exp(f, out=f)
    return np.multiply(rho / np.sqrt(2.0 * np.pi * T), f, out=f)


#: relative moment residual at which the discrete Maxwellian fit stops
NEWTON_TOL = 1e-13
#: Newton iterations after which the discrete Maxwellian fit gives up
NEWTON_MAX_ITER = 50
#: the default velocity grid of the gas model: N_V points on [-V_MAX, V_MAX]
N_V = 100
V_MAX = 15.0


class BGK1D(KineticModel):
    """1D1V gas model relaxing toward a local Maxwellian.

    Conserved moments are (rho, rho*u, E) against (1, v, v^2/2).  The
    equilibrium is the *discrete* Maxwellian exp(alpha + beta v + gamma v^2)
    whose quadrature moments match U exactly (Mieussens, M3AS 2000), making
    the relaxation term conserve mass, momentum and energy to machine
    precision instead of quadrature accuracy.
    """

    name = "bgk-1d1v"
    n_invariants = 3
    invariant_names = ("mass", "momentum", "energy")

    def __init__(self, velocity_set: VelocitySet | None = None):
        self.velocity_set = velocity_set if velocity_set is not None \
            else VelocitySet.uniform(-V_MAX, V_MAX, N_V)
        v, w = self.velocity_set.v, self.velocity_set.w
        # the basis (n_v, 3) of the exponent: 1, v, v^2
        self._basis = np.stack([np.ones_like(v), v, v * v], axis=1)
        # weighted powers (5, n_v): rows w, w*v, w*v^2/2, w*v^3/2, w*v^4/2;
        # the first three are the weighted invariants
        half = 0.5 * w * v * v
        self._wpow = np.stack([w, w * v, half, half * v, half * v * v])
        self._wphi = self._wpow[:3]

    def moments(self, f):
        U = super().moments(f)
        self.parameters(U)  # rejects rho <= 0 and T <= 0
        return U

    def moment_kernel(self, f, U):
        # the flat forms must be views, so both arrays are C-contiguous
        ensure_buffer("f", f, f.shape, f.dtype)
        ensure_buffer("moments", U, (3,) + f.shape[1:], np.result_type(self._wphi, f))
        return (np.dot, (self._wphi, f.reshape(f.shape[0], -1), U.reshape(3, -1)))

    @staticmethod
    def parameters(U):
        """(rho, u, T) of the moments U.  Raises UnphysicalStateError, with
        the flat index of the first bad point, unless rho > 0 and T > 0."""
        rho = U[0]
        params = np.empty((3,) + np.shape(rho))
        _gas_parameters(U, params[0, ...], params[1, ...], params[2, ...])
        return rho, params[0], params[1]

    def equilibrium_kernels(self, U, out):
        """One kernel, the fit of ``_fit``, bound to the flat forms of ``U``
        and ``out`` (C-contiguous float64) and to per-point scratch."""
        ensure_buffer("moments", U, (3,) + U.shape[1:], np.float64)
        n_v = self.velocity_set.n
        ensure_buffer("out", out, (n_v,) + U.shape[1:], np.float64)
        U = U.reshape(3, -1)
        n = U.shape[1]
        scratch = np.empty((4, n)), np.empty((3, n)), np.empty((5, n)), np.empty((2, 3, n))
        return [(self._fit, (U, out.reshape(n_v, -1)) + scratch)]

    def _fit(self, U, M, params, theta, S, residual):
        """Newton on theta = (alpha, beta, gamma) at each point of the flat
        moments U (3, P), writing exp(alpha + beta v + gamma v^2) into M
        (n_v, P).  It starts at the analytic Maxwellian's parameters, which
        are already within quadrature error, so usually no iteration runs.
        The Jacobian of the moments in theta is the Gram matrix of the same
        weighted power sums S that give them.  ``params`` holds the rows
        u, T, u^2 and a spare one, ``residual`` the residual and its
        relative size."""
        u, T, uu, spare = params
        rho = U[0]
        _gas_parameters(U, u, T, uu)
        # theta = (log(rho / sqrt(2 pi T)) - u^2 / (2 T), u / T, -0.5 / T)
        alpha = theta[0]
        np.multiply(2.0 * np.pi, T, out=alpha)
        np.sqrt(alpha, out=alpha)
        np.divide(rho, alpha, out=alpha)
        np.log(alpha, out=alpha)
        np.multiply(2.0, T, out=spare)
        np.divide(uu, spare, out=spare)
        np.subtract(alpha, spare, out=alpha)
        np.divide(u, T, out=theta[1])
        np.divide(-0.5, T, out=theta[2])
        res, rel = residual
        max_iter = NEWTON_MAX_ITER
        for _ in range(max_iter):
            np.exp(np.dot(self._basis, theta, out=M), out=M)
            np.dot(self._wpow, M, out=S)
            np.subtract(S[:3], U, out=res)
            np.divide(np.abs(res, out=rel), rho, out=rel)
            if rel.max() <= NEWTON_TOL:
                return
            J = np.stack([S[0], S[1], 2.0 * S[2], S[1], 2.0 * S[2], 2.0 * S[3],
                          S[2], S[3], S[4]], axis=-1).reshape(-1, 3, 3)
            try:
                step = np.linalg.solve(J, res.T[..., None])[..., 0]
            except np.linalg.LinAlgError as exc:
                raise self._fit_failure("hit a singular Jacobian", T, rel) from exc
            theta -= step.T
        raise self._fit_failure(f"did not converge within {max_iter} iterations", T,
                                rel if max_iter > 0 else None)

    def _fit_failure(self, reason, T, rel):
        """The DivergenceError of a fit that ``reason``.  It names the
        velocity grid spacing dv (the largest gap) and the smallest sqrt(T)
        among the points whose relative residual ``rel`` (None before the
        first) misses NEWTON_TOL."""
        failing = T if rel is None else T[~(rel.max(axis=0) <= NEWTON_TOL)]
        gaps = np.diff(np.sort(self.velocity_set.v))
        dv = gaps.max() if gaps.size else np.nan
        return DivergenceError(
            f"discrete Maxwellian fit {reason}: velocity spacing dv = {dv:.3g}, smallest "
            f"sqrt(T) among the failing points = {np.sqrt(np.min(failing)):.3g}; grids "
            f"with dv above about 2 sqrt(T) do not resolve the Maxwellian")


def _gas_parameters(U, u, T, uu):
    """Write u = U[1] / rho, T = 2 U[2] / rho - u^2 and u^2 of the gas
    moments U (rho = U[0]) into the arrays ``u``, ``T`` and ``uu``.  Raises
    UnphysicalStateError, with the flat index of the first bad point,
    unless rho > 0 and T > 0."""
    rho = U[0]
    np.divide(U[1], rho, out=u)
    np.multiply(u, u, out=uu)
    np.multiply(2.0, U[2], out=T)
    np.divide(T, rho, out=T)
    np.subtract(T, uu, out=T)
    bad = (rho <= 0.0) | (T <= 0.0)
    if np.any(bad):
        exc = UnphysicalStateError(
            f"moments left the physical region: min rho = {np.min(rho):.3e}, "
            f"min T = {np.min(T):.3e}")
        exc.flat_index = int(np.argmax(np.ravel(bad)))
        raise exc
