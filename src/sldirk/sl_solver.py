"""Semi-Lagrangian DIRK stepping for stiff relaxation models.

Each DIRK stage is advanced with a prediction/correction pair:

1. predict by shifting the step-start field along characteristics by
   c_k * dt per velocity, then adding the earlier stage relaxation
   increments shifted by (c_k - c_j) * dt and weighted by dt * a_kj;
2. take moments of the prediction and build the local equilibrium --
   because the relaxation term carries no moments, the prediction already
   has the stage moments, so the implicit relaxation solve closes in one
   algebraic step:

       f_k = (eps * predicted + a_kk * dt * M) / (eps + a_kk * dt).

The stage increment (M - f_k) / eps equals
(M - predicted) / (eps + a_kk * dt), which stays O(1) as eps -> 0.  Its
slot holds M - predicted, unscaled: the remap is linear, so the divisor
joins the weight of every term that reads the slot,
dt * a_kj / (eps + a_jj * dt).

Stiff accuracy makes the last stage the step output.  All spatial shifts
go through the conservative remap of :mod:`sldirk.dg`, so the discrete
collision invariants integrated over the domain are conserved to roundoff
for every tableau and every epsilon.

A solver keeps one workspace per dtype of the values it steps.  Its
stacked stage buffer holds the step-start values in slot 0 and the
increment of stage j in slot j + 1, so stage k's prediction is one call
of a multi-term :class:`~sldirk.dg.ShiftOperator` on the leading slots.
Per step size the workspace binds a stage plan: per stage that operator
and its relaxation kernels (the model's ``moment_kernel`` on the
prediction, its ``equilibrium_kernels`` on those moments, then one
subtraction, or the last stage's two scaled terms).  A warm step copies
its input in and runs only bound kernels; it allocates no field-sized
array except the one it returns.

A linear model (``model.linear``) steps through a compiled stencil
instead.  On the uniform periodic mesh its step is a block-circulant map
over the few element offsets it reaches; the workspace builds that
stencil once per step size from the stage plan, run on unit impulses in
long double and rounded once to the workspace dtype.  A warm step is then
one ``take`` into a gather buffer and one ``matmul`` that writes the
result.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .butcher import ButcherTableau
from .dg import DGField, Mesh1D, ShiftOperator, scalar_operand
from .models import DivergenceError, KineticModel, SimulationError, UnphysicalStateError

#: highest supported polynomial degree per element
MAX_DEGREE = 4


def _require_positive(name: str, value) -> None:
    """Raise ValueError unless ``value`` is finite and > 0 (NaN fails)."""
    if not (np.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {float(value)!r}")


@dataclass
class SimConfig:
    """Everything a run needs besides the initial data."""
    model: KineticModel
    tableau: ButcherTableau
    mesh: Mesh1D
    degree: int
    cfl: float
    eps: float
    t_final: float

    def __post_init__(self):
        if not (isinstance(self.degree, numbers.Integral) and 0 <= self.degree <= MAX_DEGREE):
            raise ValueError(f"polynomial degree {self.degree!r} is not a whole number in "
                             f"the supported range 0-{MAX_DEGREE}")
        for name in ("cfl", "eps", "t_final"):
            _require_positive(name, getattr(self, name))
        if self.model.velocity_set.max_speed == 0.0:
            raise ValueError("every velocity is 0, so the CFL number gives no time step")

    @property
    def dt(self) -> float:
        return self.cfl * self.mesh.dx / self.model.velocity_set.max_speed


@dataclass
class RunResult:
    """Final state plus per-step conservation and relaxation diagnostics."""
    config: SimConfig
    final: DGField
    macro: DGField
    times: np.ndarray
    invariants: np.ndarray
    equilibrium_distance: np.ndarray
    n_steps: int


class _Workspace:
    """The warm state of one solver for values of one dtype: scratch
    arrays, the step size last planned for and that step size's plan or
    stencil."""

    def __init__(self, shape: tuple, dtype, n_stages: int, n_terms: int, model: KineticModel):
        lead = shape[0]
        # slot 0 holds the step-start values, slot j + 1 the increment of
        # stage j times eps + a_jj * dt
        self.stages = np.empty((n_stages * lead,) + shape[1:], dtype)
        gather, product = ShiftOperator.scratch_shapes(shape, n_terms)
        self.gather = np.empty(gather, dtype)
        self.product = np.empty(product, dtype)
        self.predicted = np.empty(shape, dtype)
        self.moments = np.empty((model.n_invariants,) + shape[1:], dtype)
        # the product rows are free between remaps
        self.spare = self.product[:lead]
        # the equilibrium of the moments buffer, into the spare rows
        self.equilibrium = model.equilibrium_kernels(self.moments, self.spare)
        # the leading b slots, the remap input of b blocks, and each increment slot
        self.inputs = [self.stages[:b * lead] for b in range(1, n_stages + 1)]
        self.slots = [self.stages[k * lead:(k + 1) * lead] for k in range(1, n_stages)]
        self.dt: float | None = None
        # the stage plan of step size dt; a linear model's stencil instead
        self.plan = None


class SemiLagrangianSolver:
    """Reusable stepper; each workspace keeps the stage plan of its last dt.

    The same solver instance must not be shared across threads while
    stepping (the workspaces mutate), but distinct instances are
    independent and a finished instance is safe to read concurrently.
    """

    def __init__(self, model: KineticModel, mesh: Mesh1D, degree: int,
                 tableau: ButcherTableau, eps: float):
        _require_positive("eps", eps)
        self.model = model
        self.mesh = mesh
        self.degree = degree
        self.tableau = tableau
        self.eps = float(eps)
        self._shape = (model.velocity_set.n, mesh.n_elements, degree + 1)
        # per stage k, the earlier increments its prediction reads (a_kj != 0)
        A = tableau.A
        self._earlier = [[j for j in range(k) if A[k, j] != 0.0] for k in range(tableau.s)]
        self._workspaces: dict[np.dtype, _Workspace] = {}

    def _new_workspace(self, dtype) -> _Workspace:
        """A new workspace for values of ``dtype``, kept by no one."""
        return _Workspace(self._shape, dtype, self.tableau.s, 1 + max(map(len, self._earlier)),
                          self.model)

    def _workspace(self, values: np.ndarray) -> _Workspace:
        """The workspace for the dtype of the values' remap; ``ValueError``
        for values not of the solver's shape."""
        if values.shape != self._shape:
            raise ValueError(f"values of shape {values.shape} do not match the solver's "
                             f"(n_v, n_el, degree + 1) = {self._shape}")
        dtype = np.promote_types(values.dtype, float)
        ws = self._workspaces.get(dtype)
        if ws is None:
            ws = self._workspaces[dtype] = self._new_workspace(dtype)
        return ws

    def _stage_plan(self, ws: _Workspace, dt: float) -> tuple:
        """The stage plan of ``ws`` for step size ``dt``: per stage k its
        operator -- the step-start values shifted by c_k * dt plus each
        earlier increment slot j with a_kj != 0, shifted by (c_k - c_j) * dt
        and weighted by dt * a_kj / (eps + a_jj * dt) -- its remap input
        and its relaxation kernels, then the two terms whose sum is the
        step output.  Scalar operands are bound as 0-d arrays of the
        workspace dtype."""
        eps, A, c, model = self.eps, self.tableau.A, self.tableau.c, self.model
        v = model.velocity_set.v
        predicted, spare = ws.predicted, ws.spare
        last = self.tableau.s - 1
        stages = []
        for k, earlier in enumerate(self._earlier):
            shifts = [v * (c[k] * dt)] + [v * ((c[k] - c[j]) * dt) for j in earlier]
            op = ShiftOperator(self.mesh, self.degree, np.array(shifts),
                               blocks=[0] + [j + 1 for j in earlier],
                               weights=[dt * A[k, j] / (eps + A[j, j] * dt) for j in earlier])
            w_dt = A[k, k] * dt
            if k < last:
                # M - predicted, the increment times eps + w_dt, in its slot
                M = ws.slots[k]
                tail = [(np.subtract, (M, predicted, M))]
            else:
                # only the earlier increments are read again: the last
                # equilibrium goes to the step-start slot, free after its remap
                M = ws.inputs[0]
                tail = [(np.multiply, (M, scalar_operand(w_dt / (eps + w_dt), M.dtype), M)),
                        (np.multiply, (scalar_operand(eps / (eps + w_dt), spare.dtype),
                                       predicted, spare))]
            kernels = ([model.moment_kernel(predicted, ws.moments)]
                       + model.equilibrium_kernels(ws.moments, M) + tail)
            stages.append((op, ws.inputs[op.n_blocks - 1], kernels))
        ws.dt, ws.plan = dt, (stages, M)
        return ws.plan

    def _stencil(self, ws: _Workspace, dt: float) -> tuple:
        """The stencil of ``ws`` for step size ``dt``, a linear model's step
        compiled: on the uniform periodic mesh that step is the block
        circulant map

            out[w, i, a] = sum over d in D, v, j of K[w, d, v, j, a] * values[v, i - d, j]

        over the element offsets D it reaches.  K is the step of the unit
        impulses of element 0, run through the stage plan in long double;
        the offsets of exact zeros lie beyond the reach (on a mesh
        narrower than the reach every offset stays and wraps), and K is
        rounded once to the workspace dtype.  Returns D, the flat indexes
        that gather values[v, i - d, j] into row i of the gather buffer,
        that buffer, (n_el, |D| * n_v * q), and the (n_v, |D| * n_v * q, q)
        stack of K."""
        n_v, n, q = self._shape
        exact = self._new_workspace(np.longdouble)
        stages, M = self._stage_plan(exact, dt)
        impulse = np.zeros(self._shape, np.longdouble)
        # response[v, j, w, d, a]: node a of element d of velocity w after
        # the step of the impulse at node j of element 0 of velocity v
        response = np.empty((n_v, q) + self._shape, np.longdouble)
        for v in range(n_v):
            for j in range(q):
                impulse[v, 0, j] = 1.0
                response[v, j] = self._run_plan(exact, impulse, stages, M)
                impulse[v, 0, j] = 0.0
        offsets = np.flatnonzero(response.any(axis=(0, 1, 2, 4)))
        stack = response[:, :, :, offsets].transpose(2, 3, 0, 1, 4).reshape(n_v, -1, q)
        i, d = np.arange(n)[:, None, None, None], offsets[:, None, None]
        rows = ((np.arange(n_v)[:, None] * n + (i - d) % n) * q + np.arange(q)).ravel()
        dtype = ws.stages.dtype
        ws.dt, ws.plan = dt, (offsets, rows, np.empty((n, rows.size // n), dtype),
                              np.ascontiguousarray(stack.astype(dtype)))
        return ws.plan

    def _located(self, exc: UnphysicalStateError, context: str) -> UnphysicalStateError:
        """``exc`` restated after ``context``, with the coordinate of the
        node its ``flat_index`` names when it has one."""
        where = ""
        flat = getattr(exc, "flat_index", None)
        if flat is not None:
            x = self.mesh.node_coords(self.degree).ravel()[flat]
            where = f" near x = {x:.6g}"
        return UnphysicalStateError(f"{context}{where}: {exc}")

    def step_values(self, values: np.ndarray, dt: float) -> np.ndarray:
        """Advance raw nodal values (n_v, n_el, q) by one step of size dt.

        The result is a fresh array; everything else lives in the solver's
        workspace for the values' dtype.  Values of another shape raise
        ``ValueError``.
        """
        ws = self._workspace(values)
        if self.model.linear:
            _, rows, gathered, stack = ws.plan if ws.dt == dt else self._stencil(ws, dt)
            # take writes only into its own dtype; the rows are in range, and
            # mode="clip" spares the buffered copy of mode="raise"
            values.astype(gathered.dtype, copy=False).reshape(-1).take(
                rows, 0, gathered.reshape(-1), "clip")
            return np.matmul(gathered, stack)
        return self._run_plan(ws, values, *(ws.plan if ws.dt == dt else self._stage_plan(ws, dt)))

    def _run_plan(self, ws: _Workspace, values: np.ndarray, stages: list, M) -> np.ndarray:
        """One step of ``values`` through the stage plan ``stages`` of
        ``ws``, whose last equilibrium goes to ``M``; a fresh result."""
        predicted, gather, product = ws.predicted, ws.gather, ws.product
        ws.inputs[0][...] = values  # the step-start slot
        for k, (op, inputs, kernels) in enumerate(stages):
            op.apply(inputs, predicted, gather=gather, product=product)
            try:
                for kernel, args in kernels:
                    kernel(*args)
            except UnphysicalStateError as exc:
                raise self._located(
                    exc, f"stage {k + 1} of tableau {self.tableau.name!r}") from exc
        # stiff accuracy: the last stage, (a_kk * dt * M + eps * predicted)
        # / (eps + a_kk * dt), is the step output, the sum of its two terms
        return np.add(M, ws.spare)

    def invariant_integrals(self, values: np.ndarray, moments=None) -> np.ndarray:
        """Domain integrals of the conserved moments, shape (K,).

        ``moments`` may pass in ``model.moments(values)`` when the caller
        already has it.
        """
        U = self.model.moments(values) if moments is None else moments
        return self.mesh.integrate(U)

    def equilibrium_distance(self, values: np.ndarray, moments=None) -> float:
        """Velocity-weighted L1 distance of f from its own equilibrium, real
        also for complex values; ``moments`` as in :meth:`invariant_integrals`."""
        ws = self._workspace(values)
        ws.moments[...] = self.model.moments(values) if moments is None else moments
        for kernel, args in ws.equilibrium:
            kernel(*args)
        M = ws.spare
        M -= values
        per_v = self.mesh.integrate(np.abs(M, out=M).real)
        return float(np.dot(self.model.velocity_set.w, per_v))


def run(cfg: SimConfig, initial: DGField, diagnostics_every: int = 1) -> RunResult:
    """Advance from t = 0 to t_final with fixed dt; unless t_final is a whole
    number of steps (to 1e-12 of a step), the last step shrinks to land on
    t_final.  The last recorded time is t_final.

    ``diagnostics_every`` controls how often the conservation/relaxation
    diagnostics are recorded (0 records only the endpoints; a negative
    value raises ``ValueError``).  Aborts with :class:`DivergenceError` as
    soon as the field stops being finite; a :class:`SimulationError` from a
    step or from its diagnostics carries that step and its end time (step 0
    and time 0 for the initial data).
    """
    if diagnostics_every < 0:
        raise ValueError(f"diagnostics_every must be >= 0, got {diagnostics_every}")
    solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    dt = cfg.dt
    n_steps = max(1, int(np.ceil(cfg.t_final / dt - 1e-12)))
    # a t_final of a whole number of steps takes full steps only, rather
    # than a last one shortened by the roundoff of the summed times
    whole = n_steps - cfg.t_final / dt <= 1e-12

    values = np.array(initial.values)
    # the check of each step's values: the reduction ndarray.all makes,
    # without its Python wrapper
    finite = np.empty(values.shape, bool)
    if not np.logical_and.reduce(np.isfinite(values, out=finite), axis=None):
        raise DivergenceError("initial data contains non-finite values", step=0, time=0.0)
    times, invariants, eq_dist = [0.0], [], []

    def record(values, step):
        # both diagnostics read the same moments, taken once
        try:
            U = cfg.model.moments(values)
            invariants.append(solver.invariant_integrals(values, U))
            eq_dist.append(solver.equilibrium_distance(values, U))
        except UnphysicalStateError as exc:
            raise solver._located(exc, f"diagnostics after step {step}") from exc

    # overflow during a diverging run is reported via DivergenceError, not
    # as numpy warnings
    step, t = 0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            record(values, 0)
            for step in range(1, n_steps + 1):
                step_dt = dt if whole else min(dt, cfg.t_final - t)
                t = cfg.t_final if step == n_steps else t + step_dt
                values = solver.step_values(values, step_dt)
                if not np.logical_and.reduce(np.isfinite(values, out=finite), axis=None):
                    raise DivergenceError(
                        f"non-finite values after step {step} (t = {t:.6g}, "
                        f"tableau {cfg.tableau.name!r}, cfl = {cfg.cfl})")
                if (diagnostics_every and step % diagnostics_every == 0) or step == n_steps:
                    times.append(t)
                    record(values, step)
        except SimulationError as exc:
            exc.step, exc.time = step, t
            raise

    final = DGField(mesh=cfg.mesh, values=values)
    macro = DGField(mesh=cfg.mesh, values=cfg.model.moments(values))
    return RunResult(config=cfg, final=final, macro=macro,
                     times=np.asarray(times), invariants=np.asarray(invariants),
                     equilibrium_distance=np.asarray(eq_dist), n_steps=n_steps)


def l1_error(a: DGField, b: DGField, velocity_weights=None) -> float:
    """Gauss-quadrature L1 distance between two fields on the same mesh.

    Leading axes are summed; pass the velocity weights to compare
    distribution functions, leave None for macro fields (components are
    added up).
    """
    if a.mesh != b.mesh:
        raise ValueError("fields live on different meshes")
    if a.values.shape != b.values.shape:
        raise ValueError(f"field shapes differ: {a.values.shape} vs {b.values.shape}")
    per_lead = a.mesh.integrate(np.abs(a.values - b.values))
    if velocity_weights is not None:
        return float(np.tensordot(np.asarray(velocity_weights), per_lead, axes=(0, 0)))
    return float(np.sum(per_lead))
