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

A linear model (``model.linear``) steps float64 and complex128 work
through a compiled step instead.  On the uniform periodic mesh its step
is a block-circulant map over the few element offsets it reaches.  The
solver runs the stage plan in long double on unit impulses spaced past
the reach of the stage shifts, which no element count changes: all in
one run on a periodic patch of 2^k elements of the mesh's dx.  The DFT
of the responses in the window of the step's reach, each offset taken
modulo n_el, is the step's Fourier symbol, one (n_v q) x (n_v q) block
per wavenumber.  One plan carries several step sizes side by side, each
(velocity, step size) pair a slice of its stage operators
(:meth:`SemiLagrangianSolver.compile`); a step size met while stepping is
compiled alone.  Any number of steps, one included, is one FFT pair
around a product with the symbol's power, raised in long double and
rounded once to complex128 (:func:`_product`, ``np.matmul`` without
``np.matvec``).  Long-double work steps through the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import repeat
from operator import add

import numpy as np

from .butcher import ButcherTableau
from .dg import (DGField, Mesh1D, ShiftOperator, _group_size, require_positive,
                 scalar_operand, shift_cells, whole_number)
from .models import DivergenceError, KineticModel, SimulationError, UnphysicalStateError

#: highest supported polynomial degree per element
MAX_DEGREE = 4

#: the dtypes that every supported numpy transforms in their own precision
_FFT_DTYPES = (np.dtype(float), np.dtype(complex))


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
        self.degree = whole_number("degree", self.degree, 0, MAX_DEGREE)
        for name in ("cfl", "eps", "t_final"):
            require_positive(name, getattr(self, name))
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
    #: the step number of each record, 0 for the initial data
    steps: np.ndarray


def _by_velocity(a: np.ndarray, n_v: int) -> np.ndarray:
    """Values ``a`` of (n_v * batch, n_el, q) as the (n_v, batch * n_el, q)
    view that the model reads."""
    return a.reshape(n_v, -1, a.shape[-1])


class _Workspace:
    """The warm state of a ``solver`` for values of one dtype on ``mesh``
    (the solver's by default): scratch arrays, the step size last planned
    for and that step size's stage plan.  A workspace of a ``batch``
    of step sizes holds their values side by side: slice v * batch + b of
    its (n_v * batch, n_el, q) arrays is velocity v at step size b."""

    def __init__(self, solver: SemiLagrangianSolver, dtype, batch: int = 1,
                 mesh: Mesh1D | None = None):
        self.mesh = mesh or solver.mesh
        (n_v, _, q), model, n_stages = solver._shape, solver.model, solver.tableau.s
        n, lead = self.mesh.n_elements, n_v * batch
        # slot 0 holds the step-start values, slot j + 1 the increment of
        # stage j times eps + a_jj * dt
        self.stages = np.empty((n_stages * lead, n, q), dtype)
        gather, product = ShiftOperator.scratch_shapes(
            (lead, n, q), 1 + max(map(len, solver._earlier)))
        self.gather = np.empty(gather, dtype)
        self.product = np.empty(product, dtype)
        self.predicted = np.empty((lead, n, q), dtype)
        self.moments = np.empty((model.n_invariants, batch * n, q), dtype)
        # the product rows are free between remaps
        self.spare = self.product[:lead]
        # the equilibrium of the moments buffer, into the spare rows
        self.equilibrium = model.equilibrium_kernels(self.moments, _by_velocity(self.spare, n_v))
        # the leading b slots, the remap input of b blocks, and each increment slot
        self.inputs = [self.stages[:b * lead] for b in range(1, n_stages + 1)]
        self.slots = [self.stages[k * lead:(k + 1) * lead] for k in range(1, n_stages)]
        self.dt: float | None = None
        # the stage plan of step size dt
        self.plan = None


@dataclass
class _LinearStep:
    """A linear model's step of one size, built once and shared by every
    workspace: the element offsets it reaches, the long-double symbol of
    the wavenumbers 0 ... n_el // 2 and its powers rounded to complex128,
    by step count."""
    offsets: np.ndarray
    symbol: np.ndarray
    powers: dict = field(default_factory=dict)


def _roots_of_unity(n: int) -> np.ndarray:
    """exp(-2 pi i m / n) for m = 0 ... n - 1 in long double, the angle
    2 pi m / n taken from the exact m."""
    return np.exp(-1j * ((2 * np.arccos(np.longdouble(-1)) / n) * np.arange(n)))


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` as ``np.matvec`` dots of b's columns with a's rows: matmul's terms
    in its order, summed in registers rather than in memory, their factors swapped,
    which changes no bit; ``np.matmul`` where numpy (before 2.2) has no ``np.matvec``."""
    if not hasattr(np, "matvec"):
        return np.matmul(a, b)
    return np.matvec(b.swapaxes(-1, -2)[..., None, :, :], a)


def _power(a: np.ndarray, n: int) -> np.ndarray:
    """``np.linalg.matrix_power(a, n)``, n >= 1, from its products in its order."""
    if n == 3:
        return _product(_product(a, a), a)
    square = result = None
    while n:
        square = a if square is None else _product(square, square)
        n, bit = divmod(n, 2)
        if bit:
            result = square if result is None else _product(result, square)
    return result


def _linear_step_of(response: np.ndarray, window: np.ndarray, roots: np.ndarray) -> _LinearStep:
    """The compiled step from the long-double responses
    ``response[v, j, w, d, a]`` at element offsets ``window[d]``
    (:meth:`SemiLagrangianSolver._responses`).  The offsets of exact zeros
    lie beyond the reach; the others are kept in ascending order modulo
    n_el, and where two coincide modulo n_el (a mesh narrower than the
    reach) each keeps its own block and the sums add both.
    The symbol of wavenumber k is their block sum of K[:, d] exp(-2 pi i k
    d / n_el), rows (w, a) and columns (v, j), with the phases k d mod n_el
    of ``roots``, :func:`_roots_of_unity` of n_el.  K is real, so the
    symbol's real and imaginary parts are two real products (:func:`_product`,
    ``np.matmul`` without ``np.matvec``).  Where long double is no wider
    than float64, all of this composes in float64 precision."""
    n_v, q, n = *response.shape[:2], len(roots)
    order = np.argsort(window % n)
    order = order[response.any(axis=(0, 1, 2, 4))[order]]
    offsets, kept = window[order] % n, response[:, :, :, order]
    phases = roots[np.arange(n // 2 + 1)[:, None] * offsets % n]
    blocks = kept.transpose(3, 2, 4, 0, 1).reshape(len(offsets), -1)
    symbol = np.empty((len(phases), n_v * q, n_v * q), roots.dtype)
    symbol.real = _product(phases.real, blocks).reshape(symbol.shape)
    symbol.imag = _product(phases.imag, blocks).reshape(symbol.shape)
    return _LinearStep(offsets, symbol)


class SemiLagrangianSolver:
    """Reusable stepper; each workspace keeps the stage plan of its last dt,
    and a linear model's compiled step of every dt is kept and shared by
    all (:meth:`compile` builds several at once).

    The same solver instance must not be shared across threads while
    stepping (the workspaces mutate), but distinct instances are
    independent and a finished instance is safe to read concurrently.
    """

    def __init__(self, model: KineticModel, mesh: Mesh1D, degree: int,
                 tableau: ButcherTableau, eps: float):
        require_positive("eps", eps)
        self.model = model
        self.mesh = mesh
        self.degree = whole_number("degree", degree, 0, MAX_DEGREE)
        self.tableau = tableau
        self.eps = float(eps)
        self._shape = (model.velocity_set.n, mesh.n_elements, self.degree + 1)
        # per stage k, the earlier increments its prediction reads (a_kj != 0)
        A = tableau.A
        self._earlier = [[j for j in range(k) if A[k, j] != 0.0] for k in range(tableau.s)]
        self._workspaces: dict[np.dtype, _Workspace] = {}
        # a linear model's compiled step of each dt
        self._linear: dict[float, _LinearStep] = {}

    def _workspace(self, values: np.ndarray) -> _Workspace:
        """The workspace for the dtype of the values' remap; ``ValueError``
        for values not of the solver's shape."""
        if values.shape != self._shape:
            raise ValueError(f"values of shape {values.shape} do not match the solver's "
                             f"(n_v, n_el, degree + 1) = {self._shape}")
        dtype = np.promote_types(values.dtype, float)
        ws = self._workspaces.get(dtype)
        if ws is None:
            ws = self._workspaces[dtype] = _Workspace(self, dtype)
        return ws

    def _stage_plan(self, ws: _Workspace, *dts: float) -> tuple:
        """The stage plan of ``ws`` for the step sizes ``dts`` side by side,
        one for a stepping workspace: per stage k its operator -- the
        step-start values shifted by c_k * dt plus each earlier increment
        slot j with a_kj != 0, shifted by (c_k - c_j) * dt and weighted by
        dt * a_kj / (eps + a_jj * dt), per (velocity, step size) slice --
        its remap input and its relaxation kernels, then the two terms
        whose sum is the step output.  A lone step size's weights are
        numbers and its scalar operands 0-d arrays of the workspace dtype;
        a batch has one of each per slice."""
        eps, A, model = self.eps, self.tableau.A, self.model
        n_v = model.velocity_set.n
        predicted, spare = ws.predicted, ws.spare
        last = self.tableau.s - 1

        def per_slice(values):
            # one value per step size: itself for a lone step size, else
            # one per (velocity, step size) slice
            return values[0] if len(dts) == 1 else np.tile(values, n_v)

        def operand(values, dtype):
            # per_slice as a ufunc operand against the (slices, n_el, q) slots
            x = scalar_operand(per_slice(values), dtype)
            return x[:, None, None] if x.ndim else x

        stages = []
        for k, (earlier, shifts) in enumerate(zip(self._earlier, self._stage_shifts(*dts))):
            op = ShiftOperator(ws.mesh, self.degree, shifts,
                               blocks=[0] + [j + 1 for j in earlier],
                               weights=[per_slice([dt * A[k, j] / (eps + A[j, j] * dt)
                                                   for dt in dts]) for j in earlier])
            if k < last:
                # M - predicted, the increment times eps + a_kk dt, in its slot
                M = ws.slots[k]
                tail = [(np.subtract, (M, predicted, M))]
            else:
                # only the earlier increments are read again: the last
                # equilibrium goes to the step-start slot, free after its remap
                M = ws.inputs[0]
                w_dts = [A[k, k] * dt for dt in dts]
                tail = [(np.multiply, (M, operand([w / (eps + w) for w in w_dts], M.dtype), M)),
                        (np.multiply, (operand([eps / (eps + w) for w in w_dts], spare.dtype),
                                       predicted, spare))]
            kernels = ([model.moment_kernel(_by_velocity(predicted, n_v), ws.moments)]
                       + model.equilibrium_kernels(ws.moments, _by_velocity(M, n_v)) + tail)
            stages.append((op, ws.inputs[op.n_blocks - 1], kernels))
        return stages, M

    def compile(self, *dts: float) -> None:
        """Build and keep a linear model's steps of the sizes ``dts``
        before they are stepped, each once.  They go in chunks, one build
        each (:meth:`_compile`), as large as lets every stage operator group
        its terms (:func:`~sldirk.dg._group_size`) on the plan's patch
        (:meth:`_patch`) as for one step size, so each step has the bits of
        its own build.  ``ValueError`` for a model that is not linear or a
        new step size that is not finite and positive."""
        if not self.model.linear:
            raise ValueError(f"the {self.model.name} model is not linear, so its step "
                             f"does not compile")
        new = [dt for dt in dict.fromkeys(dts) if dt not in self._linear]
        if not new:
            return
        for dt in new:
            require_positive("dt", dt)
        n_v, _, q = self._shape
        n = self._patch(*new)[0].n_elements
        # per batch of b + 1 step sizes, the group size of each stage operator
        groups = [[_group_size((n_v * b, n, q), 1 + len(e)) for e in self._earlier]
                  for b in range(1, len(new) + 1)]
        size = next((b for b in range(1, len(new)) if groups[b] != groups[0]), len(new))
        for first in range(0, len(new), size):
            chunk = new[first:first + size]
            self._linear.update(zip(chunk, self._compile(*chunk)))

    def _linear_step(self, dt: float) -> _LinearStep:
        """The linear model's step of size ``dt``, built alone on the first
        call for a dt that :meth:`compile` has not built, and kept."""
        if dt not in self._linear:
            self.compile(dt)
        return self._linear[dt]

    def _compile(self, *dts: float) -> list[_LinearStep]:
        """A linear model's steps of the sizes ``dts`` compiled, one per dt:
        on the uniform periodic mesh a step is the block circulant map

            out[w, i, a] = sum over d in D, v, j of K[w, d, v, j, a] * values[v, i - d, j]

        over the element offsets D it reaches.  K is the step of the unit
        impulses (v, j) in the window of its reach (:meth:`_responses`),
        and :func:`_linear_step_of` makes the rest of each build, all from
        one table of phases."""
        response, window = self._responses(*dts)
        roots = _roots_of_unity(self._shape[1])
        return [_linear_step_of(r, window, roots) for r in response]

    def _responses(self, *dts: float) -> tuple[np.ndarray, np.ndarray]:
        """The long-double responses (dt, v, j, w, d, a) to the steps of the
        sizes ``dts`` run side by side through one stage plan, and their
        window: node a of velocity w at element offset window[d] from the
        unit impulse at node j of velocity v.  The step commutes with
        translation, so one plan run on the patch (:meth:`_patch`) carries
        every impulse, spaced by the widest stage reach, each read from its
        window of the step's reach with the bits of that impulse run alone."""
        (n_v, _, q), batch = self._shape, len(dts)
        mesh, spacing, (lo, hi) = self._patch(*dts)
        n = mesh.n_elements
        window = np.arange(lo, hi + 1)
        exact = _Workspace(self, np.longdouble, batch, mesh)
        stages, M = self._stage_plan(exact, *dts)
        placed = list(zip(range(0, n, spacing), np.ndindex(n_v, q)))
        # start[v, b], the step-start slot of velocity v at step size b
        start = exact.inputs[0].reshape(n_v, batch, n, q)
        start[...] = 0.0
        for e, (v, j) in placed:
            start[v, :, e, j] = 1.0
        out = self._run_plan(exact, exact.inputs[0], stages, M).reshape(n_v, batch, n, q)
        response = np.empty((batch, n_v, q, n_v, len(window), q), np.longdouble)
        for e, (v, j) in placed:
            response[:, v, j] = out[:, :, (e + window) % n].swapaxes(0, 1)
        return response, window

    def _patch(self, *dts: float) -> tuple[Mesh1D, int, tuple[int, int]]:
        """The mesh a build of ``dts`` runs its plan on, the widest stage
        reach over them and the step's, a reach being the element offsets
        from an impulse where a slot can differ from zero: 0 for the
        step-start slot, for a stage the hull over its terms of the source
        slot's reach plus the term's (:func:`~sldirk.dg.shift_cells`).
        Impulses the widest reach apart never meet on any mesh.  The plan's
        mesh is a periodic patch of P elements (P dx / P = dx), P the least
        power of two that holds n_v q impulses so spaced, whatever the
        element count of the solver's mesh."""
        n_v, _, q = self._shape
        reach = [(0, 0)]
        for earlier, shifts in zip(self._earlier, self._stage_shifts(*dts)):
            cells = shift_cells(shifts, self.mesh.dx)[0]
            reached = [(reach[b][0] + int(row.min()), reach[b][1] + int(row.max()) + 1)
                       for b, row in zip([0] + [j + 1 for j in earlier], cells)]
            reach.append((min(lo for lo, _ in reached), max(hi for _, hi in reached)))
        spacing = max(hi - lo + 1 for lo, hi in reach)
        width = 1 << (n_v * q * spacing - 1).bit_length()
        return Mesh1D(0.0, width * self.mesh.dx, width), spacing, reach[-1]

    def _stage_shifts(self, *dts: float) -> list[np.ndarray]:
        """Per stage k, the (terms, slices) shifts of its operator for the
        step sizes ``dts`` side by side (:meth:`_stage_plan`)."""
        v, c = self.model.velocity_set.v, self.tableau.c
        return [np.array([np.outer(v, [ck * dt for dt in dts]).ravel()
                          for ck in [c[k]] + [c[k] - c[j] for j in earlier]])
                for k, earlier in enumerate(self._earlier)]

    def _jump(self, values: np.ndarray, dt: float, steps: int) -> np.ndarray:
        """``steps`` steps of a linear model at once, one or many, for
        float64 or complex128 work: the rfft of the values over the
        elements, times the symbol to the power ``steps``, transformed back.
        The power is raised in long double (:func:`_power` by :func:`_product`,
        ``np.matmul`` without ``np.matvec``) and kept, rounded once to
        complex128, for the next span of as many steps.  The step has real
        coefficients, so complex values go as their real and imaginary parts."""
        n_v, n, q = self._shape
        step = self._linear_step(dt)
        power = step.powers.get(steps)
        if power is None:
            power = step.powers[steps] = _power(step.symbol, steps).astype(complex)
        cplx = np.iscomplexobj(values)
        parts = np.stack((values.real, values.imag)) if cplx else values[None]
        # (parts, n_v, k, q) -> a (n_v q, parts) column block per wavenumber k
        spectrum = np.fft.rfft(parts.astype(float, copy=False), axis=2)
        columns = spectrum.transpose(2, 1, 3, 0).reshape(len(power), n_v * q, len(parts))
        moved = np.matmul(power, columns).reshape(len(power), n_v, q, len(parts))
        out = np.fft.irfft(moved.transpose(3, 1, 0, 2), n, axis=2)
        if not cplx:
            return out[0]
        result = np.empty(self._shape, complex)
        result.real, result.imag = out
        return result

    def _located(self, exc: UnphysicalStateError, context: str) -> UnphysicalStateError:
        """``exc`` restated after ``context``, with the coordinate of the
        node its ``flat_index`` names when it has one."""
        where = ""
        flat = getattr(exc, "flat_index", None)
        if flat is not None:
            x = self.mesh.node_coords(self.degree).ravel()[flat]
            where = f" near x = {x:.6g}"
        return UnphysicalStateError(f"{context}{where}: {exc}")

    def step_values(self, values: np.ndarray, dt: float, steps: int = 1) -> np.ndarray:
        """Advance raw nodal values (n_v, n_el, q) by ``steps`` steps of size dt.

        The result is a fresh array; everything else lives in the solver's
        workspace for the values' dtype.  Values of another shape raise
        ``ValueError``.  A linear model takes its steps in float64 or
        complex128 work, one or many, as one jump through its symbol's power
        (to roundoff, the same as stepping them in turn); other models and
        work dtypes step in turn through the stage plan.  A step size that is not finite and
        positive raises ``ValueError`` where it is first planned or compiled.
        """
        ws = self._workspace(values)
        steps = whole_number("steps", steps, 1)
        if self.model.linear and ws.stages.dtype in _FFT_DTYPES:
            return self._jump(values, dt, steps)
        if ws.dt != dt:
            require_positive("dt", dt)
            ws.dt, ws.plan = dt, self._stage_plan(ws, dt)
        for _ in range(steps):
            values = self._run_plan(ws, values, *ws.plan)
        return values

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


def run(cfg: SimConfig, initial: DGField, diagnostics_every: int = 1, *,
        solver: SemiLagrangianSolver | None = None) -> RunResult:
    """Advance from t = 0 to t_final with fixed dt; unless t_final is a whole
    number of steps (to 1e-12 of a step), the last step shrinks to land on
    t_final.  The last recorded time is t_final; each other time is the
    sum of the step sizes before it, added in turn.

    ``diagnostics_every`` controls how often the conservation/relaxation
    diagnostics are recorded (0 records only the endpoints).  A linear
    model goes from one record to the next in one ``step_values`` call;
    other models take one step per call.  Aborts with
    :class:`DivergenceError` as soon as the field stops being finite (a jump
    that ends non-finite is taken again one step at a time, to find that
    step); a :class:`SimulationError` from a step or from its diagnostics
    carries that step and its end time (step 0 and time 0 for the initial
    data).

    ``solver`` steps the run in place of a new solver of the config, so
    that runs of one model, tableau, mesh, degree and eps at several CFL
    numbers share its workspaces and a linear model's compiled steps
    (:meth:`SemiLagrangianSolver.compile`).  It must have been made with
    the config's own model and tableau objects and equal mesh, degree and
    eps; ``ValueError`` names what differs.
    """
    diagnostics_every = whole_number("diagnostics_every", diagnostics_every, 0)
    if solver is None:
        solver = SemiLagrangianSolver(cfg.model, cfg.mesh, cfg.degree, cfg.tableau, cfg.eps)
    else:
        same = {"model": solver.model is cfg.model, "tableau": solver.tableau is cfg.tableau,
                "mesh": solver.mesh == cfg.mesh, "degree": solver.degree == cfg.degree,
                "eps": solver.eps == cfg.eps}
        differ = [name for name, ok in same.items() if not ok]
        if differ:
            raise ValueError(f"the solver does not match the config's {', '.join(differ)}")
    dt = cfg.dt
    n_steps = max(1, int(np.ceil(cfg.t_final / dt - 1e-12)))
    # a t_final of a whole number of steps takes full steps only, rather
    # than a last one shortened by the roundoff of the summed times
    whole = n_steps - cfg.t_final / dt <= 1e-12
    full = n_steps if whole else n_steps - 1
    # the steps after which a record is taken
    marks = [*range(diagnostics_every, n_steps, diagnostics_every)] if diagnostics_every else []
    marks.append(n_steps)

    values = np.array(initial.values)
    # the check of each step's values: the reduction ndarray.all makes,
    # without its Python wrapper
    finite = np.empty(values.shape, bool)

    def is_finite(values):
        return np.logical_and.reduce(np.isfinite(values, out=finite), axis=None)

    if not is_finite(values):
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

    step, t = 0, 0.0

    def advance(values, count, size):
        # count steps of size after step `step`, time t: a linear model jumps,
        # and a jump that ends non-finite is taken again step by step
        nonlocal step, t
        if count > 1 and cfg.model.linear:
            jumped = solver.step_values(values, size, count)
            if is_finite(jumped):
                step += count
                # the time is the sum of the steps, added in turn
                t = cfg.t_final if step == n_steps else reduce(add, repeat(size, count), t)
                return jumped
        for _ in range(count):
            step += 1
            t = cfg.t_final if step == n_steps else t + size
            values = solver.step_values(values, size)
            if not is_finite(values):
                raise DivergenceError(
                    f"non-finite values after step {step} (t = {t:.6g}, "
                    f"tableau {cfg.tableau.name!r}, cfl = {cfg.cfl})")
        return values

    # overflow during a diverging run is reported via DivergenceError, not
    # as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            record(values, 0)
            for mark in marks:
                values = advance(values, min(mark, full) - step, dt)
                if step < mark:  # the shortened last step
                    values = advance(values, 1, min(dt, cfg.t_final - t))
                times.append(t)
                record(values, mark)
        except SimulationError as exc:
            exc.step, exc.time = step, t
            raise

    final = DGField(mesh=cfg.mesh, values=values)
    macro = DGField(mesh=cfg.mesh, values=cfg.model.moments(values))
    return RunResult(config=cfg, final=final, macro=macro,
                     times=np.asarray(times), invariants=np.asarray(invariants),
                     equilibrium_distance=np.asarray(eq_dist), n_steps=n_steps,
                     steps=np.array([0] + marks))


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
