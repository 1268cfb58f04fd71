"""Backward grid solvers for the stiff nonlocal equation and its averaged limit.

Both solvers march the terminal payoff backwards with a monotone explicit
treatment of the local Bellman part (central second differences, first-order
upwind first differences, a step of ``CFL_SAFETY`` = 0.9 times the positivity
bound :class:`_LocalBellman` owns; both x end rows have zero curvature, the last
zero forward and the first zero backward slope, a closure also where x[0] > 0).
The model is the multiplicative one that :class:`ControlProblemSpec` states, on
x >= 0, so the objective is a parabola in the control whose coefficients are
raw differences of v times per-node coefficients built once.  Its minimum over
the control interval is the vertex clipped to it where it is convex and the
better endpoint elsewhere, taken separately on the part upwinded forward and
the part upwinded backward: a minimum of monotone schemes is monotone
(:class:`_LocalBellman`, which returns H; one control makes it a fixed stencil).
The stiff nonlocal part in the factor variable is linear and taken implicitly,
by a stochastic matrix P built once per solve: each step of both solvers is
``v <- (1 - c dt) P (v - kappa H)^T``, kappa = dt / (1 - c dt), one product
whose scalar factor carries the discount, with P = (I - (dt/eps) L)^-1 in the
stiff solve and its eps -> 0 limit 1 mu^T (on a one-column v, the row of
weights) in the averaged one.  P's LU and the products run on scipy's BLAS:
the numpy and scipy wheels may each bundle an OpenBLAS with its own thread pool,
and alternating between the two makes them compete.  Every buffer a step writes
starts a 64-byte cache line (:func:`_aligned_empty`): a misaligned AVX-512 store
spans two lines, doubling a store-bound pass (2-vCPU Sapphire Rapids, 61 x 129:
a multiply 6.1-7.5 us misaligned, 2.9-3.1 us aligned; an x-difference 5.7 vs 3.3 us).
The generator restricted to the factor grid is assembled once from closed-form
cell masses of the jump measure, one pass over the offsets j - i (small jumps
below one grid spacing become an exact-variance diffusion stencil, jumps
landing between nodes are split by linear interpolation, so on the uniform
grid their weights form a Toeplitz matrix, jumps leaving the grid take the
edge value, as suits value functions bounded in the factor, the mean-reverting
drift is central wherever that keeps the row monotone and upwind elsewhere).
The diagonal is minus the off-diagonal row sum, so the matrix has zero row
sums and, by construction, nonnegative off-diagonal entries: a consistent
monotone scheme in the Barles-Souganidis sense, whose propagator is a
stochastic matrix.  The smallest off-diagonal entry, the smallest propagator
entry, the far-tail mass beyond the outer cut and the positivity bound on the
explicit step are reported as diagnostics.

Scope: one slow dimension.  The multi-asset pricing system is diagonal, so
per-asset solves cover it; nothing here attempts coupled multi-dimensional
grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy import linalg

from .ergodicity import InvariantMeasure
from .errors import (NumericalError, UsageError, require_finite, require_finite_array,
                     require_nonnegative, require_positive)
from .jump_processes import SQRT2
from .levy_measures import (
    LevyMeasureModel,
    default_outer_cut,
    interval_first_moment,
    interval_mass,
    require_assumptions,
    tail_mass,
    truncated_moment,
)

CFL_SAFETY = 0.9
#: Blocks of the invariant measure the averaged solver evaluates the Bellman part on.
MAX_ATOMS = 64
#: Time slices kept by the solvers, evenly spread over the step grid.
N_CHECKPOINTS = 51


def _aligned_empty(shape: tuple, dtype=float, lead: int = 0) -> np.ndarray:
    """Uninitialised C-ordered array whose element at flat index ``lead`` starts a 64-byte line."""
    itemsize, size = np.dtype(dtype).itemsize, math.prod(shape)
    raw = np.empty(size * itemsize + 64, dtype=np.uint8)
    start = -(raw.ctypes.data + lead * itemsize) % 64
    return raw[start:start + size * itemsize].view(dtype).reshape(shape)


def _require_uniform(name: str, nodes, min_nodes: int) -> np.ndarray:
    """``nodes`` as a read-only float copy: ``min_nodes`` or more finite, increasing, uniform."""
    nodes = require_finite_array(name, nodes, min_nodes)
    step = np.diff(nodes)
    if len(step) and (np.any(step <= 0.0) or np.max(np.abs(step - step[0])) > 1e-9 * step[0]):
        raise UsageError(f"{name} must be increasing and uniform")
    return nodes


@dataclass(frozen=True)
class ControlProblemSpec:
    """Multiplicative single-asset model, control interval, and payoff of the control problem.

    The one statement of the model is its fields: the slow state moves as
    ``dX = X (beta0 + beta1 u) dt + SQRT2 X u sigma_of_y(Y) dW``, root-two
    convention included (``jump_processes.SQRT2``), with the control u in the
    closed interval [u_lo, u_hi].  The control is the proportional exposure to
    the noise; a model whose noise is not controlled is the one-point interval
    [1, 1].  The coefficients vanish at x = 0, which makes the x = 0 boundary
    characteristic: the schemes never impose a lateral boundary condition there.
    The spec has no methods: the grid solvers (:class:`_LocalBellman`),
    :func:`hamiltonian_eval` and the path simulator
    (``jump_processes.simulate_slow_system``) each read the fields.
    """

    beta0: float
    beta1: float
    sigma_of_y: Callable[[np.ndarray], np.ndarray]
    u_lo: float
    u_hi: float
    payoff: Callable
    discount: float
    horizon: float

    def __post_init__(self):
        for name in ("beta0", "beta1", "u_lo", "u_hi"):
            require_finite(name, getattr(self, name))
        if not self.u_lo <= self.u_hi:
            raise UsageError(f"u_lo must not exceed u_hi, got [{self.u_lo}, {self.u_hi}]")
        require_nonnegative("discount", self.discount)
        require_positive("horizon", self.horizon)


def hamiltonian_eval(spec: ControlProblemSpec, x, y, p, X) -> tuple[float, float]:
    """Bellman minimization over [u_lo, u_hi] at one point, and its minimiser: the vertex
    clipped to the interval where the parabola in u is convex, else the better end (u_lo
    on a tie)."""
    x, lo, hi = float(x), spec.u_lo, spec.u_hi
    sigma = spec.sigma_of_y(np.asarray(y, dtype=float))
    sigma = float(require_finite_array("sigma_of_y", sigma, ndim=0))

    def objective(u):
        vol = SQRT2 * x * u * sigma
        return -0.5 * vol * vol * X - x * (spec.beta0 + spec.beta1 * u) * p

    a = -x * x * sigma * sigma * X  # the coefficient of u^2
    u = (min(max(x * spec.beta1 * p / (2.0 * a), lo), hi) if a > 0.0
         else hi if objective(hi) < objective(lo) else lo)
    return float(objective(u)), float(u)


@dataclass(frozen=True)
class Grids:
    """Uniform slow grid ``x`` and, for the stiff solve, uniform factor grid ``y``.

    Each is held as a read-only float copy.  There is no time-step request: the
    solvers step at the positivity bound.
    """

    x: np.ndarray
    y: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "x", _require_uniform("x grid", self.x, 3))
        if self.y is not None:
            object.__setattr__(self, "y", _require_uniform("y grid", self.y, 5))


@dataclass(frozen=True)
class ValueField:
    """Discrete value function on checkpointed time slices.

    ``values`` has the grids' shape, (n_t, n_x) or, with a ``y_grid``, (n_t, n_x, n_y);
    the slice at the final checkpoint (t = horizon) is the exact terminal payoff.  The grids
    are held as read-only float copies and ``values`` as a float array, not copied if it is one.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
    y_grid: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("t_grid", "x_grid", "y_grid"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, require_finite_array(name, getattr(self, name)))
        shape = tuple(len(g) for g in (self.t_grid, self.x_grid, self.y_grid) if g is not None)
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.values.shape != shape:
            raise UsageError(f"values must have shape {shape}, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise NumericalError("value field contains non-finite entries")


def assemble_factor_generator(
    model: LevyMeasureModel,
    y_grid: np.ndarray,
) -> tuple[np.ndarray, dict]:
    """Dense matrix of the generator restricted to a uniform factor grid.

    Jumps with |z| <= dy enter as an exact-variance diffusion stencil.  Larger
    jumps are binned into the cells [(k-1) dy, k dy], k >= 2, and each cell's
    mass is split between offsets k-1 and k so that its mass and first moment
    are exact; on a uniform grid these weights depend on the offset alone, so
    the upward jumps form one Toeplitz matrix built once per offset.  Row i
    reaches K = ny-1-i offsets before the edge: jumps leaving the grid, up to
    the outer cut, take the edge value (edge column), which is exact for
    functions constant beyond the grid and keeps the error bounded for
    functions bounded in y.  Downward jumps of the symmetric model are the
    same matrix rotated by 180 degrees.  The drift ``-(y + compensator) d/dy``
    is added last, with central differences on every row where the diffusion
    and jump weights on both neighbours stay nonnegative after it, and
    first-order upwind differences elsewhere.  Hence every off-diagonal entry
    is nonnegative; the diagnostics key ``monotonicity_margin`` is the
    smallest of them.

    The diagonal is set last to minus the row's off-diagonal sum, so row sums
    vanish (constants are in the kernel) and jumps beyond the outer cut are
    treated as landing at the start point.  The diagnostics key
    ``extrapolated_tail_mass`` is that mass beyond the outer cut,
    nu(|z| > M), which every row drops alike.
    """
    y = _require_uniform("y grid", y_grid, 5)
    ny = len(y)
    dy = float(y[1] - y[0])
    if dy >= 1.0:
        raise UsageError("factor grid spacing must be below the compensator cut 1")
    m_cut = max(default_outer_cut(model), y[-1] - y[0] + 1.0)

    # cell k = [(k-1) dy, k dy]: the far share goes to offset k, the rest to k-1
    cells = range(2, ny)
    mass = np.array([interval_mass(model, (k - 1) * dy, k * dy) for k in cells])
    moment = np.array([interval_first_moment(model, (k - 1) * dy, k * dy) for k in cells])
    far = np.zeros(ny)
    far[2:] = (moment - np.arange(1, ny - 1) * dy * mass) / dy
    weight = far.copy()
    weight[1:-1] += mass - far[2:]
    # the edge column of a row with reach K >= 1 also takes nu([K dy, M])
    edge = far[1:] + [interval_mass(model, k * dy, m_cut) for k in range(1, ny)]

    L = np.triu(linalg.toeplitz(weight), 1)
    L[:-1, -1] = edge[::-1]
    if model.two_sided:
        L += L[::-1, ::-1]

    # strided views of the sub- and superdiagonal: sub[i] = L[i+1, i], sup[i] = L[i, i+1]
    flat = L.reshape(-1)
    sub, sup = flat[ny::ny + 1], flat[1::ny + 1]
    # small jumps |z| <= dy: exact-variance central diffusion stencil
    half_m2 = 0.5 * truncated_moment(model, 2, dy)
    sub[:-1] += half_m2 / dy**2
    sup[1:] += half_m2 / dy**2

    # drift -(y + comp) d/dy, comp the leftover compensator mean of jumps
    # dy < |z| <= 1 (zero on the symmetric model, whose two sides cancel):
    # central wherever the weights already on both neighbours keep them
    # nonnegative, upwind elsewhere (mean reversion points inward, so the
    # needed neighbour exists wherever the coefficient is large)
    comp = 0.0 if model.two_sided else interval_first_moment(model, dy, 1.0)
    beta = -(y + comp) / dy
    central = np.zeros(ny, dtype=bool)
    central[1:-1] = (sub[:-1] - 0.5 * beta[1:-1] >= 0.0) & (sup[1:] + 0.5 * beta[1:-1] >= 0.0)
    sup += np.where(central, 0.5 * beta, np.maximum(beta, 0.0))[:-1]
    sub += np.where(central, -0.5 * beta, np.maximum(-beta, 0.0))[1:]

    flat[::ny + 1] = -L.sum(axis=1)
    diagnostics = {
        "extrapolated_tail_mass": tail_mass(model, m_cut),
        "monotonicity_margin": float(np.min(L[~np.eye(ny, dtype=bool)])),
        "outer_cut": m_cut,
        "grid_spacing": dy,
    }
    return L, diagnostics


class _LocalBellman:
    """Explicit monotone evaluation of the local Bellman part on the grid.

    With x >= 0 the drift ``x (beta0 + beta1 u)`` has the sign of its affine
    coefficient, which changes sign at most once, at u0 = -beta0 / beta1, so the
    control interval splits into at most two closed runs: the controls with
    coefficient >= 0 (forward difference) and those with coefficient <= 0
    (backward difference), both holding u0, where the drift and its term vanish.
    The minimum is taken on each run and the smaller kept, which equals the
    upwinded minimum over the interval.  On a run [lo, hi] the objective is
    ``p u^2 + q (beta0 + beta1 u)`` with ``p = p_coef d2`` and ``q = q_coef d``,
    d2 and d the raw second and upwind first differences of v, and the grid
    constants in the coefficients built once: ``p_coef = -x^2 sigma^2(y) / dx^2``
    and ``q_coef = -x / dx`` times beta0 and beta1.  Where p > 0 the parabola is
    convex, so its minimum is at the vertex ``-beta1 q / (2 p)`` clipped to the run;
    elsewhere it is the better endpoint, hi iff ``p (lo + hi) + beta1 q < 0``.  On the
    one-point interval [u, u] H is ``A fwd - B bwd``, with A = c2 + c1 and B = c2 on a
    forward run, A = c2 and B = c2 - c1 on a backward one, ``c2 = u^2 p_coef`` (0 on
    both end rows, as the curvature is) and ``c1 = (beta0 + beta1 u) q_coef``.  Each
    array a call writes starts a cache line, as a misaligned AVX-512 store spans two.

    It also owns the march's step: ``steps`` holds dt, n_t and the explicit step's
    positivity bound dt_bound = 1 / (2 a_max / dx^2 + b_max / dx + c), a_max and b_max
    the largest diffusion and drift coefficients on the grid, at an end of the interval,
    and c the ``discount`` it keeps.  dt is ``CFL_SAFETY`` times the bound (at most 0.9),
    shrunk so that n_t steps span the horizon: dt / dt_bound is the margin.
    """

    def __init__(self, spec: ControlProblemSpec, x: np.ndarray, y_vals: np.ndarray, cols: int):
        if x[0] < 0.0:
            raise UsageError("x grid must be nonnegative: the drift's sign is read off its coefficient")
        dx = float(x[1] - x[0])
        sig2 = require_finite_array("sigma_of_y", spec.sigma_of_y(y_vals), ndim=None) ** 2
        if sig2.shape != np.shape(y_vals):
            raise UsageError(f"sigma_of_y must return one value per factor node, got {sig2.shape}")
        beta0, beta1 = spec.beta0, spec.beta1
        nx, ny = len(x), len(y_vals)
        self.p_coef = -(x**2)[:, None] * sig2[None, :] / dx**2
        q_coef = np.repeat(-x[:, None] / dx, cols, axis=1)
        u_lo, u_hi = float(spec.u_lo), float(spec.u_hi)
        # the runs below and above u0, each upwinded by the drift's sign at its midpoint
        cut = u_lo if beta1 == 0.0 else min(max(-beta0 / beta1, u_lo), u_hi)
        runs = [(lo, hi) for lo, hi in ((u_lo, cut), (cut, u_hi)) if lo < hi] or [(u_lo, u_hi)]
        self.runs = [(lo, hi, beta0 + beta1 * 0.5 * (lo + hi) >= 0.0) for lo, hi in runs]
        if u_lo == u_hi:  # the one run [u, u]: H = A fwd - B bwd (see above)
            c2, c1 = u_lo * u_lo * self.p_coef, (beta0 + beta1 * u_lo) * q_coef
            c2[[0, -1]] = 0.0
            self.stencil = (c2 + c1, c2) if self.runs[0][2] else (c2, c2 - c1)
        else:
            self.stencil, self.q0, self.q1 = None, beta0 * q_coef, beta1 * q_coef
        a_max = float(np.max(sig2)) * float(x[-1]) ** 2 * max(u_lo**2, u_hi**2)
        b_max = float(x[-1]) * max(abs(beta0 + beta1 * u) for u in (u_lo, u_hi))
        self.discount = spec.discount
        denom = 2.0 * (a_max / dx**2) + b_max / dx + self.discount
        dt_bound = math.inf if denom == 0.0 else 1.0 / denom
        n_t = max(1, int(math.ceil(spec.horizon / (CFL_SAFETY * min(dt_bound, 1.0)))))
        self.steps = {"dt": spec.horizon / n_t, "n_t": n_t, "dt_bound": dt_bound}
        # per-step arrays: differences fill the aligned rows 1..nx-1 of a block whose zero
        # edge rows close the forward difference on the last row and the backward on the first
        self.slopes, self.curv = (_aligned_empty((n, cols), lead=cols) for n in (nx + 1, nx))
        self.slopes[[0, -1]] = self.curv[[0, -1]] = 0.0
        self.fwd, self.bwd = self.slopes[1:], self.slopes[:-1]
        self.q, self.s = (_aligned_empty((nx, cols)) for _ in range(2))
        self.p, self.u, self.h, self.run_h = (_aligned_empty((nx, ny)) for _ in range(4))
        self.not_convex = _aligned_empty((nx, ny), bool)

    def hamiltonian(self, v: np.ndarray) -> np.ndarray:
        """H on ``(nx, len(y_vals))`` from the discrete derivatives of the ``(nx, cols)`` state.

        One difference gives the forward difference (zero on the last row) and
        the backward one (zero on the first); their difference is the raw
        second difference, zero on both end rows (x = 0 is characteristic).  So
        H is 0 on the last row for every control of nonnegative drift, as in both
        applications: that edge keeps the payoff, only discounted (ROADMAP item 17).
        The result is H, not dt H, held in this object's arrays until the next call.
        """
        diff = np.subtract(v[1:], v[:-1], out=self.slopes[1:-1])
        if self.stencil is not None:
            a, b = self.stencil
            h = np.multiply(a, self.fwd, out=self.h)
            return np.subtract(h, np.multiply(b, self.bwd, out=self.run_h), out=h)
        np.subtract(diff[1:], diff[:-1], out=self.curv[1:-1])
        p = np.multiply(self.p_coef, self.curv, out=self.p)
        np.less_equal(p, 0.0, out=self.not_convex)
        h = None
        for lo, hi, forward in self.runs:
            slope = self.fwd if forward else self.bwd
            s, u = np.multiply(self.q1, slope, out=self.s), self.u
            run_h = self.h if h is None else self.run_h
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                np.multiply(np.divide(s, p, out=u), -0.5, out=u)
                # where p <= 0 the endpoint test enters as +inf (hi) or -inf, and
                # the nan of a tie as lo: fmax and fmin clamp all three
                t = np.add(np.multiply(p, lo + hi, out=run_h), s, out=run_h)
                np.copyto(u, np.multiply(t, -np.inf, out=t), where=self.not_convex)
            np.fmin(np.fmax(u, lo, out=u), hi, out=u)
            np.multiply(np.add(np.multiply(p, u, out=run_h), s, out=run_h), u, out=run_h)
            run_h += np.multiply(self.q0, slope, out=self.q)
            h = run_h if h is None else np.minimum(h, run_h, out=h)
        return h


def _terminal_payoff(spec: ControlProblemSpec, x: np.ndarray) -> np.ndarray:
    """The payoff on the x grid: one value per node, as the spec states it."""
    v = np.asarray(spec.payoff(x), dtype=float)
    if v.shape != x.shape:
        raise UsageError(f"payoff must return one value per x node ({len(x)}), got {v.shape}")
    return v


def _propagator(gen: np.ndarray, dt_over_eps: float) -> np.ndarray:
    """P = (I - (dt/eps) L)^-1 from one LU factorisation and one solve against I.

    L has nonnegative off-diagonal entries and zero row sums, so I - (dt/eps) L
    is an M-matrix with unit row sums: P is stochastic (entries >= 0, rows
    summing to 1) and the implicit step ``v @ P.T`` is monotone.  P is kept in
    Fortran order, as scipy's ``dgemm`` in the march reads it without a copy.
    """
    eye = np.eye(len(gen))
    return np.asfortranarray(linalg.lu_solve(linalg.lu_factor(eye - dt_over_eps * gen), eye))


def _march(local: _LocalBellman, v: np.ndarray, propagator: np.ndarray):
    """March ``v`` from t = T back to 0 in n_t steps ``state <- (1 - c dt) P (state - kappa H)^T``.

    dt, n_t and c are the kernel's own (``local.steps``, ``local.discount``), kappa is
    dt / (1 - c dt), and P, the ``propagator``, is a Fortran-ordered stochastic (cols, ny)
    matrix: (I - (dt/eps) L)^-1 in the stiff solve, and its eps -> 0 limit, the row of atom
    weights, on the one-column state of the averaged solve.  Returns the checkpoint times and
    the slices kept there, shaped as ``v``.  A non-finite slice raises :class:`NumericalError`
    whose ``partial`` is the pair (times, slices) of the checkpoints already filled, all of
    them finite.  The buffers start a cache line, as a misaligned AVX-512 store spans two.
    """
    dt, n_t, c = local.steps["dt"], local.steps["n_t"], local.discount
    shrink = 1.0 - c * dt  # at least 0.1, since dt is at most 0.9 times the bound 1 / c
    keep = np.unique(np.linspace(0, n_t, min(N_CHECKPOINTS, n_t + 1)).round().astype(int))
    times, values, marks = keep * dt, np.empty((len(keep),) + v.shape), keep.tolist()
    if not np.all(np.isfinite(v)):
        raise NumericalError("terminal payoff is not finite", partial=(times[:0], values[:0]))
    j = len(keep) - 1  # values[j:] are filled, and step marks[j - 1] is the next one kept
    values[j] = v
    state, finite = (_aligned_empty((len(v), len(propagator)), dtype) for dtype in (float, bool))
    work = _aligned_empty((len(v), propagator.shape[1]))
    state[...] = v.reshape(state.shape)
    dgemm = linalg.blas.dgemm
    for k in range(n_t - 1, -1, -1):
        h = local.hamiltonian(state)
        np.subtract(state, np.multiply(dt / shrink, h, out=work), out=work)
        state = dgemm(shrink, propagator, work.T, c=state.T, overwrite_c=True).T
        if not np.isfinite(state, out=finite).all():
            raise NumericalError(f"backward march diverged at step {k}",
                                 partial=(times[j:], values[j:]))
        if k == marks[j - 1]:
            j -= 1
            values[j] = state.reshape(v.shape)
    return times, values


def effective_solve(
    spec: ControlProblemSpec,
    mu: InvariantMeasure,
    grids: Grids,
) -> ValueField:
    """Backward solve of the measure-averaged limit equation on the slow grid.

    The Hamiltonian is evaluated node-by-node (Bellman minimization inside the
    average) on ``mu.coarsen(MAX_ATOMS)``: at most 64 equal-mass blocks of the
    measure, each at its conditional mean.  The average is the stiff step's
    propagator at eps -> 0, 1 mu^T, here the 1 x n_atoms row of weights.  No
    lateral boundary condition is imposed; the x = 0 column evolves by pure
    discounting because the coefficients vanish there.
    """
    x = grids.x
    atoms = mu.coarsen(MAX_ATOMS)
    local = _LocalBellman(spec, x, atoms.nodes, 1)
    v = _terminal_payoff(spec, x)
    prop = np.asfortranarray(atoms.weights[None, :])
    t_grid, values = _march(local, v, prop)
    return ValueField(
        t_grid=t_grid, x_grid=x, values=values,
        diagnostics={**local.steps, "atoms": len(atoms.nodes)},
    )


def pide_solve(
    spec: ControlProblemSpec,
    model: LevyMeasureModel,
    epsilon: float,
    grids: Grids,
) -> ValueField:
    """Backward IMEX solve of the stiff equation on the (x, y) grid.

    Explicit monotone stepping of the local Bellman part; the factor-direction
    generator (linear, scaled by 1/epsilon) is taken implicitly, so the
    stiffness never restricts the step.  The implicit map is the same on every
    step, so its propagator P = (I - (dt/epsilon) L)^-1 is built once per
    solve and each step applies it as one matrix product, factorisation and
    products both on scipy's BLAS (see the module notes).  P is stochastic;
    its smallest entry is the diagnostics key ``propagator_min_entry``.
    """
    require_positive("epsilon", epsilon)
    if grids.y is None:
        raise UsageError("the stiff solve needs a factor grid")
    require_assumptions(model)

    x, y = grids.x, grids.y
    gen, gen_diag = assemble_factor_generator(model, y)
    local = _LocalBellman(spec, x, y, len(y))
    prop = _propagator(gen, local.steps["dt"] / epsilon)

    v = np.repeat(_terminal_payoff(spec, x)[:, None], len(y), axis=1)
    t_grid, values = _march(local, v, prop)
    return ValueField(
        t_grid=t_grid, x_grid=x, values=values, y_grid=y,
        diagnostics={**local.steps, **gen_diag, "propagator_min_entry": float(np.min(prop))},
    )


@dataclass(frozen=True)
class CompactBox:
    """Axis-aligned box the uniform-convergence gap is measured over."""

    t: tuple[float, float]
    x: tuple[float, float]
    y: Optional[tuple[float, float]] = None


def sup_norm_gap(a: ValueField, b: ValueField, box: CompactBox) -> float:
    """Sup of |a - b| over the box, b linearly interpolated in t onto a's times.

    The fields share their x grid, so b is interpolated in t alone, one x column at a
    time; box times within 1e-9 of b's span are clamped to it.  ``a`` may carry a factor
    axis (the sup then also runs over the y-window); ``b`` must be a plain (t, x) field.
    """
    def window(nodes, bounds):  # the box's one window rule: its bounds, widened by 1e-12
        return (nodes >= bounds[0] - 1e-12) & (nodes <= bounds[1] + 1e-12)

    if b.y_grid is not None:
        raise UsageError("the reference field must not depend on the factor")
    if not np.array_equal(a.x_grid, b.x_grid):
        raise UsageError("the two fields must share their x grid")
    if not np.all(np.diff(b.t_grid) > 0.0):
        raise UsageError("the reference field's times must strictly increase")
    t_sel, x_sel = window(a.t_grid, box.t), window(a.x_grid, box.x)
    if not (np.any(t_sel) and np.any(x_sel)):
        raise UsageError("box does not intersect the field grids")
    ts = a.t_grid[t_sel]
    if ts[0] < b.t_grid[0] - 1e-9 or ts[-1] > b.t_grid[-1] + 1e-9:
        raise UsageError("box times leave the reference field's domain")
    ref = np.stack([np.interp(ts, b.t_grid, column) for column in b.values[:, x_sel].T], axis=1)

    sub = a.values[np.ix_(t_sel, x_sel)]
    if a.values.ndim == 3:
        if box.y is not None:
            y_sel = window(a.y_grid, box.y)
            if not np.any(y_sel):
                raise UsageError("y window does not intersect the factor grid")
            sub = sub[:, :, y_sel]
        ref = ref[:, :, None]
    return float(np.max(np.abs(sub - ref)))
