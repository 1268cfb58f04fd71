"""Backward grid solvers for the stiff nonlocal equation and its averaged limit.

Both solvers march the terminal payoff backwards with a monotone explicit
treatment of the local Bellman part (central second differences, first-order
upwind first differences, step size from the scheme's positivity bound).  The
model must be the multiplicative one of :class:`QuadraticControlStructure` on
x >= 0, so the objective is a parabola in the control: its minimum over the
uniform control grid is the control nearest the vertex where the parabola is
convex and the better endpoint elsewhere, one evaluation per node, taken
separately for the controls whose drift is upwinded forward and those upwinded
backward, which equals the upwinded scan over every control.  The stiff
nonlocal part in the factor variable is linear, so it is taken implicitly.
The implicit map is the same on every step, so it is built once per solve as a
propagator matrix, and each step applies it with one matrix product.  The
generator restricted to the factor grid is assembled once from closed-form
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
from .errors import CFLViolation, NumericalError, UsageError
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
SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class QuadraticControlStructure:
    """Multiplicative single-asset model the grid solvers are built on.

    Drift ``x (beta0 + beta1 u)`` and volatility ``sqrt(2) x sigma(y) u^power``
    with power 0 (no control on the noise) or 1 (proportional exposure).  The
    Bellman objective is then a parabola in u, so grid minimization reduces to
    the control nearest the vertex or an endpoint.
    """

    beta0: float
    beta1: float
    sigma_of_y: Callable[[np.ndarray], np.ndarray]
    vol_u_power: int  # 0 or 1

    def __post_init__(self):
        if self.vol_u_power not in (0, 1):
            raise UsageError("vol_u_power must be 0 or 1")

    def drift(self, x, y, u):
        return np.asarray(x, dtype=float) * (self.beta0 + self.beta1 * u)

    def vol(self, x, y, u):
        return SQRT2 * np.asarray(x, dtype=float) * u**self.vol_u_power * np.asarray(
            self.sigma_of_y(np.asarray(y, dtype=float))
        )


@dataclass(frozen=True)
class ControlProblemSpec:
    """Model, control grid, and payoff of the stochastic control problem.

    ``structure`` is the one statement of the model: the slow state moves as
    ``dX = structure.drift(X, Y, u) dt + structure.vol(X, Y, u) dW``, root-two
    convention included.  The coefficients vanish at x = 0, which makes the
    x = 0 boundary characteristic: the schemes never impose a lateral boundary
    condition there.  The grid solvers, :func:`hamiltonian_eval` and the path
    simulator (``jump_processes.iter_slow_values``) all read it.  The solvers
    minimize over the points ``u_lo + k du``, so the control grid must be
    increasing and uniform.
    """

    structure: QuadraticControlStructure
    control_grid: np.ndarray
    payoff: Callable
    discount: float
    horizon: float

    def __post_init__(self):
        if not (math.isfinite(self.discount) and self.discount >= 0.0):
            raise UsageError(f"discount must be finite and nonnegative, got {self.discount}")
        if not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise UsageError(f"horizon must be finite and positive, got {self.horizon}")
        controls = np.asarray(self.control_grid, dtype=float)
        if len(controls) == 0 or not np.all(np.isfinite(controls)):
            raise UsageError("control grid must be nonempty and finite")
        du = np.diff(controls)
        if len(du) and (np.any(du <= 0.0) or np.max(np.abs(du - du[0])) > 1e-9 * du[0]):
            raise UsageError("control grid must be increasing and uniform")


def hamiltonian_eval(spec: ControlProblemSpec, x, y, p, X) -> tuple[float, float]:
    """Bellman minimization over the finite control grid; first index wins ties."""
    st = spec.structure
    controls = np.asarray(spec.control_grid, dtype=float)
    vals = np.empty(len(controls))
    for k, u in enumerate(controls):
        vol = float(st.vol(x, y, float(u)))
        dri = float(st.drift(x, y, float(u)))
        vals[k] = -0.5 * vol * vol * X - dri * p
    k = int(np.argmin(vals))
    return float(vals[k]), float(controls[k])


@dataclass(frozen=True)
class Grids:
    """Grid request for the solvers; ``dt=None`` picks the stability bound."""

    x: np.ndarray
    y: Optional[np.ndarray] = None
    dt: Optional[float] = None

    def __post_init__(self):
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0.0):
            raise UsageError("requested dt must be finite and positive")
        x = np.asarray(self.x)
        if not np.all(np.isfinite(x)):
            raise UsageError("x grid nodes must be finite")
        if len(x) < 3 or np.any(np.diff(x) <= 0):
            raise UsageError("x grid must be increasing with at least 3 nodes")
        if np.max(np.abs(np.diff(x) - (x[1] - x[0]))) > 1e-9 * (x[1] - x[0]):
            raise UsageError("x grid must be uniform")
        if self.y is not None:
            y = np.asarray(self.y)
            if not np.all(np.isfinite(y)):
                raise UsageError("y grid nodes must be finite")
            dy = np.diff(y)
            if len(y) < 5 or np.any(dy <= 0):
                raise UsageError("y grid must be increasing with at least 5 nodes")
            if np.max(np.abs(dy - dy[0])) > 1e-9 * dy[0]:
                raise UsageError("y grid must be uniform")


@dataclass(frozen=True)
class ValueField:
    """Discrete value function on checkpointed time slices.

    ``values`` has shape (n_t, n_x) or (n_t, n_x, n_y); the slice at the final
    checkpoint (t = horizon) is the exact terminal payoff.
    """

    t_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
    y_grid: Optional[np.ndarray] = None
    epsilon: Optional[float] = None
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not np.all(np.isfinite(self.values)):
            raise NumericalError("value field contains non-finite entries")

    def quadratic_growth_ratio(self) -> float:
        """max |V| / (1 + x^2) over the whole stored field."""
        denom = 1.0 + self.x_grid**2
        if self.values.ndim == 3:
            return float(np.max(np.abs(self.values) / denom[None, :, None]))
        return float(np.max(np.abs(self.values) / denom[None, :]))


def _checkpoint_times(n_t: int) -> np.ndarray:
    return np.unique(np.linspace(0, n_t, min(N_CHECKPOINTS, n_t + 1)).round().astype(int))


def _cfl_step(a_max_over_dx2: float, b_max_over_dx: float, c: float, dt_req: Optional[float]):
    """The explicit step and the positivity bound dt_bound it must not exceed."""
    denom = 2.0 * a_max_over_dx2 + b_max_over_dx + c
    dt_bound = math.inf if denom == 0.0 else 1.0 / denom
    if dt_req is None:
        return CFL_SAFETY * min(dt_bound, 1.0), dt_bound
    if dt_req > dt_bound:
        raise CFLViolation(
            f"explicit step {dt_req:g} violates the positivity bound {dt_bound:g}",
            suggested_dt=CFL_SAFETY * dt_bound,
        )
    return dt_req, dt_bound


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
    y = np.asarray(y_grid, dtype=float)
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
    # dy < |z| <= 1: central wherever the weights already on both neighbours
    # keep them nonnegative, upwind elsewhere (mean reversion points inward,
    # so the needed neighbour exists wherever the coefficient is large)
    comp = interval_first_moment(model, dy, 1.0)
    if model.two_sided:
        comp += interval_first_moment(model, -1.0, -dy)
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
    coefficient, so the sorted control grid splits into at most two runs: the
    controls with coefficient >= 0 (forward difference) and the rest (backward
    difference).  The grid-min is taken on each run and the smaller kept,
    which equals the upwinded scan over every control.  On a run the objective
    is ``p u^2 + q (beta0 + beta1 u)`` with curvature coefficient
    ``p = -x^2 sigma^2(y) v_xx`` (no ``u^2`` when the noise is uncontrolled):
    where p > 0 it is a convex parabola symmetric about its vertex, so its
    grid-min is the one control nearest the vertex, clipped to the run;
    elsewhere it is the better endpoint.  Each node evaluates one control.
    """

    def __init__(self, spec: ControlProblemSpec, x: np.ndarray, y_vals: np.ndarray,
                 weights: Optional[np.ndarray]):
        st = spec.structure
        if st is None:
            raise UsageError("the grid solvers need the problem's QuadraticControlStructure")
        if x[0] < 0.0:
            raise UsageError("x grid must be nonnegative: the drift's sign is read off its coefficient")
        self.dx = float(x[1] - x[0])
        self.weights = weights        # None for pide, atom weights for effective
        sig2 = np.asarray(st.sigma_of_y(np.asarray(y_vals)), dtype=float) ** 2
        self.beta0, self.beta1 = st.beta0, st.beta1
        self.power = st.vol_u_power
        # per step: p = p_coef * (fwd - bwd) and q = neg_x * (fwd or bwd)
        self.neg_x = -x[:, None]
        self.p_coef = -(x**2)[:, None] * sig2[None, :] / self.dx
        controls = np.asarray(spec.control_grid, dtype=float)
        u_lo, u_hi = float(controls[0]), float(controls[-1])
        self.du = float(controls[1] - controls[0]) if len(controls) > 1 else 0.0
        forward = self.beta0 + self.beta1 * controls >= 0.0
        self.runs = [
            (float(run[0]), float(run[-1]), len(run) - 1, fwd)
            for run, fwd in ((controls[forward], True), (controls[~forward], False))
            if len(run)
        ]
        a_max = float(np.max(sig2)) * float(x[-1]) ** 2
        if self.power == 1:
            a_max *= max(u_lo**2, u_hi**2)
        b_max = float(x[-1]) * max(
            abs(self.beta0 + self.beta1 * u_lo),
            abs(self.beta0 + self.beta1 * u_hi),
        )
        self.a_over_dx2 = a_max / self.dx**2
        self.b_over_dx = b_max / self.dx

    def hamiltonian(self, v: np.ndarray) -> np.ndarray:
        """H evaluated with discrete derivatives; collapses the y axis iff weighted.

        One difference gives the forward slope (zero on the last row) and the
        backward slope (zero on the first); their difference over dx is the
        central second difference, taken as zero on both end rows (payoffs
        here are asymptotically linear or sublinear, and x = 0 is
        characteristic).
        """
        slope = np.diff(v, axis=0) / self.dx
        if v.ndim == 1:
            slope = slope[:, None]  # effective solve: y axis lives in the atoms
        edge = np.zeros_like(slope[:1])
        fwd = np.concatenate([slope, edge])
        bwd = np.concatenate([edge, slope])
        curv = fwd - bwd
        curv[[0, -1]] = 0.0
        p = self.p_coef * curv
        h = None
        for lo, hi, n, forward in self.runs:
            q = self.neg_x * (fwd if forward else bwd)
            if n == 0:
                u = lo
            elif self.power == 0:
                # linear in u: the endpoint the drift term's slope points to
                u = np.where(self.beta1 * q < 0.0, hi, lo)
            else:
                slope_u = self.beta1 * q
                with np.errstate(divide="ignore", invalid="ignore"):
                    k = np.rint((-0.5 * slope_u / p - lo) / self.du)
                u = np.where(
                    p > 0.0,
                    lo + np.clip(k, 0, n) * self.du,
                    np.where(p * (lo + hi) + slope_u < 0.0, hi, lo),
                )
            run_h = q * (self.beta0 + self.beta1 * u) + (p * u * u if self.power == 1 else p)
            h = run_h if h is None else np.minimum(h, run_h)
        if self.weights is not None:
            return h @ self.weights
        return h


def _time_steps(spec: ControlProblemSpec, local: _LocalBellman, grids: Grids) -> dict:
    """dt, n_t and dt_bound of the march.

    The step is the positivity bound's (or the requested one), shrunk so that
    n_t steps span the horizon; dt / dt_bound is the CFL margin.
    """
    dt, dt_bound = _cfl_step(local.a_over_dx2, local.b_over_dx, spec.discount, grids.dt)
    n_t = max(1, int(math.ceil(spec.horizon / dt)))
    return {"dt": spec.horizon / n_t, "n_t": n_t, "dt_bound": dt_bound}


def _propagator(gen: np.ndarray, dt_over_eps: float) -> np.ndarray:
    """P = (I - (dt/eps) L)^-1 from one LU factorisation and one solve against I.

    L has nonnegative off-diagonal entries and zero row sums, so I - (dt/eps) L
    is an M-matrix with unit row sums: P is stochastic (entries >= 0, rows
    summing to 1) and the implicit step ``v @ P.T`` is monotone.
    """
    eye = np.eye(len(gen))
    return linalg.lu_solve(linalg.lu_factor(eye - dt_over_eps * gen), eye)


def _march(
    spec: ControlProblemSpec,
    local: _LocalBellman,
    v: np.ndarray,
    dt: float,
    n_t: int,
    propagator: Optional[np.ndarray] = None,
):
    """March the terminal slice ``v`` back to t = 0 with n_t explicit Bellman steps.

    ``propagator``, if given, is applied to the factor axis after each
    explicit step.  Returns the checkpoint times and the slices kept there.  A
    non-finite slice raises :class:`NumericalError` whose ``partial`` is the
    pair (times, slices) of the checkpoints already filled, all of them finite.
    """
    c = spec.discount
    keep = _checkpoint_times(n_t)
    slot = {int(k): j for j, k in enumerate(keep)}
    values = np.empty((len(keep),) + v.shape)
    values[-1] = v

    def filled_after(k: int):
        j = int(np.searchsorted(keep, k, side="right"))
        return keep[j:] * dt, values[j:]

    if not np.all(np.isfinite(v)):
        raise NumericalError("terminal payoff is not finite", partial=filled_after(n_t))
    for k in range(n_t - 1, -1, -1):
        v = v - dt * (local.hamiltonian(v) + c * v)
        if propagator is not None:
            v = v @ propagator.T
        if not np.all(np.isfinite(v)):
            raise NumericalError(f"backward march diverged at step {k}", partial=filled_after(k))
        if k in slot:
            values[slot[k]] = v
    return keep * dt, values


def effective_solve(
    spec: ControlProblemSpec,
    mu: InvariantMeasure,
    grids: Grids,
) -> ValueField:
    """Backward solve of the measure-averaged limit equation on the slow grid.

    The averaged Hamiltonian is evaluated node-by-node (Bellman minimization
    inside the average) on ``mu.coarsen(MAX_ATOMS)``: at most 64 equal-mass
    blocks of the measure, each at its conditional mean.  No lateral boundary
    condition is imposed; the x = 0 column evolves by pure discounting because
    the coefficients vanish there.
    """
    x = np.asarray(grids.x, dtype=float)
    atoms = mu.coarsen(MAX_ATOMS)
    local = _LocalBellman(spec, x, atoms.nodes, atoms.weights)
    steps = _time_steps(spec, local, grids)
    v = np.asarray(spec.payoff(x), dtype=float)
    t_grid, values = _march(spec, local, v, steps["dt"], steps["n_t"])
    return ValueField(
        t_grid=t_grid, x_grid=x, values=values,
        diagnostics={**steps, "atoms": len(atoms.nodes)},
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
    solve and each step applies it as one matrix product.  P is stochastic;
    its smallest entry is the diagnostics key ``propagator_min_entry``.
    """
    if epsilon <= 0.0:
        raise UsageError("epsilon must be positive")
    if grids.y is None:
        raise UsageError("the stiff solve needs a factor grid")
    require_assumptions(model)

    x = np.asarray(grids.x, dtype=float)
    y = np.asarray(grids.y, dtype=float)
    gen, gen_diag = assemble_factor_generator(model, y)
    local = _LocalBellman(spec, x, y, weights=None)
    steps = _time_steps(spec, local, grids)
    prop = _propagator(gen, steps["dt"] / epsilon)

    v = np.repeat(np.asarray(spec.payoff(x), dtype=float)[:, None], len(y), axis=1)
    t_grid, values = _march(spec, local, v, steps["dt"], steps["n_t"], prop)
    return ValueField(
        t_grid=t_grid, x_grid=x, values=values, y_grid=y, epsilon=epsilon,
        diagnostics={**steps, **gen_diag, "propagator_min_entry": float(np.min(prop))},
    )


@dataclass(frozen=True)
class CompactBox:
    """Axis-aligned box the uniform-convergence gap is measured over."""

    t: tuple[float, float]
    x: tuple[float, float]
    y: Optional[tuple[float, float]] = None


def sup_norm_gap(a: ValueField, b: ValueField, box: CompactBox) -> float:
    """Sup of |a - b| over the box, b linearly interpolated onto a's grid.

    ``a`` may carry a factor axis (the sup then also runs over the y-window);
    ``b`` must be a plain (t, x) field.
    """
    if b.y_grid is not None:
        raise UsageError("the reference field must not depend on the factor")
    t_sel = (a.t_grid >= box.t[0] - 1e-12) & (a.t_grid <= box.t[1] + 1e-12)
    x_sel = (a.x_grid >= box.x[0] - 1e-12) & (a.x_grid <= box.x[1] + 1e-12)
    if not (np.any(t_sel) and np.any(x_sel)):
        raise UsageError("box does not intersect the field grids")
    ts, xs = a.t_grid[t_sel], a.x_grid[x_sel]
    if ts[0] < b.t_grid[0] - 1e-9 or ts[-1] > b.t_grid[-1] + 1e-9:
        raise UsageError("box times leave the reference field's domain")
    if xs[0] < b.x_grid[0] - 1e-9 or xs[-1] > b.x_grid[-1] + 1e-9:
        raise UsageError("box states leave the reference field's domain")

    from scipy.interpolate import RegularGridInterpolator

    interp = RegularGridInterpolator((b.t_grid, b.x_grid), b.values, method="linear")
    tt, xx = np.meshgrid(ts, xs, indexing="ij")
    ref = interp(np.stack([tt.ravel(), xx.ravel()], axis=1)).reshape(tt.shape)

    sub = a.values[np.ix_(t_sel, x_sel)]
    if a.values.ndim == 3:
        if box.y is not None and a.y_grid is not None:
            y_sel = (a.y_grid >= box.y[0] - 1e-12) & (a.y_grid <= box.y[1] + 1e-12)
            if not np.any(y_sel):
                raise UsageError("y window does not intersect the factor grid")
            sub = sub[:, :, y_sel]
        return float(np.max(np.abs(sub - ref[:, :, None])))
    return float(np.max(np.abs(sub - ref)))
