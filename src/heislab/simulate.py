"""Finite-difference solver for the two Sobolev-type model equations

    d/dt  Delta u + Delta u + |u|^q = 0        (first order in time)
    d2/dt2 Delta u + Delta u + |u|^q = 0       (second order in time)

on a 3-D box (n = 1 only) with zero Dirichlet boundary.  The discrete
sub-Laplacian is assembled in divergence form

    L_h = - sum_i (D_Xi^T D_Xi + D_Yi^T D_Yi)

from forward-difference discretisations of X = d/dx + 2y d/dtau and
Y = d/dy - 2x d/dtau with coefficients sampled at nodes.  This makes L_h
symmetric negative semidefinite by construction, so each step's linear
solve for w = d/dt u (or the acceleration a) runs conjugate gradients on
-L_h.  An optional regularisation eps > 0 (`regularization_eps`) subtracts
eps D_tau^T D_tau, the plain forward tau-difference assembled the same way,
i.e. adds eps times the second tau-difference (1, -2, 1)/h_tau^2 along every
tau line.  Time stepping is explicit Euler (first order) or leapfrog with a
Taylor start (second order); both share one warm-started solve.

The grid is cell-centred: spacing h = 2L/N per axis with N nodes whose
outermost layer is clamped to zero, leaving (N-2)^3 interior unknowns.

Nothing here reproduces a published experiment; blow-up runs are
illustrative observations of the discrete dynamics, and hitting the
blow-up threshold counts as a completed result, not an error.  So does a
state whose forcing |u|^q overflows floating-point range (in the forcing
itself or in the squared norms of conjugate gradients) before its max-norm
reaches the threshold.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import cg

from .errors import OperatorError, ParameterError, SolverFailure


@dataclass(frozen=True)
class GridConfig:
    l_x: float
    l_y: float
    l_tau: float
    n_x: int
    n_y: int
    n_tau: int


@dataclass(frozen=True)
class Grid:
    config: GridConfig
    axes: tuple
    h: tuple

    @property
    def shape(self):
        c = self.config
        return (c.n_x, c.n_y, c.n_tau)

    @property
    def interior_shape(self):
        c = self.config
        return (c.n_x - 2, c.n_y - 2, c.n_tau - 2)

    @property
    def n_interior(self) -> int:
        a, b, c = self.interior_shape
        return a * b * c

    @property
    def cell_volume(self) -> float:
        return self.h[0] * self.h[1] * self.h[2]

    def interior_mesh(self):
        """Coordinate arrays (X, Y, Tau) over interior nodes, C order."""
        xs = self.axes[0][1:-1]
        ys = self.axes[1][1:-1]
        ts = self.axes[2][1:-1]
        return np.meshgrid(xs, ys, ts, indexing="ij")


def build_grid(config: GridConfig) -> Grid:
    for name in ("l_x", "l_y", "l_tau"):
        if not getattr(config, name) > 0:
            raise ParameterError(f"{name} must be positive")
    for name in ("n_x", "n_y", "n_tau"):
        if getattr(config, name) < 3:
            raise ParameterError(f"{name} must be at least 3")
    ls = (config.l_x, config.l_y, config.l_tau)
    ns = (config.n_x, config.n_y, config.n_tau)
    h = tuple(2.0 * L / N for L, N in zip(ls, ns))
    axes = tuple(
        -L + (np.arange(N) + 0.5) * step for L, N, step in zip(ls, ns, h)
    )
    return Grid(config, axes, h)


@dataclass
class SparseOperator:
    """Symmetric operator on interior unknowns in CSR form."""

    matrix: sp.csr_matrix
    _neg: Optional[sp.csr_matrix] = field(default=None, repr=False)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def neg(self) -> sp.csr_matrix:
        if self._neg is None:
            self._neg = (-self.matrix).tocsr()
        return self._neg


@dataclass(frozen=True)
class GridField:
    values: np.ndarray
    grid: Grid

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def lq_norm(self, q: float) -> float:
        return float(
            (np.sum(np.abs(self.values) ** q) * self.grid.cell_volume) ** (1.0 / q)
        )


def _interior_index(shape):
    """Map full (i,j,k) to interior column index, -1 on the boundary layer."""
    nx, ny, nt = shape
    idx = -np.ones(shape, dtype=np.int64)
    count = (nx - 2) * (ny - 2) * (nt - 2)
    idx[1:-1, 1:-1, 1:-1] = np.arange(count).reshape(nx - 2, ny - 2, nt - 2)
    return idx


def _difference_matrix(grid: Grid, which: str) -> sp.csr_matrix:
    """Forward-difference matrix of X, Y or the plain d/dtau from full nodes
    to interior columns.

    X = d/dx + 2y d/dtau and Y = d/dy - 2x d/dtau step along their own axis
    and along tau; "tau" steps along tau only.  Rows are based at nodes where
    every forward difference exists; values at boundary-layer nodes are fixed
    to zero, so their columns drop out.
    """
    nx, ny, nt = grid.shape
    ht = grid.h[2]
    idx = _interior_index(grid.shape)
    I, J, K = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nt), indexing="ij")
    axis = {"X": 0, "Y": 1, "tau": None}[which]
    base = K <= nt - 2
    if axis is not None:
        base &= (I, J)[axis] <= grid.shape[axis] - 2
    ib, jb, kb = I[base], J[base], K[base]
    rows = np.arange(ib.size)
    if axis is None:
        entries = [(ib, jb, kb, -1.0 / ht)]
        coef = 1.0
    else:
        # tau transport coefficient: +2y for X, -2x for Y
        coef = 2.0 * grid.axes[1][jb] if axis == 0 else -2.0 * grid.axes[0][ib]
        step = 1.0 / grid.h[axis]
        entries = [(ib, jb, kb, -step - coef / ht),
                   (ib + (axis == 0), jb + (axis == 1), kb, np.full(ib.size, step))]
    entries.append((ib, jb, kb + 1, coef / ht))
    r_all, c_all, v_all = [], [], []
    for i, j, k, vals in entries:
        cols = idx[i, j, k]
        keep = cols >= 0
        r_all.append(rows[keep])
        c_all.append(cols[keep])
        v_all.append(np.broadcast_to(vals, rows.shape)[keep])
    mat = sp.coo_matrix(
        (np.concatenate(v_all), (np.concatenate(r_all), np.concatenate(c_all))),
        shape=(ib.size, grid.n_interior),
    )
    return mat.tocsr()


def assemble_sublaplacian(grid: Grid, regularization_eps: float = 0.0) -> SparseOperator:
    """L_h = -(D_X^T D_X + D_Y^T D_Y), optionally minus eps D_tau^T D_tau.

    The product is symmetrised entrywise so L_h equals its transpose
    exactly, not merely to rounding.
    """
    dx = _difference_matrix(grid, "X")
    dy = _difference_matrix(grid, "Y")
    m = (dx.T @ dx + dy.T @ dy).tocsr()
    if regularization_eps:
        dt = _difference_matrix(grid, "tau")
        m = (m + regularization_eps * (dt.T @ dt)).tocsr()
    sym = (m + m.T) * 0.5
    return SparseOperator((-sym).tocsr())


def solve_linear(
    op: SparseOperator,
    rhs: np.ndarray,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
):
    """Solve op x = rhs by conjugate gradients on -op (which must be SPD).

    Returns (x, iterations).  Raises SolverFailure when max_iter is
    exhausted and OperatorError on CG breakdown (indefiniteness).
    """
    rhs = np.asarray(rhs, dtype=float)
    a = op.neg
    iters = [0]

    def count(_):
        iters[0] += 1

    try:
        x, info = cg(a, -rhs, x0=x0, rtol=tol, atol=0.0, maxiter=max_iter, callback=count)
    except TypeError:  # scipy < 1.12 spells rtol as tol
        x, info = cg(a, -rhs, x0=x0, tol=tol, atol=0.0, maxiter=max_iter, callback=count)
    if info > 0:
        raise SolverFailure(f"conjugate gradients: no convergence within {info} iterations")
    if info < 0:
        raise OperatorError("conjugate gradients broke down; operator not positive definite")
    return x, iters[0]


@dataclass(frozen=True)
class BumpSpec:
    """Gaussian initial bump amplitude * exp(-|coords - center|^2 / width^2)."""

    center: tuple = (0.0, 0.0, 0.0)
    width: float = 1.0
    amplitude: float = 1.0

    def __post_init__(self):
        if len(self.center) != 3:
            raise ParameterError("bump center must have 3 components")
        if not self.width > 0:
            raise ParameterError("bump width must be positive")

    def evaluate(self, grid: Grid) -> np.ndarray:
        X, Y, T = grid.interior_mesh()
        cx, cy, ct = self.center
        d2 = (X - cx) ** 2 + (Y - cy) ** 2 + (T - ct) ** 2
        return (self.amplitude * np.exp(-d2 / self.width**2)).ravel()


@dataclass(frozen=True)
class SimConfig:
    equation: str  # "parabolic" or "hyperbolic"
    q: float
    nonlinearity: bool
    dt: float
    steps: int
    grid: GridConfig
    initial: BumpSpec
    initial_velocity: Optional[BumpSpec] = None
    blowup_threshold: float = 1e6
    solver_tol: float = 1e-10
    solver_max_iter: Optional[int] = None
    regularization_eps: float = 0.0
    n: int = 1

    def __post_init__(self):
        if self.equation not in ("parabolic", "hyperbolic"):
            raise ParameterError("equation must be 'parabolic' or 'hyperbolic'")
        if not self.q > 1:
            raise ParameterError("q must exceed 1")
        if not self.dt > 0:
            raise ParameterError("dt must be positive")
        if self.steps < 1:
            raise ParameterError("steps must be at least 1")
        if not self.blowup_threshold > 0:
            raise ParameterError("blow-up threshold must be positive")
        if self.n != 1:
            raise ParameterError("only n = 1 (3-D grids) is supported")

    @classmethod
    def from_dict(cls, data: dict) -> "SimConfig":
        data = _checked_fields(cls, data, "config")
        data["grid"] = GridConfig(**_checked_fields(GridConfig, data["grid"], "grid"))
        for key in ("initial", "initial_velocity"):
            if key == "initial" or data.get(key) is not None:
                bump = _checked_fields(BumpSpec, data[key], key)
                bump["center"] = tuple(bump.get("center", (0, 0, 0)))
                data[key] = BumpSpec(**bump)
        return cls(**data)


def _finite(value) -> bool:
    # the comparison is exact for Python ints too, so 10**400 fails it
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# (test, wording) of a JSON value per field annotation; nested objects check their own
_VALUE_OK = {
    "float": (_finite, "a finite number"),
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple": (lambda v: isinstance(v, (list, tuple)) and all(map(_finite, v)), "a list of finite numbers"),
}


def _checked_fields(cls, data, where: str) -> dict:
    """A copy of the JSON object `data` after checking its keys and values against the
    fields of dataclass `cls`: unknown or missing keys and mistyped values (floats must
    be finite) are parameter errors."""
    if not isinstance(data, dict):
        raise ParameterError(f"{where} must be a JSON object")
    names = {f.name for f in fields(cls)}
    required = {f.name for f in fields(cls) if f.default is MISSING}
    unknown, missing = sorted(set(data) - names), sorted(required - set(data))
    if unknown:
        raise ParameterError(f"unknown {where} key(s): {', '.join(unknown)}")
    if missing:
        raise ParameterError(f"missing {where} key(s): {', '.join(missing)}")
    for f in fields(cls):
        kind = f.type.removeprefix("Optional[").removesuffix("]")
        if f.name not in data or kind not in _VALUE_OK or (kind != f.type and data[f.name] is None):
            continue
        ok, wording = _VALUE_OK[kind]
        if not ok(data[f.name]):
            raise ParameterError(f"{where} key {f.name} must be {wording}")
    return dict(data)


@dataclass
class SimState:
    u: np.ndarray
    t: float
    step: int
    u_prev: Optional[np.ndarray] = None  # hyperbolic history
    last_iterations: int = 0


@dataclass(frozen=True)
class TraceRow:
    time: float
    max_norm: float
    lq_norm: float
    iterations: int


@dataclass(frozen=True)
class SimTrace:
    rows: list
    status: str  # "completed" | "blowup_threshold" | "solver_failure"
    status_step: Optional[int]
    config: SimConfig


def _solve_step(op: SparseOperator, u: np.ndarray, cfg: SimConfig):
    """Solve op w = -op u - |u|^q for w = du/dt (or the acceleration),
    warm-started at x0 = -u, which makes the linear-mode solve exact in zero
    iterations since then w = -u identically.

    Floating-point overflow on the way (in |u|^q or in CG's squared norms)
    means the solution has left the representable range; it is raised as
    OverflowError, which run() reports as blow-up.
    """
    try:
        with np.errstate(over="raise", invalid="raise"):
            rhs = -(op.matrix @ u)
            if cfg.nonlinearity:
                rhs -= np.abs(u) ** cfg.q
            return solve_linear(op, rhs, cfg.solver_tol, cfg.solver_max_iter, x0=-u)
    except FloatingPointError as exc:
        raise OverflowError(f"solution beyond floating-point range ({exc})") from None


def step_parabolic(state: SimState, op: SparseOperator, cfg: SimConfig) -> SimState:
    """One explicit Euler step: solve op w = -op u - |u|^q, then u += dt w."""
    w, iters = _solve_step(op, state.u, cfg)
    return SimState(state.u + cfg.dt * w, state.t + cfg.dt, state.step + 1,
                    last_iterations=iters)


def step_hyperbolic(state: SimState, op: SparseOperator, cfg: SimConfig) -> SimState:
    """One leapfrog step: solve op a = -op u - |u|^q, then
    u_next = 2u - u_prev + dt^2 a."""
    a, iters = _solve_step(op, state.u, cfg)
    u_next = 2.0 * state.u - state.u_prev + cfg.dt**2 * a
    return SimState(u_next, state.t + cfg.dt, state.step + 1, u_prev=state.u,
                    last_iterations=iters)


def taylor_start(u0: np.ndarray, u1: np.ndarray, op: SparseOperator, cfg: SimConfig):
    """First hyperbolic step u^1 = u^0 + dt u1 + dt^2/2 a^0."""
    a0, iters = _solve_step(op, u0, cfg)
    return u0 + cfg.dt * u1 + 0.5 * cfg.dt**2 * a0, iters


def run(cfg: SimConfig) -> SimTrace:
    """Step the configured equation, recording norms until the step budget,
    the blow-up threshold (or floating-point overflow), or a solver failure."""
    grid = build_grid(cfg.grid)
    op = assemble_sublaplacian(grid, cfg.regularization_eps)
    u = cfg.initial.evaluate(grid)
    rows = []

    def record(state: SimState):
        f = GridField(state.u, grid)
        rows.append(TraceRow(state.t, f.max_norm(), f.lq_norm(cfg.q), state.last_iterations))

    state = SimState(u, 0.0, 0)
    record(state)
    status, status_step = "completed", None
    try:
        if cfg.equation == "hyperbolic":
            u1 = (cfg.initial_velocity.evaluate(grid)
                  if cfg.initial_velocity is not None else np.zeros_like(u))
            u_next, iters = taylor_start(u, u1, op, cfg)
            state = SimState(u_next, cfg.dt, 1, u_prev=u, last_iterations=iters)
            record(state)
        for _ in range(state.step, cfg.steps):
            if cfg.equation == "parabolic":
                state = step_parabolic(state, op, cfg)
            else:
                state = step_hyperbolic(state, op, cfg)
            record(state)
            if not np.all(np.isfinite(state.u)) or np.max(np.abs(state.u)) >= cfg.blowup_threshold:
                status, status_step = "blowup_threshold", state.step
                break
    except SolverFailure:
        status, status_step = "solver_failure", state.step + 1
    except OverflowError:
        status, status_step = "blowup_threshold", state.step + 1
    return SimTrace(rows, status, status_step, cfg)
