"""Finite-difference solver for the two Sobolev-type model equations

    d/dt  Delta u + Delta u + |u|^q = 0        (first order in time)
    d2/dt2 Delta u + Delta u + |u|^q = 0       (second order in time)

on a 3-D box (n = 1 only) with zero Dirichlet boundary.  The discrete
sub-Laplacian is assembled in divergence form

    L_h = - sum_i (D_Xi^T D_Xi + D_Yi^T D_Yi)

from forward-difference discretisations of X = d/dx + 2y d/dtau and
Y = d/dy - 2x d/dtau with coefficients sampled at nodes, each a sum of
Kronecker products of 1-D factors (difference, truncated identity,
coefficient diagonal) over the x, y and tau axes.  This makes -L_h
symmetric positive semidefinite by construction, and it is the one matrix
stored.  Each step solves the SPD system -L_h w = |u|^q - (-L_h) u for
w = d/dt u (or the acceleration a): by LU factors, made once per grid (run()
keeps the last grid's operator for the next run on it), up to
DIRECT_MAX_UNKNOWNS unknowns, else by conjugate gradients on -L_h stored by diagonals
(DIA), preconditioned by the Jacobi diagonal plus a coarse correction on at most
COARSE_RUNS^3 node aggregates (the additive two-level preconditioner, see
SparseOperator.coarse), and started from the combination of the last
EXTRAPOLATION_POINTS steps' nonlinear potentials with the smallest residual (see step).
Time stepping is explicit Euler (first order) or leapfrog after a Taylor start (second
order), all in step() with one shared solve (none in linear mode); run() checks every
step's row against the blow-up threshold, the Taylor start's included, but not the initial row.

The grid is cell-centred: spacing h = 2L/N per axis with N nodes whose
outermost layer is clamped to zero, leaving (N-2)^3 interior unknowns.

Nothing here reproduces a published experiment; blow-up runs are
illustrative observations of the discrete dynamics, and hitting the
blow-up threshold counts as a completed result, not an error.  So does a
step that overflows floating-point range (in the forcing |u|^q, the solve,
the update or the recorded norms) before the max-norm reaches the
threshold; that step is not taken.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, fields
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import ParameterError, SolverFailure, shown

if TYPE_CHECKING:  # scipy.sparse itself loads at the first assembly
    import scipy.sparse as sp

# LU fill: 2 MB at 13^3 nodes, 8.4 MB at 17^3, 10.9 MB at 18^3, 14 MB at 19^3, 62 MB at 25^3.
# A cold run (assembly and factoring included; median of 5, either equation, two passes of
# scripts/time_solvers.py) takes, in ms a step by LU against two-level CG from the
# minimal-residual start, over 30 steps 3.5-3.9 against 2.3-2.8 at 17^3, 3.3-4.2 against
# 2.2-2.8 at 18^3 and 5.1-6.7 against 3.0-3.7 at 19^3, and over 100 steps 1.9-2.1 against
# 1.1-1.9, 1.8-2.6 against 1.5-1.8 and 2.9-3.9 against 1.9-2.6; at 15^3 the two are on par
# (one core of a 2-vCPU x86-64 host, scipy 1.17).  So CG is faster from 17^3 on, but the
# limit stays, since moving it would change the reports of 17^3 and 18^3 grids.
DIRECT_MAX_UNKNOWNS = 4096
# CG starts from a combination of this many past nonlinear potentials (see step)
EXTRAPOLATION_POINTS = 5
# CG's coarse space splits each interior axis into at most this many runs of nodes (see
# SparseOperator.coarse).  Over the six 30-step 25^3 runs of perfbench sim_large seeds 11-13,
# 4, 5 and 6 runs (64, 125, 216 aggregates) took 4056, 3670 and 3286 CG iterations against
# 6020 by Jacobi alone, and Gauss-Jordan took 1.0, 4-5 and 21 ms a grid; 6 gained no clear time.
COARSE_RUNS = 5


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
    for name, L, step in zip(("l_x", "l_y", "l_tau"), ls, h):  # so that 1/h^2 is a normal float
        if not 1.0 / sys.float_info.max <= step * step <= 1.0 / sys.float_info.min:
            raise ParameterError(f"{name} = {shown(L)} gives a grid spacing beyond floating-point range")
    axes = tuple(-L + (np.arange(N) + 0.5) * step for L, N, step in zip(ls, ns, h))
    grid = Grid(config, axes, h)
    # so that the Lq norm of data of size 1, sum |u|^q * cell volume, is a positive float
    if not sys.float_info.min <= grid.cell_volume <= sys.float_info.max / grid.n_interior:
        raise ParameterError(f"l_x = {shown(config.l_x)}, l_y = {shown(config.l_y)}, l_tau = {shown(config.l_tau)} "
                             f"give a cell volume beyond floating-point range")
    return grid


@dataclass
class SparseOperator:
    """-L_h on the interior unknowns of a grid, symmetric positive semidefinite (CSR up to
    DIRECT_MAX_UNKNOWNS, else DIA for the CG mat-vec); its SuperLU factors, its Jacobi
    diagonal 1 / diag(-L_h) and CG's coarse space (see coarse) are built on first use and
    kept with the operator, which run() keeps while later runs use its grid (see _grid_operator)."""

    neg: sp.spmatrix
    interior_shape: tuple  # (n_x - 2, n_y - 2, n_tau - 2), C order

    @property
    def dimension(self) -> int:
        return self.neg.shape[0]

    @property
    def matrix(self) -> sp.spmatrix:
        """L_h itself, in the storage of neg."""
        return -self.neg

    @cached_property
    def lu(self):
        from scipy.sparse.linalg import splu
        return splu(self.neg.tocsc(), permc_spec="MMD_AT_PLUS_A", options={"SymmetricMode": True})

    @cached_property
    def jacobi(self) -> np.ndarray:
        return 1.0 / self.neg.diagonal()

    @cached_property
    def coarse(self):
        """(W^T, A_c^-1, aggregate) of CG's coarse correction W A_c^-1 W^T r.  Each interior
        axis of length k splits into m = min(k, COARSE_RUNS) runs of nodes, node i in run
        i m // k; the aggregates are the products of runs, aggregate[j] is node j's, W holds
        their indicator vectors as columns, and the Galerkin matrix A_c = W^T (-L_h) W is
        inverted by Gauss-Jordan and symmetrised.  Raises SolverFailure when A_c is not
        positive definite."""
        import scipy.sparse as sp
        counts = [min(k, COARSE_RUNS) for k in self.interior_shape]
        runs = [np.arange(k) * m // k for k, m in zip(self.interior_shape, counts)]
        aggregate = np.ravel_multi_index(np.meshgrid(*runs, indexing="ij"), counts).ravel()
        restrict = sp.csr_matrix((np.ones(self.dimension), (aggregate, np.arange(self.dimension))),
                                 shape=(int(np.prod(counts)), self.dimension))
        inverse = _gauss_jordan_inverse((restrict @ self.neg @ restrict.T).toarray())
        return restrict, 0.5 * (inverse + inverse.T), aggregate

    def precondition(self, r: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """out = M^-1 r = r / diag(-L_h) + W A_c^-1 W^T r, CG's two-level additive
        preconditioner, symmetric positive definite when -L_h is; scratch is overwritten.
        The restriction is one CSR product and the prolongation one gather."""
        restrict, inverse, aggregate = self.coarse
        np.multiply(self.jacobi, r, out=out)
        out += np.take(inverse @ (restrict @ r), aggregate, out=scratch, mode="clip")
        return out


def _gauss_jordan_inverse(a: np.ndarray) -> np.ndarray:
    """a^-1 by Gauss-Jordan elimination in place, without pivoting, in numpy ufuncs (LAPACK's
    inv and solve start BLAS worker threads, which spin on after the call).  For symmetric a
    every pivot is positive exactly when a is positive definite, so a pivot that is not
    finite and positive raises SolverFailure before it is divided by."""
    a = np.array(a, dtype=float)
    for k in range(a.shape[0]):
        pivot = a[k, k]
        if not (np.isfinite(pivot) and pivot > 0):
            raise SolverFailure("conjugate gradients: coarse operator not positive definite")
        column = a[:, k].copy()
        column[k], a[:, k], a[k, k] = 0.0, 0.0, 1.0
        a[k] /= pivot
        a -= np.multiply.outer(column, a[k])
    return a


def _difference_matrix(grid: Grid, which: str) -> sp.csr_matrix:
    """Forward-difference matrix of X or Y from full nodes to interior
    columns, as a sum of Kronecker products of 1-D factors:

        D_X = dx (x) I (x) E_tau / h_x + E_x (x) diag(2y) (x) dtau / h_tau
        D_Y = I (x) dy (x) E_tau / h_y + diag(-2x) (x) E_y (x) dtau / h_tau

    with d the unscaled forward difference (-1, 1) and E the identity less
    its last row, so rows are based at nodes where every forward difference
    exists.  Values at boundary-layer nodes are fixed to zero, so each factor
    keeps its interior columns only.
    """
    import scipy.sparse as sp
    (nx, ny, nt), (x, y, _), (hx, hy, ht) = grid.shape, grid.axes, grid.h

    def cut(n):
        return np.eye(n - 1, n)

    def fwd(n):
        return np.eye(n - 1, n, 1) - cut(n)

    terms = {
        "X": [(fwd(nx), np.eye(ny), cut(nt), hx), (cut(nx), np.diag(2.0 * y), fwd(nt), ht)],
        "Y": [(np.eye(nx), fwd(ny), cut(nt), hy), (np.diag(-2.0 * x), cut(ny), fwd(nt), ht)],
    }
    parts = []
    for a, b, c, h in terms[which]:
        part = sp.kron(sp.kron(a[:, 1:-1], b[:, 1:-1]), c[:, 1:-1], format="coo")
        part.data /= h  # a / h, as a difference quotient: scipy's m / h multiplies by 1/h
        parts.append(part)
    return sum(parts[1:], parts[0]).tocsr()


def assemble_sublaplacian(grid: Grid) -> SparseOperator:
    """-L_h = D_X^T D_X + D_Y^T D_Y, stored as DIA above DIRECT_MAX_UNKNOWNS unknowns.

    The product is symmetrised entrywise so -L_h equals its transpose
    exactly, not merely to rounding.  Raises ParameterError when a row sum of
    |L_h| leaves float range, as -L_h u then can for data of size 1.
    """
    dx, dy = (_difference_matrix(grid, which) for which in "XY")
    m = (dx.T @ dx + dy.T @ dy).tocsr()
    sym = (m + m.T) * 0.5
    del dx, dy, m  # freed before the DIA copy is made, which sets assembly's peak memory
    if not np.isfinite(abs(sym).sum(axis=1)).all():
        c = grid.config
        raise ParameterError(f"grid operator beyond floating-point range at "
                             f"l_x = {shown(c.l_x)}, l_y = {shown(c.l_y)}, l_tau = {shown(c.l_tau)}")
    return SparseOperator(sym.todia() if sym.shape[0] > DIRECT_MAX_UNKNOWNS else sym.tocsr(),
                          grid.interior_shape)


@lru_cache(maxsize=1)
def _grid_operator(config: GridConfig):
    """(grid, -L_h) for `config`, kept for the next run while it uses the same grid, so
    that run skips assembly and reuses the operator's LU factors and Jacobi diagonal."""
    grid = build_grid(config)
    return grid, assemble_sublaplacian(grid)


def solve_linear(
    op: SparseOperator,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: Optional[int] = None,
    x0: Optional[np.ndarray] = None,
):
    """Solve -L_h x = b (op.neg x = b): by the cached LU factors up to
    DIRECT_MAX_UNKNOWNS unknowns, returning (x, 0), else by conjugate gradients with the
    two-level preconditioner op.precondition, from x0 until |r| < tol |b|, returning (x, iterations).

    Raises OverflowError for a non-finite direct solution or CG right-hand side,
    SolverFailure when CG exhausts max_iter (default 10 n) or breaks down (r.Mr or p.Ap <= 0,
    or a coarse operator that is not positive definite).
    """
    b = np.asarray(b, dtype=float)
    if op.dimension <= DIRECT_MAX_UNKNOWNS:
        x = op.lu.solve(b)
        if not np.isfinite(x).all():  # SuperLU raises no floating-point errors
            raise OverflowError("direct solve beyond floating-point range")
        return x, 0
    # CG runs on b / max|b|, so no square under- or overflows; einsum keeps each
    # reduction on one thread, where BLAS dot and norm split it over every core
    scale = np.max(np.abs(b))
    if not np.isfinite(scale):
        raise OverflowError("conjugate gradients: right-hand side beyond floating-point range")
    if scale == 0.0:
        return np.zeros_like(b), 0
    a, b = op.neg, b / scale
    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=float) / scale
    r, p, rz_prev, iters = b - a @ x, np.zeros_like(b), 1.0, 0
    z, t = np.empty_like(b), np.empty_like(b)  # M^-1 r, and scratch for the updates
    stop = tol**2 * np.einsum("i,i", b, b)
    budget = 10 * op.dimension if max_iter is None else max_iter
    while not np.einsum("i,i", r, r) < stop:
        if iters == budget:
            raise SolverFailure(f"conjugate gradients: no convergence within {budget} iterations")
        op.precondition(r, z, t)
        rz = np.einsum("i,i", r, z)
        p *= rz / rz_prev
        p += z
        ap = a @ p
        pap = np.einsum("i,i", p, ap)
        if not (rz > 0 and pap > 0):
            raise SolverFailure("conjugate gradients broke down; operator not positive definite")
        alpha = rz / pap
        x += np.multiply(alpha, p, out=t)
        r -= np.multiply(alpha, ap, out=t)
        rz_prev, iters = rz, iters + 1
    return scale * x, iters


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
        # differences are scaled before squaring; a square beyond float range is inf, exp(-inf) 0
        X, Y, T = grid.interior_mesh()
        cx, cy, ct = self.center
        w = self.width
        with np.errstate(over="ignore"):
            d2 = ((X - cx) / w) ** 2 + ((Y - cy) / w) ** 2 + ((T - ct) / w) ** 2
        return (self.amplitude * np.exp(-d2)).ravel()


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
        if not 0 < self.solver_tol < 1:
            raise ParameterError("solver_tol must lie strictly between 0 and 1")
        if self.solver_max_iter is not None and self.solver_max_iter < 1:
            raise ParameterError("solver_max_iter must be at least 1")
        if self.n != 1:
            raise ParameterError("only n = 1 (3-D grids) is supported")
        if self.initial_velocity is not None and self.equation != "hyperbolic":
            raise ParameterError("initial_velocity applies to the hyperbolic equation only")

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
    velocity: Optional[np.ndarray] = None  # hyperbolic, no history: du/dt for the Taylor start
    last_iterations: int = 0
    potentials: tuple = ()  # CG: last EXTRAPOLATION_POINTS pairs (z, -L_h z), newest first


@dataclass(frozen=True)
class SimTrace:
    rows: list  # report rows: dicts of step, time, max_norm, lq_norm and iterations
    status: str  # "completed" | "blowup_threshold" | "solver_failure"
    status_step: Optional[int]


def _least_squares(columns: list, f: np.ndarray) -> list:
    """c minimising |f - sum_j c_j columns[j]|_2 by single-pass modified Gram-Schmidt on
    [columns | f] (each scaled by its max-abs, so no square overflows; stopped at a column
    whose remaining norm is 0) and back substitution.  einsum keeps each dot on one thread."""
    k = len(columns)
    basis, scales, r = [], [], np.zeros((k, k + 1))
    for j, a in enumerate([*columns, f]):
        if len(basis) < j < k:  # the basis stopped at an earlier column
            continue
        scales.append(np.max(np.abs(a)))
        v = a / (scales[-1] or 1.0)
        for i, qi in enumerate(basis):
            r[i, j] = np.einsum("i,i", qi, v)
            v -= r[i, j] * qi
        if j < k and (norm := np.sqrt(np.einsum("i,i", v, v))) > 0.0:
            r[j, j] = norm
            basis.append(v / norm)
    m, d = len(basis), np.zeros(len(basis))
    for i in reversed(range(m)):
        d[i] = (r[i, k] - r[i, i + 1:m] @ d[i + 1:]) / r[i, i]
    return [di * scales[-1] / s for di, s in zip(d, scales)]


def step(state: SimState, op: SparseOperator, cfg: SimConfig) -> SimState:
    """One step of either equation: solve -L_h w = |u|^q - (-L_h) u for w = du/dt (or the
    acceleration), then take Euler's u + dt w (parabolic), leapfrog's 2u - u_prev + dt^2 w,
    or, from a hyperbolic state with no history, the Taylor start u + dt u1 + dt^2/2 w with
    u1 = state.velocity.  Linear mode has w = -u identically, so no solve.  LU takes no start;
    CG starts from x0 = -u + sum_j c_j z_j over the held pairs (z, g = -L_h z) of past steps,
    z = w + u = (-L_h)^-1 |u|^q, with c minimising the 2-norm of the residual f - sum_j c_j g_j
    (f = |u|^q), CG's stopping measure (the quartic's 5, -10, 10, -5, 1 is one c); the step's
    own pair is prepended to those held."""
    u, held, dt, x0 = state.u, state.potentials, cfg.dt, None
    if cfg.nonlinearity:
        f = np.abs(u) ** cfg.q
        b = f - op.neg @ u
        if op.dimension > DIRECT_MAX_UNKNOWNS:
            c = _least_squares([g for _, g in held], f)
            x0 = sum((cj * z for cj, (z, _) in zip(c, held)), -u)
        w, iters = solve_linear(op, b, cfg.solver_tol, cfg.solver_max_iter, x0=x0)
    else:
        w, iters = -u, 0
    held = () if x0 is None else ((z := w + u, op.neg @ z), *held)[:EXTRAPOLATION_POINTS]
    if cfg.equation == "parabolic":
        u_next, u_prev = u + dt * w, None
    elif state.u_prev is None:
        u_next, u_prev = u + dt * state.velocity + 0.5 * dt**2 * w, u
    else:
        u_next, u_prev = 2.0 * u - state.u_prev + dt**2 * w, u
    return SimState(u_next, state.t + dt, state.step + 1, u_prev=u_prev,
                    last_iterations=iters, potentials=held)


def run(cfg: SimConfig) -> SimTrace:
    """Step the configured equation, recording a report row per step until the step
    budget, the blow-up threshold (checked on every step's row, not the initial one) or a
    solver failure; a step that overflows is not taken, initial norms that overflow raise
    OverflowError (no first row exists)."""
    grid, op = _grid_operator(cfg.grid)
    u = cfg.initial.evaluate(grid)
    u1 = cfg.initial_velocity.evaluate(grid) if cfg.initial_velocity is not None else np.zeros_like(u)
    rows = []

    def record(state: SimState) -> SimState:
        a = np.abs(state.u)
        rows.append({"step": state.step, "time": state.t, "max_norm": float(np.max(a)),
                     "lq_norm": float((np.sum(a**cfg.q) * grid.cell_volume) ** (1.0 / cfg.q)),
                     "iterations": state.last_iterations})
        return state

    status, status_step = "completed", None
    with np.errstate(over="raise", invalid="raise"):
        try:
            state = record(SimState(u, 0.0, 0, velocity=u1))
        except FloatingPointError:
            raise OverflowError("norms of the initial state overflow") from None
        try:
            for _ in range(cfg.steps):
                state = record(step(state, op, cfg))
                if rows[-1]["max_norm"] >= cfg.blowup_threshold:
                    status, status_step = "blowup_threshold", state.step
                    break
        except SolverFailure:
            status, status_step = "solver_failure", state.step + 1
        except (OverflowError, FloatingPointError):
            status, status_step = "blowup_threshold", state.step + 1
    return SimTrace(rows, status, status_step)
