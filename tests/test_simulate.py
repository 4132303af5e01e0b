import json
import subprocess
import sys
import warnings
from math import comb
from pathlib import Path

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import cg, eigsh

import heislab.simulate as simulate
from heislab.errors import ParameterError, SolverFailure
from heislab.simulate import (
    DIRECT_MAX_UNKNOWNS,
    BumpSpec,
    GridConfig,
    SimConfig,
    SimState,
    assemble_sublaplacian,
    build_grid,
    run,
    solve_linear,
    step,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GRID9 = GridConfig(3.0, 3.0, 9.0, 9, 9, 9)
# 17^3 = 4913 interior unknowns: the smallest cube grid solved by conjugate gradients
GRID19 = GridConfig(3.0, 3.0, 9.0, 19, 19, 19)


@pytest.fixture
def fresh_operators():
    """No kept operator before or after the test: a kept operator holds the -L_h storage
    and factors made under the DIRECT_MAX_UNKNOWNS and splu of its grid's first run."""
    simulate._grid_operator.cache_clear()
    yield
    simulate._grid_operator.cache_clear()


def solve_directly(monkeypatch):
    """Solve every grid by LU from here on, with no operator kept from before."""
    monkeypatch.setattr(simulate, "DIRECT_MAX_UNKNOWNS", 10**6)
    simulate._grid_operator.cache_clear()


def quintic_bump(s):
    inside = np.abs(s) < 1
    sc = np.where(inside, s, 0.0)
    u = 1 - sc**2
    v = np.where(inside, u**5, 0.0)
    d1 = np.where(inside, -10 * sc * u**4, 0.0)
    d2 = np.where(inside, -10 * u**4 + 80 * sc**2 * u**3, 0.0)
    return v, d1, d2


def product_bump(grid, lx=2.0, ly=2.0, lt=6.0):
    X, Y, T = grid.interior_mesh()
    bx, bx1, bx2 = quintic_bump(X / lx)
    by, by1, by2 = quintic_bump(Y / ly)
    bt, bt1, bt2 = quintic_bump(T / lt)
    f = bx * by * bt
    lap = (bx2 / lx**2 * by * bt + bx * by2 / ly**2 * bt
           + 4 * (X**2 + Y**2) * bx * by * bt2 / lt**2
           + 4 * Y * bx1 / lx * by * bt1 / lt - 4 * X * bx * by1 / ly * bt1 / lt)
    return f.ravel(), lap.ravel()


def reference_difference_matrix(grid, which):
    """Index-map assembly of the forward-difference matrix of X or Y:
    rows at full nodes where every forward difference exists, columns at
    interior nodes, entries listed as (row, column, value) triplets."""
    nx, ny, nt = grid.shape
    ht = grid.h[2]
    idx = -np.ones(grid.shape, dtype=np.int64)
    idx[1:-1, 1:-1, 1:-1] = np.arange(grid.n_interior).reshape(grid.interior_shape)
    I, J, K = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nt), indexing="ij")
    axis = {"X": 0, "Y": 1}[which]
    base = (K <= nt - 2) & ((I, J)[axis] <= grid.shape[axis] - 2)
    ib, jb, kb = I[base], J[base], K[base]
    rows = np.arange(ib.size)
    coef = 2.0 * grid.axes[1][jb] if axis == 0 else -2.0 * grid.axes[0][ib]
    step = 1.0 / grid.h[axis]
    entries = [(ib, jb, kb, -step - coef / ht),
               (ib + (axis == 0), jb + (axis == 1), kb, np.full(ib.size, step)),
               (ib, jb, kb + 1, coef / ht)]
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


def assert_same_bits(a, b):
    a, b = a.tocsr(), b.tocsr()
    a.sort_indices()
    b.sort_indices()
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.int64), b.data.view(np.int64))


@pytest.mark.parametrize("nodes", [(3, 3, 3), (3, 4, 5), (4, 3, 6), (5, 7, 11), (8, 8, 8),
                                   (10, 4, 3), (33, 33, 33)])
def test_kronecker_assembly_matches_reference(nodes):
    g = build_grid(GridConfig(3.0, 2.5, 9.0, *nodes))
    ref = {w: reference_difference_matrix(g, w) for w in ("X", "Y")}
    for which, d in ref.items():
        kron = simulate._difference_matrix(g, which)
        d.eliminate_zeros()  # explicit zeros at y = 0 (X) and x = 0 (Y)
        assert_same_bits(kron, d)
    m = (ref["X"].T @ ref["X"] + ref["Y"].T @ ref["Y"]).tocsr()
    assert_same_bits(assemble_sublaplacian(g).matrix, -((m + m.T) * 0.5))


def test_grid_counting_and_spacing():
    g = build_grid(GridConfig(1.0, 1.0, 1.0, 3, 3, 3))
    assert g.n_interior == 1
    g1 = build_grid(GridConfig(2.0, 2.0, 2.0, 10, 10, 10))
    g2 = build_grid(GridConfig(2.0, 2.0, 2.0, 20, 20, 20))
    assert g1.h[0] == 2 * g2.h[0]
    aniso = build_grid(GridConfig(1.0, 1.0, 7.0, 5, 5, 9))
    assert aniso.h[2] == pytest.approx(14 / 9)
    with pytest.raises(ParameterError):
        build_grid(GridConfig(1.0, 1.0, 1.0, 2, 3, 3))
    with pytest.raises(ParameterError):
        build_grid(GridConfig(0.0, 1.0, 1.0, 3, 3, 3))


# six significant digits would name lengths the user did not pass, such as l_x = 1e+160
@pytest.mark.parametrize("config, culprit", [
    (GridConfig(1.0000001e160, 1.0, 1.0, 5, 5, 5), "l_x = 1.0000001e+160 gives a grid spacing"),
    (GridConfig(1.0000001e150, 1.0000001e150, 1.0000001e150, 5, 5, 5),
     "l_x = 1.0000001e+150, l_y = 1.0000001e+150, l_tau = 1.0000001e+150 give a cell volume"),
    (GridConfig(3.0, 3.0, 1.0000001e-153, 5, 5, 5),
     "grid operator beyond floating-point range at l_x = 3, l_y = 3, l_tau = 1.0000001e-153"),
], ids=["spacing", "cell-volume", "operator"])
def test_grid_out_of_range_names_the_lengths(config, culprit):
    with pytest.raises(ParameterError) as info:
        assemble_sublaplacian(build_grid(config))
    assert culprit in str(info.value)


def test_operator_symmetric_negative_definite():
    g = build_grid(GridConfig(3.0, 3.0, 9.0, 11, 11, 11))
    op = assemble_sublaplacian(g)
    diff = op.matrix - op.matrix.T
    assert diff.nnz == 0 or abs(diff).max() == 0.0
    rng = np.random.default_rng(0)
    for _ in range(100):
        v = rng.normal(size=op.dimension)
        assert v @ (-(op.matrix @ v)) > 0.0


def test_operator_annihilates_constants_in_bulk():
    g = build_grid(GridConfig(3.0, 3.0, 9.0, 17, 17, 17))
    op = assemble_sublaplacian(g)
    lc = (op.matrix @ np.ones(op.dimension)).reshape(g.interior_shape)
    assert np.max(np.abs(lc[2:-2, 2:-2, 2:-2])) < 1e-12


def test_operator_exact_on_horizontal_quadratic():
    g = build_grid(GridConfig(3.0, 3.0, 9.0, 17, 17, 17))
    op = assemble_sublaplacian(g)
    X, Y, _ = g.interior_mesh()
    f = (X**2 + Y**2).ravel()
    lf = (op.matrix @ f).reshape(g.interior_shape)
    assert np.max(np.abs(lf[2:-2, 2:-2, 2:-2] - 4.0)) < 1e-9


def test_operator_consistency_order():
    errs = {}
    for N in (17, 33, 65):
        g = build_grid(GridConfig(3.0, 3.0, 9.0, N, N, N))
        op = assemble_sublaplacian(g)
        f, lap = product_bump(g)
        errs[N] = np.max(np.abs(op.matrix @ f - lap))
    o1 = np.log2(errs[17] / errs[33])
    o2 = np.log2(errs[33] / errs[65])
    for order in (o1, o2):
        assert 0.9 <= order <= 2.2


def test_solve_linear():
    g = build_grid(GRID19)
    op = assemble_sublaplacian(g)
    assert op.dimension > DIRECT_MAX_UNKNOWNS
    for x0 in (None, np.ones(op.dimension)):
        x, iters = solve_linear(op, np.zeros(op.dimension), x0=x0)
        assert np.all(x == 0.0) and iters == 0
    with pytest.raises(OverflowError):
        solve_linear(op, np.full(op.dimension, np.inf))
    rng = np.random.default_rng(1)
    w = rng.normal(size=op.dimension)
    rhs = op.neg @ w
    x, iters = solve_linear(op, rhs, tol=1e-10, max_iter=10 * op.dimension)
    assert np.max(np.abs(x - w)) < 1e-8
    assert iters <= 10 * op.dimension
    for c in (1e-300, 1e300):  # |rhs|^2 would under- or overflow without scaling
        xc, iters_c = solve_linear(op, c * rhs, tol=1e-10)
        assert abs(iters_c - iters) <= 1 and np.max(np.abs(xc / c - w)) < 1e-8
    with pytest.raises(SolverFailure):
        solve_linear(op, rhs, tol=1e-14, max_iter=1)


# which check proves -L_h - shift I indefinite, by the shift
BREAKDOWN = {2.0: "conjugate gradients broke down", 5.0: "coarse operator not positive definite",
             50.0: "coarse operator not positive definite"}


@pytest.mark.parametrize("shift", [2.0, 5.0, 50.0])
def test_cg_breakdown_on_indefinite_operator(shift):
    # -L_h - shift I is symmetric and, since the least eigenvalue of -L_h is 0.87, indefinite.
    # At 2 its Galerkin matrix on CG's coarse space is still positive definite, so p.Ap <= 0
    # stops CG; at 5 it is not, and at 50 some diagonal entries are not positive either, so
    # Gauss-Jordan meets a pivot that is not positive before the first iteration.  Each
    # proves the operator is not positive definite, so CG's guarantees are gone.
    grid = build_grid(GRID19)
    op = assemble_sublaplacian(grid)
    shifted = simulate.SparseOperator((op.neg - shift * sp.identity(op.dimension)).tocsr(),
                                      grid.interior_shape)
    assert (shifted.jacobi > 0).all() == (shift < 50.0)
    rhs = np.random.default_rng(3).normal(size=op.dimension)
    with pytest.raises(SolverFailure, match=BREAKDOWN[shift]):
        solve_linear(shifted, rhs)


@pytest.mark.parametrize("pivot", [0.0, -1.0, np.inf, np.nan])
def test_gauss_jordan_refuses_a_pivot_that_is_not_positive(pivot):
    # inside run's errstate a zero or infinite pivot would turn into inf - inf, which run
    # reports as blow-up; it must stay a solver failure, raised before any division
    a = np.diag([2.0, 3.0, 4.0])
    a[1, 1] = pivot
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        with pytest.raises(SolverFailure, match="not positive definite"):
            simulate._gauss_jordan_inverse(a)


@pytest.mark.parametrize("equation", ["parabolic", "hyperbolic"])
def test_warm_started_cg_run_matches_lu(fresh_operators, monkeypatch, equation):
    steps, tol = 30, 1e-10
    cfg = SimConfig(equation, q=1.5, nonlinearity=True, dt=5e-3, steps=steps, grid=GRID19,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 20.0), solver_tol=tol)
    tr = run(cfg)
    solve_directly(monkeypatch)
    direct = run(cfg)
    assert (tr.status, tr.status_step) == (direct.status, direct.status_step) == ("completed", None)
    neg = assemble_sublaplacian(build_grid(GRID19)).neg
    kappa = (eigsh(neg, k=1, which="LA", return_eigenvectors=False)[0]
             / eigsh(neg, k=1, sigma=0, which="LM", return_eigenvectors=False)[0])
    for field in ("max_norm", "lq_norm"):
        cg_value, lu_value = tr.rows[-1][field], direct.rows[-1][field]
        assert abs(cg_value - lu_value) <= steps * kappa * tol * abs(lu_value)
    # from the sixth step on, all EXTRAPOLATION_POINTS potentials are held and the
    # minimal-residual start pays off
    first = tr.rows[1]["iterations"]
    assert all(d["iterations"] == 0 for d in direct.rows) and first > 0
    assert np.mean([r["iterations"] for r in tr.rows[6:]]) <= 0.25 * first


def test_default_solver_tol_makes_cg_agree_with_lu(fresh_operators, monkeypatch):
    # every other run sets solver_tol; here its default stops CG on 7^3 unknowns, and ten
    # Euler steps end within 1e-11 of LU (1.9e-13 at the default 1e-10, 2.8e-9 at 1e-6)
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=True, dt=5e-3, steps=10, grid=GRID9,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 20.0))
    monkeypatch.setattr(simulate, "DIRECT_MAX_UNKNOWNS", 100)
    cg_run = run(cfg)
    solve_directly(monkeypatch)
    lu_run = run(cfg)
    assert cg_run.rows[-1]["iterations"] > 0 and lu_run.rows[-1]["iterations"] == 0
    for field in ("max_norm", "lq_norm"):
        cg_value, lu_value = cg_run.rows[-1][field], lu_run.rows[-1][field]
        assert abs(cg_value - lu_value) <= 1e-11 * abs(lu_value)


def captured_starts(monkeypatch):
    """Replace solve_linear by a stub that records each x0 and returns (zeros, 0)."""
    starts = []

    def recording_solve(op, b, tol=1e-10, max_iter=None, x0=None):
        starts.append(x0)
        return np.zeros_like(b), 0

    monkeypatch.setattr(simulate, "solve_linear", recording_solve)
    return starts


def quartic_start(u, held):
    """-u plus the polynomial through the held potentials, continued one step."""
    return sum(((-1) ** j * comb(len(held), j + 1) * z for j, (z, _) in enumerate(held)), -u)


@pytest.mark.parametrize("k", range(simulate.EXTRAPOLATION_POINTS + 1))
def test_cg_start_minimises_residual_over_held_images(monkeypatch, k):
    # hold the (z, g) pairs of k CG steps, then capture the next step's start
    grid = build_grid(GRID19)
    op = assemble_sublaplacian(grid)
    assert op.dimension > DIRECT_MAX_UNKNOWNS
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=True, dt=5e-3, steps=k + 1, grid=GRID19,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 20.0))
    state = SimState(cfg.initial.evaluate(grid), 0.0, 0)
    for _ in range(k):
        state = step(state, op, cfg)
    held = state.potentials
    assert len(held) == k
    # each image is -L_h z by the DIA mat-vec, bit for bit
    assert all(np.array_equal(g, op.neg @ z) for z, g in held)
    starts = captured_starts(monkeypatch)
    u, f = state.u, np.abs(state.u) ** cfg.q
    step(state, op, cfg)
    # the start's residual is orthogonal to every held image, to rounding on the scale of
    # |g| |f| (its cosine with g is only good to eps cond(g_1 ... g_k), 8e-9 at k = 5);
    # the quartic start's reads 3.6e-8 or more.  And it is no larger than the quartic's
    r0 = f - op.neg @ (starts[0] + u)
    norm = np.linalg.norm
    assert all(abs(g @ r0) <= 1e-12 * norm(g) * norm(f) for _, g in held)
    assert norm(r0) <= norm(f - op.neg @ (quartic_start(u, held) + u))


@pytest.mark.parametrize("k", range(simulate.EXTRAPOLATION_POINTS + 1))
def test_cg_start_extrapolates_polynomial_potentials(monkeypatch, k):
    # the k held images sample a vector polynomial p of degree k - 1 in the step index at
    # steps -1, ..., -k, and p(0) = |u|^q: the least-squares fit is exact, so CG must start
    # from -u plus the same polynomial extrapolation of the held potentials
    starts = captured_starts(monkeypatch)
    grid = build_grid(GRID19)
    op = assemble_sublaplacian(grid)
    assert op.dimension > DIRECT_MAX_UNKNOWNS
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=True, dt=5e-3, steps=1, grid=GRID19,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 1.0))
    u = cfg.initial.evaluate(grid)
    rng = np.random.default_rng(k)
    coeffs = np.vstack([np.abs(u) ** cfg.q, rng.normal(size=(k - 1, op.dimension))]) if k else []
    images = [P.polyval(-s, coeffs) for s in range(1, k + 1)]
    potentials = tuple(zip(rng.normal(size=(k, op.dimension)), images))
    state = step(SimState(u, 0.0, 0, potentials=potentials), op, cfg)
    expected = quartic_start(u, potentials)
    assert len(starts) == 1
    assert np.max(np.abs(starts[0] - expected)) <= 1e-12 * np.max(np.abs(expected))
    # the new pair is prepended and the oldest dropped beyond EXTRAPOLATION_POINTS
    assert len(state.potentials) == min(k + 1, simulate.EXTRAPOLATION_POINTS)
    assert all(a is b for a, b in zip(state.potentials[1:], potentials))


def test_lu_path_holds_no_potentials():
    grid = build_grid(GRID9)
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=True, dt=5e-3, steps=1, grid=GRID9,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 5.0))
    state = step(SimState(cfg.initial.evaluate(grid), 0.0, 0), assemble_sublaplacian(grid), cfg)
    assert state.potentials == ()


@pytest.mark.parametrize("equation", ["parabolic", "hyperbolic"])
def test_lu_path_receives_no_start(monkeypatch, equation):
    starts = captured_starts(monkeypatch)
    cfg = SimConfig(equation, q=1.5, nonlinearity=True, dt=5e-3, steps=8, grid=GRID9,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 5.0))
    run(cfg)
    assert len(starts) == 8 and all(x0 is None for x0 in starts)


@pytest.mark.parametrize("nodes", [13, 18, 19, 25])
def test_cg_operator_stored_by_diagonals(nodes):
    # 18^3 nodes have exactly 4096 interior unknowns, the last grid solved by LU
    op = assemble_sublaplacian(build_grid(GridConfig(3.0, 3.0, 9.0, nodes, nodes, nodes)))
    assert op.neg.format == ("dia" if op.dimension > DIRECT_MAX_UNKNOWNS else "csr")
    x = np.random.default_rng(nodes).normal(size=op.dimension)
    assert np.array_equal(op.neg @ x, op.matrix @ (-x))
    assert np.array_equal(op.jacobi, 1.0 / -op.matrix.diagonal())


@pytest.mark.parametrize("nodes", [(3, 7, 19), (9, 9, 9), (19, 19, 19)])
def test_coarse_aggregates_are_products_of_runs(nodes):
    # node i of an interior axis of length k lies in run i m // k, m = min(k, COARSE_RUNS)
    grid = build_grid(GridConfig(3.0, 3.0, 9.0, *nodes))
    restrict, inverse, aggregate = assemble_sublaplacian(grid).coarse
    counts = [min(k, simulate.COARSE_RUNS) for k in grid.interior_shape]
    assert inverse.shape == (np.prod(counts),) * 2 and restrict.shape == (np.prod(counts), grid.n_interior)
    for node, (i, j, k) in enumerate(np.ndindex(*grid.interior_shape)):
        runs = [c * m // n for c, m, n in zip((i, j, k), counts, grid.interior_shape)]
        assert aggregate[node] == np.ravel_multi_index(runs, counts)
    # W^T holds the indicator vectors of the aggregates as rows
    assert np.array_equal(restrict.toarray(), (aggregate == np.arange(len(inverse))[:, None]).astype(float))


@pytest.mark.parametrize("nodes", [19, 25])
def test_coarse_inverse_inverts_the_galerkin_matrix(nodes):
    op = assemble_sublaplacian(build_grid(GridConfig(3.0, 3.0, 9.0, nodes, nodes, nodes)))
    restrict, inverse, _ = op.coarse
    galerkin = (restrict @ op.neg @ restrict.T).toarray()
    assert inverse.shape == (125, 125)
    assert np.max(np.abs(inverse @ galerkin - np.eye(125))) <= 1e-12
    assert np.array_equal(inverse, inverse.T)


def test_two_level_preconditioner_is_symmetric_positive_definite(monkeypatch):
    # on 7^3 interior unknowns solved by CG, M^-1 built column by column from unit vectors
    monkeypatch.setattr(simulate, "DIRECT_MAX_UNKNOWNS", 100)
    op = assemble_sublaplacian(build_grid(GRID9))
    assert op.neg.format == "dia"
    n, scratch = op.dimension, np.empty(op.dimension)
    m = np.column_stack([op.precondition(e, np.empty(n), scratch) for e in np.eye(n)])
    assert np.max(np.abs(m - m.T)) <= 1e-14 * np.max(np.abs(m))
    assert np.linalg.eigvalsh(0.5 * (m + m.T))[0] > 0
    # and it is D^-1 + W A_c^-1 W^T, D the diagonal of -L_h
    restrict, inverse, _ = op.coarse
    assert np.allclose(m, np.diag(op.jacobi) + restrict.T @ (inverse @ restrict.toarray()),
                       rtol=0.0, atol=1e-15 * np.max(np.abs(m)))


def test_two_level_cg_iteration_count():
    # 30 parabolic steps on 17^3 unknowns took 907 iterations with the Jacobi diagonal alone
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=True, dt=5e-3, steps=30, grid=GRID19,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 20.0), solver_tol=1e-10)
    tr = run(cfg)
    assert tr.status == "completed"
    assert sum(r["iterations"] for r in tr.rows) <= 0.75 * 907


# a CG-path simulate run in a fresh interpreter, with numpy's LAPACK solvers disabled: LAPACK
# would start BLAS worker threads, and scipy.linalg or scipy.sparse.linalg cost import time
LAPACK_FREE_PROBE = """
import contextlib, io, json, sys
import numpy as np
def refuse(*args, **kwargs):
    raise AssertionError("LAPACK called on the CG path")
np.linalg.inv = np.linalg.solve = np.linalg.cholesky = refuse
import heislab.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = heislab.cli.main(["simulate", "--config", sys.argv[1], "--format", "json"])
print(json.dumps({"code": code, "report": json.loads(out.getvalue()),
                  "loaded": sorted(m for m in ("scipy.linalg", "scipy.sparse.linalg") if m in sys.modules)}))
"""


def test_cg_path_uses_no_lapack_and_no_scipy_linalg(tmp_path, child_env):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"equation": "parabolic", "q": 1.5, "nonlinearity": True, "dt": 5e-3, "steps": 2,
                                "grid": vars(GRID19), "initial": {"center": [0.1, 0.2, 0.3], "amplitude": 20.0}}))
    proc = subprocess.run([sys.executable, "-c", LAPACK_FREE_PROBE, str(path)],
                          env=child_env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["code"] == 0 and result["loaded"] == []
    rows = result["report"]["rows"]
    assert len(rows) == 3 and all(r["iterations"] > 0 for r in rows[1:])


def test_step_parabolic_linear_mode_exact():
    g = build_grid(GRID9)
    op = assemble_sublaplacian(g)
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=False, dt=0.01, steps=1,
                    grid=GRID9, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    u = cfg.initial.evaluate(g)
    state = step(SimState(u, 0.0, 0), op, cfg)
    assert state.last_iterations == 0  # w = -u exactly, no solve
    assert np.allclose(state.u, (1 - cfg.dt) * u, rtol=1e-13, atol=1e-16)


def test_step_parabolic_zero_fixed_point_and_rhs_form():
    g = build_grid(GRID9)
    op = assemble_sublaplacian(g)
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=True, dt=0.01, steps=1,
                    grid=GRID9, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    zero = np.zeros(op.dimension)
    state = step(SimState(zero, 0.0, 0), op, cfg)
    assert np.all(state.u == 0.0)
    u = np.abs(cfg.initial.evaluate(g))
    w = (step(SimState(u, 0.0, 0), op, cfg).u - u) / cfg.dt
    rhs = -(op.matrix @ u) - u**1.5
    assert np.max(np.abs(op.matrix @ w - rhs)) <= 1e-8 * np.max(np.abs(rhs))


def test_step_hyperbolic_linear_oscillator():
    g = build_grid(GRID9)
    op = assemble_sublaplacian(g)
    dt = 1e-3
    cfg = SimConfig("hyperbolic", q=1.5, nonlinearity=False, dt=dt, steps=10,
                    grid=GRID9, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    u0 = cfg.initial.evaluate(g)
    state = step(SimState(u0, 0.0, 0, velocity=np.zeros_like(u0)), op, cfg)
    assert (state.t, state.step) == (dt, 1) and state.u_prev is u0
    for _ in range(9):
        state = step(state, op, cfg)
    # linear mode follows u(t) = cos(t) u0 with O(dt^2) global error
    assert np.max(np.abs(state.u - np.cos(state.t) * u0)) < 1e-6 * np.max(np.abs(u0))


def test_leapfrog_time_reversal():
    g = build_grid(GRID9)
    op = assemble_sublaplacian(g)
    dt = 0.01
    cfg = SimConfig("hyperbolic", q=1.5, nonlinearity=False, dt=dt, steps=60,
                    grid=GRID9, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    u0 = cfg.initial.evaluate(g)
    state = step(SimState(u0, 0.0, 0, velocity=np.zeros_like(u0)), op, cfg)
    states = [u0, state.u]
    for _ in range(59):
        state = step(state, op, cfg)
        states.append(state.u)
    back = SimState(states[-2], 0.0, 0, u_prev=states[-1])
    for k in range(len(states) - 2):
        back = step(back, op, cfg)
        expected = states[-3 - k]
        assert np.max(np.abs(back.u - expected)) < 1e-9 * (1 + np.max(np.abs(expected)))


def test_run_parabolic_linear_decay():
    steps = 1000
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=False, dt=1e-3, steps=steps,
                    grid=GRID9, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    tr = run(cfg)
    assert tr.status == "completed"
    ratio = tr.rows[-1]["max_norm"] / tr.rows[0]["max_norm"]
    assert abs(ratio - np.exp(-1)) <= 1e-3
    times = [r["time"] for r in tr.rows]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_run_hyperbolic_amplitude_recovery():
    steps = 1571
    cfg = SimConfig("hyperbolic", q=1.5, nonlinearity=False, dt=float(np.pi / steps),
                    steps=steps, grid=GRID9, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    tr = run(cfg)
    assert tr.status == "completed"
    assert abs(tr.rows[-1]["max_norm"] / tr.rows[0]["max_norm"] - 1.0) <= 1e-2


def test_run_zero_data_stays_zero():
    # by LU, and by CG, whose start then holds only zero images
    for grid in (GRID9, GRID19):
        cfg = SimConfig("hyperbolic", q=1.5, nonlinearity=True, dt=0.01, steps=20,
                        grid=grid, initial=BumpSpec((0, 0, 0), 1.0, 0.0))
        tr = run(cfg)
        assert tr.status == "completed" and all(r["max_norm"] == 0.0 for r in tr.rows)


def test_run_blowup_threshold_is_a_result():
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=True, dt=5e-3, steps=2000,
                    grid=GridConfig(3.0, 3.0, 9.0, 13, 13, 13),
                    initial=BumpSpec((0, 0, 0), 1.0, 20.0),
                    blowup_threshold=1e4, solver_max_iter=5000)
    tr = run(cfg)
    assert tr.status == "blowup_threshold"
    assert tr.status_step is not None and tr.status_step < 2000
    assert tr.rows[-1]["max_norm"] >= 1e4 or not np.isfinite(tr.rows[-1]["max_norm"])
    # late-stage growth is monotone in the trace
    tail = [r["max_norm"] for r in tr.rows[-10:]]
    assert all(b >= a for a, b in zip(tail, tail[1:]))


@pytest.mark.parametrize("steps", [1, 3])
@pytest.mark.parametrize("equation", ["parabolic", "hyperbolic"])
def test_every_step_is_checked_against_the_threshold(equation, steps):
    # the bump starts above the threshold; the initial row is not checked, the first step's
    # row is, the Taylor start of the hyperbolic equation included
    cfg = SimConfig(equation, q=1.5, nonlinearity=True, dt=5e-3, steps=steps, grid=GRID9,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 5.0), blowup_threshold=4.0)
    tr = run(cfg)
    assert (tr.status, tr.status_step, len(tr.rows)) == ("blowup_threshold", 1, 2)
    assert tr.rows[0]["max_norm"] >= 4.0 and tr.rows[1]["max_norm"] >= 4.0


def test_lq_norm_bookkeeping():
    # a bump of width 1e150 is 1 at every node to rounding, so row 0 holds the norms of ones
    grid = GridConfig(2.0, 2.0, 2.0, 10, 10, 10)
    g = build_grid(grid)
    interior_volume = g.n_interior * g.cell_volume
    for q in (1.5, 2.0, 3.0):
        cfg = SimConfig("parabolic", q=q, nonlinearity=False, dt=0.01, steps=1, grid=grid,
                        initial=BumpSpec((0.0, 0.0, 0.0), 1e150, 1.0))
        first = run(cfg).rows[0]
        assert (first["step"], first["time"], first["max_norm"], first["iterations"]) == (0, 0.0, 1.0, 0)
        assert first["lq_norm"] == pytest.approx(interior_volume ** (1 / q))


def test_config_validation_and_json_mirror():
    with pytest.raises(ParameterError):
        SimConfig("elliptic", q=2.0, nonlinearity=False, dt=0.1, steps=1,
                  grid=GRID9, initial=BumpSpec())
    with pytest.raises(ParameterError):
        SimConfig("parabolic", q=2.0, nonlinearity=False, dt=0.1, steps=1,
                  grid=GRID9, initial=BumpSpec(), n=2)
    data = {
        "equation": "hyperbolic", "q": 1.5, "nonlinearity": True,
        "dt": 0.01, "steps": 5,
        "grid": {"l_x": 1.0, "l_y": 1.0, "l_tau": 2.0, "n_x": 5, "n_y": 5, "n_tau": 5},
        "initial": {"center": [0, 0, 0], "width": 0.5, "amplitude": 1.0},
        "initial_velocity": {"center": [0, 0, 0], "width": 0.5, "amplitude": -0.5},
    }
    cfg = SimConfig.from_dict(data)
    assert cfg.initial_velocity.amplitude == -0.5
    assert cfg.grid.n_tau == 5
    tr = run(cfg)
    assert tr.status == "completed"
    assert len(tr.rows) == 6


@pytest.mark.parametrize("equation, overflow_step", [("parabolic", 82), ("hyperbolic", 410)])
def test_overflow_beyond_float_range_is_blowup(equation, overflow_step):
    # the Lq norm of the next step overflows long before max|u| reaches the
    # threshold; the run has left the representable range, which is blow-up
    cfg = SimConfig(equation, q=1.5, nonlinearity=True, dt=5e-3, steps=2000, grid=GRID9,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 300.0), blowup_threshold=1.7e308)
    tr = run(cfg)
    assert tr.status == "blowup_threshold"
    assert tr.status_step == overflow_step and len(tr.rows) == overflow_step
    assert 1e100 < tr.rows[-1]["max_norm"] < cfg.blowup_threshold
    assert np.isfinite(tr.rows[-1]["lq_norm"])


def test_cg_and_lu_leave_float_range_at_the_same_step(fresh_operators, monkeypatch):
    # CG works on rhs / max|rhs|, so its dot products do not overflow before the values do
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=True, dt=5e-3, steps=2000, grid=GRID19,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 300.0), blowup_threshold=1.7e308)
    tr = run(cfg)
    solve_directly(monkeypatch)
    direct = run(cfg)
    assert tr.status == direct.status == "blowup_threshold"
    assert tr.status_step == direct.status_step == 88
    assert 1e170 < tr.rows[-1]["max_norm"] < cfg.blowup_threshold


@pytest.mark.parametrize("equation", ["parabolic", "hyperbolic"])
def test_initial_norms_beyond_float_range_raise_overflow(equation):
    # |u|^q of the initial bump overflows; there is no first row to record
    cfg = SimConfig(equation, q=1.5, nonlinearity=True, dt=5e-3, steps=5,
                    grid=GridConfig(3.0, 3.0, 9.0, 7, 7, 7),
                    initial=BumpSpec((0.0, 0.0, 0.0), 1.0, 1e300))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="initial state"):
            run(cfg)


def test_cg_breakdown_in_a_run_is_a_solver_failure(monkeypatch):
    # a breakdown ends the run like an exhausted budget, with a report and status solver_failure;
    # here Gauss-Jordan finds the coarse operator of -L_h - 5 I not positive definite
    grid = build_grid(GRID19)
    op = assemble_sublaplacian(grid)
    shifted = simulate.SparseOperator((op.neg - 5.0 * sp.identity(op.dimension)).tocsr(),
                                      grid.interior_shape)
    monkeypatch.setattr(simulate, "_grid_operator", lambda config: (grid, shifted))
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=True, dt=5e-3, steps=5, grid=GRID19,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 3.0))
    tr = run(cfg)
    assert tr.status == "solver_failure" and tr.status_step == 1 and len(tr.rows) == 1


def test_max_iter_on_finite_data_stays_solver_failure():
    cfg = SimConfig("hyperbolic", q=1.5, nonlinearity=True, dt=5e-3, steps=5, grid=GRID19,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 300.0),
                    solver_tol=1e-14, solver_max_iter=1)
    tr = run(cfg)
    assert tr.status == "solver_failure" and tr.status_step == 1
    assert all(np.isfinite(r["max_norm"]) for r in tr.rows)


@pytest.mark.parametrize("nodes", [9, 13])
def test_direct_solve_matches_cg(nodes):
    g = build_grid(GridConfig(3.0, 3.0, 9.0, nodes, nodes, nodes))
    op = assemble_sublaplacian(g)
    u = BumpSpec((0.1, 0.2, 0.3), 1.0, 20.0).evaluate(g)
    b = np.abs(u) ** 1.5 - op.neg @ u
    x, iters = solve_linear(op, b, x0=-u)
    ref, info = cg(op.neg, b, rtol=1e-12, atol=0.0)
    assert iters == 0 and info == 0
    assert np.max(np.abs(x - ref)) <= 1e-8 * np.max(np.abs(ref))


def test_direct_solve_beyond_float_range_raises_overflow():
    # SuperLU returns inf or nan silently; the solver must not pass them on
    op = assemble_sublaplacian(build_grid(GRID9))
    with pytest.raises(OverflowError):
        solve_linear(op, np.full(op.dimension, -1e308))


def counting(monkeypatch, *targets):
    """Count the calls of each (module, function name) target from here on."""
    calls = {name: 0 for _, name in targets}
    for module, name in targets:
        def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("equation", ["parabolic", "hyperbolic"])
def test_operator_factored_once_per_run(fresh_operators, monkeypatch, equation):
    # once per grid, in fact: runs of both equations on one grid share one operator
    # simulate imports splu when it first factors, so the count is taken at scipy's name
    calls = counting(monkeypatch, (sp.linalg, "splu"), (simulate, "assemble_sublaplacian"))
    other = "hyperbolic" if equation == "parabolic" else "parabolic"
    for eq in (equation, other):
        cfg = SimConfig(eq, q=1.5, nonlinearity=True, dt=5e-3, steps=20, grid=GRID9,
                        initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 5.0))
        tr = run(cfg)
        assert tr.status == "completed" and len(tr.rows) == 21
    assert calls == {"splu": 1, "assemble_sublaplacian": 1}
    run(SimConfig(equation, q=1.5, nonlinearity=False, dt=5e-3, steps=2,
                  grid=GridConfig(3.0, 3.0, 9.0, 11, 11, 11), initial=BumpSpec()))
    assert calls == {"splu": 1, "assemble_sublaplacian": 2}


@pytest.mark.parametrize("equation", ["parabolic", "hyperbolic"])
def test_rerun_after_another_grid_reproduces_trace(fresh_operators, equation):
    def trace(nodes):
        cfg = SimConfig(equation, q=1.5, nonlinearity=True, dt=5e-3, steps=40,
                        grid=GridConfig(3.0, 3.0, 9.0, nodes, nodes, nodes),
                        initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 20.0))
        return run(cfg)

    first, middle, again = trace(9), trace(13), trace(9)
    simulate._grid_operator.cache_clear()
    cold = trace(13)
    assert (first.status, first.status_step) == (again.status, again.status_step)
    assert first.rows == again.rows and len(first.rows) > 1
    assert middle.rows == cold.rows != first.rows


@pytest.mark.parametrize("equation", ["parabolic", "hyperbolic"])
def test_linear_mode_makes_no_solve(monkeypatch, equation):
    def no_solve(*args, **kwargs):
        raise AssertionError("linear mode solved a system")

    monkeypatch.setattr(simulate, "solve_linear", no_solve)
    cfg = SimConfig(equation, q=1.5, nonlinearity=False, dt=5e-3, steps=20, grid=GRID9,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 5.0))
    tr = run(cfg)
    assert tr.status == "completed" and len(tr.rows) == 21
    assert all(r["iterations"] == 0 for r in tr.rows)


@pytest.mark.parametrize("equation", ["parabolic", "hyperbolic"])
def test_benchmark_reference_generator_reproduces_its_numbers(monkeypatch, equation):
    # perfbench/make_sim_reference.py steps with its own loop and an LU solve of op.matrix;
    # on the 13^3 sweep grid at the blow-up amplitude it must still give sim_reference.json
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import make_sim_reference
    import workloads

    cfg, checkpoints = next((c, k) for c, k in workloads.reference_menu()
                            if c["equation"] == equation and c["grid"]["n_x"] == workloads.SWEEP_N
                            and c["initial"]["amplitude"] == workloads.HIGH_AMPLITUDE)
    stored = json.loads(workloads.SIM_REFERENCE.read_text())[workloads.config_key(cfg)]
    grid, matrix, lu, kappa = make_sim_reference.operator(cfg["grid"])
    rows, blowup = make_sim_reference.trajectory(cfg, grid, matrix, lu)
    assert kappa == pytest.approx(stored["kappa"], rel=1e-12, abs=0.0)
    for steps in checkpoints:
        want = stored["checkpoints"][str(steps)]
        blew = blowup is not None and blowup <= steps
        assert (want["status"], want["status_step"]) == (("blowup_threshold", blowup) if blew
                                                         else ("completed", -1))
        peak, lq = rows[(blowup if blew else steps) - 1]
        assert peak == pytest.approx(want["max_norm"], rel=1e-12, abs=0.0)
        assert lq == pytest.approx(want["lq_norm"], rel=1e-12, abs=0.0)
