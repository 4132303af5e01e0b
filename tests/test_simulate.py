import numpy as np
import pytest
import scipy.sparse as sp

from heislab.errors import ParameterError, SolverFailure
from heislab.simulate import (
    BumpSpec,
    GridConfig,
    GridField,
    SimConfig,
    SimState,
    assemble_sublaplacian,
    build_grid,
    run,
    solve_linear,
    step_hyperbolic,
    step_parabolic,
    taylor_start,
)

GRID9 = GridConfig(3.0, 3.0, 9.0, 9, 9, 9)


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


def test_regularization_flag():
    g = build_grid(GRID9)
    plain = assemble_sublaplacian(g)
    reg = assemble_sublaplacian(g, regularization_eps=0.1)
    assert abs(reg.matrix - plain.matrix).max() > 0
    diff = reg.matrix - reg.matrix.T
    assert diff.nnz == 0 or abs(diff).max() == 0.0


def test_regularization_adds_eps_tau_second_difference():
    # anisotropic grid, so a mix-up of axes or spacings shows
    g = build_grid(GridConfig(3.0, 2.0, 9.0, 5, 7, 11))
    eps = 0.1
    nx, ny, nt = g.interior_shape
    second = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(nt, nt)) / g.h[2] ** 2
    expected = -eps * sp.kron(sp.identity(nx * ny), second)
    diff = (assemble_sublaplacian(g, eps).matrix - assemble_sublaplacian(g).matrix).toarray()
    assert np.max(np.abs(diff - expected.toarray())) <= 1e-12 * np.max(np.abs(expected))


def test_solve_linear():
    g = build_grid(GridConfig(3.0, 3.0, 9.0, 17, 17, 17))
    op = assemble_sublaplacian(g)
    x, iters = solve_linear(op, np.zeros(op.dimension))
    assert np.all(x == 0.0) and iters == 0
    rng = np.random.default_rng(1)
    w = rng.normal(size=op.dimension)
    rhs = op.matrix @ w
    x, iters = solve_linear(op, rhs, tol=1e-10, max_iter=10 * op.dimension)
    assert np.max(np.abs(x - w)) < 1e-8
    assert iters <= 10 * op.dimension
    with pytest.raises(SolverFailure):
        solve_linear(op, rhs, tol=1e-14, max_iter=1)


def test_step_parabolic_linear_mode_exact():
    g = build_grid(GRID9)
    op = assemble_sublaplacian(g)
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=False, dt=0.01, steps=1,
                    grid=GRID9, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    u = cfg.initial.evaluate(g)
    state = step_parabolic(SimState(u, 0.0, 0), op, cfg)
    assert state.last_iterations == 0  # warm start solves it exactly
    assert np.allclose(state.u, (1 - cfg.dt) * u, rtol=1e-13, atol=1e-16)


def test_step_parabolic_zero_fixed_point_and_rhs_form():
    g = build_grid(GRID9)
    op = assemble_sublaplacian(g)
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=True, dt=0.01, steps=1,
                    grid=GRID9, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    zero = np.zeros(op.dimension)
    state = step_parabolic(SimState(zero, 0.0, 0), op, cfg)
    assert np.all(state.u == 0.0)
    u = np.abs(cfg.initial.evaluate(g))
    w = (step_parabolic(SimState(u, 0.0, 0), op, cfg).u - u) / cfg.dt
    rhs = -(op.matrix @ u) - u**1.5
    assert np.max(np.abs(op.matrix @ w - rhs)) <= 1e-8 * np.max(np.abs(rhs))


def test_step_hyperbolic_linear_oscillator():
    g = build_grid(GRID9)
    op = assemble_sublaplacian(g)
    dt = 1e-3
    cfg = SimConfig("hyperbolic", q=1.5, nonlinearity=False, dt=dt, steps=10,
                    grid=GRID9, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    u0 = cfg.initial.evaluate(g)
    u1, _ = taylor_start(u0, np.zeros_like(u0), op, cfg)
    state = SimState(u1, dt, 1, u_prev=u0)
    for _ in range(9):
        state = step_hyperbolic(state, op, cfg)
    # linear mode follows u(t) = cos(t) u0 with O(dt^2) global error
    assert np.max(np.abs(state.u - np.cos(state.t) * u0)) < 1e-6 * np.max(np.abs(u0))


def test_leapfrog_time_reversal():
    g = build_grid(GRID9)
    op = assemble_sublaplacian(g)
    dt = 0.01
    cfg = SimConfig("hyperbolic", q=1.5, nonlinearity=False, dt=dt, steps=60,
                    grid=GRID9, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    u0 = cfg.initial.evaluate(g)
    u1, _ = taylor_start(u0, np.zeros_like(u0), op, cfg)
    states = [u0, u1]
    state = SimState(u1, dt, 1, u_prev=u0)
    for _ in range(59):
        state = step_hyperbolic(state, op, cfg)
        states.append(state.u)
    back = SimState(states[-2], 0.0, 0, u_prev=states[-1])
    for k in range(len(states) - 2):
        back = step_hyperbolic(back, op, cfg)
        expected = states[-3 - k]
        assert np.max(np.abs(back.u - expected)) < 1e-9 * (1 + np.max(np.abs(expected)))


def test_run_parabolic_linear_decay():
    steps = 1000
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=False, dt=1e-3, steps=steps,
                    grid=GRID9, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    tr = run(cfg)
    assert tr.status == "completed"
    ratio = tr.rows[-1].max_norm / tr.rows[0].max_norm
    assert abs(ratio - np.exp(-1)) <= 1e-3
    times = [r.time for r in tr.rows]
    assert all(b > a for a, b in zip(times, times[1:]))


def test_run_hyperbolic_amplitude_recovery():
    steps = 1571
    cfg = SimConfig("hyperbolic", q=1.5, nonlinearity=False, dt=float(np.pi / steps),
                    steps=steps, grid=GRID9, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    tr = run(cfg)
    assert tr.status == "completed"
    assert abs(tr.rows[-1].max_norm / tr.rows[0].max_norm - 1.0) <= 1e-2


def test_run_zero_data_stays_zero():
    cfg = SimConfig("hyperbolic", q=1.5, nonlinearity=True, dt=0.01, steps=20,
                    grid=GRID9, initial=BumpSpec((0, 0, 0), 1.0, 0.0))
    tr = run(cfg)
    assert all(r.max_norm == 0.0 for r in tr.rows)


def test_run_blowup_threshold_is_a_result():
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=True, dt=5e-3, steps=2000,
                    grid=GridConfig(3.0, 3.0, 9.0, 13, 13, 13),
                    initial=BumpSpec((0, 0, 0), 1.0, 20.0),
                    blowup_threshold=1e4, solver_max_iter=5000)
    tr = run(cfg)
    assert tr.status == "blowup_threshold"
    assert tr.status_step is not None and tr.status_step < 2000
    assert tr.rows[-1].max_norm >= 1e4 or not np.isfinite(tr.rows[-1].max_norm)
    # late-stage growth is monotone in the trace
    tail = [r.max_norm for r in tr.rows[-10:]]
    assert all(b >= a for a, b in zip(tail, tail[1:]))


def test_lq_norm_bookkeeping():
    g = build_grid(GridConfig(2.0, 2.0, 2.0, 10, 10, 10))
    ones = GridField(np.ones(g.n_interior), g)
    interior_volume = g.n_interior * g.cell_volume
    for q in (1.5, 2.0, 3.0):
        assert ones.lq_norm(q) == pytest.approx(interior_volume ** (1 / q))


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


@pytest.mark.parametrize("equation, overflow_step", [("parabolic", 81), ("hyperbolic", 409)])
def test_overflow_beyond_float_range_is_blowup(equation, overflow_step):
    # |u|^q outgrows the range of CG's squared norms long before max|u| reaches
    # the threshold; the run has left the representable range, which is blow-up
    cfg = SimConfig(equation, q=1.5, nonlinearity=True, dt=5e-3, steps=2000, grid=GRID9,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 300.0), blowup_threshold=1.7e308)
    tr = run(cfg)
    assert tr.status == "blowup_threshold"
    assert tr.status_step == overflow_step and len(tr.rows) == overflow_step
    assert 1e100 < tr.rows[-1].max_norm < cfg.blowup_threshold


def test_max_iter_on_finite_data_stays_solver_failure():
    cfg = SimConfig("hyperbolic", q=1.5, nonlinearity=True, dt=5e-3, steps=5, grid=GRID9,
                    initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 300.0),
                    solver_tol=1e-14, solver_max_iter=1)
    tr = run(cfg)
    assert tr.status == "solver_failure" and tr.status_step == 1
    assert all(np.isfinite(r.max_norm) for r in tr.rows)
