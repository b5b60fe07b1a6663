"""Manufactured-solution checks for the forward discretization."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import sympy

from convecopt.grid import Grid, GridConfig, Vec2
from convecopt.boussinesq import (PhysicalParams, TimeGrid, SourceData, data_norm,
                                  solve_state)
from convecopt.mms import (build_case, initial_data, run_level,
                           convergence_study, _eval, _time_basis, _face_parts,
                           _Levels)


def test_manufactured_velocity_satisfies_continuity():
    # the stream-function construction gives exactly div-free initial data
    grid = Grid(GridConfig(16, 16))
    case = build_case(0.05, 0.05)
    u0, _ = initial_data(grid, case)
    assert grid.norm_lp(grid.divergence(u0), np.inf) <= 1e-12


def test_manufactured_fields_vanish_on_walls():
    case = build_case(0.05, 0.05)
    for y in (0.0, 0.37, 1.0):
        assert abs(case.u_fn(0.0, y, 0.3)) <= 1e-14
        assert abs(case.u_fn(1.0, y, 0.3)) <= 1e-14
    for x in (0.0, 0.64, 1.0):
        assert abs(case.v_fn(x, 0.0, 0.3)) <= 1e-14
        assert abs(case.v_fn(x, 1.0, 0.3)) <= 1e-14


def test_single_level_error_is_small():
    pp = PhysicalParams(0.05, 0.05)
    case = build_case(0.05, 0.05)
    err, nt = run_level(16, pp, case, T=0.1)
    assert err < 0.01
    assert nt >= 4


def test_convergence_study_second_order():
    errs, orders, _ = convergence_study((8, 16, 32))
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    assert min(orders) >= 1.8


def test_orders_account_for_the_refinement_ratio():
    # (8, 32) quadruples h^-1 in one step: its order is the mean of the two
    # doubling steps', not twice it
    _, doubling, _ = convergence_study((8, 16, 32))
    _, (order,), _ = convergence_study((8, 32))
    assert abs(order - np.mean(doubling)) <= 0.1


def _peak_levels(fn, *args, **kw):
    """tracemalloc peak of fn(*args, **kw) above the memory held before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn(*args, **kw)
        return tracemalloc.get_traced_memory()[1] - base, out
    finally:
        tracemalloc.stop()


def test_run_level_memory_does_not_grow_with_nt():
    # each level is reduced to its squared error as the march hands it over,
    # so quadrupling the steps leaves the peak where it was, a few dozen
    # levels (grid operators and the sampled parts) whatever nt is
    n = 32
    case = build_case(0.05, 0.02)
    pp = PhysicalParams(0.05, 0.02)
    run_level(8, pp, case)      # first-call imports and caches stay outside the peak
    level = ((n + 1) * n + n * (n + 1) + n * n) * 8
    peak, (_, nt) = _peak_levels(run_level, n, pp, case, T=0.1)
    peak4, (_, nt4) = _peak_levels(run_level, n, pp, case, T=0.4)
    assert nt4 >= 4 * nt - 4
    assert max(peak, peak4) <= 32 * level, (peak / level, peak4 / level)
    assert peak4 <= peak + level, (peak / level, peak4 / level)


def test_run_level_error_equals_the_stored_trajectory_error():
    # oracle: march into the default StateTrajectory, then sum the squared
    # errors over the stored levels in the same order (u, v, theta; k = 1..nt)
    n, T = 12, 0.05
    pp = PhysicalParams(0.05, 0.02)
    case = build_case(0.05, 0.02)
    got, nt = run_level(n, pp, case, T=T)
    grid = Grid(GridConfig(n, n))
    tg = TimeGrid(T, nt)
    basis = _time_basis(tg.times())
    f = _face_parts(grid, case.fx_fn, case.fy_fn)
    sources = _Levels(basis, f.u, f.v, case.g_fn.sample(grid.xc, grid.yc))
    traj = solve_state(grid, pp, tg, sources, *initial_data(grid, case))
    ue = _face_parts(grid, case.u_fn, case.v_fn)
    exact = _Levels(basis, ue.u, ue.v, case.th_fn.sample(grid.xc, grid.yc))
    err2 = 0.0
    for k in range(1, nt + 1):
        for have, want in zip((traj.u.u[k], traj.u.v[k], traj.theta[k]), exact.fields(k)):
            d = (have - want).ravel()
            err2 += float(d @ d)
    assert got == float(np.sqrt(tg.dt * grid.vol * err2))


def _stacked(basis, parts):
    """All levels of a field in one matrix product, the oracle for _Levels."""
    return (basis @ parts.reshape(3, -1)).reshape(basis.shape[:-1] + parts.shape[1:])


def test_step_sources_match_the_stacked_sources():
    grid = Grid(GridConfig(12, 9))
    case = build_case(0.05, 0.02)
    tg = TimeGrid(0.1, 17)
    nt = tg.nt
    basis = _time_basis(tg.times())
    f = _face_parts(grid, case.fx_fn, case.fy_fn)
    g = case.g_fn.sample(grid.xc, grid.yc)
    stacked = SourceData(Vec2(_stacked(basis[:nt], f.u), _stacked(basis[:nt], f.v)),
                         _stacked(basis[:nt], g))
    per_step = _Levels(basis, f.u, f.v, g)
    top = max(np.max(np.abs(p)) for p in (f.u, f.v, g))
    for k in range(nt):
        (fs, hs), (fp, hp) = stacked.at(k), per_step.at(k)
        for want, got in ((fs.u, fp.u), (fs.v, fp.v), (hs, hp)):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-15 * top, k
    u0, th0 = initial_data(grid, case)
    want = data_norm(grid, tg, stacked, u0, th0)
    assert abs(data_norm(grid, tg, per_step, u0, th0) - want) <= 1e-13 * want


def test_build_case_does_not_load_numpy_extras():
    # no sympy at run time, and none of the numpy extras that
    # `from numpy import *` would load (numpy.f2py, numpy.testing, ...)
    import convecopt
    src = os.path.dirname(os.path.dirname(convecopt.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from convecopt.mms import build_case, run_level; "
            "from convecopt.boussinesq import PhysicalParams; "
            "run_level(8, PhysicalParams(0.05, 0.02), build_case(0.05, 0.02)); "
            "print(sorted({'numpy.f2py', 'sympy'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _symbolic_case(nu, kappa):
    """The fields and sources derived from the strong form with sympy."""
    x, y, t = sympy.symbols("x y t")
    psi = sympy.sin(sympy.pi * x) ** 2 * sympy.sin(sympy.pi * y) ** 2 * sympy.cos(t) / sympy.pi
    u = sympy.diff(psi, y)
    v = -sympy.diff(psi, x)
    th = sympy.sin(sympy.pi * x) * sympy.sin(sympy.pi * y) * sympy.cos(t)

    def transport(f, coef):
        lap = sympy.diff(f, x, 2) + sympy.diff(f, y, 2)
        return sympy.diff(f, t) - coef * lap + u * sympy.diff(f, x) + v * sympy.diff(f, y)

    exprs = {"u_fn": u, "v_fn": v, "th_fn": th, "psi_fn": psi,
             "fx_fn": transport(u, nu), "fy_fn": transport(v, nu) - th,
             "g_fn": transport(th, kappa)}
    return {name: sympy.lambdify((x, y, t), e, [np], cse=True)
            for name, e in exprs.items()}


@pytest.mark.parametrize("nu,kappa", [(0.05, 0.02), (1.3, 0.004)])
def test_closed_form_matches_the_symbolic_derivation(nu, kappa):
    case = build_case(nu, kappa)
    oracle = _symbolic_case(nu, kappa)
    rng = np.random.default_rng(11)
    x, y = rng.uniform(-0.5, 1.5, (2, 200))
    t = rng.uniform(0.0, 7.0, 200)
    grid = Grid(GridConfig(12, 9))
    for name, ref_fn in oracle.items():
        fn = getattr(case, name)
        samples = [(fn(x, y, t), ref_fn(x, y, t))]
        for xs, ys in ((grid.xf, grid.yc), (grid.xc, grid.yf), (grid.xc, grid.yc)):
            for tk in (0.0, 0.05, 0.1, 1.9):
                samples.append((_eval(fn, xs, ys, tk), _eval(ref_fn, xs, ys, tk)))
        for got, ref in samples:
            ref = np.broadcast_to(ref, np.shape(got))
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name


def test_sources_satisfy_the_strong_form_equations():
    # centred differences of the exact fields, no symbolic algebra involved
    nu, kappa, h = 0.05, 0.02, 1e-4
    case = build_case(nu, kappa)
    rng = np.random.default_rng(3)
    x, y = rng.uniform(0.05, 0.95, (2, 20))
    t = rng.uniform(0.0, 0.1, 20)

    def d(fn, ax, k=1):
        e = [h if i == ax else 0.0 for i in range(3)]
        p = fn(x + e[0], y + e[1], t + e[2])
        m = fn(x - e[0], y - e[1], t - e[2])
        if k == 1:
            return (p - m) / (2 * h)
        return (p - 2 * fn(x, y, t) + m) / h ** 2

    u, v = case.u_fn(x, y, t), case.v_fn(x, y, t)

    def residual(fn, coef):
        return (d(fn, 2) - coef * (d(fn, 0, 2) + d(fn, 1, 2))
                + u * d(fn, 0) + v * d(fn, 1))

    checks = [(residual(case.u_fn, nu), case.fx_fn(x, y, t)),
              (residual(case.v_fn, nu) - case.th_fn(x, y, t), case.fy_fn(x, y, t)),
              (residual(case.th_fn, kappa), case.g_fn(x, y, t))]
    for fd, exact in checks:
        assert np.linalg.norm(fd - exact) <= 1e-6 * np.linalg.norm(exact)


def _meshgrid_eval(fn, xs, ys, t):
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    return np.broadcast_to(np.asarray(fn(X, Y, t), dtype=float), X.shape)


@pytest.mark.parametrize("expr", ["fx", "sin(pi*y)*cos(t)",
                                  "cos(pi*x) + t", "2*t + 1"])
def test_broadcast_eval_matches_meshgrid_bitwise(expr):
    x, y, t = sympy.symbols("x y t")
    if expr == "fx":
        fn = build_case(0.05, 0.02).fx_fn
    else:
        fn = sympy.lambdify((x, y, t), sympy.sympify(expr), "numpy", cse=True)
    xs, ys = np.linspace(0.0, 1.0, 5), (np.arange(7) + 0.5) / 7
    out = _eval(fn, xs, ys, 0.3)
    assert out.shape == (5, 7)
    assert out.dtype == np.float64
    assert np.array_equal(out, _meshgrid_eval(fn, xs, ys, 0.3))
