"""Shared helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from convecopt.grid import Grid, GridConfig, Vec2
from convecopt.boussinesq import PhysicalParams, TimeGrid, SourceData, EnergySeries
from convecopt.objective import (ObjectiveWeights, Targets, ControlSpace,
                                 Problem, _minus)


def rand_scalar(grid, rng, scale=1.0):
    return scale * rng.standard_normal((grid.nx, grid.ny))


def rand_vec2(grid, rng, scale=1.0):
    w = Vec2(scale * rng.standard_normal((grid.nx + 1, grid.ny)),
             scale * rng.standard_normal((grid.nx, grid.ny + 1)))
    return w.zero_normal_boundary()


def rand_div_free(grid, rng, scale=1.0):
    return grid.leray_project(rand_vec2(grid, rng, scale))


# every grid size from 4 to 40 cells a side and cell aspect ratio from 0.1
# to 10, for the exact-transpose properties
GRIDS = st.builds(
    lambda nx, ny, lx, aspect: Grid(GridConfig(nx, ny, lx=lx, ly=lx * aspect)),
    st.integers(4, 40), st.integers(4, 40),
    st.floats(0.1, 10.0), st.floats(0.1, 10.0))
PROPS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# arbitrary JSON, with numbers that a float cannot hold
NUMBERS = (st.floats() | st.integers()
           | st.sampled_from([10 ** 400, -(10 ** 400), 2 ** 1024]))
JSON = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=4)),
    max_leaves=8)


def leaf_paths(d, prefix=()):
    """Key paths of the non-object values of a nested dict."""
    for key, val in d.items():
        if isinstance(val, dict):
            yield from leaf_paths(val, prefix + (key,))
        else:
            yield prefix + (key,)


def region_space(grid, region):
    """A one-step ControlSpace whose force and heat both act on region."""
    return ControlSpace(grid, TimeGrid(1.0, 1), region, region)


def control_fields(space, q, th):
    """The whole force and heat fields of the densities q (..., 2, n_q) and
    th (..., n_h): ControlMap.inject's windows written into zero fields.
    restrict_adjoint is its transpose."""
    m = space.map
    f, h = space.grid.vec2(*th.shape[:-1]), space.grid.scalar(*th.shape[:-1])
    f_box, h_box = m.inject(q, th)
    f.u[m.su], f.v[m.sv], h[m.sh] = f_box.u, f_box.v, h_box
    return f, h


def restrict_adjoint(space, w, psi):
    """Transpose of the control-to-source mapping, from whole fields: the
    oracle of the restriction Problem.restricted_adjoint caches.

    On one level (w a Vec2, psi (nx, ny)) returns q of shape (2, n_q) and
    th of shape (n_h,); on a stack of nt levels, (nt, 2, n_q) and (nt, n_h).
    """
    return space.map.restrict(*space.map.take(w, psi))


def energy_report(grid, tg, traj, sources, u0, theta0):
    """EnergySeries.report of a stored trajectory, fed one level at a time:
    the stored-trajectory oracle of the reductions made while marching."""
    acc = EnergySeries(grid, tg)
    for k in range(tg.nt + 1):
        acc.put(k, traj.u[k], traj.theta[k], None)
    return acc.report(sources, u0, theta0)


def duality_residual_stored(grid, pp, tg, base, tanF=None, tanG=None,
                            v0=None, theta0=None, adjF=None, adjG=None,
                            wT=None, psiT=None):
    """sensitivity.duality_residual over stored tangent and adjoint
    trajectories, each pairing summed in ascending k: the stored-trajectory
    oracle of the pairings made while marching."""
    from convecopt.sensitivity import (solve_linearized, solve_adjoint,
                                       tangent_explicit_t)
    dt, nt = tg.dt, tg.nt
    tan, adj_src = SourceData(tanF, tanG), SourceData(adjF, adjG)
    lin = solve_linearized(grid, pp, tg, base, tan, v0, theta0)
    adj = solve_adjoint(grid, pp, tg, base, adj_src, wT, psiT)

    def pairing(sources, traj, ks):
        s = 0.0
        for k in ks:
            f, h = sources.at(k)
            if f is not None:
                s += dt * grid.inner(f, traj.u[k])
            if h is not None:
                s += dt * grid.inner(h, traj.theta[k])
        return s

    lhs = pairing(adj_src, lin, range(1, nt + 1))
    lhs += grid.inner(lin.u[nt], adj.u[nt])
    lhs += grid.inner(lin.theta[nt], adj.theta[nt])
    rhs = pairing(tan, adj, range(nt))
    cu, ct = tangent_explicit_t(grid, pp, base.u[0], base.theta[0],
                                adj.u[0], adj.theta[0], dt)
    if v0 is not None:
        rhs += grid.inner(cu, v0)
    if theta0 is not None:
        rhs += grid.inner(ct, theta0)
    return abs(lhs - rhs) / (1.0 + abs(lhs))


# The whole-stack forms of the lab's reductions, as they were before each
# was reduced one level at a time: the oracles of the streamed ones, which
# sum in another order and so agree to roundoff.

def second_rhs_stacked(grid, lin1, lin2, nt):
    """sensitivity.second_rhs's pairs stacked over the steps k = 0..nt-1."""
    rhsF, rhsG = grid.vec2(nt), grid.scalar(nt)
    for k in range(nt):
        rhsF[k] = -(grid.advect_vector(lin1.u[k], lin2.u[k])
                    + grid.advect_vector(lin2.u[k], lin1.u[k]))
        rhsG[k] = -(grid.advect_scalar(lin1.u[k], lin2.theta[k])
                    + grid.advect_scalar(lin2.u[k], lin1.theta[k]))
    return rhsF, rhsG


def state_distance_l2_stacked(prob, ta, tb):
    g, dt = prob.grid, prob.tg.dt
    su = dt * g.norm2(ta.u[1:] - tb.u[1:]) ** 2
    st = dt * g.norm2(ta.theta[1:] - tb.theta[1:]) ** 2
    return float(np.sqrt(su) + np.sqrt(st))


def tracking_misfit_stacked(prob, traj, s):
    """tracking_margin's misfit from the whole misfit stacks."""
    g, dt = prob.grid, prob.tg.dt
    t = prob.targets
    du, dth = _minus(traj.u, t.u_d), _minus(traj.theta, t.theta_d)
    return (dt * g.norm_lp(du[1:], s) ** s) ** (1.0 / s) \
        + (dt * g.norm_lp(dth[1:], s) ** s) ** (1.0 / s)


def second_pairing_stacked(prob, adj, lin1, lin2):
    """second_bilinear's adjoint term: the stacked pairs against adj."""
    g, dt, nt = prob.grid, prob.tg.dt, prob.tg.nt
    rhsF, rhsG = second_rhs_stacked(g, lin1, lin2, nt)
    return dt * (g.inner(adj.u[:nt], rhsF) + g.inner(adj.theta[:nt], rhsG))


def traced_peak(fn, grid, nt):
    """tracemalloc peak of fn() above what was allocated when it started,
    in trajectories of nt + 1 velocity and temperature levels on grid."""
    import tracemalloc
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    n, m = grid.nx, grid.ny
    return peak / ((nt + 1) * ((n + 1) * m + n * (m + 1) + n * m) * 8)


@pytest.fixture
def sweeps(monkeypatch):
    """Counts the forward and adjoint sweeps the objective starts."""
    from convecopt import objective, sensitivity
    n = {"state": 0, "adjoint": 0}

    def counting(fn, kind):
        def wrapped(*args, **kwargs):
            n[kind] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(objective, "solve_state",
                        counting(objective.solve_state, "state"))
    monkeypatch.setattr(sensitivity, "solve_adjoint",
                        counting(sensitivity.solve_adjoint, "adjoint"))
    return n


@pytest.fixture
def grid8():
    return Grid(GridConfig(8, 8))


@pytest.fixture
def grid_rect():
    # non-square cells (hx = 0.125, hy = 1/12) catch hx/hy mixups
    return Grid(GridConfig(8, 6, lx=1.0, ly=0.5))


def make_problem(nx=8, ny=8, T=0.2, nt=8, nu=0.05, kappa=0.02,
                 seed=0, coupling=True, eps1=0.0, eps2=0.0,
                 beta1=0.0, beta2=0.0, target_scale=0.5):
    """Small tracking problem with a smooth synthetic target."""
    grid = Grid(GridConfig(nx, ny))
    tg = TimeGrid(T, nt)
    pp = PhysicalParams(nu, kappa, coupling=coupling)
    w = ObjectiveWeights(1.0, 1.0, beta1, beta2, eps1, eps2)
    rng = np.random.default_rng(seed)
    from convecopt.grid import fourier_scalar, fourier_vec2
    ud = fourier_vec2(grid, rng, 3, 2.0) * target_scale
    td = target_scale * fourier_scalar(grid, rng, 3, 2.0)
    targets = Targets(u_d=ud, theta_d=td)
    space = ControlSpace(grid, tg,
                         grid.rect_mask(0.1, 0.6, 0.1, 0.5),
                         grid.rect_mask(0.4, 0.9, 0.5, 0.9))
    return Problem(grid, pp, tg, w, targets, space)


def rand_control(space, rng, scale=0.5):
    from convecopt.objective import Control
    q = scale * rng.standard_normal((space.tg.nt, 2, space.mask_q.ncells))
    th = scale * rng.standard_normal((space.tg.nt, space.mask_h.ncells))
    return Control(space, q, th)
