"""Shared helpers for the test suite."""

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from convecopt.grid import Grid, GridConfig, Vec2
from convecopt.boussinesq import PhysicalParams, TimeGrid, EnergySeries
from convecopt.objective import (ObjectiveWeights, Targets, ControlSpace,
                                 Problem)


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


def energy_report(grid, tg, traj, sources, u0, theta0):
    """EnergySeries.report of a stored trajectory, fed one level at a time:
    the stored-trajectory oracle of the reductions made while marching."""
    acc = EnergySeries(grid, tg)
    for k in range(tg.nt + 1):
        acc.put(k, traj.u[k], traj.theta[k], None)
    return acc.report(sources, u0, theta0)


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
    from convecopt.stability_lab import fourier_scalar, fourier_vec2
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
