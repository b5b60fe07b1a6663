"""Manufactured-solution convergence study for the forward solver.

The velocity comes from a stream function so the exact field is divergence
free, and the initial grid data are built by differencing the stream function
at cell corners so the discrete divergence vanishes to roundoff as well.
Sources are derived symbolically from the strong-form equations (pressure
chosen identically zero) and sampled at the start of each step, matching the
zero-order-hold convention of the solver.  Every expression is lambdified
without simplification, with common-subexpression elimination, and sampled
on broadcast 1-D axes, so a factor in x alone is computed on the x axis only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy as sym

from .grid import Grid, GridConfig, Vec2
from .boussinesq import PhysicalParams, TimeGrid, SourceData, solve_state


@dataclass
class MMSCase:
    u_fn: object
    v_fn: object
    th_fn: object
    fx_fn: object
    fy_fn: object
    g_fn: object
    psi_fn: object


def build_case(nu, kappa) -> MMSCase:
    """Symbolic construction of the manufactured fields and sources."""
    x, y, t = sym.symbols("x y t")
    psi = sym.sin(sym.pi * x) ** 2 * sym.sin(sym.pi * y) ** 2 * sym.cos(t) / sym.pi
    u = sym.diff(psi, y)
    v = -sym.diff(psi, x)
    th = sym.sin(sym.pi * x) * sym.sin(sym.pi * y) * sym.cos(t)

    def lap(f):
        return sym.diff(f, x, 2) + sym.diff(f, y, 2)

    fx = sym.diff(u, t) - nu * lap(u) + u * sym.diff(u, x) + v * sym.diff(u, y)
    fy = sym.diff(v, t) - nu * lap(v) + u * sym.diff(v, x) + v * sym.diff(v, y) - th
    gg = sym.diff(th, t) - kappa * lap(th) + u * sym.diff(th, x) + v * sym.diff(th, y)

    def fn(e):
        # the module, not "numpy": that runs `from numpy import *` (f2py, ...)
        return sym.lambdify((x, y, t), e, [np], cse=True)

    return MMSCase(fn(u), fn(v), fn(th), fn(fx), fn(fy), fn(gg), fn(psi))


def _eval(fn, xs, ys, t):
    out = fn(xs[:, None], ys[None, :], t)
    return np.array(np.broadcast_to(out, (len(xs), len(ys))), dtype=float)


def initial_data(grid: Grid, case: MMSCase, t=0.0):
    """Exactly discretely divergence-free initial velocity from psi corners."""
    psi = _eval(case.psi_fn, grid.xf, grid.yf, t)
    u0 = Vec2(np.diff(psi, axis=1) / grid.hy, -np.diff(psi, axis=0) / grid.hx)
    th0 = _eval(case.th_fn, grid.xc, grid.yc, t)
    return u0.zero_normal_boundary(), th0


def run_level(n, pp: PhysicalParams, case: MMSCase, T=0.1, dt_factor=1.0):
    """Solve on an n x n grid with dt ~ h^2; returns the L2(Q) error."""
    grid = Grid(GridConfig(n, n))
    h2 = grid.hx * grid.hy
    nt = max(4, int(np.ceil(T / (dt_factor * h2))))
    tg = TimeGrid(T, nt)
    times = tg.times()
    f = grid.vec2(nt)
    h = grid.scalar(nt)
    for k in range(nt):
        f.u[k] = _eval(case.fx_fn, grid.xf, grid.yc, times[k])
        f.v[k] = _eval(case.fy_fn, grid.xc, grid.yf, times[k])
        h[k] = _eval(case.g_fn, grid.xc, grid.yc, times[k])
    f.zero_normal_boundary()
    u0, th0 = initial_data(grid, case)
    traj = solve_state(grid, pp, tg, SourceData(f, h), u0, th0)
    err2 = 0.0
    for k in range(1, nt + 1):
        ue = Vec2(_eval(case.u_fn, grid.xf, grid.yc, times[k]),
                  _eval(case.v_fn, grid.xc, grid.yf, times[k])).zero_normal_boundary()
        te = _eval(case.th_fn, grid.xc, grid.yc, times[k])
        err2 += tg.dt * (grid.norm2(traj.u[k] - ue) ** 2
                         + grid.norm2(traj.theta[k] - te) ** 2)
    return float(np.sqrt(err2)), nt


def convergence_study(levels=(16, 32, 64), nu=0.05, kappa=0.05,
                      T=0.1, dt_factor=1.0):
    """Errors and observed orders log(e0/e1) / log(n1/n0) across levels."""
    pp = PhysicalParams(nu, kappa)
    case = build_case(nu, kappa)
    errs = []
    nts = []
    for n in levels:
        e, nt = run_level(n, pp, case, T, dt_factor)
        errs.append(e)
        nts.append(nt)
    orders = [float(np.log2(errs[i - 1] / errs[i]) / np.log2(levels[i] / levels[i - 1]))
              for i in range(1, len(errs))]
    return errs, orders, nts
