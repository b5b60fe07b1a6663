"""Manufactured-solution convergence study for the forward solver.

The velocity comes from the stream function psi = sin^2(pi x) sin^2(pi y)
cos(t) / pi, so the exact field is divergence free, and the initial grid data
are built by differencing psi at cell corners so the discrete divergence
vanishes to roundoff as well; the temperature is sin(pi x) sin(pi y) cos(t).
With the pressure identically zero, every field and source has the form

    sin(t) a(x, y) + cos(t) b(x, y) + cos(t)^2 c(x, y):

the time derivative gives the sin(t) part, diffusion (and the buoyancy
-theta in f_y) the cos(t) part, and advection the cos(t)^2 part.  The spatial
parts are written out in closed form (the tests check them against a
symbolic derivation from the strong-form equations).  `run_level` samples
them once per grid, and forms each step's sources (held from the start of
the step, as the solver expects) and each level's exact field only when it
is read, from the three time factors.  The march hands each level to a
boussinesq.LevelFold that adds its squared error and drops it: the study
keeps no trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Callable

import numpy as np

from .grid import Grid, GridConfig, Vec2, _dot
from .boussinesq import PhysicalParams, TimeGrid, LevelFold, solve_state


@dataclass(frozen=True)
class Field:
    """f(x, y, t) = sin(t) a + cos(t) b + cos(t)^2 c, (a, b, c) = parts(x, y).

    A zero part is the scalar 0.0.  Calls broadcast like numpy ufuncs.
    """

    parts: Callable

    def __call__(self, x, y, t):
        a, b, c = self.parts(x, y)
        ct = np.cos(t)
        return np.sin(t) * a + ct * b + ct * ct * c

    def sample(self, xs, ys):
        """The parts on the grid of 1-D axes xs, ys: (3, len(xs), len(ys))."""
        shape = (len(xs), len(ys))
        return np.stack([np.broadcast_to(p, shape)
                         for p in self.parts(xs[:, None], ys[None, :])])


@dataclass
class MMSCase:
    u_fn: Field
    v_fn: Field
    th_fn: Field
    fx_fn: Field
    fy_fn: Field
    g_fn: Field
    psi_fn: Field


def _trig(x, y):
    px, py = np.pi * x, np.pi * y
    return np.sin(px), np.cos(px), np.sin(py), np.cos(py)


def build_case(nu, kappa) -> MMSCase:
    """Closed-form fields and sources for viscosity nu and diffusivity kappa."""
    pi, pi2 = np.pi, np.pi ** 2

    def psi(x, y):
        sx, _, sy, _ = _trig(x, y)
        return 0.0, sx * sx * (sy * sy) / pi, 0.0

    def u(x, y):        # psi_y
        sx, _, sy, cy = _trig(x, y)
        return 0.0, 2 * sx * sx * (sy * cy), 0.0

    def v(x, y):        # -psi_x
        sx, cx, sy, _ = _trig(x, y)
        return 0.0, -2 * sx * cx * (sy * sy), 0.0

    def theta(x, y):
        sx, _, sy, _ = _trig(x, y)
        return 0.0, sx * sy, 0.0

    def fx(x, y):       # u_t - nu lap(u) + u u_x + v u_y
        sx, cx, sy, cy = _trig(x, y)
        return (-2 * sx * sx * (sy * cy),
                -4 * pi2 * nu * (1 - 4 * sx * sx) * (sy * cy),
                4 * pi * sx * sx * sx * cx * (sy * sy))

    def fy(x, y):       # v_t - nu lap(v) + u v_x + v v_y - theta
        sx, cx, sy, cy = _trig(x, y)
        return (2 * sx * cx * (sy * sy),
                -4 * pi2 * nu * sx * cx * (4 * sy * sy - 1) - sx * sy,
                4 * pi * sx * sx * (sy * sy * sy * cy))

    def g(x, y):        # theta_t - kappa lap(theta); u.grad(theta) = 0,
        sx, _, sy, _ = _trig(x, y)      # theta being a function of psi
        th = sx * sy
        return -th, 2 * pi2 * kappa * th, 0.0

    return MMSCase(*(Field(p) for p in (u, v, theta, fx, fy, g, psi)))


def _eval(fn, xs, ys, t):
    out = fn(xs[:, None], ys[None, :], t)
    return np.array(np.broadcast_to(out, (len(xs), len(ys))), dtype=float)


def _time_basis(t):
    """Rows (sin t, cos t, cos^2 t); a row times a field's parts is its value."""
    ct = np.cos(t)
    return np.stack([np.sin(t), ct, ct * ct], axis=-1)


class _Levels:
    """Fields basis[k] . parts formed one time level at a time.

    Each parts array is (3, *shape), the sampled (a, b, c) of one field.
    Level k of all of them is one product of basis[k] with the parts side
    by side, split into views; no (nt, ...) stack is built.
    """

    def __init__(self, basis, *parts):
        self.basis = basis
        ends = np.cumsum([0] + [p[0].size for p in parts]).tolist()
        self.views = [(a, b, p.shape[1:]) for a, b, p in zip(ends, ends[1:], parts)]
        self.parts = np.concatenate([p.reshape(3, -1) for p in parts], axis=1)

    def fields(self, k):
        flat = self.basis[k] @ self.parts
        return [flat[a:b].reshape(shape) for a, b, shape in self.views]

    def at(self, k):
        """(f, h) held on step k, the parts being those of fx, fy and g."""
        fu, fv, h = self.fields(k)
        return Vec2(fu, fv), h


def _face_parts(grid: Grid, fu: Field, fv: Field):
    parts = Vec2(fu.sample(grid.xf, grid.yc), fv.sample(grid.xc, grid.yf))
    return parts.zero_normal_boundary()


def _field_levels(grid: Grid, basis, fu: Field, fv: Field, s: Field):
    """_Levels of the face pair (fu, fv) and the cell scalar s; the samples
    are dropped once _Levels has concatenated them."""
    f = _face_parts(grid, fu, fv)
    return _Levels(basis, f.u, f.v, s.sample(grid.xc, grid.yc))


def initial_data(grid: Grid, case: MMSCase, t=0.0):
    """Exactly discretely divergence-free initial velocity from psi corners."""
    psi = _eval(case.psi_fn, grid.xf, grid.yf, t)
    u0 = Vec2(np.diff(psi, axis=1) / grid.hy, -np.diff(psi, axis=0) / grid.hx)
    th0 = _eval(case.th_fn, grid.xc, grid.yc, t)
    return u0.zero_normal_boundary(), th0


def _squared_error(exact: _Levels):
    """LevelFold of the sum over k = 1..nt of |level k - exact level k|^2,
    adding u, v and theta in turn as the march hands each level over."""

    def squares(k, u, theta):
        if k == 0:
            return ()
        ds = [got - want for got, want in zip((u.u, u.v, theta), exact.fields(k))]
        return [_dot(d, d) for d in ds]

    return LevelFold(squares, lambda total, sq: reduce(add, sq, total))


def run_level(n, pp: PhysicalParams, case: MMSCase, T=0.1, dt_factor=1.0):
    """Solve on an n x n grid with dt ~ h^2; returns the L2(Q) error."""
    grid = Grid(GridConfig(n, n))
    h2 = grid.hx * grid.hy
    nt = max(4, int(np.ceil(T / (dt_factor * h2))))
    tg = TimeGrid(T, nt)
    basis = _time_basis(tg.times())
    sources = _field_levels(grid, basis, case.fx_fn, case.fy_fn, case.g_fn)
    u0, th0 = initial_data(grid, case)
    exact = _field_levels(grid, basis, case.u_fn, case.v_fn, case.th_fn)
    err2 = solve_state(grid, pp, tg, sources, u0, th0, out=_squared_error(exact)).value
    return float(np.sqrt(tg.dt * grid.vol * err2)), nt


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
