"""Forward-in-time solver for the buoyancy-coupled incompressible flow system.

One IMEX Euler step per time level: `explicit_stage` (advection, buoyancy and
forcing; the tangent step's too), then `implicit_block`, the shared P D P
block (project, diffuse, project the velocity; diffuse the temperature).
Every march is `march` from the level `first_level` prepares, handing each
level to a level sink: a StateTrajectory keeps it (and can replay it into
another sink later), a LevelFold reduces it to a number.  The step is
deliberately a composition of linear solves and bilinear terms so that its
linearization and transpose can be written down exactly (see the
sensitivity module).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add

import numpy as np

from .grid import Grid, Vec2, NumericalFailure


@dataclass(frozen=True)
class PhysicalParams:
    nu: float
    kappa: float
    buoyancy_dir: tuple = (0.0, 1.0)
    coupling: bool = True   # advection on; the three marches all read it here

    def __post_init__(self):
        if self.nu <= 0 or self.kappa <= 0:
            raise ValueError("nu and kappa must be positive")
        n = np.hypot(*self.buoyancy_dir)
        if abs(n - 1.0) > 1e-12:
            raise ValueError("buoyancy_dir must be a unit vector")


@dataclass(frozen=True)
class TimeGrid:
    T: float
    nt: int

    def __post_init__(self):
        if self.T <= 0 or self.nt < 1:
            raise ValueError("need T > 0 and nt >= 1")

    @property
    def dt(self):
        return self.T / self.nt

    def times(self):
        return np.linspace(0.0, self.T, self.nt + 1)


@dataclass
class SourceData:
    """Body force f (a Vec2, face layout) and heat source h (a cell scalar).

    The one step-data contract of the forward, tangent and adjoint marches:
    each reads its sources through at(k).  A field is `None` (zero), one
    level held on every step, or a per-step sequence indexed by k, a list of
    levels or a stack on a leading axis.  solve_state and solve_linearized
    read at(k) on step k (the value held on [t_k, t_{k+1})); solve_adjoint
    reads at(k + 1), the sources pairing with level k + 1, on the backward
    step that produces level k, so it never reads level 0.  Any object whose
    at(k) gives such an (f, h) pair will do; a march reads each pair once,
    on its step, and keeps none, so such an object may form every pair when
    it is read (objective.ControlSources, objective._AdjointSources,
    sensitivity.second_rhs's and mms._Levels do; only ControlSources holds
    an (nt, ...) stack, that of its windows).
    """

    f: object = None
    h: object = None

    def at(self, k):
        """(f, h) at index k."""
        return _entry(self.f, k), _entry(self.h, k)


def _entry(a, k):
    """Entry k of a per-step sequence; a single level or None as it is."""
    return a if a is None or getattr(a, "ndim", None) == 2 else a[k]


@dataclass
class StateTrajectory:
    """Levels 0..nt stacked on a leading axis: u is a Vec2 of shapes
    (nt+1, nx+1, ny) and (nt+1, nx, ny+1); theta is (nt+1, nx, ny).  u[k]
    and theta[k] are views.

    The default level sink of `march`: it copies u and theta into the stacks
    and drops p, so no pressure or potential is kept.
    """

    u: Vec2
    theta: np.ndarray

    def put(self, k, u, theta, p):
        self.u[k], self.theta[k] = u, theta

    def replay(self, out, ks):
        """Hands the level sink out this trajectory's levels ks, in that
        order, as a march would (p None); returns out."""
        for k in ks:
            out.put(k, self.u[k], self.theta[k], None)
        return out


class LevelFold:
    """Level sink folding term(k, u, theta) into value, from 0.0, with
    fold(value, term) (np.add or np.maximum over a float or a tuple of
    floats), in the order the levels arrive; no level is kept."""

    def __init__(self, term, fold):
        self.term, self.fold, self.value = term, fold, 0.0

    def put(self, k, u, theta, p):
        self.value = self.fold(self.value, self.term(k, u, theta))


@dataclass
class EnergyReport:
    max_energy: float
    dissipation: float
    data_norm: float
    ratio: float
    series: np.ndarray  # columns: k, t, ke_u, ke_theta, enstrophy_u, grad_theta


# A forward step fails once E > ENERGY_BOUND * D^2, as the energy estimate bounds
# E by a constant times D^2.  Measured at 16^2, bounded runs stay below 1.5 and
# every blow-up seen passed 1e11, so 1e4 leaves decades of room on both sides.
ENERGY_BOUND = 1e4


def check_step(grid: Grid, k, u: Vec2, theta, bound=np.inf):
    """Fail step k, which produced level k, unless |u|^2 + |theta|^2 is finite and <= bound."""
    e = grid.inner(u, u) + grid.inner(theta, theta)
    if not np.isfinite(e) or e > bound:     # a NaN bound (NaN data) checks finiteness only
        raise NumericalFailure(f"step {k}: energy |u|^2 + |theta|^2 = {e:.3g}, bound {bound:.3g}")


def explicit_stage(grid: Grid, pp: PhysicalParams, dt, u: Vec2, theta,
                   transports, f: Vec2 | None, h):
    """Explicit stage of the forward and the tangent step: the tentative
    (u + dt (buoyancy(theta) - A + f), theta + dt (h - a)), normal faces
    zeroed, where A and a sum advect_vector(U, W) and advect_scalar(U, s)
    over the (U, W, s) in transports, if pp.coupling is on."""
    us = u + dt * grid.buoyancy(theta, pp.buoyancy_dir)
    ts = theta.copy()
    if pp.coupling:
        us = us - dt * reduce(add, (grid.advect_vector(U, W) for U, W, _ in transports))
        ts = ts - dt * reduce(add, (grid.advect_scalar(U, s) for U, _, s in transports))
    us, ts = add_sources(dt, us, ts, f, h)
    return us.zero_normal_boundary(), ts


def add_sources(dt, u: Vec2, theta, f: Vec2 | None, h):
    """(u + dt f, theta + dt h), a `None` source adding nothing."""
    if f is not None:
        u = u + dt * f
    if h is not None:
        theta = theta + dt * h
    return u, theta


def implicit_block(grid: Grid, pp: PhysicalParams, dt, u: Vec2, theta):
    """Implicit stage of one step; returns (P D P u, phi, D theta).

    The tentative velocity is projected both before and after the implicit
    diffusion solve, and phi is the potential removed by the last
    projection.  The extra projection makes the block symmetric, so the
    tangent and adjoint marches apply this same function, and adjoint
    velocities come out discretely divergence-free.
    """
    ud = grid.helmholtz_solve_vec(dt * pp.nu, grid.leray_project(u))
    un, phi = grid.leray_project(ud, return_phi=True)
    return un, phi, grid.helmholtz_solve_scalar(dt * pp.kappa, theta)


def step(grid: Grid, pp: PhysicalParams, dt, u: Vec2, theta,
         f: Vec2 | None, h):
    """One full IMEX step; returns (u_next, p_next, theta_next)."""
    us, ts = explicit_stage(grid, pp, dt, u, theta, ((u, u, theta),), f, h)
    un, phi, tn = implicit_block(grid, pp, dt, us, ts)
    return un, phi / dt, tn


def first_level(grid: Grid, u: Vec2 | None, theta):
    """A march's first level from the caller's data: a copy of u with zero
    normal faces and theta as a contiguous float array, `None` meaning zero."""
    return (grid.vec2() if u is None else u.copy().zero_normal_boundary(),
            grid.scalar() if theta is None else np.ascontiguousarray(theta, dtype=float))


def march(grid: Grid, levels, advance, u: Vec2, theta, out=None, bound=np.inf):
    """The one time loop of the forward, tangent and adjoint marches.

    Hands (u, theta) to out as level levels[0]; each later level k is
    (u, p, theta) = advance(k, u, theta), which must pass check_step with
    this bound before out receives it.  p is the pressure in the forward
    march, the potential implicit_block removed in the tangent and adjoint.
    out is a level sink: any object with put(k, u, theta, p), called once
    per level in the order of levels, with p None at levels[0].  The arrays
    are the march's own: a sink must not modify them and copies what it
    keeps.  Returns out, by default a fresh StateTrajectory indexed by k.
    """
    if out is None:
        out = StateTrajectory(grid.vec2(len(levels)), grid.scalar(len(levels)))
    ks = iter(levels)
    out.put(next(ks), u, theta, None)
    for k in ks:
        u, p, theta = advance(k, u, theta)
        check_step(grid, k, u, theta, bound)
        out.put(k, u, theta, p)
    return out


def solve_state(grid: Grid, pp: PhysicalParams, tg: TimeGrid,
                sources: SourceData, u0: Vec2, theta0, out=None):
    """March the nonlinear system from (u0, theta0) over the full time grid.

    Sources must already include any control forcing (see objective module
    for the control-to-source mapping), read as SourceData describes.  Every
    step ends in check_step, with the bound ENERGY_BOUND * D^2, D = data_norm.
    Each level goes to the level sink out (see `march`).  Returns out, by
    default a fresh StateTrajectory.
    """
    grid.check_vec2(u0)
    grid.check_scalar(theta0)
    if not all(np.isfinite(a).all() for a in (u0.u, u0.v, theta0)):
        raise ValueError("initial data must be finite")
    bound = ENERGY_BOUND * data_norm(grid, tg, sources, u0, theta0) ** 2

    def advance(k, u, theta):
        return step(grid, pp, tg.dt, u, theta, *sources.at(k - 1))

    return march(grid, range(tg.nt + 1), advance, *first_level(grid, u0, theta0),
                 out, bound)


class EnergySeries:
    """Level sink reducing each level to its row of the energy series.

    Columns: k, t, ke_u, ke_theta, enstrophy_u, grad_theta (squared L2 norms
    and H1 seminorms, from Grid.inner and _h1_semi_sq of the one level); no
    level is kept.  report() is the final reduction.
    """

    def __init__(self, grid: Grid, tg: TimeGrid):
        self.grid, self.tg = grid, tg
        self.series = np.zeros((tg.nt + 1, 6))
        self.series[:, 0] = np.arange(tg.nt + 1)
        self.series[:, 1] = tg.times()

    def put(self, k, u, theta, p):
        g = self.grid
        self.series[k, 2:] = (g.inner(u, u), g.inner(theta, theta),
                              _h1_semi_sq(g, u), _h1_semi_sq(g, theta))

    def report(self, sources: SourceData, u0: Vec2, theta0) -> EnergyReport:
        """Discrete analog of the weak-solution energy estimate, for regression.

        Reports max_k(|u_k|^2 + |theta_k|^2), the accumulated gradient
        dissipation, the data functional, and their ratio.
        """
        _, _, keu, ket, eu, et = self.series.T
        max_e = float(np.max(keu + ket))
        diss = self.tg.dt * float(np.sum(eu[1:] + et[1:]))
        data = data_norm(self.grid, self.tg, sources, u0, theta0)
        num = max_e + diss
        ratio = 0.0 if data == 0.0 else num / data ** 2
        return EnergyReport(max_e, diss, data, ratio, self.series)


def data_norm(grid: Grid, tg: TimeGrid, sources: SourceData, u0: Vec2, theta0):
    """D = |f|_{L2(L2)} + |h|_{L2(L2)} + |u0| + |theta0|, the data side of the
    energy estimate, taken one level at a time (no trajectory-sized temporary,
    also when at(k) forms each level's sources on demand)."""
    fsq, hsq = [], []
    for k in range(tg.nt):
        f, h = sources.at(k)
        if f is not None:
            fsq.append(grid.inner(f, f))
        if h is not None:
            hsq.append(grid.inner(h, h))
    fnorm, gnorm = (tg.dt * float(np.sum(s)) if s else 0.0 for s in (fsq, hsq))
    return np.sqrt(fnorm) + np.sqrt(gnorm) + grid.norm2(u0) + grid.norm2(theta0)


def _h1_semi_sq(grid: Grid, a):
    """Squared H1 seminorm of a scalar or Vec2, one value per level."""
    if isinstance(a, Vec2):
        return _h1_semi_sq(grid, a.u) + _h1_semi_sq(grid, a.v)
    gx = np.diff(a, axis=-2) / grid.hx
    gy = np.diff(a, axis=-1) / grid.hy
    return grid.vol * (np.sum(gx * gx, axis=(-2, -1)) + np.sum(gy * gy, axis=(-2, -1)))
