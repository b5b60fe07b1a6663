"""Tangent and discrete adjoint solvers.

The forward step is the composition  x_{k+1} = (P D P) E_k(x_k)  where E_k is
the explicit stage around the base state at level k, D the implicit diffusion
solve, and P the Leray projection (the heat part omits P).  The P D P block is
`boussinesq.implicit_block`; it is symmetric, so the tangent and adjoint
solvers apply it unchanged.  The tangent solver applies the exact Frechet
derivative of the composition, through the forward `explicit_stage` with the
product-rule advection terms; the adjoint solver applies its exact
transpose, term by term, so the discrete duality identity holds to
roundoff.  All three marches run `boussinesq.march` from `first_level`, each
with its own step, and read their sources as `boussinesq.SourceData`
describes.  Each returns a `StateTrajectory`: the tangent's (v, vartheta)
and the adjoint's (w, Psi) in its u and theta.  No automatic differentiation
is involved: the transposed advection terms are the stencil transposes from
the grid module, which is where the (grad u)^T w and Psi grad(theta)
structure of the continuous adjoint system comes out.

The transpose of advection in the advected field needs no stencil of its
own.  The skew form keeps b(u; w, w) = 0 discretely, which for a transporting
velocity with zero boundary-normal faces makes its matrix skew-symmetric,
exactly in floating point too, so that transpose is the forward operator
negated, and the adjoint explicit stage costs what the forward one does.
Base trajectories must have zero boundary-normal faces on every level; every
trajectory from `solve_state` has, and `_check_compat` rejects any other.
"""

from __future__ import annotations

import warnings

import numpy as np

from .grid import Grid, Vec2
from .boussinesq import (PhysicalParams, TimeGrid, SourceData, StateTrajectory,
                         add_sources, explicit_stage, first_level, implicit_block,
                         march)


def _check_compat(tg: TimeGrid, base: StateTrajectory):
    if len(base.u) != tg.nt + 1:
        raise ValueError("base trajectory does not match the time grid")
    u, v = base.u.u, base.u.v
    if u[:, 0].any() or u[:, -1].any() or v[:, :, 0].any() or v[:, :, -1].any():
        raise ValueError("base trajectory has nonzero boundary-normal faces")


def tangent_explicit_t(grid: Grid, pp: PhysicalParams, uk: Vec2, thk,
                       w: Vec2, psi, dt):
    """Transpose of the tangent's explicit stage around (uk, thk) in (v, vth).

    The transposes in the advected field are the forward operators negated:
    advect_*_t_field(uk, .) = -advect_*(uk, .), because the skew form is a
    skew-symmetric matrix once uk has zero boundary-normal faces
    (symmetry-preserving discretisation, Verstappen & Veldman 2003), exactly
    so in floating point: the negated forward operator is its transpose.  Every
    base level from solve_state satisfies that (_check_compat enforces it),
    and w, a carrier from implicit_block, has zero normal faces too, which
    the vector form needs because it reads w's boundary entries.
    """
    lu = w.copy()
    lt = psi + dt * grid.buoyancy_t(w, pp.buoyancy_dir)
    if pp.coupling:
        lu = lu - dt * (grid.advect_vector_t_vel(uk, w)
                        - grid.advect_vector(uk, w)
                        + grid.advect_scalar_t_vel(thk, psi))
        lt = lt + dt * grid.advect_scalar(uk, psi)
    return lu.zero_normal_boundary(), lt


def solve_linearized(grid: Grid, pp: PhysicalParams, tg: TimeGrid,
                     base: StateTrajectory, sources: SourceData,
                     v0: Vec2 | None = None, theta0=None, out=None):
    """Tangent march from (v0, theta0), `None` meaning zero; the step that
    produces level k reads sources.at(k - 1), as solve_state does.  Each
    level k = 0..nt goes to the level sink out (see `march`); returns out,
    by default the tangent levels as a StateTrajectory (velocity in u)."""
    _check_compat(tg, base)
    dt = tg.dt

    def advance(k, v, vth):
        uk, thk = base.u[k - 1], base.theta[k - 1]
        vs, ts = explicit_stage(grid, pp, dt, v, vth, ((uk, v, vth), (v, uk, thk)),
                                *sources.at(k - 1))
        return implicit_block(grid, pp, dt, vs, ts)

    return march(grid, range(tg.nt + 1), advance, *first_level(grid, v0, theta0), out)


def second_rhs(grid: Grid, lin1: StateTrajectory, lin2: StateTrajectory):
    """Symmetrized bilinear right-hand sides for the second derivative.

    Returns a source provider (see SourceData) whose at(k), k = 0..nt-1,
    forms step k's pair (-(A(v1, v2) + A(v2, v1)), -(a(v1, th2) + a(v2,
    th1))), A = advect_vector and a = advect_scalar, from the tangents'
    level k when it is read, so no (nt, ...) stack is built.
    solve_linearized with it and zero initial data gives the second
    derivative of the control-to-state map along (lin1, lin2).  When lin1
    is lin2 (every second variation) the two terms of each sum are the
    same call, so it is made once.
    """
    return _SecondSources(grid, lin1, lin2)


class _SecondSources:
    def __init__(self, grid: Grid, lin1: StateTrajectory, lin2: StateTrajectory):
        self.grid, self.lin1, self.lin2 = grid, lin1, lin2

    def at(self, k):
        g, l1, l2 = self.grid, self.lin1, self.lin2
        same = l1 is l2
        a = g.advect_vector(l1.u[k], l2.u[k])
        b = a if same else g.advect_vector(l2.u[k], l1.u[k])
        c = g.advect_scalar(l1.u[k], l2.theta[k])
        d = c if same else g.advect_scalar(l2.u[k], l1.theta[k])
        return -(a + b), -(c + d)


def solve_adjoint(grid: Grid, pp: PhysicalParams, tg: TimeGrid,
                  base: StateTrajectory, sources: SourceData,
                  wT: Vec2 | None = None, psiT=None, out=None):
    """Backward sweep applying the exact transpose of the tangent step.

    Hands levels nt, nt-1, ..., 0 to the level sink out (see `march`) and
    returns out, by default a StateTrajectory indexed by level, with the
    velocity carrier w in u and the temperature carrier Psi in theta.
    w[k], Psi[k] for k < nt carry the gradient: the pairing
    sum_k dt*<w[k], F_k> + dt*<Psi[k], G_k> equals the tangent/terminal
    pairing exactly.  Level nt holds the terminal data.  objective.Problem
    hands over a projected terminal velocity; for raw callers, one that is
    not divergence-free is projected here, with a warning.  sources.at(k) pairs
    against the tangent state at level k, so level 0 is never read (see
    SourceData).  The costate that pairs against tangent initial data is
    tangent_explicit_t around base level 0 applied to level 0; the sweep
    does not form it (duality_residual does).
    """
    _check_compat(tg, base)
    dt = tg.dt
    nt = tg.nt
    wT, psiT = first_level(grid, wT, psiT)
    if grid.norm_lp(grid.divergence(wT), np.inf) > 1e-10 * (1.0 + wT.max_abs()):
        warnings.warn("adjoint terminal velocity was not divergence-free; projecting")
        wT = grid.leray_project(wT)

    def advance(k, w, psi):
        # transpose of the step producing level k + 1: the explicit stage around
        # base level k + 1 (not on the terminal data), sources, implicit block
        if k + 1 < nt:
            w, psi = tangent_explicit_t(grid, pp, base.u[k + 1], base.theta[k + 1],
                                        w, psi, dt)
        w, psi = add_sources(dt, w, psi, *sources.at(k + 1))
        return implicit_block(grid, pp, dt, w, psi)

    return march(grid, range(nt, -1, -1), advance, wT, psiT, out)


def duality_residual(grid: Grid, pp: PhysicalParams, tg: TimeGrid,
                     base: StateTrajectory,
                     tanF=None, tanG=None, v0=None, theta0=None,
                     adjF=None, adjG=None, wT=None, psiT=None,
                     coupling=None) -> float:
    """Relative mismatch of the discrete duality identity.

    LHS pairs the tangent trajectory against the adjoint sources and terminal
    data; RHS pairs the tangent sources against the adjoint sweep output and
    the initial data against the level-0 costate, formed here from the
    sweep's level 0.  Both sides are evaluated independently.  The tangent
    sources tanF/tanG and adjoint sources adjF/adjG are the fields of a
    SourceData each (adjoint level 0 is never read).  `coupling`, if given,
    must equal pp.coupling, which is what both marches read.  The marches
    pair each level as they produce it, so no trajectory is stored.
    """
    if coupling is not None and coupling != pp.coupling:
        raise ValueError(f"coupling={coupling} but pp.coupling={pp.coupling}")
    dt = tg.dt
    nt = tg.nt
    tan, adj_src = SourceData(tanF, tanG), SourceData(adjF, adjG)
    lin = solve_linearized(grid, pp, tg, base, tan, v0, theta0,
                           out=_Pairing(grid, tg, adj_src, range(1, nt + 1)))
    adj = solve_adjoint(grid, pp, tg, base, adj_src, wT, psiT,
                        out=_Pairing(grid, tg, tan, range(nt)))
    lhs = lin.total()
    lhs += grid.inner(lin.ends[nt][0], adj.ends[nt][0])
    lhs += grid.inner(lin.ends[nt][1], adj.ends[nt][1])
    rhs = adj.total()
    # the costate at level 0, which pairs against the tangent initial data
    cu, ct = tangent_explicit_t(grid, pp, base.u[0], base.theta[0],
                                *adj.ends[0], dt)
    if v0 is not None:
        rhs += grid.inner(cu, v0)
    if theta0 is not None:
        rhs += grid.inner(ct, theta0)
    return abs(lhs - rhs) / (1.0 + abs(lhs))


class _Pairing:
    """Level sink pairing each level k in ks with sources.at(k).

    put records dt <f, u_k> and dt <h, theta_k>, (f, h) = sources.at(k), a
    `None` source adding no term, and keeps copies of the first and last
    levels of the time grid, 0 and nt, in ends.  total() sums the terms in
    ascending k, f before h.
    """

    def __init__(self, grid: Grid, tg: TimeGrid, sources: SourceData, ks):
        self.grid, self.tg, self.sources, self.ks = grid, tg, sources, ks
        self.ends, self.terms = {}, {}

    def put(self, k, u, theta, p):
        if k in (0, self.tg.nt):
            self.ends[k] = (u.copy(), theta.copy())
        if k in self.ks:
            f, h = self.sources.at(k)
            self.terms[k] = [self.tg.dt * self.grid.inner(a, b)
                             for a, b in ((f, u), (h, theta)) if a is not None]

    def total(self):
        s = 0.0
        for k in sorted(self.terms):
            for term in self.terms[k]:
                s += term
        return s
