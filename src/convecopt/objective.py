"""Tracking objective, its adjoint gradient, and second variation.

The control is a zero-order-hold pair (q, Theta): a two-component force
density supported on one cell region and a heat source on another, one value
per cell per time step, with box bounds.  The objective is the weighted sum
of squared tracking misfits over the space-time cylinder and at final time,
plus optional Tikhonov terms and the linear tilt terms of the perturbed
problem family.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .grid import Grid, Vec2, RegionMask, _ax, _ax_t, _ay, _ay_t, _dot
from .boussinesq import (PhysicalParams, TimeGrid, SourceData, StateTrajectory,
                         LevelFold, solve_state, at_level, _h1_semi_sq)
from . import sensitivity as sen


@dataclass(frozen=True)
class ObjectiveWeights:
    alpha1: float = 1.0
    alpha2: float = 1.0
    beta1: float = 0.0
    beta2: float = 0.0
    eps1: float = 0.0
    eps2: float = 0.0

    def __post_init__(self):
        if min(self.alpha1, self.alpha2, self.beta1, self.beta2) < 0:
            raise ValueError("tracking weights must be nonnegative")
        if self.alpha1 + self.alpha2 + self.beta1 + self.beta2 <= 0:
            raise ValueError("at least one tracking weight must be positive")
        if self.eps1 < 0 or self.eps2 < 0:
            raise ValueError("Tikhonov weights must be nonnegative")


@dataclass(frozen=True)
class Targets:
    """Tracking data and the objective's linear tilts (eta_u, eta_th) in the
    state, `None` a zero field; stacks of u_d, theta_d and eta hold nt + 1
    levels indexed by state level (SourceData's rule), u_T and theta_T one."""

    u_d: Vec2 | None = None
    theta_d: np.ndarray | None = None
    u_T: Vec2 | None = None
    theta_T: np.ndarray | None = None
    eta_u: Vec2 | None = None
    eta_th: np.ndarray | None = None


@dataclass(frozen=True)
class ControlSpace:
    """Geometry and bounds of the admissible set; `map` is its ControlMap."""

    grid: Grid
    tg: TimeGrid
    mask_q: RegionMask
    mask_h: RegionMask
    q_lo: float = -1.0
    q_hi: float = 1.0
    th_lo: float = -1.0
    th_hi: float = 1.0

    def __post_init__(self):
        if any(lo > hi for lo, hi in self.bounds):
            raise ValueError("control bounds must satisfy lo <= hi")
        object.__setattr__(self, "map", ControlMap(self))

    @property
    def bounds(self):
        """((q_lo, q_hi), (th_lo, th_hi)), in the order of Control.parts."""
        return (self.q_lo, self.q_hi), (self.th_lo, self.th_hi)

    def zero(self):
        nt = self.tg.nt
        return Control(self,
                       np.zeros((nt, 2, self.mask_q.ncells)),
                       np.zeros((nt, self.mask_h.ncells)))

    def uniform(self, rng):
        """A control drawn uniformly from the box, q first."""
        return Control(self, *(rng.uniform(lo, hi, a.shape)
                               for a, (lo, hi) in zip(self.zero().parts, self.bounds)))

    @property
    def m_u(self):
        """Largest admissible control magnitude (the paper's box bound)."""
        return max(abs(b) for box in self.bounds for b in box)


class ControlMap:
    """Where the control acts: a ControlSpace's control operator B_h, its
    exact transpose and the quadrature weight dt * vol of every control
    product and mass.  B_h takes a force q (..., 2, n_q) on mask_q's cells,
    each component averaged onto the faces along its axis, and a heat source
    th (..., n_h) on mask_h's cells; it can make nonzero only the windows
    u[su], v[sv] (mask_q's box grown by one cell) and h[sh] (mask_h's box).
    inject returns their values, restrict reads only them; both take any
    leading axes."""

    def __init__(self, space: ControlSpace):
        g, mq, mh = space.grid, space.mask_q, space.mask_h
        (i0, i1), (j0, j1) = mq.box
        a, b = max(i0 - 1, 0), max(j0 - 1, 0)
        # per force component: the box widened by one cell along its axis,
        # which averaging takes onto u[su] or v[sv]: its shape, mask_q's cells
        self._cells = (((min(i1 + 1, g.nx) - a, j1 - j0), (..., mq.ii - a, mq.jj - j0)),
                       ((i1 - i0, min(j1 + 1, g.ny) - b), (..., mq.ii - i0, mq.jj - b)))
        self.su = (..., slice(max(i0, 1), min(i1 + 1, g.nx)), slice(j0, j1))
        self.sv = (..., slice(i0, i1), slice(max(j0, 1), min(j1 + 1, g.ny)))
        (i0, i1), (j0, j1) = mh.box
        self._heat = ((i1 - i0, j1 - j0), (..., mh.ii - i0, mh.jj - j0))
        self.sh = (..., slice(i0, i1), slice(j0, j1))
        self.weight = space.tg.dt * g.vol

    def inject(self, q, th):
        """B_h's windows of (q, th): fresh (Vec2 of u[su] and v[sv], h[sh])."""
        (sx, ix), (sy, iy) = self._cells
        cx, cy = np.zeros(q.shape[:-2] + sx), np.zeros(q.shape[:-2] + sy)
        cx[ix], cy[iy] = q[..., 0, :], q[..., 1, :]
        shape, ih = self._heat
        h = np.zeros(th.shape[:-1] + shape)
        h[ih] = th
        return Vec2(_ax(cx), _ay(cy)), h

    def take(self, w: Vec2, psi):
        """The windows (Vec2 of w.u[su] and w.v[sv], psi[sh]) of whole
        fields, views."""
        return Vec2(w.u[self.su], w.v[self.sv]), psi[self.sh]

    def restrict(self, w_box: Vec2, psi_box):
        """Transpose of inject: the windows take returns to (q, th)."""
        (_, ix), (_, iy) = self._cells
        q = np.stack((_ax_t(w_box.u)[ix], _ay_t(w_box.v)[iy]), axis=-2)
        return q, psi_box[self._heat[1]]


@dataclass
class Control:
    """Zero-order-hold control: q[(k, comp, cell)], theta[(k, cell)]."""

    space: ControlSpace
    q: np.ndarray
    th: np.ndarray
    _hash: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def parts(self):
        """(q, th), the live arrays, in the order of ControlSpace.bounds."""
        return self.q, self.th

    def axpy(self, a, other):
        return Control(self.space, self.q + a * other.q, self.th + a * other.th)

    def dot_l2(self, other):
        """L2(Q) control-space inner product (ControlMap.weight)."""
        return self.space.map.weight * (_dot(self.q, other.q) + _dot(self.th, other.th))

    def norm_l1(self):
        return self.space.map.weight * (float(np.abs(self.q).sum())
                                        + float(np.abs(self.th).sum()))

    def is_admissible(self, tol=0.0):
        return all(a.min(initial=lo) >= lo - tol and a.max(initial=hi) <= hi + tol
                   for a, (lo, hi) in zip(self.parts, self.space.bounds))

    def hash(self):
        """The digest of (q, th), formed on the first call, which then makes
        q and th read-only: a write after a cache lookup raises ValueError
        instead of leaving a stale key."""
        if self._hash is None:
            self._hash = _digest(*self.parts)
            for a in self.parts:
                a.flags.writeable = False
        return self._hash


class ControlSources:
    """The control's sources, formed per step: at(k) is base.at(k) (a copy,
    `None` a zero field) plus B_h(q_k, theta_k) (ControlMap.inject) added
    into the map's windows; a fresh pair, read as boussinesq.SourceData
    describes.  The windows' (nt, window) stacks are formed once."""

    def __init__(self, ctrl: Control, base: SourceData = SourceData()):
        self.grid, self.map, self.base = ctrl.space.grid, ctrl.space.map, base
        self.f_box, self.h_box = self.map.inject(ctrl.q, ctrl.th)

    def at(self, k):
        f, h = self.base.at(k)
        f = self.grid.vec2() if f is None else f.copy()
        h = self.grid.scalar() if h is None else h.copy()
        m = self.map
        f.u[m.su] += self.f_box.u[k]
        f.v[m.sv] += self.f_box.v[k]
        h[m.sh] += self.h_box[k]
        return f, h


def _digest(*fields):
    """SHA-256 over optional Vec2 and array fields, None distinct from zero:
    each array's bytes in C order, read from its buffer, so only an array
    that is not C-contiguous is copied."""
    hsh = hashlib.sha256()
    for a in fields:
        if isinstance(a, Vec2):
            hsh.update(np.ascontiguousarray(a.u))
            hsh.update(np.ascontiguousarray(a.v))
        elif a is not None:
            hsh.update(np.ascontiguousarray(a))
        hsh.update(b"|")
    return hsh.hexdigest()


# Each Perturbation field but eps1/eps2, in norm_P's summation order: (name,
# norm_P term).  Problem.perturbed adds each field to the datum it perturbs.
PERTURBATION_FIELDS = (
    ("f_hat", "lp"), ("h_hat", "lp"),
    ("u0_hat", "h1"), ("th0_hat", "h1"),
    ("eta_u", "lp"), ("eta_th", "lp"),
    ("sigma", "sup"), ("lam", "sup"),
    ("u_d_hat", "lp"), ("th_d_hat", "lp"),
)
# norm_P's terms: L^s, the L2 value-plus-gradient proxy for the trace space, sup
_SIZES = {"lp": lambda g, a, s: g.norm_lp(a, s),
          "h1": lambda g, a, s: np.sqrt(g.inner(a, a) + _h1_semi_sq(g, a)),
          "sup": lambda g, a, s: float(np.abs(a).max())}

# The Fourier families: the Perturbation fields of their (vector, scalar) pair
FOURIER_FIELDS = {"source": ("f_hat", "h_hat"),
                  "initial": ("u0_hat", "th0_hat"),
                  "objective-tilt": ("eta_u", "eta_th"),
                  "target-shift": ("u_d_hat", "th_d_hat")}
KNOWN_FAMILIES = ("control-tilt", *FOURIER_FIELDS, "tikhonov")


@dataclass
class Perturbation:
    """The perturbation tuple driving the stability experiments.

    Each field is one level or a stack, as its datum may be (Problem).
    Problem.perturbed adds each field to the datum it perturbs,
    eps1 and eps2 to the Tikhonov weights.  Signs are normalized so the
    perturbed gradient on the control regions is exactly (restricted
    adjoint) + Tikhonov + (sigma, Lambda).
    """

    f_hat: Vec2 | None = None
    h_hat: np.ndarray | None = None
    u0_hat: Vec2 | None = None
    th0_hat: np.ndarray | None = None
    eta_u: Vec2 | None = None
    eta_th: np.ndarray | None = None
    sigma: np.ndarray | None = None       # (2, n_q cells) or (nt, 2, n_q)
    lam: np.ndarray | None = None         # (n_h,) or (nt, n_h)
    u_d_hat: Vec2 | None = None
    th_d_hat: np.ndarray | None = None
    eps1: float = 0.0
    eps2: float = 0.0

    def norm_P(self, grid: Grid, control: Control, s=4):
        """Size of the perturbation: the sum of each set field's norm_P term
        (PERTURBATION_FIELDS), then the Tikhonov weights through the
        equivalent control tilt eps * rho at `control`."""
        total = 0.0
        for name, term in PERTURBATION_FIELDS:
            a = getattr(self, name)
            if a is not None:
                total += _SIZES[term](grid, a, s)
        for eps, a in zip((self.eps1, self.eps2), control.parts):
            if eps:
                total += eps * float(np.abs(a).max(initial=0.0))
        return float(total)


@dataclass(frozen=True)
class Problem:
    """Bundles everything needed to evaluate the objective at a control.

    The problem owns all of its data: sources, initial data, targets and
    the objective's tilts eta (in targets), the weights, and the control
    tilt (sigma, lam), one per component of Control.parts, each None, one
    level, or one level per step.  `perturbed(zeta)` is the perturbed
    problem P(zeta): a copy with each field of zeta added to the datum it
    perturbs, which shares this problem's caches; every method reads only
    the problem's own data.  Problem and its Targets are frozen: __post_init__
    digests the data once, so assigning a datum later would leave the cache
    keys stale.

    Solves are cached, so the optimizer's repeated J/grad evaluations at one
    point cost one solve of each, in three kinds: the state, the full
    adjoint, and the gradient (the adjoint restricted to the control
    regions).  Every lookup goes through _cached, which states the hit/miss
    rule, under the key _key builds from the control's hash and the digests
    __post_init__ forms once; the perturbed copies share the caches.
    Only `adjoint` stores a full adjoint, and only callers that read its
    fields call it (second_bilinear, tracking_margin, the lab's gaps); one
    that reduces each level as it arrives passes it a level sink instead,
    and none is stored.  That sink, and a gradient miss's _GradientWindows
    (which keeps only the control map's windows), are fed by _sweep_adjoint:
    it replays a held full adjoint and sweeps only without one.  The
    optimizer holds no trajectory: when a line search fails, its start
    point's state was evicted by the trials, and it is solved again unless
    a caller holds it.

    Where the control acts is space.map (ControlMap): the sources' control
    part, the gradient's restriction and the control weight of J and J''.
    Targets, eta and base sources follow SourceData's level rule: target and
    eta stacks hold nt + 1 levels indexed by state level, base-source stacks
    nt indexed by step, each step's sources formed as read (ControlSources).
    """

    grid: Grid
    phys: PhysicalParams
    tg: TimeGrid
    weights: ObjectiveWeights
    targets: Targets
    space: ControlSpace
    base_sources: SourceData = field(default_factory=SourceData)
    u0: Vec2 | None = None
    theta0: np.ndarray | None = None
    tilt: tuple = (None, None)

    def __post_init__(self):
        put = partial(object.__setattr__, self)
        t, src, nt = self.targets, self.base_sources, self.tg.nt
        for name, a, n in (("u_d", t.u_d, nt + 1), ("theta_d", t.theta_d, nt + 1),
                           ("eta_u", t.eta_u, nt + 1), ("eta_th", t.eta_th, nt + 1),
                           ("base_sources.f", src.f, nt), ("base_sources.h", src.h, nt)):
            if at_level(a, 0) is not a and len(a) != n:     # a stack, of n levels
                raise ValueError(f"{name} holds {len(a)} levels; a stack needs {n}")
        if self.u0 is None:
            put("u0", self.grid.vec2())
        if self.theta0 is None:
            put("theta0", self.grid.scalar())
        # what the state depends on, and what the adjoint adds to it
        put("_state_digest", _digest(self.base_sources.f, self.base_sources.h,
                                     self.u0, self.theta0))
        put("_adjoint_digest", _digest(t.u_d, t.theta_d, t.u_T, t.theta_T,
                                       t.eta_u, t.eta_th))
        # per kind: the one strong entry, and the weak view of all entries
        put("_caches", {kind: {} for kind in ("state", "adjoint", "gradient")})
        put("_held", {kind: weakref.WeakValueDictionary() for kind in self._caches})

    def perturbed(self, zeta: Perturbation) -> Problem:
        """This problem with each field of zeta added to the datum it
        perturbs, sharing its caches (their keys tell the data apart); this
        problem is left as it is, and a perturbed problem's perturbed(zeta)
        adds zeta on top.  The initial velocity's sum is made
        divergence-free again."""
        t, w, u0 = self.targets, self.weights, self.u0
        if zeta.u0_hat is not None:
            u0 = self.grid.leray_project((u0 + zeta.u0_hat).zero_normal_boundary())
        out = replace(
            self,
            base_sources=SourceData(_plus(self.base_sources.f, zeta.f_hat),
                                    _plus(self.base_sources.h, zeta.h_hat)),
            u0=u0, theta0=_plus(self.theta0, zeta.th0_hat),
            targets=replace(t, u_d=_plus(t.u_d, zeta.u_d_hat),
                            theta_d=_plus(t.theta_d, zeta.th_d_hat),
                            eta_u=_plus(t.eta_u, zeta.eta_u),
                            eta_th=_plus(t.eta_th, zeta.eta_th)),
            weights=replace(w, eps1=w.eps1 + zeta.eps1, eps2=w.eps2 + zeta.eps2),
            tilt=(_plus(self.tilt[0], zeta.sigma), _plus(self.tilt[1], zeta.lam)))
        object.__setattr__(out, "_caches", self._caches)
        object.__setattr__(out, "_held", self._held)
        return out

    @property
    def coupling(self):
        """phys.coupling, read-only; kept for callers written against the old field."""
        return self.phys.coupling

    def _key(self, kind, ctrl: Control):
        """ctrl's hash and the digest of the state's data (sources and
        initial data), and for the "adjoint" and "gradient" kinds also of
        the adjoint's (targets and eta); no other field keys a kind."""
        key = (ctrl.hash(), self._state_digest)
        return key if kind == "state" else key + (self._adjoint_digest,)

    def _cached(self, kind, key, solve):
        """The kind's value under key (_key): from the cache, or from solve().

        The rule: each kind keeps one strong entry.  A value of the kind
        that is cached, or that a caller still holds (found through a weak
        view of every entry), becomes the strong entry and is returned; so
        a held value is never solved again, and one that nobody holds is
        freed once a newer one of its kind is cached.  Otherwise the strong
        entry is evicted before solve() runs, so no evicted value is live
        while the new one is formed (unless a caller holds it), and the
        result is cached; a solve that fails leaves no entry.
        """
        cache, held = self._caches[kind], self._held[kind]
        value = held.get(key)
        cache.clear()
        if value is None:
            value = held[key] = solve()
        cache[key] = value
        return value

    # -- state solves --------------------------------------------------------

    def _sources_for(self, ctrl: Control):
        return ControlSources(ctrl, self.base_sources)

    def _control_terms(self):
        """Per component, in the order of Control.parts: the Tikhonov weight
        and the tilt (sigma, lam) or None."""
        return tuple(zip((self.weights.eps1, self.weights.eps2), self.tilt))

    def state(self, ctrl: Control) -> StateTrajectory:
        """ctrl's state trajectory, cached."""
        return self._cached("state", self._key("state", ctrl), lambda: solve_state(
            self.grid, self.phys, self.tg, self._sources_for(ctrl), self.u0, self.theta0))

    # -- objective -----------------------------------------------------------

    def _misfits(self, k, u, theta):
        """(u - u_d, theta - theta_d) at state level k (see _minus)."""
        t = self.targets
        return _minus(u, at_level(t.u_d, k)), _minus(theta, at_level(t.theta_d, k))

    def _terminal_misfits(self, traj):
        return (_minus(traj.u[-1], self.targets.u_T),
                _minus(traj.theta[-1], self.targets.theta_T))

    def eval_J(self, ctrl: Control) -> float:
        """Objective value."""
        t = self.targets
        w = self.weights
        g = self.grid
        traj = self.state(ctrl)

        def running(k, u, theta):
            # level k's squared misfits and eta pairings, in the order summed
            du, dth = self._misfits(k, u, theta)
            eta_u, eta_th = at_level(t.eta_u, k), at_level(t.eta_th, k)
            return (g.inner(du, du), g.inner(dth, dth),
                    0.0 if eta_u is None else g.inner(eta_u, u),
                    0.0 if eta_th is None else g.inner(eta_th, theta))

        su, st, eu, et = self.tg.dt * traj.replay(LevelFold(running, np.add),
                                                  range(1, self.tg.nt + 1)).value
        val = 0.5 * w.alpha1 * su + 0.5 * w.alpha2 * st + eu + et
        if w.beta1 or w.beta2:
            duT, dthT = self._terminal_misfits(traj)
            val += 0.5 * w.beta1 * g.inner(duT, duT)
            val += 0.5 * w.beta2 * g.inner(dthT, dthT)
        wq = self.space.map.weight
        terms = self._control_terms()
        # both Tikhonov terms, then both tilts
        for (eps, _), a in zip(terms, ctrl.parts):
            if eps:
                val += 0.5 * eps * wq * _dot(a, a)
        for (_, tilt), a in zip(terms, ctrl.parts):
            if tilt is not None:
                val += wq * _dot(np.broadcast_to(tilt, a.shape), a)
        return float(val)

    # -- adjoint and gradient ------------------------------------------------

    def _sweep_adjoint(self, ctrl: Control, out):
        """ctrl's adjoint, levels nt, ..., 0, into the level sink out.  A
        full adjoint of ctrl that is cached or held is replayed into out;
        else (always for out None, a StateTrajectory) solve_adjoint sweeps,
        with the tracking right-hand sides and terminal data around ctrl's
        state.  The terminal velocity pairs only with divergence-free
        directions, so its datum is the projected misfit."""
        if out is not None:
            adj = self._held["adjoint"].get(self._key("adjoint", ctrl))
            if adj is not None:
                return adj.replay(out, range(self.tg.nt, -1, -1))
        w = self.weights
        traj = self.state(ctrl)
        duT, dthT = self._terminal_misfits(traj)
        wT = self.grid.leray_project(w.beta1 * duT) if w.beta1 else None
        psiT = w.beta2 * dthT if w.beta2 else None
        return sen.solve_adjoint(self.grid, self.phys, self.tg, traj,
                                 _AdjointSources(self, traj), wT, psiT, out)

    def adjoint(self, ctrl: Control, out=None):
        """The full adjoint: w in u, Psi in theta (see
        sensitivity.solve_adjoint), cached.  Given a level sink out, hands
        it the adjoint's levels nt, ..., 0 instead (_sweep_adjoint) and
        returns it; no kind is touched."""
        if out is None:
            return self._cached("adjoint", self._key("adjoint", ctrl),
                                lambda: self._sweep_adjoint(ctrl, None))
        return self._sweep_adjoint(ctrl, out)

    def restricted_adjoint(self, ctrl: Control) -> Control:
        """The adjoint's levels 0..nt-1 (level nt is terminal data) restricted
        to the control regions: grad_J without its Tikhonov and tilt terms,
        cached as the gradient kind.  A miss replays a held full adjoint
        into the windows, or sweeps into them.  The result may be a cache
        entry; callers must not modify it."""
        return self._cached("gradient", self._key("gradient", ctrl), lambda: Control(
            self.space, *self._sweep_adjoint(ctrl, _GradientWindows(self.space)).restrict()))

    def grad_J(self, ctrl: Control) -> Control:
        """Pointwise gradient density on the control regions, a fresh Control.

        The directional derivative is the control-space L2 product of this
        object with the direction.
        """
        grad = Control(self.space, *(a.copy() for a in self.restricted_adjoint(ctrl).parts))
        for out, a, (eps, tilt) in zip(grad.parts, ctrl.parts, self._control_terms()):
            if eps:
                out += eps * a
            if tilt is not None:
                out += tilt
        return grad

    # -- tangent along a control direction ------------------------------------

    def tangent(self, ctrl: Control, delta: Control) -> StateTrajectory:
        traj = self.state(ctrl)
        return sen.solve_linearized(self.grid, self.phys, self.tg, traj,
                                    ControlSources(delta))

    def second_variation(self, ctrl: Control, delta: Control,
                         lin: StateTrajectory | None = None) -> float:
        """Quadratic form J''(ctrl)[delta, delta] via one tangent + one adjoint."""
        return self.second_bilinear(ctrl, delta, delta, lin, lin)

    def second_bilinear(self, ctrl: Control, d1: Control, d2: Control,
                        lin1: StateTrajectory | None = None,
                        lin2: StateTrajectory | None = None) -> float:
        """Assembled bilinear form behind the second variation.

        Tracking curvature of the two tangents, plus the pairing of the
        bilinear advection sources with the adjoint (the discrete version of
        the -2((v.grad)v, w) and -2(v.grad theta, Psi) terms), plus Tikhonov.
        """
        w = self.weights
        g = self.grid
        dt = self.tg.dt
        nt = self.tg.nt
        if lin1 is None:
            lin1 = self.tangent(ctrl, d1)
        if lin2 is None:
            lin2 = self.tangent(ctrl, d2) if d2 is not d1 else lin1
        val = 0.0
        if w.beta1:
            val += w.beta1 * g.inner(lin1.u[nt], lin2.u[nt])
        if w.beta2:
            val += w.beta2 * g.inner(lin1.theta[nt], lin2.theta[nt])
        adj = self.adjoint(ctrl) if self.phys.coupling else None
        rhs = sen.second_rhs(g, lin1, lin2)
        for k in range(nt):
            # level k + 1's tracking curvature, then step k's bilinear
            # sources, formed as they are paired with the adjoint
            val += dt * (w.alpha1 * g.inner(lin1.u[k + 1], lin2.u[k + 1])
                         + w.alpha2 * g.inner(lin1.theta[k + 1], lin2.theta[k + 1]))
            if adj is not None:
                f, h = rhs.at(k)
                val += dt * (g.inner(adj.u[k], f) + g.inner(adj.theta[k], h))
        wq = self.space.map.weight
        for (eps, _), a, b in zip(self._control_terms(), d1.parts, d2.parts):
            if eps:
                val += eps * wq * _dot(a, b)
        return val


def _plus(a, b):
    """a + b, with None a zero field: the other operand itself if one is None."""
    return a if b is None else b if a is None else a + b


def _minus(a, s):
    """a - s, fresh; a itself when s is None, so callers must not modify the
    result in place."""
    return a if s is None else a - s


class _AdjointSources:
    """The adjoint sweep's sources, formed per level as the sweep reads them:
    at(k) = (alpha1 (u_k - u_d) + eta_u, alpha2 (theta_k - theta_d) + eta_th),
    each datum at level k."""

    def __init__(self, prob: Problem, traj: StateTrajectory):
        self.prob, self.traj = prob, traj

    def at(self, k):
        prob, t, w = self.prob, self.prob.targets, self.prob.weights
        du, dth = prob._misfits(k, self.traj.u[k], self.traj.theta[k])
        return (_plus(w.alpha1 * du, at_level(t.eta_u, k)),
                _plus(w.alpha2 * dth, at_level(t.eta_th, k)))


class _GradientWindows:
    """Level sink of an adjoint sweep keeping, of each level k < nt, only
    the windows ControlMap.restrict reads (ControlMap.take): three slice
    copies a level, where StateTrajectory.put copies the whole level.
    restrict() is ControlMap.restrict of the windows of the sweep's levels
    0..nt-1, taken as one stack, bit for bit."""

    def __init__(self, space: ControlSpace):
        g, nt = space.grid, space.tg.nt
        self.map = space.map
        w, psi = self.map.take(g.vec2(), g.scalar())
        self.w = Vec2(np.empty((nt,) + w.u.shape), np.empty((nt,) + w.v.shape))
        self.psi = np.empty((nt,) + psi.shape)

    def put(self, k, u, theta, p):
        if k < len(self.psi):
            self.w[k], self.psi[k] = self.map.take(u, theta)

    def restrict(self):
        return self.map.restrict(self.w, self.psi)
