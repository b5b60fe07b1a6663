"""Perturbation and regularization experiments around a computed minimizer.

Everything here drives the objective/optimizer layers: solve the perturbed
problems warm-started from the unperturbed solution, record distances in the
norms the theory pairs (L1 for controls, L2 for states, sup-gradient for the
adjoints), and fit log-log exponents with ordinary least squares
(optimizer.fit_loglog), reliable on two points or more with R^2 >= 0.8.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import fourier_pair
from .boussinesq import LevelFold
from .objective import Control, Perturbation, Problem, KNOWN_FAMILIES, FOURIER_FIELDS
from .optimizer import (Fit, OptOptions, OptResult, projected_gradient,
                        project_box, kkt_residual_from_grad, fit_loglog,
                        adjoint_measure_fits)


# ---------------------------------------------------------------------------
# perturbation synthesis
# ---------------------------------------------------------------------------

def make_perturbation(prob: Problem, family: str, magnitude: float,
                      seed: int, modes: int = 4, decay: float = 2.0) -> Perturbation:
    """A perturbation of the given family with shapes drawn from `seed`.

    Shapes are unit-normalized so the magnitude parameter sets the scale;
    the reported size should still be the computed perturbation norm.  Of
    the Fourier families only `initial` makes its velocity divergence-free.
    """
    rng = np.random.default_rng(seed)
    if family == "control-tilt":
        # one level of each component: sigma drawn first, then lam
        draws = [rng.standard_normal(a.shape[1:]) for a in prob.space.zero().parts]
        sigma, lam = (t * (magnitude / max(np.abs(t).max(), 1e-300)) for t in draws)
        return Perturbation(sigma=sigma, lam=lam)
    if family in FOURIER_FIELDS:
        pair = fourier_pair(prob.grid, rng, magnitude, modes, decay,
                            div_free=family == "initial")
        return Perturbation(**dict(zip(FOURIER_FIELDS[family], pair)))
    if family == "tikhonov":
        return Perturbation(eps1=magnitude, eps2=magnitude)
    raise ValueError(f"unknown perturbation family {family!r}; "
                     f"known: {', '.join(KNOWN_FAMILIES)}")


# ---------------------------------------------------------------------------
# distances and norms, every one reduced one level at a time
# ---------------------------------------------------------------------------

def control_distance_l1(a: Control, b: Control) -> float:
    return a.axpy(-1.0, b).norm_l1()


def state_distance_l2(prob: Problem, ta, tb) -> float:
    """L2(Q) distance of two trajectories: velocity plus temperature."""
    g = prob.grid
    dt = prob.tg.dt

    def squares(k, u, theta):
        du, dth = u - tb.u[k], theta - tb.theta[k]
        return g.inner(du, du), g.inner(dth, dth)

    su, st = ta.replay(LevelFold(squares, np.add), range(1, prob.tg.nt + 1)).value
    return float(np.sqrt(dt * su) + np.sqrt(dt * st))


def state_distance_linf(ta, tb) -> float:
    return float(ta.replay(LevelFold(lambda k, u, theta: (u - tb.u[k]).max_abs(),
                                     np.maximum), range(len(ta.u))).value)


def _gradient_gap(prob: Problem, adj_b):
    """LevelFold of adjoint_gradient_gap against adj_b, level by level."""
    g = prob.grid
    return LevelFold(lambda k, w, psi: max(g.grad_inf(w - adj_b.u[k]),
                                           g.grad_inf(psi - adj_b.theta[k])),
                     np.maximum)


def adjoint_gradient_gap(prob: Problem, adj_a, adj_b) -> float:
    """sup-norm of the discrete gradients of (w - w*) and (Psi - Psi*)."""
    return float(adj_a.replay(_gradient_gap(prob, adj_b), range(len(adj_a.u))).value)


# ---------------------------------------------------------------------------
# perturbed solves
# ---------------------------------------------------------------------------

def solve_perturbed(pprob: Problem, ctrl0: Control, opts: OptOptions) -> OptResult:
    """Minimize the objective of the perturbed problem pprob (made once per
    lab point, by Problem.perturbed) starting from ctrl0."""
    return projected_gradient(pprob, ctrl0, opts)


@dataclass
class StabilityRecord:
    magnitude: float
    zeta_norm: float
    control_dist_l1: float
    state_dist_l2: float
    state_dist_linf: float
    adjoint_grad_gap: float
    kkt: float
    iterations: int
    termination: str
    seed: int
    in_trust_region: bool
    flags: str = ""


@dataclass
class SweepPlan:
    family: str
    magnitudes: np.ndarray
    seed: int = 0
    modes: int = 4
    decay: float = 2.0
    warm_start: bool = True
    threads: int = 1        # ignored; acceptance test_11 passes threads=4
    trust_radius: float | None = None

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=float)
        if np.any(mags <= 0) or np.any(np.diff(mags) <= 0):
            raise ValueError("magnitudes must be positive and strictly increasing")
        self.magnitudes = mags


@dataclass
class SweepReport:
    records: list
    control_fit: Fit
    state_fit: Fit
    linf_constant: float      # fitted c in |u-u*|_inf <= c |rho-rho*|_L1^(1/s)
    exponent_consistency: bool


def default_trust_radius(prob: Problem) -> float:
    """0.1 * M_U * |control region| * T (the configurable locality radius)."""
    sp = prob.space
    area = sp.grid.vol * (sp.mask_q.ncells + sp.mask_h.ncells)
    return 0.1 * sp.m_u * area * prob.tg.T


def stability_sweep(prob: Problem, ctrl_star: Control, plan: SweepPlan,
                    opts: OptOptions, s_norm: int = 4) -> SweepReport:
    """Distances of perturbed solutions vs perturbation size, with fits.

    Each magnitude solves an independent perturbed problem warm-started at
    the reference solution; the points run one after another in magnitude
    order, on copies of prob that share its caches.
    """
    base_state = prob.state(ctrl_star)
    base_adj = prob.adjoint(ctrl_star)
    # before the points, which may evict ctrl_star from the caches
    records = [StabilityRecord(0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
                               kkt_residual_from_grad(ctrl_star, prob.grad_J(ctrl_star)),
                               0, "reference", plan.seed, True)]
    trust = plan.trust_radius if plan.trust_radius is not None \
        else default_trust_radius(prob)

    for idx, mag in enumerate(plan.magnitudes, start=1):
        pert = make_perturbation(prob, plan.family, mag, plan.seed + idx,
                                 plan.modes, plan.decay)
        start = ctrl_star if plan.warm_start else prob.space.zero()
        pprob = prob.perturbed(pert)
        res = solve_perturbed(pprob, start, opts)
        dl1 = control_distance_l1(res.control, ctrl_star)
        pstate = pprob.state(res.control)
        # the point's adjoint is reduced as its sweep makes it, never stored
        gap = pprob.adjoint(res.control, _gradient_gap(prob, base_adj)).value
        records.append(StabilityRecord(
            magnitude=mag,
            zeta_norm=pert.norm_P(prob.grid, res.control, s=s_norm),
            control_dist_l1=dl1,
            state_dist_l2=state_distance_l2(prob, pstate, base_state),
            state_dist_linf=state_distance_linf(pstate, base_state),
            adjoint_grad_gap=float(gap),
            kkt=res.kkt_history[-1],
            iterations=res.iterations,
            termination=res.termination,
            seed=plan.seed + idx,
            in_trust_region=dl1 <= trust,
            flags=";".join((() if plan.warm_start else ("cold-start", "non-local"))
                           + (() if res.termination in ("kkt_tol", "stagnation")
                              else ("unconverged",))),
        ))
        del pstate      # left to the cache, so the next point's solve evicts it
    zn = [r.zeta_norm for r in records]
    cfit = fit_loglog(zn, [r.control_dist_l1 for r in records])
    sfit = fit_loglog(zn, [r.state_dist_l2 for r in records])
    # fitted constant of the sup-norm vs control-distance consistency check
    cs = [r.state_dist_linf / r.control_dist_l1 ** (1.0 / s_norm)
          for r in records if r.control_dist_l1 > 0]
    linf_c = max(cs) if cs else 0.0
    consistent = True
    if cfit.reliable and sfit.reliable:
        consistent = sfit.slope >= 0.5 * cfit.slope - 0.15
    return SweepReport(records, cfit, sfit, linf_c, consistent)


# ---------------------------------------------------------------------------
# Tikhonov continuation
# ---------------------------------------------------------------------------

@dataclass
class PathPoint:
    eps: float
    control_dist_l1: float
    J: float
    kkt: float
    iterations: int


@dataclass
class PathReport:
    points: list
    fit: Fit
    mu_hat: float            # best reliable measure fit at the base (nan if none)
    mu_r2: float
    slope_vs_mu: float       # fitted slope minus mu_hat (nan if unreliable)


def tikhonov_path(prob: Problem, ctrl_star: Control, eps_grid,
                  opts: OptOptions, measure_eps_grid=None) -> PathReport:
    """Warm-started continuation over decreasing Tikhonov weights.

    eps_grid must be strictly decreasing; a trailing 0 reproduces the base
    problem and must return the reference solution unchanged.  Under the
    measure condition with exponent mu, the L1 distance to the reference
    is predicted to shrink like eps^mu (D. Wachsmuth and G. Wachsmuth,
    Control Cybernet. 40, 2011), so the fitted slope is compared with the
    measure fit's mu_hat: slope_vs_mu = slope - mu_hat.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if np.any(np.diff(eps_grid) >= 0):
        raise ValueError("eps_grid must be strictly decreasing")
    if np.any(eps_grid < 0):
        raise ValueError("eps values must be nonnegative")
    points = []
    current = ctrl_star
    for eps in eps_grid:
        pprob = prob.perturbed(Perturbation(eps1=float(eps), eps2=float(eps)))
        res = solve_perturbed(pprob, current, opts)
        current = res.control
        points.append(PathPoint(float(eps),
                                control_distance_l1(res.control, ctrl_star),
                                res.J_history[-1],
                                res.kkt_history[-1],
                                res.iterations))
    fit = fit_loglog([p.eps for p in points], [p.control_dist_l1 for p in points])
    if measure_eps_grid is None:
        measure_eps_grid = np.geomspace(1e-4, 1e-1, 8)
    fits = adjoint_measure_fits(prob, ctrl_star, measure_eps_grid).values()
    reliable = [f for f in fits if f.reliable]
    if reliable:
        best = max(reliable, key=lambda f: f.r2)
        mu_hat, mu_r2 = best.mu_hat, best.r2
    elif all(f.vacuous for f in fits):
        mu_hat, mu_r2 = np.inf, 1.0
    else:
        mu_hat, mu_r2 = np.nan, 0.0
    gap = np.nan
    if fit.reliable and np.isfinite(mu_hat) and mu_hat > 0:
        gap = fit.slope - mu_hat
    return PathReport(points, fit, mu_hat, mu_r2, gap)


# ---------------------------------------------------------------------------
# growth-assumption probes
# ---------------------------------------------------------------------------

@dataclass
class GrowthSample:
    radius: float
    delta_l1: float
    lhs: float
    rhs: float
    ratio: float
    kind: str


@dataclass
class GrowthReport:
    variant: str
    tau: float
    samples: list
    min_ratio_per_radius: dict
    c_hat: float
    mu_hat: float              # slope - 1 of the control variant's fit
    fit: Fit
    tracking_misfit: float
    adjoint_grad_sup: float
    delta_hat: float
    margin: float              # min(alpha1, alpha2) - 2 max_k(|grad w_k|inf + |grad Psi_k|inf)

    @property
    def margin_positive(self):
        return self.margin > 0


def _random_directions(prob: Problem, ctrl_star: Control, n, rng):
    """Admissible directions: box vertices and smooth interior moves."""
    sp = prob.space
    out = []
    for i in range(n):
        kind = "smooth" if i % 2 else "vertex"
        parts = []
        for a, (lo, hi) in zip(ctrl_star.parts, sp.bounds):
            if kind == "vertex":
                v = np.where(rng.random(a.shape) < 0.5, lo, hi)
            else:
                v = np.clip(a + rng.standard_normal(a.shape), lo, hi)
            parts.append(v - a)
        d = Control(sp, *parts)
        if d.norm_l1() > 0:
            out.append((d, kind))
    return out


def tracking_margin(prob: Problem, ctrl_star: Control, s_norm: int = 4):
    """Tracking-closeness quantities at the reference solution.

    Returns (misfit, sup-gradient of the adjoint pair, delta_hat, margin): the
    sup-gradient is max_k (|grad w_k|inf + |grad Psi_k|inf), at most the sum of
    the two sups, and margin = min(alpha1, alpha2) - 2 * sup-gradient.
    """
    g = prob.grid
    nt = prob.tg.nt

    def powers(k, u, theta):
        # |misfit_k|_s^s of each component
        return tuple(g.norm_lp(d, s_norm) ** s_norm for d in prob._misfits(k, u, theta))

    mu, mt = prob.tg.dt * prob.state(ctrl_star).replay(LevelFold(powers, np.add),
                                                       range(1, nt + 1)).value
    mis = float(mu ** (1.0 / s_norm) + mt ** (1.0 / s_norm))
    sup = float(prob.adjoint(ctrl_star).replay(
        LevelFold(lambda k, w, psi: g.grad_inf(w) + g.grad_inf(psi), np.maximum),
        range(nt + 1)).value)
    delta_hat = 2.0 * sup / mis if mis > 0 else np.inf
    margin = min(prob.weights.alpha1, prob.weights.alpha2) - 2.0 * sup
    return mis, sup, delta_hat, margin


def growth_probe(prob: Problem, ctrl_star: Control, n_samples, radius_grid,
                 seed, variant="control", tau=0.5, s_norm: int = 4) -> GrowthReport:
    """Empirical test of the first/second-variation growth assumptions.

    For each radius r, admissible points rho = rho* + r*(direction) are
    sampled; LHS = J'(rho*)(delta) + tau*J''(rho*)(delta)^2 is compared to
    the variant's growth quantity: the control L1 norm to a fitted power, or
    the squared state distance.
    """
    if variant not in ("control", "state"):
        raise ValueError("variant must be 'control' or 'state'")
    rng = np.random.default_rng(seed)
    grad = prob.grad_J(ctrl_star)
    base_state = prob.state(ctrl_star)
    dirs = _random_directions(prob, ctrl_star, n_samples, rng)
    samples = []
    per_radius = {}
    xs, ys = [], []
    for r in np.asarray(radius_grid, dtype=float):
        if r <= 0:
            continue
        ratios = []
        for d, kind in dirs:
            cand = project_box(ctrl_star.axpy(r, d))
            delta = cand.axpy(-1.0, ctrl_star)
            dl1 = delta.norm_l1()
            if dl1 == 0.0:
                continue
            lin = prob.tangent(ctrl_star, delta)
            lhs = grad.dot_l2(delta) \
                + tau * prob.second_variation(ctrl_star, delta, lin=lin)
            if variant == "control":
                w = prob.weights
                g = prob.grid
                uT, thT = lin.u[-1], lin.theta[-1]
                term = w.beta1 * g.inner(uT, uT) + w.beta2 * g.inner(thT, thT)
                rhs = dl1 ** 2 + term     # quadratic reference; mu fitted below
                xs.append(dl1)
                ys.append(max(lhs, 0.0))
            else:
                pstate = prob.state(cand)
                rhs = state_distance_l2(prob, pstate, base_state) ** 2
            del lin     # no tangent outlives its sample
            ratio = lhs / rhs if rhs > 0 else np.inf
            ratios.append(ratio)
            samples.append(GrowthSample(float(r), dl1, lhs, rhs, ratio, kind))
        if ratios:
            per_radius[float(r)] = min(ratios)
    fit = fit_loglog(xs, ys)        # no points in the state variant: NaN
    mis, sup, delta_hat, margin = tracking_margin(prob, ctrl_star, s_norm)
    return GrowthReport(variant, tau, samples, per_radius, float(np.exp(fit.intercept)),
                        fit.slope - 1.0, fit, mis, sup, delta_hat, margin)


# ---------------------------------------------------------------------------
# second-order stability
# ---------------------------------------------------------------------------

@dataclass
class SecondOrderReport:
    skipped: bool
    reason: str
    margin: float
    zeta_norm: float
    smallness: float           # |zeta|_P + |zeta|_P^(1/5)
    min_ratio: float
    adjoint_margin_degradation: float
    samples: list


def second_order_stability_check(prob: Problem, ctrl_star: Control,
                                 pert: Perturbation, n_samples, seed,
                                 opts: OptOptions, tracking,
                                 s_norm: int = 4) -> SecondOrderReport:
    """Positivity of the perturbed second variation against state distances.

    tracking is tracking_margin(prob, ctrl_star, s_norm), which the caller
    has already computed.  Requires its margin to be positive; otherwise
    returns a skipped report with that margin.
    """
    margin = tracking[-1]
    if margin <= 0:
        return SecondOrderReport(True, "tracking-closeness margin not positive",
                                 margin, np.nan, np.nan, np.nan, np.nan, [])
    # taken while tracking_margin's adjoint is still the one cached
    adj_star = prob.adjoint(ctrl_star)
    pprob = prob.perturbed(pert)
    rho_hat = solve_perturbed(pprob, ctrl_star, opts).control
    zn = pert.norm_P(prob.grid, rho_hat, s=s_norm)
    small = zn + zn ** 0.2
    pstate_hat = pprob.state(rho_hat)
    adj_hat = pprob.adjoint(rho_hat)
    degr = adjoint_gradient_gap(prob, adj_hat, adj_star)
    rng = np.random.default_rng(seed)
    dirs = _random_directions(prob, rho_hat, n_samples, rng)
    ratios = []
    samples = []
    for d, kind in dirs:
        cand = project_box(rho_hat.axpy(1.0, d))
        delta = cand.axpy(-1.0, rho_hat)
        if delta.norm_l1() == 0.0:
            continue
        j2 = pprob.second_variation(rho_hat, delta)
        cstate = pprob.state(cand)
        dist2 = state_distance_l2(prob, cstate, pstate_hat) ** 2
        if dist2 > 0:
            ratios.append(j2 / dist2)
            samples.append((kind, delta.norm_l1(), j2, dist2))
    mr = min(ratios) if ratios else np.inf
    return SecondOrderReport(False, "", margin, zn, small, mr, degr, samples)
