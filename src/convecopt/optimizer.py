"""Box-constrained minimization and first-order/structural diagnostics.

The solver is a spectral projected gradient method with a nonmonotone Armijo
line search.  Diagnostics implement the pointwise sign conditions of the
first-order optimality theorem, the bang-bang mass fraction, and the
least-squares estimator for the structural measure condition
|{ |adjoint| <= eps }| <= c eps^mu on the control regions.  Every fitted
exponent, here and in the lab, is a log-log `Fit` (fit_loglog) with one
reliability rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .objective import Control, Problem

# Clamp of every trial step length, and the step after a non-positive curvature
STEP_MIN, STEP_MAX = 1e-10, 1e6
# |gradient| up to which the pointwise sign conditions count as met
SIGN_TOL = 1e-6


@dataclass(frozen=True)
class OptOptions:
    max_iters: int = 500
    kkt_tol: float = 1e-6
    initial_step: float = 1.0
    armijo: float = 1e-4
    backtrack: float = 0.5
    max_backtracks: int = 30
    nonmonotone_window: int = 10
    stagnation_window: int = 20
    stagnation_rtol: float = 1e-14

    def __post_init__(self):
        if self.kkt_tol <= 0 or self.initial_step <= 0:
            raise ValueError("tolerances and steps must be positive")
        if not (0.0 < self.backtrack < 1.0):
            raise ValueError("backtrack factor must lie in (0, 1)")


@dataclass
class OptResult:
    control: Control
    J_history: list
    kkt_history: list
    iterations: int
    termination: str
    bang_fraction: tuple
    step_history: list = field(default_factory=list)
    backtrack_history: list = field(default_factory=list)


def project_box(ctrl: Control) -> Control:
    """Componentwise clamp onto the admissible box."""
    sp = ctrl.space
    return Control(sp, *(np.clip(a, lo, hi) for a, (lo, hi) in zip(ctrl.parts, sp.bounds)))


def kkt_residual_from_grad(ctrl: Control, grad: Control) -> float:
    """L1-normalized natural-residual norm of the variational inequality."""
    proj = project_box(ctrl.axpy(-1.0, grad))
    diff = ctrl.axpy(-1.0, proj)
    return diff.norm_l1() / (1.0 + grad.norm_l1())


def bang_bang_fraction(ctrl: Control):
    """Fraction of control mass within 1e-6 of the box gap of either bound.

    Returns a pair (force fraction, heat fraction), one per component.
    """
    out = []
    for a, (lo, hi) in zip(ctrl.parts, ctrl.space.bounds):
        b = 1e-6 * (hi - lo)
        out.append(float(np.count_nonzero((a <= lo + b) | (a >= hi - b))) / a.size)
    return tuple(out)


def projected_gradient(prob: Problem, ctrl0: Control, opts: OptOptions) -> OptResult:
    """Spectral projected gradient with nonmonotone Armijo backtracking.

    Minimizes prob's objective, perturbed if prob is (Problem.perturbed).
    Deterministic given its inputs.  A failed line search returns the best
    iterate found with the termination reason recorded rather than raising.
    """
    x = project_box(ctrl0)
    J = prob.eval_J(x)
    g = prob.grad_J(x)
    kkt = kkt_residual_from_grad(x, g)
    J_hist = [J]
    kkt_hist = [kkt]
    step_hist = []
    bt_hist = []
    term = "max_iters"
    it = 0
    step = opts.initial_step
    while it < opts.max_iters:
        if kkt <= opts.kkt_tol:
            term = "kkt_tol"
            break
        ref = max(J_hist[-opts.nonmonotone_window:])
        cand = None
        n_bt = 0
        s = min(max(step, STEP_MIN), STEP_MAX)
        while n_bt <= opts.max_backtracks:
            trial = project_box(x.axpy(-s, g))
            d = trial.axpy(-1.0, x)
            dn2 = d.dot_l2(d)
            if dn2 == 0.0:
                break
            Jt = prob.eval_J(trial)
            if Jt <= ref + opts.armijo * g.dot_l2(d):
                cand = (trial, Jt, d, s)
                break
            s *= opts.backtrack
            n_bt += 1
        if cand is None:
            term = "line_search_failure"
            break
        trial, Jt, d, s_used = cand
        g_new = prob.grad_J(trial)
        # Barzilai-Borwein step from the accepted displacement
        sy = d.dot_l2(g_new.axpy(-1.0, g))
        ss = d.dot_l2(d)
        step = ss / sy if sy > 0 else STEP_MAX
        x, J, g = trial, Jt, g_new
        kkt = kkt_residual_from_grad(x, g)
        J_hist.append(J)
        kkt_hist.append(kkt)
        step_hist.append(s_used)
        bt_hist.append(n_bt)
        it += 1
        if it >= opts.stagnation_window:
            recent = J_hist[-opts.stagnation_window:]
            if max(recent) - min(recent) <= opts.stagnation_rtol * (1.0 + abs(J)):
                if kkt > opts.kkt_tol:
                    term = "stagnation"
                break
    if kkt <= opts.kkt_tol:
        term = "kkt_tol"
    return OptResult(x, J_hist, kkt_hist, it, term,
                     bang_bang_fraction(x), step_hist, bt_hist)


@dataclass
class ViolationReport:
    """Quadrature mass of cells violating the pointwise sign conditions."""

    mass_q: float
    mass_th: float
    total_mass_q: float
    total_mass_th: float


def pointwise_sign_check(prob: Problem, ctrl: Control) -> ViolationReport:
    """Check the a.e. sign conditions of the first-order theorem.

    At the lower bound the gradient must be >= -tol, at the upper bound
    <= tol, and in the interior |gradient| <= tol, with tol = SIGN_TOL.
    Returns the dt*volume mass of violations for the force and heat
    components.
    """
    tol = SIGN_TOL
    sp = ctrl.space
    g = prob.grad_J(ctrl)
    w = sp.map.weight
    bad = []
    for a, ga, (lo, hi) in zip(ctrl.parts, g.parts, sp.bounds):
        b = 1e-9 * max(hi - lo, 1.0)
        lower, upper = a <= lo + b, a >= hi - b
        inner = ~(lower | upper)
        bad.append((lower & (ga < -tol)) | (upper & (ga > tol)) | (inner & (np.abs(ga) > tol)))
    return ViolationReport(*(w * float(np.count_nonzero(m)) for m in bad),
                           *(w * m.size for m in bad))


@dataclass
class Fit:
    """Least-squares fit of log y = slope log x + intercept on n_used points
    (fit_loglog), for every fitted exponent.  `reliable` is the one rule:
    at least min_points points, a finite slope and R^2 >= 0.8 (the R^2 of
    two points is 1 whatever they are)."""

    slope: float
    intercept: float
    r2: float
    n_used: int
    min_points: int

    @property
    def reliable(self):
        return self.n_used >= self.min_points and np.isfinite(self.slope) and self.r2 >= 0.8

    def reported(self, value):
        """value if the fit is reliable, else the string saying that it is not."""
        return value if self.reliable else "no reliable fit"

    def describe(self):
        return self.reported(f"{self.slope:.4f} (R^2 {self.r2:.4f})")


def loglog_fit(x, y):
    """OLS fit of log y vs log x; returns slope, intercept, R^2."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    pred = A @ coef
    sse = float(np.sum((ly - pred) ** 2))
    sst = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - sse / sst
    return float(coef[0]), float(coef[1]), r2


def fit_loglog(x, y, keep=True, min_points=2) -> Fit:
    """Fit of the points with x > 0 and y > 0 where keep (a mask) holds;
    below two such points, a nan slope and intercept with R^2 0."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    use = (x > 0) & (y > 0) & keep
    n = int(np.count_nonzero(use))
    if n < 2:
        return Fit(np.nan, np.nan, 0.0, n, min_points)
    return Fit(*loglog_fit(x[use], y[use]), n, min_points)


@dataclass
class MeasureFit(Fit):
    """A measure-condition Fit of mass against eps, with both curves."""

    eps: np.ndarray = None
    mass: np.ndarray = None

    @property
    def mu_hat(self):
        """The fitted exponent: +inf when every mass is zero, nan below two points."""
        return self.slope

    @property
    def vacuous(self):
        """Every mass is zero: the condition holds with any exponent."""
        return self.slope == np.inf


def smallness_mass(values, eps, weight):
    """Quadrature mass of {|value| <= eps}; values is any array."""
    return weight * float(np.count_nonzero(np.abs(values) <= eps))


def measure_condition_estimate(values, eps_grid, weight) -> MeasureFit:
    """Fit the smallness-set growth |{|field| <= eps}| ~ c eps^mu.

    `values` are the adjoint samples on a control region over time, `weight`
    the dt*cell-volume quadrature weight.  Entries with zero mass (field
    bounded away from zero there) or saturated mass (the whole region) are
    excluded from the fit, which is reliable only on three of them or
    more.  All-zero masses return a +inf marker meaning the structural
    condition holds vacuously; fewer than two fitted entries, a nan one.

    Under this measure condition the Tikhonov-regularized solutions are
    predicted to approach the bang-bang one at L1 rate eps^mu (D. Wachsmuth
    and G. Wachsmuth, Control Cybernet. 40, 2011); stability_lab.tikhonov_path
    compares its fitted slope with mu_hat.
    """
    eps_grid = np.asarray(eps_grid, dtype=float)
    if eps_grid.ndim != 1 or len(eps_grid) < 2:
        raise ValueError("eps_grid must hold at least two points")
    if np.any(eps_grid <= 0) or np.any(np.diff(eps_grid) <= 0):
        raise ValueError("eps_grid must be positive and strictly increasing")
    flat = np.abs(np.asarray(values).ravel())
    total = weight * flat.size
    mass = np.array([smallness_mass(flat, e, weight) for e in eps_grid])
    if not np.any(mass > 0):
        return MeasureFit(np.inf, 0.0, 1.0, 0, 3, eps_grid, mass)
    fit = fit_loglog(eps_grid, mass, mass < total, min_points=3)
    return MeasureFit(**vars(fit), eps=eps_grid, mass=mass)


def adjoint_restriction_samples(prob: Problem, ctrl: Control):
    """Adjoint gradient densities on the control regions, per component.

    Returns (w1, w2, psi) arrays of shape (nt, ncells); these are the fields
    whose smallness sets the structural measure condition constrains.  The
    Tikhonov and tilt contributions are excluded: the condition is about the
    adjoint state itself.
    """
    r = prob.restricted_adjoint(ctrl)
    return r.q[:, 0], r.q[:, 1], r.th


def adjoint_measure_fits(prob: Problem, ctrl: Control, eps_grid):
    """measure_condition_estimate of each adjoint density on eps_grid, as
    {"w1": fit, "w2": fit, "psi": fit}."""
    weight = prob.space.map.weight
    return {name: measure_condition_estimate(vals, eps_grid, weight)
            for name, vals in zip(("w1", "w2", "psi"),
                                  adjoint_restriction_samples(prob, ctrl))}
