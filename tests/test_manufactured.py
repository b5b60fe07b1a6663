"""A manufactured optimum: a bang-bang control rho* whose own state y* is
the target, under the control tilt s = sign(r) |r|^(1/kappa), rho* at the
lower bound where s > 0 and at the upper bound where s < 0.

The misfits vanish at rho*, so the adjoint is zero and grad J(rho*) = s
exactly; and J(rho) >= <s, rho> >= <s, rho*> = J(rho*) on the box, so rho*
is the global minimizer of the discrete problem, whatever the nonlinearity.
Terminal tracking holds y*(T); cylinder tracking holds y*'s nt + 1 levels.
"""

import dataclasses

import numpy as np
import pytest

from convecopt.config import build_problem, from_dict
from convecopt.objective import Control, ObjectiveWeights, Targets
from convecopt.optimizer import OptOptions, kkt_residual_from_grad, projected_gradient
from convecopt.stability_lab import control_distance_l1


def switching(space, kappa):
    """s = sign(r) |r|^(1/kappa), r = x - xbar - 0.1 sin(2 pi t / T) at the
    control cells' centres x (xbar their mean, per region) and the step
    midpoints t; the two force components take opposite signs."""
    g, tg = space.grid, space.tg
    t = (np.arange(tg.nt) + 0.5) * tg.dt

    def s(mask):
        x = (mask.ii + 0.5) * g.hx
        r = x - x.mean() - 0.1 * np.sin(2 * np.pi * t / tg.T)[:, None]
        return np.sign(r) * np.abs(r) ** (1.0 / kappa)

    sq = s(space.mask_q)
    return Control(space, np.stack((sq, -sq), axis=1), s(space.mask_h))


def manufactured(variant, kappa):
    """(problem, s, rho*) on the default regions at 8^2, nt = 6."""
    prob = build_problem(from_dict({"grid": {"nx": 8, "ny": 8}, "time": {"nt": 6}}))
    sp = prob.space
    s = switching(sp, kappa)
    assert all(np.all(a != 0) for a in s.parts)
    rho = Control(sp, *(np.where(a > 0, lo, hi) for a, (lo, hi) in zip(s.parts, sp.bounds)))
    y = prob.state(rho)
    if variant == "terminal":
        weights, targets = ObjectiveWeights(0, 0, 1, 1), Targets(u_T=y.u[-1], theta_T=y.theta[-1])
    else:
        weights, targets = ObjectiveWeights(1, 1, 0, 0), Targets(u_d=y.u, theta_d=y.theta)
    return dataclasses.replace(prob, weights=weights, targets=targets, tilt=s.parts), s, rho


@pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("variant", ["terminal", "cylinder"])
def test_the_manufactured_control_is_the_discrete_optimum(variant, kappa):
    prob, s, rho = manufactured(variant, kappa)
    grad = prob.grad_J(rho)
    assert all(np.array_equal(a, b) for a, b in zip(grad.parts, s.parts))
    assert kkt_residual_from_grad(rho, grad) == 0.0
    assert abs(prob.eval_J(rho) - s.dot_l2(rho)) <= 1e-15
    res = projected_gradient(prob, prob.space.zero(), OptOptions(kkt_tol=1e-10))
    assert control_distance_l1(res.control, rho) <= 1e-12, res.termination
