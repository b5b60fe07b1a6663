"""The gradient converges: grad J_h self-converges at second order.

Duality checks that the adjoint is the exact transpose of the tangent, and
the Taylor tests that the gradient is the derivative of the discrete map;
this checks that the discrete gradient density approaches a limit under
refinement.  Each level solves one problem with the control regions
[0.25, 0.75]^2 and [0.5, 1]^2, aligned with every grid, Fourier targets,
initial data and sources (their coefficient draws do not depend on the
grid) and a smooth control sampled at cell centres and step midpoints, with
dt proportional to h^2.  A level's gradient is compared with the next
finer one averaged over 2x2 cells and 4 steps, in L2(Q).  The CI workflow
runs self_convergence on the finer levels 16/32/64 (nt 10/40/160) too.
"""

import numpy as np

from convecopt.config import build_problem, from_dict
from convecopt.objective import Control


def gradient_density(n, nt):
    """grad J_h on an n x n grid with nt steps, each control component as a
    (nt, [2,] n, n) field zero off its region, and the weight dt * vol."""
    fourier = {"kind": "fourier"}
    prob = build_problem(from_dict({
        "grid": {"nx": n, "ny": n}, "time": {"nt": nt},
        "control": {"q_region": [0.25, 0.75, 0.25, 0.75],
                    "h_region": [0.5, 1.0, 0.5, 1.0]},
        "targets": fourier, "initial": fourier, "sources": fourier}))
    space, g, tg = prob.space, prob.grid, prob.tg
    t = ((np.arange(nt) + 0.5) * tg.dt / tg.T)[:, None]
    x, y = g.xc[space.mask_q.ii], g.yc[space.mask_q.jj]
    q = 0.5 * np.stack((np.sin(np.pi * t) * np.cos(np.pi * x) * y,
                        np.cos(np.pi * t) * x * np.sin(np.pi * y)), axis=1)
    x, y = g.xc[space.mask_h.ii], g.yc[space.mask_h.jj]
    th = 0.5 * np.cos(2 * t) * np.sin(np.pi * x) * np.cos(np.pi * y)
    fields = []
    for a, mask in zip(prob.grad_J(Control(space, q, th)).parts,
                       (space.mask_q, space.mask_h)):
        full = np.zeros(a.shape[:-1] + (n, n))
        full[..., mask.ii, mask.jj] = a
        fields.append(full)
    return fields, tg.dt * g.vol


def coarsen(a):
    """Averages of a (nt, ..., n, n) field over 4 steps and 2x2 cells."""
    nt, n = a.shape[0], a.shape[-1]
    b = a.reshape((nt // 4, 4) + a.shape[1:-2] + (n // 2, 2, n // 2, 2))
    return b.mean(axis=(1, -3, -1))


def self_convergence(levels, nts):
    """The L2(Q) distances between successive levels' gradients, and the
    order log2 of the last two distances' ratio."""
    grads = [gradient_density(n, nt) for n, nt in zip(levels, nts)]
    errs = [float(np.sqrt(weight * sum(np.sum((c - coarsen(f)) ** 2)
                                       for c, f in zip(coarse, fine))))
            for (coarse, weight), (fine, _) in zip(grads, grads[1:])]
    return errs, float(np.log2(errs[-2] / errs[-1]))


def test_coarsening_averages_steps_and_cells():
    a = np.arange(8 * 2 * 4 * 4, dtype=float).reshape(8, 2, 4, 4)
    c = coarsen(a)
    assert c.shape == (2, 2, 2, 2)
    assert c[1, 1, 0, 1] == a[4:8, 1, 0:2, 2:4].mean()


def test_gradient_self_converges_at_second_order():
    errs, order = self_convergence((8, 16, 32), (4, 16, 64))
    assert errs[0] > errs[1] > 0
    assert order >= 1.7, (errs, order)
