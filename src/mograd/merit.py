"""Merit function: the largest uniform objective improvement available.

    phi(x) = sup_z min_i [f_i(x) - f_i(z)]

phi is nonnegative everywhere and zero exactly at weak Pareto points, which
makes it the multiobjective stand-in for the optimality gap f(x) - f(x*).
Evaluating it means globally minimizing the convex max-function

    h(z) = max_i [f_i(z) - f_i(x)],        phi(x) = -min_z h(z).

The inner solve is the prox-linear method for this max of smooth functions
(Drusvyatskiy and Paquette, "Efficiency of minimizing compositions of convex
functions and smooth maps", Math. Prog. 2019).  At z, with
parts = F(z) - F(x) and gradient columns G, the step d = -t G theta
minimizes the model max_i [parts_i + g_i.d] + |d|^2 / (2t); its weights
theta come from one min-norm QP over the simplex.  A step is accepted when h
falls by at least a quarter of the model's predicted decrease; t then
doubles if h fell by at least three quarters of it (the usual trust-region
ratio rule) and stays otherwise, so that t does not oscillate around the
largest acceptable step; a rejected step halves t.  Starting from z = x
(where h = 0) and only accepting descent steps keeps the returned phi
nonnegative by construction; a warm start is used only when it is already
below that baseline.  The stop tests (see ``MeritResult``) use fixed
constants: no caller needs others.

``merit_grid_oracle`` is an independent check for two-dimensional problems:
it maximizes min_i [f_i(x) - f_i(z)] over a dense rectangular grid, a lower
bound on phi that converges as the grid refines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simplex_qp import min_norm_in_hull

_EPS = float(np.finfo(float).eps)

# Stationarity target for the prox-gradient mapping |G theta| (see
# MeritResult.residual), and the cap on subproblem solves, accepted or not.
_INNER_TOL = 1e-8
_INNER_MAX_ITER = 5000

# Consecutive rejected steps before the inner solve gives up.
_MAX_HALVINGS = 100

# Proximal steps on the subproblem weights when the columns are affinely
# dependent; a few suffice, the cap only stops rounding from cycling.
_MAX_PROX_STEPS = 100


class DimensionUnsupported(ValueError):
    """The grid oracle only handles two-dimensional decision spaces."""


class MeritUnavailable(ValueError):
    """Inner problem is not level bounded for this problem instance."""


@dataclass(frozen=True)
class MeritResult:
    """Merit value with its certificate.

    ``phi`` = -h(z) is a lower bound on the true merit value, +0.0 when no
    step was accepted.  ``residual`` is |G theta| = |z - z_next| / t at the
    last subproblem, the norm of the prox-gradient mapping, which vanishes
    exactly at minimizers of h.  The solve stops ``converged`` when it falls
    to 1e-8 (the step at hand is still taken if it passes the decrease test)
    or when the model's predicted decrease is at most 8 eps (1 + |h|), so
    that no decrease above rounding is left.  It stops unconverged after 100
    consecutive halvings of t or 5000 subproblems.
    """

    phi: float
    z: np.ndarray
    residual: float
    converged: bool
    iterations: int


def _subproblem_weights(grads, parts, t):
    """theta maximizing theta.parts - (t/2)||G theta||^2 over the simplex.

    With (g_i - g_0).v = (parts_i - parts_0)/t the objective equals
    -(t/2)||(G - v 1^T) theta||^2 plus a constant on the simplex, so one
    min-norm QP solves it.  When the columns are affinely dependent the shift
    can leave a residual r of parts/t; the objective then has a linear part
    theta.r along directions that fix G theta, and proximal steps on theta
    carry it in m extra coordinates until theta stops moving.
    """
    m = grads.shape[1]
    v, _, rank, _ = np.linalg.lstsq(
        (grads[:, 1:] - grads[:, :1]).T, (parts[1:] - parts[0]) / t, rcond=None
    )
    P = grads - v[:, None]
    theta = min_norm_in_hull(P).weights
    r = (parts - parts[0]) / t - v @ (grads - grads[:, :1])
    if rank == m - 1 or not r.any():
        return theta
    # a small sigma makes long proximal steps; 1e-3 keeps the lifted entries
    # within 1e3 of sqrt|r|, far from rounding trouble in the QP
    sigma = 1e-3 * math.sqrt(float(np.abs(r).max()))
    for _ in range(_MAX_PROX_STEPS):
        extra = sigma * np.eye(m) - (r / sigma + sigma * theta)[:, None]
        prev, theta = theta, min_norm_in_hull(np.vstack((P, extra))).weights
        if np.abs(theta - prev).max() <= 1e-12:
            break
    return theta


def merit_value(prob, x, warm_start=None):
    """Evaluate phi at ``x`` by solving the inner min-max problem."""
    if not prob.merit_supported:
        raise MeritUnavailable(
            f"{prob.name}: inner problem is not level bounded; merit disabled"
        )
    x = np.asarray(x, dtype=float)
    fx = prob.objectives(x)

    z = x.copy()
    parts = np.zeros(prob.m)
    h = 0.0
    if warm_start is not None:
        cand = np.asarray(warm_start, dtype=float)
        cand_parts = prob.objectives(cand) - fx
        cand_h = float(np.max(cand_parts))
        if cand_h < h:
            z, parts, h = cand.copy(), cand_parts, cand_h

    grads = prob.gradient_columns(z)
    residual = np.inf
    converged = False
    t = 1.0
    halvings = 0
    its = 0
    for its in range(1, _INNER_MAX_ITER + 1):
        theta = _subproblem_weights(grads, parts, t)
        step = grads @ theta
        residual = math.sqrt(step @ step)
        d = -t * step
        pred = h - float(np.max(parts + d @ grads))
        if pred <= 8.0 * _EPS * (1.0 + abs(h)):
            converged = True
            break
        cand = z + d
        cand_parts = prob.objectives(cand) - fx
        cand_h = float(np.max(cand_parts))
        accepted = cand_h <= h - 0.25 * pred
        expand = cand_h <= h - 0.75 * pred
        if accepted:
            z, parts, h = cand, cand_parts, cand_h
        if residual <= _INNER_TOL:
            converged = True
            break
        if accepted:
            grads = prob.gradient_columns(z)
            if expand:
                t *= 2.0
            halvings = 0
        else:
            t *= 0.5
            halvings += 1
            if halvings == _MAX_HALVINGS:
                break

    # 0.0 - h, not -h: h stays 0.0 when no step is accepted, and phi = -0.0
    # would then print as "-0.0"
    return MeritResult(
        phi=0.0 - h,
        z=z,
        residual=residual,
        converged=converged,
        iterations=its,
    )


def merit_grid_oracle(prob, x, box, resolution=801):
    """Grid lower bound for phi on 2-D problems.

    ``box`` is ((x1_lo, x1_hi), (x2_lo, x2_hi)) and must contain the level
    set L(F, F(x)), where the inner maximizer lives.  Returns the maximum of
    min_i [f_i(x) - f_i(z)] over the resolution x resolution lattice.
    """
    if prob.n != 2:
        raise DimensionUnsupported("grid oracle requires a 2-D decision space")
    x = np.asarray(x, dtype=float)
    (lo1, hi1), (lo2, hi2) = box
    g1 = np.linspace(lo1, hi1, resolution)
    g2 = np.linspace(lo2, hi2, resolution)
    Z = np.stack(
        [np.repeat(g1, resolution), np.tile(g2, resolution)], axis=1
    )
    fx = prob.objectives(x)
    if prob.objectives_batch is not None:
        fz = prob.objectives_batch(Z)
    else:
        fz = np.array([prob.objectives(z) for z in Z])
    return float(np.max(np.min(fx - fz, axis=1)))
