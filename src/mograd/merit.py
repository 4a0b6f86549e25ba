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
minimizes the model max_i [parts_i + g_i.d] + |d|^2 / (2t).  Its weights
theta are in closed form for two objectives; for three or more they come
from a shifted min-norm QP over the simplex, with proximal steps when the
columns are affinely dependent (see ``_subproblem_weights``).  A step is
accepted when h falls by at least a quarter of the model's predicted
decrease; t then doubles if h fell by at least three quarters of it (the
usual trust-region ratio rule) and stays otherwise, so that t does not
oscillate around the largest acceptable step; a rejected step halves t.
Starting from z = x (where h = 0) and only accepting descent steps keeps the
returned phi nonnegative by construction; a warm start is used only when it
is already below that baseline.  The stop tests (see ``MeritResult``) use
fixed constants: no caller needs others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import as_point, gradient_matrix, objective_values
from .simplex_qp import _check_finite, min_norm_in_hull

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
    that no decrease above rounding is left.  It stops unconverged when the
    predicted decrease is not finite, or after 100 consecutive halvings of t
    or 5000 subproblems.
    """

    phi: float
    z: np.ndarray
    residual: float
    converged: bool
    iterations: int


def _subproblem_weights(grads, parts, t):
    """theta maximizing theta.parts - (t/2)||G theta||^2 over the simplex.

    For two columns, theta = (1 - tau, tau) and d = g_2 - g_1 make the
    objective a concave quadratic in tau, maximized at
    tau = clip(((parts_2 - parts_1)/t - g_1.d) / |d|^2, 0, 1); for d = 0 it
    is linear, and the vertex with the larger part wins, (1, 0) on a tie.
    Columns or parts whose sums there are not finite take the general path.

    The general path first refuses columns or parts that are not finite with
    the hull QPs' ``NonFiniteInput``.  With (g_i - g_0).v = (parts_i -
    parts_0)/t the objective equals -(t/2)||(G - v 1^T) theta||^2 plus a
    constant on the simplex, so one min-norm QP solves it.  When the columns
    are affinely dependent the shift can leave a residual r of parts/t; the
    objective then has a linear part theta.r along directions that fix
    G theta, and proximal steps on theta carry it in m extra coordinates
    until theta stops moving.
    """
    m = grads.shape[1]
    if m == 2:
        dd = gd = 0.0
        for a, b in grads.tolist():
            d = b - a
            dd += d * d
            gd += a * d
        p1, p2 = parts.tolist()
        dp = (p2 - p1) / t
        # NaN or inf here, from the data or from an overflowed square,
        # leaves the closed form before any weight is formed
        if math.isfinite(dd + gd + dp):
            if dd > 0.0:
                tau = min(max((dp - gd) / dd, 0.0), 1.0)
            else:
                tau = 1.0 if dp > 0.0 else 0.0
            return np.array([1.0 - tau, tau])
    _check_finite(grads, parts)
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


def require_merit(prob):
    """Raise ``MeritUnavailable`` unless ``prob`` supports merit evaluation."""
    if not prob.merit_supported:
        raise MeritUnavailable(f"{prob.name}: inner problem is not level bounded; merit disabled")


def merit_value(prob, x, warm_start=None):
    """Evaluate phi at ``x`` by solving the inner min-max problem.

    ``x`` must be a finite point of dimension ``prob.n``, and a
    ``warm_start`` must have that shape: ValueError otherwise.
    """
    require_merit(prob)
    x = as_point(prob, x)
    fx = objective_values(prob, x)

    z = x.copy()
    parts = np.zeros(prob.m)
    h = 0.0
    if warm_start is not None:
        cand = np.asarray(warm_start, dtype=float)
        if cand.shape != (prob.n,):
            raise ValueError(f"expected a warm start of dimension {prob.n}")
        cand_parts = objective_values(prob, cand) - fx
        # maxima are read by index, as the hull QPs' are (see simplex_qp)
        cand_h = float(cand_parts[cand_parts.argmax()])
        if cand_h < h:
            z, parts, h = cand.copy(), cand_parts, cand_h

    grads = gradient_matrix(prob, z)
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
        model = parts + d @ grads
        pred = h - float(model[model.argmax()])
        if not math.isfinite(pred):
            # an overflowed or NaN model can neither descend nor certify
            break
        if pred <= 8.0 * _EPS * (1.0 + abs(h)):
            converged = True
            break
        cand = z + d
        cand_parts = objective_values(prob, cand) - fx
        cand_h = float(cand_parts[cand_parts.argmax()])
        accepted = cand_h <= h - 0.25 * pred
        expand = cand_h <= h - 0.75 * pred
        if accepted:
            z, parts, h = cand, cand_parts, cand_h
        if residual <= _INNER_TOL:
            converged = True
            break
        if accepted:
            grads = gradient_matrix(prob, z)
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

