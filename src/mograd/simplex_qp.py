"""Simplex-constrained quadratic subproblems over gradient hulls.

Every solver and flow integrator in this package repeatedly solves one of two
small quadratic programs over the unit simplex.  Given a matrix ``G`` whose
columns ``g_1, ..., g_m`` are per-objective gradients at a point, the hull
``C = conv{g_1, ..., g_m}`` plays the role the gradient plays in the
single-objective case:

* ``min_norm_in_hull`` computes the projection of the origin onto ``C``,
  i.e. it minimizes ``0.5 * ||G @ theta||^2`` over the simplex.  Its norm is
  the KKT residual; its negation is the common descent direction.
* ``project_onto_scaled_hull`` computes the nearest point of ``scale * C``
  to an arbitrary vector ``v``, i.e. it minimizes
  ``0.5 * ||scale * G @ theta - v||^2`` over the simplex.

For ``m >= 3`` both are solved exactly by Wolfe's min-norm-point method
(P. Wolfe, "Finding the nearest point in a polytope", Math. Prog. 11, 1976),
a finite active-set algorithm, with a fixed cap on its major cycles as a
guard against cycling under rounding.  Termination is certified by the
Frank-Wolfe gap

    gap(theta) = max_i <p - v, p - scale * g_i>,   p = scale * G @ theta,

which upper-bounds the objective suboptimality, so a returned gap below the
tolerance is a genuine optimality certificate.  For ``m == 1`` and ``m == 2``
closed forms replace the iteration (bi-objective problems dominate the
benchmark suite).

The tolerance is relative to the squared scale of the data (see
``_REL_TOL``).  Wolfe's method needs it up front, as its stopping test.  The
closed forms compare their one gap with ``tol`` first and compute the scale
only when that fails: at small n the scale (a column-norm reduction and a
dot product) costs as much as the closed form itself, and the relative
allowance is needed only for data of large magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10

# Relative safeguard: with gradient data of magnitude ~Z the Frank-Wolfe gap
# carries rounding noise of order eps * Z^2, so a purely absolute tolerance is
# unreachable for large-scale data.  The effective tolerance is
# max(tol, _REL_TOL * quadratic_scale), or tol alone when that scale overflows.
_REL_TOL = 1e-12

# Wolfe's method adds one column per major cycle and terminates finitely in
# exact arithmetic; the cap only bounds the work when rounding stalls it.
_MAX_CYCLES = 500


class NonFiniteInput(ValueError):
    """Raised when a gradient matrix or target vector contains NaN/Inf."""


@dataclass(frozen=True)
class HullSolution:
    """Result of a simplex QP over a (scaled) gradient hull.

    Attributes:
        weights: simplex vector theta, nonnegative with sum 1.
        point: the hull element ``scale * G @ weights``.
        gap: Frank-Wolfe optimality gap at termination (certified bound on
            the objective suboptimality; nonnegative).
        converged: whether the gap met the effective tolerance.  When False
            the last iterate is returned and ``gap`` reports its gap.
        iterations: major cycles of Wolfe's method, i.e. columns added to
            the active set (0 for the closed forms).
    """

    weights: np.ndarray
    point: np.ndarray
    gap: float
    converged: bool
    iterations: int


def _validate_columns(G):
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] < 1 or G.shape[1] < 1:
        raise ValueError("gradient matrix must be 2-D with columns per objective")
    if not np.isfinite(G).all():
        raise NonFiniteInput("gradient matrix contains NaN or Inf")
    return G


def _validate_tol(tol):
    if not tol > 0:
        raise ValueError("tol must be positive")


def _effective_tol(S, v, tol):
    """``max(tol, _REL_TOL * q_scale)`` for the squared data scale ``q_scale``.

    An overflowed scale gets no relative allowance: ``inf`` would certify
    every finite gap.
    """
    col_sq = np.einsum("ij,ij->j", S, S)
    q_scale = max(1.0, float(col_sq.max()), float(v @ v))
    if not math.isfinite(q_scale):
        return tol
    return max(tol, _REL_TOL * q_scale)


def _fw_gap(S, v, theta):
    """Frank-Wolfe gap max_i <p - v, p - s_i> for p = S @ theta, columns s_i."""
    p = S @ theta
    r = p - v
    # max(), not a comparison, so that a NaN slack stays a NaN gap
    return p, max(float(r @ p - (r @ S).min()), 0.0)


def _closed_form(S, v, tol):
    """Exact solution for one or two columns of ``S``."""
    if S.shape[1] == 1:
        theta = np.ones(1)
    else:
        # 1-D projection of v onto the segment [s_2, s_1]
        s2 = S[:, 1]
        d = S[:, 0] - s2
        denom = d @ d
        if denom > 0.0:
            # np.clip's result, NaN and -0.0 included
            t = min(max(float((v - s2) @ d / denom), 0.0), 1.0)
        else:
            t = 1.0
        theta = np.array([t, 1.0 - t])
    point, gap = _fw_gap(S, v, theta)
    converged = gap <= tol or gap <= _effective_tol(S, v, tol)
    return HullSolution(theta, point, gap, converged, 0)


def _affine_minimizer(A):
    """Weights with unit sum minimizing ``||A @ w||``, for active columns ``A``.

    Solved as least squares on the column differences ``A[:, i] - A[:, 0]``:
    the Gram/KKT form would square the condition number of near-collinear
    hulls.
    """
    z = np.linalg.lstsq(A[:, 1:] - A[:, :1], -A[:, 0], rcond=None)[0]
    return np.concatenate(([1.0 - z.sum()], z))


def _wolfe(S, v, tol):
    """Wolfe's min-norm-point method for three or more columns of ``S``.

    It runs on the shifted points p_i = s_i - v: the point x of conv{p_i}
    nearest the origin gives the projection v + x, with the same weights.
    Each major cycle adds the column minimizing <x, p_i>; minor cycles move
    to the affine minimizer of the active set, stepping back to the simplex
    boundary and dropping columns until every active weight is positive.
    """
    tol_eff = _effective_tol(S, v, tol)
    m = S.shape[1]
    P = S - v[:, None]
    active = [int(np.argmin(np.einsum("ij,ij->j", P, P)))]
    lam = np.ones(1)
    x = P[:, active[0]]
    cycles = 0
    while cycles < _MAX_CYCLES:
        dots = x @ P
        j = int(np.argmin(dots))
        if x @ x - dots[j] <= tol_eff or j in active:
            break
        mu = _affine_minimizer(P[:, active + [j]])
        if not mu[-1] > 0.0:
            # in exact arithmetic the entering column gets positive weight;
            # here rounding has stalled the method
            break
        cycles += 1
        active.append(j)
        lam = np.append(lam, 0.0)
        while (mu <= 0.0).any():
            neg = np.nonzero(mu <= 0.0)[0]
            ratios = lam[neg] / (lam[neg] - mu[neg])
            lam = lam + float(ratios.min()) * (mu - lam)
            lam[neg[np.argmin(ratios)]] = 0.0
            keep = lam > 0.0
            active = [a for a, k in zip(active, keep) if k]
            lam = lam[keep]
            mu = _affine_minimizer(P[:, active])
        lam = mu
        x = P[:, active] @ lam

    theta = np.zeros(m)
    theta[active] = lam
    theta /= theta.sum()
    point, gap = _fw_gap(S, v, theta)
    return HullSolution(theta, point, gap, gap <= tol_eff, cycles)


def project_onto_scaled_hull(G, scale, v, tol=DEFAULT_TOL):
    """Nearest point of ``scale * conv{columns of G}`` to ``v``.

    Minimizes ``0.5 * ||scale * G @ theta - v||^2`` over the simplex and
    certifies the result by the Frank-Wolfe gap.  When rounding stalls the
    method above the tolerance, or it hits the cycle cap, the last iterate is
    returned with ``converged=False`` instead of raising; degenerate hulls
    (equal columns) are fine because only the point is unique, not the
    weights.
    """
    G = _validate_columns(G)
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    _validate_tol(tol)
    v = np.asarray(v, dtype=float)
    if v.shape != (G.shape[0],):
        raise ValueError("target vector shape does not match gradient columns")
    if not np.isfinite(v).all():
        raise NonFiniteInput("target vector contains NaN or Inf")
    S = scale * G
    return _closed_form(S, v, tol) if G.shape[1] <= 2 else _wolfe(S, v, tol)


def min_norm_in_hull(G, tol=DEFAULT_TOL):
    """Projection of the origin onto ``conv{columns of G}``.

    Specialization of :func:`project_onto_scaled_hull` with unit scale and a
    zero target.  The norm of the returned point is the KKT residual: it
    vanishes exactly at Pareto-critical points.
    """
    G = _validate_columns(G)
    _validate_tol(tol)
    # 1.0 * G == G exactly, so G serves as the scaled columns
    v = np.zeros(G.shape[0])
    return _closed_form(G, v, tol) if G.shape[1] <= 2 else _wolfe(G, v, tol)
