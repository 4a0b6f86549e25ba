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
guard against cycling under rounding.  Wolfe's method is finite from any
corral, a face of the simplex whose affine minimizer has only positive
weights, so it can start from a face other than a single vertex: both QPs
take an optional ``start``, and the weights of a previous solve of a nearby
problem (the solvers' and the flows' consecutive iterates) make the support
of that solve the start face.  Minor cycles turn the start face into a
corral; the same minor cycles follow each major cycle.  The start changes
the work, not the certified answer.  Termination is certified by the
Frank-Wolfe gap

    gap(theta) = max_i <p - v, p - scale * g_i>,   p = scale * G @ theta,

which upper-bounds the objective suboptimality, so a returned gap below the
tolerance is a genuine optimality certificate.  For ``m == 1`` and ``m == 2``
closed forms replace the iteration (bi-objective problems dominate the
benchmark suite).

Both certify at the fixed tolerance ``DEFAULT_TOL``, relaxed relative to the
squared scale of the data (see ``_REL_TOL``).  That tolerance is only the
certificate.  Wolfe's method stops on its own relative test, a gap of at
most ``_REL_TOL`` times the largest squared norm of the shifted points, or
when rounding stalls it: on data as small as the flows' h^2-scaled hulls an
absolute stopping test would accept any vertex.  The certificate compares the
gap with ``DEFAULT_TOL`` first and computes the scale only when that fails:
at small n the scale (a column-norm reduction and a dot product) costs as
much as the closed form itself, and the relative allowance is needed only
for data of large magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10

# Relative safeguard: with gradient data of magnitude ~Z the Frank-Wolfe gap
# carries rounding noise of order eps * Z^2, so a purely absolute tolerance is
# unreachable for large-scale data.  The effective tolerance is
# max(DEFAULT_TOL, _REL_TOL * quadratic_scale), or DEFAULT_TOL alone when that
# scale overflows.
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
            the active set (0 for the closed forms).  The minor cycles that
            make the start face a corral are not counted, so a solve started
            from its own solution reports 0.
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


def _effective_tol(S, v):
    """``max(DEFAULT_TOL, _REL_TOL * q_scale)`` for the squared data scale.

    An overflowed scale gets no relative allowance: ``inf`` would certify
    every finite gap.
    """
    col_sq = np.einsum("ij,ij->j", S, S)
    q_scale = max(1.0, float(col_sq.max()), float(v @ v))
    if not math.isfinite(q_scale):
        return DEFAULT_TOL
    return max(DEFAULT_TOL, _REL_TOL * q_scale)


def _fw_gap(S, v, theta):
    """Frank-Wolfe gap max_i <p - v, p - s_i> for p = S @ theta, columns s_i."""
    p = S @ theta
    r = p - v
    # max(), not a comparison, so that a NaN slack stays a NaN gap
    return p, max(float(r @ p - (r @ S).min()), 0.0)


def _closed_form(S, v):
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
    converged = gap <= DEFAULT_TOL or gap <= _effective_tol(S, v)
    return HullSolution(theta, point, gap, converged, 0)


def _affine_minimizer(A):
    """Weights with unit sum minimizing ``||A @ w||``, for active columns ``A``.

    Solved as least squares on the column differences ``A[:, i] - A[:, 0]``:
    the Gram/KKT form would square the condition number of near-collinear
    hulls.  Faces of up to three columns are solved in closed form:

    * one column is its own minimizer;
    * for two, the least-squares problem has one column and is the unclamped
      segment formula of ``_closed_form``;
    * for three, modified Gram-Schmidt on the two difference columns,
      applied to the right-hand side as well, gives the QR factors and the
      projected right-hand side, and back substitution the weights.

    ``lstsq`` solves faces of four or more columns, faces of two or three
    columns whose dot products overflow, and faces of three whose
    differences are nearly dependent, where the minimizer is (nearly) not
    unique and ``lstsq`` picks the one of least norm.
    """
    k = A.shape[1]
    if k == 1:
        return np.ones(1)
    if k == 2:
        a = A[:, 0]
        d = A[:, 1] - a
        dd = float(d @ d)
        ad = float(a @ d)
        if dd < math.inf and math.isfinite(ad):
            # lstsq's minimum-norm answer z = 0 for equal columns
            z = -ad / dd if dd > 0.0 else 0.0
            return np.array([1.0 - z, z])
    elif k == 3:
        w = _face3(A)
        if w is not None:
            return w
    z = np.linalg.lstsq(A[:, 1:] - A[:, :1], -A[:, 0], rcond=None)[0]
    return np.concatenate(([1.0 - z.sum()], z))


# A three-column face goes to lstsq when its difference columns are
# dependent to about half the working precision: when r11 * r22, the product
# of their singular values, is at most this fraction of the sum of their
# squares.  There the closed form would amplify rounding where lstsq
# truncates to the minimizer of least norm.
_DEPENDENT_RTOL = 1e-8


def _face3(A):
    """The affine minimizer of three columns by modified Gram-Schmidt, or None.

    With a = A[:, 0] and d_i = A[:, i] - a, it minimizes
    ||a + z_1 d_1 + z_2 d_2||: d_1 = r11 q_1 and d_2 = r12 q_1 + r22 q_2, the
    right-hand side -a is reduced by q_1 and then by q_2, and back
    substitution gives z.  None for a degenerate or overflowing face.
    """
    a = A[:, 0]
    d1 = A[:, 1] - a
    d2 = A[:, 2] - a
    r11 = math.sqrt(d1 @ d1)
    if not 0.0 < r11 < math.inf:
        return None
    q1 = d1 / r11
    r12 = float(q1 @ d2)
    u = d2 - r12 * q1
    r22 = math.sqrt(u @ u)
    if not r11 * r22 > _DEPENDENT_RTOL * (r11 * r11 + r12 * r12 + r22 * r22):
        return None
    c1 = -float(q1 @ a)
    c2 = -float(u @ (a + c1 * q1)) / r22
    z2 = c2 / r22
    z1 = (c1 - r12 * z2) / r11
    if not (math.isfinite(z1) and math.isfinite(z2)):
        return None
    return np.array([1.0 - (z1 + z2), z1, z2])


def _minor_cycles(P, active, lam, mu):
    """Wolfe's minor cycles: from convex weights ``lam`` on the face ``active``
    toward its affine minimizer ``mu``, until the face is a corral.

    While ``mu`` has a weight <= 0, step from ``lam`` toward ``mu`` up to the
    simplex boundary, drop the column whose weight reaches zero and re-solve
    the smaller face.  Every pass drops a column and one column is a corral,
    so this ends.  Returns the corral and its weights, all positive.
    """
    while (mu <= 0.0).any():
        neg = np.nonzero(mu <= 0.0)[0]
        ratios = lam[neg] / (lam[neg] - mu[neg])
        lam = lam + float(ratios.min()) * (mu - lam)
        lam[neg[np.argmin(ratios)]] = 0.0
        keep = lam > 0.0
        active = [a for a, k in zip(active, keep) if k]
        lam = lam[keep]
        mu = _affine_minimizer(P[:, active])
    return active, mu


def _wolfe(S, v, start):
    """Wolfe's min-norm-point method for three or more columns of ``S``.

    It runs on the shifted points p_i = s_i - v: the point x of conv{p_i}
    nearest the origin gives the projection v + x, with the same weights.

    The start face is the support of ``start`` (its entries > 0), or, with
    no start or no positive entry, the single column of least norm.  The
    weights begin uniform on that face, and minor cycles toward its affine
    minimizer make it a corral: a face whose affine minimizer has only
    positive weights; that start-up is not counted as a cycle.  Each major
    cycle then adds the column minimizing <x, p_i> and runs the minor cycles
    again, until the gap ||x||^2 - min_i <x, p_i> meets Wolfe's relative test
    or rounding stalls the method.  The stall test ``j in active`` is sound
    because x is always the affine minimizer of a corral, where every active
    column has <x, p_i> = ||x||^2.
    """
    m = S.shape[1]
    P = S - v[:, None]
    full = list(range(m))

    def columns(face):
        # the face of every column, in order, is P itself: no gather
        return P if face == full else P[:, face]

    face = [] if start is None else [i for i, w in enumerate(start.tolist()) if w > 0.0]
    if not face:
        face = [int(np.einsum("ij,ij->j", P, P).argmin())]
    lam = np.array([1.0 / len(face)] * len(face))
    active, lam = _minor_cycles(P, face, lam, _affine_minimizer(columns(face)))
    x = columns(active) @ lam

    # Wolfe's relative stopping test, gap <= _REL_TOL * max_i ||p_i||^2: the
    # absolute DEFAULT_TOL would accept any face of data smaller than ~1e-5,
    # such as the flow's h^2-scaled hulls.  As ||x||^2 <= max_i ||p_i||^2,
    # a gap that passes the first comparison passes the test, and the
    # column norms are computed only when it fails.
    stop = None
    cycles = 0
    while cycles < _MAX_CYCLES:
        dots = x @ P
        j = int(dots.argmin())
        xx = x @ x
        gap = xx - dots[j]
        if gap <= _REL_TOL * xx or j in active:
            break
        if stop is None:
            q = float(np.einsum("ij,ij->j", P, P).max())
            # an overflowed scale allows nothing, as in _effective_tol
            stop = _REL_TOL * q if math.isfinite(q) else 0.0
        if gap <= stop:
            break
        entering = active + [j]
        mu = _affine_minimizer(columns(entering))
        if not mu[-1] > 0.0:
            # in exact arithmetic the entering column gets positive weight;
            # here rounding has stalled the method
            break
        cycles += 1
        active, lam = _minor_cycles(P, entering, np.append(lam, 0.0), mu)
        x = columns(active) @ lam

    if active == full:
        theta = lam / lam.sum()
    else:
        theta = np.zeros(m)
        theta[active] = lam
        theta /= theta.sum()
    point, gap = _fw_gap(S, v, theta)
    converged = gap <= DEFAULT_TOL or gap <= _effective_tol(S, v)
    return HullSolution(theta, point, gap, converged, cycles)


def _validate_start(start, m):
    # the solvers pass their previous weights, already an array; skipping
    # the conversion call matters at m <= 2, where a solve costs ~15 us
    if not isinstance(start, np.ndarray):
        start = np.asarray(start, dtype=float)
    if start.shape != (m,):
        raise ValueError("start weights shape does not match gradient columns")
    return start


def project_onto_scaled_hull(G, scale, v, start=None):
    """Nearest point of ``scale * conv{columns of G}`` to ``v``.

    Minimizes ``0.5 * ||scale * G @ theta - v||^2`` over the simplex and
    certifies the result by the Frank-Wolfe gap.  When rounding stalls the
    method above the tolerance, or it hits the cycle cap, the last iterate is
    returned with ``converged=False`` instead of raising; degenerate hulls
    (equal columns) are fine because only the point is unique, not the
    weights.

    ``start``, of shape ``(m,)``, warm-starts Wolfe's method from the face
    of its positive entries, typically the weights of the previous solve of a
    nearby problem.  It changes the work, not the answer: a start with no
    positive entry is a cold start, and the closed forms (m <= 2) ignore it.
    """
    G = _validate_columns(G)
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    v = np.asarray(v, dtype=float)
    if v.shape != (G.shape[0],):
        raise ValueError("target vector shape does not match gradient columns")
    if not np.isfinite(v).all():
        raise NonFiniteInput("target vector contains NaN or Inf")
    if start is not None:
        start = _validate_start(start, G.shape[1])
    S = scale * G
    return _closed_form(S, v) if G.shape[1] <= 2 else _wolfe(S, v, start)


def min_norm_in_hull(G, start=None):
    """Projection of the origin onto ``conv{columns of G}``.

    Specialization of :func:`project_onto_scaled_hull` with unit scale and a
    zero target, with the same ``start``.  The norm of the returned point is
    the KKT residual: it vanishes exactly at Pareto-critical points.
    """
    G = _validate_columns(G)
    if start is not None:
        start = _validate_start(start, G.shape[1])
    # 1.0 * G == G exactly, so G serves as the scaled columns
    v = np.zeros(G.shape[0])
    return _closed_form(G, v) if G.shape[1] <= 2 else _wolfe(G, v, start)
