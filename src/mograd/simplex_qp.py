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

For ``m == 2`` a closed form solves both.  For ``m == 3`` they are first
solved on the 3x3 Gram matrix of p_0, p_1 - p_0 and p_2 - p_0 over the
shifted points p_i = scale * g_i - v (two numpy products, then nine Python
floats): the interior affine minimizer when its 2x2 system is well posed and
all three weights are positive, else the best of the three edges, each
clamped by the segment formula of ``closed_form_rows``.  A Gram matrix
squares the face's condition number (A. Bjorck, "Numerical Methods for Least
Squares Problems", 1996), so the Gram arithmetic does not decide: its answer
is kept only when Wolfe's relative stopping test (below) passes on numpy's
certificate at x = P theta.  Otherwise, and for any other ``m``, they are
solved exactly by Wolfe's min-norm-point method (P. Wolfe, "Finding the
nearest point in a polytope", Math. Prog. 11, 1976), a finite active-set
algorithm, with a fixed cap on its major cycles as a guard against cycling
under rounding.  Wolfe's method is finite from any corral, a face of the
simplex whose affine minimizer has only positive weights (a single column
is one), so it can start from a face other than a single vertex: both QPs
take an optional ``start``, and the weights of a previous solve of a nearby
problem (the solvers' and the flows' consecutive iterates) make the support
of that solve the start face.  The closed form and the Gram solve ignore the
start, which serves four or more columns and the fallback.  The start
changes the work, not the certified answer.  Most warm solves start on
their optimal corral and make no major cycle, so they cost the fixed cost
of a call, which is why ``min_norm_in_hull`` subtracts no target and
products go through ``ndarray.dot``, which computes those of ``@`` (up to
the sign of an exact zero) with less overhead.  Termination is certified by
the Frank-Wolfe gap

    gap(theta) = max_i <p - v, p - scale * g_i>,   p = scale * G @ theta,

which upper-bounds the objective suboptimality, so a returned gap below the
tolerance is a genuine optimality certificate.  Wolfe's method and the Gram
solve report the gap at their last iterate x = p - v, ||x||^2 - min_i <x,
p_i> over the shifted points: the same gap in exact arithmetic.

Both certify at the fixed tolerance ``DEFAULT_TOL``, relaxed relative to the
squared scale of the data (see ``_REL_TOL``).  That tolerance is only the
certificate.  Wolfe's method stops on its own relative test, a gap of at
most ``_REL_TOL`` times the largest squared norm of the shifted points, or
when rounding stalls it: on data as small as the flows' h^2-scaled hulls an
absolute stopping test would accept any vertex.  The relative allowance
matters only for data of large magnitude, so the scale is computed only
when the gap exceeds ``DEFAULT_TOL``.

The two-objective design.  At m = 2 the package works on Python floats,
not numpy arrays: ``closed_form_rows`` solves both QPs on the rows of ``G``
and a target list; the solvers' and the flow's m = 2 steps hold their
vectors as lists of floats and call it directly, building no
``HullSolution``; and the oracles of quad2, toi4 and sd compute on floats
and return their gradient as rows (``problems.gradient_rows``).  Arrays are
built only for the oracles' points, the traces and the line search's
slopes.  The reason is size: the bi-objective problems have few variables,
and numpy's per-call dispatch on such small vectors outweighs the
arithmetic.  Two bit conditions follow.  The steps' norms come from
``math.hypot`` and ``math.dist``, which may differ from numpy's dot product
in the last bit, so a float step may round differently from a numpy one.
Dot products stay numpy's (sd's linear objective, jos1's squared norms, the
line search's slopes), since a left-to-right sum on floats may differ from
numpy's dot in the last bit.  Any other m calls the two public QPs on
arrays, warm-started from the previous weights.
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


class _NonFiniteFace(ArithmeticError):
    """A face whose difference columns are not finite: Wolfe stops there."""


@dataclass(slots=True)
class HullSolution:
    """Result of a simplex QP over a (scaled) gradient hull.

    A plain slotted record, not a frozen one: every solve builds one, and a
    frozen dataclass sets each field through ``object.__setattr__``.

    Attributes:
        weights: simplex vector theta, nonnegative with sum 1; NaN when
            the closed form (m = 2) overflowed, as for
            ``min_norm_in_hull([[1e300, 1e300], [1e300, -1e300]])``, and
            then ``converged`` is False.
        point: the hull element ``scale * G @ weights``.
        gap: Frank-Wolfe optimality gap at termination (certified bound on
            the objective suboptimality; nonnegative, or NaN when it
            overflowed).  The closed form (m = 2) computes it at ``point``;
            the Gram solve (m = 3) at its weights, and Wolfe's method
            reports its loop's gap at its last iterate, and inf when a face
            that is not finite stopped it before the first.
        converged: whether the gap met the effective tolerance.  When False
            the last iterate is returned and ``gap`` reports its gap.
        iterations: major cycles of Wolfe's method, i.e. columns added to
            the active set (0 for the closed forms: the m = 2 segment and a
            kept m = 3 Gram solve).  The minor cycles that
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
    return G


def _check_finite(G, v=None):
    # G is checked as given, not scaled: a finite G whose scaled columns
    # overflow gets a solution flagged unconverged, not an exception.  A
    # finite sum of squares shows every entry finite at the cost of one
    # vdot each (vdot, unlike dot, does not warn when a square overflows);
    # only when it is not do numpy's elementwise tests run, to raise or to
    # find that a square merely overflowed
    if math.isfinite(float(np.vdot(G, G)) + (0.0 if v is None else float(np.vdot(v, v)))):
        return
    if not np.isfinite(G).all():
        raise NonFiniteInput("gradient matrix contains NaN or Inf")
    if v is not None and not np.isfinite(v).all():
        raise NonFiniteInput("target vector contains NaN or Inf")


def _effective_tol(q_scale):
    """``max(DEFAULT_TOL, _REL_TOL * q_scale)`` for the squared data scale.

    ``q_scale`` is ``max(1, max_i ||s_i||^2, ||v||^2)`` over the scaled
    columns and the target.  An overflowed scale gets no relative allowance:
    ``inf`` would certify every finite gap.
    """
    if not q_scale < math.inf:
        return DEFAULT_TOL
    return max(DEFAULT_TOL, _REL_TOL * q_scale)


def closed_form_rows(rows, scale, v):
    """Exact solution for two columns, on Python floats: the float kernel.

    ``rows`` are the rows of ``G`` as lists of two floats (``G.tolist()``
    in the QPs, ``problems.gradient_rows`` in the steps), ``v`` the target
    as a list of floats, and the hull is ``scale * conv{g_1, g_2}``.
    ``v`` None is the zero target at unit scale, the min-norm QP: ``scale``
    is then not read, and the passes make no scale product and subtract no
    target, with the result of ``1.0`` and ``[0.0] * n`` bit for bit.
    Returns ``(t, point, gap, converged)``: the weights are
    ``(t, 1 - t)``, ``point`` is ``scale * G @ (t, 1 - t)`` as a list, and
    ``gap`` and ``converged`` are those of a :class:`HullSolution`.
    ``min_norm_in_hull`` and ``project_onto_scaled_hull`` wrap it for
    m = 2, and the m = 2 steps call it directly.

    One pass over the rows gives the segment formula, a second the point
    and the Frank-Wolfe certificate ``r.p - min_i r.s_i`` for ``r = p - v``.
    A gap above ``DEFAULT_TOL`` takes a third pass, for the squared norms of
    the tolerance's scale.  The caller has checked ``scale`` and the shape of ``G`` (the steps through
    ``problems.gradient_rows``), and gives ``v`` the rows' length (the
    steps build it from points of n entries).  The finiteness of the rows
    and of ``v`` is checked on a sum that the first pass computes anyway and
    that is not finite when any input is not; only then does
    ``_check_finite`` run, to raise ``NonFiniteInput`` or to find that a
    square merely overflowed.
    """
    # 1-D projection of v onto the segment [s_2, s_1]
    dd = vd = 0.0
    if v is None:
        for a, b in rows:
            d = a - b
            dd += d * d
            vd -= b * d
    else:
        for (a, b), y in zip(rows, v):
            s2 = scale * b
            d = scale * a - s2
            dd += d * d
            vd += (y - s2) * d
    if not math.isfinite(dd + vd):
        _check_finite(np.array(rows), v if v is None else np.array(v))
    t = vd / dd if dd > 0.0 else 1.0
    # np.clip's result, NaN and -0.0 included
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    u = 1.0 - t
    # the point and the Frank-Wolfe certificate r.p - min_i r.s_i, r = p - v
    point = []
    rp = r1 = r2 = 0.0
    if v is None:
        for a, b in rows:
            p = a * t + b * u
            rp += p * p
            r1 += p * a
            r2 += p * b
            point.append(p)
    else:
        for (a, b), y in zip(rows, v):
            s1 = scale * a
            s2 = scale * b
            p = s1 * t + s2 * u
            r = p - y
            rp += r * p
            r1 += r * s1
            r2 += r * s2
            point.append(p)
    # numpy's min: NaN when either is NaN, where Python's min drops one;
    # max(), not a comparison, so that a NaN slack stays a NaN gap
    gap = max(rp - (r1 if r1 <= r2 else r2 if r2 < r1 else math.nan), 0.0)
    if gap <= DEFAULT_TOL:
        return t, point, gap, True
    # the squared norms of the tolerance's scale, max(1, c1, c2, ||v||^2)
    c1 = c2 = vv = 0.0
    if v is None:
        for a, b in rows:
            c1 += a * a
            c2 += b * b
    else:
        for (a, b), y in zip(rows, v):
            s1 = scale * a
            s2 = scale * b
            c1 += s1 * s1
            c2 += s2 * s2
            vv += y * y
    return t, point, gap, gap <= _effective_tol(max(1.0, c1, c2, vv))


def _affine_minimizer(A):
    """Weights with unit sum minimizing ``||A @ w||``, for active columns ``A``.

    Solved as least squares on the column differences ``A[:, i] - A[:, 0]``:
    the Gram/KKT form would square the condition number of near-collinear
    hulls.  One column is its own minimizer; for two, the least-squares
    problem has one column and is the unclamped segment formula of
    ``closed_form_rows``.  ``lstsq`` solves faces of three or more columns
    and faces of two whose dot products overflow; where the differences are
    (nearly) dependent the minimizer is (nearly) not unique, and ``lstsq``
    picks the one of least norm.  Differences that are not finite (scaled
    columns or their differences overflowed) raise ``_NonFiniteFace``
    instead: LAPACK fails on them.
    """
    k = A.shape[1]
    if k == 1:
        return np.ones(1)
    if k == 2:
        a = A[:, 0]
        d = A[:, 1] - a
        dd = float(d.dot(d))
        ad = float(a.dot(d))
        if dd < math.inf and math.isfinite(ad):
            # lstsq's minimum-norm answer z = 0 for equal columns
            z = -ad / dd if dd > 0.0 else 0.0
            return np.array([1.0 - z, z])
    D = A[:, 1:] - A[:, :1]
    # finite differences imply a finite first column, the right-hand side
    if not np.isfinite(D).all():
        raise _NonFiniteFace
    z = np.linalg.lstsq(D, -A[:, 0], rcond=None)[0]
    return np.concatenate(([1.0 - z.sum()], z))


# P @ _DIFFERENCES has the columns p_0, p_1 - p_0 and p_2 - p_0 of a
# three-column P, each difference rounded once
_DIFFERENCES = np.array([[1.0, -1.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _segment(aa, ab, bb):
    """``closed_form_rows``' clamped segment formula on Gram entries.

    For the segment from ``a`` to ``a + b`` with ``aa = <a, a>``,
    ``ab = <a, b>`` and ``bb = <b, b>``: the weight ``t`` of ``a + b`` at the
    point nearest the origin, and that point's squared norm.
    """
    t = -ab / bb if bb > 0.0 else 1.0
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return aa + t * (2.0 * ab + t * bb), t


def _triangle(P):
    """Weights of the point of conv{p_0, p_1, p_2} nearest the origin, or None.

    Solved on the 3x3 Gram matrix of a = p_0, d_1 = p_1 - p_0 and
    d_2 = p_2 - p_0, as nine Python floats: the affine minimizer
    a + z_1 d_1 + z_2 d_2 when its 2x2 system is well posed and all three
    weights are positive, else the best of the three clamped edges.  The Gram
    matrix squares the face's condition number, so the caller decides by
    the certificate whether to keep the answer.  None when the Gram matrix is
    not finite (the scaled data or their squares overflowed).
    """
    D = P.dot(_DIFFERENCES)
    (aa, ad1, ad2), (_, d11, d12), (_, _, d22) = D.T.dot(D).tolist()
    if not math.isfinite(aa + ad1 + ad2 + d11 + d12 + d22):
        return None
    det = d11 * d22 - d12 * d12
    if det > 0.0:
        z1 = (ad2 * d12 - ad1 * d22) / det
        z2 = (ad1 * d12 - ad2 * d11) / det
        w0 = 1.0 - (z1 + z2)
        if w0 > 0.0 and z1 > 0.0 and z2 > 0.0:
            return _unit_sum(w0, z1, z2)
    # the edges p_0 p_1, p_0 p_2 and p_1 p_2, the last from p_1 = a + d_1
    # along p_2 - p_1 = d_2 - d_1
    q1, t1 = _segment(aa, ad1, d11)
    q2, t2 = _segment(aa, ad2, d22)
    q3, t3 = _segment(aa + 2.0 * ad1 + d11, ad2 - ad1 + d12 - d11, d11 - 2.0 * d12 + d22)
    if q1 <= q2 and q1 <= q3:
        return _unit_sum(1.0 - t1, t1, 0.0)
    if q2 <= q3:
        return _unit_sum(1.0 - t2, 0.0, t2)
    return _unit_sum(0.0, 1.0 - t3, t3)


def _unit_sum(w0, w1, w2):
    # three weights as an array, scaled to their rounded sum as Wolfe's are
    total = w0 + w1 + w2
    return np.array([w0 / total, w1 / total, w2 / total])


def _stop_threshold(P):
    """Wolfe's relative stopping threshold ``_REL_TOL * max_i ||p_i||^2``.

    An overflowed scale allows nothing, as in ``_effective_tol``.
    """
    q = float(np.einsum("ij,ij->j", P, P).max())
    return _REL_TOL * q if q < math.inf else 0.0


def _minor_cycles(P, active, lam, mu):
    """Wolfe's minor cycles: from convex weights ``lam`` on the face ``active``
    toward its affine minimizer ``mu``, until the face is a corral.

    While ``mu`` has a weight <= 0, step from ``lam`` toward ``mu`` up to the
    simplex boundary, drop the column whose weight reaches zero and re-solve
    the smaller face.  Every pass drops a column and one column is a corral,
    so this ends.  Returns the corral and its weights, all positive.  The
    test runs on Python floats: a NaN weight fails it and ends the cycles.
    ``lam`` None stands for uniform weights, built only if a cycle runs.
    """
    while any(w <= 0.0 for w in mu.tolist()):
        if lam is None:
            lam = np.full(len(active), 1.0 / len(active))
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
    """Both QPs for one column or three or more, on the shifted points.

    For p_i = s_i - v, the point x of conv{p_i} nearest the origin gives
    the projection v + x, with the same weights.  ``v`` None is the zero
    target of ``min_norm_in_hull``: the shifted points are the columns of
    ``S`` themselves, with no subtraction.

    Three columns are first solved on their Gram matrix (``_triangle``).
    That answer is kept when Wolfe's own relative stopping test passes on
    numpy's certificate at x = P theta, the gap ||x||^2 - min_i <x, p_i>;
    otherwise, and for any other number of columns, Wolfe's method runs
    from ``start`` (``_wolfe_cycles``).  Either way the gap is then
    certified at ``DEFAULT_TOL``, or at ``_effective_tol`` of the data's
    scale ``max(1, max_i ||s_i||^2, ||v||^2)``, and the point is
    ``S @ theta``.
    """
    P = S if v is None else S - v[:, None]
    theta = _triangle(P) if S.shape[1] == 3 else None
    if theta is not None:
        x = P.dot(theta)
        xx = float(x.dot(x))
        gap = xx - float(x.dot(P).min())
        # a NaN gap fails both comparisons; ||x||^2 <= max_i ||p_i||^2, so
        # the column norms are reduced only when the first one fails
        if not (gap <= _REL_TOL * xx or gap <= _stop_threshold(P)):
            theta = None
        finite, cycles = True, 0
    if theta is None:
        theta, gap, finite, cycles = _wolfe_cycles(P, start)
    point = S.dot(theta)
    # max(), not a comparison, so that a NaN gap stays NaN
    gap = max(float(gap), 0.0)
    # a solve stopped on a face that is not finite is never certified, and
    # a gap within DEFAULT_TOL needs no scale
    if not finite or gap <= DEFAULT_TOL:
        return HullSolution(theta, point, gap, finite, cycles)
    vv = 0.0 if v is None else float(v.dot(v))
    q_scale = max(1.0, float(np.einsum("ij,ij->j", S, S).max()), vv)
    return HullSolution(theta, point, gap, gap <= _effective_tol(q_scale), cycles)


def _wolfe_cycles(P, start):
    """Wolfe's min-norm-point method on the columns of ``P``.

    The start face is the support of ``start`` (its entries > 0), or, with
    no start or no positive entry, the single column of least norm.  The
    weights begin uniform on that face, and minor cycles toward its affine
    minimizer make it a corral: a face whose affine minimizer has only
    positive weights; that start-up is not counted as a cycle.  Each major
    cycle then adds the column minimizing <x, p_i> and runs the minor cycles
    again, until the gap ||x||^2 - min_i <x, p_i> meets Wolfe's relative test
    or rounding stalls the method.  The stall test ``j in active`` is sound
    because x is always the affine minimizer of a corral, where every active
    column has <x, p_i> = ||x||^2.  A single column is a corral at once and
    makes no major cycle.  A face whose differences are not finite (the
    scaled data overflowed) stops the method at the last corral, unconverged,
    with a gap of inf when it stopped before the first gap.

    Returns the weights, scaled to unit sum, the loop's gap at its last
    iterate (the Frank-Wolfe gap of those weights), whether every face was
    finite, and the major cycles.
    """
    m = P.shape[1]
    full = list(range(m))

    def columns(face):
        # the face of every column, in order, is P itself: no gather
        return P if face == full else P[:, face]

    face = [] if start is None else [i for i, w in enumerate(start.tolist()) if w > 0.0]
    if not face:
        face = [int(np.einsum("ij,ij->j", P, P).argmin())]
    active, lam = face, None
    cycles = 0
    # the gap at the last iterate; a face that is not finite can stop the
    # method before the first one
    gap = math.inf
    finite = True
    try:
        active, lam = _minor_cycles(P, face, lam, _affine_minimizer(columns(face)))
        x = columns(active).dot(lam)

        # Wolfe's relative stopping test, gap <= _REL_TOL * max_i ||p_i||^2
        # (see the module docstring).  As ||x||^2 <= max_i ||p_i||^2, a gap
        # that passes the first comparison passes the test, and the column
        # norms are computed only when it fails.
        stop = None
        while True:
            dots = x.dot(P)
            j = int(dots.argmin())
            xx = float(x.dot(x))
            gap = xx - dots[j]
            if gap <= _REL_TOL * xx or j in active or cycles == _MAX_CYCLES:
                break
            if stop is None:
                stop = _stop_threshold(P)
            if gap <= stop:
                break
            entering = active + [j]
            mu = _affine_minimizer(columns(entering))
            if not mu[-1] > 0.0:
                # in exact arithmetic the entering column gets positive
                # weight; here rounding has stalled the method
                break
            cycles += 1
            active, lam = _minor_cycles(P, entering, np.append(lam, 0.0), mu)
            x = columns(active).dot(lam)
    except _NonFiniteFace:
        # stop at the last corral, or on the start face, unconverged
        finite = False
        if lam is None:
            lam = np.full(len(active), 1.0 / len(active))

    if active == full:
        theta = lam
    else:
        theta = np.zeros(m)
        theta[active] = lam
    total = theta.sum()
    if total != 1.0:
        theta = theta / total
    return theta, gap, finite, cycles


def _solve(G, scale, v, start):
    """Both QPs on checked columns, scale and target: ``v`` None is the zero
    target of ``min_norm_in_hull`` at unit scale.  Two columns go to the
    closed form, any other number to ``_wolfe``."""
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != (G.shape[1],):
            raise ValueError("start weights shape does not match gradient columns")
    if G.shape[1] == 2:
        rows = G.tolist()
        t, point, gap, converged = closed_form_rows(rows, scale, v if v is None else v.tolist())
        return HullSolution(np.array([t, 1.0 - t]), np.array(point), gap, converged, 0)
    _check_finite(G, v)
    # 1.0 * G == G exactly, so G serves as the scaled columns of the zero
    # target, and no target is subtracted: subtracting 0.0 would change no bit
    return _wolfe(G if v is None else scale * G, v, start)


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
    positive entry is a cold start.  The closed form (m = 2) ignores it, and
    so does the Gram solve (m = 3) unless it falls back to Wolfe's method.
    """
    G = _validate_columns(G)
    if not 0.0 < scale < math.inf:
        raise ValueError("scale must be positive and finite")
    v = np.asarray(v, dtype=float)
    if v.shape != (G.shape[0],):
        raise ValueError("target vector shape does not match gradient columns")
    return _solve(G, scale, v, start)


def min_norm_in_hull(G, start=None):
    """Projection of the origin onto ``conv{columns of G}``.

    Specialization of :func:`project_onto_scaled_hull` with unit scale and a
    zero target, with the same ``start``.  The norm of the returned point is
    the KKT residual: it vanishes exactly at Pareto-critical points.
    """
    return _solve(_validate_columns(G), 1.0, None, start)
