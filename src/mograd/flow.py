"""Explicit integration of the inertial multiobjective gradient flows.

The second-order flow combines vanishing damping a/t with a normalized
correction term that tilts the velocity toward the common descent direction:

    r(t) = (a - b) / t^p * (||dx/dt|| / ||proj_{C(x)}(0)||) proj_{C(x)}(0)
    a/t dx/dt + proj_{C(x) + r(t) + d2x/dt2}(0) = 0

with a >= b > 0 and p >= 0.  Substituting the central second difference and
solving the resulting shifted-projection equation for the new step (the
unique solution of -a (xi + v) = proj_{C + xi}(0)) yields, on the uniform
grid t_k = T0 + k h from the fixed start time T0 = 1, with u_k the
minimum-norm element of C(x_k):

    r_k = (a - b) h / t_k^p * (||x_k - x_{k-1}|| / ||u_k||) u_k
    v_k = x_k - x_{k-1} - r_k
    x_{k+1} = x_k + t_k / (t_k + a h) * (v_k - proj_{h^2 C(x_k)}(v_k))

where proj is the nearest point of the scaled hull h^2 C(x_k): the damped
velocity persists and the hull projection supplies the O(h^2) gradient kick,
the same template as the discrete solvers' y_k - proj_{s C(y_k)}(pi_k) step.
Zero initial velocity is imposed by x_1 = x_0.  The baseline flow without
the correction term is the b = a case (the (a - b) factor removes r
exactly), so ``mavd_integrate`` is literally ``mavng_integrate`` at b = a.

The step runs on Python floats, one loop for every m and n: x_{k-1}, x_k,
u_k, v_k and x_{k+1} are lists, and the kept points and residuals become
arrays once, after the loop; the oracle still takes x_k as an array.  v_k
is x_k - x_{k-1} itself when the correction is off for the whole trajectory
((a - b) h = 0, as at b = a), and otherwise the solvers' list helper
``solvers.corrected_momentum`` at c = 1, with its guard: r_k is left out
where its coefficient, ||x_k - x_{k-1}|| or ||u_k|| is 0.  The hull QPs split on m as the ``simplex_qp`` module docstring
describes, with the float design and its bit conditions.
``problems.gradient_rows`` (m = 2) and ``gradient_matrix`` check the shape
of every gradient matrix with one rule (the four bi-objective oracles'
rows hold it by construction), the QPs (or the kernel) its
finiteness, and ``FlowConfig`` the projection's scale h^2, which does not
change, with the step count (t_end - t0) / h and t^p at the grid's last
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .merit import merit_value
from .problems import as_point, gradient_matrix, gradient_rows, real_number, whole_number
from .simplex_qp import closed_form_rows, min_norm_in_hull, project_onto_scaled_hull
from .solvers import corrected_momentum

T0 = 1.0  # the start time t0 of every flow, where the analysis window opens
FLOW_COMPLETED = "completed"
FLOW_QP_FAILURE = "qp_failure"


class MissingMerit(ValueError):
    """Raised when a bound scan runs on a trajectory without merit samples."""


@dataclass(frozen=True)
class FlowConfig:
    """Integration parameters; ``x0`` is the rest start point x(T0).

    The damping coefficient ``alpha`` must dominate the correction weight
    ``beta``.  Both hull subproblems run at the QP layer's tolerance
    ``simplex_qp.DEFAULT_TOL``.

    The scheme is meant for ``p > 0``, where the correction's weight
    (a - b) h / t^p vanishes.  ``p = 0`` is accepted, but the weight then
    stays (a - b) h, and once t > a / (a - b) a step may be up to
    (1 + (a - b) h) t / (t + a h) > 1 times the one before.  On quad2 at
    alpha 50, beta 3 and h 5e-3 the steps grow, and the float loop and a
    numpy form of the same scheme part by 3.8e-11 of the points' scale
    near t = 12.3.
    """

    alpha: float
    x0: np.ndarray
    beta: float = 3.0
    p: float = 1.0
    h: float = 1e-3
    t_end: float = 20.0

    def __post_init__(self):
        for name in ("alpha", "beta", "p", "h", "t_end"):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        if not (math.inf > self.alpha >= self.beta > 0.0):
            raise ValueError(
                f"parameters must satisfy inf > alpha >= beta > 0, not alpha = {self.alpha}, "
                f"beta = {self.beta}"
            )
        if not 0.0 <= self.p < math.inf:
            raise ValueError("p must be finite and nonnegative")
        if not 0.0 < self.h < math.inf:
            raise ValueError("h must be positive and finite")
        # a positive finite h can still square to 0 or inf, the projection's
        # scale on every step
        if not 0.0 < self.h * self.h < math.inf:
            raise ValueError("h * h, the projection's scale, must be positive and finite")
        if not T0 < self.t_end < math.inf:
            raise ValueError("t_end must be finite and exceed t0 = 1")
        if not (self.t_end - T0) / self.h < math.inf:
            raise ValueError("(t_end - t0) / h, the number of steps, must be finite")
        # each step divides by t_k**p on Python floats, whose ** raises
        # OverflowError where numpy's gives inf; t_k**p grows with t_k, so
        # the grid's last time bounds every step's
        t_last = T0 + _step_count(self) * self.h
        try:
            t_last**self.p
        except OverflowError:
            raise ValueError(
                f"p = {self.p} is too large: t**p overflows at the grid's last time t = {t_last}"
            ) from None
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.x0.ndim != 1 or not np.all(np.isfinite(self.x0)):
            raise ValueError("x0 must be a finite 1-D point")


def _step_count(cfg):
    """The number of steps of the grid T0, T0 + h, ..., about t_end."""
    return max(int(round((cfg.t_end - T0) / cfg.h)), 1)


@dataclass
class Trajectory:
    """Flow solution on the exact grid t_k = T0 + k h.

    ``times``, ``points`` and ``kkt_residuals`` hold the grid points that
    :func:`mavng_integrate` keeps; ``len`` counts every point integrated.
    ``merit`` is None until :func:`attach_merit` evaluates it at the kept
    points.  ``termination`` is ``qp_failure`` when a hull QP, the one at
    the last point included, did not certify its gap, or when the gradient
    read or the min-norm solve at a grid point x_k, k >= 2, raised a
    ValueError; the trajectory then ends at x_{k-1}.
    """

    system: str
    times: np.ndarray
    points: np.ndarray
    kkt_residuals: np.ndarray
    grid_points: int
    termination: str = FLOW_COMPLETED
    merit: np.ndarray | None = None

    def __len__(self):
        return self.grid_points


@dataclass(frozen=True)
class BoundReport:
    """Sampled merit against the paper's rate C / t^2: the ``times`` and
    ``merit`` of the samples in the window, the ``fraction`` of them with
    merit <= coeff / t^2 for the coeff given to ``merit_bound_scan``, and
    ``constant``, max t^2 * merit, the least C that bounds every sample.  It
    is built from ``merit_value``'s lower bound on phi, so it is not
    certified; a certified C needs an upper bound on phi."""

    times: np.ndarray
    merit: np.ndarray
    fraction: float
    constant: float


def _integrate(prob, cfg, system, stride):
    stride = whole_number("stride", stride, 1)
    as_point(prob, cfg.x0, "x0")
    h, power = cfg.h, cfg.p
    # FlowConfig has checked the scale, the step count and t_k**p; the
    # correction's numerator (a - b) h and the damping's a h are fixed for
    # the trajectory, and at b = a the correction is off on every step
    scale = h * h
    correction, damping_h = (cfg.alpha - cfg.beta) * h, cfg.alpha * h
    steps = _step_count(cfg)
    # the points as lists of Python floats (see the module docstring);
    # x_1 = x_0 is the zero initial velocity
    x_prev = x_curr = cfg.x0.tolist()
    # (grid index, point, residual) per kept point; x_0 shares x_1's residual
    kept = []
    termination = FLOW_COMPLETED

    # at m != 2 each QP warm-starts from its own previous weights, as in
    # run_solver; at m = 2 both solves are the closed form on G's rows
    pair = prob.m == 2
    hull_w = proj_w = None
    for k in range(1, steps + 1):
        t_k = T0 + k * h
        try:
            if pair:
                G = gradient_rows(prob, np.array(x_curr))
                _, u, _, certified = closed_form_rows(G, 1.0, None)
            else:
                grads = gradient_matrix(prob, np.array(x_curr))
                hull = min_norm_in_hull(grads, start=hull_w)
                hull_w = hull.weights
                u, certified = hull.point.tolist(), hull.converged
        except ValueError:
            # an oracle, shape or NonFiniteInput error at x_k, as in the
            # solvers: the trajectory ends at x_{k-1}, whose residual is the
            # last one computed; x_1 = x_0 has no earlier point
            if k == 1:
                raise
            termination = FLOW_QP_FAILURE
            k, x_curr = k - 1, x_prev
            break
        residual = math.hypot(*u)
        if k == 1:
            kept.append((0, x_curr, residual))
        if k % stride == 0:
            kept.append((k, x_curr, residual))
        if not certified:
            termination = FLOW_QP_FAILURE
            break
        if k == steps:
            # the last pass only certifies the residual at the last point
            break

        if correction == 0.0:
            v_k = [a - b for a, b in zip(x_curr, x_prev)]
        else:
            v_k = corrected_momentum(1.0, x_curr, x_prev, correction / t_k**power, u, residual)
        if pair:
            _, q, _, certified = closed_form_rows(G, scale, v_k)
        else:
            proj = project_onto_scaled_hull(grads, scale, v_k, start=proj_w)
            proj_w = proj.weights
            q, certified = proj.point.tolist(), proj.converged
        if not certified:
            termination = FLOW_QP_FAILURE
            break
        damping = t_k / (t_k + damping_h)
        x_next = [x + damping * (v - p) for x, v, p in zip(x_curr, v_k, q)]
        x_prev, x_curr = x_curr, x_next

    # every exit breaks at x_k, the last point integrated, with its residual
    # (x_{k-1} after an error at x_k, k set back above)
    if kept[-1][0] != k:
        kept.append((k, x_curr, residual))
    indices, points, residuals = zip(*kept)
    return Trajectory(
        system=system,
        times=T0 + np.array(indices) * h,
        points=np.array(points),
        kkt_residuals=np.array(residuals),
        grid_points=k + 1,
        termination=termination,
    )


def mavng_integrate(prob, cfg, stride=1):
    """Integrate the corrected flow with the configured (alpha, beta, p),
    keeping grid point 0, every ``stride``-th point and the point where it
    stopped, each with its KKT residual: every point at the default.  An
    oracle error at a later grid point ends the trajectory ``qp_failure``
    (see :class:`Trajectory`); one at x0, which has no earlier point,
    propagates."""
    return _integrate(prob, cfg, "mavng", stride)


def mavd_integrate(prob, cfg, stride=1):
    """Integrate the baseline flow, the correction-free beta = alpha case,
    keeping the points that :func:`mavng_integrate` keeps."""
    return _integrate(prob, replace(cfg, beta=cfg.alpha), "mavd", stride)


def attach_merit(prob, traj):
    """Evaluate merit at every kept point of the trajectory.

    Each inner solve warm-starts from the previous maximizer, since it moves
    continuously along the trajectory.  Returns the trajectory with its
    ``merit`` array set in place.
    """
    merit = []
    warm = None
    for point in traj.points:
        result = merit_value(prob, point, warm_start=warm)
        merit.append(result.phi)
        warm = result.z
    traj.merit = np.array(merit)
    return traj


def merit_bound_scan(traj, coeff, t_min=None, t_max=None):
    """Share of the merit samples with merit <= coeff / t^2, and their max t^2 * merit."""
    # a NaN coeff would make every comparison false, not raise
    if not 0.0 < coeff < math.inf:
        raise ValueError(f"coeff must be positive and finite, not {coeff!r}")
    if traj.merit is None:
        raise MissingMerit("trajectory has no merit samples: attach_merit evaluates them")
    lo = -math.inf if t_min is None else t_min
    hi = math.inf if t_max is None else t_max
    window = (traj.times >= lo) & (traj.times <= hi)
    if not np.any(window):
        raise MissingMerit("trajectory has no merit samples in the window")
    times, merit = traj.times[window], traj.merit[window]
    fraction = float(np.mean(merit <= coeff / (times * times)))
    constant = float(np.max(times * times * merit))
    return BoundReport(times, merit, fraction, constant)
