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
u_k, v_k and x_{k+1} are lists, and the points and residuals become arrays
once, after the loop; the oracle still takes x_k as an array.  v_k is the
solvers' list helper ``solvers.corrected_momentum`` at c = 1, with its
guard: r_k is left out where its coefficient, ||x_k - x_{k-1}|| or ||u_k||
is 0.  The hull QPs split on m as the ``simplex_qp`` module docstring
describes, with the float design and its bit conditions.
``problems.gradient_rows`` (m = 2) and ``gradient_matrix`` check the shape
of every gradient matrix with one rule, the QPs (or the kernel) its
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
    """Sampled flow solution on the exact grid t_k = T0 + k h.

    ``merit`` holds NaN where the merit value was not sampled; fill it with
    :func:`attach_merit` before running :func:`merit_bound_scan`.
    ``termination`` is ``qp_failure`` when a hull QP, the one at the last
    point included, did not certify its gap; the points up to it are kept.
    """

    config: FlowConfig
    system: str
    times: np.ndarray
    points: np.ndarray
    kkt_residuals: np.ndarray
    merit: np.ndarray
    termination: str = FLOW_COMPLETED

    def __len__(self):
        return self.times.shape[0]


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


def _integrate(prob, cfg, system):
    as_point(prob, cfg.x0, "x0")
    alpha, h = cfg.alpha, cfg.h
    # FlowConfig has checked the scale, the step count and t_k**p
    scale = h * h
    steps = _step_count(cfg)
    # the points as lists of Python floats (see the module docstring); the
    # row of x_1 = x_0 is the zero initial velocity
    x_prev = x_curr = cfg.x0.tolist()
    rows = [x_curr, x_curr]
    residuals = []
    termination = FLOW_COMPLETED

    # at m != 2 each QP warm-starts from its own previous weights, as in
    # run_solver; at m = 2 both solves are the closed form on G's rows
    pair = prob.m == 2
    hull_w = proj_w = None
    for k in range(1, steps + 1):
        t_k = T0 + k * h
        if pair:
            G = gradient_rows(prob, np.array(x_curr))
            _, u, _, certified = closed_form_rows(G, 1.0, None)
        else:
            grads = gradient_matrix(prob, np.array(x_curr))
            hull = min_norm_in_hull(grads, start=hull_w)
            hull_w = hull.weights
            u, certified = hull.point.tolist(), hull.converged
        residual = math.hypot(*u)
        residuals.append(residual)
        if not certified:
            termination = FLOW_QP_FAILURE
            break
        if k == steps:
            # the last pass only certifies the residual at the last point
            break

        coeff = (alpha - cfg.beta) * h / t_k**cfg.p
        v_k = corrected_momentum(1.0, x_curr, x_prev, coeff, u, residual)
        if pair:
            _, q, _, certified = closed_form_rows(G, scale, v_k)
        else:
            proj = project_onto_scaled_hull(grads, scale, v_k, start=proj_w)
            proj_w = proj.weights
            q, certified = proj.point.tolist(), proj.converged
        if not certified:
            termination = FLOW_QP_FAILURE
            break
        damping = t_k / (t_k + alpha * h)
        x_next = [x + damping * (v - p) for x, v, p in zip(x_curr, v_k, q)]
        rows.append(x_next)
        x_prev, x_curr = x_curr, x_next

    # every point up to the last step taken, each with its residual; x_0
    # shares x_1's
    count = len(rows)
    times = T0 + np.arange(count) * h
    return Trajectory(
        config=cfg,
        system=system,
        times=times,
        points=np.array(rows),
        kkt_residuals=np.array(residuals[:1] + residuals),
        merit=np.full(count, np.nan),
        termination=termination,
    )


def mavng_integrate(prob, cfg):
    """Integrate the corrected flow with the configured (alpha, beta, p)."""
    return _integrate(prob, cfg, "mavng")


def mavd_integrate(prob, cfg):
    """Integrate the baseline flow: the correction-free beta = alpha case."""
    return _integrate(prob, replace(cfg, beta=cfg.alpha), "mavd")


def attach_merit(prob, traj, stride):
    """Sample merit values along the trajectory every ``stride`` grid points.

    The final sample is always evaluated; the inner solve warm-starts from
    the previous maximizer since it moves continuously along the trajectory.
    Returns the trajectory with its ``merit`` array filled in place.
    """
    indices = list(range(0, len(traj), whole_number("stride", stride, 1)))
    if indices[-1] != len(traj) - 1:
        indices.append(len(traj) - 1)
    warm = None
    for i in indices:
        result = merit_value(prob, traj.points[i], warm_start=warm)
        traj.merit[i] = result.phi
        warm = result.z
    return traj


def merit_bound_scan(traj, coeff, t_min=None, t_max=None):
    """Share of the merit samples with merit <= coeff / t^2, and their max t^2 * merit."""
    # a NaN coeff would make every comparison false, not raise
    if not 0.0 < coeff < math.inf:
        raise ValueError(f"coeff must be positive and finite, not {coeff!r}")
    mask = ~np.isnan(traj.merit)
    if t_min is not None:
        mask &= traj.times >= t_min
    if t_max is not None:
        mask &= traj.times <= t_max
    if not np.any(mask):
        raise MissingMerit("trajectory has no merit samples in the window")
    times, merit = traj.times[mask], traj.merit[mask]
    fraction = float(np.mean(merit <= coeff / (times * times)))
    constant = float(np.max(times * times * merit))
    return BoundReport(times, merit, fraction, constant)
