"""Explicit integration of the inertial multiobjective gradient flows.

The second-order flow combines vanishing damping a/t with a normalized
correction term that tilts the velocity toward the common descent direction:

    r(t) = (a - b) / t^p * (||dx/dt|| / ||proj_{C(x)}(0)||) proj_{C(x)}(0)
    a/t dx/dt + proj_{C(x) + r(t) + d2x/dt2}(0) = 0

with a >= b > 0 and p >= 0.  Substituting the central second difference and
solving the resulting shifted-projection equation for the new step (the
unique solution of -a (xi + v) = proj_{C + xi}(0)) yields, on the uniform
grid t_k = t0 + k h with u_k the minimum-norm element of C(x_k):

    r_k = (a - b) h / t_k^p * (||x_k - x_{k-1}|| / ||u_k||) u_k
    v_k = x_k - x_{k-1} - r_k
    x_{k+1} = x_k + t_k / (t_k + a h) * (v_k - proj_{h^2 C(x_k)}(v_k))

where proj is the nearest point of the scaled hull h^2 C(x_k): the damped
velocity persists and the hull projection supplies the O(h^2) gradient kick,
the same template as the discrete solvers' y_k - proj_{s C(y_k)}(pi_k) step.
Zero initial velocity is imposed by x_1 = x_0.  The baseline flow without
the correction term is the b = a case (the (a - b) factor removes r
exactly), so ``mavd_integrate`` is literally ``mavng_integrate`` at b = a.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .merit import merit_value
from .problems import InvalidConfig
from .simplex_qp import min_norm_in_hull, project_onto_scaled_hull

FLOW_COMPLETED = "completed"
FLOW_QP_FAILURE = "qp_failure"

# the correction term divides by ||u_k||; below this residual it is left out
_RESIDUAL_FLOOR = 1e-12


class MissingMerit(ValueError):
    """Raised when a bound scan runs on a trajectory without merit samples."""


@dataclass(frozen=True)
class FlowConfig:
    """Integration parameters; ``x0`` is the rest start point x(t0).

    The damping coefficient ``alpha`` must dominate the correction weight
    ``beta``; the analysis window starts at t0 >= 1.  Both hull subproblems
    run at the QP layer's tolerance ``simplex_qp.DEFAULT_TOL``.
    """

    alpha: float
    x0: np.ndarray
    beta: float = 3.0
    p: float = 1.0
    t0: float = 1.0
    h: float = 1e-3
    t_end: float = 20.0

    def __post_init__(self):
        if not (math.inf > self.alpha >= self.beta > 0.0):
            raise ValueError("parameters must satisfy inf > alpha >= beta > 0")
        if not 0.0 <= self.p < math.inf:
            raise ValueError("p must be finite and nonnegative")
        if not 1.0 <= self.t0 < math.inf:
            raise ValueError("t0 must be finite and at least 1")
        if not 0.0 < self.h < math.inf:
            raise ValueError("h must be positive and finite")
        if not self.t0 < self.t_end < math.inf:
            raise ValueError("t_end must be finite and exceed t0")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        if self.x0.ndim != 1 or not np.all(np.isfinite(self.x0)):
            raise ValueError("x0 must be a finite 1-D point")


@dataclass
class Trajectory:
    """Sampled flow solution on the exact grid t_k = t0 + k h.

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
class BoundSample:
    t: float
    merit: float
    bound: float

    @property
    def holds(self):
        return self.merit <= self.bound


@dataclass(frozen=True)
class BoundReport:
    """Pointwise comparison of sampled merit values against coeff / t^2."""

    coeff: float
    samples: list
    fraction: float


def _integrate(prob, cfg, system):
    n = prob.n
    if cfg.x0.shape != (n,):
        raise InvalidConfig(
            f"x0 has dimension {cfg.x0.shape[0]}, but {prob.name} has dimension {n}"
        )
    steps = max(int(round((cfg.t_end - cfg.t0) / cfg.h)), 1)
    points = np.empty((steps + 1, n))
    residuals = np.empty(steps + 1)
    points[0] = cfg.x0
    points[1] = cfg.x0
    termination = FLOW_COMPLETED
    reached = steps

    x_prev = cfg.x0.copy()
    x_curr = cfg.x0.copy()
    # each QP warm-starts from its own previous weights, as in run_solver
    hull_w = proj_w = None
    for k in range(1, steps + 1):
        t_k = cfg.t0 + k * cfg.h
        grads = prob.gradient_columns(x_curr)
        hull = min_norm_in_hull(grads, start=hull_w)
        hull_w = hull.weights
        u = hull.point
        # math.sqrt(x @ x) is how numpy computes the 2-norm of a real vector
        residual = math.sqrt(u @ u)
        residuals[k] = residual
        if not hull.converged:
            termination = FLOW_QP_FAILURE
            reached = k
            break
        if k == steps:
            # the last pass only certifies the residual at the last point
            break

        dx = x_curr - x_prev
        norm_dx = math.sqrt(dx @ dx)
        coeff = (cfg.alpha - cfg.beta) * cfg.h / t_k**cfg.p
        if coeff != 0.0 and norm_dx > 0.0 and residual >= _RESIDUAL_FLOOR:
            v_k = dx - coeff * (norm_dx / residual) * u
        else:
            v_k = dx  # dx - 0.0 == dx exactly

        proj = project_onto_scaled_hull(grads, cfg.h * cfg.h, v_k, start=proj_w)
        proj_w = proj.weights
        if not proj.converged:
            termination = FLOW_QP_FAILURE
            reached = k
            break
        damping = t_k / (t_k + cfg.alpha * cfg.h)
        x_next = x_curr + damping * (v_k - proj.point)

        points[k + 1] = x_next
        x_prev, x_curr = x_curr, x_next

    residuals[0] = residuals[1]

    count = reached + 1
    times = cfg.t0 + np.arange(count) * cfg.h
    return Trajectory(
        config=cfg,
        system=system,
        times=times,
        points=points[:count],
        kkt_residuals=residuals[:count],
        merit=np.full(count, np.nan),
        termination=termination,
    )


def mavng_integrate(prob, cfg):
    """Integrate the corrected flow with the configured (alpha, beta, p)."""
    return _integrate(prob, cfg, "mavng")


def mavd_integrate(prob, cfg):
    """Integrate the baseline flow: the correction-free beta = alpha case."""
    return _integrate(prob, replace(cfg, beta=cfg.alpha), "mavd")


def attach_merit(prob, traj, stride=10):
    """Sample merit values along the trajectory every ``stride`` grid points.

    The final sample is always evaluated; the inner solve warm-starts from
    the previous maximizer since it moves continuously along the trajectory.
    Returns the trajectory with its ``merit`` array filled in place.
    """
    # 2.0 counts as a whole number, as in ExperimentConfig; 2.5, inf and NaN do not
    if not (stride >= 1 and float(stride).is_integer()):
        raise ValueError(f"stride must be a whole number of at least 1, not {stride!r}")
    indices = list(range(0, len(traj), int(stride)))
    if indices[-1] != len(traj) - 1:
        indices.append(len(traj) - 1)
    warm = None
    for i in indices:
        result = merit_value(prob, traj.points[i], warm_start=warm)
        traj.merit[i] = result.phi
        warm = result.z
    return traj


def merit_bound_scan(traj, coeff, t_min=None, t_max=None):
    """Fraction of merit-sampled points satisfying merit <= coeff / t^2."""
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
    samples = [
        BoundSample(float(t), float(phi), float(coeff / (t * t)))
        for t, phi in zip(traj.times[mask], traj.merit[mask])
    ]
    fraction = float(np.mean([s.holds for s in samples]))
    return BoundReport(coeff=float(coeff), samples=samples, fraction=fraction)
