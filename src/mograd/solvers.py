"""Discrete multiobjective gradient methods.

Every variant runs the one template of the discrete method.  Writing
Delta_k = x_k - x_{k-1}, u_k for the minimum-norm element of the gradient
hull C(x_k) (the KKT residual direction), and s for the step size:

    y_k     = x_k + pi_k
    x_{k+1} = y_k - s sum_i theta_i^k grad f_i(y_k)

where theta^k minimizes ||s sum_i theta_i grad f_i(y_k) - pi_k||^2 over the
simplex, i.e. the step subtracts the projection of pi_k onto s C(y_k).  A
variant is two independent choices:

* momentum - ``mfisc_*`` use the corrected momentum

      pi_k = (k-1)/(k+a-1) Delta_k - (a-3)/(k+a-1) (||Delta_k|| / ||u_k||) u_k

  with a = ``alpha``; ``accg_*`` use the same formula at a = 3, where the
  correction vanishes and pi_k = (k-1)/(k+2) Delta_k; ``steepest_ls`` has no
  momentum, so y_k = x_k and the step is d_k = -u_k (multiobjective steepest
  descent).
* step rule - ``*_const`` use the constant step s < 1/L; the ``*_ls``
  variants scale the theta subproblem by the previous accepted step s_{k-1}
  and choose s by multiobjective backtracking from it, so the accepted step
  carries over.

Every run stops when the KKT residual ||u_k|| falls below epsilon, when k_max
is reached, or when a hull subproblem fails to certify its tolerance
(termination ``qp_failure``, partial trace kept).  Both hull subproblems
run at the QP layer's tolerance ``simplex_qp.DEFAULT_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .problems import InvalidConfig, as_point, whole_number
from .simplex_qp import min_norm_in_hull, project_onto_scaled_hull

MFISC_CONST = "mfisc_const"
ACCG_CONST = "accg_const"
MFISC_LS = "mfisc_ls"
ACCG_LS = "accg_ls"
STEEPEST_LS = "steepest_ls"
VARIANTS = (MFISC_CONST, ACCG_CONST, MFISC_LS, ACCG_LS, STEEPEST_LS)

_CONST_VARIANTS = (MFISC_CONST, ACCG_CONST)

CONVERGED = "converged"
KMAX = "k_max"
QP_FAILURE = "qp_failure"

DEFAULT_LS_STEP0 = 10.0
SAFE_DIV_FLOOR = 1e-300


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by all variants.

    ``step`` is the constant step size for the ``*_const`` variants (defaults
    to 0.9/L when the problem carries a Lipschitz constant) and the initial
    trial step s_0 for the line-search variants (default 10).  ``alpha`` is
    the inertial coefficient of the ``mfisc_*`` variants; the correction term
    carries the factor (alpha - 3)/(k + alpha - 1), so a finite alpha >= 3 is
    required and alpha = 3 reduces the corrected iteration to the plain
    accelerated one.
    """

    variant: str
    alpha: float = 50.0
    step: Optional[float] = None
    epsilon: float = 1e-6
    k_max: int = 1_000_000
    sigma: float = 0.8

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"unknown variant {self.variant!r}; one of {VARIANTS}")
        if not 3.0 <= self.alpha < math.inf:
            raise InvalidConfig("alpha must be finite and >= 3 (correction factor alpha - 3 >= 0)")
        if self.step is not None and not 0.0 < self.step < math.inf:
            raise InvalidConfig("step must be positive and finite")
        if not 0.0 < self.epsilon < math.inf:
            raise InvalidConfig("epsilon must be positive and finite")
        object.__setattr__(self, "k_max", whole_number("k_max", self.k_max, 1))
        if not 0.0 < self.sigma < 1.0:
            raise InvalidConfig("sigma must lie in (0, 1)")


@dataclass
class IterationTrace:
    """Per-iteration records of one run.

    The i-th record is taken at iterate x_{i+1} before any step, so a record
    exists for the final point as well; ``iterations`` therefore counts
    records minus one, the number of steps actually performed.  ``step`` and
    ``qp_gap`` describe the step leaving the iterate (``step`` is NaN on the
    final record).  No objective values or iterate gaps are recorded: the
    solver never needs F outside its line search, so :func:`trace_csv_rows`
    evaluates F at ``points``, and the gaps between them, when the trace is
    exported.
    """

    points: list = field(default_factory=list)
    kkt_residuals: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    qp_gaps: list = field(default_factory=list)
    termination: str = KMAX
    ls_cap_hits: int = 0

    @property
    def x_final(self):
        return self.points[-1]

    @property
    def iterations(self):
        return max(len(self.points) - 1, 0)

    @property
    def final_residual(self):
        return self.kkt_residuals[-1] if self.kkt_residuals else float("nan")


def mfisc_momentum(dx, k, alpha, u):
    """Corrected momentum pi_k from Delta_k = ``dx`` at iteration ``k``.

    pi_k = (k-1)/(k+alpha-1) Delta_k
           - (alpha-3)/(k+alpha-1) (||Delta_k|| / ||u||) u

    At alpha = 3 the correction is skipped, leaving the plain accelerated
    momentum ((k-1)/(k+2)) Delta_k.  The correction is exactly zero whenever
    Delta_k = 0 (in particular at k = 1 where x_0 = x_1), regardless of u;
    ||u|| is floored at SAFE_DIV_FLOOR, which never fires in normal operation
    because runs stop before ||u|| < epsilon.
    """
    denom = k + alpha - 1.0
    pi = ((k - 1.0) / denom) * dx
    if alpha != 3.0:
        # math.sqrt(x @ x) is how numpy computes the 2-norm of a real vector
        norm_dx = math.sqrt(dx @ dx)
        if norm_dx > 0.0:
            norm_u = max(math.sqrt(u @ u), SAFE_DIV_FLOOR)
            pi = pi - ((alpha - 3.0) / denom) * (norm_dx / norm_u) * u
    return pi


def line_search_backtracking(prob, w, s0, sigma, d, grads):
    """First s in {s0, sigma s0, sigma^2 s0, ...} passing the decrease test.

    Accepts s once min_i [f_i(w + s d) - f_i(w) - s <grad f_i(w), d>] no
    longer exceeds s ||d||^2 / 2.  ``grads`` is ``prob.gradient_columns(w)``,
    which every caller already holds.  Returns (s, capped); after 200
    shrinkages the last candidate is returned with capped=True rather than
    failing.
    """
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    fw = prob.objectives(w)
    slopes = grads.T @ d
    dd = float(d @ d)
    s = float(s0)
    for _ in range(200):
        trial = prob.objectives(w + s * d)
        # non-finite trials (extended-value objectives) always shrink; the
        # min over objectives would otherwise let an affine objective accept
        if np.isfinite(trial).all():
            gain = trial - fw - s * slopes
            if float(gain.min()) <= 0.5 * s * dd:
                return s, False
        s *= sigma
    return s, True


def _resolve_steps(prob, cfg):
    """Constant step (checked against 1/L) or the initial line-search step."""
    if cfg.variant in _CONST_VARIANTS:
        lip = prob.lipschitz
        if cfg.step is None:
            if lip is None:
                raise InvalidConfig(
                    f"{prob.name} has no Lipschitz constant; pass an explicit step"
                )
            return 0.9 / lip
        if lip is not None and not cfg.step < 1.0 / lip:
            raise InvalidConfig(
                f"constant step {cfg.step} violates step < 1/L = {1.0 / lip:g}"
            )
        return cfg.step
    return cfg.step if cfg.step is not None else DEFAULT_LS_STEP0


def run_solver(prob, cfg, x0):
    """Run one variant from ``x0`` and return its :class:`IterationTrace`."""
    x = as_point(prob, x0, "x0").copy()
    # the step s is fixed for *_const; otherwise it is the carried-over
    # accepted step, which also scales the projection subproblem
    step = _resolve_steps(prob, cfg)
    line_search = cfg.variant not in _CONST_VARIANTS
    if cfg.variant == STEEPEST_LS:
        alpha = None
    elif cfg.variant in (ACCG_CONST, ACCG_LS):
        alpha = 3.0
    else:
        alpha = cfg.alpha

    trace = IterationTrace()
    x_prev = x
    k = 1
    # each QP warm-starts from its own previous weights: consecutive hulls
    # are nearly the same, so the optimal face rarely changes
    hull_w = proj_w = None
    while True:
        grads_x = prob.gradient_columns(x)
        hull = min_norm_in_hull(grads_x, start=hull_w)
        hull_w = hull.weights
        u = hull.point
        residual = math.sqrt(u @ u)

        trace.points.append(x)
        trace.kkt_residuals.append(residual)
        trace.steps.append(float("nan"))
        trace.qp_gaps.append(hull.gap)

        if not hull.converged:
            trace.termination = QP_FAILURE
            break
        if residual < cfg.epsilon:
            trace.termination = CONVERGED
            break
        if k >= cfg.k_max:
            trace.termination = KMAX
            break

        try:
            if alpha is None:
                y, d, grads_y = x, -u, grads_x
            else:
                pi = mfisc_momentum(x - x_prev, k, alpha, u)
                y = x + pi
                grads_y = prob.gradient_columns(y)
                proj = project_onto_scaled_hull(grads_y, step, pi, start=proj_w)
                proj_w = proj.weights
                trace.qp_gaps[-1] = max(trace.qp_gaps[-1], proj.gap)
                if not proj.converged:
                    trace.termination = QP_FAILURE
                    break
                d = -(grads_y @ proj.weights)
            if line_search:
                step, capped = line_search_backtracking(prob, y, step, cfg.sigma, d, grads_y)
                trace.ls_cap_hits += capped
        except ValueError:
            # oracle evaluation failed at a probe point (an objective outside
            # the smoothness assumptions), or the QP's NonFiniteInput, a
            # ValueError too; abort with the partial trace
            trace.termination = QP_FAILURE
            break

        trace.steps[-1] = step
        x_prev, x = x, y + step * d
        k += 1

    return trace


def trace_csv_rows(trace, prob):
    """Header plus per-iteration rows in the trace CSV layout.

    Row i holds iterate k = i + 1.  The iterate gap ||x_k - x_{k-1}|| and
    the objective columns f1..fm are computed here from the recorded points
    (x_0 = x_1, so the first gap is 0); the oracles are pure, so they equal
    the values at the time of the run.  A run that stopped before its first
    step exports a header-only CSV; a run with steps also exports its
    terminal record (step column blank), so the residual column ends below
    epsilon on converged runs.
    """
    header = (
        ["k", "kkt_residual", "iter_gap"]
        + [f"f{i + 1}" for i in range(prob.m)]
        + ["step", "qp_gap"]
    )
    rows = [header]
    if trace.iterations == 0:
        return rows
    x_prev = trace.points[0]
    for i, x in enumerate(trace.points):
        dx = x - x_prev
        rows.append(
            [i + 1, trace.kkt_residuals[i], math.sqrt(dx @ dx)]
            + list(prob.objectives(x))
            + [trace.steps[i], trace.qp_gaps[i]]
        )
        x_prev = x
    return rows
