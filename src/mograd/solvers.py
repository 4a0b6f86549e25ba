"""Discrete multiobjective gradient methods.

Five variants share one iteration engine.  Writing Delta_k = x_k - x_{k-1},
u_k for the minimum-norm element of the gradient hull C(x_k) (the KKT
residual direction), and s for the step size:

* ``mfisc_const`` - inertial iteration with a normalized correction term,
  constant step s < 1/L:

      pi_k = (k-1)/(k+a-1) Delta_k - (a-3)/(k+a-1) (||Delta_k|| / ||u_k||) u_k
      y_k  = x_k + pi_k
      x_{k+1} = y_k - s sum_i theta_i^k grad f_i(y_k)

  where theta^k minimizes ||s sum_i theta_i grad f_i(y_k) - pi_k||^2 over the
  simplex, i.e. the step subtracts the projection of pi_k onto s C(y_k).
* ``accg_const`` - the same loop with the plain momentum
  pi_k = (k-1)/(k+2) Delta_k and no correction term (the alpha = 3 case).
* ``mfisc_ls`` / ``accg_ls`` - the same two iterations with the theta
  subproblem scaled by the previous accepted step s_{k-1} and the step chosen
  by multiobjective backtracking; the accepted step carries over.
* ``steepest_ls`` - classical multiobjective steepest descent d_k = -u_k with
  the same backtracking rule.

Every run stops when the KKT residual ||u_k|| falls below epsilon, when k_max
is reached, or when a hull subproblem fails to certify its tolerance
(termination ``qp_failure``, partial trace kept).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .problems import InvalidConfig
from .simplex_qp import NonFiniteInput, min_norm_in_hull, project_onto_scaled_hull

MFISC_CONST = "mfisc_const"
ACCG_CONST = "accg_const"
MFISC_LS = "mfisc_ls"
ACCG_LS = "accg_ls"
STEEPEST_LS = "steepest_ls"
VARIANTS = (MFISC_CONST, ACCG_CONST, MFISC_LS, ACCG_LS, STEEPEST_LS)

_CONST_VARIANTS = (MFISC_CONST, ACCG_CONST)
_LS_VARIANTS = (MFISC_LS, ACCG_LS, STEEPEST_LS)

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
    the inertial coefficient; the correction term carries the factor
    (alpha - 3)/(k + alpha - 1), so alpha >= 3 is required and alpha = 3
    reduces the corrected iteration to the plain accelerated one.

    ``grad_at_probe`` switches the final update of the corrected/accelerated
    iterations to use gradients at x_k instead of y_k.  Off by default; the
    update at y_k is the defining form.

    ``step_growback`` lets the carried-over line-search step recover by one
    factor 1/sigma per iteration (capped at s_0) before backtracking.  Off by
    default: the plain carry-over can only shrink, which is the literal rule.
    """

    variant: str
    alpha: float = 50.0
    step: Optional[float] = None
    epsilon: float = 1e-6
    k_max: int = 1_000_000
    sigma: float = 0.8
    qp_tol: float = 1e-10
    grad_at_probe: bool = False
    step_growback: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"unknown variant {self.variant!r}; one of {VARIANTS}")
        if self.alpha < 3.0:
            raise InvalidConfig("alpha must be >= 3 (correction factor alpha - 3 >= 0)")
        if self.step is not None and not self.step > 0.0:
            raise InvalidConfig("step must be positive")
        if not self.epsilon > 0.0:
            raise InvalidConfig("epsilon must be positive")
        if self.k_max < 1:
            raise InvalidConfig("k_max must be at least 1")
        if not 0.0 < self.sigma < 1.0:
            raise InvalidConfig("sigma must lie in (0, 1)")
        if not self.qp_tol > 0.0:
            raise InvalidConfig("qp_tol must be positive")


@dataclass
class SolverState:
    """Rolling iterate pair; at k = 1 both entries hold the start point."""

    x_prev: np.ndarray
    x_curr: np.ndarray
    k: int
    last_step: float


@dataclass
class IterationTrace:
    """Per-iteration records of one run.

    The k-th record is taken at iterate x_k before any step, so a record
    exists for the final point as well; ``iterations`` therefore counts
    records minus one, the number of steps actually performed.  ``step`` and
    ``qp_gap`` describe the step leaving x_k (``step`` is NaN on the final
    record).  No objective values are recorded: the solver never needs F
    outside its line search, so :func:`trace_csv_rows` evaluates F at
    ``points`` when the trace is exported.
    """

    variant: str
    problem: str
    ks: list = field(default_factory=list)
    kkt_residuals: list = field(default_factory=list)
    iterate_gaps: list = field(default_factory=list)
    points: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    qp_gaps: list = field(default_factory=list)
    times: list = field(default_factory=list)
    termination: str = KMAX
    x_final: Optional[np.ndarray] = None
    ls_cap_hits: int = 0

    @property
    def iterations(self):
        return max(len(self.ks) - 1, 0)

    @property
    def final_residual(self):
        return self.kkt_residuals[-1] if self.kkt_residuals else float("nan")


def mfisc_momentum(state, alpha, u, tau=SAFE_DIV_FLOOR):
    """Corrected momentum pi_k at the current iterate pair.

    pi_k = (k-1)/(k+alpha-1) Delta_k
           - (alpha-3)/(k+alpha-1) (||Delta_k|| / max(||u||, tau)) u

    The correction is exactly zero whenever Delta_k = 0 (in particular at
    k = 1 where x_0 = x_1), regardless of u; tau only guards the division and
    never fires in normal operation because runs stop before ||u|| < epsilon.
    """
    dx = state.x_curr - state.x_prev
    denom = state.k + alpha - 1.0
    pi = ((state.k - 1.0) / denom) * dx
    # math.sqrt(x @ x) is how numpy computes the 2-norm of a real vector
    norm_dx = math.sqrt(dx @ dx)
    if norm_dx > 0.0 and alpha != 3.0:
        norm_u = max(math.sqrt(u @ u), tau)
        pi = pi - ((alpha - 3.0) / denom) * (norm_dx / norm_u) * u
    return pi


def line_search_backtracking(prob, w, s0, sigma, d, grads, max_backtracks=200):
    """First s in {s0, sigma s0, sigma^2 s0, ...} passing the decrease test.

    Accepts s once min_i [f_i(w + s d) - f_i(w) - s <grad f_i(w), d>] no
    longer exceeds s ||d||^2 / 2.  ``grads`` is ``prob.gradient_columns(w)``,
    which every caller already holds.  Returns (s, capped); after
    ``max_backtracks`` shrinkages the last candidate is returned with
    capped=True rather than failing.
    """
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    fw = prob.objectives(w)
    slopes = grads.T @ d
    dd = float(d @ d)
    s = float(s0)
    for _ in range(max_backtracks):
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
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (prob.n,):
        raise InvalidConfig(f"start point must have dimension {prob.n}")
    if not np.isfinite(x0).all():
        raise InvalidConfig("start point contains NaN or Inf")
    step = _resolve_steps(prob, cfg)

    trace = IterationTrace(variant=cfg.variant, problem=prob.name)
    state = SolverState(x_prev=x0.copy(), x_curr=x0.copy(), k=1, last_step=step)
    clock = time.perf_counter

    t_start = clock()
    while True:
        k = state.k
        x = state.x_curr
        grads_x = prob.gradient_columns(x)
        hull = min_norm_in_hull(grads_x, cfg.qp_tol)
        u = hull.point
        residual = math.sqrt(u @ u)
        dx = x - state.x_prev

        trace.ks.append(k)
        trace.kkt_residuals.append(residual)
        trace.iterate_gaps.append(math.sqrt(dx @ dx))
        trace.points.append(x)
        trace.steps.append(float("nan"))
        trace.qp_gaps.append(hull.gap)
        trace.times.append(clock() - t_start)

        if not hull.converged:
            trace.termination = QP_FAILURE
            break
        if residual < cfg.epsilon:
            trace.termination = CONVERGED
            break
        if k >= cfg.k_max:
            trace.termination = KMAX
            break

        if cfg.step_growback:
            trial_step = min(state.last_step / cfg.sigma, step)
        else:
            trial_step = state.last_step

        try:
            x_next = _take_step(prob, cfg, state, trace, grads_x, hull, step, trial_step)
        except (ValueError, NonFiniteInput):
            # oracle evaluation failed at a probe point (an objective outside
            # the smoothness assumptions); abort with the partial trace
            trace.termination = QP_FAILURE
            break
        if x_next is None:
            trace.termination = QP_FAILURE
            break

        state.x_prev = x
        state.x_curr = x_next
        state.k = k + 1

    trace.x_final = state.x_curr
    return trace


def _take_step(prob, cfg, state, trace, grads_x, hull, step, trial_step):
    """One update of the configured variant; None when a subproblem fails.

    ``grads_x`` and ``hull`` are the gradient columns at x_k and their
    min-norm solution.
    """
    k = state.k
    x = state.x_curr
    if cfg.variant == STEEPEST_LS:
        d = -hull.point
        s_k, capped = line_search_backtracking(prob, x, trial_step, cfg.sigma, d, grads_x)
        trace.ls_cap_hits += capped
        state.last_step = s_k
        trace.steps[-1] = s_k
        return x + s_k * d

    if cfg.variant in (MFISC_CONST, MFISC_LS):
        pi = mfisc_momentum(state, cfg.alpha, hull.point)
    else:
        pi = ((k - 1.0) / (k + 2.0)) * (x - state.x_prev)
    y = x + pi
    grads_y = prob.gradient_columns(y)
    scale = step if cfg.variant in _CONST_VARIANTS else state.last_step
    proj = project_onto_scaled_hull(grads_y, scale, pi, cfg.qp_tol)
    trace.qp_gaps[-1] = max(trace.qp_gaps[-1], proj.gap)
    if not proj.converged:
        return None
    if cfg.grad_at_probe:
        combo = grads_x @ proj.weights
    else:
        combo = grads_y @ proj.weights
    if cfg.variant in _CONST_VARIANTS:
        trace.steps[-1] = step
        return y - step * combo
    d = -combo
    s_k, capped = line_search_backtracking(prob, y, trial_step, cfg.sigma, d, grads_y)
    trace.ls_cap_hits += capped
    state.last_step = s_k
    trace.steps[-1] = s_k
    return y + s_k * d


def mfisc_const_run(prob, cfg, x0):
    """Constant-step corrected-momentum run (forces the variant)."""
    return run_solver(prob, replace(cfg, variant=MFISC_CONST), x0)


def accg_const_run(prob, cfg, x0):
    """Constant-step accelerated run without the correction term."""
    return run_solver(prob, replace(cfg, variant=ACCG_CONST), x0)


def mfisc_ls_run(prob, cfg, x0):
    """Backtracking-step corrected-momentum run."""
    return run_solver(prob, replace(cfg, variant=MFISC_LS), x0)


def accg_ls_run(prob, cfg, x0):
    """Backtracking-step accelerated run."""
    return run_solver(prob, replace(cfg, variant=ACCG_LS), x0)


def steepest_ls_run(prob, cfg, x0):
    """Backtracking multiobjective steepest descent."""
    return run_solver(prob, replace(cfg, variant=STEEPEST_LS), x0)


def trace_csv_rows(trace, prob):
    """Header plus per-iteration rows in the trace CSV layout.

    The objective columns f1..fm are ``prob.objectives`` evaluated here at
    each recorded point; the oracles are pure, so they equal the values at
    the time of the run.  A run that stopped before its first step exports a
    header-only CSV; a run with steps also exports its terminal record (step
    column blank), so the residual column ends below epsilon on converged
    runs.
    """
    header = (
        ["k", "kkt_residual", "iter_gap"]
        + [f"f{i + 1}" for i in range(prob.m)]
        + ["step", "qp_gap", "time_s"]
    )
    rows = [header]
    if trace.iterations == 0:
        return rows
    for i, k in enumerate(trace.ks):
        rows.append(
            [k, trace.kkt_residuals[i], trace.iterate_gaps[i]]
            + list(prob.objectives(trace.points[i]))
            + [trace.steps[i], trace.qp_gaps[i], trace.times[i]]
        )
    return rows
