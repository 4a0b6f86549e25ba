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

  with a = ``alpha``, the correction left out where ||Delta_k|| or ||u_k||
  is 0; ``accg_*`` use the same formula at a = 3, where the correction
  vanishes and pi_k = (k-1)/(k+2) Delta_k; ``steepest_ls`` has no momentum,
  so y_k = x_k and the step is d_k = -u_k (multiobjective steepest descent).
* step rule - ``*_const`` use the constant step s < 1/L; the ``*_ls``
  variants scale the theta subproblem by the previous accepted step s_{k-1}
  and choose s by multiobjective backtracking from it, shrinking by the
  fixed factor ``SIGMA``, so the accepted step carries over.

Every run stops when the KKT residual ||u_k|| falls below epsilon, when k_max
is reached, or when a hull subproblem fails to certify its tolerance or an
oracle raises a ValueError (termination ``qp_failure``, partial trace kept;
at x_k the record has a NaN residual and gap).  Both hull subproblems
run at the QP layer's tolerance ``simplex_qp.DEFAULT_TOL``.

The steps split on m as the ``simplex_qp`` module docstring describes,
with the float design and its bit conditions.  At m = 2 ``_pair_steps``
runs on Python floats, and both hull QPs are the closed-form kernel
``simplex_qp.closed_form_rows``: the min-norm solve with no target and the
projection at scale s with target pi_k.  Any other m takes ``_array_steps``
through ``min_norm_in_hull`` and ``project_onto_scaled_hull``.

Each rule of a step has one owner: ``problems.gradient_rows`` and
``gradient_matrix`` check the shape of every gradient matrix with one rule
(the four bi-objective oracles' rows hold it by construction, which the
tests check), the QPs (or the kernel) check finiteness,
:func:`corrected_momentum` and its numpy form :func:`mfisc_momentum` write
the correction, and the float steps check the projection's scale, which the
line search can shrink to 0.0.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .problems import (
    InvalidConfig,
    as_point,
    gradient_matrix,
    gradient_rows,
    objective_values,
    real_number,
    whole_number,
)
from .simplex_qp import closed_form_rows, min_norm_in_hull, project_onto_scaled_hull

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
SIGMA = 0.8  # the line search's shrink factor


def tolerance(value):
    """``value`` as a stop tolerance epsilon: a positive, finite real number,
    not a bool."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
        raise InvalidConfig(f"epsilon must be a positive, finite number, not {value!r}")
    return float(value)


@dataclass(frozen=True)
class SolverConfig:
    """Parameters shared by all variants.

    ``step`` is the constant step size for the ``*_const`` variants (defaults
    to 0.9/L when the problem carries a Lipschitz constant) and the initial
    trial step s_0 for the line-search variants (default 10).  ``alpha`` is
    the inertial coefficient of the ``mfisc_*`` variants; the correction term
    carries the factor (alpha - 3)/(k + alpha - 1), so a finite alpha >= 3 is
    required and alpha = 3 reduces the corrected iteration to the plain
    accelerated one.  The line search shrinks by the fixed ``SIGMA``.
    """

    variant: str
    alpha: float = 50.0
    step: Optional[float] = None
    epsilon: float = 1e-6
    k_max: int = 1_000_000

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"unknown variant {self.variant!r}; one of {VARIANTS}")
        for name in ("alpha",) + (() if self.step is None else ("step",)):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        if self.alpha < 3.0:
            raise InvalidConfig("alpha must be >= 3 (correction factor alpha - 3 >= 0)")
        if self.step is not None and self.step <= 0.0:
            raise InvalidConfig("step must be positive")
        object.__setattr__(self, "epsilon", tolerance(self.epsilon))
        object.__setattr__(self, "k_max", whole_number("k_max", self.k_max, 1))


@dataclass
class IterationTrace:
    """Per-iteration records of one run.

    The i-th record is taken at iterate x_{i+1} before any step, so a record
    exists for the final point as well; ``iterations`` therefore counts
    records minus one, the number of steps actually performed.  ``step`` and
    ``qp_gap`` describe the step leaving the iterate (``step`` is NaN on the
    final record; ``capped`` lists the records whose line search hit its
    cap), ``hull_gap`` is the min-norm QP's gap alone, ``elapsed`` the
    seconds from the run's start (in no CSV), and ``hull_certified`` whether
    the last record's min-norm QP certified.  No objective values or iterate
    gaps are recorded: the solver never needs F outside its line search, so
    :func:`trace_csv_rows` evaluates F at ``points``, and the gaps between
    them, when the trace is exported.
    """

    points: list = field(default_factory=list)
    kkt_residuals: list = field(default_factory=list)
    steps: list = field(default_factory=list)
    qp_gaps: list = field(default_factory=list)
    hull_gaps: list = field(default_factory=list)
    elapsed: list = field(default_factory=list)
    capped: list = field(default_factory=list)
    termination: str = KMAX
    hull_certified: bool = True

    @property
    def x_final(self):
        return self.points[-1]

    @property
    def iterations(self):
        return max(len(self.points) - 1, 0)

    @property
    def final_residual(self):
        return self.kkt_residuals[-1] if self.kkt_residuals else float("nan")

    @property
    def ls_cap_hits(self):
        return len(self.capped)

    def until(self, epsilon):
        """This run as it ends at a looser tolerance ``epsilon``, which enters
        only the stop test: at the first record below ``epsilon``, ``converged``
        unless that record's min-norm QP failed; without one, this run."""
        stop = next((i for i, r in enumerate(self.kkt_residuals) if r < epsilon), None)
        if stop is None:
            return self
        end = stop + 1
        certified = stop < len(self.points) - 1 or self.hull_certified
        return IterationTrace(
            points=self.points[:end],
            kkt_residuals=self.kkt_residuals[:end],
            steps=self.steps[:stop] + [float("nan")],
            qp_gaps=self.qp_gaps[:stop] + [self.hull_gaps[stop]],
            hull_gaps=self.hull_gaps[:end],
            elapsed=self.elapsed[:end],
            capped=[i for i in self.capped if i < stop],
            termination=CONVERGED if certified else QP_FAILURE,
            hull_certified=certified,
        )


def mfisc_momentum(dx, k, alpha, u):
    """Corrected momentum pi_k from Delta_k = ``dx`` at iteration ``k``.

    pi_k = (k-1)/(k+alpha-1) Delta_k
           - (alpha-3)/(k+alpha-1) (||Delta_k|| / ||u||) u

    The numpy form of :func:`corrected_momentum`, with its guard: the
    correction is left out when its coefficient, ||Delta_k|| or ||u|| is 0,
    so alpha = 3 leaves the plain accelerated momentum ((k-1)/(k+2)) Delta_k
    and k = 1 (x_0 = x_1) leaves 0, whatever u is.
    """
    denom = k + alpha - 1.0
    pi = ((k - 1.0) / denom) * dx
    coeff = (alpha - 3.0) / denom
    if coeff != 0.0:
        # math.sqrt(x @ x) is how numpy computes the 2-norm of a real vector
        norm_dx = math.sqrt(dx @ dx)
        if norm_dx > 0.0:
            norm_u = math.sqrt(u @ u)
            if norm_u > 0.0:
                pi = pi - (coeff * (norm_dx / norm_u)) * u
    return pi


def corrected_momentum(c, x_curr, x_prev, coeff, u, norm_u):
    """c Delta - coeff (||Delta|| / ||u||) u on lists of floats, for
    Delta = ``x_curr`` - ``x_prev`` and ||u|| = ``norm_u``.

    The list form of :func:`mfisc_momentum`, with the same guard: the
    correction is left out when ``coeff``, ||Delta|| or ||u|| is 0, since it
    is undefined only at u = 0.  The solvers call it with c = (k-1)/(k+a-1)
    and coeff = (a-3)/(k+a-1), the flow with c = 1 (1.0 (a - b) is a - b
    bit for bit).  ||Delta|| is ``math.dist``, math.hypot of the
    differences.
    """
    if coeff != 0.0:
        norm_dx = math.dist(x_curr, x_prev)
        if norm_dx > 0.0 and norm_u > 0.0:
            r = coeff * (norm_dx / norm_u)
            return [c * (a - b) - r * e for a, b, e in zip(x_curr, x_prev, u)]
    return [c * (a - b) for a, b in zip(x_curr, x_prev)]


def line_search_backtracking(prob, w, s0, sigma, d, grads):
    """First s in {s0, sigma s0, sigma^2 s0, ...} passing the decrease test.

    Accepts s once min_i [f_i(w + s d) - f_i(w) - s <grad f_i(w), d>] no
    longer exceeds s ||d||^2 / 2; the run loops pass ``sigma = SIGMA``.
    ``grads`` is the gradient matrix at ``w`` as an array
    (``problems.gradient_matrix``), which every caller holds.
    Returns (s, capped); after 200 shrinkages the last candidate is returned
    with capped=True rather than failing.

    The trial point ``w + s d``, the slopes ``grads.T.dot(d)`` and
    ``d.dot(d)`` are numpy's; each gain is ``(f_i(w + s d) - f_i(w)) - s
    slope_i`` on Python floats, numpy's order for ``trial - fw - s * slopes``,
    so the test accepts the same steps.  F is read as the oracle gives it: a
    list (the bi-objective problems' form) as it is, an array through its
    ``tolist``, anything else (a tuple, say) as ``objective_values`` reads it.
    """
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    fw = prob.objectives(w)
    if type(fw) is not list:
        fw = (fw if type(fw) is np.ndarray else np.asarray(fw, dtype=float)).tolist()
    slopes = grads.T.dot(d).tolist()
    dd = float(d.dot(d))
    s = float(s0)
    for _ in range(200):
        trial = prob.objectives(w + s * d)
        if type(trial) is not list:
            trial = (trial if type(trial) is np.ndarray else np.asarray(trial, dtype=float)).tolist()
        # non-finite trials (extended-value objectives) always shrink; the
        # min over objectives would otherwise let an affine objective accept
        if all(map(math.isfinite, trial)):
            # strict: an F of another length than the slopes is refused, not
            # cut to the shorter
            gains = [(t - f) - s * g for t, f, g in zip(trial, fw, slopes, strict=True)]
            # a NaN gain (from a non-finite f_i(w) or slope) rejects the
            # step, as it made numpy's min NaN
            if min(gains) <= 0.5 * s * dd and not any(map(math.isnan, gains)):
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
    t0 = time.perf_counter()
    x = as_point(prob, x0, "x0").copy()
    # the step s is fixed for *_const; otherwise it is the carried-over
    # accepted step, which also scales the projection subproblem
    step = _resolve_steps(prob, cfg)
    if cfg.variant == STEEPEST_LS:
        alpha = None
    elif cfg.variant in (ACCG_CONST, ACCG_LS):
        alpha = 3.0
    else:
        alpha = cfg.alpha
    trace = IterationTrace()
    # the split on m of simplex_qp and the flow (see the module docstring)
    steps = _pair_steps if prob.m == 2 else _array_steps
    steps(prob, cfg, trace, x, step, alpha, t0)
    return trace


def _record(trace, cfg, x, residual, gap, certified, k, t0):
    """Append the record at iterate ``x``; True when the run stops there."""
    trace.points.append(x)
    trace.kkt_residuals.append(residual)
    trace.steps.append(float("nan"))
    trace.qp_gaps.append(gap)
    trace.hull_gaps.append(gap)
    trace.elapsed.append(time.perf_counter() - t0)
    if not certified:
        trace.termination = QP_FAILURE
        trace.hull_certified = False
    elif residual < cfg.epsilon:
        trace.termination = CONVERGED
    elif k >= cfg.k_max:
        trace.termination = KMAX
    else:
        return False
    return True


def _array_steps(prob, cfg, trace, x, step, alpha, t0):
    """The steps of :func:`run_solver` on numpy vectors, for m != 2."""
    line_search = cfg.variant not in _CONST_VARIANTS
    x_prev = x
    k = 1
    # each QP warm-starts from its own previous weights: consecutive hulls
    # are nearly the same, so the optimal face rarely changes
    hull_w = proj_w = None
    while True:
        try:
            grads_x = gradient_matrix(prob, x)
            hull = min_norm_in_hull(grads_x, start=hull_w)
            hull_w, u = hull.weights, hull.point
            residual, gap, certified = math.sqrt(u @ u), hull.gap, hull.converged
        except ValueError:
            # an oracle, shape or NonFiniteInput error at x_k is recorded as
            # a min-norm solve that did not certify
            residual, gap, certified = math.nan, math.nan, False
        if _record(trace, cfg, x, residual, gap, certified, k, t0):
            break

        try:
            if alpha is None:
                y, d, grads_y = x, -u, grads_x
            else:
                pi = mfisc_momentum(x - x_prev, k, alpha, u)
                y = x + pi
                grads_y = gradient_matrix(prob, y)
                proj = project_onto_scaled_hull(grads_y, step, pi, start=proj_w)
                proj_w = proj.weights
                trace.qp_gaps[-1] = max(trace.qp_gaps[-1], proj.gap)
                if not proj.converged:
                    trace.termination = QP_FAILURE
                    break
                d = -(grads_y @ proj.weights)
            if line_search:
                step, capped = line_search_backtracking(prob, y, step, SIGMA, d, grads_y)
                if capped:
                    trace.capped.append(k - 1)
        except ValueError:
            # oracle evaluation failed at a probe point (an objective outside
            # the smoothness assumptions, or an oracle result of the wrong
            # shape or length), or the QP's NonFiniteInput, a ValueError
            # too; abort with the partial trace
            trace.termination = QP_FAILURE
            break

        trace.steps[-1] = step
        x_prev, x = x, y + step * d
        k += 1


def _pair_steps(prob, cfg, trace, x, step, alpha, t0):
    """The steps of :func:`run_solver` at m = 2, on Python floats (see the
    module docstring): the steps of :func:`_array_steps`, in the same order,
    with both hull QPs solved by the closed-form kernel."""
    line_search = cfg.variant not in _CONST_VARIANTS
    x_prev = x_curr = x.tolist()
    k = 1
    while True:
        try:
            rows = gradient_rows(prob, x)
            _, u, gap, certified = closed_form_rows(rows, 1.0, None)
            residual = math.hypot(*u)
        except ValueError:
            # as in _array_steps
            residual, gap, certified = math.nan, math.nan, False
        if _record(trace, cfg, x, residual, gap, certified, k, t0):
            break

        try:
            if alpha is None:
                y, w, d = x_curr, x, [-a for a in u]
            else:
                denom = k + alpha - 1.0
                pi = corrected_momentum(
                    (k - 1.0) / denom, x_curr, x_prev, (alpha - 3.0) / denom, u, residual
                )
                y = [a + p for a, p in zip(x_curr, pi)]
                w = np.array(y)
                rows = gradient_rows(prob, w)
                # project_onto_scaled_hull's scale check: the line search can
                # shrink the carried-over step to 0.0
                if not 0.0 < step < math.inf:
                    raise ValueError("scale must be positive and finite")
                t, _, gap, certified = closed_form_rows(rows, step, pi)
                trace.qp_gaps[-1] = max(trace.qp_gaps[-1], gap)
                if not certified:
                    trace.termination = QP_FAILURE
                    break
                s = 1.0 - t
                d = [-(a * t + b * s) for a, b in rows]
            if line_search:
                # the slopes are numpy's grads.T.dot(d), on the rows at w
                step, capped = line_search_backtracking(
                    prob, w, step, SIGMA, np.array(d), np.array(rows)
                )
                if capped:
                    trace.capped.append(k - 1)
        except ValueError:
            # as in _array_steps
            trace.termination = QP_FAILURE
            break

        trace.steps[-1] = step
        x_prev, x_curr = x_curr, [a + step * b for a, b in zip(y, d)]
        x = np.array(x_curr)
        k += 1


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
            + objective_values(prob, x).tolist()
            + [trace.steps[i], trace.qp_gaps[i]]
        )
        x_prev = x
    return rows
