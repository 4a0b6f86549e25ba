"""Shared test fixtures and independent verification oracles.

The oracles here deliberately avoid the library's solution paths: simplex
QPs are checked against dense lattice enumeration, gradients against central
differences, merit values against a dense grid on quad2, and fronts against
dense samplings of the known parametrized Pareto sets.
"""

import math
import zlib
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

import mograd.flow
import mograd.simplex_qp
import mograd.solvers
from mograd.flow import FLOW_COMPLETED, FLOW_QP_FAILURE, Trajectory
from mograd.problems import (
    ProblemInstance,
    as_point,
    get_problem,
    gradient_matrix,
    least_squares_family,
    logsumexp_family,
)
from mograd.simplex_qp import DEFAULT_TOL, _check_finite, _effective_tol
from mograd.solvers import (
    ACCG_CONST,
    ACCG_LS,
    CONVERGED,
    KMAX,
    QP_FAILURE,
    STEEPEST_LS,
    IterationTrace,
    mfisc_momentum,
)


@lru_cache(maxsize=8)
def _simplex_lattice(m, resolution):
    """All simplex points with coordinates on the grid {0, 1/K, ..., 1}."""
    if m == 1:
        return np.ones((1, 1))
    if m == 2:
        t = np.arange(resolution + 1) / resolution
        return np.stack([t, 1.0 - t], axis=1)
    if m == 3:
        i, j = np.meshgrid(
            np.arange(resolution + 1), np.arange(resolution + 1), indexing="ij"
        )
        keep = i + j <= resolution
        t1 = i[keep] / resolution
        t2 = j[keep] / resolution
        return np.stack([t1, t2, 1.0 - t1 - t2], axis=1)
    raise NotImplementedError("lattice oracle covers m <= 3")


def grid_min_hull_objective(G, scale, v, resolution=1000):
    """Lattice minimum of q(theta) = 0.5 ||scale * G theta - v||^2.

    Pure enumeration over the simplex grid; independent of the projected
    gradient solver under test.
    """
    G = np.asarray(G, dtype=float)
    v = np.asarray(v, dtype=float)
    lattice = _simplex_lattice(G.shape[1], resolution)
    S = scale * G
    H = S.T @ S
    c = S.T @ v
    M = lattice @ H
    quad = 0.5 * np.einsum("ij,ij->i", M, lattice)
    return float(np.min(quad - lattice @ c) + 0.5 * (v @ v))


def grid_min_hull_objective_pair(G, v, resolution=1000):
    """Lattice minima of 0.5||G theta||^2 and 0.5||G theta - v||^2 together.

    Both objectives share the Gram quadratic, so one lattice pass serves the
    min-norm check and the projection check of the same instance.
    """
    G = np.asarray(G, dtype=float)
    v = np.asarray(v, dtype=float)
    lattice = _simplex_lattice(G.shape[1], resolution)
    M = lattice @ (G.T @ G)
    quad = 0.5 * np.einsum("ij,ij->i", M, lattice)
    min_norm = float(np.min(quad))
    projected = float(np.min(quad - lattice @ (G.T @ v)) + 0.5 * (v @ v))
    return min_norm, projected


def finite_difference_gradients(prob, x, step=1e-6):
    """Central-difference Jacobian columns, shape (n, m), for gradient checks."""
    x = np.asarray(x, dtype=float)
    cols = np.zeros((prob.n, prob.m))
    for i in range(prob.n):
        h = step * max(1.0, abs(x[i]))
        e = np.zeros(prob.n)
        e[i] = h
        cols[i, :] = (prob.objectives(x + e) - prob.objectives(x - e)) / (2.0 * h)
    return cols


def quad2_values(X):
    """The quad2 objectives at each row of ``X`` (N, 2), shape (N, 2):
    f1 = (x1 - 1)^2 + x2^2 / 2 and f2 = x1^2 / 2 + (x2 - 1)^2."""
    X = np.asarray(X, dtype=float)
    f1 = (X[:, 0] - 1.0) ** 2 + 0.5 * X[:, 1] ** 2
    f2 = 0.5 * X[:, 0] ** 2 + (X[:, 1] - 1.0) ** 2
    return np.stack([f1, f2], axis=1)


def merit_grid_oracle(x, box, resolution=801):
    """Grid lower bound for the quad2 merit value phi(x).

    ``box`` is ((x1_lo, x1_hi), (x2_lo, x2_hi)) and must contain the level
    set L(F, F(x)), where the inner maximizer lives.  Returns the maximum of
    min_i [f_i(x) - f_i(z)] over the resolution x resolution lattice, which
    converges to phi as the grid refines.
    """
    (lo1, hi1), (lo2, hi2) = box
    g1 = np.linspace(lo1, hi1, resolution)
    g2 = np.linspace(lo2, hi2, resolution)
    Z = np.stack([np.repeat(g1, resolution), np.tile(g2, resolution)], axis=1)
    fx = quad2_values(np.reshape(x, (1, 2)))
    return float(np.max(np.min(fx - quad2_values(Z), axis=1)))


def single_objective_problem(fun, grad, n, name="single", lipschitz=None):
    """Wrap a scalar objective as a one-objective ProblemInstance."""
    return ProblemInstance(
        name=name,
        n=n,
        m=1,
        objectives=lambda x: np.array([fun(x)]),
        gradient_columns=lambda x: np.asarray(grad(x), dtype=float).reshape(-1, 1),
        init_box=(np.full(n, -1.0), np.full(n, 1.0)),
        lipschitz=lipschitz,
    )


def spd_quadratic_problem(seed=42, n=5):
    """Random SPD quadratic 0.5 x^T Q x as a single-objective instance."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(n, n))
    Q = M @ M.T + n * np.eye(n)
    prob = single_objective_problem(
        lambda x: 0.5 * float(x @ Q @ x),
        lambda x: Q @ x,
        n,
        name="spd_quadratic",
        lipschitz=float(np.linalg.eigvalsh(Q)[-1]),
    )
    return prob, Q


@lru_cache(maxsize=8)
def _pareto_set(key, samples):
    """``get_problem(key).pareto_param`` at ``samples`` evenly spaced lambdas
    in [0, 1], built once per problem; a problem's name is its registry key."""
    prob = get_problem(key)
    return np.array([prob.pareto_param(lam) for lam in np.linspace(0.0, 1.0, samples)])


@lru_cache(maxsize=8)
def _pareto_front(key, samples):
    """The objective values of :func:`_pareto_set`, built once per problem."""
    prob = get_problem(key)
    return np.array([prob.objectives(x) for x in _pareto_set(key, samples)])


def dense_front_distance(prob, f_point, samples=20001):
    """Objective-space distance from f_point to the parametrized front."""
    front = _pareto_front(prob.name, samples)
    return float(np.min(np.linalg.norm(front - np.asarray(f_point), axis=1)))


def pareto_segment_distance(prob, x, samples=20001):
    """Decision-space distance from x to the parametrized Pareto set."""
    seg = _pareto_set(prob.name, samples)
    return float(np.min(np.linalg.norm(seg - np.asarray(x), axis=1)))


def five_objective_problem(family, n, p, seed):
    """The ex1 or ex2 family with five objectives instead of three.

    Three objectives make both hull QPs a Gram solve that Wolfe's method
    only backs up; five keep every solve on Wolfe's method and its warm
    start.  The data follow the family: log-sum-exp objectives on
    uniform[-1, 1] data for ex1, least squares on uniform[0, 1] data for
    ex2, delta = 0.05 and the start box [-2, 2]^n.
    """
    rng = np.random.default_rng(seed)
    build, lo = {"ex1": (logsumexp_family, -1.0), "ex2": (least_squares_family, 0.0)}[family]
    return build(
        f"{family}x5:n={n},p={p},seed={seed}",
        [rng.uniform(lo, 1.0, size=(p, n)) for _ in range(5)],
        [rng.uniform(lo, 1.0, size=p) for _ in range(5)],
        delta=0.05,
        init_box=(np.full(n, -2.0), np.full(n, 2.0)),
    )


# Malformed gradient oracle results, from a well-formed gradient array ``G``:
# a NaN matrix, arrays of the wrong shape, and the same faults in rows
# (lists), the other form an oracle may return.
MALFORMED_GRADIENTS = {
    "NaN": lambda G: np.full_like(G, np.nan),
    "1-D": lambda G: G[:, 0],
    "extra row": lambda G: np.vstack([G, G[:1]]),
    "rows missing one": lambda G: G.tolist()[:-1],
    "rows with one extra": lambda G: G.tolist() + G.tolist()[:1],
    "rows with a long last row": lambda G: G.tolist()[:-1] + [G.tolist()[-1] + [0.0]],
    "flat list": lambda G: G.ravel().tolist(),
}


def malformed_gradient_error(prob, result):
    """The error ``problems.gradient_matrix`` and ``gradient_rows`` raise for
    the oracle ``result`` of a wrong shape: the shape message, which names
    no shape of the result when its rows are ragged."""
    needs = f"but {prob.name} needs {(prob.n, prob.m)}"
    if isinstance(result, list) and len({len(row) for row in result if isinstance(row, list)}) > 1:
        return ValueError, f"gradient matrix is not an array of numbers, {needs}"
    return ValueError, f"gradient matrix has shape {np.shape(result)}, {needs}"


def wrap_hull_qps(monkeypatch, module, cold):
    """Replace ``module``'s two hull QP names with counting wrappers.

    With ``cold`` the wrappers drop ``start``, so every solve starts cold.
    Returns the list the wrappers append each solve's major cycles to.
    """
    cycles = []
    for name in ("min_norm_in_hull", "project_onto_scaled_hull"):

        def solve(*args, start=None, _qp=getattr(mograd.simplex_qp, name)):
            sol = _qp(*args, start=None if cold else start)
            cycles.append(sol.iterations)
            return sol

        monkeypatch.setattr(module, name, solve)
    return cycles


def reference_integrate(prob, cfg, system):
    """The flow step of ``mograd.flow`` on numpy vectors, one row at a time.

    The reference for the Python-float loop of ``mograd.flow._integrate``:
    the same steps in the same order, with numpy's vector arithmetic and the
    norms from ``math.sqrt(v @ v)``.  It calls the two hull QPs through the
    names ``mograd.flow`` imports, looked up on each call, so a test's
    monkeypatch reaches both integrators.  ``system`` "mavd" runs at
    beta = alpha.
    """
    if system == "mavd":
        cfg = replace(cfg, beta=cfg.alpha)
    steps = max(int(round((cfg.t_end - mograd.flow.T0) / cfg.h)), 1)
    points = np.empty((steps + 1, prob.n))
    residuals = np.empty(steps + 1)
    points[0] = points[1] = cfg.x0
    termination = FLOW_COMPLETED
    reached = steps
    x_prev = cfg.x0.copy()
    x_curr = cfg.x0.copy()
    hull_w = proj_w = None
    for k in range(1, steps + 1):
        t_k = mograd.flow.T0 + k * cfg.h
        grads = gradient_matrix(prob, x_curr)
        hull = mograd.flow.min_norm_in_hull(grads, start=hull_w)
        hull_w = hull.weights
        u = hull.point
        residual = math.sqrt(u @ u)
        residuals[k] = residual
        if not hull.converged:
            termination, reached = FLOW_QP_FAILURE, k
            break
        if k == steps:
            break
        dx = x_curr - x_prev
        norm_dx = math.sqrt(dx @ dx)
        coeff = (cfg.alpha - cfg.beta) * cfg.h / t_k**cfg.p
        if coeff != 0.0 and norm_dx > 0.0 and residual > 0.0:
            v_k = dx - coeff * (norm_dx / residual) * u
        else:
            v_k = dx
        proj = mograd.flow.project_onto_scaled_hull(grads, cfg.h * cfg.h, v_k, start=proj_w)
        proj_w = proj.weights
        if not proj.converged:
            termination, reached = FLOW_QP_FAILURE, k
            break
        x_next = x_curr + t_k / (t_k + cfg.alpha * cfg.h) * (v_k - proj.point)
        points[k + 1] = x_next
        x_prev, x_curr = x_curr, x_next
    residuals[0] = residuals[1]
    count = reached + 1
    return Trajectory(
        config=cfg,
        system=system,
        times=mograd.flow.T0 + np.arange(count) * cfg.h,
        points=points[:count],
        kkt_residuals=residuals[:count],
        merit=np.full(count, np.nan),
        termination=termination,
    )


def reference_run_solver(prob, cfg, x0):
    """``mograd.solvers.run_solver`` with every step on numpy vectors.

    The reference for the Python-float steps of the solvers at m = 2, and
    for their numpy steps at m = 3: the same steps in the same order
    through the two public hull QPs, with
    numpy's vector arithmetic, ``d = -(grads_y @ weights)`` and the norms
    from ``math.sqrt(v @ v)``.  The QPs and the line search are looked up
    on ``mograd.solvers`` at each call, so a test's monkeypatch reaches
    both loops.  The trace's ``elapsed`` times are not recorded.
    """
    solvers = mograd.solvers
    x = as_point(prob, x0, "x0").copy()
    step = solvers._resolve_steps(prob, cfg)
    line_search = cfg.variant not in solvers._CONST_VARIANTS
    if cfg.variant == STEEPEST_LS:
        alpha = None
    elif cfg.variant in (ACCG_CONST, ACCG_LS):
        alpha = 3.0
    else:
        alpha = cfg.alpha
    trace = IterationTrace()
    x_prev = x
    k = 1
    hull_w = proj_w = None
    while True:
        grads_x = gradient_matrix(prob, x)
        hull = solvers.min_norm_in_hull(grads_x, start=hull_w)
        hull_w = hull.weights
        u = hull.point
        residual = math.sqrt(u @ u)
        trace.points.append(x)
        trace.kkt_residuals.append(residual)
        trace.steps.append(float("nan"))
        trace.qp_gaps.append(hull.gap)
        trace.hull_gaps.append(hull.gap)
        if not hull.converged:
            trace.termination = QP_FAILURE
            trace.hull_certified = False
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
                grads_y = gradient_matrix(prob, y)
                proj = solvers.project_onto_scaled_hull(grads_y, step, pi, start=proj_w)
                proj_w = proj.weights
                trace.qp_gaps[-1] = max(trace.qp_gaps[-1], proj.gap)
                if not proj.converged:
                    trace.termination = QP_FAILURE
                    break
                d = -(grads_y @ proj.weights)
            if line_search:
                step, capped = solvers.line_search_backtracking(prob, y, step, solvers.SIGMA, d, grads_y)
                if capped:
                    trace.capped.append(k - 1)
        except ValueError:
            trace.termination = QP_FAILURE
            break
        trace.steps[-1] = step
        x_prev, x = x, y + step * d
        k += 1
    return trace


def reference_sd_oracles():
    """The ``sd`` objectives and gradient columns on numpy vectors.

    The reference for the Python-float oracles of ``mograd.problems.sd``:
    the orthant test, the reciprocal sum and the gradient column as numpy
    expressions, with the same ``inf`` objective and ``ValueError`` outside
    the positive orthant.
    """
    linear = np.array([2.0, math.sqrt(2.0), math.sqrt(2.0), 1.0])
    recip = np.array([2.0, 2.0 * math.sqrt(2.0), 2.0 * math.sqrt(2.0), 2.0])

    def objectives(x):
        if (x <= 0.0).any():
            return np.array([float(linear @ x), np.inf])
        return np.array([float(linear @ x), float((recip / x).sum())])

    def gradient_columns(x):
        if (x <= 0.0).any():
            raise ValueError("sd gradients are defined on the positive orthant")
        cols = np.empty((4, 2))
        cols[:, 0] = linear
        cols[:, 1] = -recip / (x * x)
        return cols

    return objectives, gradient_columns


def reference_jos1_oracles(n):
    """The ``jos1`` oracles at dimension ``n`` with the gradient filled by two
    strided column stores, the reference for ``np.subtract.outer``."""

    def objectives(x):
        d = x - 2.0
        return np.array([float(x @ x) / n, float(d @ d) / n])

    def gradient_columns(x):
        cols = np.empty((n, 2))
        cols[:, 0] = 2.0 * x / n
        cols[:, 1] = 2.0 * (x - 2.0) / n
        return cols

    return objectives, gradient_columns


def reference_problem(key):
    """``get_problem(key)`` with the reference oracles for ``sd`` and ``jos1``;
    any other problem as it is."""
    prob = get_problem(key)
    if prob.name == "sd":
        objectives, gradient_columns = reference_sd_oracles()
    elif prob.name.startswith("jos1"):
        objectives, gradient_columns = reference_jos1_oracles(prob.n)
    else:
        return prob
    return replace(prob, objectives=objectives, gradient_columns=gradient_columns)


def reference_line_search(prob, w, s0, sigma, d, grads):
    """``mograd.solvers.line_search_backtracking`` with its decrease test on
    numpy vectors: ``np.isfinite(trial).all()`` and the min of the gains
    ``trial - fw - s * slopes``, NaN if any gain is NaN."""
    w = np.asarray(w, dtype=float)
    d = np.asarray(d, dtype=float)
    fw = prob.objectives(w)
    slopes = grads.T @ d
    dd = float(d @ d)
    s = float(s0)
    for _ in range(200):
        trial = prob.objectives(w + s * d)
        if np.isfinite(trial).all():
            gain = trial - fw - s * slopes
            if float(gain.min()) <= 0.5 * s * dd:
                return s, False
        s *= sigma
    return s, True


def reference_closed_form_rows(rows, scale, v):
    """``mograd.simplex_qp.closed_form_rows`` with one path for both QPs:
    the min-norm QP is the target ``[0.0] * n`` at scale 1.0, and the pass
    that builds the point and the certificate also sums the squared norms
    of the tolerance's scale, whatever the gap."""
    dd = vd = 0.0
    for (a, b), y in zip(rows, v):
        s2 = scale * b
        d = scale * a - s2
        dd += d * d
        vd += (y - s2) * d
    if not math.isfinite(dd + vd):
        _check_finite(np.array(rows), np.array(v))
    t = vd / dd if dd > 0.0 else 1.0
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    u = 1.0 - t
    point = []
    rp = r1 = r2 = c1 = c2 = vv = 0.0
    for (a, b), y in zip(rows, v):
        s1 = scale * a
        s2 = scale * b
        p = s1 * t + s2 * u
        r = p - y
        rp += r * p
        r1 += r * s1
        r2 += r * s2
        c1 += s1 * s1
        c2 += s2 * s2
        vv += y * y
        point.append(p)
    gap = max(rp - (r1 if r1 <= r2 else r2 if r2 < r1 else math.nan), 0.0)
    q_scale = max(1.0, c1, c2, vv)
    return t, point, gap, gap <= DEFAULT_TOL or gap <= _effective_tol(q_scale)


@pytest.fixture
def rng(request):
    """A generator of its own for each test, keyed by the test's node id.

    A test's draws then depend neither on the tests that ran before it nor
    on whether its file runs alone.
    """
    return np.random.default_rng([20240831, zlib.crc32(request.node.nodeid.encode())])
