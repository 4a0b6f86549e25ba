import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mograd.solvers
from mograd.harness import sample_starts, write_csv
from mograd.problems import InvalidConfig, get_problem, kkt_residual, quadratic_pair
from mograd.simplex_qp import DEFAULT_TOL, NonFiniteInput
from mograd.solvers import (
    ACCG_CONST,
    ACCG_LS,
    CONVERGED,
    KMAX,
    MFISC_CONST,
    MFISC_LS,
    QP_FAILURE,
    STEEPEST_LS,
    VARIANTS,
    SolverConfig,
    corrected_momentum,
    line_search_backtracking,
    mfisc_momentum,
    run_solver,
    tolerance,
    trace_csv_rows,
)

from conftest import (
    five_objective_problem,
    reference_line_search,
    reference_problem,
    reference_run_solver,
    single_objective_problem,
    spd_quadratic_problem,
    wrap_hull_qps,
)


class TestMomentum:
    def test_first_iteration_is_zero(self):
        x = np.array([1.0, 2.0])
        assert_allclose(mfisc_momentum(x - x, 1, 7.0, np.array([5.0, -1.0])), [0.0, 0.0])

    def test_alpha_three_drops_correction(self, rng):
        x_prev, x_curr = rng.normal(size=2), rng.normal(size=2)
        pi = mfisc_momentum(x_curr - x_prev, 5, 3.0, rng.normal(size=2))
        assert_allclose(pi, (4.0 / 7.0) * (x_curr - x_prev), atol=0)

    def test_hand_worked_value(self):
        # m = 1, f = ||x||^2/2, x_prev = (1,0), x_curr = (0.9,0), k = 2,
        # alpha = 4: pi = (1/5)(-0.1,0) - (1/5)(0.1/0.9)(0.9,0) = (-0.04, 0)
        dx = np.array([0.9, 0.0]) - np.array([1.0, 0.0])
        pi = mfisc_momentum(dx, 2, 4.0, np.array([0.9, 0.0]))
        assert_allclose(pi, [-0.04, 0.0], atol=1e-15)

    def test_zero_gap_kills_correction_for_any_u(self):
        pi = mfisc_momentum(np.ones(3) - np.ones(3), 9, 50.0, np.full(3, 1e300))
        assert_allclose(pi, np.zeros(3))

    @pytest.mark.parametrize("n", [2, 4, 40])
    def test_list_form_matches_numpy_form(self, rng, n):
        # the two forms differ only in the norms (math.dist and math.hypot
        # against math.sqrt of numpy's dot), so each entry agrees to a few
        # ulps of its two terms c Delta_i and r u_i
        eps = np.finfo(float).eps
        for _ in range(200):
            x_prev, x_curr, u = rng.normal(size=(3, n)) * rng.uniform(1e-3, 1e3, 3)[:, None]
            k, alpha = int(rng.integers(1, 1000)), rng.uniform(3.0, 200.0)
            denom = k + alpha - 1.0
            c, coeff = (k - 1.0) / denom, (alpha - 3.0) / denom
            want = mfisc_momentum(x_curr - x_prev, k, alpha, u)
            got = corrected_momentum(c, x_curr.tolist(), x_prev.tolist(), coeff, u.tolist(), math.hypot(*u))
            r = coeff * np.linalg.norm(x_curr - x_prev) / np.linalg.norm(u)
            terms = np.abs(c * (x_curr - x_prev)) + np.abs(r * u)
            assert np.all(np.abs(np.array(got) - want) <= 8 * eps * terms)

    @pytest.mark.parametrize("n", [2, 4, 40])
    def test_zero_u_leaves_the_plain_momentum(self, rng, n):
        # the correction is undefined only at u = 0: both forms leave it
        # out and return c Delta exactly, without dividing by ||u||
        x_prev, x_curr = rng.normal(size=(2, n))
        k, alpha = 7, 50.0
        c, coeff = (k - 1.0) / (k + alpha - 1.0), (alpha - 3.0) / (k + alpha - 1.0)
        plain = c * (x_curr - x_prev)
        assert np.array_equal(mfisc_momentum(x_curr - x_prev, k, alpha, np.zeros(n)), plain)
        got = corrected_momentum(c, x_curr.tolist(), x_prev.tolist(), coeff, [0.0] * n, 0.0)
        assert got == plain.tolist()


class TestLineSearch:
    def test_zero_direction_returns_initial(self):
        prob = single_objective_problem(lambda x: 0.5 * float(x @ x), lambda x: x, 2)
        w = np.array([3.0, 1.0])
        s, capped = line_search_backtracking(
            prob, w, 10.0, 0.8, np.zeros(2), prob.gradient_columns(w)
        )
        assert s == 10.0 and not capped

    def test_quadratic_accepts_eleventh_candidate(self):
        # for f = ||x||^2/2 along d = -grad the test accepts the first s <= 1;
        # the smallest j with 10 * 0.8^j <= 1 is j = 11 (verified by the loop)
        prob = single_objective_problem(lambda x: 0.5 * float(x @ x), lambda x: x, 2)
        w = np.array([3.0, -1.0])
        s, capped = line_search_backtracking(prob, w, 10.0, 0.8, -w, prob.gradient_columns(w))
        j = 0
        while 10.0 * 0.8**j > 1.0:
            j += 1
        assert j == 11
        assert s == pytest.approx(10.0 * 0.8**11, rel=0, abs=0)
        assert not capped

    def test_slopes_come_from_the_given_columns(self):
        # the caller already holds the gradient columns at w; the search
        # must not evaluate the gradient oracle again
        def no_gradient(x):
            raise AssertionError("gradient oracle called")

        prob = single_objective_problem(lambda x: 0.5 * float(x @ x), no_gradient, 2)
        w = np.array([3.0, -1.0])
        s, capped = line_search_backtracking(prob, w, 10.0, 0.8, -w, w.reshape(-1, 1))
        assert s == 10.0 * 0.8**11 and not capped

    def test_accepted_step_satisfies_inequality(self, rng):
        prob = quadratic_pair()
        for _ in range(20):
            w = rng.uniform(-2.0, 2.0, 2)
            d = rng.normal(size=2)
            s, capped = line_search_backtracking(prob, w, 10.0, 0.8, d, prob.gradient_columns(w))
            if capped:
                continue
            gain = prob.objectives(w + s * d) - prob.objectives(w)
            gain -= s * (prob.gradient_columns(w).T @ d)
            assert float(np.min(gain)) <= 0.5 * s * float(d @ d) + 1e-12

    def test_cap_flag_when_test_cannot_hold(self):
        # unit jump at the start point: the convexity-gap test fails for
        # every candidate below 2, so the shrink loop runs out
        prob = single_objective_problem(
            lambda x: float(x[0] > 0.0), lambda x: np.zeros(1), 1
        )
        w = np.zeros(1)
        s, capped = line_search_backtracking(prob, w, 1.0, 0.5, np.ones(1), prob.gradient_columns(w))
        assert capped
        assert s == pytest.approx(0.5**200, rel=1e-12)


    def test_objectives_of_the_wrong_length_are_refused(self):
        # an F with one value more than the slopes, finite everywhere, is
        # not cut to its first m values
        base = quadratic_pair()
        prob = dataclasses.replace(base, objectives=lambda x: np.append(base.objectives(x), 0.0))
        w = np.array([0.3, -0.4])
        with pytest.raises(ValueError):
            line_search_backtracking(prob, w, 10.0, 0.8, -w, base.gradient_columns(w))

    @pytest.mark.parametrize("variant", [MFISC_LS, ACCG_LS, STEEPEST_LS])
    def test_objectives_of_the_wrong_length_end_a_run(self, variant):
        # the first line search refuses it, a probe-point ValueError: the
        # run ends qp_failure with its first record
        base = get_problem("quad2")
        prob = dataclasses.replace(base, objectives=lambda x: np.append(base.objectives(x), 0.0))
        x0 = sample_starts(base, 1, 0)[0]
        trace = run_solver(prob, reference_config("quad2", variant), x0)
        assert trace.termination == QP_FAILURE and len(trace.points) == 1


REGISTRY_KEYS = ["quad2", "lse2", "jos1", "jos1:n=7", "sd", "toi4",
                 "ex1:n=10,p=8,seed=1", "ex2:n=6,p=5,seed=2"]


class TestReferenceLineSearch:
    """The float decrease test accepts the steps of the numpy one in conftest."""

    @pytest.mark.parametrize("key", REGISTRY_KEYS)
    def test_same_steps_on_every_registry_problem(self, key, rng):
        prob = get_problem(key)
        lo, hi = prob.init_box
        backtracked = 0
        for _ in range(40):
            w = rng.uniform(lo, hi)
            grads = prob.gradient_columns(w)
            theta = rng.dirichlet(np.ones(prob.m))
            for d in (-(grads @ theta), rng.normal(size=prob.n), -w):
                for s0, sigma in ((10.0, 0.8), (1e3, 0.5), (0.1, 0.3)):
                    got = line_search_backtracking(prob, w, s0, sigma, d, grads)
                    assert got == reference_line_search(prob, w, s0, sigma, d, grads)
                    backtracked += got[0] != s0
        assert backtracked > 0

    def test_trials_outside_the_sd_orthant_shrink_alike(self, rng):
        prob = get_problem("sd")
        for _ in range(40):
            w = rng.uniform(*prob.init_box)
            c = rng.uniform(0.5, 5.0)
            d = -c * w  # w + s d = (1 - s c) w leaves the orthant once s >= 1/c
            grads = prob.gradient_columns(w)
            got = line_search_backtracking(prob, w, 10.0, 0.8, d, grads)
            assert not (w + 10.0 * d > 0.0).all()
            assert got == reference_line_search(prob, w, 10.0, 0.8, d, grads)
            assert got[0] < 10.0

    @pytest.mark.parametrize("column", [0, 1])
    def test_nan_gain_rejects_every_step(self, column):
        # a NaN slope makes one gain NaN: numpy's min was NaN, so no step
        # passed, even where the other objective's gain would have
        prob = quadratic_pair()
        w = np.array([0.3, -0.7])
        grads = prob.gradient_columns(w)
        d = -grads.sum(axis=1)
        assert not line_search_backtracking(prob, w, 1.0, 0.8, d, grads)[1]
        grads[:, column] = math.nan
        got = line_search_backtracking(prob, w, 1.0, 0.8, d, grads)
        with np.errstate(invalid="ignore"):  # numpy warns on the NaN gains
            assert got == reference_line_search(prob, w, 1.0, 0.8, d, grads)
        assert got[1]

    def test_nonfinite_objective_at_w_alike(self):
        # f_2(w) = inf outside sd's orthant: each gain is -inf, or NaN where
        # the slope is -inf too
        prob = get_problem("sd")
        w = np.array([-1.0, 2.0, 2.0, 2.0])
        d = np.array([3.0, 0.0, 0.0, 0.0])
        grads = np.array([[2.0, -1.0], [1.0, -1.0], [1.0, -1.0], [1.0, -1.0]])
        for slope in (-1.0, -math.inf):
            grads[0, 1] = slope
            got = line_search_backtracking(prob, w, 10.0, 0.8, d, grads)
            with np.errstate(invalid="ignore"):  # numpy warns on -inf + inf
                assert got == reference_line_search(prob, w, 10.0, 0.8, d, grads)
            # the -inf gain accepts the first trial, the NaN gain none
            assert got[1] == math.isinf(slope)

    def test_shrink_cap_alike(self):
        # along an ascent direction of quad2 the test needs s <= 1, out of
        # reach of 200 shrinks by 0.99 from 1e3
        prob = quadratic_pair()
        w = np.array([0.3, -0.7])
        grads = prob.gradient_columns(w)
        d = grads.sum(axis=1)
        got = line_search_backtracking(prob, w, 1e3, 0.99, d, grads)
        assert got == reference_line_search(prob, w, 1e3, 0.99, d, grads)
        assert got[1]


class TestReferenceRuns:
    @pytest.mark.parametrize("key", ["jos1", "sd", "quad2", "toi4"])
    def test_trace_csvs_byte_identical(self, key, tmp_path, monkeypatch):
        prob = get_problem(key)
        starts = sample_starts(prob, 3, 7)
        terminations = set()
        paths = []
        for side in ("new", "reference"):
            if side == "reference":
                prob = reference_problem(key)
                monkeypatch.setattr(mograd.solvers, "line_search_backtracking", reference_line_search)
            for variant in VARIANTS:
                step = 0.05 if key == "jos1" and variant.endswith("_const") else None
                cfg = SolverConfig(variant=variant, step=step, epsilon=1e-6, k_max=150)
                for i, x0 in enumerate(starts):
                    trace = run_solver(prob, cfg, x0)
                    terminations.add(trace.termination)
                    path = tmp_path / side / f"{variant}_{i}.csv"
                    paths.append(write_csv(path, trace_csv_rows(trace, prob)))
        half = len(paths) // 2
        for new, ref in zip(paths[:half], paths[half:]):
            assert new.read_bytes() == ref.read_bytes(), new.name
        if key == "sd":
            # the runs whose momentum point leaves the orthant are covered
            assert "qp_failure" in terminations


# The float steps at m = 2 against the numpy loop: points and residuals
# agree to this bound, relative to each run's largest entry.  The largest
# moves measured on TestReferenceLoop's runs are 4.2e-13 for the points and
# 3.8e-12 for the residuals, both on an sd mfisc_ls run whose momentum point
# lies near the orthant's boundary, where the gradient -r / x^2 amplifies a
# last-bit difference in x; on the other problems they stay below 1e-13.
RELATIVE_BOUND = 1e-11


def assert_matches_reference(trace, ref):
    """The reference's (iterations, termination, capped) and certified flag;
    points and residuals within RELATIVE_BOUND of it.  The float steps take
    their norms from math.hypot and d from a float multiply-add, where numpy
    may fuse one, so a point may round differently in its last bit."""
    assert (trace.iterations, trace.termination, trace.capped, trace.hull_certified) == \
        (ref.iterations, ref.termination, ref.capped, ref.hull_certified)
    for got, want in (
        (np.array(trace.points), np.array(ref.points)),
        (np.array(trace.kkt_residuals), np.array(ref.kkt_residuals)),
    ):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= RELATIVE_BOUND * np.max(np.abs(want))


def reference_config(key, variant, **kwargs):
    """A variant at the bench's bi-table settings: epsilon 1e-6, k_max 150,
    the constant step 0.05 on jos1 (its Lipschitz constant is loose)."""
    step = 0.05 if key.startswith("jos1") and variant.endswith("_const") else None
    return SolverConfig(**{"variant": variant, "step": step, "epsilon": 1e-6, "k_max": 150, **kwargs})


class TestReferenceLoop:
    """The steps of run_solver against the numpy loop of conftest: the
    Python-float steps at m = 2, the numpy steps at m = 3."""

    @pytest.mark.parametrize("key", ["jos1", "jos1:n=7", "quad2", "toi4", "sd",
                                     "ex1:n=40,p=20,seed=0", "ex2:n=40,p=40,seed=0"])
    def test_matches_the_numpy_loop(self, key):
        prob = get_problem(key)
        # the m = 3 runs take fewer starts and steps: each costs more
        starts, k_max = (16, 150) if prob.m == 2 else (4, 48)
        terminations = set()
        for variant in VARIANTS:
            cfg = reference_config(key, variant, k_max=k_max)
            for x0 in sample_starts(prob, starts, 0):
                trace = run_solver(prob, cfg, x0)
                assert_matches_reference(trace, reference_run_solver(prob, cfg, x0))
                terminations.add(trace.termination)
        if key == "sd":
            # the runs whose momentum point leaves the orthant are covered
            assert QP_FAILURE in terminations

    @staticmethod
    def uncertify(monkeypatch, at):
        """Make the ``at``-th hull QP solve of a run report no certificate:
        a call of the closed-form kernel in the float steps, or of either
        public QP in the reference, counted together.  Both loops solve
        the min-norm QP at x_k, then the projection at y_k, so odd calls
        are min-norm solves (every call, for steepest_ls)."""
        calls = []

        def kernel(rows, scale, v, _qp=mograd.solvers.closed_form_rows):
            t, point, gap, converged = _qp(rows, scale, v)
            calls.append(None)
            return t, point, gap, converged and len(calls) != at

        def public(name):
            def solve(*args, start=None, _qp=getattr(mograd.solvers, name)):
                sol = _qp(*args, start=start)
                calls.append(None)
                return dataclasses.replace(sol, converged=sol.converged and len(calls) != at)

            return solve

        monkeypatch.setattr(mograd.solvers, "closed_form_rows", kernel)
        for name in ("min_norm_in_hull", "project_onto_scaled_hull"):
            monkeypatch.setattr(mograd.solvers, name, public(name))
        return calls

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("at", [5, 6], ids=["min-norm", "projection"])
    def test_uncertified_kernel_result_keeps_the_points_before_it(self, monkeypatch, variant, at):
        prob = get_problem("quad2")
        cfg = reference_config("quad2", variant)
        x0 = sample_starts(prob, 1, 0)[0]
        certified = run_solver(prob, cfg, x0)
        assert certified.termination == CONVERGED and certified.iterations > 5
        runs = []
        for solver in (run_solver, reference_run_solver):
            calls = self.uncertify(monkeypatch, at)
            runs.append(solver(prob, cfg, x0))
            monkeypatch.undo()
            assert len(calls) == at
        failed, ref = runs
        assert failed.termination == QP_FAILURE
        if variant == STEEPEST_LS:
            # every solve is a min-norm QP, the at-th one at x_at
            kept, hull_failed = at, True
        else:
            # the min-norm QP at x_3, then the projection at y_3; x_3 is
            # recorded either way
            kept, hull_failed = 3, at == 5
        assert len(failed.points) == kept
        assert failed.hull_certified is not hull_failed
        assert all(np.array_equal(p, q) for p, q in zip(failed.points, certified.points))
        assert failed.kkt_residuals == certified.kkt_residuals[:kept]
        assert_matches_reference(failed, ref)

    @pytest.mark.parametrize("variant", [MFISC_LS, ACCG_LS, STEEPEST_LS])
    def test_line_search_step_underflowing_to_zero(self, monkeypatch, variant):
        # the third line search's step underflows to 0.0, and the next
        # projection refuses that scale; steepest_ls makes no projection
        # and stays at its point, taking steps of 0.0, until k_max
        prob = get_problem("quad2")
        cfg = reference_config("quad2", variant)
        x0 = sample_starts(prob, 1, 0)[0]
        runs = []
        for solver in (run_solver, reference_run_solver):
            calls = []

            def search(*args, _ls=mograd.solvers.line_search_backtracking):
                s, capped = _ls(*args)
                calls.append(None)
                return (s * 1e-200 * 1e-200 if len(calls) == 3 else s), capped

            monkeypatch.setattr(mograd.solvers, "line_search_backtracking", search)
            runs.append(solver(prob, cfg, x0))
            monkeypatch.undo()
        trace, ref = runs
        assert trace.steps[2] == 0.0
        assert_matches_reference(trace, ref)
        if variant == STEEPEST_LS:
            assert trace.termination == KMAX
            assert all(np.array_equal(p, trace.points[3]) for p in trace.points[3:])
        else:
            assert trace.termination == QP_FAILURE
            # x_4 = y_3 is recorded; its projection at scale 0.0 fails
            assert len(trace.points) == 4 and trace.hull_certified

    MALFORMED = {
        "1-D": lambda G: G[:, 0],
        "extra row": lambda G: np.vstack([G, G[:1]]),
        "NaN": lambda G: np.full_like(G, np.nan),
    }

    @pytest.mark.parametrize(
        "variant, where",
        # steepest_ls evaluates no momentum point y
        [(v, "x") for v in VARIANTS] + [(v, "y") for v in VARIANTS if v != STEEPEST_LS],
    )
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    @pytest.mark.parametrize("key", ["quad2", "ex1:n=10,p=8,seed=1"])
    def test_malformed_gradient_matrix(self, key, variant, where, kind):
        # the gradient oracle's 3rd call is at x_2 (x_3 for steepest_ls),
        # its 4th at y_2: at x the error of problems.gradient_matrix (a
        # shape other than (n, m)) or of the QP (NaN) propagates, at y it
        # ends the run qp_failure, as in the reference; at three objectives
        # both loops are the numpy steps
        prob = get_problem(key)
        at = 3 if where == "x" else 4
        calls = []

        def gradient_columns(x):
            calls.append(None)
            G = prob.gradient_columns(x)
            return self.MALFORMED[kind](G) if len(calls) == at else G

        counted = dataclasses.replace(prob, gradient_columns=gradient_columns)
        cfg = reference_config(key, variant)
        x0 = sample_starts(prob, 1, 0)[0]
        outcomes = []
        for solver in (run_solver, reference_run_solver):
            calls.clear()
            try:
                outcomes.append(solver(counted, cfg, x0))
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
        trace, ref = outcomes
        if isinstance(ref, tuple):
            assert trace == ref
        else:
            assert_matches_reference(trace, ref)
        if where == "y":
            assert trace.termination == QP_FAILURE and len(trace.points) == 2
        elif kind == "NaN":
            assert trace == (NonFiniteInput, "gradient matrix contains NaN or Inf")
        else:
            shape = self.MALFORMED[kind](np.zeros((prob.n, prob.m))).shape
            assert trace == (ValueError, f"gradient matrix has shape {shape}, but {prob.name} needs {(prob.n, prob.m)}")


class TestConfigValidation:
    def test_alpha_floor(self):
        for alpha in (2.9, math.nan, math.inf):
            with pytest.raises(InvalidConfig):
                SolverConfig(variant=MFISC_CONST, alpha=alpha)

    def test_step_and_epsilon_positive_and_finite(self):
        for field in (dict(step=0.0), dict(step=math.inf), dict(epsilon=math.inf)):
            with pytest.raises(InvalidConfig):
                SolverConfig(variant=MFISC_LS, **field)

    def test_variant_names(self):
        with pytest.raises(InvalidConfig):
            SolverConfig(variant="newton")
        assert set(VARIANTS) == {
            "mfisc_const",
            "accg_const",
            "mfisc_ls",
            "accg_ls",
            "steepest_ls",
        }

    @pytest.mark.parametrize("field", ["alpha", "step"])
    @pytest.mark.parametrize("value", ["0.5", "5", True, None, math.nan])
    def test_reals_refuse_what_is_not_a_finite_number(self, field, value):
        # a string used to reach a bare '<' TypeError that named no field
        if field == "step" and value is None:
            value = "abc"  # None is the default step
        with pytest.raises(InvalidConfig, match=f"^{field} must be a finite number, not "):
            SolverConfig(variant=MFISC_LS, **{field: value})

    def test_reals_become_floats(self):
        cfg = SolverConfig(variant=MFISC_LS, alpha=5, step=2)
        assert (cfg.alpha, cfg.step) == (5.0, 2.0)
        assert all(type(v) is float for v in (cfg.alpha, cfg.step))

    def test_bool_epsilon_is_refused(self):
        # True used to pass as epsilon 1.0
        with pytest.raises(InvalidConfig, match="epsilon must be a positive, finite number, not True"):
            SolverConfig(variant=MFISC_LS, epsilon=True)
        assert tolerance(1) == 1.0

    def test_constant_step_must_beat_lipschitz(self):
        prob = quadratic_pair()  # L = 2
        cfg = SolverConfig(variant=MFISC_CONST, step=0.6, epsilon=1e-4)
        with pytest.raises(InvalidConfig):
            run_solver(prob, cfg, np.zeros(2))

    def test_constant_step_required_without_lipschitz(self):
        prob = single_objective_problem(lambda x: float(x @ x), lambda x: 2 * x, 2)
        with pytest.raises(InvalidConfig):
            run_solver(prob, SolverConfig(variant=MFISC_CONST), np.zeros(2))

    def test_default_step_is_fraction_of_lipschitz(self):
        prob = quadratic_pair()
        trace = run_solver(
            prob, SolverConfig(variant=MFISC_CONST, epsilon=1e-4, k_max=2000), np.array([-1.0, 0.5])
        )
        assert trace.termination == CONVERGED
        assert trace.steps[0] == pytest.approx(0.45)


    @pytest.mark.parametrize("k_max", [2.5, math.nan, math.inf, "3", None, 0])
    def test_k_max_must_be_a_whole_number(self, k_max):
        # a NaN k_max used to pass, and a run that never converged never stopped
        with pytest.raises(InvalidConfig, match="k_max"):
            SolverConfig(variant=MFISC_LS, k_max=k_max)

    def test_whole_float_k_max_becomes_an_int(self):
        cfg = SolverConfig(variant=MFISC_LS, k_max=2.0)
        assert type(cfg.k_max) is int and cfg.k_max == 2

    def test_start_point_is_checked_against_the_problem(self):
        cfg = SolverConfig(variant=MFISC_CONST, step=0.05)
        with pytest.raises(InvalidConfig, match="x0 has dimension 3, but quad2 has dimension 2"):
            run_solver(quadratic_pair(), cfg, np.zeros(3))
        with pytest.raises(InvalidConfig, match="x0 contains NaN or Inf"):
            run_solver(quadratic_pair(), cfg, [np.nan, 0.0])

    @pytest.mark.parametrize("k_max, termination", [(3, KMAX), (10**4, CONVERGED)])
    def test_final_point_is_the_last_recorded_point(self, k_max, termination):
        cfg = SolverConfig(variant=MFISC_CONST, step=0.05, epsilon=1e-4, k_max=k_max)
        trace = run_solver(quadratic_pair(), cfg, np.array([-1.0, 0.5]))
        assert trace.termination == termination
        assert trace.x_final is trace.points[-1]


class TestConstantStepRuns:
    def test_pareto_start_stops_immediately(self):
        prob = quadratic_pair()
        cfg = SolverConfig(variant=MFISC_CONST, step=0.05, epsilon=1e-6)
        trace = run_solver(prob, cfg, prob.pareto_param(0.5))
        assert trace.termination == CONVERGED
        assert trace.iterations == 0
        assert len(trace.points) == 1

    @pytest.mark.parametrize("variant", [MFISC_CONST, ACCG_CONST])
    def test_single_objective_matches_reference(self, variant):
        # independent scalar recursions for the two updates
        prob, Q = spd_quadratic_problem(seed=42, n=5)
        rng = np.random.default_rng(1)
        x0 = rng.uniform(-1.0, 1.0, 5)
        s = 0.9 / prob.lipschitz
        alpha = 4.0
        steps = 500

        xp, xc = x0.copy(), x0.copy()
        for k in range(1, steps + 1):
            dx = xc - xp
            if variant == MFISC_CONST:
                pi = ((k - 1.0) / (k + alpha - 1.0)) * dx
                ndx = np.linalg.norm(dx)
                if ndx > 0:
                    g = Q @ xc
                    pi = pi - ((alpha - 3.0) / (k + alpha - 1.0)) * (ndx / np.linalg.norm(g)) * g
            else:
                pi = ((k - 1.0) / (k + 2.0)) * dx
            y = xc + pi
            xp, xc = xc, y - s * (Q @ y)

        cfg = SolverConfig(variant=variant, alpha=alpha, step=s, epsilon=1e-300, k_max=steps + 1)
        trace = run_solver(prob, cfg, x0)
        assert trace.iterations == steps
        assert np.max(np.abs(trace.x_final - xc)) <= 1e-12

    def test_alpha_three_matches_accg_exactly(self):
        prob = quadratic_pair()
        x0 = np.array([-1.5, 1.7])
        for mfisc, accg, step in ((MFISC_CONST, ACCG_CONST, 0.05), (MFISC_LS, ACCG_LS, None)):
            a = run_solver(prob, SolverConfig(variant=mfisc, alpha=3.0, step=step, epsilon=1e-9), x0)
            b = run_solver(prob, SolverConfig(variant=accg, alpha=50.0, step=step, epsilon=1e-9), x0)
            assert a.iterations == b.iterations > 0
            assert all(np.array_equal(p, q) for p, q in zip(a.points, b.points))
            assert np.array_equal(a.x_final, b.x_final)
            assert a.kkt_residuals == b.kkt_residuals
            assert np.array_equal(a.steps, b.steps, equal_nan=True)
            assert a.qp_gaps == b.qp_gaps

    def test_accg_never_reads_alpha(self):
        prob = quadratic_pair()
        x0 = np.array([1.4, -0.3])
        a = run_solver(prob, SolverConfig(variant=ACCG_CONST, alpha=3.0, step=0.05, epsilon=1e-8), x0)
        b = run_solver(prob, SolverConfig(variant=ACCG_CONST, alpha=90.0, step=0.05, epsilon=1e-8), x0)
        assert a.kkt_residuals == b.kkt_residuals
        assert np.array_equal(a.x_final, b.x_final)

    def test_sublevel_monotonic(self, rng):
        for key in ("quad2", "jos1"):
            prob = get_problem(key)
            cfg = SolverConfig(variant=MFISC_CONST, epsilon=1e-8, k_max=20000)
            lo, hi = prob.init_box
            for _ in range(5):
                x0 = rng.uniform(lo, hi)
                trace = run_solver(prob, cfg, x0)
                F = np.array([prob.objectives(p) for p in trace.points])
                assert np.all(F <= F[0] + 1e-9)

    def test_determinism(self):
        prob = get_problem("lse2")
        cfg = SolverConfig(variant=MFISC_CONST, step=2e-3, epsilon=1e-6, k_max=50000)
        x0 = np.array([2.0, -1.0])
        a = run_solver(prob, cfg, x0)
        b = run_solver(prob, cfg, x0)
        assert a.kkt_residuals == b.kkt_residuals
        assert len(a.points) == len(b.points)
        assert all(np.array_equal(p, q) for p, q in zip(a.points, b.points))
        assert np.array_equal(a.x_final, b.x_final)

    def test_kmax_termination(self):
        prob = quadratic_pair()
        cfg = SolverConfig(variant=ACCG_CONST, step=0.05, epsilon=1e-300, k_max=25)
        trace = run_solver(prob, cfg, np.array([2.0, 2.0]))
        assert trace.termination == KMAX
        assert trace.iterations == 24
        assert len(trace.points) == 25


class TestLineSearchRuns:
    @pytest.mark.parametrize("variant", [MFISC_LS, ACCG_LS, STEEPEST_LS])
    def test_duplicated_objective_reaches_common_minimum(self, variant):
        # one quadratic duplicated three times: weights are irrelevant and
        # every variant must find the shared minimizer
        from mograd.problems import least_squares_family

        eye = np.eye(4)
        zero = np.zeros(4)
        prob = least_squares_family(
            "ls_identity",
            [eye, eye, eye],
            [zero, zero, zero],
            delta=0.0,
            init_box=(np.full(4, -1.0), np.full(4, 1.0)),
        )
        cfg = SolverConfig(variant=variant, alpha=50.0, epsilon=1e-6, k_max=5000)
        trace = run_solver(prob, cfg, np.array([0.7, -0.4, 0.9, 0.2]))
        assert trace.termination == CONVERGED
        assert np.linalg.norm(trace.x_final) <= 1e-5

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_termination_soundness(self, variant):
        prob = get_problem("ex1:n=8,p=6,seed=2")
        cfg = SolverConfig(variant=variant, alpha=50.0, epsilon=1e-4, k_max=100000, step=None)
        if variant.endswith("_const"):
            cfg = SolverConfig(variant=variant, alpha=50.0, epsilon=1e-4, k_max=100000)
        trace = run_solver(prob, cfg, np.full(8, 1.2))
        assert trace.termination == CONVERGED
        assert kkt_residual(prob, trace.x_final) < 1e-4 + DEFAULT_TOL

    def test_step_carryover_shrinks_only(self):
        prob = quadratic_pair()
        cfg = SolverConfig(variant=MFISC_LS, alpha=50.0, epsilon=1e-8, k_max=4000)
        trace = run_solver(prob, cfg, np.array([-1.8, 1.9]))
        steps = [s for s in trace.steps if not np.isnan(s)]
        assert all(b <= a + 1e-15 for a, b in zip(steps, steps[1:]))
        assert trace.termination == CONVERGED


class TestTraceStructure:
    def test_strictly_increasing_k_and_single_termination(self):
        prob = quadratic_pair()
        trace = run_solver(prob, SolverConfig(variant=MFISC_CONST, step=0.05, epsilon=1e-6), np.array([2.0, -2.0]))
        ks = [row[0] for row in trace_csv_rows(trace, prob)[1:]]
        assert ks == list(range(1, len(trace.points) + 1))
        assert trace.termination in (CONVERGED, KMAX, "qp_failure")
        assert np.isnan(trace.steps[-1])
        assert not any(np.isnan(s) for s in trace.steps[:-1])

    def test_csv_rows_layout(self):
        prob = quadratic_pair()
        trace = run_solver(prob, SolverConfig(variant=MFISC_CONST, step=0.05, epsilon=1e-6), np.array([2.0, -2.0]))
        rows = trace_csv_rows(trace, prob)
        assert rows[0] == ["k", "kkt_residual", "iter_gap", "f1", "f2", "step", "qp_gap"]
        assert len(rows) == len(trace.points) + 1
        assert rows[-1][1] < 1e-6
        for i, row in enumerate(rows[1:]):
            assert row[3:5] == list(prob.objectives(trace.points[i]))

    def test_csv_rows_refuse_an_objective_vector_of_the_wrong_length(self):
        # a constant-step run never reads F, so it converges on an oracle
        # with an extra value; its export used to write 8 cells under a
        # 7-cell header
        base = quadratic_pair()
        prob = dataclasses.replace(base, objectives=lambda x: np.append(base.objectives(x), 0.0))
        trace = run_solver(prob, SolverConfig(variant=ACCG_CONST, step=0.05), np.array([-0.2, -0.1]))
        assert trace.termination == CONVERGED and trace.iterations > 0
        with pytest.raises(ValueError, match=r"shape \(3,\), but quad2 needs \(2,\)"):
            trace_csv_rows(trace, prob)

    def test_constant_step_run_never_evaluates_objectives(self):
        prob = quadratic_pair()
        calls = []

        def counted(x):
            calls.append(x)
            return prob.objectives(x)

        counting = dataclasses.replace(prob, objectives=counted)
        cfg = SolverConfig(variant=MFISC_CONST, step=0.05, epsilon=1e-6)
        trace = run_solver(counting, cfg, np.array([2.0, -2.0]))
        assert trace.termination == CONVERGED and trace.iterations > 0
        assert calls == []

    def test_until_stops_where_a_run_at_that_epsilon_stops(self):
        # an epsilon equal to a recorded residual: a run stops strictly below it
        prob = quadratic_pair()
        cfg = SolverConfig(variant=MFISC_CONST, step=0.05, epsilon=1e-8)
        x0 = np.array([2.0, -2.0])
        trace = run_solver(prob, cfg, x0)
        eps = min(trace.kkt_residuals[:6])
        row = trace.until(eps)
        single = run_solver(prob, dataclasses.replace(cfg, epsilon=eps), x0)
        assert row.iterations > trace.kkt_residuals.index(eps)
        assert (row.iterations, row.termination, row.final_residual) == \
            (single.iterations, single.termination, single.final_residual)

    def test_zero_iteration_run_exports_header_only(self):
        prob = quadratic_pair()
        trace = run_solver(prob, SolverConfig(variant=MFISC_CONST, step=0.05, epsilon=1e-6), prob.pareto_param(0.25))
        assert trace_csv_rows(trace, prob) == [
            ["k", "kkt_residual", "iter_gap", "f1", "f2", "step", "qp_gap"]
        ]


class TestWarmStartedQPs:
    """Warm-starting the hull QPs changes their work, not the runs."""

    @pytest.mark.parametrize("family, n, p, seed", [("ex1", 10, 8, 1), ("ex2", 10, 12, 2)])
    def test_cold_and_warm_runs_agree(self, family, n, p, seed, monkeypatch):
        # five objectives: at three the QPs make no major cycle, warm or cold
        prob = five_objective_problem(family, n=n, p=p, seed=seed)
        starts = sample_starts(prob, 2, 0)
        cfgs = [SolverConfig(variant=v, epsilon=1e-4, k_max=48) for v in VARIANTS]

        def runs(cold):
            cycles = wrap_hull_qps(monkeypatch, mograd.solvers, cold)
            traces = [run_solver(prob, cfg, x0) for cfg in cfgs for x0 in starts]
            return traces, sum(cycles)

        warm, warm_cycles = runs(cold=False)
        cold, cold_cycles = runs(cold=True)
        assert warm_cycles < cold_cycles
        for w, c in zip(warm, cold):
            assert (w.iterations, w.termination) == (c.iterations, c.termination)
            gap = np.linalg.norm(w.x_final - c.x_final)
            assert gap <= 1e-8 * np.linalg.norm(c.x_final)
