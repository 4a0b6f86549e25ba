import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mograd.solvers
from mograd.harness import sample_starts
from mograd.problems import InvalidConfig, get_problem, kkt_residual, quadratic_pair
from mograd.simplex_qp import DEFAULT_TOL
from mograd.solvers import (
    ACCG_CONST,
    ACCG_LS,
    CONVERGED,
    KMAX,
    MFISC_CONST,
    MFISC_LS,
    STEEPEST_LS,
    VARIANTS,
    SolverConfig,
    line_search_backtracking,
    mfisc_momentum,
    run_solver,
    trace_csv_rows,
)

from conftest import single_objective_problem, spd_quadratic_problem, wrap_hull_qps


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

    def test_sigma_range(self):
        with pytest.raises(InvalidConfig):
            SolverConfig(variant=MFISC_LS, sigma=1.0)

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

    def test_zero_iteration_run_exports_header_only(self):
        prob = quadratic_pair()
        trace = run_solver(prob, SolverConfig(variant=MFISC_CONST, step=0.05, epsilon=1e-6), prob.pareto_param(0.25))
        assert trace_csv_rows(trace, prob) == [
            ["k", "kkt_residual", "iter_gap", "f1", "f2", "step", "qp_gap"]
        ]


class TestWarmStartedQPs:
    """Warm-starting the hull QPs changes their work, not the runs."""

    @pytest.mark.parametrize("key", ["ex1:n=10,p=8,seed=1", "ex2:n=10,p=12,seed=2"])
    def test_cold_and_warm_runs_agree(self, key, monkeypatch):
        prob = get_problem(key)
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
