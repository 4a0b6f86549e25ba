from dataclasses import replace

import numpy as np
import pytest

import mograd.flow
from mograd.flow import (
    FlowConfig,
    MissingMerit,
    attach_merit,
    mavd_integrate,
    mavng_integrate,
    merit_bound_scan,
)
from mograd.harness import sample_starts
from mograd.problems import get_problem, logsumexp_pair, quadratic_pair

from conftest import pareto_segment_distance, wrap_hull_qps

X0 = np.array([-0.2, -0.1])


def short_cfg(alpha=50.0, beta=3.0, t_end=4.0, **kwargs):
    return FlowConfig(alpha=alpha, x0=X0, beta=beta, t_end=t_end, **kwargs)


class TestConfigValidation:
    def test_parameter_ordering(self):
        with pytest.raises(ValueError):
            FlowConfig(alpha=3.0, x0=X0, beta=5.0)
        with pytest.raises(ValueError):
            FlowConfig(alpha=5.0, x0=X0, beta=0.0)
        with pytest.raises(ValueError):
            FlowConfig(alpha=5.0, x0=X0, t0=0.5)
        with pytest.raises(ValueError):
            FlowConfig(alpha=5.0, x0=X0, h=0.0)
        with pytest.raises(ValueError):
            FlowConfig(alpha=5.0, x0=X0, t_end=0.5)
        with pytest.raises(ValueError):
            FlowConfig(alpha=5.0, x0=X0, p=-1.0)
        for field in (
            dict(alpha=np.inf), dict(t0=np.nan), dict(h=np.inf), dict(t_end=np.inf), dict(p=np.nan), dict(p=np.inf)
        ):
            with pytest.raises(ValueError):
                FlowConfig(**{"alpha": 5.0, "x0": X0, **field})

    def test_x0_is_a_finite_point(self):
        for x0 in ([np.nan, 0.0], [0.0, np.inf], [[0.1, 0.2]], 0.5):
            with pytest.raises(ValueError, match="x0"):
                FlowConfig(alpha=5.0, x0=x0)

    @pytest.mark.parametrize("integrate", [mavng_integrate, mavd_integrate])
    def test_x0_must_match_the_problem_dimension(self, integrate):
        cfg = FlowConfig(alpha=5.0, x0=[0.3, 0.4, 0.5], t_end=1.1)
        with pytest.raises(ValueError, match="x0 has dimension 3, but quad2 has dimension 2"):
            integrate(quadratic_pair(), cfg)


class TestIntegration:
    def test_exact_time_grid(self):
        traj = mavng_integrate(quadratic_pair(), short_cfg(t_end=2.0))
        expected = 1.0 + np.arange(len(traj)) * 1e-3
        assert np.array_equal(traj.times, expected)
        assert len(traj) == 1001

    def test_zero_initial_velocity(self):
        traj = mavng_integrate(quadratic_pair(), short_cfg(t_end=1.01))
        assert np.array_equal(traj.points[0], traj.points[1])

    def test_beta_equal_alpha_reduces_to_baseline(self):
        prob = quadratic_pair()
        corrected = mavng_integrate(prob, short_cfg(alpha=50.0, beta=50.0, t_end=2.5))
        baseline = mavd_integrate(prob, short_cfg(alpha=50.0, beta=3.0, t_end=2.5))
        assert np.array_equal(corrected.points, baseline.points)

    def test_beta_cases_differ_otherwise(self):
        prob = quadratic_pair()
        corrected = mavng_integrate(prob, short_cfg(alpha=50.0, beta=3.0, t_end=2.5))
        baseline = mavd_integrate(prob, short_cfg(alpha=50.0, beta=3.0, t_end=2.5))
        assert not np.array_equal(corrected.points, baseline.points)

    def test_critical_start_is_stationary(self):
        prob = quadratic_pair()
        x0 = prob.pareto_param(0.3)
        traj = mavng_integrate(prob, FlowConfig(alpha=50.0, x0=x0, beta=3.0, t_end=2.0))
        drift = np.max(np.linalg.norm(traj.points - x0, axis=1))
        assert drift <= 1e-9

    def test_sublevel_containment(self):
        for prob, cfg in (
            (quadratic_pair(), short_cfg(t_end=4.0)),
            (logsumexp_pair(), FlowConfig(alpha=50.0, x0=np.array([0.0, 3.0]), beta=3.0, t_end=4.0)),
        ):
            traj = mavng_integrate(prob, cfg)
            F0 = prob.objectives(traj.points[0])
            for point in traj.points[::40]:
                assert np.all(prob.objectives(point) <= F0 + 1e-6)

    def test_damping_keeps_displacement_bounded(self):
        # multiplier t/(t + alpha h) below one: a step never exceeds the
        # momentum plus the h^2 hull kick
        prob = quadratic_pair()
        traj = mavng_integrate(prob, short_cfg(t_end=2.0))
        gaps = np.linalg.norm(np.diff(traj.points, axis=0), axis=1)
        assert gaps.max() < 1.0

    def test_faster_decay_exponent_family(self):
        # the p > 1, beta > 3 regime: the correction decays faster but the
        # trajectory still heads into the front
        prob = quadratic_pair()
        for alpha, beta, p in ((10.0, 4.0, 1.5), (8.0, 5.0, 2.0)):
            cfg = FlowConfig(alpha=alpha, x0=X0, beta=beta, p=p, t_end=12.0)
            traj = mavng_integrate(prob, cfg)
            assert traj.termination == "completed"
            assert pareto_segment_distance(prob, traj.points[-1]) <= 5e-2

    def test_quadratic_trajectory_approaches_front(self):
        prob = quadratic_pair()
        traj = mavng_integrate(prob, short_cfg(alpha=50.0, t_end=8.0))
        assert pareto_segment_distance(prob, traj.points[-1]) <= 1e-2

    def test_logsumexp_trajectories_approach_segment(self):
        prob = logsumexp_pair()
        cfg = FlowConfig(alpha=50.0, x0=np.array([0.0, 3.0]), beta=3.0, t_end=10.0)
        ends = {}
        for integrate in (mavng_integrate, mavd_integrate):
            traj = integrate(prob, cfg)
            start = pareto_segment_distance(prob, traj.points[0])
            end = pareto_segment_distance(prob, traj.points[-1])
            ends[traj.system] = end
            assert end < 0.25 * start
        # the corrected flow closes in faster than the baseline
        assert ends["mavng"] < 0.1
        assert ends["mavng"] < ends["mavd"]

    def test_warm_started_qps_leave_the_trajectory(self, monkeypatch):
        # three objectives, so both QPs run Wolfe's method
        prob = get_problem("ex1:n=10,p=8,seed=1")
        cfg = FlowConfig(alpha=20.0, x0=sample_starts(prob, 1, 0)[0], t_end=1.3)

        def trajectory(cold):
            cycles = wrap_hull_qps(monkeypatch, mograd.flow, cold)
            return mavng_integrate(prob, cfg), sum(cycles)

        warm, warm_cycles = trajectory(cold=False)
        cold, cold_cycles = trajectory(cold=True)
        assert warm_cycles < cold_cycles
        assert warm.termination == cold.termination == "completed"
        assert len(warm) == len(cold)
        assert np.max(np.abs(warm.points - cold.points)) <= 1e-8 * np.max(np.abs(cold.points))

    def test_uncertified_final_residual_ends_qp_failure(self, monkeypatch):
        # ten steps: nine hull QPs in the loop, the tenth at the last point
        prob = quadratic_pair()
        cfg = short_cfg(t_end=1.1, h=0.01)
        certified = mavng_integrate(prob, cfg)
        calls = []

        def solve(G, start=None, _qp=mograd.flow.min_norm_in_hull):
            calls.append(None)
            sol = _qp(G, start)
            return replace(sol, converged=False) if len(calls) == 10 else sol

        monkeypatch.setattr(mograd.flow, "min_norm_in_hull", solve)
        failed = mavng_integrate(prob, cfg)
        assert len(calls) == 10
        assert certified.termination == "completed"
        assert failed.termination == "qp_failure"
        # every point is kept, the last one included
        assert len(failed) == len(certified) == 11
        assert np.array_equal(failed.points, certified.points)
        assert np.array_equal(failed.kkt_residuals, certified.kkt_residuals)


class TestMeritAttachment:
    def test_stride_and_final_sample(self):
        prob = quadratic_pair()
        traj = attach_merit(prob, mavng_integrate(prob, short_cfg(t_end=1.5)), stride=100)
        sampled = ~np.isnan(traj.merit)
        assert sampled[0] and sampled[-1]
        expected = set(range(0, len(traj), 100)) | {len(traj) - 1}
        assert set(np.nonzero(sampled)[0]) == expected

    def test_scan_requires_samples(self):
        traj = mavng_integrate(quadratic_pair(), short_cfg(t_end=1.2))
        with pytest.raises(MissingMerit):
            merit_bound_scan(traj, 50.0)

    def test_bound_holds_on_quadratic(self):
        prob = quadratic_pair()
        traj = attach_merit(prob, mavng_integrate(prob, short_cfg(alpha=10.0, t_end=6.0)), stride=100)
        report = merit_bound_scan(traj, 10.0, t_min=2.0)
        assert report.fraction == 1.0

    def test_critical_start_scan_is_trivially_one(self):
        prob = quadratic_pair()
        cfg = FlowConfig(alpha=50.0, x0=prob.pareto_param(0.6), beta=3.0, t_end=1.5)
        traj = attach_merit(prob, mavng_integrate(prob, cfg), stride=50)
        report = merit_bound_scan(traj, 50.0)
        assert report.fraction == 1.0

    def test_window_filtering(self):
        prob = quadratic_pair()
        traj = attach_merit(prob, mavng_integrate(prob, short_cfg(t_end=3.0)), stride=200)
        full = merit_bound_scan(traj, 50.0)
        tail = merit_bound_scan(traj, 50.0, t_min=2.0, t_max=3.0)
        assert len(tail.samples) < len(full.samples)
        assert all(s.t >= 2.0 for s in tail.samples)

    def test_corrected_flow_dominates_baseline_merit(self):
        # at matched times the corrected flow's merit sits below the
        # baseline's for the (vast) majority of the window
        prob = quadratic_pair()
        cfg = FlowConfig(alpha=100.0, x0=X0, beta=3.0, t_end=20.0)
        corrected = attach_merit(prob, mavng_integrate(prob, cfg), stride=200)
        baseline = attach_merit(prob, mavd_integrate(prob, cfg), stride=200)
        window = (~np.isnan(corrected.merit)) & (corrected.times >= 5.0)
        wins = np.mean(corrected.merit[window] <= baseline.merit[window])
        assert wins > 0.5

    def test_merit_oscillation_tolerated_for_small_alpha(self):
        # small damping oscillates: only the bound fraction is asserted
        prob = quadratic_pair()
        traj = attach_merit(prob, mavng_integrate(prob, short_cfg(alpha=5.0, t_end=8.0)), stride=100)
        report = merit_bound_scan(traj, 5.0, t_min=2.0)
        values = [s.merit for s in report.samples]
        assert report.fraction >= 0.99
        assert any(b > a for a, b in zip(values, values[1:]))  # not monotone
