import re
import tracemalloc
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
from mograd.problems import (
    InvalidConfig,
    get_problem,
    gradient_matrix,
    logsumexp_pair,
    objective_values,
    quadratic_pair,
)
from mograd.simplex_qp import NonFiniteInput

from conftest import (
    MALFORMED_GRADIENTS,
    five_objective_problem,
    malformed_gradient_error,
    pareto_point,
    pareto_segment_distance,
    reference_integrate,
    wrap_hull_qps,
)

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
            FlowConfig(alpha=5.0, x0=X0, h=0.0)
        with pytest.raises(ValueError):
            FlowConfig(alpha=5.0, x0=X0, t_end=0.5)
        with pytest.raises(ValueError):
            FlowConfig(alpha=5.0, x0=X0, p=-1.0)
        for field in (
            dict(alpha=np.inf), dict(h=np.inf), dict(t_end=np.inf), dict(p=np.nan), dict(p=np.inf)
        ):
            with pytest.raises(ValueError):
                FlowConfig(**{"alpha": 5.0, "x0": X0, **field})

    @pytest.mark.parametrize("value", [True, "5"])
    @pytest.mark.parametrize("field", ["alpha", "beta", "p", "h", "t_end"])
    def test_real_settings_must_be_numbers(self, field, value):
        # bools passed the range checks as 1.0, strings raised a bare TypeError
        with pytest.raises(InvalidConfig, match=f"^{field} must be a finite number, not {value!r}$"):
            FlowConfig(**{"alpha": 5.0, "x0": X0, field: value})

    def test_x0_is_a_finite_point(self):
        for x0 in ([np.nan, 0.0], [0.0, np.inf], [[0.1, 0.2]], 0.5):
            with pytest.raises(ValueError, match="x0"):
                FlowConfig(alpha=5.0, x0=x0)

    @pytest.mark.parametrize("integrate", [mavng_integrate, mavd_integrate])
    def test_x0_must_match_the_problem_dimension(self, integrate):
        cfg = FlowConfig(alpha=5.0, x0=[0.3, 0.4, 0.5], t_end=1.1)
        with pytest.raises(ValueError, match="x0 has dimension 3, but quad2 has dimension 2"):
            integrate(quadratic_pair(), cfg)

    @pytest.mark.parametrize("key", ["quad2", "ex1:n=10,p=8,seed=1"])
    @pytest.mark.parametrize("h", [1e-170, 1e-310, 1e160])
    def test_step_whose_square_leaves_the_floats_is_refused_before_a_step(self, key, h):
        # h is positive and finite, but h * h, the projection's scale,
        # underflows to 0 or overflows to inf: FlowConfig refuses it, so no
        # flow of two objectives or of three starts; the scale is checked
        # before the step count, which a subnormal h would overflow
        prob = get_problem(key)
        calls = []

        def gradient_columns(x):
            calls.append(None)
            return prob.gradient_columns(x)

        counted = replace(prob, gradient_columns=gradient_columns)
        with pytest.raises(ValueError, match=r"^h \* h, the projection's scale, must be positive and finite$"):
            mavng_integrate(counted, FlowConfig(alpha=5.0, x0=sample_starts(prob, 1, 0)[0], h=h, t_end=2.0))
        assert calls == []

    @pytest.mark.parametrize("t_end, h", [(1e300, 1e-10), (1e308, 0.5)])
    def test_step_count_must_be_finite(self, t_end, h):
        # (t_end - t0) / h overflows the floats: the step count used to
        # raise an OverflowError inside the flow, after the config passed
        assert 0.0 < h * h < np.inf and t_end < np.inf
        with pytest.raises(ValueError, match=r"^\(t_end - t0\) / h, the number of steps, must be finite$"):
            FlowConfig(alpha=5.0, x0=X0, h=h, t_end=t_end)

    @pytest.mark.parametrize("p, t_end, h", [(1000.0, 3.0, 1e-3), (700.0, 3.0, 1e-3), (1.5, 1e250, 1e150)])
    def test_power_of_time_must_be_finite(self, p, t_end, h):
        # t_k**p on Python floats raised OverflowError inside the flow, after
        # about 1000 steps at p = 1000, once t_k**p left the floats; the
        # power at the grid's last time bounds every step's
        with pytest.raises(ValueError, match=rf"^p = {p} is too large: t\*\*p overflows at the grid's last time t = "):
            FlowConfig(alpha=5.0, x0=X0, p=p, h=h, t_end=t_end)
        # just below the limit the flow runs
        traj = mavng_integrate(quadratic_pair(), FlowConfig(alpha=5.0, x0=X0, p=600.0, t_end=3.0, h=0.01))
        assert traj.termination == "completed" and np.isfinite(traj.points).all()

    @pytest.mark.parametrize("integrate", [mavng_integrate, mavd_integrate])
    @pytest.mark.parametrize("key", ["quad2", "jos1", "toi4", "sd", "ex1:n=10,p=8,seed=1"])
    @pytest.mark.parametrize("kind", sorted(MALFORMED_GRADIENTS))
    def test_gradient_matrix_is_checked_on_every_step(self, integrate, key, kind):
        # the first or the third gradient matrix is malformed, as an array or
        # as rows: problems.gradient_rows (two objectives) and
        # gradient_matrix (three) refuse a shape other than (n, m), and the
        # QPs a NaN, whether the step solves them with the closed-form kernel
        # or calls them.  At x_0 the error propagates; at x_3 the trajectory
        # ends qp_failure at x_2
        prob = get_problem(key)
        bad = MALFORMED_GRADIENTS[kind]

        def malformed_at(at):
            calls = []

            def gradient_columns(x):
                calls.append(None)
                return bad(gradient_matrix(prob, x)) if len(calls) == at else prob.gradient_columns(x)

            return replace(prob, gradient_columns=gradient_columns), calls

        x0 = sample_starts(prob, 1, 0)[0]
        if kind == "NaN":
            error, message = NonFiniteInput, "gradient matrix contains NaN or Inf"
        else:
            error, message = malformed_gradient_error(prob, bad(gradient_matrix(prob, x0)))
        cfg = FlowConfig(alpha=5.0, x0=x0, t_end=1.1, h=0.01)
        counted, calls = malformed_at(1)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            integrate(counted, cfg)
        assert len(calls) == 1
        counted, calls = malformed_at(3)
        traj = integrate(counted, cfg)
        assert len(calls) == 3
        assert traj.termination == "qp_failure" and len(traj) == len(traj.times) == 3
        assert traj.points.tobytes() == integrate(prob, cfg).points[:3].tobytes()


class TestIntegration:
    def test_exact_time_grid(self):
        traj = mavng_integrate(quadratic_pair(), short_cfg(t_end=2.0))
        expected = 1.0 + np.arange(len(traj)) * 1e-3
        assert np.array_equal(traj.times, expected)
        assert len(traj) == 1001

    def test_zero_initial_velocity(self):
        traj = mavng_integrate(quadratic_pair(), short_cfg(t_end=1.01))
        assert np.array_equal(traj.points[0], traj.points[1])

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("key", ["quad2", "ex1:n=10,p=8,seed=1"])
    def test_beta_equal_alpha_reduces_to_baseline(self, key, stride):
        # every field of the trajectory, bit for bit; ex1 runs the m >= 3 lines
        if key == "quad2":
            prob, cfg = quadratic_pair(), short_cfg(alpha=50.0, beta=3.0, t_end=2.5)
        else:
            prob = get_problem(key)
            cfg = FlowConfig(alpha=20.0, x0=sample_starts(prob, 1, 0)[0], h=5e-3, t_end=3.0)
        corrected = mavng_integrate(prob, replace(cfg, beta=cfg.alpha), stride)
        baseline = mavd_integrate(prob, cfg, stride)
        assert baseline.termination == "completed"
        for field in ("times", "points", "kkt_residuals", "grid_points", "termination"):
            assert np.array_equal(getattr(corrected, field), getattr(baseline, field)), field

    @pytest.mark.parametrize("key", ["quad2", "ex1:n=10,p=8,seed=1"])
    def test_only_the_corrected_flow_calls_the_correction(self, monkeypatch, key):
        # the baseline's correction is off for the whole trajectory, so it
        # builds v_k itself; the corrected flow calls the helper on every step
        calls = []

        def counting(*args, _momentum=mograd.flow.corrected_momentum):
            calls.append(None)
            return _momentum(*args)

        monkeypatch.setattr(mograd.flow, "corrected_momentum", counting)
        prob = get_problem(key)
        cfg = FlowConfig(alpha=20.0, x0=sample_starts(prob, 1, 0)[0], h=5e-3, t_end=2.0)
        mavd_integrate(prob, cfg)
        assert calls == []
        traj = mavng_integrate(prob, cfg, stride=7)
        assert traj.termination == "completed"
        assert len(calls) == len(traj) - 2

    def test_beta_cases_differ_otherwise(self):
        prob = quadratic_pair()
        corrected = mavng_integrate(prob, short_cfg(alpha=50.0, beta=3.0, t_end=2.5))
        baseline = mavd_integrate(prob, short_cfg(alpha=50.0, beta=3.0, t_end=2.5))
        assert not np.array_equal(corrected.points, baseline.points)

    def test_critical_start_is_stationary(self):
        prob = quadratic_pair()
        x0 = pareto_point(prob, 0.3)
        traj = mavng_integrate(prob, FlowConfig(alpha=50.0, x0=x0, beta=3.0, t_end=2.0))
        drift = np.max(np.linalg.norm(traj.points - x0, axis=1))
        assert drift <= 1e-9

    def test_sublevel_containment(self):
        for prob, cfg in (
            (quadratic_pair(), short_cfg(t_end=4.0)),
            (logsumexp_pair(), FlowConfig(alpha=50.0, x0=np.array([0.0, 3.0]), beta=3.0, t_end=4.0)),
        ):
            traj = mavng_integrate(prob, cfg)
            F0 = objective_values(prob, traj.points[0])
            for point in traj.points[::40]:
                assert np.all(objective_values(prob, point) <= F0 + 1e-6)

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
        # five objectives, so both QPs run Wolfe's method
        prob = five_objective_problem("ex1", n=10, p=8, seed=1)
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

        def solve(rows, scale, v, _qp=mograd.flow.closed_form_rows):
            # two objectives: the flow solves both QPs with the closed-form
            # kernel, the min-norm ones with no target
            t, point, gap, converged = _qp(rows, scale, v)
            if v is None:
                calls.append(None)
                if len(calls) == 10:
                    converged = False
            return t, point, gap, converged

        monkeypatch.setattr(mograd.flow, "closed_form_rows", solve)
        failed = mavng_integrate(prob, cfg)
        assert len(calls) == 10
        assert certified.termination == "completed"
        assert failed.termination == "qp_failure"
        # every point is kept, the last one included
        assert len(failed) == len(certified) == 11
        assert np.array_equal(failed.points, certified.points)
        assert np.array_equal(failed.kkt_residuals, certified.kkt_residuals)


def assert_matches_reference(traj, ref):
    """Same grid and termination; points and residuals within 1e-14 of the
    reference, relative to each array's largest entry.  The float loop's
    norms come from math.hypot and math.dist, not numpy's dot, so a step may
    round differently in its last bit; a residual that is the small
    difference of two gradients carries that bit at a larger relative size,
    hence the array scale."""
    assert traj.termination == ref.termination
    assert len(traj) == len(ref)
    assert np.array_equal(traj.times, ref.times)
    for got, want in ((traj.points, ref.points), (traj.kkt_residuals, ref.kkt_residuals)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestReferenceLoop:
    """The Python-float step against the numpy reference loop of conftest."""

    CASES = {
        "quad2-a50": ("quad2", dict(alpha=50.0, x0=X0, h=5e-3, t_end=20.0)),
        "quad2-a100": ("quad2", dict(alpha=100.0, x0=X0, h=5e-3, t_end=20.0)),
        "lse2": ("lse2", dict(alpha=50.0, x0=np.array([0.0, 3.0]), h=5e-3, t_end=10.0)),
        # three objectives: both QPs run Wolfe's method
        "ex1": ("ex1:n=10,p=8,seed=1", dict(alpha=20.0, h=5e-3, t_end=3.0)),
        # the correction's constant numerator (a - b) h over t_k**p: p = 0,
        # a larger power with a larger weight, and a tiny nonzero numerator.
        # At p = 0 the correction never vanishes: once t > a / (a - b) a step
        # may be up to (1 + (a - b) h) t / (t + a h) > 1 times the one before.
        # Here the steps grow about 1.2-fold each near t = 6.6, and a last-bit
        # difference in a norm grows with them past 1e-14 of the reference's
        # points (3.8e-11 of them near t = 12.3 on a run to t = 20), so the
        # case ends at t = 6.
        "quad2-p0": ("quad2", dict(alpha=50.0, x0=X0, p=0.0, h=5e-3, t_end=6.0)),
        "quad2-p2-b5": ("quad2", dict(alpha=50.0, x0=X0, beta=5.0, p=2.0, h=5e-3, t_end=20.0)),
        "quad2-b-near-a": ("quad2", dict(alpha=50.0, x0=X0, beta=50.0 * (1.0 - 1e-12), h=5e-3, t_end=20.0)),
    }

    def _case(self, name):
        key, kwargs = self.CASES[name]
        prob = get_problem(key)
        return prob, FlowConfig(**{"x0": sample_starts(prob, 1, 0)[0], **kwargs})

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("integrate", [mavng_integrate, mavd_integrate])
    def test_matches_the_numpy_loop(self, name, integrate):
        prob, cfg = self._case(name)
        traj = integrate(prob, cfg)
        assert traj.termination == "completed"
        assert_matches_reference(traj, reference_integrate(prob, cfg, traj.system))

    @pytest.mark.parametrize("name", ["quad2-a50", "ex1"])
    def test_failed_projection_keeps_the_points_before_it(self, monkeypatch, name):
        prob, cfg = self._case(name)
        cfg = replace(cfg, t_end=mograd.flow.T0 + 20 * cfg.h)
        certified = mavng_integrate(prob, cfg)
        at = 7
        failed = with_failed_projection(monkeypatch, at, lambda: mavng_integrate(prob, cfg))
        assert failed.termination == "qp_failure"
        # x_0 to x_7: the step that failed adds no point
        assert len(failed) == at + 1
        assert np.array_equal(failed.points, certified.points[: at + 1])
        assert np.array_equal(failed.kkt_residuals, certified.kkt_residuals[: at + 1])
        reference = with_failed_projection(monkeypatch, at, lambda: reference_integrate(prob, cfg, "mavng"))
        assert_matches_reference(failed, reference)


def with_failed_projection(monkeypatch, at, integrate):
    """Run ``integrate()`` with the projection at step k = ``at`` reporting no
    certificate: a call of the public QP, or, in the float loop at m = 2, of
    the closed-form kernel with a target (its min-norm solves pass none)."""
    calls = []

    def project(*args, start=None, _qp=mograd.flow.project_onto_scaled_hull):
        calls.append(None)
        sol = _qp(*args, start=start)
        return replace(sol, converged=False) if len(calls) == at else sol

    def kernel(rows, scale, v, _qp=mograd.flow.closed_form_rows):
        t, point, gap, converged = _qp(rows, scale, v)
        if v is not None:
            calls.append(None)
            if len(calls) == at:
                converged = False
        return t, point, gap, converged

    monkeypatch.setattr(mograd.flow, "project_onto_scaled_hull", project)
    monkeypatch.setattr(mograd.flow, "closed_form_rows", kernel)
    traj = integrate()
    monkeypatch.undo()
    assert len(calls) == at
    return traj


def with_gradient_error(prob, at, fault):
    """``prob`` whose gradient oracle's call ``at``, the read at grid point
    x_at, raises ValueError (``fault`` "raise") or returns NaN entries, which
    the min-norm solve refuses with NonFiniteInput (``fault`` "nan")."""
    calls = []

    def gradient_columns(x):
        calls.append(None)
        G = gradient_matrix(prob, x)
        if len(calls) == at:
            if fault == "raise":
                raise ValueError("injected gradient error")
            G[0, 0] = np.nan
        return G

    return replace(prob, gradient_columns=gradient_columns)


class TestKeptPoints:
    """A strided trajectory keeps the stride-1 trajectory's rows 0, S, 2S, ...
    and the last, bit for bit, and still counts every grid point."""

    STEPS = 237
    CASES = {
        "quad2": ("quad2", dict(alpha=50.0, x0=X0, h=1e-2)),
        # three objectives: both QPs run Wolfe's method
        "ex1": ("ex1:n=10,p=8,seed=1", dict(alpha=20.0, h=5e-3)),
    }

    def _case(self, name):
        key, kwargs = self.CASES[name]
        prob = get_problem(key)
        cfg = FlowConfig(**{"x0": sample_starts(prob, 1, 0)[0], **kwargs})
        return prob, replace(cfg, t_end=mograd.flow.T0 + self.STEPS * cfg.h)

    @staticmethod
    def assert_rows_of(strided, full, stride):
        last = len(full) - 1
        rows = sorted(set(range(0, last + 1, stride)) | {last})
        assert len(strided) == len(full)
        assert strided.termination == full.termination
        assert strided.merit is None
        for got, want in ((strided.times, full.times), (strided.points, full.points),
                          (strided.kkt_residuals, full.kkt_residuals)):
            assert got.shape == want[rows].shape
            assert got.tobytes() == want[rows].tobytes()

    # 237 steps: the last point is off stride 7, on stride 79, and the only
    # point after 0 at stride 1000
    @pytest.mark.parametrize("stride", [7, 79, 1000])
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("integrate", [mavng_integrate, mavd_integrate])
    def test_strided_rows_are_the_full_rows(self, integrate, name, stride):
        prob, cfg = self._case(name)
        full = integrate(prob, cfg)
        assert full.termination == "completed"
        assert len(full) == len(full.times) == self.STEPS + 1
        self.assert_rows_of(integrate(prob, cfg, stride), full, stride)

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("integrate", [mavng_integrate, mavd_integrate])
    def test_failed_run_keeps_the_point_where_it_stopped(self, monkeypatch, integrate, name):
        # the projection fails at step 23, off stride 10: the run keeps
        # points 0, 10, 20 and 23
        prob, cfg = self._case(name)
        full = with_failed_projection(monkeypatch, 23, lambda: integrate(prob, cfg))
        strided = with_failed_projection(monkeypatch, 23, lambda: integrate(prob, cfg, 10))
        assert full.termination == "qp_failure"
        assert len(full) == 24
        self.assert_rows_of(strided, full, 10)
        assert np.array_equal(strided.times, mograd.flow.T0 + np.array([0, 10, 20, 23]) * cfg.h)

    @pytest.mark.parametrize("fault", ["raise", "nan"])
    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("integrate", [mavng_integrate, mavd_integrate])
    def test_gradient_error_keeps_the_points_before_it(self, integrate, name, fault):
        # the gradient read or the min-norm solve at x_24 fails: the run ends
        # qp_failure at x_23, off stride 10, and keeps points 0, 10, 20, 23
        prob, cfg = self._case(name)
        full = integrate(prob, cfg)
        failed = integrate(with_gradient_error(prob, 24, fault), cfg)
        strided = integrate(with_gradient_error(prob, 24, fault), cfg, 10)
        assert failed.termination == strided.termination == "qp_failure"
        assert len(failed) == len(failed.times) == 24
        for got, want in ((failed.times, full.times), (failed.points, full.points),
                          (failed.kkt_residuals, full.kkt_residuals)):
            assert got.tobytes() == want[:24].tobytes()
        self.assert_rows_of(strided, failed, 10)
        assert np.array_equal(strided.times, mograd.flow.T0 + np.array([0, 10, 20, 23]) * cfg.h)
        reference = reference_integrate(with_gradient_error(prob, 24, fault), cfg, failed.system)
        assert_matches_reference(failed, reference)

    @pytest.mark.parametrize("fault", ["raise", "nan"])
    @pytest.mark.parametrize("integrate", [mavng_integrate, mavd_integrate])
    def test_gradient_error_at_the_start_point_propagates(self, integrate, fault):
        # x_1 = x_0 has no earlier point to end at
        prob, cfg = self._case("quad2")
        with pytest.raises(ValueError):
            integrate(with_gradient_error(prob, 1, fault), cfg)

    def test_memory_grows_with_the_kept_points(self):
        # 4000 steps: the stride-1 trajectory holds every point, the
        # stride-100 one 41, so its peak is a small fraction of the other's
        prob = quadratic_pair()
        cfg = short_cfg(t_end=5.0)
        peaks, kept = {}, {}
        for stride in (1, 100):
            tracemalloc.start()
            try:
                traj = mavng_integrate(prob, cfg, stride)
                peaks[stride] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(traj) == 4001
            kept[stride] = len(traj.times)
            del traj
        assert kept == {1: 4001, 100: 41}
        assert peaks[100] < peaks[1] / 10


class TestMeritAttachment:
    def test_stride_and_final_sample(self):
        prob = quadratic_pair()
        traj = attach_merit(prob, mavng_integrate(prob, short_cfg(t_end=1.5), 100))
        expected = sorted(set(range(0, len(traj), 100)) | {len(traj) - 1})
        assert np.array_equal(traj.times, 1.0 + np.array(expected) * 1e-3)
        assert traj.merit.shape == (len(expected),) and not np.isnan(traj.merit).any()

    @pytest.mark.parametrize("stride", [2.5, 0, -3, float("nan"), float("inf")])
    def test_stride_must_be_a_whole_number_of_at_least_one(self, stride):
        prob = quadratic_pair()
        with pytest.raises(ValueError, match="whole number"):
            mavng_integrate(prob, short_cfg(t_end=1.2), stride)

    def test_whole_float_stride_samples_as_its_int(self):
        prob = quadratic_pair()
        a = attach_merit(prob, mavng_integrate(prob, short_cfg(t_end=1.2), 100))
        b = attach_merit(prob, mavng_integrate(prob, short_cfg(t_end=1.2), 100.0))
        assert a.merit.tobytes() == b.merit.tobytes()

    @pytest.mark.parametrize("coeff", [float("nan"), 0.0, -1.0, float("inf")])
    def test_scan_coeff_must_be_positive_and_finite(self, coeff):
        prob = quadratic_pair()
        traj = attach_merit(prob, mavng_integrate(prob, short_cfg(t_end=1.2), 100))
        with pytest.raises(ValueError, match="coeff must be positive and finite"):
            merit_bound_scan(traj, coeff)

    def test_scan_requires_samples(self):
        traj = mavng_integrate(quadratic_pair(), short_cfg(t_end=1.2))
        with pytest.raises(MissingMerit):
            merit_bound_scan(traj, 50.0)

    def test_bound_holds_on_quadratic(self):
        prob = quadratic_pair()
        traj = attach_merit(prob, mavng_integrate(prob, short_cfg(alpha=10.0, t_end=6.0), 100))
        report = merit_bound_scan(traj, 10.0, t_min=2.0)
        assert report.fraction == 1.0

    def test_critical_start_scan_is_trivially_one(self):
        prob = quadratic_pair()
        cfg = FlowConfig(alpha=50.0, x0=pareto_point(prob, 0.6), beta=3.0, t_end=1.5)
        traj = attach_merit(prob, mavng_integrate(prob, cfg, 50))
        report = merit_bound_scan(traj, 50.0)
        assert report.fraction == 1.0

    def test_window_filtering(self):
        prob = quadratic_pair()
        traj = attach_merit(prob, mavng_integrate(prob, short_cfg(t_end=3.0), 200))
        full = merit_bound_scan(traj, 50.0)
        tail = merit_bound_scan(traj, 50.0, t_min=2.0, t_max=3.0)
        assert len(tail.times) < len(full.times) == len(full.merit)
        assert (tail.times >= 2.0).all()

    def test_constant_is_the_least_bound_in_the_window(self):
        prob = quadratic_pair()
        traj = attach_merit(prob, mavng_integrate(prob, short_cfg(t_end=3.0), 200))
        for t_min in (None, 2.0):
            report = merit_bound_scan(traj, 50.0, t_min=t_min)
            samples = zip(report.times.tolist(), report.merit.tolist())
            assert report.constant == max(t * t * phi for t, phi in samples) > 0.0
            # every sample holds at C just above the constant, not just below
            assert merit_bound_scan(traj, report.constant * (1 + 1e-9), t_min=t_min).fraction == 1.0
            assert merit_bound_scan(traj, report.constant * (1 - 1e-9), t_min=t_min).fraction < 1.0

    def test_corrected_flow_dominates_baseline_merit(self):
        # at matched times the corrected flow's merit sits below the
        # baseline's for the (vast) majority of the window
        prob = quadratic_pair()
        cfg = FlowConfig(alpha=100.0, x0=X0, beta=3.0, t_end=20.0)
        corrected = attach_merit(prob, mavng_integrate(prob, cfg, 200))
        baseline = attach_merit(prob, mavd_integrate(prob, cfg, 200))
        window = corrected.times >= 5.0
        wins = np.mean(corrected.merit[window] <= baseline.merit[window])
        assert wins > 0.5

    def test_merit_oscillation_tolerated_for_small_alpha(self):
        # small damping oscillates: only the bound fraction is asserted
        prob = quadratic_pair()
        traj = attach_merit(prob, mavng_integrate(prob, short_cfg(alpha=5.0, t_end=8.0), 100))
        report = merit_bound_scan(traj, 5.0, t_min=2.0)
        values = report.merit.tolist()
        assert report.fraction >= 0.99
        assert any(b > a for a, b in zip(values, values[1:]))  # not monotone
