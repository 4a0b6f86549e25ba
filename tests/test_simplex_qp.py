import numpy as np
import pytest
from numpy.testing import assert_allclose

from mograd.harness import sample_starts
from mograd.problems import get_problem
from mograd.simplex_qp import (
    NonFiniteInput,
    min_norm_in_hull,
    project_onto_scaled_hull,
)
from mograd.solvers import ACCG_LS, KMAX, MFISC_LS, SolverConfig, run_solver

from conftest import grid_min_hull_objective


class TestMinNormInHull:
    def test_identical_columns_hull_is_a_point(self):
        g = np.array([1.0, 2.0])
        sol = min_norm_in_hull(np.column_stack([g, g, g]))
        assert_allclose(sol.point, g, atol=1e-12)
        assert sol.gap == 0.0

    def test_two_axis_columns(self):
        # minimize ||(t, 1-t)||^2 over t in [0, 1]: calculus gives t = 1/2;
        # frozen value cross-checked against a 1e-6-resolution 1-D grid.
        G = np.eye(2)
        sol = min_norm_in_hull(G)
        assert_allclose(sol.weights, [0.5, 0.5], atol=1e-10)
        assert_allclose(sol.point, [0.5, 0.5], atol=1e-10)
        assert_allclose(np.linalg.norm(sol.point), 1.0 / np.sqrt(2.0), atol=1e-10)
        obj = 0.5 * float(sol.point @ sol.point)
        grid = grid_min_hull_objective(G, 1.0, np.zeros(2), resolution=10**6)
        assert abs(obj - grid) <= 1e-12

    def test_zero_in_hull_at_critical_point(self):
        # gradient columns of the quadratic pair at its front endpoint (0, 1)
        G = np.array([[-2.0, 0.0], [1.0, 0.0]])
        sol = min_norm_in_hull(G)
        assert_allclose(sol.point, np.zeros(2), atol=1e-12)
        assert_allclose(sol.weights, [0.0, 1.0], atol=1e-10)

    def test_specializes_projection(self, rng):
        # same arithmetic on both paths, so the results are equal bit for bit
        for _ in range(20):
            m = int(rng.choice([1, 2, 3, 5]))
            n = int(rng.choice([2, 10]))
            G = rng.normal(size=(n, m))
            a = min_norm_in_hull(G)
            b = project_onto_scaled_hull(G, 1.0, np.zeros(n))
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.point, b.point)
            assert a.gap == b.gap
            assert a.converged == b.converged

    def test_single_column(self, rng):
        g = rng.normal(size=4)
        sol = min_norm_in_hull(g.reshape(-1, 1))
        assert_allclose(sol.point, g)
        assert_allclose(sol.weights, [1.0])

    def test_validation_errors(self):
        with pytest.raises(NonFiniteInput):
            min_norm_in_hull(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(NonFiniteInput):
            min_norm_in_hull(np.array([[1.0, 0.0], [-np.inf, 1.0]]))
        with pytest.raises(ValueError):
            min_norm_in_hull(np.ones(3))


class TestProjectOntoScaledHull:
    def test_member_vertex_is_fixed(self, rng):
        G = rng.normal(size=(5, 3))
        v = 2.0 * G[:, 0]
        sol = project_onto_scaled_hull(G, 2.0, v)
        assert_allclose(sol.point, v, atol=1e-10)
        assert sol.gap <= 1e-10

    def test_closed_form_two_columns(self):
        # projection of (2,2) onto the segment [(2,0), (0,2)]: the midpoint.
        # 1-D clamp formula cross-checked against the lattice oracle.
        G = np.array([[2.0, 0.0], [0.0, 2.0]])
        v = np.array([2.0, 2.0])
        sol = project_onto_scaled_hull(G, 1.0, v)
        assert_allclose(sol.weights, [0.5, 0.5], atol=1e-12)
        assert_allclose(sol.point, [1.0, 1.0], atol=1e-12)
        obj = 0.5 * float((sol.point - v) @ (sol.point - v))
        grid = grid_min_hull_objective(G, 1.0, v, resolution=10**6)
        assert abs(obj - grid) <= 1e-10

    def test_objective_matches_lattice_oracle(self, rng):
        for _ in range(25):
            m = int(rng.choice([2, 3]))
            n = int(rng.choice([2, 10]))
            G = rng.normal(size=(n, m))
            v = rng.normal(size=n)
            sol = project_onto_scaled_hull(G, 1.0, v)
            assert sol.converged
            obj = 0.5 * float((sol.point - v) @ (sol.point - v))
            grid = grid_min_hull_objective(G, 1.0, v, resolution=1000)
            assert obj <= grid + 1e-10
            assert grid - obj <= 1e-4

    def test_scale_equivariance(self, rng):
        for scale in (0.05, 1.0, 7.5):
            G = rng.normal(size=(4, 3))
            v = rng.normal(size=4)
            a = project_onto_scaled_hull(G, scale, v)
            b = project_onto_scaled_hull(scale * G, 1.0, v)
            assert_allclose(a.weights, b.weights, atol=1e-8)
            assert_allclose(a.point, b.point, atol=1e-8)

    def test_single_column_degeneracy(self, rng):
        g = rng.normal(size=3)
        v = rng.normal(size=3)
        sol = project_onto_scaled_hull(g.reshape(-1, 1), 2.5, v)
        assert_allclose(sol.weights, [1.0])
        assert_allclose(sol.point, 2.5 * g, atol=1e-14)

    def test_duplicate_columns_degenerate_hull(self, rng):
        g1 = rng.normal(size=4)
        g2 = rng.normal(size=4)
        G = np.column_stack([g1, g1, g2])
        sol = min_norm_in_hull(G)
        assert sol.converged
        # any optimal weights are acceptable; the point must be optimal
        obj = 0.5 * float(sol.point @ sol.point)
        grid = grid_min_hull_objective(
            np.column_stack([g1, g2]), 1.0, np.zeros(4), resolution=2000
        )
        assert abs(obj - grid) <= 1e-6

    def test_all_zero_columns(self):
        sol = project_onto_scaled_hull(np.zeros((3, 4)), 1.0, np.ones(3))
        assert_allclose(sol.point, np.zeros(3))
        assert sol.converged

    def test_validation_errors(self):
        G = np.eye(2)
        with pytest.raises(NonFiniteInput):
            project_onto_scaled_hull(np.array([[np.inf, 0.0], [0.0, 1.0]]), 1.0, np.zeros(2))
        with pytest.raises(NonFiniteInput):
            project_onto_scaled_hull(G, 1.0, np.array([np.nan, 0.0]))
        for scale in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError):
                project_onto_scaled_hull(G, scale, np.zeros(2))
        with pytest.raises(ValueError):
            project_onto_scaled_hull(G, 1.0, np.zeros(3))


class TestOverflow:
    """Finite data whose squares overflow must never be certified falsely."""

    @pytest.mark.parametrize(
        "G",
        [
            [[1e200], [1e200]],
            [[1e200, -1e200], [1e200, 1e200]],
        ],
    )
    def test_closed_forms_do_not_certify_nan_gaps(self, G):
        # the Frank-Wolfe slack is NaN here (inf - inf, or NaN weights from
        # inf / inf); clamping a NaN slack to zero would report it converged
        G = np.array(G)
        with np.errstate(over="ignore", invalid="ignore"):
            sols = [
                min_norm_in_hull(G),
                project_onto_scaled_hull(G, 1.0, np.zeros(2)),
                project_onto_scaled_hull(G, 1.0, np.array([1e200, 3e199])),
            ]
        for sol in sols:
            assert not sol.converged

    def test_overflowed_scale_gives_no_relative_allowance(self):
        # the squared column norms overflow to inf; a tolerance relative to
        # them would certify the vertex (0.5, 0) with a gap of 5e199,
        # although (0.25, 0.25), of smaller norm, lies in the hull
        G = np.array([[1e200, -1e200, 0.5], [1e200, 1e200, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            sols = [min_norm_in_hull(G), project_onto_scaled_hull(G, 1.0, np.zeros(2))]
        for sol in sols:
            assert not sol.converged or sol.gap <= 1e-10
            assert not sol.converged or float(sol.point @ sol.point) <= 0.125


class TestAdversarialConditioning:
    """Ill-conditioned hulls must keep certificates honest, never hang."""

    def _instances(self, rng, count):
        for trial in range(count):
            kind = trial % 6
            m = int(rng.integers(2, 6))
            n = int(rng.integers(1, 12))
            if kind == 0:  # nearly collinear columns
                base = rng.normal(size=n)
                G = np.column_stack(
                    [base + 1e-9 * rng.normal(size=n) for _ in range(m)]
                )
            elif kind == 1:  # one vanishing column, as near critical points
                G = rng.normal(size=(n, m))
                G[:, 0] *= 1e-12
            elif kind == 2:  # extreme per-column scale disparity
                G = rng.normal(size=(n, m)) * np.logspace(-8, 8, m)
            elif kind == 3:  # duplicates and opposites
                g = rng.normal(size=n)
                cols = [g, g, -g] + [rng.normal(size=n) for _ in range(m - 3)]
                G = np.column_stack(cols[:m])
            elif kind == 4:  # rank one
                G = np.outer(rng.normal(size=n), rng.normal(size=m))
            else:  # large magnitudes
                G = rng.normal(size=(n, m)) * 1e5
            scale = float(10.0 ** rng.uniform(-6, 2))
            v = rng.normal(size=n) * float(10.0 ** rng.uniform(-3, 3))
            yield G, scale, v

    def _wide_instances(self, rng, count):
        # m = 10, n = 40
        for trial in range(count):
            kind = trial % 3
            if kind == 0:  # duplicates and opposites
                g = rng.normal(size=40)
                G = np.column_stack([g, g, -g] + [rng.normal(size=40) for _ in range(7)])
            elif kind == 1:  # rank one
                G = np.outer(rng.normal(size=40), rng.normal(size=10))
            else:  # large magnitudes
                G = rng.normal(size=(40, 10)) * 1e5
            scale = float(10.0 ** rng.uniform(-6, 2))
            v = rng.normal(size=40) * float(10.0 ** rng.uniform(-3, 3))
            yield G, scale, v

    def test_feasibility_certificates_and_termination(self, rng):
        eps = np.finfo(float).eps
        for G, scale, v in [*self._instances(rng, 240), *self._wide_instances(rng, 30)]:
            for sol, s_eff, vv in (
                (min_norm_in_hull(G), 1.0, np.zeros(G.shape[0])),
                (project_onto_scaled_hull(G, scale, v), scale, v),
            ):
                assert np.all(sol.weights >= 0.0)
                assert abs(sol.weights.sum() - 1.0) <= 1e-12
                S = s_eff * G
                rebuilt = S @ sol.weights
                # reconstruction up to cancellation-aware rounding
                magnitude = np.abs(S) @ sol.weights
                assert np.all(
                    np.abs(rebuilt - sol.point) <= 16 * eps * magnitude + 1e-300
                )
                assert sol.iterations <= 2000
                if sol.converged:
                    w = sol.point - vv
                    slack = float(np.min(w @ S - w @ sol.point))
                    data_scale = max(
                        1.0,
                        float(np.max(np.sum(S**2, axis=0))),
                        float(vv @ vv),
                    )
                    assert slack >= -(1e-10 + 1e-10 * data_scale)


class TestSolutionInvariants:
    def _random_cases(self, rng, count=40):
        for _ in range(count):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(1, 12))
            G = rng.normal(size=(n, m))
            scale = float(rng.uniform(0.1, 3.0))
            v = rng.normal(size=n)
            yield G, scale, v

    def test_weights_feasible_and_point_reconstructs(self, rng):
        for G, scale, v in self._random_cases(rng):
            sol = project_onto_scaled_hull(G, scale, v)
            assert np.all(sol.weights >= 0.0)
            assert abs(sol.weights.sum() - 1.0) <= 1e-12
            rebuilt = scale * (G @ sol.weights)
            assert np.max(np.abs(rebuilt - sol.point)) <= 1e-12

    def test_min_norm_optimality_certificate(self, rng):
        tol = 1e-10
        for G, _, _ in self._random_cases(rng):
            sol = min_norm_in_hull(G)
            if not sol.converged:
                continue
            p = sol.point
            assert float(np.min(p @ G)) >= float(p @ p) - tol

    def test_projection_variational_inequality(self, rng):
        tol = 1e-10
        for G, scale, v in self._random_cases(rng):
            sol = project_onto_scaled_hull(G, scale, v)
            if not sol.converged:
                continue
            p, w = sol.point, sol.point - v
            slacks = w @ (scale * G) - float(w @ p)
            assert float(np.min(slacks)) >= -tol


class TestSolverRegressions:
    @pytest.mark.parametrize("variant", [MFISC_LS, ACCG_LS])
    @pytest.mark.parametrize("draw", [39, 40, 42])
    def test_ex2_projection_certifies_at_large_gradients(self, draw, variant):
        # at scale s0 = 10 with gradient norms near 1e3 the projection QP of
        # the first step must still certify its gap, or the run ends in
        # qp_failure at iteration 0
        prob = get_problem(f"ex2:n=40,p=40,seed={draw}")
        x0 = sample_starts(prob, 1, 3)[0]
        trace = run_solver(prob, SolverConfig(variant=variant, epsilon=1e-4, k_max=48), x0)
        assert trace.termination == KMAX
