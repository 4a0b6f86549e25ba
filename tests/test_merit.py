import math

import numpy as np
import pytest

from mograd.flow import FlowConfig, attach_merit, mavd_integrate, mavng_integrate
from mograd.harness import sample_starts
from mograd.merit import (
    DimensionUnsupported,
    MeritUnavailable,
    merit_grid_oracle,
    merit_value,
)
from mograd.problems import (
    ProblemInstance,
    get_problem,
    kkt_residual,
    quadratic_pair,
    regularized_logsumexp_triple,
)

from conftest import single_objective_problem

QUAD_BOX = ((-1.0, 2.0), (-1.0, 2.0))


def _golden_min(fun, lo, hi, iters=200):
    """Minimum of a convex function of one variable on [lo, hi]."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(iters):
        a, b = hi - r * (hi - lo), lo + r * (hi - lo)
        if fun(a) < fun(b):
            hi = b
        else:
            lo = a
    return min(fun(lo), fun(hi), fun(0.5 * (lo + hi)))


def quad2_exact_phi(prob, x):
    """phi(x) for quad2 from its closed-form dual.

    phi(x) = min over theta in [0, 1] of w.F(x) - w.F(z(theta)) with
    w = (theta, 1 - theta), where z(theta) = (2 theta / (1 + theta),
    2 (1 - theta) / (2 - theta)) minimizes w.F; the function of theta is
    convex, so golden section finds its minimum.
    """
    fx = prob.objectives(x)

    def dual(theta):
        w = np.array([theta, 1.0 - theta])
        z = np.array([2.0 * theta / (1.0 + theta), 2.0 * (1.0 - theta) / (2.0 - theta)])
        return float(w @ (fx - prob.objectives(z)))

    return min(_golden_min(dual, 0.0, 1.0), dual(0.0), dual(1.0))


def shifted_quadratics(curvatures, centers):
    """f_i(z) = a_i |z - c_i|^2 / 2 with the rows of ``centers`` as c_i."""
    a = np.asarray(curvatures, dtype=float)
    C = np.asarray(centers, dtype=float)
    m, n = C.shape

    def objectives(z):
        return 0.5 * a * np.einsum("ij,ij->i", z - C, z - C)

    def gradient_columns(z):
        return (a[:, None] * (z - C)).T

    return ProblemInstance(
        name="shifted_quadratics",
        n=n,
        m=m,
        objectives=objectives,
        gradient_columns=gradient_columns,
        init_box=(np.full(n, -1.0), np.full(n, 1.0)),
    )


class TestMeritValue:
    def test_single_objective_optimality_gap(self):
        # phi(x) = f(x) - min f = ||x||^2 / 2
        prob = single_objective_problem(
            lambda x: 0.5 * float(x @ x), lambda x: x, 2, lipschitz=1.0
        )
        result = merit_value(prob, np.array([1.0, 0.0]))
        assert result.converged
        assert result.phi == pytest.approx(0.5, abs=1e-10)

    def test_zero_at_pareto_points(self):
        for key, lam in (("quad2", 0.5), ("jos1", 0.3), ("lse2", 0.7), ("toi4", 0.2), ("sd", 0.4)):
            prob = get_problem(key)
            x = prob.pareto_param(lam)
            assert kkt_residual(prob, x) <= 1e-8
            result = merit_value(prob, x)
            assert 0.0 <= result.phi <= 1e-6, key
            # +0.0, never -0.0, which the CSVs would write as "-0.0"
            assert math.copysign(1.0, result.phi) == 1.0, key

    def test_agrees_with_grid_oracle_at_reference_point(self):
        prob = quadratic_pair()
        x = np.array([-0.2, -0.1])
        result = merit_value(prob, x)
        oracle = merit_grid_oracle(prob, x, QUAD_BOX, resolution=801)
        assert result.converged
        assert abs(result.phi - oracle) <= 1e-3

    def test_nonnegative_everywhere(self, rng):
        prob = quadratic_pair()
        for _ in range(25):
            x = rng.uniform(-2.0, 2.0, 2)
            result = merit_value(prob, x)
            assert result.phi >= 0.0

    def test_translation_invariance(self, rng):
        base = quadratic_pair()
        offset = np.array([3.7, -12.0])
        shifted = ProblemInstance(
            name="quad2shift",
            n=2,
            m=2,
            objectives=lambda x: base.objectives(x) + offset,
            gradient_columns=base.gradient_columns,
            init_box=base.init_box,
            lipschitz=base.lipschitz,
        )
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, 2)
            a = merit_value(base, x)
            b = merit_value(shifted, x)
            assert abs(a.phi - b.phi) <= 1e-8

    def test_warm_start_agreement(self):
        prob = quadratic_pair()
        x1 = np.array([-0.2, -0.1])
        x2 = x1 + 0.02
        cold = merit_value(prob, x2)
        warm = merit_value(prob, x2, warm_start=merit_value(prob, x1).z)
        assert abs(cold.phi - warm.phi) <= 1e-7
        assert warm.iterations <= cold.iterations

    def test_unbounded_inner_problem_refused(self):
        prob = regularized_logsumexp_triple(5, 4, 0.0, 1)
        with pytest.raises(MeritUnavailable):
            merit_value(prob, np.zeros(5))

    def test_tri_objective_strongly_convex(self):
        prob = regularized_logsumexp_triple(6, 5, 0.1, 2)
        result = merit_value(prob, np.linspace(-1.0, 1.0, 6))
        assert result.converged
        assert result.phi > 0.1  # clearly away from the Pareto set


class TestExactReference:
    """quad2 against its closed-form dual, far tighter than the grid oracle."""

    def test_warm_started_along_flow_trajectories(self):
        prob = quadratic_pair()
        cfg = FlowConfig(alpha=50.0, x0=np.array([-0.2, -0.1]), h=1e-2, t_end=8.0)
        for integrate in (mavng_integrate, mavd_integrate):
            traj = attach_merit(prob, integrate(prob, cfg), stride=10)
            sampled = np.flatnonzero(~np.isnan(traj.merit))
            assert len(sampled) >= 70
            for i in sampled:
                exact = quad2_exact_phi(prob, traj.points[i])
                assert abs(traj.merit[i] - exact) <= 1e-8

    def test_cold_random_points(self, rng):
        prob = quadratic_pair()
        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, 2)
            result = merit_value(prob, x)
            assert result.converged
            assert abs(result.phi - quad2_exact_phi(prob, x)) <= 1e-8


# phi at sample_starts(ex2:n=5,p=8,seed=1, 8, 0), and the subproblems the
# cold solves took in all, when t doubled after every accepted step
EX2_COLD_PHI = (
    2.304080736442076, 0.25600571156928587, 36.99239860691383, 0.26123505947176834,
    9.993137603814866, 22.42874388036572, 1.8497188231054968, 45.27986857903679,
)
EX2_COLD_SUBPROBLEMS_ALWAYS_DOUBLING = 5374


class TestStepRule:
    def test_ratio_rule_saves_subproblems_on_ill_conditioned_data(self):
        # doubling t after every accepted step makes it oscillate around the
        # largest acceptable step and wastes every second subproblem
        prob = get_problem("ex2:n=5,p=8,seed=1")
        results = [merit_value(prob, x) for x in sample_starts(prob, 8, 0)]
        assert all(r.converged for r in results)
        assert sum(r.iterations for r in results) < EX2_COLD_SUBPROBLEMS_ALWAYS_DOUBLING
        for result, phi in zip(results, EX2_COLD_PHI):
            assert result.phi == pytest.approx(phi, rel=1e-10)


class TestDegenerateColumns:
    """Gradient columns whose differences are linearly dependent."""

    def test_duplicate_objectives(self):
        # repeating f1 changes neither h nor phi
        base = quadratic_pair()
        dup = ProblemInstance(
            name="quad2dup",
            n=2,
            m=3,
            objectives=lambda z: base.objectives(z)[[0, 0, 1]],
            gradient_columns=lambda z: base.gradient_columns(z)[:, [0, 0, 1]],
            init_box=base.init_box,
        )
        for x in (np.array([-0.2, -0.1]), np.array([1.5, 1.2]), np.array([2.0, -1.0])):
            result = merit_value(dup, x)
            assert result.converged
            assert abs(result.phi - quad2_exact_phi(base, x)) <= 1e-8

    def test_collinear_gradients(self):
        # the centers lie on a line, so the gradients z - c_i do too; the
        # pieces differ by affine terms in z1 (the 1-D case below gives 2),
        # and z2 = 0 gains 1/2 more
        prob = shifted_quadratics([1.0, 1.0, 1.0], [[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
        result = merit_value(prob, np.array([5.0, 1.0]))
        assert result.converged
        assert result.phi == pytest.approx(2.5, abs=1e-10)

    def test_one_dimensional_tri_objective(self):
        # n = 1 < m - 1: three columns in R^1
        prob = shifted_quadratics([1.0, 1.0, 1.0], [[0.0], [1.0], [3.0]])
        far = merit_value(prob, np.array([5.0]))
        assert far.converged
        assert far.phi == pytest.approx(2.0, abs=1e-10)
        pareto = merit_value(prob, np.array([0.5]))
        assert pareto.converged
        assert abs(pareto.phi) <= 1e-12

    def test_unequal_curvatures_in_one_dimension(self):
        # pieces z^2 - 36, (z - 1)^2 / 2 - 12.5 and 1.5 (z - 3)^2 - 13.5 at
        # x = 6: the last two cross at z = 2 with slopes 1 and -3, so phi = 12.
        # The differences of the parts are not linear in the gradient
        # differences, so no shift carries them.
        prob = shifted_quadratics([2.0, 1.0, 3.0], [[0.0], [1.0], [3.0]])
        result = merit_value(prob, np.array([6.0]))
        assert result.converged
        assert result.phi == pytest.approx(12.0, abs=1e-8)
        assert result.z[0] == pytest.approx(2.0, abs=1e-6)


class TestGridOracle:
    def test_requires_two_dimensions(self):
        prob = regularized_logsumexp_triple(5, 4, 0.05, 1)
        with pytest.raises(DimensionUnsupported):
            merit_grid_oracle(prob, np.zeros(5), ((-1, 1), (-1, 1)))

    def test_oracle_is_a_lower_bound(self, rng):
        prob = quadratic_pair()
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, 2)
            oracle = merit_grid_oracle(prob, x, QUAD_BOX, resolution=201)
            result = merit_value(prob, x)
            assert oracle <= result.phi + 1e-8

    def test_refinement_improves_monotonically(self):
        # nested grids: a 2x refinement keeps every coarse node
        prob = quadratic_pair()
        x = np.array([-0.2, -0.1])
        coarse = merit_grid_oracle(prob, x, QUAD_BOX, resolution=101)
        fine = merit_grid_oracle(prob, x, QUAD_BOX, resolution=201)
        assert fine >= coarse - 1e-14

    def test_value_near_zero_at_pareto_point(self):
        prob = quadratic_pair()
        x = prob.pareto_param(0.5)
        oracle = merit_grid_oracle(prob, x, QUAD_BOX, resolution=801)
        # a node adjacent to x scores within one grid cell of zero, and the
        # true supremum is zero, so the oracle is pinched around zero
        assert abs(oracle) <= 1e-4

    def test_loop_fallback_without_batch_evaluator(self):
        base = quadratic_pair()
        nobatch = ProblemInstance(
            name="quad2nobatch",
            n=2,
            m=2,
            objectives=base.objectives,
            gradient_columns=base.gradient_columns,
            init_box=base.init_box,
        )
        x = np.array([0.3, 0.4])
        a = merit_grid_oracle(base, x, QUAD_BOX, resolution=41)
        b = merit_grid_oracle(nobatch, x, QUAD_BOX, resolution=41)
        assert a == b
