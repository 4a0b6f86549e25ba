import math
from dataclasses import replace

import numpy as np
import pytest

import mograd.merit
from mograd.flow import FlowConfig, attach_merit, mavd_integrate, mavng_integrate
from mograd.harness import sample_starts
from mograd.merit import MeritUnavailable, _subproblem_weights, merit_value
from mograd.problems import (
    ProblemInstance,
    get_problem,
    gradient_matrix,
    kkt_residual,
    objective_values,
    quadratic_pair,
    regularized_logsumexp_triple,
)
from mograd.simplex_qp import NonFiniteInput

from conftest import merit_grid_oracle, pareto_point, reference_subproblem_weights, single_objective_problem

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
    fx = objective_values(prob, x)

    def dual(theta):
        w = np.array([theta, 1.0 - theta])
        z = np.array([2.0 * theta / (1.0 + theta), 2.0 * (1.0 - theta) / (2.0 - theta)])
        return float(w @ (fx - objective_values(prob, z)))

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

    def test_rejected_steps_stop_the_solve_unconverged(self):
        # a unit jump away from x = 0 rejects every step, and the steep
        # slope keeps the predicted decrease above rounding at t = 2^-100:
        # the solve gives up after 100 consecutive halvings, at x
        prob = single_objective_problem(
            lambda x: float(x[0] != 0.0), lambda x: np.full(1, 1e10), 1
        )
        result = merit_value(prob, np.zeros(1))
        assert not result.converged
        assert result.iterations == 100
        assert result.phi == 0.0 and np.array_equal(result.z, np.zeros(1))

    def test_sd_first_trial_leaves_the_orthant(self, monkeypatch):
        # the first trial step from x = 0.3 * 1 leaves the positive orthant,
        # where f2 = inf, and the maxima of the inner solve read inf by
        # index as np.max did: the result is the one np.max's solve
        # returned, field for field
        prob = get_problem("sd")
        x = np.full(4, 0.3)
        trials = []
        real = mograd.merit.objective_values

        def spy(p, z):
            values = real(p, z)
            trials.append(values.tolist())
            return values

        monkeypatch.setattr(mograd.merit, "objective_values", spy)
        result = merit_value(prob, x)
        assert math.isinf(trials[1][1]) and min(trials[1]) > -math.inf
        assert result.phi == 0.03875327585642907
        assert result.residual == 9.350985078863388e-07
        assert result.converged is True
        assert result.iterations == 245
        assert result.z.tolist() == [
            0.23060772806020702, 0.3261286014844708, 0.3261286014844708, 0.32612842285279614,
        ]
        # a warm start outside the orthant has h = inf and is not taken
        warm = merit_value(prob, x, warm_start=np.array([-0.1, 0.3, 0.3, 0.3]))
        assert (warm.phi, warm.residual, warm.converged, warm.iterations, warm.z.tolist()) == (
            result.phi, result.residual, result.converged, result.iterations, result.z.tolist())

    def test_zero_at_pareto_points(self):
        for key, lam in (("quad2", 0.5), ("jos1", 0.3), ("lse2", 0.7), ("toi4", 0.2), ("sd", 0.4)):
            prob = get_problem(key)
            x = pareto_point(prob, lam)
            assert kkt_residual(prob, x) <= 1e-8
            result = merit_value(prob, x)
            assert 0.0 <= result.phi <= 1e-6, key
            # +0.0, never -0.0, which the CSVs would write as "-0.0"
            assert math.copysign(1.0, result.phi) == 1.0, key

    def test_agrees_with_grid_oracle_at_reference_point(self):
        prob = quadratic_pair()
        x = np.array([-0.2, -0.1])
        result = merit_value(prob, x)
        oracle = merit_grid_oracle(x, QUAD_BOX, resolution=801)
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

    def test_non_finite_point_is_rejected_before_the_inner_solve(self, capfd):
        # a NaN reaching the inner least-squares solve makes LAPACK print to
        # the terminal before it raises
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="NaN or Inf"):
                merit_value(quadratic_pair(), [bad, 0.0])
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gradient_is_refused_before_any_solve(self, m, bad, capfd):
        # a non-finite column reaching the least-squares shift made LAPACK
        # print "On entry to DLASCL ..." from C, past Python's warning
        # filters, and raise LinAlgError; the closed form (m = 2) must not
        # turn it into a weight either
        if m == 2:
            base, x = quadratic_pair(), np.array([-0.2, -0.1])
        else:
            base, x = regularized_logsumexp_triple(6, 5, 0.1, 2), np.linspace(-1.0, 1.0, 6)

        def gradient_columns(z):
            G = gradient_matrix(base, z).copy()
            G[0, 0] = bad
            return G

        with pytest.raises(NonFiniteInput, match="gradient matrix contains NaN or Inf"):
            merit_value(replace(base, gradient_columns=gradient_columns), x)
        assert capfd.readouterr() == ("", "")

    def test_point_must_match_the_problem_dimension(self):
        for x in (np.zeros((1, 1, 2)), np.zeros(3)):
            with pytest.raises(ValueError, match="dimension 2"):
                merit_value(quadratic_pair(), x)

    def test_warm_start_must_match_the_problem_dimension(self):
        with pytest.raises(ValueError, match="warm start of dimension 2"):
            merit_value(quadratic_pair(), [1.0, 0.0], warm_start=[1.0])

    @pytest.mark.parametrize(
        "bad, shape",
        [("extra 0", 3), ("extra -5", 3), ("one value", 1), ("warm start", 3), ("candidate", 3)],
    )
    def test_objective_vectors_of_the_wrong_length_are_refused(self, bad, shape):
        # an extra value c <= 0 kept every candidate's h at or above 0, so
        # phi = 0.0 came back converged where the true value is 0.994; one
        # value ended in numpy's "Incompatible dimensions".  The last two
        # cases leave F(x) well formed and break only the warm start's or
        # the candidates' F.
        base = quadratic_pair()
        x = np.array([-0.2, -0.1])

        def objectives(z):
            F = base.objectives(z)
            if bad == "one value":
                return F[:1]
            if bad in ("warm start", "candidate") and np.array_equal(z, x):
                return F
            return np.append(F, -5.0 if bad == "extra -5" else 0.0)

        warm = x + 0.01 if bad == "warm start" else None
        prob = replace(base, objectives=objectives)
        with pytest.raises(ValueError, match=rf"shape \({shape},\), but quad2 needs \(2,\)"):
            merit_value(prob, x, warm_start=warm)

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
            traj = attach_merit(prob, integrate(prob, cfg, 10))
            assert len(traj.merit) >= 70
            for point, phi in zip(traj.points, traj.merit):
                exact = quad2_exact_phi(prob, point)
                assert abs(phi - exact) <= 1e-8

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


def _subproblem_value(G, parts, t, theta):
    step = G @ theta
    return float(theta @ parts) - 0.5 * t * float(step @ step)


class TestClosedFormWeights:
    """The m = 2 weights against the general path of ``conftest``.

    Tolerances, fixed from float64 eps before the first run.  In the draws
    each term of the subproblem value is at most about 50 (1 + |value|), so
    its rounding, a few eps per term, stays below 1e-12 (1 + |value|).  The
    general path shifts its columns by v with |v| = |dp| / |d|, dp = (parts_2 -
    parts_1) / t and d = g_2 - g_1, so its weights carry a rounding of
    order n eps |dp| / |d|^2; they are compared where |d|^2 > 1e-6, within
    1e-9 plus 64 times that.
    """

    KINDS = ("generic", "equal columns", "clamped at 0", "clamped at 1", "tied parts", "equal and tied")

    @staticmethod
    def _draw(rng, kind):
        n = int(rng.integers(1, 7))
        G = rng.uniform(-1.0, 1.0, (n, 2))
        parts = rng.uniform(-1.0, 1.0, 2)
        t = 2.0 ** rng.uniform(-4.0, 4.0)
        if kind in ("equal columns", "equal and tied"):
            G[:, 1] = G[:, 0]
        if kind in ("tied parts", "equal and tied"):
            parts[1] = parts[0]
        if kind.startswith("clamped"):
            # parts_2 placing the unclipped maximizer tau at a drawn value
            tau = rng.uniform(-3.0, -0.01) if kind == "clamped at 0" else rng.uniform(1.01, 4.0)
            d = G[:, 1] - G[:, 0]
            parts[1] = parts[0] + t * (G[:, 0] @ d + (d @ d) * tau)
        return G, parts, t

    def test_agrees_with_the_general_path(self, rng):
        eps = np.finfo(float).eps
        for kind in self.KINDS:
            for _ in range(400):
                G, parts, t = self._draw(rng, kind)
                theta = _subproblem_weights(G, parts, t)
                ref = reference_subproblem_weights(G, parts, t)
                assert theta.min() >= 0.0 and abs(theta.sum() - 1.0) <= eps, kind
                # equal columns take the vertex of the larger part, (1, 0) on
                # a tie as the general path does
                vertex = {
                    "clamped at 0": [1.0, 0.0],
                    "clamped at 1": [0.0, 1.0],
                    "equal columns": [0.0, 1.0] if parts[1] > parts[0] else [1.0, 0.0],
                    "equal and tied": [1.0, 0.0],
                }.get(kind)
                if vertex is not None:
                    assert theta.tolist() == vertex, kind
                value = _subproblem_value(G, parts, t, theta)
                ref_value = _subproblem_value(G, parts, t, ref)
                assert abs(value - ref_value) <= 1e-12 * (1.0 + abs(ref_value)), kind
                d = G[:, 1] - G[:, 0]
                dd = float(d @ d)
                if dd > 1e-6:
                    dp = abs(parts[1] - parts[0]) / t
                    tol = 1e-9 + 64.0 * G.shape[0] * eps * dp / dd
                    assert np.abs(theta - ref).max() <= tol, kind


class TestDegenerateColumns:
    """Gradient columns whose differences are linearly dependent, and m = 2
    columns at the ends of the float range."""

    def test_duplicate_pair(self):
        # f2 = f1 + c has the same gradient: h(z) = f1(z) - f1(x), so
        # phi(x) = f1(x) - min f1 = |x - c1|^2 / 2 = 6.5
        base = shifted_quadratics([1.0], [[1.0, -2.0]])
        dup = ProblemInstance(
            name="pairdup",
            n=2,
            m=2,
            objectives=lambda z: base.objectives(z)[[0, 0]] + [0.0, 3.0],
            gradient_columns=lambda z: gradient_matrix(base, z)[:, [0, 0]],
            init_box=base.init_box,
        )
        result = merit_value(dup, np.array([3.0, 1.0]))
        assert result.converged
        assert result.phi == pytest.approx(6.5, abs=1e-10)

    def test_one_dimensional_pair(self):
        # pieces z^2 / 2 - 2 and 2 (z - 1)^2 - 2 at x = 2: they cross at
        # z = 2/3 with slopes 2/3 and -4/3, so phi = 2 - 2/9 = 16/9
        prob = shifted_quadratics([1.0, 4.0], [[0.0], [1.0]])
        result = merit_value(prob, np.array([2.0]))
        assert result.converged
        assert result.phi == pytest.approx(16.0 / 9.0, abs=1e-10)
        assert result.z[0] == pytest.approx(2.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize("offset", [1e-180, 1.0])
    def test_columns_whose_squares_overflow(self, offset, monkeypatch):
        # gradients 1e200 (z - c_i): every column's square overflows; with
        # centers 1e-180 apart |d|^2 = 1e40 stays finite and the closed form
        # runs, 1.0 apart it overflows and the general path runs
        prob = shifted_quadratics([1e200, 1e200], [[0.0, 0.0], [offset, 0.0]])
        x = np.array([3.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            result = merit_value(prob, x)
            monkeypatch.setattr(mograd.merit, "_subproblem_weights", reference_subproblem_weights)
            ref = merit_value(prob, x)
        assert (result.converged, result.phi) == (ref.converged, ref.phi)
        # the model's predicted decrease is not finite, so the solve ends
        # at the first subproblem
        assert result.iterations == 1

    def test_duplicate_objectives(self):
        # repeating f1 changes neither h nor phi
        base = quadratic_pair()
        dup = ProblemInstance(
            name="quad2dup",
            n=2,
            m=3,
            objectives=lambda z: objective_values(base, z)[[0, 0, 1]],
            gradient_columns=lambda z: gradient_matrix(base, z)[:, [0, 0, 1]],
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
    def test_oracle_is_a_lower_bound(self, rng):
        prob = quadratic_pair()
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, 2)
            oracle = merit_grid_oracle(x, QUAD_BOX, resolution=201)
            result = merit_value(prob, x)
            assert oracle <= result.phi + 1e-8

    def test_refinement_improves_monotonically(self):
        # nested grids: a 2x refinement keeps every coarse node
        x = np.array([-0.2, -0.1])
        coarse = merit_grid_oracle(x, QUAD_BOX, resolution=101)
        fine = merit_grid_oracle(x, QUAD_BOX, resolution=201)
        assert fine >= coarse - 1e-14

    def test_value_near_zero_at_pareto_point(self):
        prob = quadratic_pair()
        x = pareto_point(prob, 0.5)
        oracle = merit_grid_oracle(x, QUAD_BOX, resolution=801)
        # a node adjacent to x scores within one grid cell of zero, and the
        # true supremum is zero, so the oracle is pinched around zero
        assert abs(oracle) <= 1e-4
