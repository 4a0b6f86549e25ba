import itertools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mograd.harness import sample_starts
from mograd.problems import (
    InvalidConfig,
    _gradient_array,
    _is_float_rows,
    _stream,
    as_point,
    available_problems,
    get_problem,
    gradient_matrix,
    gradient_rows,
    jos1,
    kkt_residual,
    least_squares_family,
    objective_values,
    logsumexp_pair,
    quadratic_pair,
    regularized_least_squares_triple,
    regularized_logsumexp_triple,
    whole_number,
)
from mograd.solvers import VARIANTS, SolverConfig, run_solver

from conftest import (
    finite_difference_gradients,
    pareto_point,
    quad2_values,
    reference_problem,
    single_objective_problem,
)

DESK_PROBLEMS = [
    "quad2",
    "lse2",
    "jos1",
    "sd",
    "toi4",
    "ex1:n=12,p=8,seed=3",
    "ex2:n=10,p=9,seed=4",
]


@pytest.fixture(params=DESK_PROBLEMS)
def desk_problem(request):
    return get_problem(request.param)


class TestQuadraticPair:
    def test_objective_values(self):
        prob = quadratic_pair()
        # (0-1)^2 + 0.5*1 = 1.5 and 0 + (1-1)^2 = 0, by substitution
        assert_allclose(prob.objectives(np.array([0.0, 1.0])), [1.5, 0.0])

    def test_pareto_endpoints(self):
        prob = quadratic_pair()
        assert_allclose(pareto_point(prob, 0.0), [0.0, 1.0])
        assert_allclose(pareto_point(prob, 1.0), [1.0, 0.0])

    def test_gradients_at_origin(self):
        cols = gradient_matrix(quadratic_pair(), np.zeros(2))
        assert_allclose(cols[:, 0], [-2.0, 0.0])
        assert_allclose(cols[:, 1], [0.0, -2.0])

    def test_quad2_values_helper_matches_the_oracle(self, rng):
        # quad2_values feeds the merit grid oracle of the tests; the two
        # evaluate the same formula in a different order of rounding
        prob = quadratic_pair()
        X = rng.uniform(-2.0, 2.5, size=(200, 2))
        expected = np.array([prob.objectives(x) for x in X])
        assert_allclose(quad2_values(X), expected, rtol=1e-15, atol=0.0)


# The m = 2 oracles as numpy-scalar and np.stack formulas: the small oracles
# compute on Python floats and fill np.empty columns, and must keep every bit.
def _quad2_reference(x):
    F = np.array([(x[0] - 1.0) ** 2 + 0.5 * x[1] ** 2, 0.5 * x[0] ** 2 + (x[1] - 1.0) ** 2])
    G = np.array([[2.0 * (x[0] - 1.0), x[0]], [x[1], 2.0 * (x[1] - 1.0)]])
    return F, G


def _toi4_reference(x):
    F = np.array(
        [x[0] ** 2 + x[1] ** 2 + 1.0, 0.5 * ((x[0] - x[1]) ** 2 + (x[2] - x[3]) ** 2) + 1.0]
    )
    d12, d34 = x[0] - x[1], x[2] - x[3]
    G = np.array([[2.0 * x[0], d12], [2.0 * x[1], -d12], [0.0, d34], [0.0, -d34]])
    return F, G


def _jos1_reference(x):
    n = x.shape[0]
    F = np.array([float(x @ x) / n, float((x - 2.0) @ (x - 2.0)) / n])
    G = np.stack([2.0 * x / n, 2.0 * (x - 2.0) / n], axis=1)
    return F, G


_SQ2 = np.sqrt(2.0)
_SD_LIN = np.array([2.0, _SQ2, _SQ2, 1.0])
_SD_REC = np.array([2.0, 2.0 * _SQ2, 2.0 * _SQ2, 2.0])


def _sd_reference(x):
    F = np.array([float(_SD_LIN @ x), float(np.sum(_SD_REC / x))])
    G = np.stack([_SD_LIN, -_SD_REC / (x * x)], axis=1)
    return F, G


class TestSmallOracles:
    @pytest.mark.parametrize(
        "key, reference",
        [
            ("quad2", _quad2_reference),
            ("toi4", _toi4_reference),
            ("jos1", _jos1_reference),
            ("jos1:n=5", _jos1_reference),
            ("sd", _sd_reference),
        ],
    )
    def test_bitwise_equal_to_numpy_formulas(self, key, reference, rng):
        prob = get_problem(key)
        lo, hi = prob.init_box
        X = rng.uniform(lo, hi, size=(1000, prob.n))
        # 27-bit significands make x^2 an exact halfway case, where libm pow
        # and x * x can round differently
        X[::2] = lo + rng.integers(0, 2**27, size=(500, prob.n)) * ((hi - lo) / 2**27)
        for x in X:
            F, G = reference(x)
            assert objective_values(prob, x).tobytes() == F.tobytes()
            assert gradient_matrix(prob, x).tobytes() == G.tobytes()

    @pytest.mark.parametrize("key, reference", [("quad2", _quad2_reference), ("toi4", _toi4_reference)])
    def test_overflowing_powers_give_inf(self, key, reference):
        prob = get_problem(key)
        for big in (1e200, -1e160):
            x = np.full(prob.n, 0.5)
            x[1] = big
            with np.errstate(over="ignore"):
                F, _ = reference(x)
                got = objective_values(prob, x)
            assert np.isinf(F).any()
            assert got.tobytes() == F.tobytes()

    @pytest.mark.parametrize("key", ["quad2", "toi4"])
    def test_overflowing_point_warns_nothing(self, key):
        # the numpy-scalar fallback returns inf without numpy's overflow warning
        prob = get_problem(key)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = prob.objectives(np.full(prob.n, 1e200))
        assert np.isposinf(F).any()

    @pytest.mark.parametrize(
        "key", ["quad2", "lse2", "jos1", "jos1:n=5", "sd", "toi4", "ex1:n=4,p=3", "ex2:n=4,p=3"]
    )
    def test_gradient_columns_layout(self, key, rng):
        prob = get_problem(key)
        cols = gradient_matrix(prob, rng.uniform(*prob.init_box))
        assert cols.shape == (prob.n, prob.m)
        assert cols.dtype == np.float64
        assert cols.flags.c_contiguous


def _edge_points(rng, n):
    """Points at magnitudes 1e-3 to 1e3 with either sign, and with entries
    of 0.0, -0.0, NaN, +-inf and a tiny 1e-170, whose square underflows."""
    points = list(rng.choice([-1.0, 1.0], size=(300, n)) * 10.0 ** rng.uniform(-3, 3, (300, n)))
    points += list(10.0 ** rng.uniform(-3, 3, (300, n)))
    for special in (0.0, -0.0, math.nan, math.inf, -math.inf, 1e-170):
        for i in range(n):
            x = 10.0 ** rng.uniform(-3, 3, n)
            x[i] = special
            points.append(x)
    return points


class TestReferenceOracles:
    """The Python-float sd and jos1 oracles keep every bit of the numpy ones
    in conftest, the C-contiguous layout and the ValueError included."""

    @pytest.mark.parametrize("key", ["sd", "jos1", "jos1:n=7"])
    def test_bitwise_equal_on_edge_points(self, key, rng):
        prob, ref = get_problem(key), reference_problem(key)
        raised = 0
        for x in _edge_points(rng, prob.n):
            # numpy warns where a tiny x_i * x_i underflows to a zero divisor
            with np.errstate(divide="ignore"):
                F = ref.objectives(x)
                try:
                    G = ref.gradient_columns(x)
                except ValueError as exc:
                    G = exc
            assert objective_values(prob, x).tobytes() == F.tobytes(), x
            if isinstance(G, ValueError):
                raised += 1
                with pytest.raises(ValueError, match=str(G)):
                    prob.gradient_columns(x)
                continue
            got = gradient_matrix(prob, x)
            assert got.flags.c_contiguous and got.dtype == np.float64
            assert got.shape == G.shape and got.tobytes() == G.tobytes(), x
        # sd's orthant test ran on both sides
        assert (raised > 0) == (prob.name == "sd")


# The family oracles as a loop over the objectives, one matrix-vector chain
# each: the stacked oracles batch these products and must keep every bit.
def _family_data(key):
    if key == "lse2":
        A = np.array([[10.0, 10.0], [10.0, -10.0], [-10.0, -10.0], [-10.0, 10.0]])
        b = np.array([0.0, -20.0, 0.0, 20.0])
        return "lse", [A, A], [b, -b], 0.0
    family, _, spec = key.partition(":")
    factory = {"ex1": regularized_logsumexp_triple, "ex2": regularized_least_squares_triple}
    params = dict(zip(("n", "p", "delta", "seed"), factory[family].__defaults__))
    params.update(item.split("=") for item in spec.split(",") if spec)
    n, p, seed = (int(params[name]) for name in ("n", "p", "seed"))
    low = -1.0 if family == "ex1" else 0.0
    mats = [_stream(seed, 2 * j).uniform(low, 1.0, size=(p, n)) for j in range(3)]
    offs = [_stream(seed, 2 * j + 1).uniform(low, 1.0, size=p) for j in range(3)]
    return ("lse" if family == "ex1" else "ls"), mats, offs, float(params["delta"])


def _family_reference(kind, mats, offs, delta, x):
    reg = 0.5 * delta * float(x @ x)
    F, cols = [], []
    for A, b in zip(mats, offs):
        z = A @ x - b
        if kind == "lse":
            e = np.exp(z - z.max())
            F.append(reg + float(z.max() + np.log(e.sum())))
            cols.append(delta * x + A.T @ (e / e.sum()))
        else:
            F.append(reg + 0.5 * float((z**2).sum()))
            cols.append(delta * x + A.T @ z)
    return np.array(F), np.stack(cols, axis=1)


class TestFamilyOracles:
    @pytest.mark.parametrize("key", ["ex1:n=40,p=20,seed=0", "ex2:n=10,p=9,seed=4", "lse2"])
    def test_bitwise_equal_to_per_objective_formulas(self, key, rng):
        prob = get_problem(key)
        kind, mats, offs, delta = _family_data(key)
        # at |x| = 100 the exponents of ex1 reach the thousands, and exp
        # overflows unless each objective is shifted by its own maximum
        for magnitude in (1e-3, 1.0, 10.0, 100.0):
            X = rng.uniform(-magnitude, magnitude, size=(100, prob.n))
            for x in X:
                F, G = _family_reference(kind, mats, offs, delta, x)
                assert np.isfinite(F).all()
                assert prob.objectives(x).tobytes() == F.tobytes()
                assert prob.gradient_columns(x).tobytes() == G.tobytes()


def _outcome(oracle, x):
    """What ``oracle(x)`` gives: its bytes, or its error's type and message."""
    with np.errstate(all="ignore"):
        try:
            return np.asarray(oracle(x)).tobytes()
        except Exception as exc:
            return type(exc), str(exc)


class TestFamilyMemo:
    """F and G share one pass per point through a one-entry memo, which
    must never change a result: every check is bit for bit against the
    per-objective formulas or a fresh problem."""

    KEYS = ["ex1:n=40,p=20,seed=0", "ex2:n=10,p=9,seed=4", "lse2"]

    @staticmethod
    def assert_reference(prob, key, x):
        F, G = _family_reference(*_family_data(key), x)
        assert prob.objectives(x).tobytes() == F.tobytes()
        assert prob.gradient_columns(x).tobytes() == G.tobytes()

    @pytest.mark.parametrize("key", KEYS)
    def test_every_call_order_at_alternating_points(self, key, rng):
        prob = get_problem(key)
        data = _family_data(key)
        x, y = rng.uniform(-2.0, 2.0, size=(2, prob.n))
        want = {}
        for name, point in itertools.product(("F", "G"), ("x", "y")):
            F, G = _family_reference(*data, {"x": x, "y": y}[point])
            want[name, point] = (F if name == "F" else G).tobytes()
        oracles = {"F": prob.objectives, "G": prob.gradient_columns}
        # every sequence of four calls, one problem throughout
        for calls in itertools.product(sorted(want), repeat=4):
            for name, point in calls:
                got = oracles[name]({"x": x, "y": y}[point])
                assert got.tobytes() == want[name, point], calls

    @pytest.mark.parametrize("key", KEYS)
    def test_point_mutated_in_place_between_calls(self, key, rng):
        prob = get_problem(key)
        x = rng.uniform(-2.0, 2.0, prob.n)
        for i in range(prob.n):
            prob.objectives(x)
            x[i] += 0.5
            self.assert_reference(prob, key, x)
            prob.gradient_columns(x)
            x[i] = -x[i]
            self.assert_reference(prob, key, x)

    @pytest.mark.parametrize("key", KEYS)
    def test_results_mutated_by_the_caller(self, key, rng):
        prob = get_problem(key)
        x = rng.uniform(-2.0, 2.0, prob.n)
        for _ in range(2):
            F, G = prob.objectives(x), prob.gradient_columns(x)
            F[:] = np.nan
            G[:] = np.nan
            self.assert_reference(prob, key, x)

    @pytest.mark.parametrize("key", KEYS)
    def test_same_bytes_of_another_dtype_shape_or_layout(self, key, rng):
        # each array below has the bytes of the cached point x: an int64
        # view and a (1, n) view must be computed afresh, and a strided copy
        # of x (the same point) gives what a fresh problem gives
        prob = get_problem(key)
        x = rng.uniform(-2.0, 2.0, prob.n)
        strided = np.repeat(x, 2)[::2]
        for other in (x.view(np.int64), x.reshape(1, prob.n), strided):
            assert other.tobytes() == x.tobytes()
            for name in ("objectives", "gradient_columns"):
                prob.objectives(x)
                prob.gradient_columns(x)
                got = _outcome(getattr(prob, name), other)
                assert got == _outcome(getattr(get_problem(key), name), other)
                self.assert_reference(prob, key, x)


# the tri-table's n = 40 draws, and the registry defaults (n = 200 and n = 100)
_LIPSCHITZ_KEYS = (
    ["lse2", "ex1", "ex2"]
    + [f"ex1:n=40,p=20,seed={seed}" for seed in range(4)]
    + [f"ex2:n=40,p=40,seed={seed}" for seed in range(4)]
)


class TestFamilyLipschitz:
    @pytest.mark.parametrize("key", _LIPSCHITZ_KEYS)
    def test_equals_the_exact_spectral_norm_bound(self, key):
        _, mats, _, delta = _family_data(key)
        sigma = max(np.linalg.svd(A, compute_uv=False)[0] for A in mats)
        assert get_problem(key).lipschitz == delta + sigma**2


class TestLogSumExpPair:
    def test_center_is_critical(self):
        prob = logsumexp_pair()
        assert_allclose(pareto_point(prob, 0.5), [0.0, 0.0])
        assert kkt_residual(prob, np.zeros(2)) <= 1e-10

    def test_swap_symmetry(self, rng):
        prob = logsumexp_pair()
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0, 2)
            F = prob.objectives(x)
            Fm = prob.objectives(-x)
            assert_allclose(Fm[0], F[1], rtol=1e-14)
            assert_allclose(Fm[1], F[0], rtol=1e-14)

    def test_gradient_at_reference_start(self):
        prob = logsumexp_pair()
        x0 = np.array([0.0, 3.0])
        fd = finite_difference_gradients(prob, x0)
        rel = np.abs(prob.gradient_columns(x0) - fd) / np.maximum(1.0, np.abs(fd))
        assert rel.max() <= 1e-5


class TestGradientConsistency:
    def test_finite_differences(self, desk_problem, rng):
        lo, hi = desk_problem.init_box
        for _ in range(5):
            x = rng.uniform(lo, hi)
            fd = finite_difference_gradients(desk_problem, x)
            cols = gradient_matrix(desk_problem, x)
            rel = np.abs(cols - fd) / np.maximum(1.0, np.abs(fd))
            assert rel.max() <= 1e-5, desk_problem.name

    def test_lipschitz_sample_bound(self, desk_problem, rng):
        lip = desk_problem.lipschitz
        if lip is None:
            pytest.skip("no Lipschitz constant stored")
        lo, hi = desk_problem.init_box
        for _ in range(100):
            x = rng.uniform(lo, hi)
            y = rng.uniform(lo, hi)
            dg = gradient_matrix(desk_problem, x) - gradient_matrix(desk_problem, y)
            per_objective = np.linalg.norm(dg, axis=0)
            assert per_objective.max() <= lip * np.linalg.norm(x - y) * (1 + 1e-9)


class TestParetoParametrizations:
    def test_emitted_points_are_critical(self, desk_problem):
        if pareto_point(desk_problem, 0.0) is None:
            pytest.skip("no parametrization")
        for lam in np.linspace(0.0, 1.0, 9):
            x = pareto_point(desk_problem, float(lam))
            assert kkt_residual(desk_problem, x) <= 1e-8, desk_problem.name

    def test_quad2_fine_grid(self):
        prob = quadratic_pair()
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert kkt_residual(prob, pareto_point(prob, lam)) <= 1e-8


class TestJos1:
    def test_midpoint_is_critical(self):
        prob = jos1(2)
        assert kkt_residual(prob, np.ones(2)) <= 1e-12

    def test_f1_minimum_at_origin(self):
        assert jos1(2).objectives(np.zeros(2))[0] == 0.0

    def test_dimension_validation(self):
        with pytest.raises(InvalidConfig):
            jos1(1)


class TestSeededFamilies:
    def test_deterministic_rebuild(self):
        a = regularized_logsumexp_triple(8, 5, 0.05, 11)
        b = regularized_logsumexp_triple(8, 5, 0.05, 11)
        x = np.linspace(-1.0, 1.0, 8)
        assert np.array_equal(a.objectives(x), b.objectives(x))
        assert np.array_equal(a.gradient_columns(x), b.gradient_columns(x))

    def test_different_seeds_differ(self):
        x = np.linspace(-1.0, 1.0, 8)
        a = regularized_logsumexp_triple(8, 5, 0.05, 11)
        c = regularized_logsumexp_triple(8, 5, 0.05, 12)
        assert not np.array_equal(a.objectives(x), c.objectives(x))

    def test_shifted_objectives_stay_midpoint_convex(self, rng):
        # f_j - delta/2 ||x||^2 is the log-sum-exp part, convex by itself
        delta = 0.07
        prob = regularized_logsumexp_triple(6, 5, delta, 9)
        for _ in range(50):
            a = rng.uniform(-2.0, 2.0, 6)
            b = rng.uniform(-2.0, 2.0, 6)
            mid = 0.5 * (a + b)

            def bare(x):
                return prob.objectives(x) - 0.5 * delta * float(x @ x)

            assert np.all(bare(mid) <= 0.5 * (bare(a) + bare(b)) + 1e-10)

    def test_least_squares_gradient_identity(self, rng):
        prob = regularized_least_squares_triple(7, 6, 0.05, 4)
        # rebuild the data from the same named streams the factory uses
        mats = [_stream(4, 2 * j).uniform(0.0, 1.0, size=(6, 7)) for j in range(3)]
        offs = [_stream(4, 2 * j + 1).uniform(0.0, 1.0, size=6) for j in range(3)]
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, 7)
            cols = prob.gradient_columns(x)
            for j, (A, b) in enumerate(zip(mats, offs)):
                assert_allclose(cols[:, j], 0.05 * x + A.T @ (A @ x - b), atol=1e-12)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidConfig):
            regularized_logsumexp_triple(0, 5, 0.05, 1)
        with pytest.raises(InvalidConfig):
            regularized_least_squares_triple(5, 0, 0.05, 1)
        with pytest.raises(InvalidConfig):
            regularized_logsumexp_triple(5, 5, -0.1, 1)
        # a bool or a string is not a real delta: True used to build delta=1.0
        for delta in (True, "x"):
            with pytest.raises(InvalidConfig, match=f"^delta must be a finite number, not {delta!r}$"):
                regularized_logsumexp_triple(4, 3, delta, 0)

    def test_non_finite_delta_is_rejected(self):
        # a NaN delta used to build a problem with lipschitz = nan
        for key in ("ex2:n=3,p=3,delta=nan", "ex1:n=3,p=3,delta=inf", "ex2:n=3,p=3,delta=-inf"):
            with pytest.raises(InvalidConfig, match="delta"):
                get_problem(key)

    def test_zero_delta_disables_merit(self):
        assert regularized_logsumexp_triple(5, 4, 0.0, 1).merit_supported is False
        assert regularized_logsumexp_triple(5, 4, 0.05, 1).merit_supported is True


class TestKktResidual:
    def test_single_objective_is_gradient_norm(self, rng):
        prob = single_objective_problem(
            lambda x: 0.5 * float(x @ x), lambda x: x, 3, lipschitz=1.0
        )
        for _ in range(5):
            x = rng.normal(size=3)
            assert_allclose(kkt_residual(prob, x), np.linalg.norm(x), atol=1e-12)

    def test_duplicate_objective_invariance(self, rng):
        base = quadratic_pair()

        def dup_cols(x):
            cols = gradient_matrix(base, x)
            return np.column_stack([cols, cols[:, 0]])

        from mograd.problems import ProblemInstance

        dup = ProblemInstance(
            name="quad2dup",
            n=2,
            m=3,
            objectives=lambda x: np.append(base.objectives(x), base.objectives(x)[0]),
            gradient_columns=dup_cols,
            init_box=base.init_box,
        )
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, 2)
            assert abs(kkt_residual(base, x) - kkt_residual(dup, x)) <= 1e-9

    def test_validation(self):
        prob = quadratic_pair()
        with pytest.raises(ValueError):
            kkt_residual(prob, np.zeros(3))
        with pytest.raises(ValueError):
            kkt_residual(prob, np.array([np.nan, 0.0]))


class TestRegistry:
    def test_names_and_params(self):
        reg = available_problems()
        assert set(reg) == {"quad2", "lse2", "jos1", "sd", "toi4", "ex1", "ex2"}
        assert reg["ex1"] == ("n", "p", "delta", "seed")

    def test_parametrized_keys(self):
        prob = get_problem("ex1:n=6,p=4,delta=0.1,seed=5")
        assert prob.n == 6 and prob.m == 3
        assert prob.name == "ex1:n=6,p=4,delta=0.1,seed=5"
        assert get_problem("jos1:n=5").n == 5

    def test_full_scale_defaults(self):
        # registry defaults mirror the reference experiment sizes
        import mograd.problems as problems

        assert problems._FACTORIES["ex1"].__defaults__[:3] == (200, 100, 0.05)
        assert problems._FACTORIES["ex2"].__defaults__[:3] == (100, 100, 0.05)

    def test_bad_keys(self):
        with pytest.raises(InvalidConfig):
            get_problem("nope")
        with pytest.raises(InvalidConfig):
            get_problem("quad2:n=3")
        with pytest.raises(InvalidConfig):
            get_problem("ex1:bogus=1")

    @pytest.mark.parametrize("key", ["jos1:n=3,n=5", "ex1:n=4,p=3,seed=1,seed=2"])
    def test_repeated_parameter_is_rejected(self, key):
        # the last value used to win while the key still named both
        name = key.split(",")[-1].split("=")[0]
        with pytest.raises(InvalidConfig, match=f"repeats parameter '{name}'"):
            get_problem(key)

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed_is_rejected(self, seed):
        with pytest.raises(InvalidConfig, match=f"seed must be nonnegative, not {seed}"):
            get_problem(f"ex2:n=3,p=3,seed={seed}")
        with pytest.raises(InvalidConfig, match="seed"):
            _stream(seed, 0)


def assert_same_data(a, b):
    """``a`` and ``b`` agree bit for bit on their data and oracles."""
    assert (a.n, a.m, a.lipschitz, a.merit_supported) == (b.n, b.m, b.lipschitz, b.merit_supported)
    for lo_hi_a, lo_hi_b in zip(a.init_box, b.init_box):
        assert np.array_equal(lo_hi_a, lo_hi_b)
    lo, hi = a.init_box
    x = lo + (hi - lo) * np.linspace(0.2, 0.8, a.n)
    assert np.array_equal(a.objectives(x), b.objectives(x))
    assert np.array_equal(a.gradient_columns(x), b.gradient_columns(x))


class TestKeyParameters:
    """The factory owns each key parameter's name, type and range."""

    @pytest.mark.parametrize(
        "key",
        sorted(available_problems())
        + ["jos1:n=5", "ex1:n=4,p=3,delta=0,seed=7", "ex2:n=3,p=2,delta=0.123456789"],
    )
    def test_name_rebuilds_the_problem(self, key):
        # delta used to print with :g, so 0.123456789 came back as 0.123457
        prob = get_problem(key)
        again = get_problem(prob.name)
        assert again.name == prob.name
        assert_same_data(prob, again)

    @pytest.mark.parametrize("key", ["jos1:n=abc", "jos1:n=2.5", "jos1:n=", "jos1:n=nan"])
    def test_bad_count_is_refused_by_name(self, key):
        with pytest.raises(InvalidConfig, match="^n must be"):
            get_problem(key)

    def test_whole_float_seed_builds_the_int_seed_data(self):
        two = get_problem("ex2:n=4,p=3,seed=2")
        assert_same_data(get_problem("ex2:n=4,p=3,seed=2.0"), two)
        assert get_problem("ex2:n=4,p=3,seed=2.0").name == two.name

    @pytest.mark.parametrize("seed", [2**60, 2**60 + 1])
    def test_large_seed_is_parsed_exactly(self, seed):
        # a float parse would round 2**60 + 1 to 2**60
        prob = get_problem(f"ex2:n=3,p=2,seed={seed}")
        assert_same_data(prob, regularized_least_squares_triple(n=3, p=2, seed=seed))
        assert prob.name.endswith(f"seed={seed}")

    @pytest.mark.parametrize(
        "build",
        [
            lambda: jos1(2.5),
            lambda: jos1(math.nan),
            lambda: jos1(1),
            lambda: regularized_least_squares_triple(n=2.5),
            lambda: regularized_logsumexp_triple(p=math.inf),
            lambda: regularized_least_squares_triple(3, 3, seed=1.5),
        ],
    )
    def test_direct_factory_calls_check_their_counts(self, build):
        with pytest.raises(InvalidConfig, match="whole number"):
            build()


class TestWholeNumber:
    @pytest.mark.parametrize("value", [2, 2.0, np.int64(2), np.float64(2.0)])
    def test_whole_values_become_ints(self, value):
        count = whole_number("count", value, 1)
        assert type(count) is int and count == 2

    # a bool is an int to Python: True ran as a count of 1
    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, -math.inf, None, "3",
                                       True, False, np.True_, np.False_])
    def test_other_values_are_refused(self, value):
        with pytest.raises(InvalidConfig, match="count must be a whole number"):
            whole_number("count", value, 1)

    def test_minimum(self):
        with pytest.raises(InvalidConfig, match="count must be a whole number of at least 2, not 1"):
            whole_number("count", 1.0, 2)
        with pytest.raises(InvalidConfig, match="seed must be nonnegative, not -1"):
            whole_number("seed", -1, 0)
        assert whole_number("seed", 0, 0) == 0


class TestAsPoint:
    def test_message_names_the_point_and_the_problem(self):
        prob = quadratic_pair()
        with pytest.raises(InvalidConfig, match=r"point has shape \(1, 2\), but quad2"):
            as_point(prob, np.zeros((1, 2)))
        with pytest.raises(InvalidConfig, match="x0 contains NaN or Inf"):
            as_point(prob, [0.0, np.inf], "x0")
        assert as_point(prob, [1, 2]).dtype == float


class TestObjectiveValues:
    @pytest.mark.parametrize("values", [[1.0, 2.0, 0.0], [1.0], [[1.0], [2.0]]],
                             ids=["long", "short", "column"])
    def test_message_names_both_shapes(self, values):
        bad = replace(quadratic_pair(), objectives=lambda x: np.array(values))
        shape = re.escape(str(np.shape(values)))
        with pytest.raises(ValueError, match=rf"objective vector has shape {shape}, but quad2 needs \(2,\)"):
            objective_values(bad, np.zeros(2))

    def test_returns_the_oracle_values_as_floats(self):
        prob = replace(quadratic_pair(), objectives=lambda x: [1, 2])
        F = objective_values(prob, np.zeros(2))
        assert F.dtype == float and F.tolist() == [1.0, 2.0]


class TestGradientRows:
    """``gradient_rows`` is the list side of ``gradient_matrix``: the same
    floats, whether the oracle returns rows or an array."""

    @pytest.mark.parametrize("key", ["quad2", "toi4", "sd", "jos1", "lse2"])
    def test_rows_of_the_gradient_matrix(self, key, rng):
        prob = get_problem(key)
        points = list(rng.uniform(*prob.init_box, size=(200, prob.n)))
        if key == "sd":
            # x_1 * x_1 underflows to 0.0: the oracle's numpy fallback
            points.append(np.array([1e-170, 2.0, 2.0, 2.0]))
        for x in points:
            rows, G = gradient_rows(prob, x), gradient_matrix(prob, x)
            assert repr(rows) == repr(G.tolist()), x
            assert all(type(a) is float for row in rows for a in row)
        if key == "sd":
            assert rows[0][1] == -math.inf

    @pytest.mark.parametrize("key", ["quad2", "toi4", "sd", "jos1", "jos1:n=7"])
    def test_bi_objective_oracles_return_float_rows(self, key, rng):
        # the m = 2 steps take these rows as they are; an oracle that gave
        # an array would cost a conversion on every call.  gradient_rows
        # trusts a marked oracle's list of n rows unscanned, so it is checked
        # here instead: at every point the bench's bi-table runs read G at
        # (its 16 starts of seed 0, every variant) and at interior points,
        # the oracle returns a list of n rows of m floats, those of the array
        # reading.  The one exception there is sd's ValueError outside its
        # orthant
        prob = get_problem(key)
        assert prob.gradient_columns._float_rows
        points = []

        def recording(x):
            points.append(x.copy())
            return prob.gradient_columns(x)

        recorded = replace(prob, gradient_columns=recording)
        for variant in VARIANTS:
            step = 0.05 if key == "jos1" and variant.endswith("_const") else None
            cfg = SolverConfig(variant=variant, step=step, epsilon=1e-6, k_max=150)
            for x0 in sample_starts(prob, 16, 0):
                run_solver(recorded, cfg, x0)
        assert len(points) > 1000
        lo, hi = prob.init_box
        points += list(lo + (hi - lo) * rng.uniform(0.01, 0.99, size=(100, prob.n)))
        for x in points:
            try:
                G = prob.gradient_columns(x)
            except ValueError:
                assert key == "sd" and not (x > 0.0).all(), x
                continue
            assert type(G) is list, x
            assert _is_float_rows(G, prob.n, prob.m), x
            assert repr(G) == repr(_gradient_array(prob, G).tolist()), x
        # at the edge points too, except where sd raises or where an x_i * x_i
        # underflows and its fallback returns an array (gradient_rows scans
        # anything that is not a list)
        for x in _edge_points(rng, prob.n):
            try:
                G = prob.gradient_columns(x)
            except ValueError:
                assert key == "sd", x
                continue
            if type(G) is not list:
                assert key == "sd" and type(G) is np.ndarray, x
                continue
            assert _is_float_rows(G, prob.n, prob.m), x
            assert repr(G) == repr(_gradient_array(prob, G).tolist()), x

    def test_only_the_bi_objective_oracles_are_marked(self):
        # the other families return arrays, which are converted anyway
        for key in available_problems():
            marked = getattr(get_problem(key).gradient_columns, "_float_rows", False)
            assert marked == (key in ("quad2", "toi4", "sd", "jos1")), key

    @pytest.mark.parametrize("key", ["quad2", "toi4"])
    def test_marked_rows_at_an_integer_point_are_scanned(self, key):
        # these oracles pass an integer point's entries into their rows, so
        # gradient_rows trusts their rows only at a float64 point
        prob = get_problem(key)
        x = np.arange(1, prob.n + 1)
        rows = gradient_rows(prob, x)
        assert _is_float_rows(rows, prob.n, prob.m)
        assert rows == gradient_rows(prob, x.astype(float))

    def test_marked_rows_of_another_length_are_refused(self):
        # jos1's oracle returns one row per entry of the point it is given:
        # a list of 3 rows where 5 are needed takes the shape rule
        message = "gradient matrix has shape (3, 2), but jos1:n=5 needs (5, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gradient_rows(get_problem("jos1:n=5"), np.ones(3))

    def test_outside_the_sd_orthant(self):
        with pytest.raises(ValueError, match="^sd gradients are defined on the positive orthant$"):
            gradient_rows(get_problem("sd"), np.array([1.0, 2.0, -2.0, 2.0]))

    def test_float_rows_pass_as_they_are(self):
        rows = [[1.0, 2.0], [3.0, 4.0]]
        prob = replace(quadratic_pair(), gradient_columns=lambda x: rows)
        assert gradient_rows(prob, np.zeros(2)) is rows

    @pytest.mark.parametrize(
        "result",
        [[[1, 2], [3, 4]], [[np.float64(1.0), 2.0], [3.0, 4.0]], ((1.0, 2.0), (3.0, 4.0)), np.eye(2)],
        ids=["ints", "numpy scalar", "tuples", "array"],
    )
    def test_other_results_become_float_rows(self, result):
        prob = replace(quadratic_pair(), gradient_columns=lambda x: result)
        rows = gradient_rows(prob, np.zeros(2))
        assert rows == np.asarray(result, dtype=float).tolist()
        assert all(type(row) is list and all(type(a) is float for a in row) for row in rows)

    @pytest.mark.parametrize("read", [gradient_rows, gradient_matrix])
    @pytest.mark.parametrize("kind", ["ragged", "string"])
    def test_results_that_are_not_arrays_of_numbers(self, read, kind):
        # quad2's rows with a third float on the last row, or a word in place
        # of a number: the shape rule's error, naming the problem and (n, m)
        quad2 = quadratic_pair()
        x = np.array([0.5, -0.25])
        rows = quad2.gradient_columns(x)
        if kind == "ragged":
            result = rows[:-1] + [rows[-1] + [1.0]]
        else:
            result = [rows[0], [rows[1][0], "slope"]]
        prob = replace(quad2, gradient_columns=lambda x: result)
        message = "gradient matrix is not an array of numbers, but quad2 needs (2, 2)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read(prob, x)


class TestIdenticalObjectivesFamily:
    def test_common_minimizer_is_critical(self):
        # A = I, b = 0, delta = 0: every objective is 0.5||x||^2, Pareto set {0}
        eye = np.eye(4)
        zero = np.zeros(4)
        prob = least_squares_family(
            "ls_identity",
            [eye, eye, eye],
            [zero, zero, zero],
            delta=0.0,
            init_box=(np.full(4, -1.0), np.full(4, 1.0)),
        )
        assert kkt_residual(prob, np.zeros(4)) == 0.0
        assert kkt_residual(prob, np.ones(4)) == pytest.approx(2.0)
