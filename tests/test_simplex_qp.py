import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import mograd.simplex_qp
import mograd.solvers
from mograd.harness import sample_starts
from mograd.problems import get_problem
from mograd.simplex_qp import (
    DEFAULT_TOL,
    NonFiniteInput,
    _effective_tol,
    closed_form_rows,
    min_norm_in_hull,
    project_onto_scaled_hull,
)
from mograd.solvers import ACCG_LS, KMAX, MFISC_LS, STEEPEST_LS, SolverConfig, run_solver

from conftest import five_objective_problem, grid_min_hull_objective, reference_closed_form_rows


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

    def test_small_scale_is_solved_to_relative_accuracy(self, rng):
        # the flow projects onto h^2 C at h = 1e-3; a stopping test at the
        # absolute tolerance 1e-10 would accept any vertex of such a hull
        for scale in (1e-6, 1e-8):
            for _ in range(10):
                G = rng.normal(size=(6, 3))
                v = scale * rng.normal(size=6)
                small = project_onto_scaled_hull(G, scale, v)
                unit = project_onto_scaled_hull(G, 1.0, v / scale)
                assert small.converged and unit.converged
                assert_allclose(small.point, scale * unit.point, rtol=1e-8, atol=1e-8 * scale)

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

    @pytest.mark.parametrize(
        "G, scale",
        [
            # every scaled column overflows
            ([[1e300, -1e300, 2e300], [1e300, 3e300, -1e300]], 1e10),
            # the columns are finite, their differences overflow
            ([[1.5e308, -1.5e308, 1e308, 2.0], [-1.5e308, 1.5e308, 3.0, 1e308]], 1.0),
        ],
    )
    def test_wolfe_stops_on_a_face_that_is_not_finite(self, G, scale, capfd):
        # least squares on such a face fails in LAPACK, which prints to the
        # terminal and raises; Wolfe's method must stop unconverged instead,
        # from a cold start and from the whole face alike
        G = np.array(G)
        m = G.shape[1]
        with np.errstate(over="ignore", invalid="ignore"):
            sols = [
                solve(start)
                for start in (None, np.ones(m))
                for solve in (
                    lambda start: project_onto_scaled_hull(G, scale, np.zeros(2), start),
                    lambda start: project_onto_scaled_hull(G, scale, np.ones(2), start),
                    lambda start: min_norm_in_hull(G, start),
                )
            ]
        for sol in sols:
            assert not sol.converged
            assert np.all(sol.weights >= 0.0) and sol.weights.sum() == pytest.approx(1.0)
        assert capfd.readouterr() == ("", "")

    def test_overflowed_segment_falls_back_to_least_squares(self):
        # the dot products of the two-column affine minimizer overflow here;
        # least squares still reaches the edge point (0.25, 0.25)
        G = np.array([[1e200, -1e200, 0.5], [1e200, 1e200, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            sol = min_norm_in_hull(G)
        assert_allclose(sol.point, [0.25, 0.25])


def _numpy_closed_form(S, v):
    """The closed form for one or two columns of ``S`` in numpy, as reference."""
    if S.shape[1] == 1:
        theta = np.ones(1)
    else:
        s2 = S[:, 1]
        d = S[:, 0] - s2
        denom = d @ d
        t = min(max(float((v - s2) @ d / denom), 0.0), 1.0) if denom > 0.0 else 1.0
        theta = np.array([t, 1.0 - t])
    p = S @ theta
    r = p - v
    gap = max(float(r @ p - (r @ S).min()), 0.0)
    q_scale = max(1.0, float(np.einsum("ij,ij->j", S, S).max()), float(v @ v))
    return p, gap <= DEFAULT_TOL or gap <= _effective_tol(q_scale)


def _closed_form_cases(rng):
    """(G, scale, v) with n in {1, 2, 4, 7, 20}, entries from 1e-150 to 1e150."""
    for n in (1, 2, 4, 7, 20):
        for magnitude in (1e-150, 1e-50, 1.0, 1e50, 1e150):
            for _ in range(4):
                G = magnitude * rng.normal(size=(n, 2))
                scale = float(10.0 ** rng.uniform(-2.0, 2.0))
                S = scale * G
                d = S[:, 0] - S[:, 1]
                yield G, scale, scale * magnitude * rng.normal(size=n)
                yield G[:, :1], scale, scale * magnitude * rng.normal(size=n)
                # t clamped at 1 and at 0, and two equal columns
                yield G, scale, S[:, 0] + 3.0 * d
                yield G, scale, S[:, 1] - 3.0 * d
                yield G[:, [0, 0]], scale, scale * magnitude * rng.normal(size=n)


class TestClosedForm:
    """The m <= 2 closed forms on Python floats against numpy's."""

    def test_agrees_with_numpy(self, rng):
        for G, scale, v in _closed_form_cases(rng):
            S = scale * G
            norm = np.sqrt(np.einsum("ij,ij->j", S, S).max())
            for sol, (point, converged) in (
                (project_onto_scaled_hull(G, scale, v), _numpy_closed_form(S, v)),
                (min_norm_in_hull(S), _numpy_closed_form(S, np.zeros(len(v)))),
            ):
                assert np.max(np.abs(sol.point - point)) <= 1e-12 * norm
                assert sol.converged == converged
                assert sol.iterations == 0

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, m, bad):
        # distinct columns, and equal ones, whose segment has length 0
        base = np.arange(1.0, 1.0 + 3 * m).reshape(3, m)
        for G in (base, np.repeat(base[:, :1], m, axis=1)):
            bad_G = G.copy()
            bad_G[1, -1] = bad
            bad_v = np.ones(3)
            bad_v[2] = bad
            with pytest.raises(NonFiniteInput, match="gradient matrix contains NaN or Inf"):
                min_norm_in_hull(bad_G)
            with pytest.raises(NonFiniteInput, match="gradient matrix contains NaN or Inf"):
                project_onto_scaled_hull(bad_G, 2.0, np.ones(3))
            with pytest.raises(NonFiniteInput, match="target vector contains NaN or Inf"):
                project_onto_scaled_hull(G, 2.0, bad_v)

    @pytest.mark.parametrize("m", [1, 2, 3, 5])
    def test_overflowing_scaled_columns_are_not_certified(self, m):
        # G is finite, so no exception; scale * G, or the squares of G at
        # unit scale, are not, so no certificate.  Only the second column has
        # a small first entry, and its second entry is huge: every point of
        # the hull has a square that overflows.
        G = np.array(
            [
                [1e200, 2.0, 1e200, 3e200, 2e200],
                [3.0, -1e200, -1e200, 4.0, 2e200],
                [5.0, 6.0, 7.0, 8.0, 9.0],
            ]
        )[:, :m]
        with np.errstate(over="ignore", invalid="ignore"):
            sols = [
                project_onto_scaled_hull(G, 1e200, np.zeros(3)),
                project_onto_scaled_hull(G, 1e200, np.array([1.0, -2.0, 3.0])),
                project_onto_scaled_hull(G, 1.0, np.zeros(3)),
                min_norm_in_hull(G),
            ]
        for sol in sols:
            assert not sol.converged


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestIndexedExtremes:
    """The hull QPs and merit read a full min or max by index,
    ``d[d.argmin()]``.  That relies on numpy: the value is the reduction's
    own, bit for bit up to the sign of a zero extreme, and NaN whenever an
    entry is (``argmin`` and ``argmax`` return the first NaN)."""

    @pytest.mark.parametrize(
        "values",
        [
            [3.0, 1.0, 2.0],
            [2.0, -1.0, -1.0, 2.0],
            [1.0, 1.0, 1.0],
            [0.0, -0.0],
            [-0.0, 0.0, 1.0, -1.0],
            [5e-324, -5e-324, 1e308, -1e308],
            [math.inf, -math.inf, 0.0],
            [math.inf, math.inf],
            [-math.inf, 5.0, -math.inf],
            [7.0],
            [1.0, math.nan, -1.0],
            [math.nan, math.inf, -math.inf],
            [-math.inf, 2.0, 0.0, -0.0, math.nan],
            [math.nan, math.nan],
            [math.nan],
        ],
    )
    def test_index_reads_equal_the_reductions(self, values):
        a = np.array(values)
        for indexed, reduced in ((a[a.argmin()], a.min()), (a[a.argmax()], np.max(a))):
            if np.isnan(a).any():
                assert math.isnan(indexed) and math.isnan(reduced)
            elif reduced == 0.0:
                # the one difference: which zero of a tie comes back
                assert indexed == 0.0
            else:
                assert _bits(indexed) == _bits(reduced)

    def test_random_vectors_with_planted_specials(self, rng):
        specials = np.array([math.nan, math.inf, -math.inf, 0.0, -0.0])
        for _ in range(500):
            a = rng.standard_normal(rng.integers(1, 12))
            plant = rng.random(a.size) < 0.3
            a[plant] = rng.choice(specials, plant.sum())
            for indexed, reduced in ((a[a.argmin()], a.min()), (a[a.argmax()], np.max(a))):
                if np.isnan(a).any():
                    assert math.isnan(indexed) and math.isnan(reduced)
                else:
                    assert indexed == reduced
                    assert reduced == 0.0 or _bits(indexed) == _bits(reduced)


class TestClosedFormKernel:
    """The float kernel of the flow step against the m = 2 path of both QPs:
    the same weights, point, gap and certificate, bit for bit, and the same
    exceptions."""

    @staticmethod
    def assert_same(kernel, sol):
        t, point, gap, converged = kernel
        assert _bits([t, 1.0 - t]) == _bits(sol.weights)
        assert _bits(point) == _bits(sol.point)
        assert _bits(gap) == _bits(sol.gap)
        assert converged is sol.converged

    def test_matches_both_qps(self, rng):
        overflowing = [
            (np.array([[1e200, -1e200], [1e200, 1e200]]), 1.0, np.array([1e200, 3e199])),
            (np.array([[1e200, 2.0], [3.0, -1e200], [5.0, 6.0]]), 1e200, np.zeros(3)),
        ]
        cases = [c for c in _closed_form_cases(rng) if c[0].shape[1] == 2] + overflowing
        for G, scale, v in cases:
            rows = G.tolist()
            self.assert_same(
                closed_form_rows(rows, scale, v.tolist()), project_onto_scaled_hull(G, scale, v)
            )
            self.assert_same(closed_form_rows(rows, 1.0, None), min_norm_in_hull(G))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_as_the_qps_do(self, bad):
        # distinct columns, and equal ones, whose segment has length 0
        base = np.arange(1.0, 7.0).reshape(3, 2)
        for G in (base, base[:, [0, 0]]):
            bad_G = G.copy()
            bad_G[1, -1] = bad
            bad_v = np.ones(3)
            bad_v[2] = bad
            solves = {
                "gradient matrix": [
                    lambda: min_norm_in_hull(bad_G),
                    lambda: closed_form_rows(bad_G.tolist(), 1.0, None),
                    lambda: project_onto_scaled_hull(bad_G, 2.0, np.ones(3)),
                    lambda: closed_form_rows(bad_G.tolist(), 2.0, [1.0] * 3),
                ],
                "target vector": [
                    lambda: project_onto_scaled_hull(G, 2.0, bad_v),
                    lambda: closed_form_rows(G.tolist(), 2.0, bad_v.tolist()),
                ],
            }
            for message, calls in solves.items():
                for solve in calls:
                    with pytest.raises(NonFiniteInput, match=f"^{message} contains NaN or Inf$"):
                        solve()


def _kernel_outcome(kernel, rows, scale, v):
    # the result, or the NonFiniteInput raised
    try:
        return kernel(rows, scale, v)
    except NonFiniteInput as exc:
        return exc


class TestReferenceKernel:
    """``closed_form_rows`` against ``reference_closed_form_rows`` of
    conftest, its form with one path for both QPs: the same
    ``(t, point, gap, converged)`` by ``repr``, or the same exception, for
    the zero target (``v`` None against ``[0.0] * n``) and for a target."""

    # signed zeros, subnormals and magnitudes near both ends of the range
    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1e-300, 1e300, -1e300]
    NON_FINITE = [math.nan, math.inf, -math.inf]

    @classmethod
    def draw(cls, rng, size):
        # normal draws at magnitudes from 1e-320 to 1e300; about one entry
        # in four special and one in two hundred not finite
        x = rng.normal(size=size) * 10.0 ** rng.integers(-320, 301, size=size)
        special = rng.random(size) < 0.25
        x[special] = rng.choice(cls.SPECIAL, size=int(special.sum()))
        bad = rng.random(size) < 0.005
        x[bad] = rng.choice(cls.NON_FINITE, size=int(bad.sum()))
        return x

    def test_matches_bit_for_bit(self, rng):
        count = 10000
        sizes = rng.integers(1, 8, size=count).tolist()
        entries = iter(self.draw(rng, 3 * sum(sizes)).tolist())
        scales = rng.choice([1.0, 2.5e-5, 3.7, 1e200], size=count).tolist()
        seen = dict.fromkeys(["raised", "within DEFAULT_TOL", "certified above it", "uncertified"], 0)
        for n, scale in zip(sizes, scales):
            rows = [[next(entries), next(entries)] for _ in range(n)]
            v = [next(entries) for _ in range(n)]
            # the zero target, then a target at a random scale
            for args, reference_args in (((1.0, None), (1.0, [0.0] * n)), ((scale, v), (scale, v))):
                got = _kernel_outcome(closed_form_rows, rows, *args)
                want = _kernel_outcome(reference_closed_form_rows, rows, *reference_args)
                assert repr(got) == repr(want), (rows, args)
                if isinstance(got, NonFiniteInput):
                    seen["raised"] += 1
                    continue
                _, _, gap, converged = got
                if not converged:
                    seen["uncertified"] += 1
                elif gap <= DEFAULT_TOL:
                    seen["within DEFAULT_TOL"] += 1
                else:
                    seen["certified above it"] += 1
        # every branch of the verdict is reached, the scale pass included
        assert min(seen.values()) >= 20, seen

    # gaps above DEFAULT_TOL, which take the pass for the tolerance's scale:
    # rounding noise on data of magnitude 1e6, within the relative
    # tolerance, and on data whose squares overflow, where only DEFAULT_TOL
    # is allowed; a NaN gap is never certified
    ABOVE_DEFAULT_TOL = {
        "min-norm, certified": ([[820000.0, 330000.0], [-1300000.0, 910000.0]], 1.0, None, True),
        "projection, certified": (
            [[820000.0, 330000.0], [-1300000.0, 910000.0]],
            0.5,
            [450000.0, -540000.0],
            True,
        ),
        "projection, not certified": (
            [[3.1e154, 3.1000400000000003e154], [3.4000000000000003e154, 3.4002400000000003e154]],
            1.0,
            [3.1000280024000003e154, 3.4001679996e154],
            False,
        ),
        "min-norm, NaN gap": ([[1e160, 3e159]], 1.0, None, False),
    }

    @pytest.mark.parametrize("name", sorted(ABOVE_DEFAULT_TOL))
    def test_gap_above_default_tol(self, name):
        rows, scale, v, certified = self.ABOVE_DEFAULT_TOL[name]
        got = closed_form_rows(rows, scale, v)
        assert not got[2] <= DEFAULT_TOL
        assert got[3] is certified
        if v is None:
            v = [0.0] * len(rows)
        assert repr(got) == repr(reference_closed_form_rows(rows, scale, v))


_A, _B = np.random.default_rng(20261018).normal(size=(2, 5))
# three-column faces whose difference columns are dependent or overflow
DEGENERATE_FACES = {
    "first two equal": np.column_stack([_A, _A, _B]),
    "last two equal": np.column_stack([_A, _B, _B]),
    "outer two equal": np.column_stack([_A, _B, _A]),
    "third between the others": np.column_stack([_A, _B, 0.3 * _A + 0.7 * _B]),
    "third on the line beyond": np.column_stack([_A, _B, 2.5 * _A - 1.5 * _B]),
    "squares overflow": np.column_stack([_A, _B, -_A]) * 1e200,
    "differences overflow": np.column_stack([_A, _B, _B[::-1]]) * 1e160,
    "segment products overflow": np.array([[1e200, -1e200, 0.5], [1e200, 1e200, 0.0]]),
}


class TestGramSolve:
    """Three columns are solved on their Gram matrix and certified as Wolfe's
    loop certifies; a face whose Gram answer fails falls back to Wolfe's
    method, so the answer agrees with the reference's."""

    @staticmethod
    def _count_fallbacks(monkeypatch):
        # the list gets one entry per run of Wolfe's method
        fallbacks = []

        def cycles(*args, _cycles=mograd.simplex_qp._wolfe_cycles):
            fallbacks.append(None)
            return _cycles(*args)

        monkeypatch.setattr(mograd.simplex_qp, "_wolfe_cycles", cycles)
        return fallbacks

    @staticmethod
    def _assert_agrees(G, scale, v):
        # Wolfe's method as reference: the same verdict and, when both
        # certify, points within 2 sqrt(2 tol) of each other, as each lies
        # within sqrt(2 tol) of the projection
        S = scale * G
        for sol, ref in (
            (project_onto_scaled_hull(G, scale, v), _reference_wolfe(S, v, None)),
            (min_norm_in_hull(S), _reference_wolfe(S, np.zeros(len(v)), None)),
        ):
            _, point, _, converged, _ = ref
            assert sol.converged == converged
            assert np.all(sol.weights >= 0.0) and sol.weights.sum() == pytest.approx(1.0)
            if converged:
                q_scale = max(1.0, float(np.einsum("ij,ij->j", S, S).max()), float(v @ v))
                tol = _effective_tol(q_scale)
                assert np.linalg.norm(sol.point - point) <= 2.0 * math.sqrt(2.0 * tol)

    def test_agrees_with_wolfe_on_random_faces(self, rng, monkeypatch):
        fallbacks = self._count_fallbacks(monkeypatch)
        for n in (2, 3, 5, 40):
            for magnitude in (1e-6, 1.0, 1e6):
                for _ in range(50):
                    G = rng.normal(size=(n, 3)) * magnitude
                    scale = float(10.0 ** rng.uniform(-2.0, 2.0))
                    self._assert_agrees(G, scale, scale * magnitude * rng.normal(size=n))
        # of 1200 solves, the Gram answer of nearly every one is kept
        assert len(fallbacks) <= 12

    @pytest.mark.parametrize("A", DEGENERATE_FACES.values(), ids=DEGENERATE_FACES.keys())
    def test_agrees_with_wolfe_on_degenerate_faces(self, A, rng):
        n = A.shape[0]
        with np.errstate(over="ignore", invalid="ignore"):
            for scale, v in ((1.0, np.zeros(n)), (0.5, A[:, 1]), (2.0, A @ rng.normal(size=3))):
                self._assert_agrees(A, scale, v)

    def test_ill_conditioned_faces_fall_back_to_wolfe(self, rng, monkeypatch):
        # thin triangles 3 away from the origin, which projects inside them:
        # the Gram matrix of their difference columns (singular values about
        # 1 and 1e-3 to 1e-5) loses the answer to rounding, the certificate
        # refuses it, and Wolfe's method certifies the face
        fallbacks = self._count_fallbacks(monkeypatch)
        refused = 0
        for width in (1e-3, 1e-4, 1e-5):
            for _ in range(20):
                Q = np.linalg.qr(rng.normal(size=(6, 3)))[0]
                rotation = np.linalg.qr(rng.normal(size=(2, 2)))[0]
                Y = rotation @ np.array([[-0.5, 0.5, 0.0], [-width, -width, 2.0 * width]])
                Y -= (Y @ rng.dirichlet(np.ones(3)))[:, None]
                G = Q[:, :2] @ Y + 3.0 * Q[:, 2:]
                before = len(fallbacks)
                sol = min_norm_in_hull(G)
                if len(fallbacks) == before:
                    continue
                refused += 1
                ref = _reference_wolfe(G, np.zeros(6), None)
                assert ref[3] and sol.converged
                TestWolfeReference._assert_same(sol, ref)
        assert refused >= 20


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

    @staticmethod
    def _check(sol, S, vv):
        eps = np.finfo(float).eps
        assert np.all(sol.weights >= 0.0)
        assert abs(sol.weights.sum() - 1.0) <= 1e-12
        rebuilt = S @ sol.weights
        # reconstruction up to cancellation-aware rounding
        magnitude = np.abs(S) @ sol.weights
        assert np.all(np.abs(rebuilt - sol.point) <= 16 * eps * magnitude + 1e-300)
        assert sol.iterations <= 2000
        data_scale = max(1.0, float(np.max(np.sum(S**2, axis=0))), float(vv @ vv))
        tol = 1e-10 + 1e-10 * data_scale
        if sol.converged:
            w = sol.point - vv
            slack = float(np.min(w @ S - w @ sol.point))
            assert slack >= -tol
        return tol

    def test_feasibility_certificates_and_termination(self, rng):
        for G, scale, v in [*self._instances(rng, 240), *self._wide_instances(rng, 30)]:
            m = G.shape[1]
            for solve, s_eff, vv in (
                (lambda start=None: min_norm_in_hull(G, start), 1.0, np.zeros(G.shape[0])),
                (lambda start=None: project_onto_scaled_hull(G, scale, v, start), scale, v),
            ):
                S = s_eff * G
                cold = solve()
                tol = self._check(cold, S, vv)
                starts = (
                    cold.weights,
                    np.eye(m)[int(rng.integers(m))],
                    np.full(m, 1.0 / m),
                    rng.dirichlet(np.ones(m)),
                )
                for start in starts:
                    warm = solve(start)
                    self._check(warm, S, vv)
                    if cold.converged and warm.converged:
                        # 0.5 ||p - v||^2 is 1-strongly convex in p, so a gap
                        # g puts p within sqrt(2 g) of the projection
                        dist = float(np.linalg.norm(cold.point - warm.point))
                        assert dist <= 2.0 * math.sqrt(2.0 * tol)


# Wolfe's method as it was before its per-call costs were cut (numpy arrays
# and ``@`` throughout, the zero target subtracted), kept as the reference of
# the library's Wolfe path: every solve of four or more columns, and of three
# where the Gram answer is refused.  Faces of three or more columns go to
# lstsq.  Its certificate is the gap of its loop's last iterate.


def _lstsq_affine_minimizer(A):
    # the least-squares route on the column differences, all through lstsq
    z = np.linalg.lstsq(A[:, 1:] - A[:, :1], -A[:, 0], rcond=None)[0]
    return np.concatenate(([1.0 - z.sum()], z))


def _reference_affine_minimizer(A):
    k = A.shape[1]
    if k == 1:
        return np.ones(1)
    if k == 2:
        a = A[:, 0]
        d = A[:, 1] - a
        dd = float(d @ d)
        ad = float(a @ d)
        if dd < math.inf and math.isfinite(ad):
            z = -ad / dd if dd > 0.0 else 0.0
            return np.array([1.0 - z, z])
    return _lstsq_affine_minimizer(A)


def _reference_minor_cycles(P, active, lam, mu):
    while (mu <= 0.0).any():
        neg = np.nonzero(mu <= 0.0)[0]
        ratios = lam[neg] / (lam[neg] - mu[neg])
        lam = lam + float(ratios.min()) * (mu - lam)
        lam[neg[np.argmin(ratios)]] = 0.0
        keep = lam > 0.0
        active = [a for a, k in zip(active, keep) if k]
        lam = lam[keep]
        mu = _reference_affine_minimizer(P[:, active])
    return active, mu


def _reference_wolfe(S, v, start):
    """(weights, point, gap, converged, iterations) of the reference path."""
    m = S.shape[1]
    P = S - v[:, None]
    full = list(range(m))

    def columns(face):
        # a gathered face is laid out differently from P, and its dot
        # products round differently: the whole face is P itself
        return P if face == full else P[:, face]

    face = [] if start is None else [i for i, w in enumerate(start.tolist()) if w > 0.0]
    if not face:
        face = [int(np.einsum("ij,ij->j", P, P).argmin())]
    lam = np.array([1.0 / len(face)] * len(face))
    active, lam = _reference_minor_cycles(P, face, lam, _reference_affine_minimizer(columns(face)))
    x = columns(active) @ lam
    stop = None
    cycles = 0
    while True:
        dots = x @ P
        j = int(dots.argmin())
        xx = x @ x
        gap = xx - dots[j]
        if gap <= 1e-12 * xx or j in active or cycles == 500:
            break
        if stop is None:
            q = float(np.einsum("ij,ij->j", P, P).max())
            stop = 1e-12 * q if math.isfinite(q) else 0.0
        if gap <= stop:
            break
        entering = active + [j]
        mu = _reference_affine_minimizer(columns(entering))
        if not mu[-1] > 0.0:
            break
        cycles += 1
        active, lam = _reference_minor_cycles(P, entering, np.append(lam, 0.0), mu)
        x = columns(active) @ lam
    if active == full:
        theta = lam / lam.sum()
    else:
        theta = np.zeros(m)
        theta[active] = lam
        theta /= theta.sum()
    p = S @ theta
    # the Frank-Wolfe gap at the loop's last iterate, ||x||^2 - min_i <x, p_i>
    gap = max(float(gap), 0.0)
    q_scale = max(1.0, float(np.einsum("ij,ij->j", S, S).max()), float(v @ v))
    tol = max(DEFAULT_TOL, 1e-12 * q_scale) if math.isfinite(q_scale) else DEFAULT_TOL
    return theta, p, gap, gap <= DEFAULT_TOL or gap <= tol, cycles


class TestWolfeReference:
    """The library's Wolfe path against the reference, value for value.

    Every call goes through both entry points' public names.  The library's
    path differs from the reference in how often it dispatches to numpy,
    not in the floating-point operations on the data, so the results are
    equal; only an exact zero may differ in sign, as ``ndarray.dot`` and
    ``@`` can give one opposite signs (seen on a product of length 1).
    """

    @staticmethod
    def _assert_same(sol, ref):
        weights, point, gap, converged, iterations = ref
        assert np.array_equal(sol.weights, weights)
        assert np.array_equal(sol.point, point)
        assert sol.gap == gap
        assert sol.converged == converged
        assert sol.iterations == iterations

    def _check_call(self, kind, args, start):
        if kind == "min_norm":
            (G,) = args
            sol = min_norm_in_hull(G, start)
            ref = _reference_wolfe(G, np.zeros(G.shape[0]), start)
        else:
            G, scale, v = args
            sol = project_onto_scaled_hull(G, scale, v, start)
            ref = _reference_wolfe(scale * G, v, start)
        self._assert_same(sol, ref)

    @pytest.mark.parametrize("family, p", [("ex1", 20), ("ex2", 40)])
    def test_warm_started_chains_along_solver_runs(self, family, p, monkeypatch):
        # the solvers' own call sequences: each QP warm-started from the
        # weights of its previous solve, as in the tri-objective tables but
        # with five objectives, where every solve is Wolfe's
        calls = []
        for name, kind in (
            ("min_norm_in_hull", "min_norm"),
            ("project_onto_scaled_hull", "project"),
        ):

            def record(*args, start=None, _qp=getattr(mograd.simplex_qp, name), _kind=kind):
                calls.append((_kind, args, start))
                return _qp(*args, start=start)

            monkeypatch.setattr(mograd.solvers, name, record)
        for draw in (0, 1):
            prob = five_objective_problem(family, n=40, p=p, seed=draw)
            x0 = sample_starts(prob, 1, draw)[0]
            for variant in (MFISC_LS, ACCG_LS, STEEPEST_LS):
                run_solver(prob, SolverConfig(variant=variant, epsilon=1e-4, k_max=48), x0)
        monkeypatch.undo()
        kinds = {kind for kind, _, _ in calls}
        assert kinds == {"min_norm", "project"}
        assert sum(start is not None for _, _, start in calls) > len(calls) // 2
        for kind, args, start in calls:
            self._check_call(kind, args, start)

    def test_adversarial_instances(self, rng):
        inst = TestAdversarialConditioning()
        cases = [*inst._instances(rng, 240), *inst._wide_instances(rng, 30)]
        checked = 0
        for G, scale, v in cases:
            m = G.shape[1]
            # m = 3 is a Gram solve, checked against the reference by TestGramSolve
            if m < 4:
                continue
            cold = min_norm_in_hull(G)
            for start in (None, cold.weights, np.eye(m)[int(rng.integers(m))],
                          np.full(m, 1.0 / m), rng.dirichlet(np.ones(m))):
                self._check_call("min_norm", (G,), start)
                self._check_call("project", (G, scale, v), start)
                checked += 1
        assert checked >= 500


class TestWarmStart:
    def test_own_solution_takes_no_major_cycle(self, rng):
        prob = get_problem("ex1:n=40,p=20,seed=0")
        for x in sample_starts(prob, 8, 5):
            G = prob.gradient_columns(x)
            v = rng.normal(size=prob.n)
            for solve in (
                lambda start=None: min_norm_in_hull(G, start),
                lambda start=None: project_onto_scaled_hull(G, 0.1, v, start),
            ):
                cold = solve()
                warm = solve(cold.weights)
                assert cold.converged and warm.converged
                assert warm.iterations == 0
                assert_allclose(warm.point, cold.point, rtol=1e-8, atol=1e-12)

    def test_start_without_positive_entry_is_a_cold_start(self, rng):
        G = rng.normal(size=(6, 4))
        v = rng.normal(size=6)
        cold = project_onto_scaled_hull(G, 2.0, v)
        for start in (np.zeros(4), -np.ones(4), np.full(4, np.nan)):
            warm = project_onto_scaled_hull(G, 2.0, v, start)
            assert np.array_equal(warm.weights, cold.weights)
            assert warm.iterations == cold.iterations

    def test_start_shape_must_match_columns(self):
        # the closed form, the Gram solve and Wolfe's method
        for m in (2, 3, 4):
            G = np.eye(4)[:, :m]
            for start in (np.ones(m + 1), np.ones((m, 1)), 1.0):
                with pytest.raises(ValueError):
                    min_norm_in_hull(G, start)
                with pytest.raises(ValueError):
                    project_onto_scaled_hull(G, 1.0, np.zeros(4), start)


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
