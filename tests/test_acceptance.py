"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The criteria cover: QP oracle equivalence, gradient
correctness, sublevel monotonicity, single-objective degeneracy, the
ln^2(k)/k^2 rate envelope, the flow merit bound and convergence, solver
iteration-count ordering, and byte-level determinism of the CSV outputs.
"""

import hashlib
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from mograd.flow import FlowConfig, attach_merit, mavd_integrate, mavng_integrate, merit_bound_scan
from mograd.harness import ExperimentConfig, flow_experiment, pareto_scan, run_batch, sample_starts
from mograd.merit import merit_value
from mograd.problems import available_problems, get_problem, quadratic_pair
from mograd.simplex_qp import min_norm_in_hull, project_onto_scaled_hull
from mograd.solvers import ACCG_CONST, ACCG_LS, MFISC_CONST, MFISC_LS, STEEPEST_LS, SolverConfig, run_solver

from conftest import (
    finite_difference_gradients,
    grid_min_hull_objective_pair,
    merit_grid_oracle,
    pareto_segment_distance,
    spd_quadratic_problem,
)

SEED = 20240831


@contextmanager
def criterion(number, title, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {title}: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget_s else "FAIL (over budget)"
    print(f"ACCEPTANCE {number} {title}: {verdict} ({elapsed:.1f}s < {budget_s}s)")
    assert elapsed < budget_s


def test_criterion_1_qp_oracle_equivalence():
    with criterion(1, "QP oracle equivalence", 5.0):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            m = int(rng.choice([2, 3]))
            n = int(rng.choice([2, 10]))
            G = rng.normal(size=(n, m))
            v = rng.normal(size=n)
            mn = min_norm_in_hull(G)
            pr = project_onto_scaled_hull(G, 1.0, v)
            assert mn.converged and mn.gap <= 1e-10
            assert pr.converged and pr.gap <= 1e-10
            oracle_mn, oracle_pr = grid_min_hull_objective_pair(G, v, resolution=1000)
            assert abs(0.5 * float(mn.point @ mn.point) - oracle_mn) <= 1e-4
            diff = pr.point - v
            assert abs(0.5 * float(diff @ diff) - oracle_pr) <= 1e-4


def test_criterion_2_gradient_correctness():
    with criterion(2, "gradient correctness", 5.0):
        rng = np.random.default_rng(SEED)
        keys = []
        for name, params in available_problems().items():
            if name in ("ex1", "ex2"):
                keys.append(f"{name}:n=15,p=10,seed=3")
            else:
                keys.append(name)
        for key in keys:
            prob = get_problem(key)
            lo, hi = prob.init_box
            for _ in range(20):
                x = rng.uniform(lo, hi)
                fd = finite_difference_gradients(prob, x)
                rel = np.abs(prob.gradient_columns(x) - fd) / np.maximum(1.0, np.abs(fd))
                assert rel.max() <= 1e-5, key


def test_criterion_3_sublevel_monotonicity():
    with criterion(3, "sublevel monotonicity", 10.0):
        for key in ("quad2", "jos1", "lse2"):
            prob = get_problem(key)
            step = 0.9 / prob.lipschitz
            cfg = SolverConfig(
                variant=MFISC_CONST, alpha=50.0, step=step, epsilon=1e-6, k_max=100000
            )
            for x0 in sample_starts(prob, 20, seed=SEED):
                trace = run_solver(prob, cfg, x0)
                F = np.array([prob.objectives(p) for p in trace.points])
                assert np.all(F <= F[0] + 1e-9), key


def test_criterion_4_single_objective_degeneracy():
    with criterion(4, "single-objective degeneracy", 1.0):
        prob, Q = spd_quadratic_problem(seed=SEED, n=5)
        rng = np.random.default_rng(SEED + 1)
        x0 = rng.uniform(-1.0, 1.0, 5)
        s = 0.9 / prob.lipschitz
        steps = 500
        for variant, alpha in ((MFISC_CONST, 4.0), (ACCG_CONST, 4.0)):
            reference = [x0.copy()]
            xp, xc = x0.copy(), x0.copy()
            for k in range(1, steps + 1):
                dx = xc - xp
                if variant == MFISC_CONST:
                    pi = ((k - 1.0) / (k + alpha - 1.0)) * dx
                    ndx = np.linalg.norm(dx)
                    if ndx > 0.0:
                        g = Q @ xc
                        pi -= ((alpha - 3.0) / (k + alpha - 1.0)) * (
                            ndx / np.linalg.norm(g)
                        ) * g
                else:
                    pi = ((k - 1.0) / (k + 2.0)) * dx
                y = xc + pi
                xp, xc = xc, y - s * (Q @ y)
                reference.append(xc.copy())
            cfg = SolverConfig(
                variant=variant, alpha=alpha, step=s, epsilon=1e-300, k_max=steps + 1
            )
            trace = run_solver(prob, cfg, x0)
            assert trace.iterations == steps
            deviation = max(
                float(np.max(np.abs(trace.points[i] - reference[i])))
                for i in range(steps + 1)
            )
            assert deviation <= 1e-12
            assert np.max(np.abs(trace.x_final - reference[-1])) <= 1e-12


def test_criterion_5_rate_envelope():
    with criterion(5, "ln^2(k)/k^2 rate envelope", 60.0):
        prob = quadratic_pair()
        alpha = 5.0
        cfg = SolverConfig(
            variant=MFISC_CONST, alpha=alpha, step=0.05, epsilon=1e-300, k_max=10**4
        )
        trace = run_solver(prob, cfg, np.array([-0.2, -0.1]))
        assert len(trace.points) == 10**4

        warm = None
        phis = {}
        envelope = {}
        for i, k in enumerate(range(1, len(trace.points) + 1)):
            if k < 10:
                continue
            result = merit_value(prob, trace.points[i], warm_start=warm)
            warm = result.z
            phis[k] = result.phi
            envelope[k] = result.phi * ((k + alpha - 2.0) ** 2 + k) / np.log(k) ** 2
        values = np.array([envelope[k] for k in sorted(envelope)])
        assert np.all(np.isfinite(values))
        assert values.max() <= 10.0 * envelope[10]

        # spot-validate the merit values against the independent grid oracle
        box = ((-1.0, 2.5), (-1.0, 2.5))
        for k in np.unique(np.geomspace(10, 10**4 - 1, 10).astype(int)):
            oracle = merit_grid_oracle(trace.points[k - 1], box, resolution=801)
            assert abs(phis[int(k)] - oracle) <= 1e-3


_FLOW_CACHE = {}


def quad_flow_trajectories():
    """Criterion 6/7 share these integrations; built once, on first use."""
    if not _FLOW_CACHE:
        prob = quadratic_pair()
        trajectories = {}
        for alpha in (50.0, 100.0):
            cfg = FlowConfig(
                alpha=alpha, x0=np.array([-0.2, -0.1]), beta=3.0, p=1.0, h=1e-3, t_end=20.0,
            )
            traj = mavng_integrate(prob, cfg)
            attach_merit(prob, traj, stride=100)
            trajectories[alpha] = traj
        _FLOW_CACHE["prob"] = prob
        _FLOW_CACHE["trajectories"] = trajectories
    return _FLOW_CACHE["prob"], _FLOW_CACHE["trajectories"]


def test_criterion_6_flow_merit_bound():
    with criterion(6, "flow merit bound alpha/t^2", 120.0):
        _, trajectories = quad_flow_trajectories()
        for alpha, traj in trajectories.items():
            report = merit_bound_scan(traj, alpha, t_min=2.0, t_max=20.0)
            assert report.fraction >= 0.99, alpha


def test_criterion_7_flow_convergence():
    with criterion(7, "flow convergence to the Pareto segment", 60.0):
        prob, trajectories = quad_flow_trajectories()
        for traj in trajectories.values():
            assert traj.termination == "completed"
            assert pareto_segment_distance(prob, traj.points[-1]) <= 1e-2
        cfg = FlowConfig(
            alpha=50.0, x0=np.array([-0.2, -0.1]), beta=50.0, t_end=5.0
        )
        corrected = mavng_integrate(prob, cfg)
        baseline = mavd_integrate(prob, FlowConfig(
            alpha=50.0, x0=np.array([-0.2, -0.1]), beta=3.0, t_end=5.0
        ))
        assert np.array_equal(corrected.points, baseline.points)


def test_criterion_8_solver_ordering():
    with criterion(8, "solver iteration-count ordering", 120.0):
        # bi-objective, constant step: corrected momentum beats plain momentum
        prob = get_problem("jos1")
        starts = sample_starts(prob, 100, seed=SEED)
        totals = {}
        for variant in (MFISC_CONST, ACCG_CONST):
            cfg = SolverConfig(
                variant=variant, alpha=50.0, step=0.05, epsilon=1e-6, k_max=10**6
            )
            total = 0
            for x0 in starts:
                trace = run_solver(prob, cfg, x0)
                assert trace.termination == "converged"
                total += trace.iterations
            totals[variant] = total
        assert totals[MFISC_CONST] < 0.5 * totals[ACCG_CONST], totals

        # tri-objective, line search: corrected < accelerated < steepest
        prob = get_problem("ex1:n=20,p=10,seed=7")
        starts = sample_starts(prob, 20, seed=SEED + 1)
        ls_totals = {}
        for variant in (MFISC_LS, ACCG_LS, STEEPEST_LS):
            cfg = SolverConfig(variant=variant, alpha=50.0, epsilon=1e-3, k_max=10**6)
            total = 0
            for x0 in starts:
                trace = run_solver(prob, cfg, x0)
                assert trace.termination == "converged"
                total += trace.iterations
            ls_totals[variant] = total
        assert ls_totals[MFISC_LS] < ls_totals[ACCG_LS] < ls_totals[STEEPEST_LS], ls_totals


def _csv_digests(root):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(root).glob("*.csv"))
    }


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical deterministic outputs", 120.0):
        batch_cfg = dict(
            problem="jos1",
            solvers=(
                SolverConfig(variant=MFISC_CONST, alpha=50.0, step=0.05),
                SolverConfig(variant=ACCG_CONST, step=0.05),
            ),
            epsilons=(1e-6,),
            n_starts=100,
            seed=SEED,
        )
        run_batch(ExperimentConfig(**batch_cfg), out_dir=tmp_path / "batch1")
        run_batch(ExperimentConfig(**batch_cfg), out_dir=tmp_path / "batch2")
        run_batch(
            ExperimentConfig(**{**batch_cfg, "workers": 3}), out_dir=tmp_path / "batch3"
        )
        d1 = _csv_digests(tmp_path / "batch1")
        assert d1 == _csv_digests(tmp_path / "batch2")
        assert d1 == _csv_digests(tmp_path / "batch3")

        front_cfg = dict(
            problem="quad2",
            solvers=(SolverConfig(variant=MFISC_CONST, step=0.05),),
            epsilons=(1e-6,),
            n_starts=50,
            seed=SEED,
        )
        pareto_scan(ExperimentConfig(**front_cfg), out_dir=tmp_path / "front1")
        pareto_scan(ExperimentConfig(**front_cfg), out_dir=tmp_path / "front2")
        assert _csv_digests(tmp_path / "front1") == _csv_digests(tmp_path / "front2")

        flow_cfg = dict(
            problem="quad2",
            flow_alphas=(50.0,),
            flow_beta=3.0,
            flow_t_end=20.0,
            flow_x0=(-0.2, -0.1),
            merit_stride=100,
        )
        flow_experiment(ExperimentConfig(**flow_cfg), out_dir=tmp_path / "flow1")
        flow_experiment(ExperimentConfig(**flow_cfg), out_dir=tmp_path / "flow2")
        assert _csv_digests(tmp_path / "flow1") == _csv_digests(tmp_path / "flow2")
