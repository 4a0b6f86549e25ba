import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mograd
from mograd.cli import build_parser
from mograd.flow import FlowConfig, attach_merit, mavng_integrate
from mograd.merit import MeritUnavailable
from mograd.cli import main as cli_main
from mograd.harness import (
    ExperimentConfig,
    _fmt,
    _run_one,
    flow_experiment,
    pareto_scan,
    run_batch,
    run_trace,
    sample_starts,
    write_csv,
)
from mograd.problems import InvalidConfig, get_problem, quadratic_pair
from mograd.solvers import (
    ACCG_CONST,
    MFISC_CONST,
    VARIANTS,
    SolverConfig,
    run_solver,
    trace_csv_rows,
)

from conftest import dense_front_distance, pareto_point


def _digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _tree_digest(root):
    return {
        p.name: _digest(p) for p in sorted(Path(root).glob("*.csv"))
    }


JOS1_CFG = dict(
    problem="jos1",
    solvers=(SolverConfig(variant=MFISC_CONST, alpha=50.0, step=0.05),),
    epsilons=(1e-4,),
    n_starts=8,
    seed=5,
)


class TestWriteCsv:
    def test_float_rows_match_the_csv_writer(self, tmp_path):
        # NaN cells are blank, other floats their repr, bools lowercase; the
        # bytes are those of csv.writer over _fmt's cells
        nan, inf = math.nan, math.inf
        rows = [
            ["t", "x1", "merit"],
            [nan, inf, -inf],
            [-0.0, 5e-324, 1e308],
            [0.1 + 0.2, -nan, 1.0],
            [nan, nan],
            [-1e-308, 2.5e-320, 1.5e300],
            [nan],
            [1.5],
            [],
            [3, "mavng", 0.25, nan],
            [True, np.float64(0.1), 2.0],
            [np.int64(4), 1e-7],
            [0.5, np.float64(nan)],
        ]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        path = write_csv(tmp_path / "rows.csv", rows)
        assert path.read_bytes() == buf.getvalue().encode()
        assert path.read_text().splitlines() == [
            "t,x1,merit", ",inf,-inf", "-0.0,5e-324,1e+308", "0.30000000000000004,,1.0", ",",
            "-1e-308,2.5e-320,1.5e+300", '""', "1.5", "", "3,mavng,0.25,", "true,0.1,2.0",
            "4,1e-07", "0.5,",
        ]


class TestSampling:
    def test_deterministic_and_in_box(self):
        prob = get_problem("quad2")
        a = sample_starts(prob, 12, seed=3)
        b = sample_starts(prob, 12, seed=3)
        assert np.array_equal(a, b)
        lo, hi = prob.init_box
        assert np.all(a >= lo) and np.all(a <= hi)
        assert not np.array_equal(a, sample_starts(prob, 12, seed=4))

    def test_whole_float_seed_samples_as_its_int(self):
        prob = get_problem("quad2")
        assert np.array_equal(sample_starts(prob, 2, 3.0), sample_starts(prob, 2, 3))
        with pytest.raises(InvalidConfig, match="seed must be a whole number"):
            sample_starts(prob, 2, 3.5)


class TestExperimentConfig:
    def test_counts_are_ints(self):
        cfg = ExperimentConfig(
            problem="jos1", n_starts=2.0, seed=3.0, workers=1.0, merit_stride=5.0
        )
        for name in ("n_starts", "seed", "workers", "merit_stride"):
            assert type(getattr(cfg, name)) is int, name

    def test_rejects_non_integral_counts(self):
        # int() would truncate 2.7 to 2 and run two starts
        for name in ("n_starts", "seed", "workers", "merit_stride"):
            for value in (2.7, math.nan, math.inf, None, "3"):
                with pytest.raises(InvalidConfig, match=name):
                    ExperimentConfig(problem="jos1", **{name: value})

    def test_rejects_empty_epsilons(self):
        with pytest.raises(InvalidConfig):
            ExperimentConfig(problem="jos1", epsilons=())

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1e-3, "1e-2", None, True])
    def test_every_epsilon_is_checked(self, bad):
        # a sweep runs at its tightest epsilon only; the others are still checked
        with pytest.raises(InvalidConfig, match="epsilon must be a positive, finite number"):
            ExperimentConfig(problem="jos1", epsilons=(1e-3, bad))

    def test_repeated_epsilon_is_refused(self):
        # it would write its summary.csv cells and runs.csv block twice, and
        # its second trace CSVs over the first
        for epsilons in ((1e-3, 1e-6, 1e-3), (1e-2, 0.01)):
            with pytest.raises(InvalidConfig, match=f"epsilons repeats {epsilons[-1]!r}"):
                ExperimentConfig(problem="jos1", epsilons=epsilons)

    def test_alphas_sharing_a_trajectory_file_are_refused(self):
        # 5 and 5.0 integrated twice and wrote one pair of CSVs, but reported
        # four trajectories; 50 and 50.00001 both wrote mavng_a50.csv
        for alphas in ((5, 5.0), (50.0, 50.00001)):
            first, second = map(float, alphas)
            with pytest.raises(InvalidConfig, match=(
                f"^flow_alphas {first!r} and {second!r} share mavng_a{second:g}.csv$"
            )):
                ExperimentConfig(problem="quad2", flow_alphas=(7.0,) + alphas)

    REALS = ("flow_beta", "flow_p", "flow_h", "flow_t_end")

    @pytest.mark.parametrize("name", REALS)
    @pytest.mark.parametrize("value", ["abc", "3", True, None, math.nan, math.inf])
    def test_reals_refuse_what_is_not_a_finite_number(self, name, value):
        with pytest.raises(InvalidConfig, match=f"{name} must be a finite number, not {value!r}"):
            ExperimentConfig(problem="quad2", **{name: value})

    def test_reals_become_floats(self):
        cfg = ExperimentConfig(problem="quad2", flow_beta=3, flow_t_end=np.float64(5.0),
                               flow_alphas=[50, np.int64(7)], flow_x0=np.array([1, 2]))
        assert (cfg.flow_beta, cfg.flow_t_end) == (3.0, 5.0)
        assert type(cfg.flow_beta) is type(cfg.flow_t_end) is float
        assert cfg.flow_alphas == (50.0, 7.0) and cfg.flow_x0 == (1.0, 2.0)
        assert {type(v) for v in cfg.flow_alphas + cfg.flow_x0} == {float}

    @pytest.mark.parametrize("name", ["flow_alphas", "flow_x0"])
    def test_point_and_sweep_refuse_strings_and_non_numbers(self, name):
        # float() over the characters of "12" ran the flow from (1.0, 2.0)
        with pytest.raises(InvalidConfig, match=f"{name} must be a list of numbers, not '12'"):
            ExperimentConfig(problem="quad2", **{name: "12"})
        for entry in ("5", True, math.nan):
            with pytest.raises(InvalidConfig, match=f"{name} must be a finite number"):
                ExperimentConfig(problem="quad2", **{name: (1.0, entry)})

    @pytest.mark.parametrize("entries", [("mfisc_ls",), [SolverConfig(variant=ACCG_CONST), {"variant": "accg_ls"}]],
                             ids=["name", "dict"])
    def test_solvers_entries_must_be_solver_configs(self, entries):
        # a variant name got past the config and failed in run_batch's
        # dataclasses.replace with a TypeError
        with pytest.raises(InvalidConfig, match=re.escape(f"solvers entry {entries[-1]!r} is not a SolverConfig")):
            ExperimentConfig(problem="quad2", solvers=entries)

    @pytest.mark.parametrize("solvers", ["mfisc_ls", None, SolverConfig(variant=ACCG_CONST)],
                             ids=["string", "none", "lone-config"])
    def test_solvers_must_be_a_list(self, solvers):
        # a string passed as its characters; the others ended in a TypeError
        with pytest.raises(InvalidConfig, match=re.escape(f"solvers must be a list of SolverConfig, not {solvers!r}")):
            ExperimentConfig(problem="quad2", solvers=solvers)

    def test_write_traces_must_be_a_bool(self):
        # bool("no") is True, so coercion would write the traces
        for value in ("no", "false", 0, 1, None):
            with pytest.raises(InvalidConfig, match="write_traces"):
                ExperimentConfig(problem="jos1", write_traces=value)


class TestRunBatch:
    def test_start_on_front_reports_zero_iterations(self, tmp_path):
        prob = quadratic_pair()
        cfg = ExperimentConfig(
            problem="quad2",
            solvers=(SolverConfig(variant=MFISC_CONST, step=0.05),),
            epsilons=(1e-6,),
            n_starts=1,
            seed=0,
        )
        # place the sampled start on the Pareto set by overriding the box:
        # simpler to run directly from the parametrized point
        [(record, final_f, _)] = _run_one(
            ("quad2", cfg.solvers[0], cfg.epsilons, 0, tuple(pareto_point(prob, 0.5)), False, True)
        )
        assert record.iterations == 0
        assert record.termination == "converged"

    def test_accounting_and_no_silent_drops(self, tmp_path):
        cfg = ExperimentConfig(
            problem="jos1",
            solvers=(
                SolverConfig(variant=MFISC_CONST, alpha=50.0, step=0.05),
                SolverConfig(variant=ACCG_CONST, step=0.05),
            ),
            epsilons=(1e-2, 1e-4),
            n_starts=6,
            seed=2,
        )
        summary = run_batch(cfg, out_dir=tmp_path)
        assert len(summary.cells) == 2 * len(cfg.epsilons)
        assert len(summary.runs) == 2 * len(cfg.epsilons) * 6
        for cell in summary.cells:
            chunk = [
                r
                for r in summary.runs
                if r.solver == cell.solver and r.epsilon == cell.epsilon
            ]
            assert len(chunk) == 6
            assert sorted(r.start_index for r in chunk) == list(range(6))
            assert cell.total_iterations == sum(r.iterations for r in chunk)
        rows = (tmp_path / "runs.csv").read_text().splitlines()
        assert len(rows) == 1 + len(summary.runs)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig(**JOS1_CFG)
        run_batch(cfg, out_dir=tmp_path / "a")
        run_batch(cfg, out_dir=tmp_path / "b")
        assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")

    def test_worker_count_does_not_change_output(self, tmp_path):
        run_batch(ExperimentConfig(**JOS1_CFG), out_dir=tmp_path / "w1")
        run_batch(
            ExperimentConfig(**{**JOS1_CFG, "workers": 3}), out_dir=tmp_path / "w3"
        )
        assert _tree_digest(tmp_path / "w1") == _tree_digest(tmp_path / "w3")

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_platforms_without_fork_give_the_same_output(self, tmp_path, method):
        # spawn and forkserver workers re-import the main module, so the
        # pooled batch runs from a script in a child interpreter
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method on this platform")
        script = tmp_path / "batch.py"
        script.write_text(
            "import multiprocessing, sys\n"
            "from mograd.harness import ExperimentConfig, run_batch\n"
            "from mograd.solvers import MFISC_CONST, SolverConfig\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method(sys.argv[1])\n"
            "    solver = SolverConfig(variant=MFISC_CONST, alpha=50.0, step=0.05)\n"
            "    cfg = ExperimentConfig(problem='jos1', solvers=(solver,), epsilons=(1e-4,),\n"
            "                           n_starts=8, seed=5, workers=2)\n"
            "    run_batch(cfg, out_dir=sys.argv[2])\n"
        )
        src = str(Path(mograd.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, str(script), method, str(tmp_path / "w2")],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        run_batch(ExperimentConfig(**JOS1_CFG), out_dir=tmp_path / "w1")
        for name in ("summary.csv", "runs.csv"):
            assert _digest(tmp_path / "w2" / name) == _digest(tmp_path / "w1" / name)

    def test_trace_files_written_on_request(self, tmp_path):
        cfg = ExperimentConfig(**{**JOS1_CFG, "n_starts": 2, "write_traces": True})
        run_batch(cfg, out_dir=tmp_path)
        traces = sorted(tmp_path.glob("trace_*.csv"))
        assert len(traces) == 2
        header = traces[0].read_text().splitlines()[0]
        assert header == "k,kkt_residual,iter_gap,f1,f2,step,qp_gap"

    def test_trace_files_are_byte_identical_across_reruns(self, tmp_path):
        batch = ExperimentConfig(**{**JOS1_CFG, "n_starts": 2, "write_traces": True})
        run_batch(batch, out_dir=tmp_path / "a")
        run_batch(batch, out_dir=tmp_path / "b")
        digests = _tree_digest(tmp_path / "a")
        assert sum(name.startswith("trace_") for name in digests) == 2
        assert digests == _tree_digest(tmp_path / "b")

        single = ExperimentConfig(**JOS1_CFG)
        run_trace(single, out_dir=tmp_path / "c")
        run_trace(single, out_dir=tmp_path / "d")
        assert _digest(tmp_path / "c" / "trace.csv") == _digest(tmp_path / "d" / "trace.csv")

    def test_batch_that_raises_does_not_leak_trace_keeping(self, tmp_path, monkeypatch):
        import mograd.harness as harness

        # the second solver's constant step violates step < 1/L, so the batch
        # raises after the first solver's runs have kept their traces
        bad = ExperimentConfig(
            **{
                **JOS1_CFG,
                "solvers": JOS1_CFG["solvers"] + (SolverConfig(variant=ACCG_CONST, step=1e3),),
                "write_traces": True,
            }
        )
        with pytest.raises(InvalidConfig):
            run_batch(bad, out_dir=tmp_path)
        kept = []
        real_map = harness._map_tasks

        def spy(tasks, workers):
            results = real_map(tasks, workers)
            kept.extend(trace for rows in results for _, _, trace in rows)
            return results

        monkeypatch.setattr(harness, "_map_tasks", spy)
        # a front scan never asks for traces, so none may come back
        pareto_scan(ExperimentConfig(**JOS1_CFG))
        assert len(kept) == JOS1_CFG["n_starts"]
        assert all(trace is None for trace in kept)

    def test_final_objectives_only_for_the_front(self, monkeypatch):
        # a constant-step run calls no objective; only pareto_scan reads a
        # run's final objective vector, so only it pays that oracle call
        import dataclasses

        import mograd.harness as harness

        prob = get_problem(JOS1_CFG["problem"])
        calls = []

        def objectives(x):
            calls.append(x)
            return prob.objectives(x)

        counted = dataclasses.replace(prob, objectives=objectives)
        monkeypatch.setattr(harness, "_worker_problem", lambda key: counted)
        cfg = ExperimentConfig(**JOS1_CFG)
        run_batch(cfg)
        assert calls == []
        pareto_scan(cfg)
        assert len(calls) == JOS1_CFG["n_starts"]

    def test_summary_json_carries_timings(self, tmp_path):
        run_batch(ExperimentConfig(**JOS1_CFG), out_dir=tmp_path)
        payload = json.loads((tmp_path / "summary.json").read_text())
        assert payload["cells"][0]["total_time_s"] > 0.0
        assert payload["config"]["seed"] == 5

    def test_summary_json_echoes_only_what_the_batch_reads(self, tmp_path):
        run_batch(ExperimentConfig(**JOS1_CFG, flow_alphas=(5.0,)), out_dir=tmp_path)
        config = json.loads((tmp_path / "summary.json").read_text())["config"]
        assert set(config) == {
            "problem", "solvers", "epsilons", "n_starts", "seed", "workers", "write_traces"
        }

    def test_builds_the_problem_once(self, tmp_path, monkeypatch):
        import mograd.harness as harness
        import mograd.problems as problems

        builds = []

        def counting_factory():
            builds.append(1)
            return quadratic_pair()

        monkeypatch.setitem(problems._FACTORIES, "quad2", counting_factory)
        cfg = ExperimentConfig(
            problem="quad2",
            solvers=(SolverConfig(variant=MFISC_CONST, step=0.05),),
            n_starts=3,
        )
        harness._worker_problem.cache_clear()
        try:
            run_batch(cfg, out_dir=tmp_path)
        finally:
            harness._worker_problem.cache_clear()
        assert len(builds) == 1

    def test_requires_a_solver(self):
        with pytest.raises(InvalidConfig):
            run_batch(ExperimentConfig(problem="jos1"))


class TestParetoScan:
    def test_quad2_front_matches_parametrization(self, tmp_path):
        cfg = ExperimentConfig(
            problem="quad2",
            solvers=(SolverConfig(variant=MFISC_CONST, step=0.05),),
            epsilons=(1e-6,),
            n_starts=40,
            seed=9,
        )
        points, failures = pareto_scan(cfg, out_dir=tmp_path)
        assert failures == 0
        prob = quadratic_pair()
        for final_f, kkt, termination in points:
            assert termination == "converged"
            assert dense_front_distance(prob, final_f) <= 1e-3

    def test_jos1_front_matches_parametrization(self):
        cfg = ExperimentConfig(
            problem="jos1",
            solvers=(SolverConfig(variant=MFISC_CONST, step=0.05),),
            epsilons=(1e-6,),
            n_starts=40,
            seed=10,
        )
        points, failures = pareto_scan(cfg)
        prob = get_problem("jos1")
        assert failures == 0
        for final_f, _, _ in points:
            assert dense_front_distance(prob, final_f) <= 1e-2

    def test_front_csv_flags_and_keeps_every_start(self, tmp_path):
        cfg = ExperimentConfig(
            problem="quad2",
            solvers=(SolverConfig(variant=MFISC_CONST, step=0.05),),
            epsilons=(1e-6,),
            n_starts=5,
            seed=1,
        )
        pareto_scan(cfg, out_dir=tmp_path)
        lines = (tmp_path / "front.csv").read_text().splitlines()
        assert lines[0] == "start_index,f1,f2,kkt_residual,converged"
        assert len(lines) == 6

    def test_takes_exactly_one_solver_and_one_epsilon(self):
        solver = JOS1_CFG["solvers"][0]
        for extra in (dict(solvers=(solver, solver)), dict(epsilons=(1e-2, 1e-4)), dict(solvers=())):
            with pytest.raises(InvalidConfig, match="one solver and one epsilon"):
                pareto_scan(ExperimentConfig(**{**JOS1_CFG, **extra}))

    def test_single_start_at_first_objective_minimizer(self):
        # argmin f1 = (1, 0) is already critical: the scan emits (0, f2(1,0))
        prob = quadratic_pair()
        [(record, final_f, _)] = _run_one(
            ("quad2", SolverConfig(variant=MFISC_CONST, step=0.05), (1e-6,), 0, (1.0, 0.0), False, True)
        )
        assert record.iterations == 0
        assert final_f == pytest.approx((0.0, 1.5))


class TestToleranceSweep:
    """A sweep runs each (solver, start) once, at its tightest epsilon; every
    row must equal a separate run at the row's epsilon."""

    # unsorted, with one epsilon above every start residual
    EPSILONS = (1e-3, 1e-6, 1e9, 1e-2)

    def _check_rows(self, tmp_path, key, solvers, epsilons, n_starts=2):
        cfg = ExperimentConfig(problem=key, solvers=solvers, epsilons=epsilons,
                               n_starts=n_starts, seed=3, write_traces=True)
        summary = run_batch(cfg, out_dir=tmp_path / "batch")
        prob = get_problem(key)
        starts = sample_starts(prob, n_starts, cfg.seed)
        runs = iter(summary.runs)
        for solver in solvers:
            walls = {}
            for eps in epsilons:
                for idx, x0 in enumerate(starts):
                    record = next(runs)
                    single = run_solver(prob, replace(solver, epsilon=eps), x0)
                    assert (record.solver, record.epsilon, record.start_index, record.iterations,
                            record.termination, record.final_kkt) == (
                        solver.variant, eps, idx, single.iterations,
                        single.termination, single.final_residual)
                    name = f"trace_{solver.variant}_eps{eps:g}_start{idx}.csv"
                    write_csv(tmp_path / "single.csv", trace_csv_rows(single, prob))
                    assert (tmp_path / "batch" / name).read_bytes() == \
                        (tmp_path / "single.csv").read_bytes(), name
                    walls.setdefault(idx, {})[eps] = (record.iterations, record.wall_time)
            for idx, x0 in enumerate(starts):
                # a row's time is its time to stop: a row that stops earlier
                # than the run at the tightest epsilon took less time
                tight_iterations, tight_wall = walls[idx][min(epsilons)]
                for iterations, wall in walls[idx].values():
                    assert 0.0 < wall <= tight_wall
                    assert (wall < tight_wall) == (iterations < tight_iterations)
                rows = _run_one((key, solver, epsilons, idx, tuple(x0), True, False))
                for eps, (_, _, trace) in zip(epsilons, rows):
                    single = run_solver(prob, replace(solver, epsilon=eps), x0)
                    assert (trace.ls_cap_hits, trace.hull_certified) == \
                        (single.ls_cap_hits, single.hull_certified)
        return summary.runs

    @pytest.mark.parametrize("key", ["jos1", "quad2", "toi4", "sd", "ex1:n=5,p=4,seed=1"])
    def test_rows_equal_separate_runs(self, tmp_path, key):
        solvers = tuple(
            SolverConfig(variant=v, k_max=150,
                         step=0.05 if key == "jos1" and v.endswith("_const") else None)
            for v in VARIANTS
        )
        runs = self._check_rows(tmp_path, key, solvers, self.EPSILONS)
        assert {(r.iterations, r.termination) for r in runs if r.epsilon == 1e9} == {(0, "converged")}

    def test_failed_min_norm_qp_on_the_last_record(self, tmp_path, monkeypatch):
        import mograd.solvers

        # the min-norm QP fails once the residual is below tau, so the row at
        # tau stops on the run's last record and must end qp_failure too; the
        # line search reports a cap on every call, so caps are read off as well
        tau = 1e-3
        real_kernel = mograd.solvers.closed_form_rows
        real_search = mograd.solvers.line_search_backtracking

        def kernel(rows, scale, v):
            # two objectives: the solver's QPs are the closed-form kernel,
            # the min-norm ones with no target
            t, point, gap, converged = real_kernel(rows, scale, v)
            if v is None and math.hypot(*point) < tau:
                converged = False
            return t, point, gap, converged

        def search(*args):
            return real_search(*args)[0], True

        monkeypatch.setattr(mograd.solvers, "closed_form_rows", kernel)
        monkeypatch.setattr(mograd.solvers, "line_search_backtracking", search)
        solvers = (SolverConfig(variant="mfisc_const", step=0.05), SolverConfig(variant="accg_ls"))
        runs = self._check_rows(tmp_path, "quad2", solvers, (tau, 1e-8, 1e-1))
        assert [r.termination for r in runs if r.epsilon == tau] == ["qp_failure"] * 4
        assert [r.termination for r in runs if r.epsilon == 1e-1] == ["converged"] * 4

    def test_failed_projection_qp_after_an_accepted_record(self, tmp_path, monkeypatch):
        import mograd.solvers

        # the projection QP fails once the residual is below tau: the run at
        # 1e-8 ends qp_failure on a record that the row at tau accepts
        tau = 1e-3
        real_kernel = mograd.solvers.closed_form_rows
        residual = [math.inf]

        def kernel(rows, scale, v):
            # the min-norm solves with no target, as above
            t, point, gap, converged = real_kernel(rows, scale, v)
            if v is None:
                residual[0] = math.hypot(*point)
            elif residual[0] < tau:
                converged = False
            return t, point, gap, converged

        monkeypatch.setattr(mograd.solvers, "closed_form_rows", kernel)
        solvers = (SolverConfig(variant="mfisc_const", step=0.05), SolverConfig(variant="accg_ls"))
        runs = self._check_rows(tmp_path, "quad2", solvers, (tau, 1e-8))
        tight = [r for r in runs if r.epsilon == 1e-8]
        loose = [r for r in runs if r.epsilon == tau]
        assert [r.termination for r in tight] == ["qp_failure"] * 4
        assert [r.termination for r in loose] == ["converged"] * 4
        assert [r.iterations for r in loose] == [r.iterations for r in tight]


class TestComparisonTables:
    def test_tolerance_sweep_emits_table_rows(self, tmp_path):
        # Methods x Tolerance block per problem, one row per cell, none lost
        epsilons = (1e-2, 1e-4, 1e-6, 1e-8)
        for key in ("jos1", "sd", "toi4"):
            cfg = ExperimentConfig(
                problem=key,
                solvers=(
                    SolverConfig(variant=MFISC_CONST, alpha=50.0, step=0.05),
                    SolverConfig(variant=ACCG_CONST, step=0.05),
                ),
                epsilons=epsilons,
                n_starts=4,
                seed=3,
            )
            summary = run_batch(cfg, out_dir=tmp_path / key)
            assert len(summary.cells) == 8
            assert all(c.converged == 4 for c in summary.cells)
            lines = (tmp_path / key / "summary.csv").read_text().splitlines()
            assert lines[0] == "problem,solver,epsilon,starts,converged,total_iterations"
            assert len(lines) == 9

    def test_example2_desk_preset_ordering(self):
        # regularized least-squares triple: corrected momentum needs fewer
        # total iterations than the plain accelerated method
        from mograd.solvers import ACCG_LS, MFISC_LS

        cfg = ExperimentConfig(
            problem="ex2:n=20,p=20,seed=5",
            solvers=(
                SolverConfig(variant=MFISC_LS, alpha=50.0),
                SolverConfig(variant=ACCG_LS, alpha=50.0),
            ),
            epsilons=(1e-2,),
            n_starts=10,
            seed=6,
        )
        summary = run_batch(cfg)
        assert all(r.termination == "converged" for r in summary.runs)
        totals = {c.solver: c.total_iterations for c in summary.cells}
        assert totals[MFISC_LS] < totals[ACCG_LS]


class TestFlowExperiment:
    def test_bound_report_and_files(self, tmp_path):
        cfg = ExperimentConfig(
            problem="quad2",
            flow_alphas=(50.0,),
            flow_beta=3.0,
            flow_t_end=3.0,
            flow_x0=(-0.2, -0.1),
            merit_stride=200,
        )
        report, failures = flow_experiment(cfg, out_dir=tmp_path)
        assert failures == 0
        assert {entry["system"] for entry in report} == {"mavng", "mavd"}
        # the fraction is taken at alpha / t^2, so no coefficient is reported
        assert all(set(entry) == {"system", "alpha", "fraction", "constant", "samples", "termination"}
                   for entry in report)
        assert (tmp_path / "mavng_a50.csv").exists()
        assert (tmp_path / "bound_report.json").exists()
        header = (tmp_path / "mavng_a50.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2,kkt_residual,merit"

    def test_csv_cells_are_the_trajectory_values(self, tmp_path):
        # one row per merit sample, grid points 0, 7, 14, ... and the last,
        # each cell repr() of the in-memory trajectory's float
        cfg = ExperimentConfig(
            problem="quad2", flow_alphas=(50.0,), flow_t_end=1.5, flow_x0=(-0.2, -0.1),
            merit_stride=7,
        )
        flow_experiment(cfg, out_dir=tmp_path)
        prob = quadratic_pair()
        traj = mavng_integrate(prob, FlowConfig(alpha=50.0, x0=np.array([-0.2, -0.1]), t_end=1.5))
        attach_merit(prob, traj, stride=7)
        last = len(traj) - 1
        assert last % 7 != 0  # the last grid point is off-stride
        sampled = list(range(0, last + 1, 7)) + [last]
        table = np.column_stack([traj.times, traj.points, traj.kkt_residuals, traj.merit])
        expected = [",".join(repr(float(v)) for v in table[i]) for i in sampled]
        lines = (tmp_path / "mavng_a50.csv").read_text().splitlines()
        assert lines[1:] == expected
        assert lines[-1].split(",")[0] == repr(float(traj.times[-1]))
        assert all(line.split(",")[-1] != "" for line in lines[1:])

    def test_bound_report_entries_are_their_csv_rows(self, tmp_path):
        # lse2 from (0, 3) at alpha = 10: merit sits above 10/t^2 at some
        # samples of each flow, so neither the fraction nor the constant is
        # a foregone value
        cfg = ExperimentConfig(
            problem="lse2", flow_alphas=(10.0,), flow_t_end=2.0, flow_x0=(0.0, 3.0),
            merit_stride=100,
        )
        flow_experiment(cfg, out_dir=tmp_path)
        report = json.loads((tmp_path / "bound_report.json").read_text())["trajectories"]
        assert len(report) == 2
        for entry in report:
            with open(tmp_path / f"{entry['system']}_a{entry['alpha']:g}.csv", newline="") as fh:
                samples = [(float(r["t"]), float(r["merit"])) for r in csv.DictReader(fh)]
            held = [phi <= entry["alpha"] / (t * t) for t, phi in samples]
            assert len(held) == entry["samples"]
            assert sum(held) / len(held) == entry["fraction"]
            assert entry["constant"] == max(t * t * phi for t, phi in samples)
            assert entry["fraction"] < 1.0 and entry["constant"] > entry["alpha"]
        # and some samples of mavng hold
        assert report[0]["system"] == "mavng" and report[0]["fraction"] > 0.0

    def test_every_alpha_is_checked_before_the_first_file(self, tmp_path):
        # alpha = 2 < beta = 3 used to fail after alpha = 50 wrote its CSVs
        cfg = ExperimentConfig(problem="quad2", flow_alphas=(50.0, 2.0), flow_t_end=2.0,
                               merit_stride=500)
        with pytest.raises(ValueError, match="alpha >= beta") as err:
            flow_experiment(cfg, out_dir=tmp_path / "out")
        # the message names the refused alpha of the sweep, and beta
        assert "alpha = 2.0" in str(err.value) and "beta = 3.0" in str(err.value)
        assert not (tmp_path / "out").exists()

    def test_problem_without_merit_is_refused_before_integrating(self, tmp_path, monkeypatch):
        def never(prob, cfg):
            raise AssertionError("integrated a flow whose merit cannot be sampled")

        monkeypatch.setattr(mograd.harness, "mavng_integrate", never)
        monkeypatch.setattr(mograd.harness, "mavd_integrate", never)
        cfg = ExperimentConfig(problem="ex1:n=4,p=3,delta=0", flow_alphas=(5.0,))
        with pytest.raises(MeritUnavailable, match="^ex1:n=4,p=3,delta=0.0,seed=0: inner problem"):
            flow_experiment(cfg, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_start_of_the_wrong_dimension_writes_nothing(self, tmp_path):
        cfg = ExperimentConfig(problem="quad2", flow_alphas=(5.0,), flow_x0=(0.3, 0.4, 0.5))
        with pytest.raises(InvalidConfig, match="x0 has dimension 3, but quad2 has dimension 2"):
            flow_experiment(cfg, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_bound_report_echoes_only_what_the_flow_reads(self, tmp_path):
        cfg = ExperimentConfig(**JOS1_CFG, flow_alphas=(5.0,), flow_h=0.005, flow_t_end=1.01)
        flow_experiment(cfg, out_dir=tmp_path)
        config = json.loads((tmp_path / "bound_report.json").read_text())["config"]
        assert set(config) == {
            "problem", "merit_stride", "flow_alphas", "flow_beta", "flow_p", "flow_h", "flow_t_end",
            "flow_x0",
        }

    def test_beta_equal_alpha_writes_identical_state_columns(self, tmp_path):
        cfg = ExperimentConfig(
            problem="quad2",
            flow_alphas=(50.0,),
            flow_beta=50.0,
            flow_t_end=2.0,
            flow_x0=(-0.2, -0.1),
            merit_stride=500,
        )
        flow_experiment(cfg, out_dir=tmp_path)
        a = (tmp_path / "mavng_a50.csv").read_text()
        b = (tmp_path / "mavd_a50.csv").read_text()
        assert a == b

    def test_corrected_flow_has_the_smaller_constant(self):
        # the bench's flow-merit preset: the paper's claim that the corrected
        # flow beats the baseline on the 1/t^2 rate, read off the constants
        # (about 1.8 against 12.6 at alpha = 50 and 24.8 at alpha = 100)
        cfg = ExperimentConfig(
            problem="quad2", flow_alphas=(50.0, 100.0), flow_beta=3.0, flow_t_end=20.0,
            flow_h=5e-3, flow_x0=(-0.2, -0.1), merit_stride=100,
        )
        report, failures = flow_experiment(cfg)
        assert failures == 0
        constants = {(e["system"], e["alpha"]): e["constant"] for e in report}
        for alpha in cfg.flow_alphas:
            assert constants["mavng", alpha] < constants["mavd", alpha] <= alpha

    def test_needs_alpha_sweep(self):
        with pytest.raises(InvalidConfig):
            flow_experiment(ExperimentConfig(problem="quad2"))


class TestRunTrace:
    def test_trace_files(self, tmp_path):
        cfg = ExperimentConfig(
            problem="sd",
            solvers=(SolverConfig(variant=MFISC_CONST, step=0.05),),
            epsilons=(1e-6,),
            seed=4,
        )
        trace = run_trace(cfg, out_dir=tmp_path)
        assert trace.termination == "converged"
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(lines) == len(trace.points) + 1
        # residual column eventually below epsilon, gaps finite throughout
        last = lines[-1].split(",")
        assert float(last[1]) < 1e-6
        payload = json.loads((tmp_path / "trace.json").read_text())
        assert payload["termination"] == "converged"


    def test_takes_exactly_one_solver_and_one_epsilon(self):
        solver = JOS1_CFG["solvers"][0]
        for extra in (dict(solvers=(solver, solver)), dict(epsilons=(1e-2, 1e-4)), dict(solvers=())):
            with pytest.raises(InvalidConfig, match="one solver and one epsilon"):
                run_trace(ExperimentConfig(**{**JOS1_CFG, **extra}))

    def test_starts_at_flow_x0(self, tmp_path):
        trace = run_trace(ExperimentConfig(**JOS1_CFG, flow_x0=(0.3, 0.4)), out_dir=tmp_path)
        assert list(trace.points[0]) == [0.3, 0.4]
        assert json.loads((tmp_path / "trace.json").read_text())["x0"] == [0.3, 0.4]


# the flags each verb lets repeat, the README's "repeats"
REPEATS = {"run": ("--solver", "--eps"), "flow": ("--alpha",)}


class TestCli:
    def test_list_verb(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "jos1" in out and "ex1" in out

    def test_module_entry_point(self):
        # python -m mograd.cli runs main and exits with its code
        src = str(Path(mograd.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        proc = subprocess.run(
            [sys.executable, "-m", "mograd.cli", "list"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "quad2" in proc.stdout.split()

    def test_run_verb_writes_outputs(self, tmp_path, capsys):
        code = cli_main(
            [
                "run",
                "--problem",
                "jos1",
                "--solver",
                "mfisc_const",
                "--step",
                "0.05",
                "--eps",
                "1e-4",
                "--starts",
                "4",
                "--seed",
                "7",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "summary.csv").exists()
        assert "converged" in capsys.readouterr().out

    def test_flow_step_count_overflow_is_one_line(self, tmp_path, capsys):
        # (t_end - t0) / h = 1e310 used to end in an OverflowError traceback
        code = cli_main(["flow", "--problem", "quad2", "--alpha", "5", "--t-end", "1e300",
                         "--h", "1e-10", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "mograd: (t_end - t0) / h, the number of steps, must be finite\n"

    @pytest.mark.parametrize(
        "flag, key", [("--starts", "n_starts"), ("--seed", "seed"), ("--k-max", "k_max"),
                      ("--workers", "workers")],
    )
    def test_count_flags_follow_the_whole_number_rule(self, tmp_path, capsys, flag, key):
        # as in a config file: 2.0 runs as 2, while 2.5 exits 1 naming the key
        base = ["run", "--problem", "jos1", "--solver", "accg_const", "--step", "0.05",
                "--eps", "1e-2"] + ([] if flag == "--starts" else ["--starts", "2"])
        assert cli_main(base + [flag, "2.0", "--out", str(tmp_path)]) == 0
        assert len((tmp_path / "runs.csv").read_text().splitlines()) == 3
        capsys.readouterr()
        assert cli_main(base + [flag, "2.5"]) == 1
        assert f"{key} must be a whole number, not 2.5" in capsys.readouterr().err

    def test_merit_stride_flag_follows_the_whole_number_rule(self, tmp_path, capsys):
        base = ["flow", "--problem", "quad2", "--alpha", "5", "--t-end", "1.5",
                "--x0=-0.2,-0.1", "--merit-stride"]
        assert cli_main(base + ["250.0", "--out", str(tmp_path)]) == 0
        assert cli_main(base + ["2.5"]) == 1
        assert "merit_stride must be a whole number, not 2.5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, message",
        [("jos1:n=abc", "n must be a number, not 'abc'"), ("jos1:n=2.5", "n must be a whole number")],
    )
    def test_bad_key_parameter_is_config_error_naming_it(self, capsys, key, message):
        assert cli_main(["run", "--problem", key, "--solver", "accg_ls", "--starts", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]

    def test_whole_float_seed_in_a_key_runs(self, capsys):
        key = "ex2:n=4,p=3,seed=2.0"
        args = ["--solver", "accg_ls", "--starts", "2", "--eps", "1e-2"]
        assert cli_main(["run", "--problem", key] + args) == 0
        out, err = capsys.readouterr()
        assert "ex2:n=4,p=3,seed=2.0 accg_ls" in out and err == ""

    def test_unknown_problem_is_config_error(self, capsys):
        assert cli_main(["run", "--problem", "nope", "--solver", "mfisc_const"]) == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--problem", "quad2", "--seed", "-1"], "seed must be nonnegative, not -1"),
            (["--problem", "jos1:n=3,n=5"], "repeats parameter 'n'"),
        ],
    )
    def test_bad_seed_or_key_is_config_error(self, capsys, args, message):
        assert cli_main(["run", "--solver", "accg_ls", "--starts", "1"] + args) == 1
        assert message in capsys.readouterr().err

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as err:
            cli_main(["run", "--bogus-flag"])
        assert err.value.code == 1

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(
            json.dumps(
                {
                    "problem": "jos1",
                    "solvers": ["mfisc_const"],
                    "step": 0.05,
                    "epsilons": [1e-2],
                    "n_starts": 3,
                    "seed": 1,
                }
            )
        )
        out_dir = tmp_path / "out"
        code = cli_main(
            ["run", "--config", str(cfg_file), "--starts", "2", "--out", str(out_dir)]
        )
        assert code == 0
        rows = (out_dir / "runs.csv").read_text().splitlines()
        assert len(rows) == 3  # header + the overriding 2 starts

    def test_front_and_flow_verbs(self, tmp_path):
        assert (
            cli_main(
                [
                    "front",
                    "--problem",
                    "quad2",
                    "--solver",
                    "mfisc_const",
                    "--step",
                    "0.05",
                    "--eps",
                    "1e-4",
                    "--starts",
                    "3",
                    "--out",
                    str(tmp_path / "front"),
                ]
            )
            == 0
        )
        assert (
            cli_main(
                [
                    "flow",
                    "--problem",
                    "quad2",
                    "--alpha",
                    "50",
                    "--beta",
                    "3",
                    "--t-end",
                    "2.0",
                    "--x0=-0.2,-0.1",
                    "--merit-stride",
                    "500",
                    "--out",
                    str(tmp_path / "flow"),
                ]
            )
            == 0
        )
        assert (tmp_path / "front" / "front.csv").exists()
        assert (tmp_path / "flow" / "bound_report.json").exists()

    def test_flow_line_prints_the_fraction_and_the_constant(self, tmp_path, capsys):
        argv = ["flow", "--problem", "quad2", "--alpha", "50", "--t-end", "2.0", "--x0=-0.2,-0.1",
                "--merit-stride", "500", "--out", str(tmp_path)]
        assert cli_main(argv) == 0
        report = json.loads((tmp_path / "bound_report.json").read_text())["trajectories"]
        assert capsys.readouterr().out.splitlines() == [
            f"{e['system']} alpha=50: bound 50/t^2 holds at {100 * e['fraction']:.1f}% of "
            f"{e['samples']} samples, max t^2*merit {e['constant']:.4g}"
            for e in report
        ]

    def test_repeated_alpha_is_config_error_for_solver_verbs(self, tmp_path, capsys):
        solver = ["--problem", "quad2", "--solver", "mfisc_const", "--step", "0.05"]
        for verb in ("run", "front", "trace"):
            out_dir = tmp_path / verb
            argv = [verb, *solver, "--alpha", "5", "--alpha", "90", "--out", str(out_dir)]
            assert cli_main(argv) == 1
            assert "single alpha" in capsys.readouterr().err
            assert not out_dir.exists()
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"problem": "quad2", "alpha": [5, 90]}))
        assert cli_main(["run", "--config", str(cfg_file), "--solver", "mfisc_const"]) == 1
        # one alpha still reaches the solvers
        argv = ["run", *solver, "--alpha", "5", "--starts", "2", "--eps", "1e-2",
                "--out", str(tmp_path / "one")]
        assert cli_main(argv) == 0
        summary = json.loads((tmp_path / "one" / "summary.json").read_text())
        assert [s["alpha"] for s in summary["config"]["solvers"]] == [5.0]

    def test_config_file_flow_x0_reaches_the_flow(self, tmp_path):
        cfg_file = tmp_path / "flow.json"
        cfg_file.write_text(json.dumps({
            "problem": "quad2", "alpha": 5, "flow_h": 0.005, "flow_t_end": 1.01,
            "flow_x0": [-0.2, -0.1], "merit_stride": 500,
        }))
        assert cli_main(["flow", "--config", str(cfg_file), "--out", str(tmp_path / "out")]) == 0
        first = (tmp_path / "out" / "mavng_a5.csv").read_text().splitlines()[1].split(",")
        assert [float(v) for v in first[1:3]] == [-0.2, -0.1]

    def test_unknown_config_key_exits_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({
            "problem": "jos1", "solvers": ["mfisc_const"], "step": 0.05,
            "epsilons": [1e-2], "n_start": 2,
        }))
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_file), "--out", str(out_dir)]) == 1
        assert "n_start" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("content", [["problem"], "quad2", 5, None])
    def test_config_file_must_hold_an_object(self, tmp_path, capsys, content):
        # ["problem"] ended in an AttributeError traceback, "quad2" in
        # "unknown config key(s) for run: 2, a, d, q, u"
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps(content))
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_file), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == f"mograd: config file {cfg_file} must hold a JSON object of settings\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("verb", ["run", "flow"])
    def test_problem_key_is_required(self, tmp_path, capsys, verb):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({"problem": ""}))
        argv = {"run": ["--solver", "accg_ls"], "flow": ["--alpha", "5"]}[verb]
        for extra in ([], ["--config", str(cfg_file)]):
            assert cli_main([verb, *argv, *extra]) == 1
            assert capsys.readouterr().err == "mograd: a problem key is required (--problem or config file)\n"

    @pytest.mark.parametrize("verb, settings", [
        ("run", {"problem": 5, "solvers": ["mfisc_const"]}),
        ("run", {"problem": "jos1", "solvers": ["mfisc_const"], "n_starts": None}),
        # true ran as a count of 1, one start or k_max 1, and exited 0
        ("run", {"problem": "quad2", "solvers": ["accg_ls"], "n_starts": True}),
        ("run", {"problem": "quad2", "solvers": ["accg_ls"], "k_max": True}),
        ("run", {"problem": "jos1", "solvers": ["mfisc_const"], "alpha": None}),
        ("flow", {"problem": "quad2", "alpha": 5, "flow_x0": 5}),
    ])
    def test_wrong_json_type_is_config_error(self, tmp_path, capsys, verb, settings):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps(settings))
        out_dir = tmp_path / "out"
        assert cli_main([verb, "--config", str(cfg_file), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("mograd: ")
        assert not out_dir.exists()

    # every setting of each verb: flag, config key, value A, value B
    SOLVER_SETTINGS = (
        ("--problem", "problem", "quad2", "lse2"),
        ("--solver", "solvers", ["mfisc_ls"], ["accg_const"]),
        ("--alpha", "alpha", [6.0], [5.0]),
        ("--step", "step", 0.04, 0.05),
        ("--s0", "s0", 3.0, 2.0),
        ("--eps", "epsilons", [1e-4], [1e-3]),
        ("--k-max", "k_max", 20, 10),
        ("--seed", "seed", 2, 1),
    )
    BATCH_SETTINGS = (("--starts", "n_starts", 3, 2), ("--workers", "workers", 2, 1))
    VERB_SETTINGS = {
        # run alone sweeps solvers and tolerances
        "run": tuple(row for row in SOLVER_SETTINGS if row[1] not in ("solvers", "epsilons"))
        + BATCH_SETTINGS + (
            ("--solver", "solvers", ["mfisc_ls", "accg_const"], ["steepest_ls"]),
            ("--eps", "epsilons", [1e-4, 1e-3], [1e-2]),
            ("--traces", "write_traces", True, False),
        ),
        "front": SOLVER_SETTINGS + BATCH_SETTINGS,
        "flow": (
            ("--problem", "problem", "quad2", "lse2"),
            ("--alpha", "alpha", [6.0, 7.0], [5.0]),
            ("--beta", "flow_beta", 4.0, 3.5),
            ("--p", "flow_p", 2.0, 1.5),
            ("--h", "flow_h", 0.004, 0.005),
            ("--t-end", "flow_t_end", 1.508, 1.01),
            ("--x0", "flow_x0", [0.3, 0.4], [0.1, 0.2]),
            ("--merit-stride", "merit_stride", 400, 500),
        ),
        "trace": SOLVER_SETTINGS + (("--x0", "flow_x0", [0.3, 0.4], [0.1, 0.2]),),
    }
    ECHO_FILES = {
        "run": "summary.json", "front": "front.json", "flow": "bound_report.json", "trace": "trace.json",
    }
    SOLVER_ECHO = dict(alpha=6.0, k_max=20)

    def test_flag_overrides_the_config_key_of_the_same_name(self, tmp_path):
        def parsed_keys(verb):
            return set(vars(build_parser().parse_args([verb]))) - {"verb", "out", "config"}

        counts = {verb: len(parsed_keys(verb)) for verb in self.VERB_SETTINGS}
        assert counts == {"run": 11, "front": 10, "flow": 8, "trace": 9}

        def flags(table, column):
            argv = []
            for flag, _, *values in table:
                value = values[column]
                if flag == "--x0":
                    argv.append("--x0=" + ",".join(map(str, value)))
                elif flag == "--traces":
                    argv += [flag] if value else []
                else:
                    for v in value if isinstance(value, list) else [value]:
                        argv += [flag, str(v)]
            return argv

        def echo(verb, name, file_column, argv):
            table = self.VERB_SETTINGS[verb]
            argv = [verb, *argv, "--out", str(tmp_path / name)]
            if file_column is not None:
                cfg_file = tmp_path / f"{name}.json"
                cfg_file.write_text(json.dumps(
                    {key: values[file_column] for _, key, *values in table}
                ))
                argv += ["--config", str(cfg_file)]
            assert cli_main(argv) == 0, (verb, name)
            return json.loads((tmp_path / name / self.ECHO_FILES[verb]).read_text())["config"]

        for verb, table in self.VERB_SETTINGS.items():
            keys = [key for _, key, _, _ in table]
            assert sorted(keys) == sorted(parsed_keys(verb)), verb
            from_flags = echo(verb, f"{verb}-flags", None, flags(table, 0))
            assert echo(verb, f"{verb}-file", 0, []) == from_flags, verb
            assert echo(verb, f"{verb}-both", 1, flags(table, 0)) == from_flags, verb
            # every setting reaches the config; the solver keys are checked below
            for _, key, value, _ in table:
                if key in ExperimentConfig.__dataclass_fields__ and key != "solvers":
                    assert from_flags[key] == value, (verb, key)
            # the echo holds exactly the settings the verb reads: the solver
            # flags fold into "solvers" and the flow's alphas into "flow_alphas"
            if verb == "flow":
                assert set(from_flags) == set(keys) - {"alpha"} | {"flow_alphas"}
                assert from_flags["flow_alphas"] == [6.0, 7.0]
                continue
            assert set(from_flags) == set(keys) - {"alpha", "step", "s0", "k_max"}
            # a template's epsilon is not echoed: the run uses "epsilons"
            expected = [dict(variant="mfisc_ls", step=3.0, **self.SOLVER_ECHO)]
            if verb == "run":
                expected.append(dict(variant="accg_const", step=0.04, **self.SOLVER_ECHO))
            assert from_flags["solvers"] == expected, verb

    # one valid value of each flag that some verb does not read, and its config key
    DROPPED_VALUES = {
        "--solver": ("solvers", "accg_const"), "--step": ("step", 0.1), "--s0": ("s0", 2.0),
        "--eps": ("epsilons", 1e-3), "--k-max": ("k_max", 5),
        "--starts": ("n_starts", 7), "--seed": ("seed", 9), "--workers": ("workers", 2),
        "--beta": ("flow_beta", 4.0), "--p": ("flow_p", 2.0), "--merit-stride": ("merit_stride", 400),
    }
    DROPPED = {
        "run": ("--beta", "--p", "--merit-stride"),
        "front": ("--beta", "--p", "--merit-stride"),
        "flow": ("--solver", "--step", "--s0", "--k-max", "--eps", "--starts", "--seed", "--workers"),
        "trace": ("--beta", "--p", "--merit-stride", "--starts", "--workers"),
    }
    # a small run of each verb that exits 0
    BASE = {
        "run": {"problem": "jos1", "solvers": ["mfisc_const"], "step": 0.05, "n_starts": 2},
        "front": {"problem": "jos1", "solvers": ["mfisc_const"], "step": 0.05, "n_starts": 2},
        "flow": {"problem": "quad2", "alpha": 5, "flow_h": 0.005, "flow_t_end": 1.01},
        "trace": {"problem": "jos1", "solvers": ["mfisc_const"], "step": 0.05},
    }

    @pytest.mark.parametrize(
        "verb, flag", [(verb, flag) for verb, flags in DROPPED.items() for flag in flags]
    )
    def test_setting_the_verb_does_not_read_exits_one(self, tmp_path, capsys, verb, flag):
        key, value = self.DROPPED_VALUES[flag]
        base_file = tmp_path / "base.json"
        base_file.write_text(json.dumps(self.BASE[verb]))
        assert cli_main([verb, "--config", str(base_file), "--out", str(tmp_path / "base")]) == 0
        out_dir = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            cli_main([verb, "--config", str(base_file), flag, str(value), "--out", str(out_dir)])
        assert err.value.code == 1
        assert flag in capsys.readouterr().err
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({**self.BASE[verb], key: value}))
        assert cli_main([verb, "--config", str(cfg_file), "--out", str(out_dir)]) == 1
        assert key in capsys.readouterr().err
        assert not out_dir.exists()

    def test_solver_and_eps_repeat_only_on_run(self, tmp_path, capsys):
        base = ["--problem", "jos1", "--solver", "mfisc_const", "--step", "0.05", "--eps", "1e-2"]
        for verb in ("front", "trace"):
            out_dir = tmp_path / verb
            for extra, flag in ((["--solver", "accg_const"], "--solver"), (["--eps", "1e-4"], "--eps")):
                assert cli_main([verb, *base, *extra, "--out", str(out_dir)]) == 1
                err = capsys.readouterr().err.splitlines()
                assert len(err) == 1 and f"single {flag[2:]} ({flag})" in err[0]
            for settings in (
                {"solvers": ["mfisc_const", "accg_const"]}, {"epsilons": [1e-2, 1e-4]}
            ):
                cfg_file = tmp_path / "exp.json"
                cfg_file.write_text(json.dumps({**self.BASE[verb], **settings}))
                assert cli_main([verb, "--config", str(cfg_file), "--out", str(out_dir)]) == 1
                assert "takes a single" in capsys.readouterr().err
            assert not out_dir.exists()
        # run sweeps both; a config file's single value needs no list
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({**self.BASE["run"], "epsilons": 1e-2}))
        argv = ["run", "--config", str(cfg_file), "--solver", "mfisc_const", "--solver", "accg_const",
                "--out", str(tmp_path / "run")]
        assert cli_main(argv) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert [(c["solver"], c["epsilon"]) for c in summary["cells"]] == [
            ("mfisc_const", 1e-2), ("accg_const", 1e-2)
        ]

    @pytest.mark.parametrize("verb, flag, values", [
        pytest.param(verb, flag, values, id=f"{verb}{flag}")
        for verb, table in VERB_SETTINGS.items()
        for flag, _, *values in table
        if flag not in REPEATS.get(verb, ())
    ])
    def test_second_value_of_a_single_valued_flag_exits_one(self, tmp_path, capsys, verb, flag, values):
        # argparse kept the last value of a flag it did not append:
        # run --seed 1 --seed 2 ran at seed 2 and exited 0
        base_file = tmp_path / "base.json"
        base_file.write_text(json.dumps(self.BASE[verb]))
        out_dir = tmp_path / "out"
        argv = [verb, "--config", str(base_file), "--out", str(out_dir)]
        for value in values:
            if flag == "--traces":
                argv.append(flag)
            elif flag == "--x0":
                argv.append("--x0=" + ",".join(map(str, value)))
            else:
                argv += [flag, str(value[0] if isinstance(value, list) else value)]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"mograd: {verb} takes a single {flag[2:]} ({flag})\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize("verb", ["run", "front", "flow", "trace"])
    def test_second_out_or_config_exits_one(self, tmp_path, capsys, verb):
        # argparse kept the last value: run --out A --out B wrote B and exited 0
        base_file = tmp_path / "base.json"
        base_file.write_text(json.dumps(self.BASE[verb]))
        outs = [tmp_path / "A", tmp_path / "B"]
        argv = [verb, "--config", str(base_file), "--out", str(outs[0]), "--out", str(outs[1])]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"mograd: {verb} takes a single out (--out)\n"
        argv = [verb, "--config", str(base_file), "--config", str(base_file), "--out", str(outs[0])]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == f"mograd: {verb} takes a single config (--config)\n"
        assert not any(out.exists() for out in outs)

    def test_repeated_eps_exits_one(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        argv = ["run", "--problem", "jos1", "--solver", "accg_const", "--step", "0.05",
                "--starts", "1", "--eps", "1e-2", "--eps", "1e-2", "--out", str(out_dir)]
        assert cli_main(argv) == 1
        assert "epsilons repeats 0.01" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("verb, key, value", [
        ("flow", "flow_beta", "abc"),
        ("flow", "flow_beta", "3"),
        ("flow", "flow_beta", True),
        ("flow", "flow_x0", "12"),
        ("flow", "alpha", "50"),
        ("run", "alpha", "50"),
        ("run", "step", "0.05"),
        ("run", "s0", True),
        ("trace", "step", True),
    ])
    def test_real_config_value_must_be_a_json_number(self, tmp_path, capsys, verb, key, value):
        settings = {**self.BASE[verb], key: value}
        if key == "s0":
            settings["solvers"] = ["accg_ls"]
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps(settings))
        out_dir = tmp_path / "out"
        assert cli_main([verb, "--config", str(cfg_file), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"mograd: {key} must be")
        assert not out_dir.exists()

    def test_bool_epsilon_is_config_error(self, tmp_path, capsys):
        # true used to run at epsilon 1.0 and exit 0
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({**self.BASE["run"], "epsilons": True}))
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_file), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == "mograd: epsilon must be a positive, finite number, not True\n"
        assert not out_dir.exists()

    def test_write_traces_string_is_config_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "exp.json"
        cfg_file.write_text(json.dumps({**self.BASE["run"], "write_traces": "no"}))
        out_dir = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg_file), "--out", str(out_dir)]) == 1
        assert "write_traces" in capsys.readouterr().err
        assert not out_dir.exists()

    # Command lines run as a user types them, from a fresh working directory
    # (tmp_path), so their relative --out and config paths land there.
    # capfd reads fd 2, where LAPACK's messages from C would land.

    @staticmethod
    def _run_in(tmp_path, monkeypatch, settings):
        monkeypatch.chdir(tmp_path)
        if settings is not None:
            Path("exp.json").write_text(json.dumps(settings))

    @staticmethod
    def _tree(root):
        # every file and directory under root, as relative POSIX paths
        return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))

    # argv, config file settings (or None), the paths left behind
    SILENT = {
        "flow-quad2-config": (
            ["flow", "--config", "exp.json", "--out", "out"],
            {"problem": "quad2", "alpha": 5, "flow_t_end": 2.0, "flow_x0": [-0.2, -0.1],
             "merit_stride": 500},
            ["exp.json", "out", "out/bound_report.json", "out/mavd_a5.csv", "out/mavng_a5.csv"],
        ),
        # three objectives, through the Gram-matrix hull QPs
        "flow-ex1": (
            ["flow", "--problem", "ex1:n=10,p=8,seed=1", "--alpha", "20", "--t-end", "1.5",
             "--merit-stride", "100", "--out", "out"],
            None,
            ["out", "out/bound_report.json", "out/mavd_a20.csv", "out/mavng_a20.csv"],
        ),
        # not quadratic, from the README's start, off the Pareto set
        "flow-lse2": (
            ["flow", "--problem", "lse2", "--alpha", "20", "--t-end", "2.0", "--x0=0,3",
             "--merit-stride", "100", "--out", "out"],
            None,
            ["out", "out/bound_report.json", "out/mavd_a20.csv", "out/mavng_a20.csv"],
        ),
        "run-jos1-n30-every-variant": (
            ["run", "--problem", "jos1:n=30", "--solver", "mfisc_const", "--solver", "accg_const",
             "--solver", "mfisc_ls", "--solver", "accg_ls", "--solver", "steepest_ls", "--starts", "2",
             "--out", "out"],
            None,
            ["out", "out/runs.csv", "out/summary.csv", "out/summary.json"],
        ),
        # a traced tolerance sweep at a whole float count, without --out
        "run-traces-no-out": (
            ["run", "--problem", "jos1", "--solver", "accg_const", "--step", "0.05", "--eps", "1e-2",
             "--eps", "1e-6", "--starts", "2.0", "--traces"],
            None,
            [],
        ),
        "trace-quad2": (
            ["trace", "--problem", "quad2", "--solver", "mfisc_ls", "--out", "out"],
            None,
            ["out", "out/trace.csv", "out/trace.json"],
        ),
    }

    @pytest.mark.parametrize("name", list(SILENT))
    def test_command_line_writes_nothing_to_fd2(self, tmp_path, monkeypatch, capfd, name):
        argv, settings, paths = self.SILENT[name]
        self._run_in(tmp_path, monkeypatch, settings)
        assert cli_main(argv) == 0
        assert capfd.readouterr().err == ""
        assert self._tree(tmp_path) == paths

    @pytest.mark.parametrize(
        "name, samples", [("flow-quad2-config", 3), ("flow-ex1", 6), ("flow-lse2", 11)]
    )
    def test_flow_command_line_reports_its_csvs(self, tmp_path, monkeypatch, name, samples):
        # each trajectory CSV holds one row per merit sample, and each
        # report entry carries a measured constant and no coefficient
        argv, settings, _ = self.SILENT[name]
        self._run_in(tmp_path, monkeypatch, settings)
        assert cli_main(argv) == 0
        report = json.loads(Path("out/bound_report.json").read_text())["trajectories"]
        assert [entry["system"] for entry in report] == ["mavng", "mavd"]
        for entry in report:
            assert set(entry) == {"system", "alpha", "fraction", "constant", "samples", "termination"}
            assert type(entry["constant"]) is float and entry["constant"] > 0
            with open(f"out/{entry['system']}_a{entry['alpha']:g}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == entry["samples"] == samples
            assert all(row["merit"] != "" for row in rows)
            first, last = ([v for k, v in row.items() if k.startswith("x")] for row in (rows[0], rows[-1]))
            assert first != last  # the flow moves

    REFUSED = {
        # a flow_h whose square underflows, and a string flow_x0
        "flow-h-underflows": (
            ["flow", "--config", "exp.json", "--out", "out"],
            {"problem": "quad2", "alpha": 5, "flow_t_end": 2.0, "flow_h": 1e-170},
        ),
        "flow-x0-string": (
            ["flow", "--config", "exp.json", "--out", "out"],
            {"problem": "quad2", "alpha": 5, "flow_t_end": 2.0, "flow_x0": "12"},
        ),
        # a problem without merit, and a t**p that overflows at the last time
        "flow-no-merit": (
            ["flow", "--problem", "ex1:n=4,p=3,delta=0", "--alpha", "5", "--t-end", "20", "--out", "out"],
            None,
        ),
        "flow-p-overflows": (
            ["flow", "--problem", "quad2", "--alpha", "5", "--p", "1000", "--t-end", "3", "--x0=-0.2,-0.1",
             "--out", "out"],
            None,
        ),
        # a bad second alpha, and two alphas sharing a trajectory file
        "flow-alphas-50-2": (
            ["flow", "--problem", "quad2", "--alpha", "50", "--alpha", "2", "--t-end", "2",
             "--merit-stride", "500", "--out", "out"],
            None,
        ),
        "flow-alphas-5-5.0": (
            ["flow", "--problem", "quad2", "--alpha", "5", "--alpha", "5.0", "--t-end", "2",
             "--merit-stride", "500", "--out", "out"],
            None,
        ),
        # a bool epsilon and a string s0
        "run-eps-bool": (
            ["run", "--config", "exp.json"],
            {"problem": "jos1", "solvers": ["accg_const"], "step": 0.05, "n_starts": 1, "epsilons": True},
        ),
        "run-s0-string": (
            ["run", "--config", "exp.json"],
            {"problem": "jos1", "solvers": ["accg_ls"], "n_starts": 1, "s0": "0.5"},
        ),
        # a repeated single-valued flag, a repeated --out, a fractional count
        "run-seed-twice": (
            ["run", "--problem", "quad2", "--solver", "accg_ls", "--starts", "1", "--seed", "1",
             "--seed", "2", "--out", "out"],
            None,
        ),
        "run-out-twice": (
            ["run", "--problem", "quad2", "--solver", "accg_ls", "--starts", "1", "--out", "out-a",
             "--out", "out-b"],
            None,
        ),
        "run-starts-2.5": (
            ["run", "--problem", "jos1", "--solver", "accg_const", "--step", "0.05", "--eps", "1e-2",
             "--eps", "1e-6", "--starts", "2.5", "--traces"],
            None,
        ),
    }

    @pytest.mark.parametrize("name", list(REFUSED))
    def test_refused_command_line_is_one_line(self, tmp_path, monkeypatch, capfd, name):
        argv, settings = self.REFUSED[name]
        self._run_in(tmp_path, monkeypatch, settings)
        assert cli_main(argv) == 1
        err = capfd.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("mograd: ") and "Traceback" not in err
        # refused before any directory or CSV is written
        assert self._tree(tmp_path) == ([] if settings is None else ["exp.json"])

    def test_front_csv_is_the_same_at_one_and_two_workers(self, tmp_path, monkeypatch, capfd):
        monkeypatch.chdir(tmp_path)
        argv = ["front", "--problem", "jos1", "--solver", "accg_const", "--step", "0.05", "--starts", "4"]
        for workers in ("1", "2"):
            assert cli_main(argv + ["--workers", workers, "--out", f"front-w{workers}"]) == 0
        assert capfd.readouterr().err == ""
        assert Path("front-w1/front.csv").read_bytes() == Path("front-w2/front.csv").read_bytes()
