"""Batch experiment runner with deterministic, data-only outputs.

Reproduces the benchmark layouts at any scale: solver comparisons over a
grid of tolerances (iteration-count tables), Pareto-front scans, flow
trajectory sweeps with merit-bound reports, and single-run trace exports.

Determinism contract: given the same :class:`ExperimentConfig` (including
seed), every CSV written is byte-identical, regardless of worker count.
Wall-clock timings therefore never enter a CSV; they are reported in the
JSON summaries, whose ``*_time_s`` entries are the only non-reproducible
fields.  Start points are drawn from a named Philox stream, runs fan out
over a process pool (workers rebuild problems from their registry keys), and
results are ordered by start index before writing.  Each process keeps up
to 64 built problems by key (``_worker_problem``), above the 24 keys that
the bench's ``tri-table`` call sweeps, so a sweep builds each key once; 64
``ex1`` draws at the default n = 200, p = 100 hold about 31 MB.  A
tolerance sweep runs each (solver, start) once, at its tightest epsilon,
and reads every looser row off that run (``IterationTrace.until``); a row's
``wall_time`` is its time to stop, which ``summary.json``'s
``total_time_s`` sums.
"""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from .flow import FlowConfig, attach_merit, mavd_integrate, mavng_integrate, merit_bound_scan
from .merit import require_merit
from .problems import InvalidConfig, _stream, get_problem, objective_values, real_number, whole_number
from .solvers import QP_FAILURE, SolverConfig, run_solver, tolerance, trace_csv_rows

_START_STREAM = 104729  # stream index reserved for start-point sampling


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: problem, solver grid, tolerance sweep, flow sweep.

    ``solvers`` are templates; ``epsilons`` is crossed with them at run time.
    The flow fields are only consulted by :func:`flow_experiment` (and
    ``flow_x0`` by :func:`run_trace`); their defaults are
    :class:`~mograd.flow.FlowConfig`'s.  Counts must be whole numbers (``2.0``
    becomes ``2``, ``2.7`` is rejected), reals finite numbers (``3`` becomes
    ``3.0``; a bool or a string is rejected) and ``write_traces`` a bool;
    ``epsilons`` must be a non-empty tuple of distinct tolerances, each
    checked here, before any run, ``flow_alphas`` distinct in ``{alpha:g}``
    (their file names) and ``solvers`` a tuple or list of SolverConfig.
    """

    problem: str
    solvers: tuple = ()
    epsilons: tuple = (SolverConfig.epsilon,)
    n_starts: int = 10
    seed: int = 0
    workers: int = 1
    write_traces: bool = False
    merit_stride: int = 10
    flow_alphas: tuple = ()
    flow_beta: float = FlowConfig.beta
    flow_p: float = FlowConfig.p
    flow_h: float = FlowConfig.h
    flow_t_end: float = FlowConfig.t_end
    flow_x0: tuple = ()

    def __post_init__(self):
        if not isinstance(self.problem, str):
            raise InvalidConfig(f"problem must be a registry key string, not {self.problem!r}")
        for name, minimum in (("n_starts", 1), ("seed", 0), ("workers", 1), ("merit_stride", 1)):
            object.__setattr__(self, name, whole_number(name, getattr(self, name), minimum))
        for name in ("flow_beta", "flow_p", "flow_h", "flow_t_end"):
            object.__setattr__(self, name, real_number(name, getattr(self, name)))
        for name in ("flow_alphas", "flow_x0"):
            values = getattr(self, name)
            # a string would pass as its characters: "12" as (1.0, 2.0)
            if isinstance(values, str):
                raise InvalidConfig(f"{name} must be a list of numbers, not {values!r}")
            object.__setattr__(self, name, tuple(real_number(name, v) for v in values))
        # one pair of trajectory files per alpha: 5 and 5.0 would share them
        for i, alpha in enumerate(self.flow_alphas):
            for other in self.flow_alphas[:i]:
                if f"{other:g}" == f"{alpha:g}":
                    raise InvalidConfig(f"flow_alphas {other!r} and {alpha!r} share mavng_a{alpha:g}.csv")
        object.__setattr__(self, "epsilons", tuple(tolerance(v) for v in self.epsilons))
        for i, eps in enumerate(self.epsilons):
            if eps in self.epsilons[:i]:
                raise InvalidConfig(f"epsilons repeats {eps!r}")
        if not isinstance(self.solvers, (tuple, list)):
            raise InvalidConfig(f"solvers must be a list of SolverConfig, not {self.solvers!r}")
        for entry in self.solvers:
            if not isinstance(entry, SolverConfig):
                raise InvalidConfig(f"solvers entry {entry!r} is not a SolverConfig")
        object.__setattr__(self, "solvers", tuple(self.solvers))
        if not isinstance(self.write_traces, bool):
            raise InvalidConfig(f"write_traces must be true or false, not {self.write_traces!r}")
        if not self.epsilons:
            raise InvalidConfig("epsilons must not be empty")


@dataclass(frozen=True)
class RunRecord:
    solver: str
    epsilon: float
    start_index: int
    iterations: int
    termination: str
    final_kkt: float
    wall_time: float


@dataclass(frozen=True)
class CellSummary:
    """One (solver, epsilon) aggregate row of the comparison table."""

    problem: str
    solver: str
    epsilon: float
    starts: int
    converged: int
    total_iterations: int
    total_time_s: float


@dataclass
class BatchSummary:
    cells: list
    runs: list
    failures: int


def sample_starts(prob, n_starts, seed):
    """Seeded uniform start points from the problem's sampling box."""
    lo, hi = prob.init_box
    return _stream(seed, _START_STREAM).uniform(lo, hi, size=(n_starts, prob.n))


# ---------------------------------------------------------------------------
# deterministic file output


def _fmt(value):
    # most cells are floats from ndarray.tolist(): test for them first
    if type(value) is float:
        return "" if math.isnan(value) else repr(value)
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    v = float(value)
    return "" if math.isnan(v) else repr(v)


def write_csv(path, rows):
    """Write ``rows`` as CSV, one line each.  Every row is encoded before the
    file is opened, so a cell that cannot be encoded writes nothing: an
    existing file keeps its bytes and no file is created."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buf.getvalue(), newline="")
    return path


def _finite_or_null(value):
    """``value`` with every non-finite float inside it replaced by None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def write_json(path, payload):
    """Write ``payload`` as RFC 8259 JSON: a NaN or infinite float is ``null``.
    The whole text is encoded before the file is opened, so a value that
    cannot be encoded writes nothing: an existing file keeps its bytes and no
    file is created."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


_SOLVER_FIELDS = ("problem", "solvers", "epsilons", "seed")
# the ExperimentConfig fields each entry point reads, the split of the CLI's
# verb table; its JSON summary echoes only these
_ENTRY_FIELDS = {
    "run_batch": _SOLVER_FIELDS + ("n_starts", "workers", "write_traces"),
    "pareto_scan": _SOLVER_FIELDS + ("n_starts", "workers"),
    "flow_experiment": ("problem", "flow_alphas", "flow_beta", "flow_p", "flow_h", "flow_t_end",
                        "flow_x0", "merit_stride"),
    "run_trace": _SOLVER_FIELDS + ("flow_x0",),
}


def _config_echo(cfg, entry):
    fields = _ENTRY_FIELDS[entry]
    echo = {key: value for key, value in asdict(cfg).items() if key in fields}
    # a template's epsilon is never run: every entry point takes cfg.epsilons
    for solver in echo.get("solvers", ()):
        del solver["epsilon"]
    return echo


def _single_run(cfg, entry):
    """The one solver that ``pareto_scan`` and ``run_trace`` run, at their one epsilon."""
    if len(cfg.solvers) != 1 or len(cfg.epsilons) != 1:
        raise InvalidConfig(f"{entry} takes exactly one solver and one epsilon")
    return replace(cfg.solvers[0], epsilon=cfg.epsilons[0])


# ---------------------------------------------------------------------------
# worker-side execution (problems are rebuilt per process from their key)


# 64 keys, above the 24 that a bench tri-table call cycles through in order:
# an LRU bound below a sweep's key count misses on every key, so each call
# would rebuild every problem.  At most about 31 MB, 64 ex1 draws at the
# default n = 200, p = 100 (0.49 MB each).
@lru_cache(maxsize=64)
def _worker_problem(key):
    # the parent builds through this cache too, so a serial batch builds its
    # problem once, not once for the parent and again for the first task
    return get_problem(key)


def _run_one(task):
    """One run of ``solver_cfg``, whose epsilon is the tightest of ``epsilons``;
    (record, final F, trace) per epsilon."""
    problem_key, solver_cfg, epsilons, start_index, x0, keep_trace, with_f = task
    prob = _worker_problem(problem_key)
    trace = run_solver(prob, solver_cfg, np.asarray(x0))
    results = []
    for epsilon in epsilons:
        row = trace.until(epsilon)
        record = RunRecord(solver_cfg.variant, epsilon, start_index, row.iterations,
                           row.termination, row.final_residual, row.elapsed[-1])
        # the final objective vector costs an oracle call; only the front reads it
        final_f = tuple(objective_values(prob, row.x_final).tolist()) if with_f else None
        results.append((record, final_f, row if keep_trace else None))
    return results


def _map_tasks(tasks, workers):
    if workers <= 1:
        return [_run_one(t) for t in tasks]
    with multiprocessing.Pool(processes=workers) as pool:
        return pool.map(_run_one, tasks)


def run_batch(cfg, out_dir=None):
    """Run every (solver, start) once and write the (solver, epsilon) tables.

    Writes ``summary.csv`` (per-cell totals), ``runs.csv`` (one row per
    start, none dropped: failed runs keep their termination status), and
    ``summary.json`` (config echo plus wall times).  Optionally writes one
    trace CSV per run.
    """
    if not cfg.solvers:
        raise InvalidConfig("run_batch needs at least one solver")
    prob = _worker_problem(cfg.problem)
    starts = sample_starts(prob, cfg.n_starts, cfg.seed)

    # each solver's config is validated once, at the tightest epsilon, not
    # once per start
    tightest = min(cfg.epsilons)
    run_cfgs = [replace(solver_cfg, epsilon=tightest) for solver_cfg in cfg.solvers]
    tasks = [
        (cfg.problem, run_cfg, cfg.epsilons, idx, tuple(starts[idx]), cfg.write_traces, False)
        for run_cfg in run_cfgs
        for idx in range(cfg.n_starts)
    ]
    by_task = _map_tasks(tasks, cfg.workers)

    results, cells = [], []
    failures = 0
    for s, solver_cfg in enumerate(cfg.solvers):
        for j, eps in enumerate(cfg.epsilons):
            # task s * n_starts + idx ran solver s from start idx
            chunk = [rows[j] for rows in by_task[s * cfg.n_starts : (s + 1) * cfg.n_starts]]
            results += chunk
            cells.append(
                CellSummary(
                    problem=cfg.problem,
                    solver=solver_cfg.variant,
                    epsilon=eps,
                    starts=cfg.n_starts,
                    converged=sum(r.termination == "converged" for r, _, _ in chunk),
                    total_iterations=sum(r.iterations for r, _, _ in chunk),
                    total_time_s=sum(r.wall_time for r, _, _ in chunk),
                )
            )
            failures += sum(r.termination == QP_FAILURE for r, _, _ in chunk)
    runs = [record for record, _, _ in results]

    summary = BatchSummary(cells=cells, runs=runs, failures=failures)
    if out_dir is not None:
        out = Path(out_dir)
        write_csv(
            out / "summary.csv",
            [["problem", "solver", "epsilon", "starts", "converged", "total_iterations"]]
            + [
                [c.problem, c.solver, c.epsilon, c.starts, c.converged, c.total_iterations]
                for c in cells
            ],
        )
        write_csv(
            out / "runs.csv",
            [["problem", "solver", "epsilon", "start_index", "iterations", "termination", "final_kkt"]]
            + [
                [cfg.problem, r.solver, r.epsilon, r.start_index, r.iterations, r.termination, r.final_kkt]
                for r in runs
            ],
        )
        write_json(
            out / "summary.json",
            {
                "config": _config_echo(cfg, "run_batch"),
                "cells": [asdict(c) for c in cells],
                "failures": failures,
            },
        )
        if cfg.write_traces:
            for (record, _, trace) in results:
                name = f"trace_{record.solver}_eps{record.epsilon:g}_start{record.start_index}.csv"
                write_csv(out / name, trace_csv_rows(trace, prob))
    return summary


def pareto_scan(cfg, out_dir=None):
    """Run the one configured solver from every start and emit the front.

    ``front.csv`` holds one row per start with the final objective vector and
    KKT residual; non-converged points are flagged, never dropped.
    """
    solver_cfg = _single_run(cfg, "pareto_scan")
    prob = _worker_problem(cfg.problem)
    starts = sample_starts(prob, cfg.n_starts, cfg.seed)
    tasks = [
        (cfg.problem, solver_cfg, cfg.epsilons, idx, tuple(starts[idx]), False, True)
        for idx in range(cfg.n_starts)
    ]
    results = [rows[0] for rows in _map_tasks(tasks, cfg.workers)]

    header = (
        ["start_index"]
        + [f"f{i + 1}" for i in range(prob.m)]
        + ["kkt_residual", "converged"]
    )
    rows = [header]
    failures = 0
    points = []
    for record, final_f, _ in results:
        rows.append(
            [record.start_index]
            + list(final_f)
            + [record.final_kkt, record.termination == "converged"]
        )
        failures += record.termination == QP_FAILURE
        points.append((final_f, record.final_kkt, record.termination))
    if out_dir is not None:
        out = Path(out_dir)
        write_csv(out / "front.csv", rows)
        write_json(
            out / "front.json",
            {"config": _config_echo(cfg, "pareto_scan"), "failures": failures},
        )
    return points, failures


def flow_experiment(cfg, out_dir=None):
    """Integrate both flows for each alpha in the sweep and scan the bound.

    Writes one trajectory CSV per (system, alpha) with columns
    t, x_1..x_n, kkt_residual, merit and one row per point the integrator
    keeps at stride ``merit_stride`` (every ``merit_stride``-th grid point,
    the first and last always included), each with its merit sample,
    plus a JSON bound report over the same samples: per trajectory, the
    ``fraction`` with merit <= alpha / t^2, the paper's rate, and the
    uncertified ``constant`` max t^2 * merit (:class:`~mograd.flow.BoundReport`).

    The flows start at ``cfg.flow_x0``, or at the centre of the problem's
    init box when it is empty.  That centre is a Pareto-critical point of
    ``lse2``, ``jos1`` and ``toi4`` (KKT residual 0): a flow started there
    never moves, every merit sample is 0 and ``constant`` reads 0, so those
    problems need ``flow_x0``.
    """
    if not cfg.flow_alphas:
        raise InvalidConfig("flow_experiment needs a non-empty alpha sweep")
    prob = get_problem(cfg.problem)
    # merit is sampled on every trajectory: refuse a problem without it
    # before the first integration
    require_merit(prob)
    if cfg.flow_x0:
        # the flows check its dimension against the problem's
        x0 = np.asarray(cfg.flow_x0, dtype=float)
    else:
        lo, hi = prob.init_box
        x0 = 0.5 * (lo + hi)

    # every alpha is checked before the first integration writes a file
    flow_cfgs = [
        FlowConfig(alpha=alpha, x0=x0, beta=cfg.flow_beta, p=cfg.flow_p, h=cfg.flow_h,
                   t_end=cfg.flow_t_end)
        for alpha in cfg.flow_alphas
    ]
    report = []
    failures = 0
    for alpha, flow_cfg in zip(cfg.flow_alphas, flow_cfgs):
        for system, integrate in (("mavng", mavng_integrate), ("mavd", mavd_integrate)):
            traj = attach_merit(prob, integrate(prob, flow_cfg, cfg.merit_stride))
            failures += traj.termination != "completed"
            scan = merit_bound_scan(traj, alpha)
            report.append(
                {
                    "system": system,
                    "alpha": alpha,
                    "fraction": scan.fraction,
                    "constant": scan.constant,
                    "samples": len(scan.times),
                    "termination": traj.termination,
                }
            )
            if out_dir is not None:
                header = (
                    ["t"]
                    + [f"x{i + 1}" for i in range(prob.n)]
                    + ["kkt_residual", "merit"]
                )
                table = np.column_stack([traj.times, traj.points, traj.kkt_residuals, traj.merit])
                write_csv(Path(out_dir) / f"{system}_a{alpha:g}.csv", [header] + table.tolist())
    if out_dir is not None:
        write_json(
            Path(out_dir) / "bound_report.json",
            {
                "config": _config_echo(cfg, "flow_experiment"),
                "trajectories": report,
                "failures": failures,
            },
        )
    return report, failures


def run_trace(cfg, out_dir=None):
    """Single traced run from ``cfg.flow_x0`` (else a seeded start); exports its CSV."""
    solver_cfg = _single_run(cfg, "run_trace")
    prob = _worker_problem(cfg.problem)
    x0 = cfg.flow_x0 or tuple(sample_starts(prob, 1, cfg.seed)[0])
    [(_, _, trace)] = _run_one((cfg.problem, solver_cfg, cfg.epsilons, 0, x0, True, False))
    if out_dir is not None:
        out = Path(out_dir)
        write_csv(out / "trace.csv", trace_csv_rows(trace, prob))
        write_json(
            out / "trace.json",
            {
                "config": _config_echo(cfg, "run_trace"),
                "termination": trace.termination,
                "iterations": trace.iterations,
                "final_kkt": trace.final_residual,
                "x0": [float(v) for v in x0],
                "x_final": [float(v) for v in trace.x_final],
            },
        )
    return trace
