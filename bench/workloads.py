"""The benchmark's workloads, their set-up and their output checks.

Each workload drives one harness entry point (``run_batch`` or
``flow_experiment``) on inputs made from the workload seed, and loads the
layers differently:

* ``bi-table``: m = 2 tables on jos1, quad2, toi4 and sd, all five solver
  variants, a loose and a tight epsilon, a per-run k_max cap.  The QP is the
  m = 2 closed form and the oracles are cheap, so per-iteration Python cost
  (QP call overhead, line search, oracles, solver loop) dominates.
* ``tri-table``: m = 3 tables on twelve data draws each of ex1 and ex2 at
  n = 40, where the iterative accelerated-projected-gradient QP dominates
  and the oracles are matvecs.
* ``flow-merit``: both flows on quad2 with merit sampling, the only
  workload through ``flow`` and ``merit`` and the heaviest CSV writer.

There is no ``pareto_scan`` workload: a process pool on a two-core share of
a busy host measures the scheduler more than the package.

A workload call returns an :class:`Outcome`; ``check`` reads the CSVs the
call wrote and returns a list of problems found (empty when all is well).
"""

from __future__ import annotations

import csv
import json
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass

import mograd.harness as harness
from mograd.harness import ExperimentConfig, flow_experiment, run_batch, sample_starts
from mograd.problems import get_problem
from mograd.solvers import VARIANTS, SolverConfig

# Known failures of the package on these workloads.  They are counted in
# converged_frac, never excluded; a qp_failure anywhere else fails the
# output check.
KNOWN_FAILURES = {
    ("sd", "mfisc_ls"): "qp_failure after 1-2 iterations: the probe y leaves "
    "the positive orthant and sd's gradient_columns raises",
    ("sd", "accg_ls"): "qp_failure after 1-2 iterations, same cause as mfisc_ls",
    ("sd", "steepest_ls"): "k_max: stalls at KKT residual 3.0 with steps near "
    "1e-29 until the per-run cap",
    ("ex2", "mfisc_ls"): "qp_failure at the first step on some data draws and "
    "starts: the projection QP at scale s0 = 10 (gradient norms near 1e3) "
    "stops above its certificate tolerance",
    ("ex2", "accg_ls"): "qp_failure at the first step, same cause as mfisc_ls",
}


@dataclass
class Outcome:
    """What one workload call produced, read from the entry points' returns."""

    runs: int  # solver runs, or flow trajectories
    ok: int  # runs ending "converged", trajectories ending "completed"
    iterations: int  # solver iterations, or flow steps
    run_ms: list  # latency of each run


def _dirname(key):
    return re.sub(r"[^A-Za-z0-9]+", "_", key).strip("_")


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@contextmanager
def _probe(module, attr, sink):
    """Append (seconds, result) of every call of ``module.attr`` to ``sink``."""
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        result = original(*args, **kwargs)
        sink.append((time.perf_counter() - start, result))
        return result

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


class TableWorkload:
    """``run_batch`` over a problem list: the tolerance-sweep tables."""

    def __init__(self, seed, keys, epsilons, k_max, n_starts, const_steps):
        self.seed = seed
        self.keys = keys
        self.n_starts = n_starts
        self.configs = []
        for key in keys:
            step = const_steps.get(key.partition(":")[0])
            solvers = tuple(
                SolverConfig(
                    variant=v, k_max=k_max, step=step if v.endswith("_const") else None
                )
                for v in VARIANTS
            )
            self.configs.append(
                ExperimentConfig(
                    problem=key, solvers=solvers, epsilons=epsilons,
                    n_starts=n_starts, seed=seed,
                )
            )

    def setup(self):
        for key in self.keys:
            sample_starts(get_problem(key), self.n_starts, self.seed)

    def call(self, out):
        runs = []
        for cfg in self.configs:
            runs.extend(run_batch(cfg, out / _dirname(cfg.problem)).runs)
        return Outcome(
            runs=len(runs),
            ok=sum(r.termination == "converged" for r in runs),
            iterations=sum(r.iterations for r in runs),
            run_ms=[1e3 * r.wall_time for r in runs],
        )

    def check(self, out):
        errors = []
        for cfg in self.configs:
            d = out / _dirname(cfg.problem)
            name = cfg.problem.partition(":")[0]
            runs = _read_csv(d / "runs.csv")
            cells = {}
            for r in runs:
                if r["termination"] == "converged" and not float(r["final_kkt"]) < float(r["epsilon"]):
                    errors.append(f"{d.name}: converged run with final_kkt >= epsilon: {r}")
                if r["termination"] == "qp_failure" and (name, r["solver"]) not in KNOWN_FAILURES:
                    errors.append(f"{d.name}: unexpected qp_failure: {r}")
                cell = cells.setdefault((r["solver"], r["epsilon"]), [0, 0, 0])
                cell[0] += 1
                cell[1] += r["termination"] == "converged"
                cell[2] += int(r["iterations"])
            summary = _read_csv(d / "summary.csv")
            if len(summary) != len(cells) or len(runs) != len(summary) * cfg.n_starts:
                errors.append(f"{d.name}: summary.csv and runs.csv disagree on row counts")
            for s in summary:
                totals = [int(s["starts"]), int(s["converged"]), int(s["total_iterations"])]
                if cells.get((s["solver"], s["epsilon"])) != totals:
                    errors.append(f"{d.name}: summary row {s} != runs.csv sums")
        return errors


class FlowWorkload:
    """``flow_experiment``: both flows per alpha, merit sampled on a stride."""

    def __init__(self, seed, key, alphas, beta, t_end, h, x0, merit_stride):
        self.key = key
        self.config = ExperimentConfig(
            problem=key, flow_alphas=alphas, flow_beta=beta, flow_t_end=t_end,
            flow_h=h, flow_x0=x0, merit_stride=merit_stride, seed=seed,
        )

    def setup(self):
        get_problem(self.key)

    def call(self, out):
        integrated, merits = [], []
        with _probe(harness, "mavng_integrate", integrated), \
                _probe(harness, "mavd_integrate", integrated), \
                _probe(harness, "attach_merit", merits):
            report, _ = flow_experiment(self.config, out)
        # harness.flow_experiment attaches merit to each trajectory right
        # after integrating it, so the two lists pair up in order
        return Outcome(
            runs=len(report),
            ok=sum(r["termination"] == "completed" for r in report),
            iterations=sum(len(traj) - 1 for _, traj in integrated),
            run_ms=[1e3 * (ti + tm) for (ti, _), (tm, _) in zip(integrated, merits)],
        )

    def check(self, out):
        errors = []
        with open(out / "bound_report.json") as fh:
            report = json.load(fh)["trajectories"]
        for entry in report:
            if entry["termination"] != "completed":
                errors.append(f"trajectory {entry['system']} a={entry['alpha']} ended {entry['termination']}")
        for alpha in self.config.flow_alphas:
            rows = _read_csv(out / f"mavng_a{alpha:g}.csv")
            window = [
                (float(r["t"]), float(r["merit"]))
                for r in rows
                if r["merit"] != "" and 2.0 <= float(r["t"]) <= 20.0
            ]
            held = sum(phi <= alpha / (t * t) for t, phi in window)
            if not window or held < 0.99 * len(window):
                errors.append(f"mavng a={alpha:g}: merit <= a/t^2 on {held}/{len(window)} samples in [2, 20]")
        return errors


def make_workload(name, seed):
    """Build the named workload from the workload seed."""
    # jos1's constant step 0.05 is the README's table preset; the k_max cap
    # keeps sd/steepest_ls's stall from swamping the table.  Run lengths
    # spread widely, so the median run depends on the starts drawn: 16 starts
    # keep run_ms_p50 steadier across seeds than 8.
    if name == "bi-table":
        return TableWorkload(
            seed, keys=("jos1", "quad2", "toi4", "sd"), epsilons=(1e-3, 1e-6),
            k_max=150, n_starts=16, const_steps={"jos1": 0.05},
        )
    # twelve data draws per family, one start each: the QP's work depends on
    # the data, and averaging over draws keeps a call's work, and the median
    # run, steady across seeds (with eight draws the median run still moved
    # by 9% between seeds).  At epsilon 1e-4, ex1/mfisc_ls converges within
    # about 40 iterations and nearly every other run needs more than 58, so
    # k_max = 48 also keeps converged_frac near 0.1 on every seed.
    if name == "tri-table":
        keys = tuple(
            f"{family}:n=40,p={p},seed={12 * seed + draw}"
            for family, p in (("ex1", 20), ("ex2", 40))
            for draw in range(12)
        )
        return TableWorkload(
            seed, keys=keys, epsilons=(1e-4,), k_max=48, n_starts=1, const_steps={},
        )
    # h = 5e-3 instead of the 1e-3 default keeps a call near 1.5 s, so a run
    # makes several; the flows read no random input, so the seed changes nothing
    if name == "flow-merit":
        return FlowWorkload(
            seed, key="quad2", alphas=(50.0, 100.0), beta=3.0, t_end=20.0,
            h=5e-3, x0=(-0.2, -0.1), merit_stride=100,
        )
    raise KeyError(name)


WORKLOADS = ("bi-table", "tri-table", "flow-merit")
