"""Outside-in tracing of the mograd layers.

The tracer never edits the package.  It replaces, for the duration of a
traced call, the names each consumer module imported from the layer below
(``mograd.solvers.min_norm_in_hull``, ``mograd.harness.run_solver``, ...)
with timing wrappers, and wraps the oracle callables of every problem the
harness builds.  ``mograd.simplex_qp`` itself is left alone, so the internal
``min_norm_in_hull`` -> ``project_onto_scaled_hull`` call is one span, not
two.

Every wrapped call records a span (id, parent id, layer, name, start, end)
in memory.  A layer's self time is its spans' durations minus the time their
child spans cover; the self times of all layers add up to the duration of
the outermost span, the harness entry point the benchmark calls.

Counts come only from public return values (``HullSolution``,
``MeritResult``, ``IterationTrace``, the step returned by the line search),
so they do not depend on the machine and must repeat exactly.
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import defaultdict
from contextlib import contextmanager

import mograd.flow
import mograd.harness
import mograd.merit
import mograd.problems
import mograd.solvers

LAYERS = ("problems", "simplex_qp", "solvers", "flow", "merit", "harness")

# (module, attribute) -> (layer, span name): the names each consumer imported
_PATCHES = {
    (mograd.solvers, "min_norm_in_hull"): ("simplex_qp", "min_norm"),
    (mograd.solvers, "project_onto_scaled_hull"): ("simplex_qp", "project"),
    (mograd.solvers, "line_search_backtracking"): ("solvers", "line_search"),
    (mograd.flow, "min_norm_in_hull"): ("simplex_qp", "min_norm"),
    (mograd.flow, "project_onto_scaled_hull"): ("simplex_qp", "project"),
    (mograd.flow, "merit_value"): ("merit", "eval"),
    (mograd.merit, "min_norm_in_hull"): ("simplex_qp", "min_norm"),
    (mograd.problems, "min_norm_in_hull"): ("simplex_qp", "min_norm"),
    (mograd.harness, "run_solver"): ("solvers", "run"),
    (mograd.harness, "mavng_integrate"): ("flow", "integrate"),
    (mograd.harness, "mavd_integrate"): ("flow", "integrate"),
    (mograd.harness, "attach_merit"): ("flow", "attach_merit"),
    (mograd.harness, "merit_bound_scan"): ("flow", "bound_scan"),
    (mograd.harness, "write_csv"): ("harness", "write_csv"),
    (mograd.harness, "get_problem"): ("problems", "get_problem"),
}


class Tracer:
    """Span recorder with per-(layer, name) totals and deterministic counts."""

    def __init__(self):
        self.spans = []  # (id, parent id, layer, name, start, end)
        self.calls = defaultdict(int)  # (layer, name) -> calls
        self.inclusive = defaultdict(float)  # (layer, name) -> seconds
        self.self_time = defaultdict(float)  # layer -> seconds
        self.counts = defaultdict(int)  # deterministic counters
        self.max_gap = 0.0
        self._stack = []  # [span id, child seconds] per open span
        self._next_id = 0

    def wrap(self, layer, name, fn, on_result=None):
        """Return ``fn`` wrapped in a span; ``on_result(args, result)`` counts."""
        key = (layer, name)
        stack = self._stack
        spans = self.spans
        calls = self.calls
        inclusive = self.inclusive
        self_time = self.self_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[key] += 1
                inclusive[key] += duration
                self_time[layer] += duration - frame[1]
                spans.append((sid, parent, layer, name, start, end))
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    # -- counters fed from public return values -------------------------

    def _hull(self, prefix):
        def count(args, sol):
            self.counts[f"{prefix}.qp_iters"] += sol.iterations
            self.counts["unconverged"] += not sol.converged
            self.max_gap = max(self.max_gap, sol.gap)

        return count

    def _run(self, args, trace):
        self.counts["runs"] += 1
        self.counts["iters"] += trace.iterations
        self.counts["ls_cap_hits"] += trace.ls_cap_hits
        self.counts[f"termination.{trace.termination}"] += 1

    def _line_search(self, args, result):
        # line_search_backtracking(prob, w, s0, sigma, d) returns s0 sigma^j
        s0, sigma = args[2], args[3]
        step, _ = result
        self.counts["backtracks"] += round(math.log(step / s0) / math.log(sigma))

    def _integrate(self, args, traj):
        self.counts["steps"] += len(traj) - 1
        self.counts[f"trajectory.{traj.termination}"] += 1

    def _merit(self, args, result):
        self.counts["evals"] += 1
        self.counts["inner_iters"] += result.iterations
        self.counts["merit_unconverged"] += not result.converged

    def _csv(self, args, path):
        self.counts["write_csv.bytes"] += path.stat().st_size

    def _callback(self, layer, name):
        return {
            "min_norm": self._hull("min_norm"),
            "project": self._hull("project"),
            "run": self._run,
            "line_search": self._line_search,
            "integrate": self._integrate,
            "eval": self._merit,
            "write_csv": self._csv,
        }.get(name)

    def _traced_problem(self, prob):
        return dataclasses.replace(
            prob,
            objectives=self.wrap("problems", "objectives", prob.objectives),
            gradient_columns=self.wrap(
                "problems", "gradient_columns", prob.gradient_columns
            ),
        )

    @contextmanager
    def installed(self):
        """Patch every consumer name for the duration of the block."""
        saved = {target: getattr(*target) for target in _PATCHES}
        try:
            for (module, attr), (layer, name) in _PATCHES.items():
                wrapped = self.wrap(layer, name, saved[module, attr], self._callback(layer, name))
                if attr == "get_problem":
                    wrapped = self._wrap_problem_factory(wrapped)
                setattr(module, attr, wrapped)
            # the worker-side cache would otherwise hand out untraced oracles
            mograd.harness._worker_problem.cache_clear()
            yield self
        finally:
            for (module, attr), original in saved.items():
                setattr(module, attr, original)
            mograd.harness._worker_problem.cache_clear()

    def _wrap_problem_factory(self, factory):
        def get_problem(key):
            return self._traced_problem(factory(key))

        return get_problem

    def span(self, layer, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of its own (the benchmark's entry call)."""
        return self.wrap(layer, name, fn)(*args, **kwargs)

    def write_spans(self, path):
        """Write the recorded spans as CSV, times in microseconds."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id,parent,layer,name,start_us,end_us\n")
            for sid, parent, layer, name, start, end in sorted(self.spans):
                fh.write(
                    f"{sid},{parent},{layer},{name},"
                    f"{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f}\n"
                )

    def deterministic_counts(self):
        """Counts that must repeat exactly for the same inputs and code."""
        out = {f"{layer}.{name}.calls": n for (layer, name), n in sorted(self.calls.items())}
        out.update(sorted(self.counts.items()))
        out["max_gap"] = self.max_gap
        return out


def layer_metrics(tracer, traced_wall):
    """Per-layer metric values of one traced workload call.

    ``traced_wall`` is that call's wall time, measured around it by the
    caller; the shares are self times as fractions of it.
    """
    calls = tracer.calls
    incl = tracer.inclusive
    cnt = tracer.counts
    selfs = tracer.self_time

    def per(total, n, scale):
        return total * scale / n if n else 0.0

    def share(layer):
        return selfs[layer] / traced_wall

    qp = ("simplex_qp", "min_norm"), ("simplex_qp", "project")
    obj = ("problems", "objectives")
    grad = ("problems", "gradient_columns")
    ls = ("solvers", "line_search")
    merit = ("merit", "eval")
    csv_key = ("harness", "write_csv")
    values = {
        "simplex_qp.min_norm.calls": (calls[qp[0]], "count"),
        "simplex_qp.min_norm.us_per_call": (per(incl[qp[0]], calls[qp[0]], 1e6), "us"),
        "simplex_qp.min_norm.qp_iters": (cnt["min_norm.qp_iters"], "count"),
        "simplex_qp.project.calls": (calls[qp[1]], "count"),
        "simplex_qp.project.us_per_call": (per(incl[qp[1]], calls[qp[1]], 1e6), "us"),
        "simplex_qp.project.qp_iters": (cnt["project.qp_iters"], "count"),
        "simplex_qp.max_gap": (tracer.max_gap, "1"),
        "simplex_qp.unconverged": (cnt["unconverged"], "count"),
        "simplex_qp.share": (share("simplex_qp"), "frac"),
        "problems.objectives.calls": (calls[obj], "count"),
        "problems.objectives.us_per_call": (per(incl[obj], calls[obj], 1e6), "us"),
        "problems.gradient_columns.calls": (calls[grad], "count"),
        "problems.gradient_columns.us_per_call": (per(incl[grad], calls[grad], 1e6), "us"),
        "problems.share": (share("problems"), "frac"),
        "solvers.runs": (cnt["runs"], "count"),
        "solvers.iters": (cnt["iters"], "count"),
        "solvers.self_us_per_iter": (per(selfs["solvers"], cnt["iters"], 1e6), "us"),
        "solvers.line_search.calls": (calls[ls], "count"),
        "solvers.line_search.us_per_call": (per(incl[ls], calls[ls], 1e6), "us"),
        "solvers.line_search.backtracks": (cnt["backtracks"], "count"),
        "solvers.line_search.cap_hits": (cnt["ls_cap_hits"], "count"),
        "solvers.k_max_runs": (cnt["termination.k_max"], "count"),
        "solvers.qp_failure_runs": (cnt["termination.qp_failure"], "count"),
        "solvers.share": (share("solvers"), "frac"),
        "flow.steps": (cnt["steps"], "count"),
        "flow.self_us_per_step": (per(selfs["flow"], cnt["steps"], 1e6), "us"),
        "flow.share": (share("flow"), "frac"),
        "merit.evals": (cnt["evals"], "count"),
        "merit.ms_per_eval": (per(incl[merit], calls[merit], 1e3), "ms"),
        "merit.inner_iters": (cnt["inner_iters"], "count"),
        "merit.unconverged": (cnt["merit_unconverged"], "count"),
        "merit.share": (share("merit"), "frac"),
        "harness.write_csv.s": (incl[csv_key], "s"),
        "harness.write_csv.bytes": (cnt["write_csv.bytes"], "bytes"),
        "harness.self_s": (selfs["harness"], "s"),
        "harness.share": (share("harness"), "frac"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
