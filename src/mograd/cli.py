"""Command-line front end for the experiment harness.

Verbs: ``run`` (solver comparison batch), ``front`` (Pareto-front scan),
``flow`` (trajectory sweep with merit-bound report), ``trace`` (single traced
run), ``list`` (problem registry).  A JSON config file mirroring
ExperimentConfig can seed any verb; explicit flags override file values.

Exit codes: 0 on success, 1 on configuration errors, 2 when any run failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import (
    ExperimentConfig,
    flow_experiment,
    pareto_scan,
    run_batch,
    run_trace,
)
from .problems import InvalidConfig, available_problems
from .solvers import VARIANTS, SolverConfig


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the harness reserves 2
    # for run failures, so remap usage problems to the config-error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _add_common(sub):
    sub.add_argument("--problem", help="registry key, e.g. jos1 or ex1:n=20,p=10,seed=3")
    sub.add_argument("--solver", action="append", choices=VARIANTS, dest="solvers")
    sub.add_argument("--alpha", action="append", type=float,
                     help="inertial coefficient; repeat for a flow sweep")
    sub.add_argument("--beta", type=float, help="flow correction weight")
    sub.add_argument("--p", type=float, help="flow correction decay exponent")
    sub.add_argument("--step", type=float, help="constant step size")
    sub.add_argument("--s0", type=float, help="initial line-search step")
    sub.add_argument("--sigma", type=float, help="backtracking shrink factor")
    sub.add_argument("--eps", action="append", type=float, dest="epsilons",
                     help="stop tolerance; repeat for a sweep")
    sub.add_argument("--k-max", type=int, dest="k_max")
    sub.add_argument("--starts", type=int, dest="n_starts")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--workers", type=int)
    sub.add_argument("--merit-stride", type=int, dest="merit_stride")
    sub.add_argument("--out", help="output directory for CSV/JSON artifacts")
    sub.add_argument("--config", help="JSON config file; flags override it")


def build_parser():
    parser = _Parser(prog="mograd", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb, desc in (
        ("run", "batch solver comparison over a tolerance sweep"),
        ("front", "Pareto-front scan from sampled start points"),
        ("flow", "flow trajectory sweep with merit-bound report"),
        ("trace", "single run with per-iteration CSV export"),
    ):
        sub = subs.add_parser(verb, description=desc)
        _add_common(sub)
        if verb == "run":
            sub.add_argument("--traces", action="store_true", help="write per-run trace CSVs")
        if verb == "flow":
            sub.add_argument("--h", type=float, dest="flow_h", help="grid step")
            sub.add_argument("--t0", type=float, dest="flow_t0")
            sub.add_argument("--t-end", type=float, dest="flow_t_end")
            sub.add_argument("--x0", help="comma-separated start point")
            sub.add_argument("--bound-scale", type=float, dest="bound_coeff_scale",
                             help="bound coefficient multiple of alpha (1 or 10)")
        if verb == "trace":
            sub.add_argument("--x0", help="comma-separated start point")
    subs.add_parser("list", description="list the problem registry")
    return parser


def _experiment_config(args):
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)

    def pick(name, default=None):
        value = getattr(args, name, None)
        if value is not None:
            return value
        return file_cfg.get(name, default)

    problem = pick("problem")
    if not problem:
        raise InvalidConfig("a problem key is required (--problem or config file)")

    solver_names = pick("solvers") or []
    solver_common = {}
    alphas = pick("alpha")
    if isinstance(alphas, (int, float)):
        alphas = [alphas]
    if alphas and len(alphas) > 1 and args.verb != "flow":
        raise InvalidConfig(
            f"{args.verb} takes a single alpha; repeat --alpha only for a flow sweep"
        )
    if alphas:
        solver_common["alpha"] = float(alphas[0])
    step = pick("step")
    s0 = getattr(args, "s0", None) if getattr(args, "s0", None) is not None else file_cfg.get("s0")
    for key in ("sigma", "k_max"):
        value = pick(key)
        if value is not None:
            solver_common[key] = value
    solvers = []
    for name in solver_names:
        kwargs = dict(solver_common)
        if name.endswith("_const"):
            if step is not None:
                kwargs["step"] = float(step)
        elif s0 is not None:
            kwargs["step"] = float(s0)
        solvers.append(SolverConfig(variant=name, **kwargs))

    fields = dict(
        problem=problem,
        solvers=tuple(solvers),
        epsilons=tuple(pick("epsilons") or [1e-6]),
        n_starts=int(pick("n_starts", 10)),
        seed=int(pick("seed", 0)),
        workers=int(pick("workers", 1)),
        write_traces=bool(getattr(args, "traces", False) or file_cfg.get("write_traces", False)),
        merit_stride=int(pick("merit_stride", 10)),
        flow_alphas=tuple(alphas or file_cfg.get("flow_alphas", ())),
        flow_beta=float(pick("beta", file_cfg.get("flow_beta", 3.0))),
        flow_p=float(pick("p", file_cfg.get("flow_p", 1.0))),
        flow_t0=float(pick("flow_t0", 1.0)),
        flow_h=float(pick("flow_h", 1e-3)),
        flow_t_end=float(pick("flow_t_end", 20.0)),
        bound_coeff_scale=float(pick("bound_coeff_scale", 1.0)),
    )
    x0_raw = getattr(args, "x0", None) or file_cfg.get("x0")
    if x0_raw:
        if isinstance(x0_raw, str):
            fields["flow_x0"] = tuple(float(v) for v in x0_raw.split(","))
        else:
            fields["flow_x0"] = tuple(float(v) for v in x0_raw)
    return ExperimentConfig(**fields), x0_raw


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "list":
            for name, params in available_problems().items():
                extra = f"  (params: {', '.join(params)})" if params else ""
                print(f"{name}{extra}")
            return 0
        cfg, x0_raw = _experiment_config(args)
        out = getattr(args, "out", None)
        if args.verb == "run":
            summary = run_batch(cfg, out_dir=out)
            for cell in summary.cells:
                print(
                    f"{cell.problem} {cell.solver} eps={cell.epsilon:g}: "
                    f"{cell.converged}/{cell.starts} converged, "
                    f"{cell.total_iterations} iterations, {cell.total_time_s:.2f}s"
                )
            return 2 if summary.failures else 0
        if args.verb == "front":
            points, failures = pareto_scan(cfg, out_dir=out)
            print(f"{cfg.problem}: {len(points)} front points, {failures} failures")
            return 2 if failures else 0
        if args.verb == "flow":
            report, failures = flow_experiment(cfg, out_dir=out)
            for entry in report:
                print(
                    f"{entry['system']} alpha={entry['alpha']:g}: "
                    f"bound {entry['coeff']:g}/t^2 holds at "
                    f"{100 * entry['fraction']:.1f}% of {entry['samples']} samples"
                )
            return 2 if failures else 0
        if args.verb == "trace":
            x0 = None
            if x0_raw and isinstance(x0_raw, str):
                x0 = [float(v) for v in x0_raw.split(",")]
            elif x0_raw:
                x0 = list(x0_raw)
            trace = run_trace(cfg, out_dir=out, x0=x0)
            print(
                f"{cfg.problem} {cfg.solvers[0].variant}: {trace.termination} "
                f"after {trace.iterations} iterations, final kkt {trace.final_residual:.3e}"
            )
            return 2 if trace.termination == "qp_failure" else 0
        raise InvalidConfig(f"unknown verb {args.verb!r}")
    except (InvalidConfig, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"mograd: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
