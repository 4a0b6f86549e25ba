"""Command-line front end for the experiment harness.

Verbs: ``run`` (solver comparison batch), ``front`` (Pareto-front scan),
``flow`` (trajectory sweep with merit-bound report), ``trace`` (single traced
run), ``list`` (problem registry).  ``_VERBS`` names the flags each verb
reads; ``--solver`` and ``--eps`` repeat only on ``run`` and ``--alpha`` only
on ``flow``.  A JSON config file can seed any verb: its keys are the dests
of the verb's flags (``flow_beta`` for ``--beta``), a repeatable key takes a
value or a list under the same rule, a flag given overrides the key of the
same name, and any other key, or a repeat of any other flag, is a
configuration error.  Defaults live in ExperimentConfig (the flow ones in
FlowConfig) and SolverConfig.

Exit codes: 0 on success, 1 on configuration errors, 2 when any run failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import ExperimentConfig, flow_experiment, pareto_scan, run_batch, run_trace
from .problems import InvalidConfig, available_problems, real_number
from .solvers import VARIANTS, SolverConfig


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the harness reserves 2
    # for run failures, so remap usage problems to the config-error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _point(text):
    return tuple(float(v) for v in text.split(","))


def _count(text):
    # the number it spells, which whole_number checks as it does a config file's
    try:
        return int(text)
    except ValueError:
        return float(text)


# every flag's argparse options; the dest is the flag's config-file key
_FLAGS = {
    "--problem": dict(help="registry key, e.g. jos1 or ex1:n=20,p=10,seed=3"),
    "--solver": dict(choices=VARIANTS, dest="solvers"),
    "--alpha": dict(type=float, help="inertial coefficient"),
    "--step": dict(type=float, help="constant step size"),
    "--s0": dict(type=float, help="initial line-search step"),
    "--eps": dict(type=float, dest="epsilons", help="stop tolerance"),
    "--k-max": dict(type=_count, dest="k_max"),
    "--starts": dict(type=_count, dest="n_starts"),
    "--seed": dict(type=_count),
    "--workers": dict(type=_count),
    "--traces": dict(action="append_const", const=True, dest="write_traces", help="write traces"),
    "--beta": dict(type=float, dest="flow_beta", help="flow correction weight"),
    "--p": dict(type=float, dest="flow_p", help="flow correction decay exponent"),
    "--h": dict(type=float, dest="flow_h", help="grid step"),
    "--t-end": dict(type=float, dest="flow_t_end"),
    "--x0": dict(type=_point, dest="flow_x0", help="comma-separated start point"),
    "--merit-stride": dict(type=_count, dest="merit_stride"),
}
# every flag appends its values, so a repeat is seen; these keys keep the list
_LISTS = ("--solver", "--alpha", "--eps")
_SOLVER_FLAGS = ("--problem", "--solver", "--alpha", "--step", "--s0", "--eps", "--k-max", "--seed")
# verb: (description, the flags it reads, the flags it lets repeat)
_VERBS = {
    "run": ("batch solver comparison over a tolerance sweep",
            _SOLVER_FLAGS + ("--starts", "--workers", "--traces"), ("--solver", "--eps")),
    "front": ("Pareto-front scan from sampled start points",
              _SOLVER_FLAGS + ("--starts", "--workers"), ()),
    "flow": ("flow trajectory sweep with merit-bound report",
             ("--problem", "--alpha", "--beta", "--p", "--h", "--t-end", "--x0", "--merit-stride"),
             ("--alpha",)),
    "trace": ("single run with per-iteration CSV export", _SOLVER_FLAGS + ("--x0",), ()),
}


def build_parser():
    parser = _Parser(prog="mograd", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="verb", required=True)
    for verb, (desc, flags, repeats) in _VERBS.items():
        epilog = f"repeatable: {' '.join(repeats)}" if repeats else None
        # no abbreviations: on run, --p would be read as --problem
        sub = subs.add_parser(verb, description=desc, epilog=epilog, allow_abbrev=False)
        for flag in flags:
            sub.add_argument(flag, **{"action": "append", **_FLAGS[flag]})
        sub.add_argument("--out", action="append", help="output directory for CSV/JSON artifacts")
        sub.add_argument("--config", action="append", help="JSON config file; flags override it")
    subs.add_parser("list", description="list the problem registry")
    return parser


def _single(args, name):
    """The one value of ``--out`` or ``--config``, or None when it is absent."""
    values = getattr(args, name) or ()
    if len(values) > 1:
        raise InvalidConfig(f"{args.verb} takes a single {name} (--{name})")
    return values[0] if values else None


def _experiment_config(args):
    """The config file's keys overlaid with the given flags; no defaults here."""
    keys = set(vars(args)) - {"verb", "out", "config"}
    settings = {}
    config = _single(args, "config")
    if config:
        with open(config) as fh:
            settings = json.load(fh)
        if not isinstance(settings, dict):
            raise InvalidConfig(f"config file {config} must hold a JSON object of settings")
        unknown = sorted(set(settings) - keys)
        if unknown:
            raise InvalidConfig(f"unknown config key(s) for {args.verb}: {', '.join(unknown)}")
    _, flags, repeats = _VERBS[args.verb]
    for flag in flags:
        key = _FLAGS[flag].get("dest", flag[2:])
        given = getattr(args, key)  # the flag's values, None when it is absent
        if given is not None:
            settings[key] = given if flag in _LISTS else given[0]
        elif flag in _LISTS and key in settings and not isinstance(settings[key], list):
            settings[key] = [settings[key]]
        values = settings.get(key, ()) if flag in _LISTS else given or ()
        if len(values) > 1 and flag not in repeats:
            raise InvalidConfig(f"{args.verb} takes a single {flag[2:]} ({flag})")
    if not settings.get("problem"):
        raise InvalidConfig("a problem key is required (--problem or config file)")
    alphas = [real_number("alpha", v) for v in settings.pop("alpha", [])]
    solver_common = {"k_max": settings.pop("k_max")} if "k_max" in settings else {}
    if alphas:
        solver_common["alpha"] = alphas[0]
    steps = {key: settings.pop(key, None) for key in ("step", "s0")}
    solvers = []
    for name in settings.pop("solvers", ()):
        kwargs = dict(solver_common)
        # the constant step for *_const, the line search's first trial step otherwise
        key = "step" if name.endswith("_const") else "s0"
        if steps[key] is not None:
            kwargs["step"] = real_number(key, steps[key])
        solvers.append(SolverConfig(variant=name, **kwargs))
    flow_alphas = alphas if args.verb == "flow" else ()
    return ExperimentConfig(solvers=solvers, flow_alphas=flow_alphas, **settings)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.verb == "list":
            for name, params in available_problems().items():
                extra = f"  (params: {', '.join(params)})" if params else ""
                print(f"{name}{extra}")
            return 0
        try:
            cfg = _experiment_config(args)
        except TypeError as exc:
            # a config-file value of the wrong JSON type, e.g. "alpha": null
            raise InvalidConfig(f"config value of the wrong type: {exc}") from exc
        out = _single(args, "out")
        if args.verb == "run":
            summary = run_batch(cfg, out_dir=out)
            for cell in summary.cells:
                print(f"{cell.problem} {cell.solver} eps={cell.epsilon:g}: {cell.converged}/"
                      f"{cell.starts} converged, {cell.total_iterations} iterations, "
                      f"{cell.total_time_s:.2f}s")
            return 2 if summary.failures else 0
        if args.verb == "front":
            points, failures = pareto_scan(cfg, out_dir=out)
            print(f"{cfg.problem}: {len(points)} front points, {failures} failures")
            return 2 if failures else 0
        if args.verb == "flow":
            report, failures = flow_experiment(cfg, out_dir=out)
            for entry in report:
                print(f"{entry['system']} alpha={entry['alpha']:g}: bound {entry['alpha']:g}/t^2 "
                      f"holds at {100 * entry['fraction']:.1f}% of {entry['samples']} samples, "
                      f"max t^2*merit {entry['constant']:.4g}")
            return 2 if failures else 0
        if args.verb == "trace":
            trace = run_trace(cfg, out_dir=out)
            print(f"{cfg.problem} {cfg.solvers[0].variant}: {trace.termination} after "
                  f"{trace.iterations} iterations, final kkt {trace.final_residual:.3e}")
            return 2 if trace.termination == "qp_failure" else 0
        raise InvalidConfig(f"unknown verb {args.verb!r}")
    except (InvalidConfig, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"mograd: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
