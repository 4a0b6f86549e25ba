"""mograd benchmark: one workload per invocation, end to end or traced.

Usage (from the repository root)::

    python3 bench/run.py --workload bi-table --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing: the workload
is called once to warm up, then again and again until ``--seconds`` have
passed, with a block of repeated set-ups before each call. All the while a
:class:`speed.SpeedProbe` samples the machine's speed; each call's time is
its time net of the probes, rescaled to the reference speed by the probes
that ran during it. ``wall_s`` is the median rescaled call. The package
times each run itself, probes included, so each run's latency is rescaled
and also shrunk by its call's net share; ``run_ms_p50`` is the median across
runs of each run's median over the calls. ``setup_s`` is the median over the
set-up blocks, each rescaled in the same way by its own probes. The raw call
times are in ``.bench_out/<workload>/result.json``. BLAS is held to one
thread.
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics of :mod:`tracer`, each the median over the traced calls;
the tracing overhead compares median calls.

Every call's CSVs must be byte-identical to the first call's; the traced
calls must also repeat the same deterministic counts.  The workload's own
output checks run on the first call.  With the seed recorded
in ``bench/reference.json``, the CSV digests and counts are compared with
that file; when ``src/`` is unchanged since it was recorded they must match.
``--record`` rewrites the workload's entry there.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
(digests, counts, environment, spans of the last traced call) is written
under ``.bench_out/<workload>/``.  The exit code is 0 whenever that line was
printed, 2 when the package under ``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread: the workloads' matrices are tiny, and a second thread on a
# two-core share only measures the scheduler
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_BLOCK_S = 0.1
MIN_CALLS = 5


def _import_package():
    """Import mograd from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import mograd

    if Path(mograd.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"mograd imported from {mograd.__file__}, not from {SRC}")
    return mograd


def src_fingerprint():
    """SHA-256 over the package sources, and their line count."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data + b"\0")
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def csv_digests(out):
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*.csv"))
    }


def time_setup(setup, probe):
    """Rescaled seconds per set-up over one block of SETUP_BLOCK_S."""
    count = 0
    start = time.perf_counter()
    while True:
        setup()
        count += 1
        end = time.perf_counter()
        if end - start >= SETUP_BLOCK_S:
            return probe.net(start, end) * probe.scale(start, end) / count


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class CallFailed(Exception):
    """A workload call raised, or its outputs failed a check."""


class Session:
    """Calls of one workload, with the checks every call must pass."""

    def __init__(self, workload, out):
        self.workload = workload
        self.out = out
        self.errors = []
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.digests = None

    def fail(self, *errors):
        self.failed += 1
        self.errors += errors
        raise CallFailed

    def call(self, tracer=None):
        """One timed workload call; returns (start, end, Outcome)."""
        wl = self.workload
        out = fresh(self.out / "call")
        self.attempted += 1
        gc.collect()
        try:
            start = time.perf_counter()
            if tracer is None:
                outcome = wl.call(out)
            else:
                with tracer.installed():
                    outcome = tracer.span("harness", "entry", wl.call, out)
            end = time.perf_counter()
            digests = csv_digests(out)
            errors = wl.check(out) if self.first is None else []
        except Exception:  # reported as a failed call; the run then stops
            self.fail(traceback.format_exc())
        if self.first is None:
            self.first, self.digests = outcome, digests
        if digests != self.digests:
            errors.append(f"CSV bytes differ from the first call (traced={tracer is not None})")
        key = (outcome.runs, outcome.ok, outcome.iterations)
        if key != (self.first.runs, self.first.ok, self.first.iterations):
            errors.append(f"run outcome {key} differs from the first call")
        if errors:
            self.fail(*errors)
        return start, end, outcome


def measure_end_to_end(session, seconds):
    from speed import SpeedProbe

    setup = session.workload.setup
    with SpeedProbe().running() as probe:
        setups = [time_setup(setup, probe)]
        session.call()
        walls, raw_walls, run_ms = [], [], []
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_CALLS or time.perf_counter() < deadline:
            setups.append(time_setup(setup, probe))
            start, end, outcome = session.call()
            net, scale = probe.net(start, end), probe.scale(start, end)
            walls.append(net * scale)
            raw_walls.append(end - start)
            factor = net / (end - start) * scale
            run_ms.append([t * factor for t in outcome.run_ms])
    first = session.first
    wall = statistics.median(walls)
    runs = [statistics.median(times) for times in zip(*run_ms)]
    values = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "iters_per_s": (first.iterations / wall, "1/s"),
        "run_ms_p50": (statistics.median(runs), "ms"),
        "converged_frac": (first.ok / first.runs, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    info = {
        "calls": len(walls), "runs_per_call": len(runs), "probes": len(probe.probes),
        "speed_scale": probe.scale(), "walls_s": walls, "raw_walls_s": raw_walls,
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, info, None


def measure_layers(session, seconds):
    from tracer import LAYERS, Tracer, layer_metrics

    session.call()
    untraced, traced, per_call, counts = [], [], [], None
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        start, end, _ = session.call()
        untraced.append(end - start)
        tracer = Tracer()
        start, end, _ = session.call(tracer=tracer)
        wall = end - start
        traced.append(wall)
        these = tracer.deterministic_counts()
        if counts is None:
            counts = these
        elif these != counts:
            session.fail("deterministic counts differ between traced calls")
        accounted = sum(tracer.self_time[layer] for layer in LAYERS) / wall
        if not 0.95 <= accounted <= 1.0:
            session.fail(f"layer self times cover {accounted:.4f} of the traced wall")
        per_call.append(layer_metrics(tracer, wall))
    metrics = {
        name: {"value": statistics.median(m[name]["value"] for m in per_call), "unit": entry["unit"]}
        for name, entry in per_call[0].items()
    }
    overhead = statistics.median(traced) / statistics.median(untraced) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    tracer.write_spans(session.out / "spans.csv")
    info = {"traced_calls": len(traced), "traced_walls_s": traced, "untraced_walls_s": untraced}
    return metrics, info, counts


def compare_reference(name, seed, digests, counts, src_sha, record, environment):
    """Check against (or with ``record``, rewrite) the reference entry."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    if record:
        from workloads import KNOWN_FAILURES

        reference["environment"] = environment
        reference["known_failures"] = {f"{p}/{v}": why for (p, v), why in KNOWN_FAILURES.items()}
        reference["workloads"][name] = {
            "seed": seed, "src_sha256": src_sha, "csv_sha256": digests, "counts": counts,
        }
        REFERENCE.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
        return "recorded", []
    entry = reference["workloads"].get(name)
    if entry is None or entry["seed"] != seed:
        return "not compared", []
    same = digests == entry["csv_sha256"] and (counts is None or counts == entry["counts"])
    if same:
        return "match", []
    if entry["src_sha256"] == src_sha:
        return "differs", ["outputs differ from bench/reference.json although src/ is unchanged"]
    return "differs (src/ changed since recorded)", []


def main(argv=None):
    from workloads import WORKLOADS, make_workload

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite this workload's entry in {REFERENCE.name} (needs --trace 1)")
    args = parser.parse_args(argv)
    if args.record and not args.trace:
        parser.error("--record needs --trace 1")

    import numpy

    src_sha, src_lines = src_fingerprint()
    environment = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }
    out = fresh(ROOT / ".bench_out" / args.workload)
    session = Session(make_workload(args.workload, args.seed), out)
    measure = measure_layers if args.trace else measure_end_to_end
    metrics, info, counts, reference = {}, {}, None, "not compared"
    try:
        metrics, info, counts = measure(session, args.seconds)
    except CallFailed:
        pass
    else:
        reference, errors = compare_reference(
            args.workload, args.seed, session.digests, counts, src_sha, args.record, environment
        )
        session.errors += errors
    correct = not session.errors

    for line in session.errors:
        print(f"CHECK FAILED: {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in {**environment, **info}.items() if not isinstance(v, list))
          + f" reference={reference}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    (out / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment, "src_sha256": src_sha, "reference": reference,
        "csv_sha256": session.digests, "counts": counts, "info": info,
        "errors": session.errors, "metrics": metrics,
    }, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        _import_package()
    except ImportError as exc:
        print(f"bench: cannot import mograd from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
