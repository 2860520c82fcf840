"""One benchmark run in a fresh process; started by ``bench/run.py``.

The worker sets up (imports, input generation, reference load), then runs
passes over the workload's operations in a closed loop with one caller for
about ``--seconds``, and prints one JSON line with its raw results. With
``--trace 1`` untraced passes alternate with passes under the outside-in
tracer, and it reports per-layer figures instead.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import norming_lab  # noqa: E402
import spantrace  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

# Layers traced from outside, by module. Only ``main`` is wrapped in the cli
# module so that its self time is the CLI's own parsing, file I/O and JSON
# work. ``fewnomial`` is left out and ``simplex`` only runs in the checks.
TRACED_MODULES = ("spaces", "norming", "entropy", "bounds", "stability")


def _basis_counts(args, out):
    return {"rows": out.shape[0] if out.ndim == 2 else 1, "bytes_computed": out.nbytes}


COUNTERS = {
    "spaces.evaluate_basis": _basis_counts,
    "norming.uniform_grid": lambda args, out: {"points": out[0].shape[0]},
}


def install_tracer(tracer):
    targets = []
    for name in TRACED_MODULES:
        mod = importlib.import_module(f"norming_lab.{name}")
        targets += [(mod, attr, f"{name}.{attr}") for mod, attr in spantrace.public_functions(mod)]
    targets.append((norming_lab.cli, "main", "cli.main"))
    targets.append((norming_lab.SpaceDescriptor, "evaluate_basis", "spaces.evaluate_basis"))
    aliases = [m for k, m in sys.modules.items()
               if k == "norming_lab" or k.startswith("norming_lab.")]
    tracer.install(targets, aliases, COUNTERS)


def setup(workload, seed, smoke, workdir):
    inputs = workloads.Inputs(os.path.join(workdir, "inputs"))
    ops = workloads.build(workload, seed, inputs, smoke=smoke)
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    return ops, reference


def run_pass(ops, reference, tracer=None, tag=""):
    """Run every op once, timing only its call; check each output after it."""
    first = len(tracer.spans) if tracer else 0
    lat, failures, widths = [], [], []
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op, tracer.enabled = f"{tag}{k}", True
        t0 = time.perf_counter()
        try:
            out, error = op.run(), None
        except Exception as exc:  # a raising op, MemoryError included, is a counted failure
            out, error = None, exc
        lat.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.enabled = False
        if error is not None:
            failures.append(f"{op.key}: raised {error!r}")
            continue
        try:
            widths += op.check(op.record(out), reference[op.key])
        except Exception as exc:  # a failed check, or an output it cannot read
            failures.append(f"{op.key}: {exc!r}")
    return {"lat": lat, "failures": failures, "widths": widths,
            "spans": (first, len(tracer.spans)) if tracer else None}


def _another(start, rounds, seconds):
    """Whether one more round of passes, as long as the mean round so far,
    still ends within ``seconds``; the first round always runs."""
    elapsed = time.perf_counter() - start
    return rounds == 0 or elapsed * (rounds + 1) / rounds <= seconds


def run_passes(ops, reference, seconds):
    """Closed loop of whole passes that fits in ``seconds`` (at least one)."""
    passes = []
    start = time.perf_counter()
    while _another(start, len(passes), seconds):
        passes.append(run_pass(ops, reference))
    return passes


def run_traced(ops, reference, seconds, tracer):
    """Alternate untraced and traced passes, so that a drift in machine speed
    during the run falls on both; the tracer is installed only for the
    traced ones."""
    plain, traced = [], []
    start = time.perf_counter()
    while _another(start, len(traced), seconds):
        plain.append(run_pass(ops, reference))
        install_tracer(tracer)
        try:
            traced.append(run_pass(ops, reference, tracer, f"{len(traced)}:"))
        finally:
            tracer.uninstall()
    return plain, traced


def end_to_end(passes, attempted, failed):
    lat = np.array([t for p in passes for t in p["lat"]])
    return {
        "wall_s": statistics.median(sum(p["lat"]) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (attempted - failed) / attempted,
        "op_p50_ms": 1e3 * float(np.quantile(lat, 0.5)),
        "op_p90_ms": 1e3 * float(np.quantile(lat, 0.9)),
    }


def per_layer(names, plain, traced, tracer, n_ops):
    """Per-pass medians over the traced passes.

    A name ``<module>.<function>.<stat>`` reads ``stat`` of that function's
    spans; the few other names are derived below.
    """
    rows = [spantrace.summarize(tracer.spans, *p["spans"]) for p in traced]

    def median(name, stat):
        return statistics.median(r.get(name, {}).get(stat, 0) for r in rows)

    widths = [w for p in traced for w in p["widths"]] or [0.0]
    metrics = {
        "spaces.eval_rows_per_op": median("spaces.evaluate_basis", "rows") / n_ops,
        "norming.bracket_width_med": statistics.median(widths),
        "norming.bracket_width_max": max(widths),
        "trace.overhead_s": statistics.median(sum(p["lat"]) for p in traced)
        - statistics.median(sum(p["lat"]) for p in plain),
    }
    for name in names:
        if name not in metrics:
            metrics[name] = median(*name.rsplit(".", 1))
    return metrics


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": sys.version.split()[0]}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    try:
        ops, reference = setup(args.workload, args.seed % 2**32, args.smoke, args.workdir)
        if args.setup_only:
            return 0
        if args.trace:
            tracer = spantrace.Tracer()
            plain, traced = run_traced(ops, reference, args.seconds, tracer)
            tracer.write(os.path.join(os.path.dirname(args.workdir),
                                      f"spans-{args.workload}-{args.seed}.tsv"))
            passes = plain + traced
        else:
            passes = run_passes(ops, reference, args.seconds)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    failures = [f for p in passes for f in p["failures"]]
    for msg in failures[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    attempted, failed = sum(len(p["lat"]) for p in passes), len(failures)
    if args.trace:
        with open(BENCHMARK) as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        metrics = per_layer(names, plain, traced, tracer, len(ops))
    else:
        metrics = end_to_end(passes, attempted, failed)
    print(json.dumps({"attempted": attempted, "failed": failed, "metrics": metrics,
                      "passes": len(passes), "ops_per_pass": len(ops),
                      "env": environment()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
