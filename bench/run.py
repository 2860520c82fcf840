"""norming-lab benchmark: one command, one workload, one fresh child process.

    python3 bench/run.py --workload norming-ladder --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``. The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones of ``BENCHMARK.json``; with ``--trace 1`` they are
the per-layer ones, from a run in which the outside-in tracer wraps the
package's public functions. Exit code 0 means every operation passed its
check; any failed check exits 1 after printing the result; a missing
package or a crashed child exits non-zero without a result.

This file uses only the standard library, so it runs and fails cleanly
where the package or numpy cannot be imported.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("norming-ladder", "audit-sweep", "span-cover")

BLAS_THREADS = 1  # pinned in the child; the reference machine has nproc = 2
MEMORY_CAP_BYTES = 3 << 30  # RLIMIT_AS of each child: an overrun is a counted failure
SETUP_REPEATS = 5  # fresh setup-only children; setup_s is their median
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_child(args, extra, workdir, timeout):
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir] + extra + (["--smoke"] if args.smoke else [])
    return subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE, text=True,
                          preexec_fn=_cap_memory, timeout=timeout)


def measure_setup(args, out_dir, repeats):
    """Wall time of fresh children that only import, generate inputs and load
    the reference, timed from process start to exit."""
    times = []
    for k in range(repeats):
        t0 = time.perf_counter()
        proc = run_child(args, ["--setup-only"], os.path.join(out_dir, f"setup-{os.getpid()}-{k}"), 60)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup child exited with code {proc.returncode}")
    return statistics.median(times)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one instance of each operation family (self-test)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "norming_lab", "__init__.py")):
        print("error: run from the repository root; src/norming_lab not found", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    out_dir = os.path.abspath(".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    try:
        setup_s = None
        if not args.trace:
            setup_s = measure_setup(args, out_dir, 1 if args.smoke else SETUP_REPEATS)
        proc = run_child(args, [], os.path.join(out_dir, f"run-{os.getpid()}"), CHILD_TIMEOUT_S)
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])

    if setup_s is not None:
        raw["metrics"]["setup_s"] = setup_s
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(raw["metrics"]):
        print("error: measured metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared}
    env = raw["env"]
    print(f"env: nproc={env['nproc']} numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} python={env['python']} "
          f"memory_cap_mb={MEMORY_CAP_BYTES >> 20}")
    print(f"run: {raw['passes']} passes of {raw['ops_per_pass']} ops, "
          f"{raw['attempted']} op latency samples")
    correct = raw["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
