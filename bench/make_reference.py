"""Regenerate ``bench/reference.json`` from the current code.

Runs every pool instance of every workload once and stores the fields the
benchmark checks. The committed file was made at the commit that defined
the benchmark; regenerate it only when an output is meant to change.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 bench/make_reference.py
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main():
    workdir = os.path.join(".bench_out", f"reference-{os.getpid()}")
    reference = {}
    t0 = time.perf_counter()
    try:
        for op in workloads.pool(workloads.Inputs(workdir)):
            rec = op.record(op.run())
            entry = {k: v for k, v in rec.items() if not k.startswith("_")}
            if op.reference is not None:
                entry.update(op.reference())
            op.check(rec, entry)
            reference[op.key] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(reference, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print(f"{len(reference)} reference entries in {time.perf_counter() - t0:.1f} s")


if __name__ == "__main__":
    main()
