#!/usr/bin/env python3
"""Write reference.json: the results the benchmark's checks compare against.

    python3 perfbench/record_reference.py

Runs one solve of every workload for every problem seed in its pool, at the
full and tiny sizes, with the code of the current checkout.  Re-record only
when a change to the numerics is intended and explained; the benchmark
fails a run whose results drift from the record.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def main():
    out = {}
    work_dir = tempfile.mkdtemp(prefix="record-", dir=HERE)
    try:
        for name, wl in workloads.WORKLOADS.items():
            pool = {"control-64": workloads.CONTROL_POOL,
                    "lab-16": workloads.LAB_POOL}.get(name, (None,))
            for size in ("full", "tiny"):
                entry = {}
                for pseed in pool:
                    ctx = wl.prepare(size, pseed, work_dir)
                    rec = wl.record(ctx, wl.solve(ctx, 0))
                    print(name, size, pseed, json.dumps(rec)[:160], flush=True)
                    if pseed is None:
                        entry = rec
                    else:
                        entry[str(pseed)] = rec
                out.setdefault(name, {})[size] = entry
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
