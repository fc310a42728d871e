"""Record the reference result of every input a benchmark pass can contain.

    python3 perfbench/record_reference.py [workload ...]

Runs each pool job once through the same code path as the benchmark and
stores its checked values and exact work counts in ``reference.json``.
Run it only at the commit whose outputs define correctness; the
benchmark compares every later commit against the stored values.
"""

from __future__ import annotations

import json
import os
import sys
import time

from run import HERE, ROOT, WORKDIR, import_package


def main(argv) -> int:
    os.chdir(ROOT)
    os.environ.pop("ORTHO_EXACT", None)  # as in the benchmark
    workloads = import_package()
    from sympy.core.cache import clear_cache
    path = os.path.join(HERE, "reference.json")
    refs = {}
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            refs = json.load(fh)
    for workload in argv or workloads.WORKLOADS:
        recorded = {}
        for job in workloads.pool(workload, WORKDIR):
            clear_cache()
            t0 = time.perf_counter()
            result = job.run()
            elapsed = time.perf_counter() - t0
            ref = job.reference(result)
            counts = job.check(result, ref)
            counts.pop("cli.bytes_out", None)
            ref["counts"] = counts
            recorded[job.ref_key] = ref
            print("%-60s %8.3f s" % (job.key, elapsed), flush=True)
        refs[workload] = recorded
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(refs, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
