"""One workload process, started by run.py.

Times the import of vplab plus the workload's set-up, then runs one round
of the pipeline, traced with --trace 1.  Every round therefore starts in a
fresh process, as a single experiment run by a user does.  Prints one JSON
object as its last line of output.
"""

import time

_T0 = time.perf_counter()
import workloads  # noqa: E402  (imports numpy, scipy and vplab: part of set-up)

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from vplab import sim  # noqa: E402

import spans  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    setup, references, pipeline = workloads.WORKLOADS[args.workload]
    sim.set_fft_workers(args.threads)
    rec = None
    if args.trace:
        rec = spans.Recorder()
        spans.install(rec)
    t0 = time.perf_counter()
    inp = setup(args.seed, args.threads, args.scratch)
    result = {"setup_s": IMPORT_S + time.perf_counter() - t0}
    if args.setup_only:
        print(json.dumps(result))
        return

    refs = references(inp)
    ops = workloads.Ops()
    if rec:
        rec.end_setup()
    t0 = time.perf_counter()
    pipeline(inp, refs, ops)
    result["round_s"] = time.perf_counter() - t0
    if rec:
        result["metrics"] = rec.metrics(result["round_s"])
    result.update(
        attempted=ops.attempted, failed=ops.failed,
        peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        python=platform.python_version(), numpy=np.__version__, scipy=scipy.__version__)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
