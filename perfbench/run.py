"""vplab benchmark: time to a verified answer on three laboratory workloads.

    python3 perfbench/run.py --workload landau --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``).  With ``--trace 0`` the run reports the end-to-end metrics
time_to_solution_s, setup_s and peak_rss_mib; with ``--trace 1`` it
reports the per-layer metrics of one traced round (see README.md).  Each
round of a workload runs in a fresh process; set-up is timed in several
fresh processes and reported as their median.  The last line of output is one
JSON object; the exit code is 0 only when every check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("landau", "bgk_budget", "bgk_steady_2v")
SETUP_SAMPLES = 3          # fresh processes timing import + set-up (the rounds' own included)
WORKER_TIMEOUT_S = 160.0
# Threads for the FFT workers, penrose_check and BLAS: one.  On a shared
# 2-vCPU machine a second thread doubles the exposure to time taken by the
# host (steal) and slows the small 1D-1V FFTs (see README.md).
THREADS = 1


def git_sha():
    """The checkout's commit, read from .git without leaving the checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(argv, env):
    """Run one worker process to completion and return its JSON result."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + argv,
                          env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {argv[:2]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "vplab", "__init__.py")):
        print(f"error: no vplab sources under {ROOT}/src", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    scratch = os.path.join(ROOT, ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--threads", str(THREADS), "--scratch", scratch]
    setups = []
    try:
        if args.trace:
            results = [run_worker(common + ["--trace", str(t)], env) for t in (0, 1)]
        else:
            # whole rounds, one fresh process each, while the next one is
            # expected to end within --seconds
            results = []
            start = time.perf_counter()
            while True:
                results.append(run_worker(common, env))
                elapsed = time.perf_counter() - start
                if elapsed * (len(results) + 1) / len(results) > args.seconds:
                    break
            setups = [run_worker(common + ["--setup-only"], env)["setup_s"]
                      for _ in range(SETUP_SAMPLES - len(results))]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass

    rounds = [r["round_s"] for r in results]
    setups += [r["setup_s"] for r in results]
    if args.trace:
        plain, traced = results
        metrics = dict(traced["metrics"])
        metrics["trace.overhead_s"] = {"value": traced["round_s"] - plain["round_s"], "unit": "s"}
    else:
        metrics = {
            "time_to_solution_s": {"value": statistics.median(rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(r["peak_rss_mib"] for r in results),
                             "unit": "MiB"},
        }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    res = results[-1]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "fft_workers": THREADS,
        "python": res["python"], "numpy": res["numpy"], "scipy": res["scipy"],
        "git_sha": git_sha(), "round_s": rounds, "setup_samples_s": setups,
    }
    print(json.dumps({"run": record}))
    for name, m in metrics.items():
        print(f"{name:>44} = {m['value']:.6g} {m['unit']}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
