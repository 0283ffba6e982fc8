#!/usr/bin/env python3
"""Run one perfbench workload against this checkout's TDB library.

    python3 perfbench/run.py --workload tpcb --seed 1 --seconds 10 --trace 0

Builds the benchmark from source (release profile, into .bench_build/),
unsets every TDB_* override, gives the run a fresh store directory under
.perfbench_run/ and removes it afterwards. The last line of standard output
is the run's JSON result; the exit code is non-zero when the build, the run
or an output check fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUNS_DIR = os.path.join(ROOT, ".perfbench_run")
WORKLOADS = ("tpcb", "lookup")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def stop_group(pgid):
    """SIGKILL whatever is left in the run's process group and wait for it to go."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", "bin"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} is missing: run from a full checkout of the repository")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")

    # The library reads TDB_DOMAINS / TDB_SHARDS / TDB_TIERS /
    # TDB_REPLICA_EVERY into its defaults; the benchmark runs the shipped
    # defaults. The dune cache would write outside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TDB_")}
    env["DUNE_CACHE"] = "disabled"

    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD_DIR, "--profile", "release",
         "perfbench/tdb_perf.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "tdb_perf.exe")

    run_dir = os.path.join(RUNS_DIR, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", run_dir]
    # Run on one CPU. On a small shared VM, a run whose domains sat on two
    # CPUs ran at one of two speeds up to 40% apart (cross-CPU wake-ups at
    # each stop-the-world collection); on one CPU, runs repeat. The pool's
    # domains still run, taking turns on that CPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    finally:
        stop_group(proc.pid)
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS_DIR)
        except OSError:
            pass
    if code is None:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if code != 0:
        fail(f"run exited with code {code}")


if __name__ == "__main__":
    main()
