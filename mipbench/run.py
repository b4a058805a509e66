#!/usr/bin/env python3
"""Runs one workload of the MIP benchmark and prints its JSON result line.

    python3 mipbench/run.py --workload dashboard|explore|analysis \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
shipped libraries, the mip_worker / mip_gateway daemons and the load generator
into $CARGO_TARGET_DIR (default .bench_build); later runs rebuild only what
changed. Site data and daemon logs live under .bench_run/ for the duration
of the run and are removed on every exit path. Build output goes to stderr;
stdout ends with the load generator's result line.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TARGETS = ["mipbench_loadgen", "mip_worker", "mip_gateway"]


def build(bench_dir, build_dir):
    # Configuring every time is cheap and keeps an existing build tree in
    # step with the benchmark's own CMakeLists.
    subprocess.run(
        ["cmake", "-S", bench_dir, "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target"] + BUILD_TARGETS,
        stdout=sys.stderr, check=True)


def run_loadgen(argv):
    # Own session, so a timeout can take down the load generator and any daemon it
    # started (the daemons also die with the load generator on their own).
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("mipbench: load generator timed out", file=sys.stderr)
        return 1
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    sys.stdout.write(out.decode())
    sys.stdout.flush()
    return proc.returncode


def on_sigterm(signum, frame):
    # Unwinds through run_loadgen's cleanup: the load generator's process group is
    # killed and the run's scratch directory removed.
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["dashboard", "explore", "analysis"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corrupt-reply", action="store_true",
                        help="self-test: corrupt one reply; the run must fail")
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("mipbench: build failed: %s" % e, file=sys.stderr)
        return 1

    work_dir = os.path.join(root, ".bench_run", "run-%d" % os.getpid())
    argv = [os.path.join(build_dir, "mipbench_loadgen"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--bin-dir", os.path.join(build_dir, "tools"),
            "--work-dir", work_dir]
    if args.corrupt_reply:
        argv.append("--corrupt-reply")
    try:
        return run_loadgen(argv)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
