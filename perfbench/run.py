#!/usr/bin/env python3
"""Run one pulpclass benchmark workload from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into .bench_build on first use,
then runs the pcbench binary. Workloads: dataset_cold, relabel_cv,
serve_hot, serve_churn (see perfbench/README.md). The last line of
stdout is the result JSON; build output goes to stderr. The exit status
is pcbench's: 0 when every output check passed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "pcbench")
RUN_TIMEOUT_S = 175
WORKLOADS = ("dataset_cold", "relabel_cv", "serve_hot", "serve_churn")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no pulpclass sources at {os.path.join(ROOT, 'src')}")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", "pcbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def src_digest():
    """sha256 over the program sources, so results of two checkouts can
    be matched to the code they measured without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (the benchmark's own tests)")
    ap.add_argument("--inject", choices=("wrong-reply", "csv-row"),
                    help="inject one output fault; the run must fail")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        catalog = json.load(f)["per_layer" if args.trace else "end_to_end"]
    build()
    work = os.path.join(BUILD, "work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work,
           "--metrics", ",".join(f"{m['name']}={m['unit']}" for m in catalog),
           "--git-sha", git_sha(),
           "--src-digest", src_digest()]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject:
        cmd += ["--inject", args.inject]
    # The server and the workloads read PULPC_* settings; run with the
    # defaults whatever the caller's environment holds.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PULPC_")}
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    # Keep the span dumps of traced runs; drop the stores.
    for name in os.listdir(work) if os.path.isdir(work) else []:
        path = os.path.join(work, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
