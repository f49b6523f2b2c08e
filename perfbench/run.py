#!/usr/bin/env python3
"""Build and run the SmartMem benchmark (smbench).

Usage, from the repository root:

    python3 perfbench/run.py --workload swin-1t --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

The first call configures and builds the library and the benchmark
(Release) into .bench_build/ at the repository root; later calls only
rebuild what changed.  Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result.  A traced run (--trace 1) also
writes its spans as Chrome trace-event JSON under .bench_build/traces/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "smbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        fail("the SmartMem sources (CMakeLists.txt, src/) are not next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def child_env():
    # The library reads SMARTMEM_* settings (plan cache directory,
    # thread and SIMD overrides); the benchmark fixes all of them.
    return {k: v for k, v in os.environ.items() if not k.startswith("SMARTMEM_")}


def main(argv):
    if argv[:1] == ["--self-test"]:
        test = build("smbench_test")
        return subprocess.run([test] + argv[1:], env=child_env()).returncode

    binary = build("smbench")
    args = list(argv)
    if "--ref-dir" not in args:
        args += ["--ref-dir", os.path.join(HERE, "ref")]
    if "--trace-out" not in args and "--trace" in args:
        trace = args[args.index("--trace") + 1] if args.index("--trace") + 1 < len(args) else "0"
        workload = args[args.index("--workload") + 1] if "--workload" in args else "run"
        if trace != "0":
            traces = os.path.join(ROOT, ".bench_build", "traces")
            os.makedirs(traces, exist_ok=True)
            seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
            args += ["--trace-out", os.path.join(traces, "%s-seed%s.json" % (workload, seed))]
    # Recording references runs the slow oracle on full-size models.
    timeout = None if "--record-refs" in args else RUN_TIMEOUT_S
    try:
        proc = subprocess.run([binary] + args, env=child_env(), timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("smbench did not finish within %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
