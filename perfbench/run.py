#!/usr/bin/env python3
"""Build and run one workload of the ntvsim end-to-end benchmark.

usage (from the repository root):
  python3 perfbench/run.py --workload table1_mc|serve_mixed --seed N \
      --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The benchmark program, ntvbench, is built from this checkout's sources into
.bench_build/perfbench (CMake, Release). The run prints a readable summary
and, as its last line, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. Results, span trees and
spans are written under .bench_build/results. The exit code is 0 only when
every correctness check passed; 2 means the benchmark could not be built
or run at all. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

_child = None


def _kill_child(*_):
    """Stops the running child's whole process group and waits for it."""
    if _child is not None and _child.poll() is None:
        os.killpg(_child.pid, signal.SIGKILL)
        _child.wait()


def _on_signal(signum, _frame):
    _kill_child()
    sys.exit(128 + signum)


def run(cmd, timeout, capture=False):
    """Runs cmd in its own process group; its stdout goes to our stderr
    unless captured. Returns (returncode, stdout)."""
    global _child
    _child = subprocess.Popen(
        cmd, cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE if capture else sys.stderr.fileno())
    try:
        out, _ = _child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_child()
        return None, b""
    finally:
        code = _child.returncode
        _child = None
    return code, out or b""


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/CMakeLists.txt beside perfbench/: the benchmark builds "
             "the program from this checkout's sources")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        code, _ = run(cmd, BUILD_TIMEOUT_S)
        if code != 0:
            fail("cmake configure failed")
    code, _ = run(["cmake", "--build", BUILD, "--target", "ntvbench",
                   "-j", str(os.cpu_count() or 1)], BUILD_TIMEOUT_S)
    if code != 0:
        fail("build failed")
    return os.path.join(BUILD, "ntvbench")


def commit():
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    return "unknown (not a git checkout)"


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=["table1_mc", "serve_mixed"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)

    binary = build()
    if args.self_test:
        code, _ = run([binary, "--self-test"], RUN_TIMEOUT_S)
        sys.exit(2 if code is None else code)

    expected = declared_metrics(args.trace)
    code, out = run([binary, "--workload", args.workload,
                     "--seed", str(args.seed),
                     "--seconds", repr(args.seconds),
                     "--trace", str(args.trace),
                     "--commit", commit(),
                     "--out-dir", RESULTS,
                     "--digests", os.path.join(HERE, "table1_mc.digests")],
                    RUN_TIMEOUT_S, capture=True)
    if code is None:
        fail("ntvbench exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.decode().rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("ntvbench printed no result (exit %d)" % code)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if result["correct"] and got != expected:
        print("perfbench: metrics differ from BENCHMARK.json: got %s, "
              "declared %s" % (sorted(got.items()), sorted(expected.items())),
              file=sys.stderr)
        result["correct"] = False
        code = code or 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    sys.exit(code)


if __name__ == "__main__":
    main()
