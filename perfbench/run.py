#!/usr/bin/env python3
"""End-to-end benchmark for socmix (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the repository root. Builds perfbench/ (the socmix libraries plus
socmix_perfbench) into .bench_build/, generates the workload's input file
once (cached in .bench_build/inputs/), runs socmix_perfbench, and prints its
report followed by one JSON line holding exactly the metrics BENCHMARK.json
declares for the mode: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1. A per-layer metric of a layer the workload never
calls reads 0.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
INPUTS = os.path.join(ROOT, ".bench_build", "inputs")
BINARY = os.path.join(BUILD, "socmix_perfbench")
RUN_LIMIT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout kills the whole group
    (compilers under cmake included) and waits for it. Returns (rc, out)."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{' '.join(cmd)} timed out")
    return proc.returncode, out


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; exits on failure."""
    rc, _ = run_group(cmd, timeout, sys.stderr)
    if rc != 0:
        fail(f"{' '.join(cmd)} exited {rc}")


def build(deadline):
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                   deadline - time.monotonic())
    jobs = str(min(os.cpu_count() or 1, 4))
    run_logged(["cmake", "--build", BUILD, "-j", jobs], deadline - time.monotonic())


def source_digest():
    """sha256 over the sources the benchmark builds (provenance only)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def input_file(workload, quick, deadline):
    """The workload's generated input, rebuilt when the binary is newer."""
    os.makedirs(INPUTS, exist_ok=True)
    path = os.path.join(INPUTS, workload + (".quick" if quick else "") + ".input")
    if not os.path.isfile(path) or os.path.getmtime(path) < os.path.getmtime(BINARY):
        cmd = [BINARY, "gen", "--workload", workload, "--out", path]
        run_logged(cmd + (["--quick"] if quick else []), deadline - time.monotonic())
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs: a smoke run that finishes in seconds")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no socmix sources under {ROOT}/src; run from a full checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    started = time.monotonic()
    first_build = not os.path.isfile(BINARY)
    # A fresh checkout builds first; that run alone may take longer.
    deadline = started + (870 if first_build else RUN_LIMIT_S)
    build(deadline)
    path = input_file(args.workload, args.quick, deadline)

    cmd = [BINARY, "run", "--workload", args.workload, "--input", path,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.quick:
        cmd.append("--quick")
    rc, out = run_group(cmd, deadline - time.monotonic(), subprocess.PIPE)
    lines = out.rstrip("\n").split("\n")
    if rc != 0:
        sys.stdout.write(out)
        fail(f"socmix_perfbench exited {rc}")
    for line in lines[:-1]:
        print(line)
    print(f"provenance commit={commit()} source_sha256={source_digest()}")
    raw = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        got = raw["metrics"].get(m["name"])
        if got is None and not args.trace:
            fail(f"socmix_perfbench reported no {m['name']}")
        if got is not None and got["unit"] != m["unit"]:
            fail(f"{m['name']}: reported unit {got['unit']!r}, declared {m['unit']!r}")
        metrics[m["name"]] = {"value": got["value"] if got else 0, "unit": m["unit"]}
    result = {"correct": raw["correct"] and raw["failed"] == 0,
              "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
