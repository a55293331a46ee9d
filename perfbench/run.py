#!/usr/bin/env python3
"""Build and run the NEXUS end-to-end benchmark.

    python3 perfbench/run.py --workload bulk|churn|scan --seed N \
        --seconds S --trace 0|1

Run it from the root of a source checkout. It configures and builds
perfbench/ (the NEXUS libraries, nexusd and the perfbench program, in
Release) under $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs one measurement. Scratch stores, result files and span dumps go
under .bench_out/. The last line of standard output is the summary JSON
object; the full result, with metadata and deterministic counts, is in
.bench_out/results/<workload>-seed<N>-trace<T>.json.

Exit status is the benchmark's: 0 when every operation and oracle check
passed, non-zero otherwise (also when the sources are missing or the build
fails, in which case no result is printed).
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_digest():
    """sha256 over the program and benchmark sources (the checkout is not
    necessarily a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("NEXUS sources (src/) not found next to perfbench/")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target", "perfbench", "nexusd"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["bulk", "churn", "scan"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--inject-mismatch", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    bdir = build_dir()
    if not build(bdir):
        return 1
    binary = os.path.join(bdir, "perfbench")
    nexusd = os.path.join(bdir, "nexus_src", "net", "nexusd")

    workdir = os.path.join(ROOT, ".bench_out")
    # Scratch stores of an earlier run that was killed before cleaning up.
    shutil.rmtree(os.path.join(workdir, "tmp"), ignore_errors=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--nexusd", nexusd, "--workdir", workdir,
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    if args.inject_mismatch:
        cmd.append("--inject-mismatch")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; killing it")
        proc.kill()  # its daemons die with it (parent-death signal)
        proc.wait()
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
