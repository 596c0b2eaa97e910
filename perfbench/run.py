#!/usr/bin/env python3
"""Builds perfbench from source (first run in a checkout) and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <update_pdl|read_mostly_pdl|tpcc_pdl> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench when that variable is set
(relative paths are taken from the repository root), else to
.bench_build/perfbench. Build output goes to stderr; the benchmark's own output
goes to stdout and ends with one JSON result line. The exit code is the
benchmark's: non-zero when the build, an oracle or the determinism check fails.
With --trace 1 the traced pass's spans are written as CSV under
<build dir>/spans/.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("update_pdl", "read_mostly_pdl", "tpcc_pdl")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out),
           "-DCMAKE_BUILD_TYPE=Release"]
    if not (out / "CMakeCache.txt").exists() and shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr,
                   stderr=sys.stderr)
    return out / "perfbench"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.trace:
        spans = out / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{a.workload}-seed{a.seed}.csv")]
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
