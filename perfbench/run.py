#!/usr/bin/env python3
"""Wall-clock benchmark of ParaCOSM (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and the perfbench binary out of tree (Release, library
default options) under $CARGO_TARGET_DIR (default .bench_build) in the
checkout, runs one workload and prints, as the last line of standard output,
one JSON object with the keys correct, attempted, failed and metrics. Earlier
lines carry the provenance of the result. Exits non-zero on any failed check.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"library sources not found under {ROOT / 'src'}")
        return False
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release", "-DPARACOSM_VERIFY=OFF",
                     "-DPARACOSM_SANITIZE="]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                           "--target", "perfbench"],
                          stdout=sys.stderr).returncode == 0


def source_revision():
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    # Not a git checkout: identify the sources by content.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    if not build(build_dir):
        log("build failed")
        return 2

    work_dir = build_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"no result (exit code {proc.returncode})")
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("last line of the perfbench output is not JSON")
        return 1
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result")
        return 1
    missing = expected_metrics(args.trace) - set(result["metrics"])
    if missing:
        log(f"metrics missing from the result: {sorted(missing)}")
        result["correct"] = False

    # One provenance line: what the binary knows of its build (type,
    # options, compiler; it refuses Debug, sanitizer and VERIFY builds) plus
    # what only this script knows.
    provenance = {
        "commit": source_revision(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    others = []
    for line in lines[:-1]:
        try:
            provenance.update(json.loads(line)["provenance"])
        except (json.JSONDecodeError, KeyError, TypeError):
            others.append(line)
    print(json.dumps({"provenance": provenance}))
    for line in others:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
