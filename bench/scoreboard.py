#!/usr/bin/env python3
"""End-to-end scoreboard: wall, CPU and memory of every bench binary.

Runs each executable under BUILD/bench (a Release build) RUNS times with
its default arguments, stdout discarded. Each round cycles through every
binary of every build given, so slow drift on a shared host spreads over
all of them. Per binary it records the min and max wall time, the user
and sys CPU time and the minor page faults of the fastest run, and the
peak resident set size over all runs.

Each build's result is stored under its LABEL in OUT (other labels
already in the file are kept), so a before/after pair lives in one file:

    python3 bench/scoreboard.py --build build-parent --label parent \
        --build build-rel --label change
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

RUNS = 5


def bench_binaries(build):
    bench_dir = os.path.join(build, "bench")
    names = []
    for name in sorted(os.listdir(bench_dir)):
        path = os.path.join(bench_dir, name)
        if os.path.isfile(path) and os.access(path, os.X_OK):
            names.append(name)
    return bench_dir, names


def run_once(path, workdir):
    """Wall, user and sys seconds, peak RSS (MB) and minor faults of one run.

    Runs in `workdir` so files a binary writes by default (simcore_perf's
    BENCH_simcore.json) land there, not in the caller's directory.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([path], cwd=workdir, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.exit(f"{path} exited with {proc.returncode}")
    # ru_maxrss is in KiB on Linux.
    return (wall, usage.ru_utime, usage.ru_stime, usage.ru_maxrss / 1024.0,
            usage.ru_minflt)


def host_info():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cores": os.cpu_count()}


def summarize(rows):
    fastest = min(rows, key=lambda r: r[0])
    return {
        "wall_s_min": round(fastest[0], 4),
        "wall_s_max": round(max(r[0] for r in rows), 4),
        "user_s": round(fastest[1], 4),
        "sys_s": round(fastest[2], 4),
        "minflt": fastest[4],
        "peak_rss_mb": round(max(r[3] for r in rows), 2),
    }


def measure(builds):
    """Per build, per binary summary; rounds interleave all builds."""
    plans = [bench_binaries(os.path.abspath(build)) for build in builds]
    samples = [{name: [] for name in names} for _, names in plans]
    with tempfile.TemporaryDirectory() as workdir:
        for _ in range(RUNS):
            for (bench_dir, names), rows in zip(plans, samples):
                for name in names:
                    rows[name].append(
                        run_once(os.path.join(bench_dir, name), workdir))
    return [{name: summarize(r) for name, r in rows.items()}
            for rows in samples]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build", action="append", default=[],
                    help="Release build tree with bench/ (repeatable)")
    ap.add_argument("--label", action="append", default=[],
                    help="name to store each --build under, in order")
    ap.add_argument("--out", default="BENCH_e2e.json")
    args = ap.parse_args()

    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    if not args.build or len(args.build) != len(args.label):
        ap.error("give one --label per --build")

    doc["host"] = host_info()
    doc["runs"] = RUNS
    for label, table in zip(args.label, measure(args.build)):
        doc.setdefault("builds", {})[label] = table
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
