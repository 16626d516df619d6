#!/usr/bin/env python3
"""namerbench: one benchmark for Namer, end to end and per layer.

Builds the namerbench binary against the repository's own libraries (its
CMake project pulls in the top-level project unchanged) into
.bench_build/namerbench, runs the requested workload in its own child
process and prints, as the last line of standard output, one JSON object
with exactly the keys correct, attempted, failed and metrics. The line
before it stamps the run: hardware concurrency, build type, whether
assertions are on, git rev, a digest of the sources, and the seeds.

  python3 namerbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 namerbench/run.py --workload all ...   # every workload in turn
  python3 namerbench/run.py --selfcheck          # shrunk corpora, seconds

Workloads: mine-python, mine-java, rescan-python, serve-python (see
namerbench/README.md). With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics. A child
that crashes counts as a failed run, reported with its signal; the others
still run under --workload all.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "namerbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "namerbench-work")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "namerbench-traces")
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
WORKLOADS = ["mine-python", "mine-java", "rescan-python", "serve-python"]
# A run must end within 180 s; the child gets a little less.
CHILD_TIMEOUT_S = 170


def log(msg):
    print(f"namerbench: {msg}", file=sys.stderr, flush=True)


def check_checkout():
    """The benchmark builds the program from the checkout's sources."""
    for rel in ("CMakeLists.txt", "src/CMakeLists.txt",
                "src/namer/Pipeline.cpp", "namerbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            log(f"{rel} is missing: {ROOT} is not a Namer checkout")
            sys.exit(2)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("cmake configure failed")
            sys.exit(3)
    if subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "namerbench",
                       "-j", jobs], stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(3)
    return os.path.join(BUILD_DIR, "namerbench")


def source_digest():
    """Digest of the sources the binary is built from: the rev stamp of a
    checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "namerbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    """(name, unit) pairs BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run_child(binary, workload, seed, seconds, trace, extra):
    """Runs one workload in its own process. Returns (result, stamp, error)."""
    workdir = os.path.join(WORK_DIR, f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--workdir", workdir] + extra
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    out = proc.stdout.read().decode(errors="replace")
    proc.stdout.close()
    timer.cancel()
    # wait4 reaps this child only, so its peak RSS is this workload's.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        if os.WIFSIGNALED(status):
            name = signal.Signals(os.WTERMSIG(status)).name
            return None, None, f"{workload} died with {name}"
        lines = [l for l in out.splitlines() if l.strip()]
        if len(lines) < 2:
            return None, None, (f"{workload} exited {proc.returncode} "
                                "without a result")
        stamp = json.loads(lines[-2])["stamp"]
        result = json.loads(lines[-1])
        if trace and os.path.isfile(os.path.join(workdir, "trace.json")):
            os.makedirs(TRACE_DIR, exist_ok=True)
            with open(os.path.join(workdir, "trace.json")) as fh:
                spans = json.load(fh)["spans"]
            with open(os.path.join(TRACE_DIR, f"{workload}-seed{seed}.json"),
                      "w") as fh:
                json.dump({"stamp": stamp, "metrics": result["metrics"],
                           "spans": spans}, fh)
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0, "unit": "MB"}
        return result, stamp, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def publish(result, trace):
    """Keeps exactly the metrics BENCHMARK.json declares for the mode; a
    declared metric that is missing or has another unit fails the run."""
    kept = {}
    for name, unit in declared_metrics(trace):
        m = result["metrics"].get(name)
        if m is None or m["unit"] != unit:
            log(f"metric {name} [{unit}] not measured")
            result["correct"] = False
            continue
        kept[name] = m
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": kept}


def run_one(binary, workload, seed, seconds, trace, extra=()):
    result, stamp, error = run_child(binary, workload, seed, seconds, trace,
                                     list(extra))
    if error:
        log(error)
        return None, {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
    stamp["source_digest"] = source_digest()
    return stamp, publish(result, trace)


def selfcheck(binary):
    """Shrunk corpora: every workload runs in seconds with the negative
    self-check on, and prints every metric name BENCHMARK.json declares."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            _, res = run_one(binary, workload, 1, 1, trace,
                             ["--selfcheck"])
            good = res["correct"] and res["attempted"] >= 1
            ok &= good
            print(f"{workload} trace={int(trace)}: "
                  f"{'ok' if good else 'FAILED'} "
                  f"({len(res['metrics'])} metrics, "
                  f"{res['attempted']} attempted)", flush=True)
    print(json.dumps({"selfcheck": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not args.selfcheck and not args.workload:
        ap.error("--workload or --selfcheck is required")
    if not 1 <= args.seconds <= 120:
        ap.error("--seconds must be within 1..120")

    check_checkout()
    # Compiler and program temporaries stay inside the checkout too.
    os.makedirs(TMP_DIR, exist_ok=True)
    os.environ["TMPDIR"] = TMP_DIR
    binary = build()
    if args.selfcheck:
        return selfcheck(binary)

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    for workload in workloads:
        stamp, res = run_one(binary, workload, args.seed, args.seconds,
                             bool(args.trace))
        if stamp:
            print(json.dumps({"stamp": stamp}))
        print(json.dumps(res), flush=True)
        if not res["correct"]:
            code = 1
    return code


if __name__ == "__main__":
    sys.exit(main())
