#!/usr/bin/env python3
"""Build and run the hglift benchmark.

    python3 hgbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 hgbench/run.py --selftest

Run from the repository root. Each run configures and builds hglift and the
hgbench program under .bench_build/ (CMake, the repository's own sources),
runs one workload, and prints the program's lines followed by one JSON line:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Exits non-zero, without the JSON line, when the
build or the run fails.

--selftest runs every workload at a small size in both modes, checks that
every metric BENCHMARK.json names is printed with its unit, that a wrong
expected verdict makes the failure check fire, and that the non-time
counters repeat for the same seed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "cmake")
WORK = os.path.join(".bench_build", "work")
RUN_TIMEOUT_S = 170
WORKLOADS = ["xen_cold", "library_fixpoint", "serve_incremental", "shard_cold"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", "hgbench", "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def stop_group(proc):
    """Kill whatever is left of the hgbench process group (a daemon or
    shard worker orphaned by a crash) and wait until none is left."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_hgbench(workload, seed, seconds, trace, small=False, expected=None):
    """Run one workload; return (stdout lines, parsed final JSON) or None."""
    cmd = [os.path.join(BUILD, "hgbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace),
           "--hglift", os.path.join(BUILD, "hglift", "driver", "hglift"),
           "--expected", expected or os.path.join("hgbench",
                                                  "xen_expected.txt"),
           "--work-root", WORK]
    if small:
        cmd.append("--small")
    # A process group of its own, so a timeout can stop the daemon and the
    # shard workers with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    stop_group(proc)
    if out is None:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return None
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        log(f"{workload}: hgbench exited with {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"{workload}: last line is not JSON")
        return None
    return lines[:-1], result


def select(result, spec, trace):
    """The contract line: the metrics BENCHMARK.json names for the mode."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            log(f"metric {m['name']} ({m['unit']}) missing or mis-unit: {got}")
            return None
        metrics[m["name"]] = got
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]), "metrics": metrics}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selftest(spec):
    ok = True

    def check(cond, what):
        nonlocal ok
        log(("ok    " if cond else "FAIL  ") + what)
        ok = ok and cond

    for w in WORKLOADS:
        for trace in (0, 1):
            r = run_hgbench(w, 1, 2, trace, small=True)
            line = r and select(r[1], spec, trace)
            check(line is not None and line["attempted"] >= 1,
                  f"{w} --trace {trace}: every metric printed with its unit")

    # One wrong expected verdict must fail the ops on that input.
    src = os.path.join(ROOT, "hgbench", "xen_expected.txt")
    bad = os.path.join(ROOT, WORK, "xen_expected_wrong.txt")
    os.makedirs(os.path.dirname(bad), exist_ok=True)
    with open(src) as f:
        text = f.read()
    with open(bad, "w") as f:
        f.write(text.replace(".../bin lifted", ".../bin timeout", 1))
    r = run_hgbench("xen_cold", 1, 2, 0, small=True, expected=bad)
    check(r is not None and r[1]["failed"] > 0
          and r[1]["metrics"]["failed_frac"]["value"] > 0,
          "xen_cold with one wrong expected verdict: failed_frac > 0")
    os.remove(bad)

    # Non-time counters repeat exactly for the same seed.
    counts = []
    for _ in range(2):
        r = run_hgbench("xen_cold", 3, 2, 1, small=True)
        counts.append(r and {k: v["value"] for k, v in r[1]["metrics"].items()
                             if v["unit"] == "count"
                             and not k.startswith(("serve.", "shard."))})
    check(counts[0] is not None and counts[0] == counts[1],
          "xen_cold --trace 1 twice with seed 3: identical counters")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true",
                    help="small inputs, for quick checks")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    spec = load_spec()
    if not build():
        return 1
    if args.selftest:
        return 0 if selftest(spec) else 1
    r = run_hgbench(args.workload, args.seed, args.seconds, args.trace,
                   small=args.small)
    if r is None:
        return 1
    lines, result = r
    line = select(result, spec, args.trace)
    if line is None:
        return 1
    for l in lines:
        print(l)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
