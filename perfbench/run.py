#!/usr/bin/env python3
"""End-to-end benchmark of the carbon circuit simulator.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_hot --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --all --seed 7919      # every workload, both runs
    python3 perfbench/run.py --selftest             # determinism + oracle checks

Builds libcarbon, carbon_simd and the perfbench binary (Release, from the
repository's own sources) under .bench_build/, then runs it.  The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it carries
the provenance stamp (nproc, compiler, build type, commit, seed, rate
ladder).  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(".bench_build", "perfbench")
OUT = os.path.join(".bench_build", "out")
WORKLOADS = ["sweep_hot", "cold_topology"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_id():
    """The commit when this is a git checkout, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True,
                                  check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "tools", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-" + h.hexdigest()[:16]


def build():
    for need in ["CMakeLists.txt", "src", os.path.join("tools", "carbon_simd.cpp")]:
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no simulator sources here (missing %s); run from a full "
                 "checkout of the repository" % need)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", os.path.join(ROOT, BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", os.path.join(ROOT, BUILD), "-j", jobs,
         "--target", "perfbench", "carbon_simd"],
    ]
    for cmd in steps:
        try:
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                               timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e, 1)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            fail("build failed: " + " ".join(cmd), 1)
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)


def perfbench_cmd(*args):
    return [os.path.join(BUILD, "perfbench"), "--config",
            os.path.join("perfbench", "config.json")] + list(args)


def run_one(workload, seed, seconds, trace, commit, capture):
    cmd = perfbench_cmd("--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace),
                        "--simd", os.path.join(BUILD, "carbon", "carbon_simd"),
                        "--out-dir", OUT, "--commit", commit)
    # Own process group, so a timeout also takes down carbon_simd children.
    p = subprocess.Popen(cmd, cwd=ROOT, text=True, start_new_session=True,
                         stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("run did not finish within %d s" % RUN_TIMEOUT_S, 1)
    if p.returncode != 0:
        fail("perfbench exited with status %d" % p.returncode, 1)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true",
                    help="every workload, untraced and traced, as one table")
    ap.add_argument("--selftest", action="store_true",
                    help="generator determinism, exact-count repeat and "
                         "oracle checks")
    a = ap.parse_args()
    os.chdir(ROOT)
    if not a.selftest and (a.seed is None or (a.workload is None) == (not a.all)):
        fail("want --workload NAME --seed N (or --all --seed N, or --selftest)")
    build()
    if a.selftest:
        sys.exit(subprocess.run(perfbench_cmd("--selftest"), cwd=ROOT,
                                timeout=RUN_TIMEOUT_S).returncode)
    commit = source_id()
    if not a.all:
        run_one(a.workload, a.seed, a.seconds, a.trace, commit, capture=False)
        return
    rows, ok = [], True
    for w in WORKLOADS:
        for trace in (0, 1):
            lines = run_one(w, a.seed, a.seconds, trace, commit,
                            capture=True).strip().splitlines()
            res = json.loads(lines[-1])
            ok = ok and res["correct"]
            rows.append((w, trace, "fail_ratio",
                         res["failed"] / res["attempted"], "1"))
            rows += [(w, trace, k, v["value"], v["unit"])
                     for k, v in res["metrics"].items()]
            if not trace:
                # The timing tails, request tails included, and the service
                # capacity (not metrics).
                prov = json.loads(lines[-2])["provenance"]
                rows += [(w, trace, "%s p%g (n=%d)" % (k, t["pct"], t["n"]),
                          t["ms"], "ms") for k, t in prov["tails"].items()]
                rows.append((w, trace, "max_rps_slo", prov["max_rps_slo"],
                             "req/s"))
    for w, trace, name, value, unit in rows:
        print("%-14s %-6s %-34s %16.6g %s" % (
            w, "traced" if trace else "", name, value, unit))
    print("all outputs correct" if ok else "SOME OUTPUTS WRONG")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
