#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

Builds perfbench_runner (the repository's src/ tree plus the runner, see
perfbench/CMakeLists.txt) into .bench_build/, then runs one workload's
experiments for the measured time, each in its own process, and prints one
JSON result line last on stdout:

    python3 perfbench/run.py --workload paper --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

--trace 0 reports the end-to-end metrics of BENCHMARK.json (medians over
untraced experiments); --trace 1 alternates untraced and traced experiments
and reports the per-layer metrics (medians over traced experiments, plus
the tracing overhead against the untraced median). Every experiment is
checked (rounds run, updates folded, accuracies in [0, 1], tiling of the
traced spans); an experiment that fails a check, or whose final-state hash
differs from the run's first, counts as failed and is left out of the
timings. --self-test runs every workload at smoke size bare, untraced and
traced, and requires identical hashes and RoundStats histories.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
RECORDED = os.path.join(BENCH_DIR, "recorded.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# No experiment starts later than this many seconds into the measurement,
# and none may outlive RUN_LIMIT_S, so a run ends well inside 180 s.
START_LIMIT_S = 120.0
RUN_LIMIT_S = 170.0
# An experiment set needs this many untraced experiments (set-up time is a
# median over them) and, with --trace 1, one traced experiment.
MIN_UNTRACED = 3
MAX_FAILURES = 3


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(2)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree beside perfbench/; run from a repository checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") is not None:
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD_DIR, "--target", "perfbench_runner",
              "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, configure)
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def runner_env():
    # CALIBRE_* variables retune threads and kernels; a run must not
    # depend on the caller's environment.
    return {k: v for k, v in os.environ.items()
            if not k.startswith("CALIBRE_")}


def experiment(workload, seed, mode, timeout, smoke=False, trace_out=None):
    cmd = [RUNNER, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, timeout), env=runner_env(),
                              check=False)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "ok": False, "errors": ["timed out"]}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-3:]
        return {"mode": mode, "ok": False,
                "errors": ["runner exit %d: %s" % (done.returncode,
                                                   " | ".join(tail))]}
    return json.loads(lines[-1])


def source_identity():
    """The commit when run from a git checkout, and always a digest of the
    sources the benchmark builds (a checkout without .git has no commit)."""
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for base, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def median_of(records, section, name):
    values = [r[section][name] for r in records
              if r.get(section, {}).get(name) is not None]
    return statistics.median(values) if values else None


def measure(args, spec):
    recorded = load_json(RECORDED)
    modes = ["untraced", "traced"] if args.trace else ["untraced"]
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)

    records = []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        ok = [r for r in records if r["ok"]]
        untraced = sum(1 for r in ok if r["mode"] == "untraced")
        traced = sum(1 for r in ok if r["mode"] == "traced")
        satisfied = untraced >= (1 if args.trace else MIN_UNTRACED) and \
            traced >= (1 if args.trace else 0)
        if elapsed >= args.seconds and satisfied:
            break
        if elapsed + longest > START_LIMIT_S:
            break
        if len(records) - len(ok) >= MAX_FAILURES:
            break
        mode = modes[len(records) % len(modes)]
        trace_out = None
        if mode == "traced":
            trace_out = os.path.join(RESULTS_DIR, "%s-trace%d.json"
                                     % (tag, len(records)))
        t0 = time.monotonic()
        record = experiment(args.workload, args.seed, mode,
                            RUN_LIMIT_S - elapsed, trace_out=trace_out)
        longest = max(longest, time.monotonic() - t0)
        records.append(record)

    # Determinism: every experiment of the run must end in the same bits.
    reference = next((r["hash"] for r in records if r["ok"]), None)
    for r in records:
        if r["ok"] and r["hash"] != reference:
            r["ok"] = False
            r["errors"].append("hash %s differs from the run's %s"
                               % (r["hash"], reference))
    ok = [r for r in records if r["ok"]]
    failed = len(records) - len(ok)
    for r in records:
        if not r["ok"]:
            log("perfbench: failed %s experiment: %s"
                % (r["mode"], "; ".join(r["errors"])))

    metrics = {}
    untraced = [r for r in ok if r["mode"] == "untraced"]
    traced = [r for r in ok if r["mode"] == "traced"]
    if args.trace:
        for m in spec["per_layer"]:
            name = m["name"]
            if name == "trace_overhead_pct":
                t = median_of(traced, "end_to_end", "train_s")
                u = median_of(untraced, "end_to_end", "train_s")
                value = (t / u - 1.0) * 100.0 if t and u else None
            else:
                value = median_of(traced, "layers", name)
            if value is not None:
                metrics[name] = {"value": value, "unit": m["unit"]}
        expected = spec["per_layer"]
    else:
        for m in spec["end_to_end"]:
            value = median_of(untraced, "end_to_end", m["name"])
            if value is not None:
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        expected = spec["end_to_end"]
    correct = failed == 0 and bool(ok) and len(metrics) == len(expected)

    commit, digest = source_identity()
    why = next((w["why"] for w in spec["workloads"]
                if w["name"] == args.workload),
               "not a BENCHMARK.json workload; see perfbench/README.md")
    first = ok[0] if ok else {}
    meta = {
        "workload": args.workload, "why": why, "seed": args.seed,
        "trace": args.trace, "commit": commit, "source_digest": digest,
        "hardware_threads": first.get("hardware_threads"),
        "device_threads": first.get("device_threads"),
        "compiler": first.get("compiler"),
        "build_type": first.get("build_type"),
    }
    want = recorded["workloads"][args.workload]
    got = {"hash": reference,
           "history_digest": ok[0]["history_digest"] if ok else None}
    if reference is None:
        verdict = "no passing experiment"
    elif args.seed != recorded["default_seed"]:
        verdict = "determinism only: recorded hash is for seed %d" \
            % recorded["default_seed"]
    elif got["hash"] == want["hash"] and \
            got["history_digest"] == want["history_digest"]:
        verdict = "matches"
    else:
        verdict = "MOVED from the recorded bits"
    e2e = first.get("end_to_end", {})
    print("perfbench: %s" % json.dumps(meta))
    print("perfbench: hash %s history %s  recorded %s %s (seed %d): %s"
          % (got["hash"], got["history_digest"], want["hash"],
             want["history_digest"], recorded["default_seed"], verdict))
    if "round_ms_samples" in e2e:
        print("perfbench: round_ms_tail is p%.4g of %d commit intervals"
              % (e2e["round_ms_tail_percentile"], e2e["round_ms_samples"]))
    layers = traced[0]["layers"] if traced else {}
    if layers:
        print("perfbench: algos.local_update_ms_tail is p%.4g of %d updates"
              % (layers["algos.local_update_tail_percentile"],
                 layers["algos.local_updates"]))
    print("perfbench: %d experiments (%d untraced, %d traced), %d failed"
          % (len(records), len(untraced), len(traced), failed))

    result = {"correct": correct, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    with open(os.path.join(RESULTS_DIR, tag + ".json"), "w",
              encoding="utf-8") as f:
        json.dump({"meta": meta, "hash_verdict": verdict, "result": result,
                   "experiments": records}, f, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


def self_test():
    """Bare, untraced and traced runs of every workload at smoke size must
    end in the same final state and the same RoundStats history."""
    recorded = load_json(RECORDED)
    passed = True
    for name in recorded["workloads"]:
        runs = {mode: experiment(name, recorded["default_seed"], mode,
                                 RUN_LIMIT_S, smoke=True)
                for mode in ("bare", "untraced", "traced")}
        ok = all(r["ok"] for r in runs.values())
        same = ok and len({(r["hash"], r["history_digest"])
                           for r in runs.values()}) == 1
        passed = passed and same
        print("self-test %-11s %s  %s" % (
            name, "PASS" if same else "FAIL",
            "  ".join("%s=%s/%s" % (m, r.get("hash"), r.get("history_digest"))
                      for m, r in runs.items())))
        for m, r in runs.items():
            if not r["ok"]:
                print("  %s: %s" % (m, "; ".join(r["errors"])))
    return 0 if passed else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(SPEC):
        fail("BENCHMARK.json not found at the checkout root")
    spec = load_json(SPEC)
    build()
    if args.self_test:
        return self_test()
    recorded = load_json(RECORDED)
    # BENCHMARK.json names the workloads the benchmark gates on; the runner
    # also knows async_topk, which stays runnable by hand (see README.md).
    if args.workload not in recorded["workloads"]:
        fail("--workload must be one of " + ", ".join(recorded["workloads"]))
    if args.seed is None:
        args.seed = recorded["default_seed"]
    if args.seed < 0:
        fail("--seed must be >= 0")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
