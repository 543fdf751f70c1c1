#!/usr/bin/env python3
"""The repository benchmark: simulator speed and simulated latency.

Run from the repository root:

  python3 perfbench/run.py --workload halo_actop --seed 1 --seconds 30 --trace 0

Builds perfbench_sim (the actop libraries plus this directory's benchmark binary)
into .bench_build/perfbench, runs iterations of one workload, checks every
output, prints each metric by name and unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 gives the end-to-end metrics. The run repeats whole iterations
(cluster build, warm-up, measure window, drain) until --seconds have passed,
and at least once per distinct seed, cycling through the workload's distinct
seeds, which are derived from --seed. Host metrics are medians over all iterations; simulated-time
metrics are medians over the distinct seeds.

--trace 1 gives the per-layer metrics: one untraced and one traced
iteration of --seed, the second with spans, counters at every span and the
layer probes. Spans go to .bench_build/spans/.

Seeds: 1 is the default. 7919 is held out: do not use it while working on a
change, and re-check a claimed gain on it before landing.

Exit status: 0 when every check passes; 1 when a check fails (the JSON line
then says "correct": false); 2, with no JSON line, when the benchmark
cannot run at all (for example outside a repository checkout).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import metrics  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "perfbench_sim")

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

# Distinct seeds per --trace 0 run. The simulated tail of a workload moves
# with its seed; a median over several seeds is what makes a run's
# sim_p99_ms steady from one --seed to the next.
DISTINCT_SEEDS = {
    "halo_actop": 4,
    "reconnect_storm": 3,
    "halo_fleet_k4": 3,
}

ITERATION_TIMEOUT_S = 170
# No new iteration starts once the run is predicted to pass this.
RUN_LIMIT_S = 150


class CannotRun(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sub_seeds(seed, count):
    """`seed` first, so iteration 0 is exactly `perfbench_sim --seed=<seed>`."""
    return [seed + i * 1000003 for i in range(count)]


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise CannotRun("no actop sources next to %s (run from a repository checkout)" % HERE)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise CannotRun("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise CannotRun("build failed")


def iterate(workload, seed, spans=None):
    cmd = [BINARY, "--workload=" + workload, "--seed=%d" % seed]
    if spans is not None:
        cmd += ["--trace=true", "--spans=" + spans]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise CannotRun("%s seed %d did not finish in %d s" % (workload, seed,
                                                               ITERATION_TIMEOUT_S))
    if p.returncode != 0:
        raise CannotRun("%s seed %d exited %d: %s" % (workload, seed, p.returncode,
                                                     p.stderr.strip()[-2000:]))
    return json.loads(p.stdout.strip().splitlines()[-1])


def check(record, traced):
    """Correctness errors of one iteration."""
    raw = record["raw"]
    tag = "%s seed %d: " % (record["workload"], raw["seed"])
    # EvaluateSlo's failures include any invariant violation.
    errors = [tag + f for f in record["slo_failures"]]
    errors += [tag + e for e in metrics.accounting_errors(raw)]
    if not metrics.supports(raw["lat.count"], 0.999):
        errors.append(tag + "%d latency samples leave fewer than %d beyond p99.9"
                      % (raw["lat.count"], metrics.MIN_BEYOND))
    if traced and raw["probe.ok"] != 1:
        errors.append(tag + "a layer probe read back a value its layer rules out")
    return errors


def run_timed(workload, seed, seconds):
    """--trace 0: end-to-end metrics."""
    seeds = sub_seeds(seed, DISTINCT_SEEDS[workload])
    start = time.monotonic()
    records, first, errors = [], {}, []
    while True:
        s = seeds[len(records) % len(seeds)]
        rec = iterate(workload, s)
        errors += check(rec, traced=False)
        if s in first:
            diff = metrics.sim_mismatches(first[s]["raw"], rec["raw"])
            if diff:
                errors.append("%s seed %d is not reproducible: %s differ"
                              % (workload, s, ", ".join(diff)))
        else:
            first[s] = rec
        records.append(rec)
        elapsed = time.monotonic() - start
        per_iteration = elapsed / len(records)
        if len(records) >= len(seeds) and (elapsed + per_iteration > seconds or
                                           elapsed + per_iteration > RUN_LIMIT_S):
            break
    raws = [r["raw"] for r in records]
    distinct = [first[s]["raw"] for s in seeds]
    values = metrics.end_to_end(raws, distinct)
    info = {"iterations": len(records), "seeds": seeds, "raw": raws[0], "distinct": distinct}
    return values, raws, errors, info


def run_traced(workload, seed):
    """--trace 1: per-layer metrics from a traced iteration."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, "%s_seed%d.jsonl" % (workload, seed))
    untraced = iterate(workload, seed)
    traced = iterate(workload, seed, spans=spans)
    errors = check(untraced, traced=False) + check(traced, traced=True)
    diff = metrics.sim_mismatches(untraced["raw"], traced["raw"])
    if diff:
        errors.append("%s seed %d: tracing changed simulated-time values: %s"
                      % (workload, seed, ", ".join(diff)))
    values = metrics.per_layer(traced["raw"], untraced["raw"])
    info = {"iterations": 2, "seeds": [seed], "raw": traced["raw"], "distinct": [traced["raw"]],
            "spans": spans}
    return values, [untraced["raw"], traced["raw"]], errors, info


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(DISTINCT_SEEDS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 1:
        parser.error("--seed must be >= 1")

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            table_errors = metrics.table_errors(json.load(f))
    except (OSError, ValueError) as e:
        table_errors = ["cannot read BENCHMARK.json: %s" % e]
    if table_errors:
        log("\n".join(table_errors))
        return 2

    try:
        build()
        if args.trace:
            values, raws, errors, info = run_traced(args.workload, args.seed)
            table = metrics.PER_LAYER
        else:
            values, raws, errors, info = run_timed(args.workload, args.seed, args.seconds)
            table = metrics.END_TO_END
    except CannotRun as e:
        log("perfbench: %s" % e)
        return 2

    raw = info["raw"]
    print("perfbench %s: seed %d (default %d, held-out %d), trace %d, %d iteration(s) "
          "over seeds %s, engine shards %d, host cores %d"
          % (args.workload, args.seed, DEFAULT_SEED, HELD_OUT_SEED, args.trace,
             info["iterations"], info["seeds"], raw["shards"], raw["host.nproc"]))
    for name, (unit, _) in table.items():
        print("  %-34s %14.6g %s" % (name, values[name], unit))
    for r in info["distinct"]:
        tail = metrics.tail(r)
        if tail:
            print("  seed %d: %d latency samples; highest percentile with >= %d beyond: "
                  "p%g = %.6g ms" % (r["seed"], r["lat.count"], metrics.MIN_BEYOND,
                                     tail[0] * 100, tail[1]))
    if args.trace:
        print("  ledger residual %.3f of RunUntil host time; tracing overhead %+.3f; spans in %s"
              % (values["ledger.residual_frac"], values["trace.overhead_frac"],
                 os.path.relpath(info["spans"], ROOT)))
    for e in errors:
        log("CHECK FAILED: " + e)

    result = {
        "correct": not errors,
        "attempted": sum(metrics.attempted(r) for r in raws),
        "failed": sum(metrics.failed(r) for r in raws),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
