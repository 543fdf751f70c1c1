"""The benchmark's arithmetic: raw iteration records -> named metrics.

perfbench_sim prints one raw record per iteration (see main.cc). Keys that
start with `host.` or `probe.` are host measurements; every other key is a
simulated-time value that repeats exactly for the same workload and seed.
This module is pure functions over those records so that test_metrics.py
can check each rule on hand-made numbers.
"""

import statistics

# name -> (unit, better); the order is the print order. BENCHMARK.json must
# list exactly these (test_metrics.py and run.py both check it).
END_TO_END = {
    "sim_ms_per_host_s": ("ms/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sim_p50_ms": ("ms", "lower"),
    "sim_p99_ms": ("ms", "lower"),
    "sim_p999_ms": ("ms", "lower"),
    "goodput_frac": ("fraction", "higher"),
}

PER_LAYER = {
    "sim.events_per_sim_s": ("1/s", "lower"),
    "sim.host_ns_per_event": ("ns", "lower"),
    "sim.allocs_per_event": ("count", "lower"),
    "sim.probe_ns_per_event": ("ns", "lower"),
    "seda.queue_wait_ms": ("ms", "lower"),
    "seda.cpu_util": ("fraction", "lower"),
    "seda.completions_per_req": ("count", "lower"),
    "seda.rejections": ("count", "lower"),
    "seda.probe_ns_per_event": ("ns", "lower"),
    "core.partition_rounds": ("count", "lower"),
    "core.partition_accept_ratio": ("fraction", "higher"),
    "core.migrations": ("count", "lower"),
    "core.threads_allocated": ("count", "lower"),
    "core.observe_probe_ns": ("ns", "lower"),
    "runtime.remote_msg_frac": ("fraction", "lower"),
    "runtime.call_p50_ms": ("ms", "lower"),
    "runtime.call_p99_ms": ("ms", "lower"),
    "runtime.activations": ("count", "lower"),
    "net.msgs_per_req": ("count", "lower"),
    "net.kb_per_req": ("KiB", "lower"),
    "net.dropped": ("count", "lower"),
    "actor.cache_hit_ratio": ("fraction", "higher"),
    "actor.cache_lookups_per_req": ("count", "lower"),
    "actor.directory_entries": ("count", "lower"),
    "actor.cache_probe_ns_per_op": ("ns", "lower"),
    "actor.directory_probe_ns_per_op": ("ns", "lower"),
    "load.arrivals": ("count", "higher"),
    "load.burst_arrivals": ("count", "higher"),
    "load.outstanding_at_reset": ("count", "lower"),
    "load.failed_frac": ("fraction", "lower"),
    "testing.invariant_host_s": ("s", "lower"),
    "testing.invariant_checks": ("count", "higher"),
    "setup.cluster_s": ("s", "lower"),
    "setup.workload_s": ("s", "lower"),
    "setup.warmup_s": ("s", "lower"),
    "ledger.sim_frac": ("fraction", "lower"),
    "ledger.seda_frac": ("fraction", "lower"),
    "ledger.cache_frac": ("fraction", "lower"),
    "ledger.directory_frac": ("fraction", "lower"),
    "ledger.core_frac": ("fraction", "lower"),
    "ledger.attributed_frac": ("fraction", "higher"),
    "ledger.residual_frac": ("fraction", "lower"),
    "trace.overhead_frac": ("fraction", "lower"),
}

# Quantiles the raw record carries, as (q, raw key).
QUANTILES = [
    (0.5, "lat.p50_ms"),
    (0.9, "lat.p90_ms"),
    (0.99, "lat.p99_ms"),
    (0.999, "lat.p999_ms"),
    (0.9999, "lat.p9999_ms"),
]

MIN_BEYOND = 10  # samples a reported percentile must have beyond it


def beyond(count, q):
    """Samples strictly beyond quantile q of `count` samples."""
    # Rounded, so that 10,000 * (1 - 0.999) counts as the 10 it is.
    return round(count * (1.0 - q), 6)


def highest_supported_quantile(count):
    """Highest carried quantile with at least MIN_BEYOND samples beyond it,
    or None when even the median lacks them."""
    best = None
    for q, _ in QUANTILES:
        if beyond(count, q) >= MIN_BEYOND:
            best = q
    return best


def supports(count, q):
    return beyond(count, q) >= MIN_BEYOND


def tail(raw):
    """(quantile, ms) of the highest carried percentile that has at least
    MIN_BEYOND samples beyond it in this record, or None."""
    q = highest_supported_quantile(raw["lat.count"])
    return None if q is None else (q, raw[dict(QUANTILES)[q]])


def attempted(raw):
    """Requests the measure window is answerable for: the ones it issued plus
    the warm-up stragglers still outstanding when the window opened (their
    completions land in the window's counters)."""
    return int(raw["issued"] + raw["outstanding_at_reset"])


def failed(raw):
    return attempted(raw) - int(raw["completed"])


def failed_frac(raw):
    n = attempted(raw)
    return failed(raw) / n if n else 0.0


def accounting_errors(raw):
    """Reply accounting after the drain: every attempted request completed or
    timed out, and none is left outstanding."""
    errors = []
    resolved = raw["completed"] + raw["timeouts"] + raw["outstanding_after_drain"]
    if resolved != attempted(raw):
        errors.append(
            "reply accounting: completed %d + timed out %d + outstanding %d != "
            "issued %d + outstanding at reset %d"
            % (raw["completed"], raw["timeouts"], raw["outstanding_after_drain"],
               raw["issued"], raw["outstanding_at_reset"]))
    if raw["outstanding_after_drain"] != 0:
        errors.append("%d requests still outstanding after the drain"
                      % raw["outstanding_after_drain"])
    return errors


def sim_values(raw):
    """The simulated-time part of a raw record."""
    return {k: v for k, v in raw.items()
            if not k.startswith("host.") and not k.startswith("probe.")}


def sim_mismatches(a, b):
    """Names of simulated-time values that differ between two records."""
    va, vb = sim_values(a), sim_values(b)
    return sorted(k for k in set(va) | set(vb) if va.get(k) != vb.get(k))


def ratio(num, den):
    return num / den if den else 0.0


def ledger(raw):
    """Host time per layer over the measure window, as shares of the engine's
    RunUntil time. Each row is a probe's ns/op times the layer's operations
    in the window. The denominator counts every shard's thread, so a K-shard
    run is attributed against K x its wall time. The residual is what no
    probe covers: mostly the server call path, whose entry points are
    private, plus the network."""
    budget_ns = raw["host.measure_s"] * 1e9 * raw["shards"]
    rows = {
        "sim": raw["probe.sim_ns_per_event"] * raw["events"],
        "seda": raw["probe.seda_ns_per_completion"] * raw["stage_completions"],
        "cache": raw["probe.cache_ns_per_op"] * (raw["cache_hits"] + raw["cache_misses"]),
        # Every cache miss is answered by a directory lookup.
        "directory": raw["probe.directory_ns_per_op"] * raw["cache_misses"],
        "core": raw["probe.observe_ns_per_op"] * raw["edge_observations"],
    }
    out = {"ledger.%s_frac" % k: ratio(v, budget_ns) for k, v in rows.items()}
    attributed = ratio(sum(rows.values()), budget_ns)
    out["ledger.attributed_frac"] = attributed
    out["ledger.residual_frac"] = 1.0 - attributed
    return out


def end_to_end(runs, distinct):
    """End-to-end metrics from the untraced iterations of one run.

    `runs` are all iterations; host metrics are their medians. `distinct` are
    the iterations of distinct seeds; simulated-time metrics are medians over
    those, so an iteration repeated only to fill the run's time counts once.
    """
    def med(values):
        return statistics.median(values)

    return {
        "sim_ms_per_host_s": med([r["sim.measure_ms"] / r["host.measure_s"] for r in runs]),
        "setup_s": med([r["host.cluster_s"] + r["host.workload_s"] + r["host.warmup_s"]
                        for r in runs]),
        "peak_rss_mb": med([r["host.peak_rss_mb"] for r in runs]),
        "sim_p50_ms": med([r["lat.p50_ms"] for r in distinct]),
        "sim_p99_ms": med([r["lat.p99_ms"] for r in distinct]),
        "sim_p999_ms": med([r["lat.p999_ms"] for r in distinct]),
        "goodput_frac": med([1.0 - failed_frac(r) for r in distinct]),
    }


def per_layer(traced, untraced):
    """Per-layer metrics from one traced iteration; `untraced` is the same
    seed run without tracing, for the overhead figure."""
    r = traced
    n = attempted(r)
    sim_s = r["sim.measure_ms"] / 1e3
    lookups = r["cache_hits"] + r["cache_misses"]
    out = {
        "sim.events_per_sim_s": r["events"] / sim_s,
        "sim.host_ns_per_event": ratio(r["host.measure_s"] * 1e9, r["events"]),
        "sim.allocs_per_event": ratio(r["host.measure_allocs"], r["events"]),
        "sim.probe_ns_per_event": r["probe.sim_ns_per_event"],
        "seda.queue_wait_ms": ratio(r["queue_wait_ns"], r["queue_wait_count"]) / 1e6,
        "seda.cpu_util": ratio(r["busy_core_ns"], r["cores_total"] * sim_s * 1e9),
        "seda.completions_per_req": ratio(r["stage_completions"], n),
        "seda.rejections": r["stage_rejections"],
        "seda.probe_ns_per_event": r["probe.seda_ns_per_completion"],
        "core.partition_rounds": r["rounds"],
        "core.partition_accept_ratio": ratio(
            r["exchanges_accepted"], r["exchanges_accepted"] + r["exchanges_rejected"]),
        "core.migrations": r["migrations"],
        "core.threads_allocated": r["threads_per_server_mean"],
        "core.observe_probe_ns": r["probe.observe_ns_per_op"],
        "runtime.remote_msg_frac": ratio(r["remote_msgs"], r["remote_msgs"] + r["local_msgs"]),
        "runtime.call_p50_ms": r["call.p50_ms"],
        "runtime.call_p99_ms": r["call.p99_ms"],
        "runtime.activations": r["activations_setup"],
        "net.msgs_per_req": ratio(r["net_msgs"], n),
        "net.kb_per_req": ratio(r["net_bytes"] / 1024.0, n),
        "net.dropped": r["net_dropped"],
        "actor.cache_hit_ratio": ratio(r["cache_hits"], lookups),
        "actor.cache_lookups_per_req": ratio(lookups, n),
        "actor.directory_entries": r["directory_entries"],
        "actor.cache_probe_ns_per_op": r["probe.cache_ns_per_op"],
        "actor.directory_probe_ns_per_op": r["probe.directory_ns_per_op"],
        "load.arrivals": r["arrivals"],
        "load.burst_arrivals": r["burst_arrivals"],
        "load.outstanding_at_reset": r["outstanding_at_reset"],
        "load.failed_frac": failed_frac(r),
        "testing.invariant_host_s": r["host.invariant_s"],
        "testing.invariant_checks": r["inv.checks"],
        "setup.cluster_s": r["host.cluster_s"],
        "setup.workload_s": r["host.workload_s"],
        "setup.warmup_s": r["host.warmup_s"],
        "trace.overhead_frac": ratio(r["host.measure_s"], untraced["host.measure_s"]) - 1.0,
    }
    out.update(ledger(r))
    return out


def table_errors(bench):
    """Differences between BENCHMARK.json's metric table and this module's."""
    errors = []

    def compare(kind, listed, expected):
        names = [m["name"] for m in listed]
        if names != list(expected):
            errors.append("%s names in BENCHMARK.json %s != %s" % (kind, names, list(expected)))
            return
        for m in listed:
            unit, better = expected[m["name"]]
            if m["unit"] != unit:
                errors.append("%s %s: unit %r != %r" % (kind, m["name"], m["unit"], unit))
            if m["better"] != better:
                errors.append("%s %s: better %r != %r" % (kind, m["name"], m["better"], better))

    compare("end_to_end", bench.get("end_to_end", []), END_TO_END)
    compare("per_layer", bench.get("per_layer", []), PER_LAYER)
    return errors
