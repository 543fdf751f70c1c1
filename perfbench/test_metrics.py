"""Tests for the benchmark's own arithmetic (metrics.py).

Run from the repository root:  python3 -m unittest discover -s perfbench
"""

import json
import os
import unittest

import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def raw(**kw):
    base = {
        "issued": 1000, "outstanding_at_reset": 0, "completed": 1000, "timeouts": 0,
        "outstanding_after_drain": 0,
    }
    base.update(kw)
    return base


class PercentileSelection(unittest.TestCase):
    def test_p999_needs_ten_thousand_samples(self):
        self.assertFalse(metrics.supports(9999, 0.999))
        self.assertTrue(metrics.supports(10000, 0.999))
        self.assertTrue(metrics.supports(209785, 0.999))

    def test_highest_supported_quantile(self):
        self.assertIsNone(metrics.highest_supported_quantile(19))
        self.assertEqual(metrics.highest_supported_quantile(20), 0.5)
        self.assertEqual(metrics.highest_supported_quantile(100), 0.9)
        self.assertEqual(metrics.highest_supported_quantile(1000), 0.99)
        self.assertEqual(metrics.highest_supported_quantile(19997), 0.999)
        self.assertEqual(metrics.highest_supported_quantile(100000), 0.9999)

    def test_tail_reads_the_selected_percentile(self):
        r = {"lat.count": 125786, "lat.p50_ms": 11.0, "lat.p90_ms": 200.0,
             "lat.p99_ms": 900.0, "lat.p999_ms": 1200.0, "lat.p9999_ms": 1400.0}
        self.assertEqual(metrics.tail(r), (0.9999, 1400.0))
        r["lat.count"] = 99999
        self.assertEqual(metrics.tail(r), (0.999, 1200.0))


class FailureAccounting(unittest.TestCase):
    def test_stragglers_count_as_attempted(self):
        # 25 warm-up requests were still outstanding at the measure-window
        # reset; they complete inside the window, so completed exceeds the
        # window's own issued count. Attempted must include them.
        r = raw(issued=209760, outstanding_at_reset=25, completed=209785)
        self.assertEqual(metrics.attempted(r), 209785)
        self.assertEqual(metrics.failed(r), 0)
        self.assertEqual(metrics.failed_frac(r), 0.0)
        self.assertEqual(metrics.accounting_errors(r), [])

    def test_timed_out_stragglers_are_failures(self):
        r = raw(issued=1000, outstanding_at_reset=10, completed=1000, timeouts=10)
        self.assertEqual(metrics.failed(r), 10)
        self.assertAlmostEqual(metrics.failed_frac(r), 10 / 1010)
        self.assertEqual(metrics.accounting_errors(r), [])

    def test_lost_reply_breaks_accounting(self):
        r = raw(issued=1000, outstanding_at_reset=10, completed=1005, timeouts=4)
        self.assertEqual(len(metrics.accounting_errors(r)), 1)

    def test_request_left_outstanding_breaks_accounting(self):
        r = raw(completed=999, outstanding_after_drain=1)
        errors = metrics.accounting_errors(r)
        self.assertEqual(len(errors), 1)
        self.assertIn("outstanding after the drain", errors[0])


class Ledger(unittest.TestCase):
    def record(self, shards=1):
        return {
            "host.measure_s": 2.0, "shards": shards,
            "probe.sim_ns_per_event": 100.0, "events": 4e6,            # 0.4 s
            "probe.seda_ns_per_completion": 200.0, "stage_completions": 2e6,  # 0.4 s
            "probe.cache_ns_per_op": 50.0, "cache_hits": 3e6, "cache_misses": 1e6,  # 0.2 s
            "probe.directory_ns_per_op": 100.0,                        # 0.1 s
            "probe.observe_ns_per_op": 0.0, "edge_observations": 0,
        }

    def test_rows_and_residual(self):
        led = metrics.ledger(self.record())
        self.assertAlmostEqual(led["ledger.sim_frac"], 0.2)
        self.assertAlmostEqual(led["ledger.seda_frac"], 0.2)
        self.assertAlmostEqual(led["ledger.cache_frac"], 0.1)
        self.assertAlmostEqual(led["ledger.directory_frac"], 0.05)
        self.assertEqual(led["ledger.core_frac"], 0.0)
        self.assertAlmostEqual(led["ledger.attributed_frac"], 0.55)
        self.assertAlmostEqual(led["ledger.residual_frac"], 0.45)

    def test_sharded_budget_counts_every_thread(self):
        led = metrics.ledger(self.record(shards=4))
        self.assertAlmostEqual(led["ledger.attributed_frac"], 0.55 / 4)
        self.assertAlmostEqual(led["ledger.residual_frac"], 1 - 0.55 / 4)


class Reproducibility(unittest.TestCase):
    def test_host_values_may_differ_sim_values_may_not(self):
        a = {"host.measure_s": 1.0, "probe.x": 3.0, "events": 10, "lat.p99_ms": 5.0}
        b = {"host.measure_s": 1.5, "probe.x": 4.0, "events": 10, "lat.p99_ms": 5.0}
        self.assertEqual(metrics.sim_mismatches(a, b), [])
        b["lat.p99_ms"] = 5.25
        self.assertEqual(metrics.sim_mismatches(a, b), ["lat.p99_ms"])


class EndToEnd(unittest.TestCase):
    def test_sim_metrics_count_each_seed_once(self):
        def it(seed, host_s, p99):
            return raw(**{"seed": seed, "sim.measure_ms": 1000.0, "host.measure_s": host_s,
                          "host.cluster_s": 0.1, "host.workload_s": 0.1, "host.warmup_s": 1.0,
                          "host.peak_rss_mb": 80.0, "lat.p50_ms": 1.0, "lat.p99_ms": p99,
                          "lat.p999_ms": 2 * p99})
        a, b, c = it(1, 1.0, 10.0), it(2, 2.0, 20.0), it(3, 4.0, 90.0)
        again = it(1, 0.5, 10.0)
        e2e = metrics.end_to_end([a, b, c, again], [a, b, c])
        self.assertEqual(e2e["sim_p99_ms"], 20.0)
        self.assertEqual(e2e["sim_p999_ms"], 40.0)
        self.assertEqual(e2e["sim_ms_per_host_s"], 750.0)  # median of 1000, 500, 250, 2000
        self.assertAlmostEqual(e2e["setup_s"], 1.2)
        self.assertEqual(e2e["goodput_frac"], 1.0)


class MetricSets(unittest.TestCase):
    RAW_KEYS = [
        "seed", "shards", "sim.measure_ms", "host.cluster_s", "host.workload_s",
        "host.warmup_s", "host.measure_s", "host.invariant_s", "host.peak_rss_mb",
        "host.measure_allocs", "events", "net_msgs", "net_bytes", "net_dropped",
        "stage_completions", "stage_rejections", "busy_core_ns", "cores_total",
        "queue_wait_ns", "queue_wait_count", "cache_hits", "cache_misses", "remote_msgs",
        "local_msgs", "migrations", "rounds", "exchanges_accepted", "exchanges_rejected",
        "arrivals", "burst_arrivals", "activations_setup", "edge_observations",
        "threads_per_server_mean", "directory_entries", "call.p50_ms", "call.p99_ms",
        "inv.checks", "lat.p50_ms", "lat.p99_ms", "lat.p999_ms", "probe.sim_ns_per_event",
        "probe.seda_ns_per_completion", "probe.cache_ns_per_op",
        "probe.directory_ns_per_op", "probe.observe_ns_per_op",
    ]

    def test_every_listed_metric_is_computed(self):
        r = raw(**{k: 1.0 for k in self.RAW_KEYS})
        self.assertEqual(list(metrics.end_to_end([r], [r])), list(metrics.END_TO_END))
        self.assertEqual(sorted(metrics.per_layer(r, r)), sorted(metrics.PER_LAYER))


class BenchmarkTable(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            self.bench = json.load(f)

    def test_table_matches_metrics(self):
        self.assertEqual(metrics.table_errors(self.bench), [])

    def test_renamed_metric_is_caught(self):
        self.bench["end_to_end"][0]["name"] = "sim_speed"
        self.assertEqual(len(metrics.table_errors(self.bench)), 1)

    def test_changed_unit_is_caught(self):
        self.bench["per_layer"][0]["unit"] = "count"
        self.assertEqual(len(metrics.table_errors(self.bench)), 1)

    def test_contract(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds", "workloads", "end_to_end",
                                  "per_layer"})
        self.assertEqual(sorted(w["name"] for w in b["workloads"]),
                         ["halo_actop", "halo_fleet_k4", "reconnect_storm"])
        for m in b["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(setup["bound"], max(m["bound"] for m in b["end_to_end"]))
        self.assertIn(b["run_seconds"], range(1, 61))


if __name__ == "__main__":
    unittest.main()
