// Layer probes for the benchmark's per-layer ledger.
//
// Each probe is a fixed loop over one layer's stable public entry points,
// sized from the state a benchmark run actually reached, and reports host
// nanoseconds per operation. Multiplied by the layer's operations per
// simulated second (from the run's counters) a probe gives one ledger row:
// the host time that layer should cost per simulated second. The network
// has no probe on purpose; it is measured from its counters only.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <cstddef>
#include <cstdint>

namespace perfbench {

// Probe sizes, taken from the run being attributed.
struct ProbeSizes {
  size_t pending_events = 0;      // mean standing heap per engine shard
  double event_lifetime_s = 0.0;  // mean sim time an event waits (Little's law)
  size_t cache_capacity = 0;      // per-server LocationCache capacity
  size_t cache_entries = 0;       // mean live cache entries per server
  double cache_hit_ratio = 0.0;   // observed Get hit ratio
  size_t directory_entries = 0;   // mean live entries per directory shard
  size_t edge_capacity = 0;       // partition edge-sample capacity (0 = off)
  uint64_t seed = 1;
};

struct ProbeResults {
  double sim_ns_per_event = 0.0;         // Simulation ScheduleAt + dispatch
  double seda_ns_per_completion = 0.0;   // Stage + CpuModel, heap time excluded
  double cache_ns_per_op = 0.0;          // LocationCache Get (+ Put on miss)
  double directory_ns_per_op = 0.0;      // DirectoryShard LookupOrRegister/Unregister
  double observe_ns_per_op = 0.0;        // SpaceSaving Observe (0 when off)
  // Self-checks on the probes' own outputs; false means a layer returned
  // something its contract rules out.
  bool ok = true;
};

ProbeResults RunProbes(const ProbeSizes& sizes);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
