// Tier-1 memory-footprint regression: cumulative allocated bytes per actor
// for a small Halo Presence cluster, counted by a global operator new hook.
//
// bench_halo_scale gates the same quantity at the 1000-server / 10M-actor
// point (~2.9 KB/actor, 3200 ceiling), but that run takes ~20 minutes and
// only executes on demand. This test pins the per-actor growth path in the
// regular ctest sweep: it builds an 8-server / 20K-player cluster, starts
// the workload and runs the warm-up, then asserts cumulative bytes/actor
// under ceilings measured with ~50% headroom. A regression that doubles
// per-player state (e.g. reintroducing per-actor node-based containers in
// the player/roster slabs) trips this in seconds instead of surfacing in
// the next full-scale halo run.
//
// The counters are cumulative allocation, not live bytes — transient churn
// counts too, which is intentional: the flat-state pass was about removing
// per-actor allocations outright, not about recycling them faster.
//
// This file must be its own test binary: the replaced global operator new
// counts every allocation in the process, which would skew no one else's
// assertions but is intrusive enough to keep out of runtime_test.

#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "bench/halo_common.h"
#include "src/common/sim_time.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/workload/halo_presence.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};
std::atomic<uint64_t> g_alloc_bytes{0};
}  // namespace

// See bench_partition.cc: GCC flags the opaque replaced operator new against
// inlined STL deletes in this TU (known counting-allocator false positive).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace actop {
namespace {

struct FootprintPhases {
  uint64_t bytes_cluster_build = 0;  // engine + servers + caches
  uint64_t bytes_workload_start = 0;  // + player tables, initial games
  uint64_t bytes_warmup = 0;          // + activation wave, directory fill
};

// Mirrors bench_halo_scale's phase structure at toy scale: snapshot the
// cumulative byte counter after cluster construction, workload start, and a
// short warm-up covering the initial SetGame wave.
FootprintPhases RunFootprintPhases(const HaloExperimentConfig& config, SimDuration warmup) {
  const ClusterConfig cluster_config = MakeHaloClusterConfig(config);
  ShardedEngineConfig engine_config;
  engine_config.shards = config.shards;
  engine_config.lookahead = cluster_config.network.one_way_latency;

  FootprintPhases out;
  ShardedEngine engine(engine_config);
  Cluster cluster(&engine, cluster_config);
  out.bytes_cluster_build = g_alloc_bytes.load(std::memory_order_relaxed);

  HaloWorkload halo(&cluster, MakeHaloWorkloadConfig(config));
  halo.Start();
  cluster.StartOptimizers();
  out.bytes_workload_start = g_alloc_bytes.load(std::memory_order_relaxed);

  engine.RunUntil(warmup);
  out.bytes_warmup = g_alloc_bytes.load(std::memory_order_relaxed);
  return out;
}

// At this scale the fixed per-server state (stages, caches, metrics) still
// amortizes over only 2.5K players/server, so the per-actor figure sits above
// the full-scale ~2.9 KB. Ceilings are measured values plus ~50% headroom;
// the absolute numbers are printed on every run for easy re-anchoring.
TEST(MemoryFootprint, BytesPerActorStaysBounded) {
  g_alloc_bytes.store(0, std::memory_order_relaxed);
  g_alloc_count.store(0, std::memory_order_relaxed);

  HaloExperimentConfig config;
  config.num_servers = 8;
  config.players = 20000;
  config.request_rate = 200.0;
  config.partitioning = false;
  config.thread_optimization = true;
  config.seed = 42;

  const FootprintPhases phases = RunFootprintPhases(config, Seconds(2));
  const double players = static_cast<double>(config.players);
  const double build_per_actor = static_cast<double>(phases.bytes_cluster_build) / players;
  const double start_per_actor = static_cast<double>(phases.bytes_workload_start) / players;
  const double warm_per_actor = static_cast<double>(phases.bytes_warmup) / players;

  std::printf("footprint: build %.1f B/actor, +workload %.1f, +warmup %.1f (total %llu bytes)\n",
              build_per_actor, start_per_actor, warm_per_actor,
              static_cast<unsigned long long>(phases.bytes_warmup));

  // Sanity: the phases actually allocated and are monotone.
  EXPECT_GT(phases.bytes_cluster_build, 0u);
  EXPECT_GE(phases.bytes_workload_start, phases.bytes_cluster_build);
  EXPECT_GE(phases.bytes_warmup, phases.bytes_workload_start);

  // Measured 2196 B/actor through warm-up (RelWithDebInfo, seed 42).
  EXPECT_LT(warm_per_actor, 3300.0);
  // The workload-start phase holds the dense player/roster slabs; pin it
  // separately so a per-player container regression is attributed directly.
  // Measured 168 B/actor — the slab growth path doubles capacity, so allow
  // a generous 2.4x before calling it a regression.
  EXPECT_LT(start_per_actor - build_per_actor, 400.0);
}

// Same shape with the partitioning control plane on (arena planner, edge
// samplers, exchange wiring): pins the control plane's per-actor overhead so
// planner changes that start allocating per-vertex state get caught here,
// not only by the fig10b allocs/event ratchet.
TEST(MemoryFootprint, PartitioningControlPlaneOverheadStaysBounded) {
  g_alloc_bytes.store(0, std::memory_order_relaxed);
  g_alloc_count.store(0, std::memory_order_relaxed);

  HaloExperimentConfig config;
  config.num_servers = 8;
  config.players = 20000;
  config.request_rate = 200.0;
  config.partitioning = true;
  config.thread_optimization = true;
  config.seed = 42;

  const FootprintPhases phases = RunFootprintPhases(config, Seconds(2));
  const double players = static_cast<double>(config.players);
  const double warm_per_actor = static_cast<double>(phases.bytes_warmup) / players;

  std::printf("footprint(partitioning): +warmup %.1f B/actor (total %llu bytes)\n",
              warm_per_actor, static_cast<unsigned long long>(phases.bytes_warmup));

  EXPECT_GT(phases.bytes_warmup, 0u);
  // Measured 2786 B/actor: the 2196 base plus edge samplers, the planning
  // workspace (one CSR plan graph and arena per thread, not per server),
  // and exchange wire traffic.
  EXPECT_LT(warm_per_actor, 5200.0);
}

}  // namespace
}  // namespace actop
