#include "perfbench/probes.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/actor/directory.h"
#include "src/actor/location_cache.h"
#include "src/common/ids.h"
#include "src/common/rng.h"
#include "src/common/sim_time.h"
#include "src/core/space_saving.h"
#include "src/load/keyspace.h"
#include "src/seda/cpu.h"
#include "src/seda/stage.h"
#include "src/sim/simulation.h"

namespace perfbench {
namespace {

using actop::ActorId;

constexpr int kReps = 5;

double HostSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Host ns per op: the median over kReps calls of `rep`, each of which does
// some work and returns how many ops it did.
template <typename Rep>
double MedianNsPerOp(Rep&& rep) {
  std::vector<double> per_op;
  for (int i = 0; i < kReps; i++) {
    const double t0 = HostSeconds();
    const double ops = rep(i);
    const double ns = (HostSeconds() - t0) * 1e9;
    per_op.push_back(ops > 0 ? ns / ops : 0.0);
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

// Hold model: `pending` standing events, each of which reschedules itself
// an exponential lifetime ahead when it fires, so the heap keeps its size.
struct HoldModel {
  actop::Simulation sim;
  actop::Rng rng;
  double mean_ns;

  HoldModel(size_t pending, double mean_ns_in, uint64_t seed) : rng(seed), mean_ns(mean_ns_in) {
    for (size_t i = 0; i < pending; i++) {
      Arm();
    }
  }
  void Arm() {
    const auto delay = static_cast<actop::SimDuration>(rng.NextExp(mean_ns) + 1.0);
    sim.ScheduleAfter(delay, [this] { Arm(); });
  }
};

double HoldNsPerEvent(size_t pending, double lifetime_s, uint64_t seed, uint64_t events) {
  const size_t n = std::max<size_t>(1, pending);
  const double mean_ns = std::max(1.0, lifetime_s * 1e9);
  // Sim time that holds about `events` dispatches at this heap size.
  const auto span = static_cast<actop::SimDuration>(mean_ns * static_cast<double>(events) /
                                                    static_cast<double>(n)) + 1;
  HoldModel model(n, mean_ns, seed);
  return MedianNsPerOp([&](int) {
    const uint64_t before = model.sim.events_executed();
    model.sim.RunUntil(model.sim.now() + span);
    return static_cast<double>(model.sim.events_executed() - before);
  });
}

// One SEDA stage of 8 threads on an 8-core CPU model, fed at half capacity
// with exponential compute demands. Returns Stage + CpuModel host time per
// completion with the heap's share (measured by a hold model at the
// probe's own heap size) subtracted.
double SedaSelfNsPerCompletion(uint64_t seed, bool* ok) {
  constexpr int kCores = 8;
  constexpr uint64_t kCompletions = 200000;
  const double compute_ns = 40e3;
  const double gap_ns = compute_ns / kCores * 2.0;

  actop::Simulation sim;
  actop::CpuModel cpu(&sim, kCores, 0.03, actop::Micros(60), seed);
  actop::Stage stage(&sim, &cpu, "probe", kCores);
  cpu.set_total_threads(kCores);
  actop::Rng rng(seed ^ 0x5eda);
  uint64_t completions = 0;
  uint64_t enqueued = 0;
  bool running = true;
  struct Feeder {
    actop::Simulation* sim;
    actop::Stage* stage;
    actop::Rng* rng;
    double compute_ns, gap_ns;
    uint64_t *completions, *enqueued;
    bool* running;
    void Next() {
      const auto gap = static_cast<actop::SimDuration>(rng->NextExp(gap_ns) + 1.0);
      sim->ScheduleAfter(gap, [this] {
        if (!*running) {
          return;
        }
        actop::StageEvent ev;
        ev.compute = static_cast<actop::SimDuration>(rng->NextExp(compute_ns) + 1.0);
        uint64_t* done = completions;
        ev.done = [done] { (*done)++; };
        stage->Enqueue(std::move(ev));
        (*enqueued)++;
        Next();
      });
    }
  } feeder{&sim, &stage, &rng, compute_ns, gap_ns, &completions, &enqueued, &running};
  feeder.Next();

  uint64_t events = 0;
  uint64_t rep_completions = 0;
  size_t pending_sum = 0;
  int pending_samples = 0;
  const double ns = MedianNsPerOp([&](int) {
    const uint64_t c0 = completions;
    const uint64_t e0 = sim.events_executed();
    while (completions - c0 < kCompletions) {
      sim.RunUntil(sim.now() + actop::Millis(10));
      pending_sum += sim.pending_events();
      pending_samples++;
    }
    // Heap included here; the rep's event count is kept for the
    // subtraction below.
    events = sim.events_executed() - e0;
    rep_completions = completions - c0;
    return static_cast<double>(rep_completions);
  });
  running = false;
  sim.Run();
  if (completions != enqueued || stage.total_rejections() != 0) {
    *ok = false;
  }
  const double events_per_completion =
      static_cast<double>(events) / static_cast<double>(rep_completions);
  const size_t mean_pending = pending_samples == 0 ? 1 : pending_sum / pending_samples;
  const double lifetime_s = compute_ns / 1e9;
  const double heap_ns = HoldNsPerEvent(mean_pending, lifetime_s, seed, 200000);
  return ns - events_per_completion * heap_ns;
}

double CacheNsPerOp(const ProbeSizes& s, bool* ok) {
  constexpr uint64_t kOps = 1000000;
  const size_t capacity = std::max<size_t>(1, s.cache_capacity);
  const size_t entries = std::clamp<size_t>(s.cache_entries, 1, capacity);
  // Keys beyond the resident set miss; the key range is sized so the
  // uniform draw hits at roughly the observed ratio.
  const double hit = std::clamp(s.cache_hit_ratio, 0.01, 1.0);
  const auto key_space = static_cast<uint64_t>(static_cast<double>(entries) / hit) + 1;
  actop::LocationCache cache(capacity);
  for (uint64_t k = 1; k <= entries; k++) {
    cache.Put(k, static_cast<actop::ServerId>(k % 8));
  }
  actop::Rng rng(s.seed ^ 0xcace);
  return MedianNsPerOp([&](int) {
    for (uint64_t i = 0; i < kOps; i++) {
      const ActorId key = 1 + rng.NextBounded(key_space);
      if (cache.Get(key) == actop::kNoServer) {
        const auto server = static_cast<actop::ServerId>(key % 8);
        cache.Put(key, server);
        if ((i & 0xFFF) == 0 && cache.Peek(key) != server) {
          *ok = false;
        }
      }
    }
    return static_cast<double>(kOps);
  });
}

double DirectoryNsPerOp(const ProbeSizes& s, bool* ok) {
  constexpr uint64_t kOps = 1000000;
  const uint64_t entries = std::max<size_t>(1, s.directory_entries);
  actop::DirectoryShard shard;
  for (uint64_t k = 1; k <= entries; k++) {
    shard.LookupOrRegister(k, static_cast<actop::ServerId>(k % 8));
  }
  actop::Rng rng(s.seed ^ 0xd1);
  // Half the draws find a resident registration; the other half register
  // a new actor and unregister it again, so the shard keeps its size.
  return MedianNsPerOp([&](int) {
    for (uint64_t i = 0; i < kOps; i++) {
      const ActorId key = 1 + rng.NextBounded(2 * entries);
      const actop::DirEntry e = shard.LookupOrRegister(key, static_cast<actop::ServerId>(i % 8));
      if (e.owner == actop::kNoServer) {
        *ok = false;
      }
      if (key > entries) {
        shard.Unregister(key, e.owner, e.token);
      }
    }
    if (shard.size() != entries) {
      *ok = false;
    }
    return static_cast<double>(kOps);
  });
}

struct EdgeKey {
  ActorId local;
  ActorId peer;
  bool operator==(const EdgeKey&) const = default;
};
struct EdgeKeyHash {
  size_t operator()(const EdgeKey& k) const {
    return static_cast<size_t>(actop::SplitMix64(k.local ^ actop::SplitMix64(k.peer)));
  }
};

double ObserveNsPerOp(const ProbeSizes& s, bool* ok) {
  constexpr uint64_t kOps = 1000000;
  if (s.edge_capacity == 0) {
    return 0.0;
  }
  // Edge popularity is skewed (players in one game talk to each other far
  // more than to anyone else): Zipf(1) over four times the capacity.
  actop::SpaceSaving<EdgeKey, EdgeKeyHash> edges(s.edge_capacity);
  const actop::ZipfSampler zipf(4 * s.edge_capacity, 1.0);
  actop::Rng rng(s.seed ^ 0xed9e);
  std::vector<EdgeKey> keys(kOps);
  for (EdgeKey& k : keys) {
    const uint64_t e = zipf.Sample(rng);
    k = EdgeKey{e, e * 0x9e3779b97f4a7c15ULL + 1};
  }
  const double ns = MedianNsPerOp([&](int) {
    for (const EdgeKey& k : keys) {
      edges.Observe(k);
    }
    return static_cast<double>(kOps);
  });
  if (edges.size() != s.edge_capacity || edges.total_observed() != kReps * kOps) {
    *ok = false;
  }
  return ns;
}

}  // namespace

ProbeResults RunProbes(const ProbeSizes& sizes) {
  ProbeResults r;
  r.sim_ns_per_event =
      HoldNsPerEvent(sizes.pending_events, sizes.event_lifetime_s, sizes.seed, 500000);
  r.seda_ns_per_completion = SedaSelfNsPerCompletion(sizes.seed, &r.ok);
  r.cache_ns_per_op = CacheNsPerOp(sizes, &r.ok);
  r.directory_ns_per_op = DirectoryNsPerOp(sizes, &r.ok);
  r.observe_ns_per_op = ObserveNsPerOp(sizes, &r.ok);
  return r;
}

}  // namespace perfbench
