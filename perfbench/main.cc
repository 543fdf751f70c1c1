// perfbench_sim: one iteration of one benchmark workload, as raw JSON.
//
// An iteration builds the cluster, starts the workload and its open-loop
// driver, warms up, measures a window, drains, and prints one JSON object
// of raw measurements on stdout. run.py turns repeated iterations into the
// benchmark's metrics; see README.md for the workloads and the metric table.
//
// Usage:
//   perfbench_sim --workload=NAME --seed=N [--trace] [--spans=FILE]
//
// Host time is measured from outside every call into the program: cluster
// construction, workload start, StartOptimizers, each RunUntil chunk and
// each invariant sweep are timed separately, so sweeps never count as
// simulation. With --trace the iteration also records a span around each of
// those calls, snapshots the layer counters at both ends of every span, and
// afterwards runs the layer probes (probes.h). Raw keys prefixed `host.` or
// `probe.` are host measurements; every other key is a simulated-time value
// that must repeat exactly for the same workload and seed.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/probes.h"
#include "src/common/flags.h"
#include "src/common/sim_time.h"
#include "src/load/open_loop.h"
#include "src/load/rate_schedule.h"
#include "src/load/report.h"
#include "src/runtime/cluster.h"
#include "src/sim/sharded_engine.h"
#include "src/testing/invariants.h"
#include "src/workload/halo_presence.h"
#include "src/workload/heartbeat.h"

namespace {
std::atomic<uint64_t> g_alloc_count{0};
}  // namespace

// GCC flags the opaque replaced operator new against inlined STL deletes in
// this TU (known counting-allocator false positive).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace perfbench {
namespace {

using actop::Cluster;
using actop::ClusterConfig;
using actop::Seconds;
using actop::SimDuration;
using actop::SimTime;

constexpr SimDuration kClientTimeout = Seconds(5);
// Outlives the client timeout plus the 1 s timeout sweep, so every request
// of the measure window resolves to completed or timed out.
constexpr int64_t kDrainS = 7;

double HostSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Engine cut for whole second `s`: 1 ns before it. The thread controller
// takes (and resets) every stage's window at each whole second, so a cut
// just before it sees the window the controller is about to take.
SimTime Cut(int64_t s) { return Seconds(s) - 1; }

// --- workloads -------------------------------------------------------------

struct Plan {
  int64_t warmup_s = 0;
  int64_t measure_s = 0;
  int64_t sweep_every_s = 2;
  bool quiescent_check = true;  // false: optimizers keep migrating after traffic
  int64_t balance_delta = 0;    // > 0: also check the partitioner balance bound
  int64_t balance_slack = 0;
  actop::SloSpec slo;
};

struct Instance {
  ClusterConfig cfg;
  int shards = 1;
  Plan plan;
  std::unique_ptr<actop::ShardedEngine> engine;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<actop::HaloWorkload> halo;
  std::unique_ptr<actop::HeartbeatWorkload> fleet;
  std::unique_ptr<actop::RateSchedule> schedule;
  actop::ClientPool* pool = nullptr;

  void StopWorkload() {
    if (halo) halo->Stop();
    if (fleet) fleet->Stop();
  }
};

actop::HaloWorkloadConfig HaloConfig(int players, double rate, uint64_t seed) {
  actop::HaloWorkloadConfig wl;
  wl.target_players = players;
  wl.idle_pool_target = std::max(8, players / 100);
  wl.request_rate = rate;  // unused: the open-loop driver issues all traffic
  wl.request_bytes = 800;
  wl.status_bytes = 1600;
  wl.update_bytes = 1200;
  wl.client_timeout = kClientTimeout;
  wl.external_clients = true;
  wl.seed = seed;
  return wl;
}

// halo_actop: the paper's full system. Halo presence, 8 servers, 20K
// players, partitioning and the thread controller on, a launch surge that
// steps the rate to 3x. Serial engine.
void ConfigureHaloActop(Instance* in, uint64_t seed) {
  ClusterConfig& cfg = in->cfg;
  cfg.num_servers = 8;
  cfg.seed = seed;
  cfg.enable_partitioning = true;
  cfg.partition.exchange_period = Seconds(1);
  cfg.partition.exchange_min_gap = Seconds(1);
  cfg.partition.max_peers_per_round = 4;
  cfg.partition.pairwise.candidate_set_size = 256;
  cfg.partition.pairwise.balance_delta = 200;
  cfg.partition.edge_sample_capacity = 16384;
  cfg.partition.edge_decay_period = Seconds(10);
  cfg.enable_thread_optimization = true;
  cfg.thread_controller.period = Seconds(1);
  cfg.thread_controller.eta = 100e-6;
  in->shards = 1;
  in->plan.warmup_s = 12;
  in->plan.measure_s = 24;
  in->plan.quiescent_check = false;
  in->plan.balance_delta = cfg.partition.pairwise.balance_delta;
  in->plan.balance_slack = cfg.partition.pairwise.balance_delta * 2;
  in->plan.slo.max_timeout_rate = 0.02;
  in->plan.slo.min_goodput_fraction = 0.95;
}

void StartHaloActop(Instance* in, uint64_t seed) {
  constexpr double kRate = 3000.0;
  in->halo = std::make_unique<actop::HaloWorkload>(in->cluster.get(),
                                                   HaloConfig(20000, kRate, seed ^ 0x8888));
  in->halo->Start();
  in->pool = &in->halo->clients();
  in->schedule = std::make_unique<actop::RateSchedule>(kRate);
  // 9 s of 3x in a 24 s window: a backlog that sets the tail, in a window
  // short enough that a run can cover four seeds (README.md).
  const SimTime surge = Seconds(in->plan.warmup_s + in->plan.measure_s / 4);
  in->schedule->AddStep(surge, surge + Seconds(9), 3.0);
}

// reconnect_storm: 200K heartbeat devices on 8 servers, both optimizers
// off, serial engine. Three storms in the window, each a directory churn
// sweep on every server followed at the same instant by 15K requests.
void ConfigureReconnectStorm(Instance* in, uint64_t seed) {
  in->cfg.num_servers = 8;
  in->cfg.seed = seed;
  in->shards = 1;
  in->plan.warmup_s = 8;
  in->plan.measure_s = 40;
  in->plan.slo.max_timeout_rate = 0.01;
  in->plan.slo.min_goodput_fraction = 0.95;
}

void StartReconnectStorm(Instance* in, uint64_t seed) {
  constexpr double kRate = 8000.0;
  actop::HeartbeatWorkloadConfig wl;
  wl.num_monitors = 200000;
  wl.request_rate = kRate;  // unused: the open-loop driver issues all traffic
  wl.request_bytes = 160;
  wl.handler_compute = actop::Micros(100);
  wl.client_timeout = kClientTimeout;
  wl.external_clients = true;
  wl.seed = seed ^ 0x7777;
  in->fleet = std::make_unique<actop::HeartbeatWorkload>(in->cluster.get(), wl);
  in->fleet->Start();
  in->pool = &in->fleet->clients();
  in->schedule = std::make_unique<actop::RateSchedule>(kRate);
  Cluster* cluster = in->cluster.get();
  const SimDuration measure = Seconds(in->plan.measure_s);
  for (int i = 0; i < 3; i++) {
    const SimTime at = Seconds(in->plan.warmup_s) + measure / 5 + (measure * 3 / 10) * i;
    // Scheduled before the driver starts, so at the storm instant the churn
    // runs first and the burst then hits a directory that just dropped its
    // idle registrations.
    in->cluster->sim().ScheduleAt(at, [cluster] {
      for (int s = 0; s < cluster->num_servers(); s++) {
        cluster->ChurnDirectoryShard(static_cast<actop::ServerId>(s));
      }
    });
    in->schedule->AddBurst(at, 15000);
  }
}

// halo_fleet_k4: Halo presence on 20 servers with 200K players, the thread
// controller on, partitioning off, the engine fixed at 4 shards.
void ConfigureHaloFleetK4(Instance* in, uint64_t seed) {
  ClusterConfig& cfg = in->cfg;
  cfg.num_servers = 20;
  cfg.seed = seed;
  cfg.enable_thread_optimization = true;
  cfg.thread_controller.period = Seconds(1);
  cfg.thread_controller.eta = 100e-6;
  in->shards = 4;
  in->plan.warmup_s = 3;
  in->plan.measure_s = 10;
  // Each sweep walks all 200K directory entries.
  in->plan.sweep_every_s = 4;
  in->plan.slo.max_timeout_rate = 0.01;
  in->plan.slo.min_goodput_fraction = 0.98;
}

void StartHaloFleetK4(Instance* in, uint64_t seed) {
  // 30K requests per window, so p99.9 has 30 samples beyond it.
  constexpr double kRate = 3000.0;
  in->halo = std::make_unique<actop::HaloWorkload>(in->cluster.get(),
                                                   HaloConfig(200000, kRate, seed ^ 0x9999));
  in->halo->Start();
  in->pool = &in->halo->clients();
  in->schedule = std::make_unique<actop::RateSchedule>(kRate);
}

struct WorkloadDef {
  const char* name;
  void (*configure)(Instance*, uint64_t seed);
  void (*start)(Instance*, uint64_t seed);
};

constexpr WorkloadDef kWorkloads[] = {
    {"halo_actop", ConfigureHaloActop, StartHaloActop},
    {"reconnect_storm", ConfigureReconnectStorm, StartReconnectStorm},
    {"halo_fleet_k4", ConfigureHaloFleetK4, StartHaloFleetK4},
};

// --- counters --------------------------------------------------------------

// Every layer counter the benchmark reads, from public accessors only. Read
// between engine windows, where all shards are parked.
struct Counters {
  uint64_t events = 0;
  uint64_t pending_events = 0;
  uint64_t allocs = 0;
  uint64_t net_msgs = 0;
  uint64_t net_bytes = 0;
  uint64_t net_dropped = 0;
  uint64_t stage_completions = 0;
  uint64_t stage_rejections = 0;
  double busy_core_ns = 0.0;
  uint64_t threads = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_entries = 0;
  uint64_t directory_entries = 0;
  uint64_t remote_msgs = 0;
  uint64_t local_msgs = 0;
  uint64_t activations_started = 0;
  uint64_t migrations = 0;
  uint64_t rounds = 0;
  uint64_t exchanges_accepted = 0;
  uint64_t exchanges_rejected = 0;
  uint64_t arrivals = 0;
  uint64_t burst_arrivals = 0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t timeouts = 0;
};

Counters Snapshot(Instance& in, const actop::OpenLoopDriver& driver) {
  Counters c;
  actop::ShardedEngine& engine = *in.engine;
  Cluster& cluster = *in.cluster;
  c.events = engine.events_executed();
  for (int s = 0; s < engine.shards(); s++) {
    c.pending_events += engine.shard(s).pending_events();
  }
  c.allocs = g_alloc_count.load(std::memory_order_relaxed);
  actop::Network& net = cluster.network();
  c.net_msgs = net.total_messages();
  c.net_bytes = net.total_bytes();
  c.net_dropped = net.dropped_messages();
  for (int i = 0; i < cluster.num_servers(); i++) {
    actop::Server& server = cluster.server(i);
    for (int st = 0; st < actop::Server::kNumStages; st++) {
      const actop::Stage& stage = server.stage(st);
      c.stage_completions += stage.total_completions();
      c.stage_rejections += stage.total_rejections();
      c.threads += static_cast<uint64_t>(stage.threads());
    }
    c.busy_core_ns += server.cpu().busy_core_nanos();
    c.cache_hits += server.location_cache().hits();
    c.cache_misses += server.location_cache().misses();
    c.cache_entries += server.location_cache().size();
    c.directory_entries += server.directory_shard().size();
    c.remote_msgs += server.remote_app_messages();
    c.local_msgs += server.local_app_messages();
    c.activations_started += server.activations_started();
    if (actop::PartitionAgent* agent = cluster.partition_agent(i)) {
      c.rounds += agent->rounds_initiated();
      c.exchanges_accepted += agent->exchanges_accepted();
      c.exchanges_rejected += agent->exchanges_rejected();
    }
  }
  c.migrations = cluster.MetricsTotalMigrations();
  c.arrivals = driver.arrivals();
  c.burst_arrivals = driver.burst_arrivals();
  c.issued = in.pool->issued();
  c.completed = in.pool->completed();
  c.timeouts = in.pool->timeouts();
  return c;
}

void WriteCounters(std::FILE* f, const Counters& c) {
  std::fprintf(f,
               "{\"events\": %" PRIu64 ", \"pending_events\": %" PRIu64 ", \"allocs\": %" PRIu64
               ", \"net_msgs\": %" PRIu64 ", \"net_bytes\": %" PRIu64 ", \"net_dropped\": %" PRIu64
               ", \"stage_completions\": %" PRIu64 ", \"stage_rejections\": %" PRIu64
               ", \"busy_core_ns\": %.17g, \"threads\": %" PRIu64 ", \"cache_hits\": %" PRIu64
               ", \"cache_misses\": %" PRIu64 ", \"cache_entries\": %" PRIu64
               ", \"directory_entries\": %" PRIu64 ", \"remote_msgs\": %" PRIu64
               ", \"local_msgs\": %" PRIu64 ", \"activations_started\": %" PRIu64
               ", \"migrations\": %" PRIu64 ", \"rounds\": %" PRIu64
               ", \"exchanges_accepted\": %" PRIu64 ", \"exchanges_rejected\": %" PRIu64
               ", \"arrivals\": %" PRIu64 ", \"burst_arrivals\": %" PRIu64 ", \"issued\": %" PRIu64
               ", \"completed\": %" PRIu64 ", \"timeouts\": %" PRIu64 "}",
               c.events, c.pending_events, c.allocs, c.net_msgs, c.net_bytes, c.net_dropped,
               c.stage_completions, c.stage_rejections, c.busy_core_ns, c.threads, c.cache_hits,
               c.cache_misses, c.cache_entries, c.directory_entries, c.remote_msgs, c.local_msgs,
               c.activations_started, c.migrations, c.rounds, c.exchanges_accepted,
               c.exchanges_rejected, c.arrivals, c.burst_arrivals, c.issued, c.completed,
               c.timeouts);
}

// --- spans -----------------------------------------------------------------

struct Span {
  const char* name;
  const char* phase;  // parent: setup, warmup, measure, drain
  double start_s;
  double end_s;
  bool has_counters;  // false for setup calls made before the driver exists
  Counters begin;
  Counters end;
};

// Times every call into the program. With tracing on it also keeps a span
// per call, in a buffer reserved up front so the measure window sees no
// tracing allocations.
class Timer {
 public:
  Timer(bool trace, size_t expected_spans) : trace_(trace) {
    if (trace_) {
      spans_.reserve(expected_spans);
    }
  }

  void set_counters(Instance* in, const actop::OpenLoopDriver* driver) {
    in_ = in;
    driver_ = driver;
  }

  // Runs fn(), returns its host seconds and (traced) records a span.
  template <typename Fn>
  double Time(const char* name, const char* phase, Fn&& fn) {
    Span span{name, phase, 0.0, 0.0, trace_ && driver_ != nullptr, {}, {}};
    if (span.has_counters) {
      span.begin = Snapshot(*in_, *driver_);
    }
    span.start_s = HostSeconds();
    fn();
    span.end_s = HostSeconds();
    if (span.has_counters) {
      span.end = Snapshot(*in_, *driver_);
    }
    if (trace_) {
      spans_.push_back(span);
    }
    return span.end_s - span.start_s;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool trace_;
  Instance* in_ = nullptr;
  const actop::OpenLoopDriver* driver_ = nullptr;
  std::vector<Span> spans_;
};

// --- output ----------------------------------------------------------------

// Raw measurements of one iteration, printed as one JSON object.
class RawJson {
 public:
  void Add(const char* key, double value) { values_.emplace_back(key, value); }

  void Print(const char* workload, const std::vector<std::string>& slo_failures) const {
    std::printf("{\"workload\": \"%s\", \"slo_failures\": [", workload);
    for (size_t i = 0; i < slo_failures.size(); i++) {
      std::printf("%s\"%s\"", i == 0 ? "" : ", ", slo_failures[i].c_str());
    }
    std::printf("], \"raw\": {");
    const char* sep = "";
    for (const auto& [k, v] : values_) {
      std::printf("%s\"%s\": %.17g", sep, k, v);
      sep = ", ";
    }
    std::printf("}}\n");
  }

 private:
  std::vector<std::pair<const char*, double>> values_;
};

// Peak resident set (Linux reports ru_maxrss in kB: the kernel's VmHWM).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Quantile of a latency histogram, interpolated linearly inside the bucket
// that holds it. Histogram::ValueAtQuantile returns the bucket midpoint, so
// a percentile reads the same for every run whose rank lands in one ~3%
// bucket; interpolation keeps the digits that tell such runs apart. The
// bucket width mirrors src/common/histogram.cc (values >= 1024 ns: 32
// sub-buckets per power of two). If the histogram's own answer does not
// fall in that bucket the layout has changed, and its answer is returned.
double QuantileMs(const actop::Histogram& h, double q) {
  const int64_t mid = h.ValueAtQuantile(q);
  const auto count = static_cast<double>(h.count());
  if (h.count() < 2 || mid < 1024) {
    return actop::ToMillis(mid);
  }
  const int msb = 63 - std::countl_zero(static_cast<uint64_t>(mid));
  const int64_t width = int64_t{1} << (msb - 5);
  const int64_t lo = mid & ~(width - 1);
  const double below = std::round(h.CdfAt(lo - 1) * count);
  const double through = std::round(h.CdfAt(lo) * count);
  if (h.CdfAt(lo + width - 1) != h.CdfAt(lo) || through <= below) {
    return actop::ToMillis(mid);
  }
  // Same rank as ValueAtQuantile: the target-th smallest sample, 1-based.
  const double target = std::floor(q * (count - 1.0)) + 1.0;
  const double frac = (target - below - 0.5) / (through - below);
  const double value = static_cast<double>(lo) + std::clamp(frac, 0.0, 1.0) * width;
  return std::clamp(value, static_cast<double>(h.min()), static_cast<double>(h.max())) / 1e6;
}

// --- one iteration -----------------------------------------------------------

int Run(const WorkloadDef& def, uint64_t seed, bool trace, const std::string& spans_path) {
  Instance in;
  def.configure(&in, seed);
  const Plan& plan = in.plan;
  const int64_t end_s = plan.warmup_s + plan.measure_s + kDrainS;
  Timer timer(trace, static_cast<size_t>(2 * end_s + 16));
  RawJson out;

  // Setup: cluster build, workload start, optimizers, driver.
  const double cluster_s = timer.Time("cluster", "setup", [&] {
    actop::ShardedEngineConfig ec;
    ec.shards = in.shards;
    ec.lookahead = in.cfg.network.one_way_latency;
    in.engine = std::make_unique<actop::ShardedEngine>(ec);
    in.cluster = std::make_unique<Cluster>(in.engine.get(), in.cfg);
  });
  const double workload_s =
      timer.Time("workload_start", "setup", [&] { def.start(&in, seed); });
  const double optimizers_s = timer.Time("start_optimizers", "setup", [&] {
    if (in.cfg.enable_partitioning || in.cfg.enable_thread_optimization) {
      in.cluster->StartOptimizers();
    }
  });
  actop::OpenLoopDriver driver(&in.engine->sim(), in.pool, in.schedule.get(),
                               seed ^ 0x9e3779b97f4a7c15ULL);
  const double driver_s = timer.Time("driver_start", "setup", [&] { driver.Start(); });
  timer.set_counters(&in, &driver);

  actop::InvariantChecker checker(in.cluster.get());
  uint64_t violations = 0;
  double invariant_s = 0.0;
  auto instant_checks = [&] {
    violations += checker.CheckInstant().size();
    if (plan.balance_delta > 0) {
      violations += checker.CheckBalance(plan.balance_delta, plan.balance_slack).size();
    }
  };
  auto sweep = [&](const char* phase) {
    invariant_s += timer.Time("invariant_sweep", phase, instant_checks);
  };

  // Stage queue wait, accumulated per chunk. With the thread controller on,
  // each chunk's window starts at the controller's reset just after the
  // previous cut; without it, windows accumulate and the chunk's share is
  // the difference.
  const bool windows_reset = in.cfg.enable_thread_optimization;
  const int stages = in.cluster->num_servers() * actop::Server::kNumStages;
  std::vector<double> last_wait(static_cast<size_t>(stages), 0.0);
  std::vector<uint64_t> last_done(static_cast<size_t>(stages), 0);
  double queue_wait_ns = 0.0;
  uint64_t queue_wait_count = 0;
  auto account_stage_windows = [&](bool measuring) {
    for (int i = 0; i < in.cluster->num_servers(); i++) {
      for (int st = 0; st < actop::Server::kNumStages; st++) {
        const actop::StageWindow& w = in.cluster->server(i).stage(st).current_window();
        const size_t k = static_cast<size_t>(i * actop::Server::kNumStages + st);
        if (measuring) {
          queue_wait_ns += windows_reset ? w.sum_queue_wait : w.sum_queue_wait - last_wait[k];
          queue_wait_count += windows_reset ? w.completions : w.completions - last_done[k];
        }
        last_wait[k] = w.sum_queue_wait;
        last_done[k] = w.completions;
      }
    }
  };

  // Level counters averaged over the measure window's cuts.
  double pending_sum = 0.0;
  double threads_sum = 0.0;
  int level_samples = 0;

  // Runs whole seconds (from_s, to_s], one RunUntil chunk per second,
  // sweeping every sweep_every_s and at the phase end.
  auto run_phase = [&](const char* phase, int64_t from_s, int64_t to_s, bool measuring) {
    double run_s = 0.0;
    for (int64_t s = from_s + 1; s <= to_s; s++) {
      run_s += timer.Time("run_until", phase, [&] { in.engine->RunUntil(Cut(s)); });
      account_stage_windows(measuring);
      if (measuring) {
        const Counters c = Snapshot(in, driver);
        pending_sum += static_cast<double>(c.pending_events);
        threads_sum += static_cast<double>(c.threads);
        level_samples++;
      }
      if (s % plan.sweep_every_s == 0 || s == to_s) {
        sweep(phase);
      }
    }
    return run_s;
  };

  const double warmup_s = run_phase("warmup", 0, plan.warmup_s, false);
  const Counters setup_end = Snapshot(in, driver);

  // Measure window: reset what is measured at the boundary. Requests still
  // outstanding here were issued during warm-up; they resolve inside the
  // window and are counted as attempted.
  in.pool->ResetStats();
  in.cluster->ResetMetricsLatencies();
  const uint64_t outstanding_at_reset = in.pool->outstanding();
  const Counters m0 = Snapshot(in, driver);
  const double measure_s =
      run_phase("measure", plan.warmup_s, plan.warmup_s + plan.measure_s, true);
  const Counters m1 = Snapshot(in, driver);
  const actop::Histogram call_latency = in.cluster->MergedActorCallLatency();

  // Drain: no more arrivals; every outstanding request completes or times out.
  driver.Stop();
  in.StopWorkload();
  const double drain_s =
      timer.Time("run_until", "drain", [&] { in.engine->RunUntil(Cut(end_s)); });
  invariant_s += timer.Time("invariant_sweep", "drain", [&] {
    if (plan.quiescent_check) {
      violations += checker.CheckQuiescent().size();
    } else {
      instant_checks();
    }
  });

  // The repo's SLO evaluation doubles as the service-level check: goodput,
  // timeout rate and zero invariant violations.
  actop::ScenarioReport report;
  report.scenario = def.name;
  report.seed = seed;
  report.issued = in.pool->issued() + outstanding_at_reset;
  report.completed = in.pool->completed();
  report.timeouts = in.pool->timeouts();
  report.timeout_rate =
      Ratio(static_cast<double>(report.timeouts), static_cast<double>(report.issued));
  report.invariant_checks = checker.checks_run();
  report.invariant_violations = violations;
  report.slo = plan.slo;
  actop::EvaluateSlo(&report);

  const double sim_measure_ms = static_cast<double>(Seconds(plan.measure_s)) / 1e6;
  out.Add("seed", static_cast<double>(seed));
  out.Add("shards", in.shards);
  out.Add("sim.warmup_ms", static_cast<double>(Seconds(plan.warmup_s)) / 1e6);
  out.Add("sim.measure_ms", sim_measure_ms);
  out.Add("sim.drain_ms", static_cast<double>(Seconds(kDrainS)) / 1e6);

  out.Add("host.cluster_s", cluster_s);
  out.Add("host.workload_s", workload_s + optimizers_s + driver_s);
  out.Add("host.warmup_s", warmup_s);
  out.Add("host.measure_s", measure_s);
  out.Add("host.drain_s", drain_s);
  out.Add("host.invariant_s", invariant_s);
  out.Add("host.nproc", std::thread::hardware_concurrency());
  out.Add("host.measure_allocs", static_cast<double>(m1.allocs - m0.allocs));

  // Measure-window deltas (simulated-time values: exact per seed).
  auto delta = [&](uint64_t Counters::*field) {
    return static_cast<double>(m1.*field - m0.*field);
  };
  out.Add("events", delta(&Counters::events));
  out.Add("net_msgs", delta(&Counters::net_msgs));
  out.Add("net_bytes", delta(&Counters::net_bytes));
  out.Add("net_dropped", delta(&Counters::net_dropped));
  out.Add("stage_completions", delta(&Counters::stage_completions));
  out.Add("stage_rejections", delta(&Counters::stage_rejections));
  out.Add("busy_core_ns", m1.busy_core_ns - m0.busy_core_ns);
  out.Add("cores_total", static_cast<double>(in.cluster->num_servers() * in.cfg.server.cores));
  out.Add("queue_wait_ns", queue_wait_ns);
  out.Add("queue_wait_count", static_cast<double>(queue_wait_count));
  out.Add("cache_hits", delta(&Counters::cache_hits));
  out.Add("cache_misses", delta(&Counters::cache_misses));
  out.Add("remote_msgs", delta(&Counters::remote_msgs));
  out.Add("local_msgs", delta(&Counters::local_msgs));
  out.Add("migrations", delta(&Counters::migrations));
  out.Add("rounds", delta(&Counters::rounds));
  out.Add("exchanges_accepted", delta(&Counters::exchanges_accepted));
  out.Add("exchanges_rejected", delta(&Counters::exchanges_rejected));
  out.Add("arrivals", delta(&Counters::arrivals));
  out.Add("burst_arrivals", delta(&Counters::burst_arrivals));
  out.Add("activations_setup", static_cast<double>(setup_end.activations_started));
  // Every app message feeds the partition agent's edge sample.
  out.Add("edge_observations", in.cfg.enable_partitioning
                                   ? delta(&Counters::remote_msgs) + delta(&Counters::local_msgs)
                                   : 0.0);
  // Levels.
  out.Add("pending_events_mean", Ratio(pending_sum, level_samples));
  out.Add("threads_per_server_mean",
          Ratio(threads_sum, static_cast<double>(level_samples) * in.cluster->num_servers()));
  out.Add("directory_entries_start", static_cast<double>(m0.directory_entries));
  out.Add("directory_entries", static_cast<double>(m1.directory_entries));
  out.Add("cache_entries", static_cast<double>(m1.cache_entries));

  // Request accounting. `issued` counts the window's own requests; the
  // stragglers outstanding at the reset are attempted too.
  out.Add("issued", static_cast<double>(in.pool->issued()));
  out.Add("outstanding_at_reset", static_cast<double>(outstanding_at_reset));
  out.Add("completed", static_cast<double>(in.pool->completed()));
  out.Add("timeouts", static_cast<double>(in.pool->timeouts()));
  out.Add("outstanding_after_drain", static_cast<double>(in.pool->outstanding()));

  const actop::Histogram& lat = in.pool->latency();
  out.Add("lat.count", static_cast<double>(lat.count()));
  out.Add("lat.p50_ms", QuantileMs(lat, 0.50));
  out.Add("lat.p90_ms", QuantileMs(lat, 0.90));
  out.Add("lat.p99_ms", QuantileMs(lat, 0.99));
  out.Add("lat.p999_ms", QuantileMs(lat, 0.999));
  out.Add("lat.p9999_ms", QuantileMs(lat, 0.9999));
  out.Add("call.count", static_cast<double>(call_latency.count()));
  out.Add("call.p50_ms", QuantileMs(call_latency, 0.50));
  out.Add("call.p99_ms", QuantileMs(call_latency, 0.99));
  out.Add("inv.checks", static_cast<double>(checker.checks_run()));
  out.Add("inv.violations", static_cast<double>(violations));

  if (trace) {
    const double measure_sim_s = static_cast<double>(plan.measure_s);
    const double events = delta(&Counters::events);
    const double lookups = delta(&Counters::cache_hits) + delta(&Counters::cache_misses);
    ProbeSizes sizes;
    sizes.pending_events =
        static_cast<size_t>(Ratio(pending_sum, static_cast<double>(level_samples) * in.shards));
    // Little's law per shard: standing events / dispatch rate.
    sizes.event_lifetime_s =
        Ratio(Ratio(pending_sum, level_samples), events / measure_sim_s);
    sizes.cache_capacity = in.cfg.server.location_cache_capacity;
    sizes.cache_entries = m1.cache_entries / static_cast<uint64_t>(in.cluster->num_servers());
    sizes.cache_hit_ratio = Ratio(delta(&Counters::cache_hits), lookups);
    sizes.directory_entries =
        m1.directory_entries / static_cast<uint64_t>(in.cluster->num_servers());
    sizes.edge_capacity = in.cfg.enable_partitioning ? in.cfg.partition.edge_sample_capacity : 0;
    sizes.seed = seed;
    const ProbeResults probes = RunProbes(sizes);
    out.Add("probe.ok", probes.ok ? 1.0 : 0.0);
    out.Add("probe.sim_ns_per_event", probes.sim_ns_per_event);
    out.Add("probe.seda_ns_per_completion", probes.seda_ns_per_completion);
    out.Add("probe.cache_ns_per_op", probes.cache_ns_per_op);
    out.Add("probe.directory_ns_per_op", probes.directory_ns_per_op);
    out.Add("probe.observe_ns_per_op", probes.observe_ns_per_op);
    out.Add("host.spans", static_cast<double>(timer.spans().size()));
    if (!spans_path.empty()) {
      std::FILE* f = std::fopen(spans_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write spans to %s\n", spans_path.c_str());
        return 2;
      }
      for (const Span& s : timer.spans()) {
        std::fprintf(f,
                     "{\"id\": \"%s/%" PRIu64 "\", \"name\": \"%s\", \"phase\": \"%s\", "
                     "\"start_s\": %.9f, \"end_s\": %.9f",
                     def.name, seed, s.name, s.phase, s.start_s, s.end_s);
        if (s.has_counters) {
          std::fprintf(f, ", \"begin\": ");
          WriteCounters(f, s.begin);
          std::fprintf(f, ", \"end\": ");
          WriteCounters(f, s.end);
        }
        std::fprintf(f, "}\n");
      }
      std::fclose(f);
    }
  }
  out.Add("host.peak_rss_mb", PeakRssMb());
  out.Print(def.name, report.slo_failures);
  return 0;
}

int Main(int argc, char** argv) {
  actop::Flags flags;
  flags.DefineString("workload", "", "halo_actop | reconnect_storm | halo_fleet_k4");
  flags.DefineInt("seed", 1, "workload seed (same seed => same simulated-time values)");
  flags.DefineBool("trace", false, "record spans and run the layer probes");
  flags.DefineString("spans", "", "with --trace: write spans to FILE (JSON lines)");
  flags.Parse(argc, argv);
  const std::string& name = flags.GetString("workload");
  const int64_t seed = flags.GetInt("seed");
  if (seed < 1) {
    std::fprintf(stderr, "--seed must be >= 1\n");
    return 2;
  }
  for (const WorkloadDef& def : kWorkloads) {
    if (name == def.name) {
      return Run(def, static_cast<uint64_t>(seed), flags.GetBool("trace"),
                 flags.GetString("spans"));
    }
  }
  std::fprintf(stderr, "unknown --workload '%s'\n", name.c_str());
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
