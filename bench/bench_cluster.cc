// End-to-end cluster hot-path macrobenchmark (third perf-gate workload).
//
// Two halves:
//
// 1. CPU-scheduler scenarios, measured TWICE in the same binary (the
//    bench_partition pattern): once with the virtual-time CpuModel
//    (src/seda/cpu.h) and once with the retained seed implementation
//    (src/seda/cpu_reference.h, namespace sedaref). The two are held
//    completion-for-completion equivalent by
//    tests/seda/cpu_differential_test.cc, so the in-binary
//    "speedup_vs_seed_impl" is a pure scheduler-data-structure comparison on
//    the same closed-loop workload.
//
//      cpu_closed_loop_x4    8 cores, 32 jobs in closed loop (4x thread
//                            oversubscription with the runtime's default
//                            dispatch quantum): every completion immediately
//                            launches a replacement with jittered demand —
//                            the saturated-single-server shape from the
//                            paper's Figure 5 heatmap.
//      cpu_closed_loop_x16   same at 16x oversubscription (128 jobs), where
//                            the seed's O(n) per-event remaining-demand loop
//                            and full min-rescan hurt most.
//      cpu_gc_churn          8x oversubscription with managed-runtime pauses
//                            enabled at the runtime's defaults: the
//                            pause/resume path (mass re-rate of every
//                            running job) plus steady completion churn.
//
//    The optimized phases must run allocation-free in steady state (slab
//    jobs, standing completion event, scratch batch buffers); the gate
//    enforces allocs_per_event == 0 for them.
//
// 2. cluster_fig10b: a short fig10b-shaped Halo Presence run (both ActOp
//    optimizations on) through the full runtime — servers, stages, network,
//    controllers, partitioning — reported as simulated milliseconds per
//    wall-clock second. No in-binary seed twin exists at this level (the
//    rewrite replaced the model in place), so this scenario is gated
//    against the checked-in baseline JSON plus a ratcheted allocs/event
//    ceiling over its measure window (steady state must stay within 3
//    allocations per simulated millisecond end to end; see EXPERIMENTS.md
//    "Allocs/event gate").
//
// Output is line-oriented JSON exactly like bench_engine/bench_partition so
// scripts/perf_gate.sh can compare runs with basic text tools; see
// EXPERIMENTS.md ("Cluster macrobenchmark & perf gate").
//
// Usage:
//   bench_cluster [--json=FILE] [--compare=FILE] [--gate]
//                 [--threshold=0.10] [--scale=1.0]
//
// --compare adds per-scenario "speedup_vs_ref" against a reference JSON
// (e.g. the checked-in baseline); with --gate the exit code is non-zero if
// any scenario's throughput regresses by more than --threshold, OR if the
// geomean in-binary speedup over the three cpu_* scenarios falls below 1.5x
// (the acceptance target is 2x on the reference machine; 1.5x leaves
// headroom for noisy CI boxes while still catching a lost rewrite), OR if an
// optimized cpu_* phase allocated in steady state.

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "bench/halo_common.h"
#include "src/common/sim_time.h"
#include "src/seda/cpu.h"
#include "src/seda/cpu_reference.h"
#include "src/sim/simulation.h"

// ---------------------------------------------------------------------------
// Counting-allocator hook (same as bench_engine/bench_partition): every
// global new/delete in this binary is counted. Scenarios reset the counters
// after setup/warmup so the reported figures are steady-state allocations.
// ---------------------------------------------------------------------------

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

struct ScenarioResult {
  std::string name;
  uint64_t events = 0;       // completions (cpu_*) / completed calls (cluster)
  uint64_t wall_ns = 0;      // wall-clock for the optimized measured phase
  uint64_t allocs = 0;       // heap allocations during the optimized phase
  uint64_t bytes = 0;        // heap bytes during the optimized phase
  uint64_t ref_wall_ns = 0;  // wall-clock for the seed-impl phase (0 = none)
  bool must_be_alloc_free = false;
  // When nonzero, the alloc counters cover a sub-window of `events` (e.g.
  // cluster_fig10b counts allocations over the measure window only, while
  // `events` spans warm-up + measure for scale-invariant throughput); use it
  // as the allocs/event denominator instead of `events`.
  uint64_t alloc_events = 0;
  // Ratcheted ceiling on allocs_per_event(); negative = not gated.
  double max_allocs_per_event = -1.0;

  double events_per_sec() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(events) * 1e9 / static_cast<double>(wall_ns);
  }
  double ns_per_event() const {
    return events == 0 ? 0.0 : static_cast<double>(wall_ns) / static_cast<double>(events);
  }
  double allocs_per_event() const {
    const uint64_t denom = alloc_events != 0 ? alloc_events : events;
    return denom == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(denom);
  }
  double bytes_per_event() const {
    const uint64_t denom = alloc_events != 0 ? alloc_events : events;
    return denom == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(denom);
  }
  bool has_seed_impl() const { return ref_wall_ns != 0; }
  // Both phases do identical work, so the speedup is the wall-clock ratio.
  double seed_impl_speedup() const {
    return wall_ns == 0 ? 0.0 : static_cast<double>(ref_wall_ns) / static_cast<double>(wall_ns);
  }
};

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

void ResetAllocCounters() {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_bytes.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Closed-loop CPU driver, templated over the model under test. `inflight`
// jobs are launched once; each completion immediately launches a replacement
// with LCG-jittered demand, keeping the CPU saturated at a fixed
// oversubscription level forever. Both template instantiations consume the
// same demand stream and the same model seed, so the two phases do
// statistically identical work (the differential tests pin the semantics).
// ---------------------------------------------------------------------------

// Runtime defaults from ServerConfig (src/runtime/server.h) so the scenarios
// time the parameters real cluster runs use.
constexpr int kCores = 8;
constexpr double kKappa = 0.03;
constexpr SimDuration kQuantum = Micros(60);

template <typename Model>
struct ClosedLoop {
  Simulation sim;
  Model cpu;
  uint64_t completed = 0;
  uint64_t lcg;

  ClosedLoop(uint64_t model_seed, uint64_t demand_seed)
      : cpu(&sim, kCores, kKappa, kQuantum, model_seed), lcg(demand_seed) {}

  SimDuration NextDemand() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    // 20–85 µs of core time: the order of the halo stage compute costs.
    return Micros(20) + static_cast<SimDuration>((lcg >> 33) & 0xFFFF);
  }

  void Launch() {
    cpu.BeginCompute(NextDemand(), [this] {
      completed++;
      Launch();
    });
  }

  // Runs the event loop until `target` total completions; returns wall ns.
  uint64_t RunUntilCompleted(uint64_t target) {
    const uint64_t t0 = NowNs();
    while (completed < target && sim.RunOne()) {
    }
    return NowNs() - t0;
  }
};

template <typename Model>
uint64_t TimeClosedLoop(int inflight, bool gc_pauses, uint64_t warm, uint64_t measured,
                        uint64_t* measured_wall) {
  ClosedLoop<Model> loop(/*model_seed=*/0x5eedULL, /*demand_seed=*/0x0ddba11ULL);
  if (gc_pauses) {
    // Runtime GC defaults (ServerConfig); total_threads drives pause length.
    loop.cpu.set_total_threads(inflight);
    loop.cpu.EnablePauses(Millis(250), Millis(4), /*per_thread_factor=*/0.06,
                          /*exponent=*/1.8);
  }
  for (int i = 0; i < inflight; i++) {
    loop.Launch();
  }
  loop.RunUntilCompleted(warm);
  ResetAllocCounters();
  *measured_wall = loop.RunUntilCompleted(warm + measured);
  return loop.completed;
}

ScenarioResult RunCpuClosedLoop(const char* name, int inflight, bool gc_pauses,
                                uint64_t completions, double scale) {
  ScenarioResult out;
  out.name = name;
  out.must_be_alloc_free = true;
  const auto measured = static_cast<uint64_t>(static_cast<double>(completions) * scale);
  const uint64_t warm = measured / 10;

  uint64_t wall = 0;
  TimeClosedLoop<CpuModel>(inflight, gc_pauses, warm, measured, &wall);
  out.wall_ns = wall;
  out.events = measured;
  out.allocs = g_alloc_count.load(std::memory_order_relaxed);
  out.bytes = g_alloc_bytes.load(std::memory_order_relaxed);

  TimeClosedLoop<sedaref::CpuModel>(inflight, gc_pauses, warm, measured, &wall);
  out.ref_wall_ns = wall;
  return out;
}

// ---------------------------------------------------------------------------
// cluster_fig10b: the full runtime end to end — a shortened Figure 10b run
// (Halo Presence, both optimizations on) reported as completed actor calls
// per wall-clock second. This is the macro check that the scheduler rewrite
// and the stage/server/metrics fast paths compose: the microbenchmarks above
// can't see cross-layer regressions (e.g. a scheduler change that shifts
// controller windows).
// ---------------------------------------------------------------------------

ScenarioResult RunClusterFig10b(double scale) {
  ScenarioResult out;
  out.name = "cluster_fig10b";

  HaloExperimentConfig config;
  config.players = 2000;
  config.request_rate = 900.0;
  config.partitioning = true;
  config.thread_optimization = true;
  config.warmup = Seconds(20);
  config.measure = std::max<SimDuration>(Seconds(1), SecondsF(10.0 * scale));
  config.seed = 42;

  // Snapshot the counters when the measure window opens so the reported
  // allocs/bytes cover steady state only: setup and warm-up legitimately
  // allocate (actor activations, map growth, pool priming), and counting
  // them would both mask steady-state churn and make the ceiling
  // scale-dependent.
  uint64_t allocs_at_measure = 0;
  uint64_t bytes_at_measure = 0;
  config.on_measure_start = [&allocs_at_measure, &bytes_at_measure] {
    allocs_at_measure = g_alloc_count.load(std::memory_order_relaxed);
    bytes_at_measure = g_alloc_bytes.load(std::memory_order_relaxed);
  };

  ResetAllocCounters();
  const uint64_t t0 = NowNs();
  const HaloExperimentResult result = RunHaloExperiment(config);
  out.wall_ns = NowNs() - t0;
  // One "event" is one simulated millisecond of the whole run (warm-up
  // included): events_per_sec is then sim-ms per wall-second, which is
  // scale-invariant — unlike completed-calls/sec, which would amortize the
  // fixed warm-up over a scaled measure window and make the gate's
  // --scale=0.5 runs incomparable to the scale-1 baseline.
  out.events = static_cast<uint64_t>((config.warmup + config.measure) / Millis(1));
  out.allocs = g_alloc_count.load(std::memory_order_relaxed) - allocs_at_measure;
  out.bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes_at_measure;
  // The alloc counters span the measure window only; divide by its sim-ms.
  out.alloc_events = static_cast<uint64_t>(config.measure / Millis(1));
  // Ratcheted ceiling (see EXPERIMENTS.md): the data-plane slab/pool work
  // brought steady state from ~58 allocs/sim-ms down to 2.40, and routing
  // the partition agents through the CSR arena planner (no per-round
  // LocalGraphView, all planning scratch reused) removed the control
  // plane's ~1.8 allocs/sim-ms on top, leaving 0.54 — essentially just the
  // plan/response payloads that go onto the wire. The ratchet went
  // 5.0 -> 3.0 -> 2.5 -> 1.0; the current ceiling
  // keeps ~46% headroom for stdlib growth-policy differences while catching
  // any reintroduced per-round allocation.
  out.max_allocs_per_event = 1.0;

  std::fprintf(stderr,
               "cluster_fig10b: %llu calls, client latency %s ms, cpu %.1f%%, %llu timeouts\n",
               static_cast<unsigned long long>(result.completed),
               LatencySummary(result.client_latency).c_str(), 100.0 * result.cpu_utilization,
               static_cast<unsigned long long>(result.timeouts));
  return out;
}

// ---------------------------------------------------------------------------
// Output & comparison (format shared with bench_engine/bench_partition)
// ---------------------------------------------------------------------------

std::string ScenarioJson(const ScenarioResult& r, double speedup, bool have_ref) {
  std::ostringstream os;
  os << "    {\"name\": \"" << r.name << "\", \"events\": " << r.events
     << ", \"wall_ns\": " << r.wall_ns;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", r.events_per_sec());
  os << ", \"events_per_sec\": " << buf;
  std::snprintf(buf, sizeof(buf), "%.2f", r.ns_per_event());
  os << ", \"ns_per_event\": " << buf;
  std::snprintf(buf, sizeof(buf), "%.4f", r.allocs_per_event());
  os << ", \"allocs_per_event\": " << buf;
  std::snprintf(buf, sizeof(buf), "%.1f", r.bytes_per_event());
  os << ", \"bytes_per_event\": " << buf;
  if (r.has_seed_impl()) {
    std::snprintf(buf, sizeof(buf), "%.3f", r.seed_impl_speedup());
    os << ", \"speedup_vs_seed_impl\": " << buf;
  }
  if (have_ref) {
    std::snprintf(buf, sizeof(buf), "%.3f", speedup);
    os << ", \"speedup_vs_ref\": " << buf;
  }
  os << "}";
  return os.str();
}

// Pulls `"key": <number>` out of a one-scenario-per-line JSON file for the
// line whose "name" matches (same line-oriented contract as bench_engine).
bool LookupRef(const std::string& ref_text, const std::string& name, const std::string& key,
               double* value) {
  std::istringstream in(ref_text);
  std::string line;
  const std::string name_tag = "\"name\": \"" + name + "\"";
  const std::string key_tag = "\"" + key + "\": ";
  while (std::getline(in, line)) {
    const size_t at = line.find(name_tag);
    if (at == std::string::npos) {
      continue;
    }
    const size_t kat = line.find(key_tag);
    if (kat == std::string::npos) {
      return false;
    }
    *value = std::strtod(line.c_str() + kat + key_tag.size(), nullptr);
    return true;
  }
  return false;
}

}  // namespace
}  // namespace actop

int main(int argc, char** argv) {
  using namespace actop;

  std::string json_path;
  std::string compare_path;
  bool gate = false;
  double threshold = 0.10;
  double scale = 1.0;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg.rfind("--compare=", 0) == 0) {
      compare_path = arg.substr(10);
    } else if (arg == "--gate") {
      gate = true;
    } else if (arg.rfind("--threshold=", 0) == 0) {
      threshold = std::strtod(arg.c_str() + 12, nullptr);
    } else if (arg.rfind("--scale=", 0) == 0) {
      scale = std::strtod(arg.c_str() + 8, nullptr);
    } else {
      std::fprintf(stderr,
                   "usage: bench_cluster [--json=FILE] [--compare=FILE] [--gate] "
                   "[--threshold=0.10] [--scale=1.0]\n");
      return 2;
    }
  }

  std::string ref_text;
  if (!compare_path.empty()) {
    std::ifstream in(compare_path);
    if (!in) {
      std::fprintf(stderr, "bench_cluster: cannot read reference %s\n", compare_path.c_str());
      return 2;
    }
    std::ostringstream os;
    os << in.rdbuf();
    ref_text = os.str();
  }

  std::vector<ScenarioResult> results;
  results.push_back(RunCpuClosedLoop("cpu_closed_loop_x4", /*inflight=*/4 * 8,
                                     /*gc_pauses=*/false, /*completions=*/600'000, scale));
  results.push_back(RunCpuClosedLoop("cpu_closed_loop_x16", /*inflight=*/16 * 8,
                                     /*gc_pauses=*/false, /*completions=*/400'000, scale));
  results.push_back(RunCpuClosedLoop("cpu_gc_churn", /*inflight=*/8 * 8,
                                     /*gc_pauses=*/true, /*completions=*/500'000, scale));
  results.push_back(RunClusterFig10b(scale));

  // Acceptance headline: geomean in-binary speedup over the CPU-bound
  // scenarios (the cluster scenario has no seed twin and is excluded).
  double gate_geomean = 1.0;
  int gate_terms = 0;
  int alloc_violations = 0;
  for (const ScenarioResult& r : results) {
    if (r.has_seed_impl()) {
      gate_geomean *= r.seed_impl_speedup();
      gate_terms++;
    }
    if (r.must_be_alloc_free && r.allocs != 0) {
      alloc_violations++;
      std::fprintf(stderr, "STEADY-STATE ALLOCS: %s made %llu heap allocations\n", r.name.c_str(),
                   static_cast<unsigned long long>(r.allocs));
    }
    if (r.max_allocs_per_event >= 0.0 && r.allocs_per_event() > r.max_allocs_per_event) {
      alloc_violations++;
      std::fprintf(stderr, "STEADY-STATE ALLOCS: %s at %.4f allocs/event exceeds ceiling %.1f\n",
                   r.name.c_str(), r.allocs_per_event(), r.max_allocs_per_event);
    }
  }
  gate_geomean = gate_terms > 0 ? std::pow(gate_geomean, 1.0 / gate_terms) : 0.0;

  int regressions = 0;
  std::ostringstream body;
  body << "{\n  \"bench\": \"cluster\",\n  \"schema_version\": 1,\n";
#ifdef NDEBUG
  body << "  \"assertions\": false,\n";
#else
  body << "  \"assertions\": true,\n";
#endif
  body << "  \"scale\": " << scale << ",\n  \"scenarios\": [\n";
  for (size_t i = 0; i < results.size(); i++) {
    const ScenarioResult& r = results[i];
    double ref_eps = 0.0;
    const bool have_ref =
        !ref_text.empty() && LookupRef(ref_text, r.name, "events_per_sec", &ref_eps) &&
        ref_eps > 0.0;
    const double speedup = have_ref ? r.events_per_sec() / ref_eps : 0.0;
    if (have_ref && speedup < 1.0 - threshold) {
      regressions++;
      std::fprintf(stderr, "PERF REGRESSION: %s %.0f events/s vs ref %.0f (x%.3f < %.3f)\n",
                   r.name.c_str(), r.events_per_sec(), ref_eps, speedup, 1.0 - threshold);
    }
    body << ScenarioJson(r, speedup, have_ref);
    body << (i + 1 < results.size() ? ",\n" : "\n");
    const std::string vs_seed =
        r.has_seed_impl() ? "  x" + std::to_string(r.seed_impl_speedup()).substr(0, 5) + " vs seed"
                          : "";
    const std::string vs_ref = have_ref ? " (x" + std::to_string(speedup) + " vs ref)" : "";
    std::fprintf(stderr, "%-18s %12.0f events/s  %10.2f ns/event  %8.4f allocs/event%s%s\n",
                 r.name.c_str(), r.events_per_sec(), r.ns_per_event(), r.allocs_per_event(),
                 vs_seed.c_str(), vs_ref.c_str());
  }
  body << "  ],\n";
  {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", gate_geomean);
    body << "  \"geomean_speedup_vs_seed_impl\": " << buf << "\n";
  }
  body << "}\n";
  std::fprintf(stderr, "geomean speedup vs seed impl (cpu_* scenarios): x%.2f\n", gate_geomean);

  const std::string text = body.str();
  std::fputs(text.c_str(), stdout);
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << text;
  }
  int failures = 0;
  if (gate && regressions > 0) {
    std::fprintf(stderr, "perf gate: %d scenario(s) regressed beyond %.0f%%\n", regressions,
                 threshold * 100.0);
    failures++;
  }
  if (gate && gate_geomean < 1.5) {
    std::fprintf(stderr, "perf gate: geomean speedup vs seed impl x%.2f below the 1.5x floor\n",
                 gate_geomean);
    failures++;
  }
  if (gate && alloc_violations > 0) {
    std::fprintf(stderr, "perf gate: %d scenario(s) violated steady-state allocation limits\n",
                 alloc_violations);
    failures++;
  }
  return failures > 0 ? 1 : 0;
}
