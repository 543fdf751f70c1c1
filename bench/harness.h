// Shared harness for the gated benches (bench_engine, bench_partition,
// bench_arena, bench_cluster, bench_parallel, bench_halo_scale).
//
// Every gated bench speaks one calling convention
//
//   bench_<name> [--json=FILE] [--compare=FILE] [--gate] [--threshold=0.10]
//                [--scale=1.0]
//
// and writes one JSON envelope to stdout (and to --json):
//
//   {"bench", "schema_version", "assertions", ["threads",] "scale",
//    "scenarios": [one object per line], [bench-specific trailer fields]}
//
// Scenario objects sit one per line so scripts/perf_gate.sh and --compare can
// read them back with plain text search (LookupRef). With --compare, each
// scenario's events_per_sec is checked against the reference row of the same
// name; with --gate, any scenario below (1 - threshold) of its reference
// fails the run (exit 1). Usage errors and refused references exit 2.
//
// The harness owns the convention; each bench keeps its scenarios, their
// JSON fields, and its in-binary floors and ceilings.

#ifndef BENCH_HARNESS_H_
#define BENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/flags.h"

namespace actop::bench {

uint64_t NowNs();

// Peak resident set size from /proc/self/status (VmHWM, kB -> bytes); 0 when
// the field is unavailable (non-Linux).
uint64_t PeakRssBytes();

// Process-wide allocation totals from the counting global operator new in
// bench/alloc_counter.cc. Only binaries that link the actop_alloc_counter
// object library may call these.
uint64_t AllocCount();
uint64_t AllocBytes();
void ResetAllocCounters();

// Pulls `"key": <number>` out of a one-scenario-per-line JSON text for the
// line whose "name" matches. False when no line has that name, or the named
// line lacks the key.
bool LookupRef(const std::string& ref_text, const std::string& name, const std::string& key,
               double* value);

// First `"key": <number>` anywhere in the text: the header fields, which
// precede the scenarios array.
bool LookupHeader(const std::string& ref_text, const std::string& key, double* value);

// `"key": <value printed with `decimals` fixed digits>`.
std::string FixedField(const std::string& key, double value, int decimals);

// Builds one single-line JSON object, keys in insertion order:
// {"name": "x", "events": 3, "events_per_sec": 12}.
class JsonObject {
 public:
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Int(const std::string& key, int64_t value);
  JsonObject& Fixed(const std::string& key, double value, int decimals);
  JsonObject& Bool(const std::string& key, bool value);
  std::string Close() const { return body_ + "}"; }

 private:
  void Key(const std::string& key);

  std::string body_ = "{";
};

// `"key": [` + one row per line + `]`, indented for the envelope.
std::string JsonArray(const std::string& key, const std::vector<std::string>& rows);

// A scenario's throughput against its --compare reference row.
struct RefSpeedup {
  bool have_ref = false;
  double speedup = 0.0;  // measured / reference events_per_sec

  // Appends "speedup_vs_ref" when there was a reference row.
  void AppendTo(JsonObject* row) const;
};

// The gate's rule: a scenario regressed when it ran below (1 - threshold) of
// its reference throughput. Exactly at the boundary passes.
inline bool IsRegression(double speedup, double threshold) { return speedup < 1.0 - threshold; }

// One measured phase of a scenario, the row shape of the engine, partition,
// arena and cluster benches.
struct ScenarioResult {
  std::string name;
  uint64_t events = 0;       // operations driven through the measured path
  uint64_t wall_ns = 0;      // wall-clock for the measured phase
  uint64_t allocs = 0;       // heap allocations during the measured phase
  uint64_t bytes = 0;        // heap bytes during the measured phase
  uint64_t ref_wall_ns = 0;  // same work through the retained seed impl (0 = none)
  // When nonzero, the alloc counters cover a sub-window of `events` (e.g.
  // cluster_fig10b counts allocations over the measure window only, while
  // `events` spans warm-up + measure); it is then the allocs/event
  // denominator instead of `events`.
  uint64_t alloc_events = 0;

  double events_per_sec() const;
  double ns_per_event() const;
  double allocs_per_event() const;
  double bytes_per_event() const;
  bool has_seed_impl() const { return ref_wall_ns != 0; }
  // Both phases do identical work, so the speedup is the wall-clock ratio.
  double seed_impl_speedup() const;
};

class Harness {
 public:
  // `bench` is the envelope's "bench" name (the binary is bench_<bench>).
  // A host-specific bench records "threads" in its header and refuses a
  // reference recorded at another parallelism; a scale-specific one also
  // refuses a reference recorded at another --scale.
  explicit Harness(std::string bench, bool host_specific = false, bool scale_specific = false);

  // Add a bench's own flags here before Parse.
  Flags& flags() { return flags_; }

  // Parses argv (exits 2 on an unknown flag or a malformed value) and loads
  // the --compare reference. False when the reference is unreadable or
  // refused; the reason is on stderr and the bench should exit 2.
  bool Parse(int argc, char** argv);

  double scale() const { return scale_; }
  bool gate() const { return gate_; }
  double threshold() const { return threshold_; }
  unsigned threads() const { return threads_; }

  // Looks up `name` in the reference. A regression is counted and reported
  // on stderr as "PERF REGRESSION: ...".
  RefSpeedup Compare(const std::string& name, double events_per_sec);

  // Compares each result, logs a summary row per result on stderr, and
  // returns their scenario rows. `bytes_column` adds bytes_per_event.
  std::vector<std::string> ReportScenarios(const std::vector<ScenarioResult>& results,
                                           bool bytes_column = true);

  // The full JSON document. `trailer` fields (already `"key": value`) follow
  // the scenarios array.
  std::string Envelope(const std::vector<std::string>& scenarios,
                       const std::vector<std::string>& trailer = {}) const;

  // Writes `text` to stdout and --json, then turns the regression count
  // (gated runs only) plus the bench's own gate failures into the exit
  // code: 0 pass, 1 a gate failed.
  int Finish(const std::string& text, int failures) const;

 private:
  bool LoadReference(const std::string& path);

  std::string bench_;
  bool host_specific_;
  bool scale_specific_;
  Flags flags_;
  double scale_ = 1.0;
  bool gate_ = false;
  double threshold_ = 0.10;
  std::string json_path_;
  unsigned threads_;
  std::string ref_text_;
  int regressions_ = 0;
};

}  // namespace actop::bench

#endif  // BENCH_HARNESS_H_
