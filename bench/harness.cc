#include "bench/harness.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

namespace actop::bench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

uint64_t PeakRssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<uint64_t>(std::strtoull(line.c_str() + 6, nullptr, 10)) * 1024;
    }
  }
  return 0;
}

bool LookupRef(const std::string& ref_text, const std::string& name, const std::string& key,
               double* value) {
  std::istringstream in(ref_text);
  std::string line;
  const std::string name_tag = "\"name\": \"" + name + "\"";
  const std::string key_tag = "\"" + key + "\": ";
  while (std::getline(in, line)) {
    if (line.find(name_tag) == std::string::npos) {
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

bool LookupHeader(const std::string& ref_text, const std::string& key, double* value) {
  const std::string key_tag = "\"" + key + "\": ";
  const size_t at = ref_text.find(key_tag);
  if (at == std::string::npos) {
    return false;
  }
  *value = std::strtod(ref_text.c_str() + at + key_tag.size(), nullptr);
  return true;
}

namespace {

std::string FormatFixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

double Ratio(uint64_t num, uint64_t denom) {
  return denom == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(denom);
}

}  // namespace

std::string FixedField(const std::string& key, double value, int decimals) {
  return "\"" + key + "\": " + FormatFixed(value, decimals);
}

void JsonObject::Key(const std::string& key) {
  if (body_.size() > 1) {
    body_ += ", ";
  }
  body_ += "\"" + key + "\": ";
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += "\"" + value + "\"";
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Fixed(const std::string& key, double value, int decimals) {
  Key(key);
  body_ += FormatFixed(value, decimals);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

std::string JsonArray(const std::string& key, const std::vector<std::string>& rows) {
  std::string out = "\"" + key + "\": [\n";
  for (size_t i = 0; i < rows.size(); i++) {
    out += "    " + rows[i] + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  return out + "  ]";
}

void RefSpeedup::AppendTo(JsonObject* row) const {
  if (have_ref) {
    row->Fixed("speedup_vs_ref", speedup, 3);
  }
}

double ScenarioResult::events_per_sec() const { return Ratio(events, wall_ns) * 1e9; }
double ScenarioResult::ns_per_event() const { return Ratio(wall_ns, events); }
double ScenarioResult::allocs_per_event() const {
  return Ratio(allocs, alloc_events != 0 ? alloc_events : events);
}
double ScenarioResult::bytes_per_event() const {
  return Ratio(bytes, alloc_events != 0 ? alloc_events : events);
}
double ScenarioResult::seed_impl_speedup() const { return Ratio(ref_wall_ns, wall_ns); }

Harness::Harness(std::string bench, bool host_specific, bool scale_specific)
    : bench_(std::move(bench)),
      host_specific_(host_specific),
      scale_specific_(scale_specific),
      threads_(std::thread::hardware_concurrency()) {
  flags_.DefineString("json", "", "also write the JSON report to FILE");
  flags_.DefineString("compare", "", "reference JSON: adds speedup_vs_ref per scenario");
  flags_.DefineBool("gate", false, "exit 1 if a scenario regresses beyond --threshold");
  flags_.DefineDouble("threshold", 0.10, "allowed events/sec regression vs the reference");
  flags_.DefineDouble("scale", 1.0, "workload size multiplier");
}

bool Harness::Parse(int argc, char** argv) {
  flags_.Parse(argc, argv);
  json_path_ = flags_.GetString("json");
  gate_ = flags_.GetBool("gate");
  threshold_ = flags_.GetDouble("threshold");
  scale_ = flags_.GetDouble("scale");
  const std::string& compare = flags_.GetString("compare");
  return compare.empty() || LoadReference(compare);
}

bool Harness::LoadReference(const std::string& path) {
  const char* bench = bench_.c_str();
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_%s: cannot read reference %s\n", bench, path.c_str());
    return false;
  }
  std::ostringstream os;
  os << in.rdbuf();
  ref_text_ = os.str();
  if (host_specific_) {
    // A baseline recorded on a host with different parallelism is not
    // comparable: more cores legitimately raise every parallel figure.
    double ref_threads = 0.0;
    if (!LookupHeader(ref_text_, "threads", &ref_threads)) {
      std::fprintf(stderr,
                   "bench_%s: reference %s has no \"threads\" header field; refusing to "
                   "compare against an unknown host parallelism\n",
                   bench, path.c_str());
      return false;
    }
    if (static_cast<unsigned>(ref_threads) != threads_) {
      std::fprintf(stderr,
                   "bench_%s: reference %s was recorded with threads=%u but this host has %u "
                   "hardware threads; results are only comparable at equal parallelism — "
                   "re-record the baseline on this host\n",
                   bench, path.c_str(), static_cast<unsigned>(ref_threads), threads_);
      return false;
    }
  }
  if (scale_specific_) {
    double ref_scale = 0.0;
    if (!LookupHeader(ref_text_, "scale", &ref_scale) || std::abs(ref_scale - scale_) > 1e-9) {
      std::fprintf(stderr,
                   "bench_%s: reference %s was recorded at scale=%g but this run uses "
                   "--scale=%g; its baselines are population-specific — run at the "
                   "baseline's scale or re-record\n",
                   bench, path.c_str(), ref_scale, scale_);
      return false;
    }
  }
  return true;
}

RefSpeedup Harness::Compare(const std::string& name, double events_per_sec) {
  RefSpeedup out;
  double ref_eps = 0.0;
  if (ref_text_.empty() || !LookupRef(ref_text_, name, "events_per_sec", &ref_eps) ||
      ref_eps <= 0.0) {
    return out;
  }
  out.have_ref = true;
  out.speedup = events_per_sec / ref_eps;
  if (IsRegression(out.speedup, threshold_)) {
    regressions_++;
    std::fprintf(stderr, "PERF REGRESSION: %s %.0f events/s vs ref %.0f (x%.3f < %.3f)\n",
                 name.c_str(), events_per_sec, ref_eps, out.speedup, 1.0 - threshold_);
  }
  return out;
}

std::vector<std::string> Harness::ReportScenarios(const std::vector<ScenarioResult>& results,
                                                  bool bytes_column) {
  std::vector<std::string> rows;
  for (const ScenarioResult& r : results) {
    const RefSpeedup ref = Compare(r.name, r.events_per_sec());
    JsonObject row;
    row.Str("name", r.name)
        .Int("events", static_cast<int64_t>(r.events))
        .Int("wall_ns", static_cast<int64_t>(r.wall_ns))
        .Fixed("events_per_sec", r.events_per_sec(), 0)
        .Fixed("ns_per_event", r.ns_per_event(), 2)
        .Fixed("allocs_per_event", r.allocs_per_event(), 4);
    if (bytes_column) {
      row.Fixed("bytes_per_event", r.bytes_per_event(), 1);
    }
    if (r.has_seed_impl()) {
      row.Fixed("speedup_vs_seed_impl", r.seed_impl_speedup(), 3);
    }
    ref.AppendTo(&row);
    rows.push_back(row.Close());

    char vs_seed[32] = "";
    if (r.has_seed_impl()) {
      std::snprintf(vs_seed, sizeof(vs_seed), "  x%5.2f vs seed", r.seed_impl_speedup());
    }
    char vs_ref[32] = "";
    if (ref.have_ref) {
      std::snprintf(vs_ref, sizeof(vs_ref), " (x%.3f vs ref)", ref.speedup);
    }
    std::fprintf(stderr, "%-20s %12.0f events/s  %12.2f ns/event  %8.4f allocs/event%s%s\n",
                 r.name.c_str(), r.events_per_sec(), r.ns_per_event(), r.allocs_per_event(),
                 vs_seed, vs_ref);
  }
  return rows;
}

std::string Harness::Envelope(const std::vector<std::string>& scenarios,
                              const std::vector<std::string>& trailer) const {
  std::ostringstream body;
  body << "{\n  \"bench\": \"" << bench_ << "\",\n  \"schema_version\": 1,\n";
#ifdef NDEBUG
  body << "  \"assertions\": false,\n";
#else
  body << "  \"assertions\": true,\n";
#endif
  if (host_specific_) {
    body << "  \"threads\": " << threads_ << ",\n";
  }
  body << "  \"scale\": " << scale_ << ",\n  " << JsonArray("scenarios", scenarios);
  for (const std::string& field : trailer) {
    body << ",\n  " << field;
  }
  body << "\n}\n";
  return body.str();
}

int Harness::Finish(const std::string& text, int failures) const {
  std::fputs(text.c_str(), stdout);
  if (!json_path_.empty()) {
    std::ofstream out(json_path_);
    out << text;
  }
  if (gate_ && regressions_ > 0) {
    std::fprintf(stderr, "perf gate: %d scenario(s) regressed beyond %.0f%%\n", regressions_,
                 threshold_ * 100.0);
    failures++;
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace actop::bench
