#include "bench/harness.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace actop::bench {
namespace {

// Shaped like bench/baselines/BENCH_engine.baseline.json: header fields, then
// one scenario object per line.
constexpr char kReference[] =
    "{\n"
    "  \"bench\": \"engine\",\n"
    "  \"schema_version\": 1,\n"
    "  \"assertions\": false,\n"
    "  \"threads\": 4,\n"
    "  \"scale\": 0.5,\n"
    "  \"scenarios\": [\n"
    "    {\"name\": \"steady_stream\", \"events\": 2700511, \"events_per_sec\": 1000, "
    "\"ns_per_event\": 123.46},\n"
    "    {\"name\": \"cancel_heavy\", \"events\": 3187500, \"ns_per_event\": 33.44}\n"
    "  ]\n"
    "}\n";

class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    args_.insert(args_.begin(), "bench_test");
    for (std::string& a : args_) {
      ptrs_.push_back(a.data());
    }
  }
  int argc() { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

std::string WriteReference(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

std::string ReferenceWithThreads(unsigned threads) {
  std::string text = kReference;
  const std::string from = "\"threads\": 4";
  text.replace(text.find(from), from.size(), "\"threads\": " + std::to_string(threads));
  return text;
}

TEST(BenchHarnessTest, LookupRefReadsTheNamedRow) {
  double value = 0.0;
  ASSERT_TRUE(LookupRef(kReference, "steady_stream", "events_per_sec", &value));
  EXPECT_EQ(value, 1000.0);
  ASSERT_TRUE(LookupRef(kReference, "cancel_heavy", "ns_per_event", &value));
  EXPECT_EQ(value, 33.44);
}

TEST(BenchHarnessTest, LookupRefMissesAbsentKeysAndNames) {
  double value = -1.0;
  EXPECT_FALSE(LookupRef(kReference, "cancel_heavy", "events_per_sec", &value));
  EXPECT_FALSE(LookupRef(kReference, "no_such_scenario", "events", &value));
  EXPECT_EQ(value, -1.0);
}

TEST(BenchHarnessTest, LookupHeaderReadsTopLevelFields) {
  double value = 0.0;
  ASSERT_TRUE(LookupHeader(kReference, "threads", &value));
  EXPECT_EQ(value, 4.0);
  ASSERT_TRUE(LookupHeader(kReference, "scale", &value));
  EXPECT_EQ(value, 0.5);
  EXPECT_FALSE(LookupHeader(kReference, "note", &value));
}

TEST(BenchHarnessTest, HostSpecificBenchRefusesOtherThreadCounts) {
  const unsigned threads = std::thread::hardware_concurrency();
  const std::string other = WriteReference("other_threads.json", ReferenceWithThreads(threads + 1));
  Harness refuses("parallel", /*host_specific=*/true);
  Argv refused({"--compare=" + other});
  EXPECT_FALSE(refuses.Parse(refused.argc(), refused.argv()));

  const std::string same = WriteReference("same_threads.json", ReferenceWithThreads(threads));
  Harness accepts("parallel", /*host_specific=*/true);
  Argv accepted({"--compare=" + same});
  EXPECT_TRUE(accepts.Parse(accepted.argc(), accepted.argv()));

  const std::string threads_line = "  \"threads\": 4,\n";
  std::string unthreaded = kReference;
  unthreaded.erase(unthreaded.find(threads_line), threads_line.size());
  const std::string none = WriteReference("no_threads.json", unthreaded);
  Harness unknown("parallel", /*host_specific=*/true);
  Argv missing({"--compare=" + none});
  EXPECT_FALSE(unknown.Parse(missing.argc(), missing.argv()));
}

TEST(BenchHarnessTest, ScaleSpecificBenchRefusesOtherScales) {
  const std::string path = WriteReference(
      "scale_ref.json", ReferenceWithThreads(std::thread::hardware_concurrency()));
  Harness refuses("halo_scale", /*host_specific=*/true, /*scale_specific=*/true);
  Argv refused({"--compare=" + path, "--scale=1.0"});
  EXPECT_FALSE(refuses.Parse(refused.argc(), refused.argv()));

  Harness accepts("halo_scale", /*host_specific=*/true, /*scale_specific=*/true);
  Argv accepted({"--compare=" + path, "--scale=0.5"});
  EXPECT_TRUE(accepts.Parse(accepted.argc(), accepted.argv()));
}

TEST(BenchHarnessTest, UnreadableReferenceIsRefused) {
  Harness harness("engine");
  Argv args({"--compare=" + testing::TempDir() + "does_not_exist.json"});
  EXPECT_FALSE(harness.Parse(args.argc(), args.argv()));
}

TEST(BenchHarnessDeathTest, MalformedNumericFlagIsAUsageError) {
  Harness harness("engine");
  Argv args({"--scale=abc"});
  EXPECT_EXIT(harness.Parse(args.argc(), args.argv()), testing::ExitedWithCode(2), "bad value");
}

TEST(BenchHarnessTest, RegressionBoundaryMatchesTheGateRule) {
  EXPECT_FALSE(IsRegression(1.0 - 0.10, 0.10));
  EXPECT_TRUE(IsRegression(std::nextafter(1.0 - 0.10, 0.0), 0.10));
  EXPECT_FALSE(IsRegression(1.5, 0.10));
}

TEST(BenchHarnessTest, CompareCountsOnlyRunsBelowTheThreshold) {
  const std::string path = WriteReference("compare_ref.json", kReference);
  Harness harness("engine");
  Argv args({"--compare=" + path, "--gate", "--threshold=0.10"});
  ASSERT_TRUE(harness.Parse(args.argc(), args.argv()));

  // Reference is 1000 events/s: 900 sits exactly at 1 - threshold.
  const RefSpeedup at = harness.Compare("steady_stream", 900.0);
  EXPECT_TRUE(at.have_ref);
  EXPECT_EQ(at.speedup, 0.9);
  EXPECT_EQ(harness.Finish("", 0), 0);

  const RefSpeedup below = harness.Compare("steady_stream", 899.999);
  EXPECT_TRUE(below.have_ref);
  EXPECT_EQ(harness.Finish("", 0), 1);

  // A row without events_per_sec has no reference and never regresses.
  EXPECT_FALSE(harness.Compare("cancel_heavy", 1.0).have_ref);
}

TEST(BenchHarnessTest, ScenarioRowMatchesTheBaselineFormat) {
  Harness harness("engine");
  Argv args({});
  ASSERT_TRUE(harness.Parse(args.argc(), args.argv()));
  ScenarioResult r;
  r.name = "steady_stream";
  r.events = 2700511;
  r.wall_ns = 333396419;
  const std::vector<std::string> rows = harness.ReportScenarios({r});
  ASSERT_EQ(rows.size(), 1u);
  // Verbatim from bench/baselines/BENCH_engine.baseline.json.
  EXPECT_EQ(rows[0],
            "{\"name\": \"steady_stream\", \"events\": 2700511, \"wall_ns\": 333396419, "
            "\"events_per_sec\": 8100000, \"ns_per_event\": 123.46, \"allocs_per_event\": "
            "0.0000, \"bytes_per_event\": 0.0}");
}

TEST(BenchHarnessTest, EnvelopeLaysOutHeaderScenariosAndTrailer) {
  Harness harness("parallel", /*host_specific=*/true);
  Argv args({"--scale=0.02"});
  ASSERT_TRUE(harness.Parse(args.argc(), args.argv()));
#ifdef NDEBUG
  const std::string assertions = "false";
#else
  const std::string assertions = "true";
#endif
  EXPECT_EQ(harness.Envelope({"{\"name\": \"a\"}", "{\"name\": \"b\"}"},
                             {FixedField("speedup_at_8_shards", 0.5, 3)}),
            "{\n  \"bench\": \"parallel\",\n  \"schema_version\": 1,\n  \"assertions\": " +
                assertions + ",\n  \"threads\": " +
                std::to_string(std::thread::hardware_concurrency()) +
                ",\n  \"scale\": 0.02,\n  \"scenarios\": [\n    {\"name\": \"a\"},\n"
                "    {\"name\": \"b\"}\n  ],\n  \"speedup_at_8_shards\": 0.500\n}\n");
}

}  // namespace
}  // namespace actop::bench
