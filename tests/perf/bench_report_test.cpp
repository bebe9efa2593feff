// The bench report's RSS accounting: the reported peak must be the max over
// the sweep (every sample_rss() call), not whatever the process happens to
// hold at write() time — a bench whose biggest row frees its working set
// before the report is written must still report the row's footprint. And
// its metrics: a key may be recorded only once.
#include "bench_report.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/resource.h"

namespace waif::bench {
namespace {

std::uint64_t read_reported_peak(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  const std::string key = "\"peak_rss_bytes\": ";
  const std::size_t at = json.find(key);
  EXPECT_NE(at, std::string::npos) << json;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

// Touch every page so the kernel actually maps the block into the RSS.
std::vector<char> touched_block(std::size_t bytes) {
  std::vector<char> block(bytes);
  for (std::size_t i = 0; i < block.size(); i += 4096) block[i] = 1;
  return block;
}

TEST(ResourceTest, CurrentAndPeakRssArePlausible) {
  const std::uint64_t current = current_rss_bytes();
  const std::uint64_t peak = waif::peak_rss_bytes();
  EXPECT_GT(current, 0u);
  EXPECT_GE(peak, current / 2);  // ru_maxrss and statm round differently
}

TEST(BenchReportTest, SampleRssSeesATouchedAllocation) {
  const std::string dir = ::testing::TempDir();
  setenv("WAIF_BENCH_JSON_DIR", dir.c_str(), 1);
  BenchReport report("bench_report_test_sample");
  const std::uint64_t before = report.sample_rss();
  constexpr std::size_t kBlock = 64 << 20;
  const std::vector<char> block = touched_block(kBlock);
  const std::uint64_t during = report.sample_rss();
  EXPECT_GE(during, before + kBlock / 2) << "64 MiB block not visible in RSS";
  report.write();
  unsetenv("WAIF_BENCH_JSON_DIR");
}

TEST(BenchReportTest, ReportedPeakIsMaxOverSweepNotEndOfRun) {
  const std::string dir = ::testing::TempDir();
  setenv("WAIF_BENCH_JSON_DIR", dir.c_str(), 1);

  BenchReport report("bench_report_test_peak");
  // reset_rss() floors the getrusage lifetime peak at everything that came
  // before (including other tests in this binary), so the report window
  // starts clean and the sampled max is what must carry the peak.
  report.reset_rss();
  std::uint64_t sample_at_peak = 0;
  {
    const std::vector<char> block = touched_block(96 << 20);
    sample_at_peak = report.sample_rss();
  }
  // The block is freed before write(): a large vector goes back to the OS
  // (glibc frees mmap'd chunks eagerly), so end-of-run RSS alone would
  // under-report. The sweep sample must survive into the JSON.
  report.write();

  const std::uint64_t reported =
      read_reported_peak(dir + "/BENCH_bench_report_test_peak.json");
  EXPECT_GE(reported, sample_at_peak);
  unsetenv("WAIF_BENCH_JSON_DIR");
}

TEST(BenchReportTest, WriteWithoutSamplesStillReportsLiveRss) {
  const std::string dir = ::testing::TempDir();
  setenv("WAIF_BENCH_JSON_DIR", dir.c_str(), 1);
  BenchReport report("bench_report_test_nosample");
  report.write();
  const std::uint64_t reported =
      read_reported_peak(dir + "/BENCH_bench_report_test_nosample.json");
  EXPECT_GT(reported, 0u);
  unsetenv("WAIF_BENCH_JSON_DIR");
}

// A JSON reader keeps only the last of two equal keys, so a bench that
// recorded one key per row would silently lose every row but the last.
TEST(BenchReportTest, DuplicateMetricKeyIsRefused) {
  EXPECT_DEATH(
      {
        BenchReport report("bench_report_test_duplicate");
        report.metric("pause_ms", 1.0);
        report.metric("pause_ms", 2.0);
      },
      "WAIF_CHECK failed");
}

}  // namespace
}  // namespace waif::bench
