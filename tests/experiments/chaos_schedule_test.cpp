#include "experiments/chaos_schedule.h"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace waif::experiments {
namespace {

ChaosSchedule sample_schedule() {
  ChaosSchedule schedule;
  schedule.seed = 42;
  schedule.horizon = 2 * kDay;
  schedule.topic_budget = 12;
  schedule.proxy_budget = 30;
  schedule.admission_high = 24;
  schedule.admission_low = 10;
  schedule.breaker_threshold = 2;
  schedule.persistence.snapshot_interval = 16;
  schedule.persistence.sync_interval = 32;
  schedule.persistence.sync_on_forward = false;
  schedule.persistence.group_commit = true;
  schedule.bug = ChaosBug::kSwallowShedJournal;
  ChaosFault fault;
  fault.kind = ChaosFaultKind::kStorm;
  fault.at = 6 * kHour;
  fault.duration = kHour;
  fault.magnitude = 0.5;
  fault.param = 64;
  fault.seed = 7;
  schedule.faults.push_back(fault);
  fault.kind = ChaosFaultKind::kCrashAtRecord;
  fault.param = 128;
  schedule.faults.push_back(fault);
  return schedule;
}

TEST(ChaosSchedule, RoundTripsThroughText) {
  const ChaosSchedule original = sample_schedule();
  std::ostringstream out;
  write_chaos(out, original);

  std::istringstream in(out.str());
  const ChaosSchedule reread = read_chaos(in);

  EXPECT_EQ(digest_chaos(reread), digest_chaos(original));
  EXPECT_EQ(reread.seed, original.seed);
  EXPECT_EQ(reread.persistence.snapshot_interval, 16u);
  EXPECT_EQ(reread.persistence.sync_interval, 32u);
  EXPECT_FALSE(reread.persistence.sync_on_forward);
  EXPECT_TRUE(reread.persistence.group_commit);
  EXPECT_EQ(reread.bug, ChaosBug::kSwallowShedJournal);
  ASSERT_EQ(reread.faults.size(), 2u);
  EXPECT_EQ(reread.faults[0].kind, ChaosFaultKind::kStorm);
  EXPECT_EQ(reread.faults[1].kind, ChaosFaultKind::kCrashAtRecord);
  EXPECT_DOUBLE_EQ(reread.faults[0].magnitude, 0.5);
}

TEST(ChaosSchedule, EveryFaultKindHasAStableName) {
  for (ChaosFaultKind kind :
       {ChaosFaultKind::kLinkFault, ChaosFaultKind::kOutage,
        ChaosFaultKind::kStorageFault, ChaosFaultKind::kCrashActive,
        ChaosFaultKind::kCrashAtRecord, ChaosFaultKind::kStorm,
        ChaosFaultKind::kDeviceStall}) {
    ChaosFaultKind parsed;
    ASSERT_TRUE(parse_chaos_fault_kind(chaos_fault_kind_name(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  ChaosFaultKind parsed;
  EXPECT_FALSE(parse_chaos_fault_kind("meteor-strike", &parsed));
}

TEST(ChaosSchedule, ReadRejectsDamagedInput) {
  const auto reject = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW(read_chaos(in), std::invalid_argument) << text;
  };
  reject("");                                   // no header
  reject("waif-chaos v2\n");                    // wrong version
  reject("waif-chaos v1\nseed nope\n");         // malformed value
  reject("waif-chaos v1\nwarp-factor 9\n");     // unknown keyword
  reject("waif-chaos v1\nseed 1 extra\n");      // trailing garbage
  reject("waif-chaos v1\nbug heisenbug\n");     // unknown bug
  reject("waif-chaos v1\nfault meteor 0 0 0 0 0\n");  // unknown kind
  reject("waif-chaos v1\nfault storm 0 0 1.5 0 0\n");  // magnitude > 1
  reject("waif-chaos v1\nhorizon -5\n");        // fails validation
  reject("waif-chaos v1\npersistence 64 1 2 0\n");  // flag other than 0/1
  reject("waif-chaos v1\npersistence 64 1 1\n");    // missing field
}

TEST(ChaosSchedule, ValidateRejectsBadFields) {
  ChaosSchedule schedule = sample_schedule();
  schedule.faults[0].magnitude = -0.25;
  EXPECT_THROW(validate_chaos(schedule), std::invalid_argument);

  schedule = sample_schedule();
  schedule.faults[0].magnitude = std::nan("");
  EXPECT_THROW(validate_chaos(schedule), std::invalid_argument);

  schedule = sample_schedule();
  schedule.faults[1].duration = -kMinute;
  EXPECT_THROW(validate_chaos(schedule), std::invalid_argument);

  schedule = sample_schedule();
  schedule.admission_low = schedule.admission_high + 1;
  EXPECT_THROW(validate_chaos(schedule), std::invalid_argument);

  EXPECT_NO_THROW(validate_chaos(sample_schedule()));
}

TEST(ChaosSchedule, DrawIsDeterministicAndValid) {
  ChaosDrawConfig config;
  config.faults = 12;
  const ChaosSchedule a = draw_chaos(config, 99);
  const ChaosSchedule b = draw_chaos(config, 99);
  const ChaosSchedule c = draw_chaos(config, 100);

  EXPECT_EQ(digest_chaos(a), digest_chaos(b));
  EXPECT_NE(digest_chaos(a), digest_chaos(c));
  EXPECT_EQ(a.faults.size(), 12u);
  EXPECT_NO_THROW(validate_chaos(a));
  for (const ChaosFault& fault : a.faults) {
    EXPECT_GE(fault.at, a.horizon / 16);
    EXPECT_LT(fault.at, a.horizon);
    EXPECT_GT(fault.duration, 0);
  }
}

TEST(ChaosSchedule, DrawWithoutCrashesDrawsNoCrashes) {
  ChaosDrawConfig config;
  config.faults = 32;
  config.allow_crashes = false;
  const ChaosSchedule schedule = draw_chaos(config, 5);
  for (const ChaosFault& fault : schedule.faults) {
    EXPECT_NE(fault.kind, ChaosFaultKind::kCrashActive);
    EXPECT_NE(fault.kind, ChaosFaultKind::kCrashAtRecord);
  }
}

}  // namespace
}  // namespace waif::experiments
