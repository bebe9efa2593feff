#include "experiments/chaos_schedule.h"

#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "workload/serialization.h"

namespace waif::experiments {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw std::invalid_argument("line " + std::to_string(line) + ": " + message);
}

void expect_consumed(std::istringstream& fields, std::size_t line) {
  std::string extra;
  if (fields >> extra) fail(line, "trailing garbage '" + extra + "'");
}

constexpr struct {
  ChaosFaultKind kind;
  std::string_view name;
} kKindNames[] = {
    {ChaosFaultKind::kLinkFault, "link-fault"},
    {ChaosFaultKind::kOutage, "outage"},
    {ChaosFaultKind::kStorageFault, "storage-fault"},
    {ChaosFaultKind::kCrashActive, "crash-active"},
    {ChaosFaultKind::kCrashAtRecord, "crash-at-record"},
    {ChaosFaultKind::kStorm, "storm"},
    {ChaosFaultKind::kDeviceStall, "device-stall"},
    {ChaosFaultKind::kRebalance, "rebalance"},
    {ChaosFaultKind::kAutoscale, "autoscale"},
};

std::string_view chaos_bug_name(ChaosBug bug) {
  switch (bug) {
    case ChaosBug::kNone:
      return "none";
    case ChaosBug::kSwallowShedJournal:
      return "swallow-shed";
  }
  return "none";
}

bool parse_chaos_bug(std::string_view token, ChaosBug* bug) {
  if (token == "none") {
    *bug = ChaosBug::kNone;
    return true;
  }
  if (token == "swallow-shed") {
    *bug = ChaosBug::kSwallowShedJournal;
    return true;
  }
  return false;
}

}  // namespace

std::string_view chaos_fault_kind_name(ChaosFaultKind kind) {
  for (const auto& entry : kKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "link-fault";
}

bool parse_chaos_fault_kind(std::string_view token, ChaosFaultKind* kind) {
  for (const auto& entry : kKindNames) {
    if (entry.name == token) {
      *kind = entry.kind;
      return true;
    }
  }
  return false;
}

void write_chaos(std::ostream& out, const ChaosSchedule& schedule) {
  const std::streamsize old_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << "waif-chaos v1\n";
  out << "seed " << schedule.seed << "\n";
  out << "horizon " << schedule.horizon << "\n";
  out << "topic-budget " << schedule.topic_budget << "\n";
  out << "proxy-budget " << schedule.proxy_budget << "\n";
  out << "admission " << schedule.admission_high << ' '
      << schedule.admission_low << "\n";
  out << "breaker-threshold " << schedule.breaker_threshold << "\n";
  const storage::PersistenceConfig& persistence = schedule.persistence;
  out << "persistence " << persistence.snapshot_interval << ' '
      << persistence.sync_interval << ' ' << int{persistence.sync_on_forward}
      << ' ' << int{persistence.group_commit} << "\n";
  out << "bug " << chaos_bug_name(schedule.bug) << "\n";
  for (const ChaosFault& fault : schedule.faults) {
    out << "fault " << chaos_fault_kind_name(fault.kind) << ' ' << fault.at
        << ' ' << fault.duration << ' ' << fault.magnitude << ' '
        << fault.param << ' ' << fault.seed << "\n";
  }
  out.precision(old_precision);
}

ChaosSchedule read_chaos(std::istream& in) {
  ChaosSchedule schedule;
  schedule.faults.clear();
  std::string line;
  std::size_t line_number = 0;
  bool have_header = false;

  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string keyword;
    fields >> keyword;
    if (!have_header) {
      std::string version;
      if (keyword != "waif-chaos" || !(fields >> version) || version != "v1") {
        fail(line_number, "expected header 'waif-chaos v1'");
      }
      have_header = true;
      expect_consumed(fields, line_number);
      continue;
    }
    if (keyword == "seed") {
      if (!(fields >> schedule.seed)) fail(line_number, "bad seed");
    } else if (keyword == "horizon") {
      if (!(fields >> schedule.horizon)) fail(line_number, "bad horizon");
    } else if (keyword == "topic-budget") {
      if (!(fields >> schedule.topic_budget)) {
        fail(line_number, "bad topic-budget");
      }
    } else if (keyword == "proxy-budget") {
      if (!(fields >> schedule.proxy_budget)) {
        fail(line_number, "bad proxy-budget");
      }
    } else if (keyword == "admission") {
      if (!(fields >> schedule.admission_high >> schedule.admission_low)) {
        fail(line_number, "bad admission watermarks");
      }
    } else if (keyword == "breaker-threshold") {
      if (!(fields >> schedule.breaker_threshold)) {
        fail(line_number, "bad breaker-threshold");
      }
    } else if (keyword == "persistence") {
      storage::PersistenceConfig& persistence = schedule.persistence;
      int sync_on_forward = 0;
      int group_commit = 0;
      if (!(fields >> persistence.snapshot_interval >>
            persistence.sync_interval >> sync_on_forward >> group_commit)) {
        fail(line_number, "bad persistence fields");
      }
      const auto is_flag = [](int value) { return value == 0 || value == 1; };
      if (!is_flag(sync_on_forward) || !is_flag(group_commit)) {
        fail(line_number, "persistence flags must be 0 or 1");
      }
      persistence.sync_on_forward = sync_on_forward == 1;
      persistence.group_commit = group_commit == 1;
    } else if (keyword == "bug") {
      std::string token;
      if (!(fields >> token) || !parse_chaos_bug(token, &schedule.bug)) {
        fail(line_number, "unknown bug '" + token + "'");
      }
    } else if (keyword == "fault") {
      ChaosFault fault;
      std::string kind;
      if (!(fields >> kind) || !parse_chaos_fault_kind(kind, &fault.kind)) {
        fail(line_number, "unknown fault kind '" + kind + "'");
      }
      if (!(fields >> fault.at >> fault.duration >> fault.magnitude >>
            fault.param >> fault.seed)) {
        fail(line_number, "bad fault fields");
      }
      schedule.faults.push_back(fault);
    } else {
      fail(line_number, "unknown keyword '" + keyword + "'");
    }
    expect_consumed(fields, line_number);
  }
  if (!have_header) fail(line_number, "missing header");
  try {
    validate_chaos(schedule);
  } catch (const std::invalid_argument& error) {
    fail(line_number, error.what());
  }
  return schedule;
}

void validate_chaos(const ChaosSchedule& schedule) {
  auto require = [](bool ok, const std::string& message) {
    if (!ok) throw std::invalid_argument("chaos: " + message);
  };
  require(schedule.horizon > 0, "horizon must be positive");
  require(schedule.admission_low <= schedule.admission_high,
          "admission_low must not exceed admission_high");
  for (const ChaosFault& fault : schedule.faults) {
    const std::string name(chaos_fault_kind_name(fault.kind));
    require(fault.at >= 0, name + " start must be non-negative");
    require(fault.duration >= 0, name + " duration must be non-negative");
    require(!std::isnan(fault.magnitude) && fault.magnitude >= 0.0 &&
                fault.magnitude <= 1.0,
            name + " magnitude must be in [0, 1]");
    if (fault.kind == ChaosFaultKind::kRebalance) {
      require(fault.param >= 1, "rebalance target shard count must be >= 1");
    }
    if (fault.kind == ChaosFaultKind::kAutoscale) {
      require(fault.param >= 1, "autoscale spike event count must be >= 1");
    }
  }
}

std::uint64_t digest_chaos(const ChaosSchedule& schedule) {
  workload::CanonicalDigest digest;
  digest.str("waif-chaos v1");
  digest.u64(schedule.seed);
  digest.i64(schedule.horizon);
  digest.u64(schedule.topic_budget);
  digest.u64(schedule.proxy_budget);
  digest.u64(schedule.admission_high);
  digest.u64(schedule.admission_low);
  digest.u64(schedule.breaker_threshold);
  digest.u64(schedule.persistence.snapshot_interval);
  digest.u64(schedule.persistence.sync_interval);
  digest.u64(schedule.persistence.sync_on_forward ? 1 : 0);
  digest.u64(schedule.persistence.group_commit ? 1 : 0);
  digest.u64(static_cast<std::uint64_t>(schedule.bug));
  digest.u64(schedule.faults.size());
  for (const ChaosFault& fault : schedule.faults) {
    digest.u64(static_cast<std::uint64_t>(fault.kind));
    digest.i64(fault.at);
    digest.i64(fault.duration);
    digest.f64(fault.magnitude);
    digest.u64(fault.param);
    digest.u64(fault.seed);
  }
  return digest.value();
}

ChaosSchedule draw_chaos(const ChaosDrawConfig& config, std::uint64_t seed) {
  ChaosSchedule schedule;
  std::uint64_t state = seed ^ 0xC5A0Dull;
  schedule.seed = splitmix64(state);
  schedule.horizon = config.horizon;
  schedule.topic_budget = config.topic_budget;
  schedule.proxy_budget = config.proxy_budget;
  schedule.admission_high = config.admission_high;
  schedule.admission_low = config.admission_low;
  schedule.breaker_threshold = config.breaker_threshold;

  Rng rng(splitmix64(state));
  // Faults start inside the middle of the run, so the workload has state to
  // damage and time to recover before the horizon check.
  const SimTime first = config.horizon / 16;
  const SimTime last = config.horizon - config.horizon / 8;
  for (std::size_t i = 0; i < config.faults; ++i) {
    ChaosFault fault;
    // Rebalance and autoscale join the pool as the highest indexes (in
    // that order) so that with their knobs at 0 the draw stream is
    // byte-identical to every schedule drawn before they existed.
    const std::size_t base_kinds = config.allow_crashes ? 7 : 5;
    const std::size_t rebalance_kinds =
        base_kinds + (config.rebalance_shards > 0 ? 1 : 0);
    const std::size_t kinds =
        rebalance_kinds + (config.autoscale_spike > 0 ? 1 : 0);
    const std::uint64_t pick = rng.next_below(kinds);
    if (config.autoscale_spike > 0 && pick == rebalance_kinds) {
      fault.kind = ChaosFaultKind::kAutoscale;
    } else if (config.rebalance_shards > 0 && pick == base_kinds) {
      fault.kind = ChaosFaultKind::kRebalance;
    } else {
      switch (pick) {
      case 0:
        fault.kind = ChaosFaultKind::kLinkFault;
        break;
      case 1:
        fault.kind = ChaosFaultKind::kOutage;
        break;
      case 2:
        fault.kind = ChaosFaultKind::kStorageFault;
        break;
      case 3:
        fault.kind = ChaosFaultKind::kStorm;
        break;
      case 4:
        fault.kind = ChaosFaultKind::kDeviceStall;
        break;
      case 5:
        fault.kind = ChaosFaultKind::kCrashActive;
        break;
      default:
        fault.kind = ChaosFaultKind::kCrashAtRecord;
        break;
      }
    }
    fault.at = first + static_cast<SimTime>(rng.next_below(
                           static_cast<std::uint64_t>(last - first)));
    fault.duration =
        5 * kMinute +
        static_cast<SimDuration>(rng.next_below(
            static_cast<std::uint64_t>(4 * kHour - 5 * kMinute)));
    fault.magnitude = config.intensity * (0.25 + 0.75 * rng.next_double());
    if (fault.kind == ChaosFaultKind::kStorm) {
      fault.param = config.storm_size / 2 +
                    rng.next_below(config.storm_size / 2 + 1);
    } else if (fault.kind == ChaosFaultKind::kCrashAtRecord) {
      fault.param = 24 + rng.next_below(512);
    } else if (fault.kind == ChaosFaultKind::kRebalance) {
      fault.param = config.rebalance_shards;
    } else if (fault.kind == ChaosFaultKind::kAutoscale) {
      fault.param = config.autoscale_spike / 2 +
                    rng.next_below(config.autoscale_spike / 2 + 1);
    }
    fault.seed = rng();
    schedule.faults.push_back(fault);
  }
  return schedule;
}

void render_chaos_timeline(std::ostream& out, const ChaosSchedule& schedule) {
  constexpr std::size_t kWidth = 64;
  const SimTime horizon = schedule.horizon > 0 ? schedule.horizon : 1;
  auto column = [&](SimTime at) -> std::size_t {
    if (at <= 0) return 0;
    if (at >= horizon) return kWidth - 1;
    return static_cast<std::size_t>(
        (at * static_cast<SimTime>(kWidth)) / horizon);
  };
  out << "# timeline: " << schedule.faults.size() << " fault(s) over "
      << horizon << " (each column ~"
      << horizon / static_cast<SimTime>(kWidth) << ")\n";
  out << "# " << std::string(kWidth, '-') << "\n";
  for (const ChaosFault& fault : schedule.faults) {
    std::string row(kWidth, ' ');
    const std::size_t from = column(fault.at);
    const std::size_t to = column(fault.at + fault.duration);
    for (std::size_t c = from; c <= to && c < kWidth; ++c) row[c] = '#';
    if (fault.kind == ChaosFaultKind::kRebalance) {
      // Grow at the opening bracket, shrink back at the closing one.
      row[from] = '<';
      if (to > from && to < kWidth) row[to] = '>';
    } else if (fault.kind == ChaosFaultKind::kAutoscale) {
      // The spike ignites here; the controller's own decisions render as a
      // separate row (render_autoscale_timeline).
      row[from] = '*';
    } else if (fault.kind == ChaosFaultKind::kCrashActive ||
               fault.kind == ChaosFaultKind::kCrashAtRecord) {
      row[from] = 'X';
    }
    out << "# [" << row << "] " << chaos_fault_kind_name(fault.kind) << " @"
        << fault.at;
    if (fault.kind == ChaosFaultKind::kRebalance) {
      out << " ->" << fault.param << " shards";
    } else if (fault.kind == ChaosFaultKind::kAutoscale) {
      out << " spike=" << fault.param << " events";
    } else if (fault.param != 0) {
      out << " param=" << fault.param;
    }
    if (fault.magnitude > 0.0) out << " x" << fault.magnitude;
    out << "\n";
  }
  out << "# " << std::string(kWidth, '-') << "\n";
}

}  // namespace waif::experiments
