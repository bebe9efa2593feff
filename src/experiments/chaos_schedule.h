// Composed fault schedules: the unit the chaos orchestrator draws, runs,
// shrinks and replays.
//
// A ChaosSchedule is a complete, self-contained description of one chaos
// run: the workload seed, the horizon, the overload/breaker arming, the WAL
// policy, an optional test-only bug hook, and a list of timed faults
// spanning every injector the repo has grown — link faults, forced outages,
// storage faults, replica kills, machine crashes at a WAL record index,
// publish storms and device stalls. Two runs of the same schedule are
// byte-identical, which is what makes delta-debugging
// (chaos_orchestrator.h) and `.chaos` replay files meaningful.
//
// `.chaos` format (line-oriented, '#' comments):
//   waif-chaos v1
//   seed <u64>
//   horizon <simtime>
//   topic-budget <n>
//   proxy-budget <n>
//   admission <high> <low>
//   breaker-threshold <n>
//   persistence <snapshot-interval> <sync-interval> <sync-on-forward 0|1>
//               <group-commit 0|1>        (one line)
//   bug <none|swallow-shed>
//   fault <kind> <at> <duration> <magnitude> <param> <seed>
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "storage/persistence.h"

namespace waif::experiments {

/// One fault injector the orchestrator knows how to apply. The shared
/// {at, duration, magnitude, param, seed} tuple keeps serialization and
/// per-fault minimization uniform; unused fields stay zero.
enum class ChaosFaultKind : std::uint8_t {
  /// Windowed net::FaultModel on the last hop: drop_probability = magnitude,
  /// plus proportional burst/half-open/uplink loss.
  kLinkFault = 0,
  /// Forced link-down window (composes with concurrent outages by depth).
  kOutage = 1,
  /// Windowed storage::StorageFaultModel on the WAL backend:
  /// fsync failures at `magnitude`, torn writes and bit flips in tow.
  kStorageFault = 2,
  /// Kill the active replica's process at `at` (state lost to peers only;
  /// durable image intact). The duration picks the recovery: shorter than
  /// the failure detector's suspicion timeout (5 min) restarts the replica
  /// in place, still the active and warm from the durable image; anything
  /// longer fails over to the standby and restarts the dead replica after
  /// max(duration, 8 min).
  kCrashActive = 3,
  /// Machine crash of the active replica once the WAL holds `param`
  /// records: journal detached, backend crashed (torn tail / bit flips
  /// apply), WAL repaired and resumed, in-flight transfers lost. Restarts
  /// by the kCrashActive duration rule.
  kCrashAtRecord = 4,
  /// Publish storm: `param` extra notifications from `at`, one per second
  /// round-robin across the topics, half of them short-lived.
  kStorm = 5,
  /// Device stall window: every ACK vanishes (uplink drop 1.0), the
  /// breaker's food.
  kDeviceStall = 6,
  /// Elastic fleet rebalance (experiments/rebalance_chaos.h): grow the
  /// fleet to `param` shards at `at`, shrink back to the base size after
  /// `duration`; magnitude becomes a storage-fault window over the
  /// migration protocol's durable steps.
  kRebalance = 7,
  /// Autoscaler flash crowd (experiments/autoscale_chaos.h): one topic
  /// (fault seed picks it) spikes with `param` extra publishes over
  /// `duration`, the closed-loop controller reacts; magnitude becomes a
  /// storage-fault window over the migration protocol, forcing the
  /// degradation ladder.
  kAutoscale = 8,
};

/// Stable lower-case token for serialization ("link-fault", "storm", ...).
std::string_view chaos_fault_kind_name(ChaosFaultKind kind);

/// Inverse of chaos_fault_kind_name; false when the token is unknown.
bool parse_chaos_fault_kind(std::string_view token, ChaosFaultKind* kind);

struct ChaosFault {
  ChaosFaultKind kind = ChaosFaultKind::kLinkFault;
  /// When the fault begins.
  SimTime at = 0;
  /// Window length for windowed kinds; restart delay for crash kinds.
  SimDuration duration = 0;
  /// Kind-specific intensity in [0, 1] (drop / fsync-failure probability).
  double magnitude = 0.0;
  /// Kind-specific count: storm size, or the WAL record index to crash at.
  std::uint64_t param = 0;
  /// Seed for the fault's own randomness (fault models, storm ranks).
  std::uint64_t seed = 1;
};

/// A test-only invariant bug the orchestrator can arm, so the shrinker has
/// a real violation to minimize (the acceptance path for this subsystem).
enum class ChaosBug : std::uint8_t {
  kNone = 0,
  /// Swallow on_shed journal records: the durable image keeps events the
  /// live proxy shed, breaking live-vs-recovered digest equality.
  kSwallowShedJournal = 1,
};

struct ChaosSchedule {
  /// Seeds the workload traces and the channel.
  std::uint64_t seed = 1;
  /// Run length; faults at or beyond it never fire.
  SimTime horizon = 3 * kDay;
  /// Overload arming for both replicas (0 = off, as in core/overload.h).
  std::size_t topic_budget = 0;
  std::size_t proxy_budget = 0;
  std::size_t admission_high = 0;
  std::size_t admission_low = 0;
  /// Circuit-breaker failure threshold (0 = breaker disabled).
  std::size_t breaker_threshold = 0;
  /// The WAL policy the active replica journals under. The `.chaos` line
  /// carries every field: the snapshot interval, sync interval,
  /// sync-on-forward and group commit.
  storage::PersistenceConfig persistence;
  ChaosBug bug = ChaosBug::kNone;
  std::vector<ChaosFault> faults;
};

/// Writes `schedule` in the `.chaos` text format above (full double
/// precision; round-trips exactly).
void write_chaos(std::ostream& out, const ChaosSchedule& schedule);

/// Parses a `.chaos` file; throws std::invalid_argument with a line number
/// on malformed input (bad header, unknown kind, out-of-range values).
ChaosSchedule read_chaos(std::istream& in);

/// Rejects a schedule run_chaos could not honor (negative times, magnitudes
/// outside [0, 1], admission_low above admission_high, non-positive
/// horizon) by throwing std::invalid_argument. read_chaos calls this.
void validate_chaos(const ChaosSchedule& schedule);

/// Canonical digest over every field — equal digests certify byte-identical
/// schedules across platforms.
std::uint64_t digest_chaos(const ChaosSchedule& schedule);

/// Knobs for drawing a composed schedule.
struct ChaosDrawConfig {
  /// Faults to draw.
  std::size_t faults = 8;
  /// Upper bound on drawn magnitudes (each fault draws in (0, intensity]).
  double intensity = 0.35;
  SimTime horizon = 3 * kDay;
  /// Overload arming copied into the schedule.
  std::size_t topic_budget = 24;
  std::size_t proxy_budget = 56;
  std::size_t admission_high = 48;
  std::size_t admission_low = 24;
  std::size_t breaker_threshold = 3;
  /// Allow replica-kill / machine-crash kinds (off for crash-free sweeps).
  bool allow_crashes = true;
  /// Storm size ceiling (each storm draws in [ceiling/2, ceiling]).
  std::size_t storm_size = 96;
  /// When non-zero, rebalance faults join the draw pool: the fleet grows
  /// to this shard count and shrinks back after the fault's duration. Zero
  /// (the default) keeps every pre-elasticity draw byte-identical.
  std::size_t rebalance_shards = 0;
  /// When non-zero, autoscale faults join the draw pool (after rebalance,
  /// so every earlier draw stream stays byte-identical): one topic spikes
  /// with a drawn event count in [spike/2, spike]. Zero (the default)
  /// keeps pre-autoscaler draws byte-identical.
  std::size_t autoscale_spike = 0;
};

/// Draws a composed schedule from `seed`: fault kinds, start times, window
/// lengths, magnitudes and per-fault seeds all come from one splitmix64
/// stream, so equal (config, seed) pairs draw identical schedules.
ChaosSchedule draw_chaos(const ChaosDrawConfig& config, std::uint64_t seed);

/// Renders an ASCII timeline of the schedule — one '#'-prefixed comment
/// line per fault showing its window across the horizon — so the output
/// can be appended to (or interleaved with) a `.chaos` file and the file
/// still parses. Rebalance faults render as `<###>` grow/shrink brackets.
void render_chaos_timeline(std::ostream& out, const ChaosSchedule& schedule);

}  // namespace waif::experiments
