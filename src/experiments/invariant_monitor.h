// The single reusable invariant checker behind the chaos orchestrator.
//
// A WAIF_CHECK abort is right for a bench's final verdict but useless for
// delta-debugging: the shrinker needs "did this schedule violate?" as a
// value, not a crashed process. The monitor therefore *records* violations
// — each one a named invariant, a detail string and a sim timestamp — and
// the orchestrator (or a test fixture) decides what to do with them; the
// chaos benches abort on a violating cell only after saving its schedule.
//
// Stateful invariants live here (breaker state-machine legality, monotone
// seq/ACK counters, queue bounds vs the armed budgets); whole-run checks
// that need the harness's wiring (live-vs-recovered image equality, shed
// order and journaling, duplicate reads after failover) are evaluated by
// the orchestrator, which reports failures through record().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/time.h"
#include "core/reliable_channel.h"

namespace waif::experiments {

struct ChaosViolation {
  /// Short invariant name ("breaker-legality", "image-equality", ...).
  std::string invariant;
  std::string detail;
  SimTime at = 0;
};

class InvariantMonitor {
 public:
  /// What the schedule armed; zero budgets disable the bound checks.
  struct Expectations {
    std::size_t topic_budget = 0;
    std::size_t proxy_budget = 0;
    /// When false, any admission reject is itself a violation.
    bool admission_armed = false;
    /// No-thrash bounds on controller-driven resizes; zero disables each.
    /// A resize reversing direction within `resize_min_dwell` of the
    /// previous one, or more than `max_resizes` total, is a violation.
    SimDuration resize_min_dwell = 0;
    std::uint64_t max_resizes = 0;
  };

  InvariantMonitor();
  explicit InvariantMonitor(Expectations expectations);

  /// Records one violation (deduplicated by invariant name beyond a cap so
  /// a broken run cannot allocate without bound).
  void record(std::string invariant, std::string detail, SimTime at);

  // --- breaker state machine -------------------------------------------------

  /// Feed every observer callback; verifies the transition against the
  /// legal set (closed->open, open->half-open, half-open->open,
  /// open->closed, half-open->closed).
  void note_breaker(core::BreakerState state, SimTime at);

  /// Re-syncs the tracked state after a legal out-of-band reset the
  /// observer never sees (crash_proxy_side closes the breaker silently).
  void reset_breaker(core::BreakerState state);

  // --- monotone channel state ------------------------------------------------

  /// Feed periodically; verifies the sequence counter and the cumulative
  /// channel counters never go backwards, and acked never exceeds accepted.
  void note_channel(std::uint64_t next_seq,
                    const core::ReliableChannelStats& stats, SimTime at);

  // --- queue occupancy -------------------------------------------------------

  /// Feed settled queue totals (never mid-mutation); verifies them against
  /// the armed budgets.
  void note_queue(const std::string& topic, std::size_t queued, SimTime at);
  void note_proxy_total(std::size_t total, SimTime at);

  /// Feed the proxy's cumulative admission-reject counter; with admission
  /// unarmed any reject is a violation.
  void note_admission_rejects(std::uint64_t rejects, SimTime at);

  // --- elastic fleet / migration ---------------------------------------------

  /// Exactly-one-owner at a checkpoint: `owners` is how many live nodes
  /// hold the topic; anything but 1 (split ownership after a botched flip,
  /// or an orphaned topic) is a violation.
  void note_topic_owners(const std::string& topic, std::size_t owners,
                         SimTime at);

  /// Per-topic delivered sequence number; must never go backwards across
  /// checkpoints — a migration flip replaying old traffic would.
  void note_topic_seq(const std::string& topic, std::uint64_t seq, SimTime at);

  /// Routing conservation: every due trace event is either routed to an
  /// owner or parked in a migration hold — nothing drops unjournaled.
  void note_routed(std::uint64_t due, std::uint64_t routed_or_held,
                   SimTime at);

  /// Feed every applied controller resize (`from` -> `to` shards at `at`);
  /// checks the no-thrash expectations: bounded total count, and no
  /// direction flip within the minimum dwell.
  void note_resize(std::size_t from, std::size_t to, SimTime at);

  bool ok() const { return violations_.empty(); }
  const std::vector<ChaosViolation>& violations() const { return violations_; }
  /// Violations recorded, including those past the storage cap.
  std::uint64_t total_violations() const { return total_; }

 private:
  Expectations expectations_;
  core::BreakerState breaker_ = core::BreakerState::kClosed;
  std::uint64_t last_next_seq_ = 0;
  core::ReliableChannelStats last_stats_;
  std::map<std::string, std::uint64_t> topic_seq_;
  std::vector<ChaosViolation> violations_;
  std::uint64_t total_ = 0;
  std::uint64_t resizes_seen_ = 0;
  SimTime last_resize_at_ = 0;
  int last_resize_dir_ = 0;  // +1 grow, -1 shrink, 0 none yet
};

}  // namespace waif::experiments
