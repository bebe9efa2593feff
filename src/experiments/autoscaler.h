// Closed-loop fleet autoscaler: deterministic hysteresis control with a
// graceful-degradation ladder (DESIGN.md §12).
//
// The AutoscalerController is a FleetController implementation that closes
// the loop the elastic fleet exposes: at every boundary it reads per-shard
// HealthSnapshots, maintains over/under-occupancy streaks against grow and
// shrink thresholds (hysteresis: separate thresholds AND separate dwell
// times, so the fleet never oscillates on a noisy signal), and — when a
// resize is warranted AND affordable — emits a target topology that the
// fleet executes through the crash-safe migration protocol.
//
// "Affordable" is the paper's last-hop concern made concrete: every moved
// topic pauses its traffic for the measured per-topic migration pause
// (BENCH_scale_elastic.json: 1250 ms/topic), so the controller *charges*
// itself an estimated pause per resize against a pause budget, and a token
// bucket bounds how many resizes can fire in any window regardless of what
// the signals say. When a wanted resize is blocked — no tokens, pause
// budget exhausted, or migration storage in trouble (rollbacks/abandons
// observed) — the controller walks the degradation ladder instead of
// thrashing:
//   defer (wait, re-evaluate) ->
//   escalate rank-aware shedding (halve the backlog budget) ->
//   tighten admission (halve the gate watermarks),
// and recovers automatically (restores both knobs) once occupancy falls
// below the recover threshold with storage healthy. It never abandons a
// migration mid-flip — it only ever *requests* topologies; the protocol's
// own rollback handles partial failures.
//
// Every non-hold decision is an AutoscaleEvent: recorded in memory, and —
// when a journal is attached — appended as a text line to a storage blob
// (fsynced), so a crash-recovered coordinator can replay what the
// controller did. The controller is a pure function of its inputs: the
// whole loop is byte-identical at any --jobs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.h"
#include "experiments/elastic_fleet.h"

namespace waif::storage {
class StorageBackend;
}  // namespace waif::storage

namespace waif::experiments {

enum class AutoscaleDecision : std::uint8_t {
  kHold = 0,             // nothing to do (not journaled)
  kGrow = 1,             // resize up, pause charged
  kShrink = 2,           // resize down, pause charged
  kDefer = 3,            // resize wanted but blocked; wait
  kShedEscalate = 4,     // ladder step 1: halve the shed budget
  kAdmissionTighten = 5, // ladder step 2: halve the admission watermarks
  kRecover = 6,          // ladder unwound: both knobs restored
};

/// Stable lower-case token ("grow", "shed-escalate", ...).
std::string_view autoscale_decision_name(AutoscaleDecision decision);

/// One journaled controller decision.
struct AutoscaleEvent {
  SimTime at = 0;
  AutoscaleDecision decision = AutoscaleDecision::kHold;
  std::size_t shards_before = 0;
  std::size_t shards_after = 0;
  /// Max per-node occupancy the decision saw.
  double occupancy = 0.0;
  /// Pause the controller charged itself for this decision (resizes only).
  SimDuration charged_pause = 0;
};

/// Journal line format: "autoscale <at> <decision> <before> <after>
/// <occupancy> <charged_pause>". Round-trips exactly.
std::string format_autoscale_event(const AutoscaleEvent& event);
bool parse_autoscale_event(std::string_view line, AutoscaleEvent* event);

struct AutoscalerConfig {
  std::size_t min_shards = 1;
  std::size_t max_shards = 8;

  /// Hysteresis band: grow when max node occupancy has been >=
  /// grow_threshold for grow_dwell consecutive checkpoints; shrink when it
  /// has been <= shrink_threshold for shrink_dwell checkpoints.
  double grow_threshold = 0.85;
  double shrink_threshold = 0.25;
  std::size_t grow_step = 2;
  std::size_t shrink_step = 1;
  std::size_t grow_dwell = 1;
  std::size_t shrink_dwell = 3;

  /// Token bucket over resizes: at most `resize_tokens` banked, one token
  /// refilled every `token_refill_checkpoints` checkpoints.
  std::size_t resize_tokens = 4;
  std::size_t token_refill_checkpoints = 6;

  /// Charged per estimated moved topic — the measured migration pause
  /// profile (BENCH_scale_elastic.json:
  /// migration_max_pause_ms_per_topic_<pop>).
  SimDuration pause_per_topic = 1250 * kMillisecond;
  /// Total pause the controller may charge over a run; 0 = unbounded.
  SimDuration pause_budget = 0;

  /// Minimum simulated time between a resize and one in the opposite
  /// direction (0 = off). The controller enforces this itself, so arming
  /// the InvariantMonitor's resize_min_dwell at the same value can never
  /// fire on a controller-driven fleet.
  SimDuration flip_dwell = 0;

  /// Ladder pacing: defers before escalating shedding, twice that before
  /// tightening admission.
  std::size_t defer_patience = 2;
  /// Checkpoints of cooldown after observed migration trouble (rollbacks
  /// or abandoned resizes) before the controller trusts storage again.
  std::size_t trouble_backoff = 4;
  /// Occupancy at or below which a degraded fleet recovers.
  double recover_threshold = 0.5;
};

class AutoscalerController final : public FleetController {
 public:
  explicit AutoscalerController(const AutoscalerConfig& config);

  Directive on_checkpoint(const FleetControlInput& input) override;

  /// Every non-hold decision, in order.
  const std::vector<AutoscaleEvent>& events() const { return events_; }
  /// Total pause charged against the budget so far.
  SimDuration pause_charged() const { return pause_charged_; }
  /// Whether the degradation ladder is currently engaged (and how far:
  /// 0 = normal, 1 = shedding escalated, 2 = admission tightened too).
  int degrade_level() const { return degrade_; }

  /// Journals every subsequent decision as a text line appended to `blob`
  /// on `backend` (written and fsynced per decision). Pass nullptr to
  /// detach.
  void attach_journal(storage::StorageBackend* backend, std::string blob);

 private:
  void note(AutoscaleDecision decision, const FleetControlInput& input,
            std::size_t shards_after, double occupancy,
            SimDuration charged_pause);

  AutoscalerConfig config_;
  std::vector<AutoscaleEvent> events_;
  storage::StorageBackend* journal_backend_ = nullptr;
  std::string journal_blob_;
  std::string journal_text_;

  std::uint64_t checkpoints_seen_ = 0;
  std::size_t over_streak_ = 0;
  std::size_t under_streak_ = 0;
  std::size_t defer_streak_ = 0;
  std::size_t tokens_ = 0;
  SimDuration pause_charged_ = 0;
  std::size_t trouble_cooldown_ = 0;
  std::uint64_t last_rolled_back_ = 0;
  std::uint64_t last_abandoned_ = 0;
  int degrade_ = 0;
  int last_resize_dir_ = 0;
  SimTime last_resize_at_ = 0;
};

/// Renders the decisions as '#'-prefixed comment lines over an ASCII
/// timeline (one mark per decision: G grow, S shrink, d defer, ! shed
/// escalate, a admission tighten, r recover), so the output can be appended
/// to a `.chaos` file and the file still parses.
void render_autoscale_timeline(std::ostream& out,
                               const std::vector<AutoscaleEvent>& events,
                               SimTime horizon);

}  // namespace waif::experiments
