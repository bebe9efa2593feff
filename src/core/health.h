// Per-shard health signals for closed-loop fleet control (DESIGN.md §12).
//
// A HealthSnapshot is the flattened, value-type view of one proxy node's
// load at a control checkpoint: queue occupancy against the armed budget,
// cumulative shed and admission-reject counters, WAL volume and group-commit
// batching, and the fraction of the node's subscriber base currently behind
// an open breaker / dead cell. Everything is a plain number so a controller
// can be driven deterministically from recorded snapshots in tests, and so
// the autoscaler's decisions are a pure function of sim-time facts (the
// determinism contract: byte-identical at any --jobs).
//
// The harnesses fill what they own: proxy_health() seeds the fields the
// core::Proxy itself can answer; the fleet layers (ShardedFleet,
// ElasticFleet) overlay fan-out backlog, WAL stats and breaker fractions
// from their own accounting.
#pragma once

#include <cstdint>

#include "common/time.h"
#include "core/proxy.h"

namespace waif::core {

/// One shard's health at a control checkpoint. Cumulative counters are
/// monotone over a run; gauges (queued, admission_closed) are sampled at
/// `at` with every node clock settled at the same boundary.
struct HealthSnapshot {
  std::uint32_t shard = 0;
  SimTime at = 0;

  /// Fan-out / queue backlog in work units, and the budget it is judged
  /// against (0 = unbounded, occupancy() reports 0).
  std::uint64_t queued = 0;
  std::uint64_t queue_budget = 0;

  /// Cumulative work units dropped by rank-aware shedding.
  std::uint64_t shed = 0;

  /// Cumulative publishes turned away at the admission gate, and whether
  /// the gate is currently closed.
  std::uint64_t admission_rejects = 0;
  bool admission_closed = false;

  /// WAL volume and sync cadence; records/syncs > 1 means group commit is
  /// batching (higher ratio = more latent durability).
  std::uint64_t wal_records = 0;
  std::uint64_t wal_syncs = 0;

  /// Fraction of the node's subscriber slots currently unreachable (open
  /// breaker, dead cell) — drained from the fleet's outage bookkeeping.
  double breaker_open_fraction = 0.0;

  std::uint64_t topics_owned = 0;
  std::uint64_t deliveries = 0;

  /// Queue occupancy in [0, inf): 1.0 = at budget. 0 when unbounded.
  double occupancy() const {
    if (queue_budget == 0) return 0.0;
    return static_cast<double>(queued) / static_cast<double>(queue_budget);
  }
};

/// Seeds a snapshot with the signals the proxy itself can answer: settled
/// queue total and the cumulative admission-reject counter. The caller
/// overlays everything the proxy cannot see (fan-out backlog, WAL stats,
/// breaker fractions).
inline HealthSnapshot proxy_health(const Proxy& proxy) {
  HealthSnapshot health;
  health.queued = proxy.total_queued();
  health.admission_rejects = proxy.stats().admission_rejects;
  return health;
}

}  // namespace waif::core
