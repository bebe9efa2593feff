// Observer interfaces that let a durability layer witness every proxy
// mutation (the storage subsystem's write-ahead log) and rebuild a proxy
// after a crash.
//
// TopicState calls the journal at each state transition with enough context
// to replay the recorded outcome without re-deciding it: TopicState's
// replay_* entry points (one per hook) apply it without the live handlers'
// policy, forwarding or journaling. The hooks are no-ops by default and the
// journal pointer is optional, so a proxy without persistence behaves
// byte-identically to one that never heard of this header.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.h"
#include "common/time.h"
#include "core/read_protocol.h"
#include "pubsub/notification.h"

namespace waif::core {

class Proxy;

/// The exact queue transition an enqueue record encodes. Each tag maps to
/// one live code path, so replay can reproduce precisely the erasures and
/// the insertion that path performed (an id can legitimately sit in the
/// delay stage *and* outgoing after an interrupt, so "erase everywhere then
/// insert" would be wrong for some paths):
///   kOutgoing       insert/replace in outgoing, touch nothing else
///                   (on-line branch, rank refresh of an outgoing or
///                   already-forwarded event)
///   kWithdrawn      rank dropped below threshold on a forwarded event:
///                   erase holding/prefetch/delay, insert outgoing
///   kDropped        rank below threshold, never forwarded: erase every
///                   stage, insert nowhere (also fresh sub-threshold drops)
///   kInterrupt      hybrid-model interrupt: erase holding/prefetch,
///                   insert outgoing (delay untouched)
///   kReadDifference READ moved the event to outgoing: erase
///                   prefetch/holding, insert outgoing (no history write)
///   kPrefetch       insert/replace in prefetch (fresh placement or rank
///                   refresh)
///   kDelayRelease   the delay stage released the event: erase delay,
///                   insert prefetch (no history write)
///   kHolding        insert/replace in holding
///   kDelay          insert/replace in the delay stage (release_at below)
enum class JournalStage : std::uint8_t {
  kOutgoing = 0,
  kWithdrawn = 1,
  kDropped = 2,
  kInterrupt = 3,
  kReadDifference = 4,
  kPrefetch = 5,
  kDelayRelease = 6,
  kHolding = 7,
  kDelay = 8,
};

/// One surviving NOTIFICATION (or READ-difference move), as journaled. The
/// record lives only for the on_enqueue call: `event` is the queued
/// notification itself, not a copy.
struct EnqueueRecord {
  const pubsub::Notification& event;
  JournalStage stage = JournalStage::kDropped;
  /// Simulation instant of the mutation.
  SimTime at = 0;
  /// For kDelay: when the delay stage releases the event. A rank refresh of
  /// an event already delayed carries the *original* release instant.
  SimTime release_at = 0;
  /// True when the id was not in history yet (trains the arrival-interval
  /// average).
  bool fresh = false;
  /// True when track_expiration ran for this placement (trains the lifetime
  /// average and arms the expiration timer when the event expires).
  bool exp_tracked = false;
  /// rate_credit_ after this mutation (kRatePrefetch bookkeeping).
  double rate_credit = 0.0;
};

/// Witnesses proxy mutations. All hooks are optional no-ops.
class ProxyJournal {
 public:
  virtual ~ProxyJournal() = default;

  virtual void on_enqueue(const std::string& topic, const EnqueueRecord& record) {
    (void)topic;
    (void)record;
  }

  /// Called *before* the event is handed to the device channel — the
  /// write-ahead contract. Returning false means the record could not be
  /// made durable (failed fsync); the caller must then NOT deliver the
  /// event, so recovery can never observe a delivery the log missed.
  /// `replicated` marks apply_replicated_forward (peer already delivered).
  virtual bool on_forward(const std::string& topic,
                          const pubsub::NotificationPtr& event, SimTime at,
                          double rate_credit, bool replicated) {
    (void)topic;
    (void)event;
    (void)at;
    (void)rate_credit;
    (void)replicated;
    return true;
  }

  virtual void on_read(const std::string& topic, std::uint64_t request_id,
                       int n, std::size_t queue_size, SimTime at) {
    (void)topic;
    (void)request_id;
    (void)n;
    (void)queue_size;
    (void)at;
  }

  /// A queue-state sync from the device, with its offline-read log. Fires
  /// for duplicate syncs too (replay mirrors the sync_id dedup itself).
  virtual void on_sync(const std::string& topic, std::size_t queue_size,
                       std::uint64_t sync_id,
                       const std::vector<ReadRecord>& offline_reads,
                       SimTime at) {
    (void)topic;
    (void)queue_size;
    (void)sync_id;
    (void)offline_reads;
    (void)at;
  }

  /// An event was purged as expired. `timer_fired` distinguishes the
  /// expiration timer (which also disarms itself) from the delay stage
  /// releasing an already-expired event (the timer stays armed).
  virtual void on_expire(const std::string& topic, NotificationId id,
                         bool timer_fired, SimTime at) {
    (void)topic;
    (void)id;
    (void)timer_fired;
    (void)at;
  }

  /// The reliable channel abandoned a transfer; the event went back to
  /// holding (see TopicState::requeue_undelivered).
  virtual void on_requeue(const std::string& topic,
                          const pubsub::NotificationPtr& event, SimTime at) {
    (void)topic;
    (void)event;
    (void)at;
  }

  /// An event was shed by the overload budget (see core/overload.h). Fires
  /// while the victim is still in the queues — the erasure follows the
  /// journal write, so the WAL always orders the enqueue before its shed.
  virtual void on_shed(const std::string& topic,
                       const pubsub::NotificationPtr& event, SimTime at) {
    (void)topic;
    (void)event;
    (void)at;
  }
};

/// Recovery hooks for ReplicatedProxy: invoked when a replica needs to be
/// (re)filled with durable state instead of rejoining cold.
class ProxyRecovery {
 public:
  virtual ~ProxyRecovery() = default;

  /// `active` took the active role: a promoted standby, or a crashed active
  /// restarted in place. Called before it is told the network state.
  virtual void on_promoted(Proxy& active) { (void)active; }

  /// restart_replica built a fresh proxy; fill it from durable state.
  virtual void warm_restart(Proxy& fresh) { (void)fresh; }
};

}  // namespace waif::core
