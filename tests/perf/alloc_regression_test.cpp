// Allocation-regression gate for the engine and journal hot paths.
//
// Links waif::alloc_hooks (the counting operator new/delete) and asserts the
// slab arenas actually deliver their contract: after warm-up, a steady-state
// or drain-and-refill schedule/pop cycle on the event queue and an
// insert/erase cycle on the ranked queues touch the global heap ZERO times
// per event, and so do the journal hooks per WAL record (bar the blob's own
// growth); a warm checkpoint allocates as often for a large image as for a
// small one. A future change that quietly reintroduces per-event allocations
// (a fatter callback that spills out of std::function's inline buffer, a
// container swap that drops the pool allocator) fails here, not in a
// profiler six months later.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_stats.h"
#include "common/rng.h"
#include "core/channel.h"
#include "core/forwarding_policy.h"
#include "core/journal.h"
#include "core/proxy.h"
#include "pubsub/notification.h"
#include "pubsub/ranked_queue.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/persistence.h"

namespace waif {
namespace {

TEST(AllocRegressionTest, CountingHooksAreLinked) {
  ASSERT_TRUE(alloc_stats::hooks_installed())
      << "test_alloc_regression must link waif::alloc_hooks";
  alloc_stats::AllocProbe probe;
  auto* p = new int(7);
  EXPECT_GE(probe.allocations(), 1u);
  delete p;
}

// A timer-wheel-like steady state: a fixed population of pending events, each
// pop rescheduling one event further in the future. This is exactly the shape
// of the proxy's delay/expiration/retry timers.
TEST(AllocRegressionTest, EventQueueSteadyStateAllocatesNothing) {
  sim::EventQueue queue;
  Rng rng(2024);
  std::uint64_t fired = 0;
  SimTime clock = 0;

  const auto cycle = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      clock = queue.next_time();
      auto event = queue.pop();
      event.fn();
      queue.schedule(clock + 1 + static_cast<SimTime>(rng.next_below(5000)),
                     [&fired] { ++fired; });
    }
  };

  for (int i = 0; i < 16; ++i) {
    queue.schedule(static_cast<SimTime>(rng.next_below(5000)),
                   [&fired] { ++fired; });
  }
  // Warm-up lets the heap vector and the handle-state arena reach their
  // standing capacity before the measured window opens — first-touch growth
  // is real allocation.
  cycle(150000);

  alloc_stats::AllocProbe probe;
  cycle(30000);
  EXPECT_EQ(probe.allocations(), 0u)
      << "schedule/pop steady state hit the heap " << probe.allocations()
      << " times in 30000 cycles";
  EXPECT_EQ(fired, 180000u);  // every pop fired exactly once
}

// Cancellation is the other half of the timer workload: handles flip a flag
// and the queue skims lazily — none of which may allocate.
TEST(AllocRegressionTest, EventQueueCancelPathAllocatesNothing) {
  sim::EventQueue queue;
  Rng rng(7);
  SimTime clock = 0;
  std::vector<sim::EventHandle> handles;
  handles.reserve(64);

  const auto cycle = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      handles.clear();
      for (int j = 0; j < 8; ++j) {
        handles.push_back(queue.schedule(
            clock + 1 + static_cast<SimTime>(rng.next_below(100)), [] {}));
      }
      handles[rng.next_below(4)].cancel();  // sometimes the pending top
      while (!queue.empty()) {
        clock = queue.next_time();
        queue.pop();
      }
    }
  };

  cycle(4000);
  alloc_stats::AllocProbe probe;
  cycle(2000);
  EXPECT_EQ(probe.allocations(), 0u);
}

// Drain and refill: a replayed trace schedules its whole population up front
// and then runs the queue dry, over and over. Once the first cycles have
// grown the heap vector and the handle-state arena to the population, a
// drained queue keeps both, so refilling it must not allocate.
TEST(AllocRegressionTest, EventQueueDrainAndRefillAllocatesNothing) {
  constexpr int kPopulation = 4096;
  sim::EventQueue queue;
  Rng rng(11);
  SimTime clock = 0;
  std::uint64_t fired = 0;

  const auto cycle = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      for (int j = 0; j < kPopulation; ++j) {
        queue.schedule(
            clock + 1 + static_cast<SimTime>(rng.next_below(1'000'000)),
            [&fired] { ++fired; });
      }
      while (!queue.empty()) {
        clock = queue.next_time();
        queue.pop().fn();
      }
    }
  };

  cycle(4);
  alloc_stats::AllocProbe probe;
  cycle(4);
  EXPECT_EQ(probe.allocations(), 0u)
      << "drain-and-refill hit the heap " << probe.allocations()
      << " times in 4 cycles of " << kPopulation << " events";
  EXPECT_EQ(fired, 8u * kPopulation);
}

// Self-rescheduling timers — the standing workload every proxy sustains. The
// rescheduling lambda captures only `this` so it stays inside std::function's
// inline buffer; a fatter capture that spilled to the heap is precisely the
// regression this test exists to catch.
struct Ticker {
  sim::Simulator& sim;
  Rng& rng;
  std::uint64_t fired = 0;

  void tick() {
    ++fired;
    sim.schedule_after(1 + static_cast<SimDuration>(rng.next_below(1000)),
                       [this] { tick(); });
  }
};

TEST(AllocRegressionTest, SimulatorTimerChurnAllocatesNothing) {
  sim::Simulator sim;
  Rng rng(99);
  Ticker ticker{sim, rng};
  for (int i = 0; i < 8; ++i) {
    sim.schedule_after(static_cast<SimDuration>(rng.next_below(1000)),
                       [&ticker] { ticker.tick(); });
  }
  // Warm-up: the heap vector and the handle-state arena reach their standing
  // capacity before the measured window opens.
  sim.run_until(20'000'000);

  alloc_stats::AllocProbe probe;
  sim.run_until(24'000'000);
  EXPECT_EQ(probe.allocations(), 0u)
      << probe.allocations() << " heap allocations in the measured window";
  EXPECT_GT(ticker.fired, 2000u);
  sim.clear();
}

// Ranked-queue steady state: a bounded queue under arrival/departure churn —
// the outgoing/prefetch/holding queues between volume-limit forwarding
// decisions. Notifications themselves are recycled; the queue's set and
// index nodes must come from the arenas.
TEST(AllocRegressionTest, RankedQueueSteadyStateAllocatesNothing) {
  pubsub::RankedQueue queue;
  Rng rng(4242);

  // A recycled pool of notifications (the proxy holds events by shared_ptr;
  // creating them is the workload generator's business, not the queue's).
  std::vector<pubsub::NotificationPtr> pool;
  for (std::uint64_t i = 0; i < 64; ++i) {
    pubsub::Notification n;
    n.id = NotificationId{i + 1};
    n.rank = rng.next_double();
    pool.push_back(std::make_shared<const pubsub::Notification>(n));
  }

  const auto cycle = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const auto& event = pool[rng.next_below(pool.size())];
      if (queue.contains(event->id)) {
        queue.erase(event->id);
      } else {
        queue.insert(event);
      }
      if (queue.size() > 32) queue.pop_bottom();
      if (i % 7 == 0) queue.top();
    }
  };

  cycle(20000);
  alloc_stats::AllocProbe probe;
  cycle(10000);
  EXPECT_EQ(probe.allocations(), 0u)
      << "ranked-queue insert/erase steady state hit the heap "
      << probe.allocations() << " times in 10000 cycles";
}

// The arenas themselves must be the reason the above holds: this pins that
// the pool actually serves the nodes (pooled counters move) rather than the
// test accidentally measuring an idle path.
TEST(AllocRegressionTest, PoolArenaServesFixedSizeNodes) {
  auto arena = std::make_shared<PoolArena>(4);
  PoolAllocator<std::uint64_t> alloc(arena);
  std::uint64_t* a = alloc.allocate(1);
  std::uint64_t* b = alloc.allocate(1);
  EXPECT_EQ(arena->pooled_allocs(), 2u);
  alloc.deallocate(a, 1);
  // Freed node is recycled, not returned to the heap.
  std::uint64_t* c = alloc.allocate(1);
  EXPECT_EQ(c, a);
  EXPECT_EQ(arena->pooled_allocs(), 3u);
  alloc.deallocate(b, 1);
  alloc.deallocate(c, 1);

  // A different size class falls through to the heap and is counted foreign.
  alloc_stats::AllocProbe probe;
  void* big = arena->allocate(1024);
  EXPECT_EQ(arena->foreign_allocs(), 1u);
  EXPECT_GE(probe.allocations(), 1u);
  arena->deallocate(big, 1024);
}

// The journal: every proxy mutation passes through ProxyPersistence's hooks
// on its way to the WAL, and a forward syncs before delivery, so a hook that
// allocates taxes every notification several times over. Once the reused
// record, the frame scratch and the backend map have warmed up, the only
// allocations left are the WAL blob's geometric growth.
TEST(AllocRegressionTest, JournalHooksAllocateNothing) {
  sim::Simulator sim;
  storage::MemBackend backend;
  storage::PersistenceConfig config;
  config.snapshot_interval = 0;
  storage::ProxyPersistence persistence(sim, backend, config);

  // Past libstdc++'s 15-byte small-string buffer, so any copy of the topic
  // or the notification would allocate.
  const std::string topic = "experiment/topic";
  auto event = std::make_shared<pubsub::Notification>();
  event->topic = topic;
  event->publisher = PublisherId{1};
  event->rank = 3.5;
  event->expires_at = kDay;
  event->payload = "a payload past the small-string buffer";
  const pubsub::NotificationPtr live = event;

  std::uint64_t next_id = 1;
  const auto cycle = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      const auto at = static_cast<SimTime>(next_id);
      event->id = NotificationId{next_id++};
      persistence.on_enqueue(topic, core::EnqueueRecord{
                                        .event = *live,
                                        .stage = core::JournalStage::kPrefetch,
                                        .at = at,
                                        .fresh = true,
                                        .exp_tracked = true,
                                        .rate_credit = 0.5});
      persistence.on_forward(topic, live, at, 0.5, /*replicated=*/false);
      persistence.on_read(topic, /*request_id=*/next_id, /*n=*/8,
                          /*queue_size=*/3, at);
      persistence.on_expire(topic, live->id, /*timer_fired=*/true, at);
    }
  };

  cycle(1000);
  alloc_stats::AllocProbe probe;
  cycle(2500);  // 10k records
  EXPECT_EQ(persistence.record_count(), 14000u);
  EXPECT_LE(probe.allocations(), 100u)
      << "journal hooks hit the heap " << probe.allocations()
      << " times in 10000 records";
}

// A link that is always up and a device that takes every transfer.
class AcceptingChannel final : public core::DeviceChannel {
 public:
  bool link_up() const override { return true; }
  bool deliver(const pubsub::NotificationPtr&) override { return true; }
};

/// Heap allocations of one checkpoint, after a warm-up checkpoint, of a
/// proxy with `topics` on-line topics that have each forwarded `per_topic`
/// expiring notifications (so history, the forwarded set and the armed
/// timers all hold `per_topic` entries).
std::uint64_t checkpoint_allocations(int topics, int per_topic) {
  sim::Simulator sim;
  AcceptingChannel channel;
  core::Proxy proxy(sim, channel, "alloc");
  storage::MemBackend backend;
  storage::PersistenceConfig config;
  config.snapshot_interval = 0;
  storage::ProxyPersistence persistence(sim, backend, config);

  core::TopicConfig online;
  online.mode = core::DeliveryMode::kOnLine;
  online.policy = core::PolicyConfig::online();
  std::vector<std::string> names;
  for (int t = 0; t < topics; ++t) {
    // Past libstdc++'s 15-byte small-string buffer, like the payloads.
    names.push_back("experiment/topic-" + std::to_string(t));
    proxy.add_topic(names.back(), online);
  }
  persistence.attach(proxy);

  std::uint64_t next_id = 1;
  for (const std::string& name : names) {
    for (int i = 0; i < per_topic; ++i) {
      auto event = std::make_shared<pubsub::Notification>();
      event->id = NotificationId{next_id++};
      event->topic = name;
      event->publisher = PublisherId{1};
      event->rank = static_cast<double>(i % 5);
      event->expires_at = 365 * kDay;
      event->payload = "a payload past the small-string buffer";
      proxy.on_notification(event);
    }
  }

  EXPECT_TRUE(persistence.snapshot_now());  // warm-up
  alloc_stats::AllocProbe probe;
  EXPECT_TRUE(persistence.snapshot_now());
  return probe.allocations();
}

// A checkpoint encodes each topic's image straight from live state into a
// buffer the persistence keeps, so once warm its allocation count is a
// constant of the topic count (names, the blob the backend stores, the
// prune listing), never of the image size.
TEST(AllocRegressionTest, CheckpointAllocationsDoNotGrowWithTheImage) {
  const std::uint64_t one_small = checkpoint_allocations(1, 512);
  const std::uint64_t one_large = checkpoint_allocations(1, 4096);
  EXPECT_EQ(one_small, one_large);

  const std::uint64_t eight_small = checkpoint_allocations(8, 512);
  const std::uint64_t eight_large = checkpoint_allocations(8, 4096);
  EXPECT_EQ(eight_small, eight_large);
  EXPECT_LE(eight_large, 32u);
}

}  // namespace
}  // namespace waif
