// End-to-end tests of the unified chaos orchestrator: deterministic
// replays, the composed-fault mini-sweep, the intentionally-injected
// journal bug that the shrinker must minimize to a replayable repro, and
// the breaker x failover interaction the harness depends on.
#include "experiments/chaos_orchestrator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/time.h"
#include "core/proxy.h"
#include "core/reliable_channel.h"
#include "core/replication.h"
#include "device/device.h"
#include "experiments/chaos_schedule.h"
#include "net/fault.h"
#include "net/link.h"
#include "pubsub/broker.h"
#include "pubsub/publisher.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/persistence.h"

namespace waif::experiments {
namespace {

TEST(ChaosOrchestrator, SameScheduleReplaysByteIdentically) {
  const ChaosSchedule schedule = draw_chaos(ChaosDrawConfig{}, 2);
  const ChaosOutcome first = run_chaos(schedule);
  const ChaosOutcome second = run_chaos(schedule);
  EXPECT_EQ(first.digest(), second.digest());
  EXPECT_EQ(first.read_digest, second.read_digest);
  EXPECT_EQ(first.violations.size(), second.violations.size());
}

TEST(ChaosOrchestrator, ComposedSchedulesKeepAllInvariants) {
  std::uint64_t applied = 0;
  std::uint64_t crashes = 0;
  std::uint64_t image_checks = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ChaosSchedule schedule = draw_chaos(ChaosDrawConfig{}, seed);
    const ChaosOutcome outcome = run_chaos(schedule);
    EXPECT_TRUE(outcome.ok())
        << "seed " << seed << " violated: "
        << (outcome.violations.empty() ? ""
                                       : outcome.violations[0].invariant +
                                             " — " +
                                             outcome.violations[0].detail);
    applied += outcome.faults_applied;
    crashes += outcome.crashes;
    image_checks += outcome.image_checks;
    EXPECT_GT(outcome.arrivals, 0u) << "seed " << seed;
    EXPECT_GT(outcome.checks, 0u) << "seed " << seed;
  }
  // The sweep actually composed faults: things fired, crashed and were
  // compared against the durable image along the way.
  EXPECT_GT(applied, 50u);
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(image_checks, 100u);
}

TEST(ChaosOrchestrator, ShortCrashesRestartInPlaceLongOnesFailOver) {
  // A replica kill shorter than the detector's suspicion timeout brings
  // the active back in place, journal and all; a longer one fails over.
  ChaosSchedule schedule;
  schedule.horizon = kDay;
  ChaosFault crash;
  crash.kind = ChaosFaultKind::kCrashActive;
  crash.at = 10 * kHour;
  crash.duration = kMinute;
  schedule.faults.push_back(crash);

  const ChaosOutcome in_place = run_chaos(schedule);
  EXPECT_EQ(in_place.crashes, 1u);
  EXPECT_EQ(in_place.restarts, 1u);
  EXPECT_EQ(in_place.failovers, 0u);
  EXPECT_GT(in_place.image_checks, 0u);
  EXPECT_TRUE(in_place.ok());

  schedule.faults[0].duration = 20 * kMinute;
  const ChaosOutcome failed_over = run_chaos(schedule);
  EXPECT_EQ(failed_over.restarts, 1u);
  EXPECT_EQ(failed_over.failovers, 1u);
  EXPECT_TRUE(failed_over.ok());
}

TEST(ChaosOrchestrator, RejectsInvalidSchedules) {
  ChaosSchedule schedule = draw_chaos(ChaosDrawConfig{}, 1);
  schedule.faults[0].magnitude = 2.0;
  EXPECT_THROW(run_chaos(schedule), std::invalid_argument);
}

TEST(ChaosOrchestrator, ShrinkRequiresAViolation) {
  const ChaosSchedule clean = draw_chaos(ChaosDrawConfig{}, 3);
  ASSERT_TRUE(run_chaos(clean).ok());
  EXPECT_THROW(shrink_chaos(clean), std::invalid_argument);
}

// The acceptance path: a test-only journal bug (shed records swallowed
// before the WAL) must be caught by the live-vs-recovered image check,
// shrink to a strictly smaller schedule that still reproduces, and replay
// byte-identically from its serialized `.chaos` form.
TEST(ChaosOrchestrator, InjectedJournalBugShrinksToAReplayableRepro) {
  // Seed 1's draw sheds under its storm; with the bug armed the WAL misses
  // the shed records and the durable image diverges.
  ChaosSchedule schedule = draw_chaos(ChaosDrawConfig{}, 1);
  schedule.bug = ChaosBug::kSwallowShedJournal;

  const ChaosOutcome broken = run_chaos(schedule);
  ASSERT_FALSE(broken.ok());
  EXPECT_GT(broken.shed, 0u);
  const bool image_violation = std::any_of(
      broken.violations.begin(), broken.violations.end(),
      [](const ChaosViolation& v) { return v.invariant == "image-equality"; });
  EXPECT_TRUE(image_violation);

  // Control: the same schedule without the bug is clean — the violation is
  // the bug's, not the harness's.
  ChaosSchedule control = schedule;
  control.bug = ChaosBug::kNone;
  EXPECT_TRUE(run_chaos(control).ok());

  const ChaosShrinkResult shrunk = shrink_chaos(schedule);
  // (a) strictly smaller than the original.
  EXPECT_LT(shrunk.minimized.faults.size(), schedule.faults.size());
  EXPECT_GT(shrunk.replays, 0u);
  // (b) the minimized schedule still reproduces.
  EXPECT_FALSE(shrunk.outcome.ok());

  // (c) serialized, re-read, and replayed twice: byte-identical.
  std::ostringstream text;
  write_chaos(text, shrunk.minimized);
  std::istringstream in(text.str());
  const ChaosSchedule reread = read_chaos(in);
  EXPECT_EQ(digest_chaos(reread), digest_chaos(shrunk.minimized));
  const ChaosOutcome replay_one = run_chaos(reread);
  const ChaosOutcome replay_two = run_chaos(reread);
  EXPECT_FALSE(replay_one.ok());
  EXPECT_EQ(replay_one.digest(), replay_two.digest());
  EXPECT_EQ(replay_one.digest(), shrunk.outcome.digest());
}

// ------------------------------------------------- breaker x failover

using core::BreakerState;

/// Starves the channel of ACKs (the slow-device signature): downlink
/// deliveries still land, but nothing comes back.
void starve_acks(net::Link& link) {
  net::FaultConfig fault;
  fault.uplink_drop_probability = 1.0;
  link.set_fault_model(fault, 7);
}

class BreakerFailoverTest : public ::testing::Test {
 protected:
  BreakerFailoverTest()
      : reliable(sim, link, device, channel_config(), /*seed=*/11),
        replicated(sim, link, device, reliable, replication_config()),
        persistence(sim, backend, storage::PersistenceConfig{}),
        publisher(broker, "pub") {
    core::TopicConfig config;
    config.mode = core::DeliveryMode::kOnLine;
    config.policy = core::PolicyConfig::online();
    replicated.add_topic("t", config);

    persistence.set_channel(&reliable);
    persistence.attach(replicated.active_proxy());
    replicated.set_recovery(&persistence);

    // Same wiring as the chaos harness: the observer both watches the state
    // machine and wakes the held queues on reclose.
    reliable.set_breaker_observer([this](BreakerState state) {
      transitions.push_back(state);
      if (state != BreakerState::kOpen) {
        core::Proxy& active = replicated.active_proxy();
        for (const std::string& name : active.topic_names()) {
          active.topic(name)->try_forwarding();
        }
      }
    });
    reliable.set_failure_handler([this](const pubsub::NotificationPtr& event) {
      core::Proxy& active = replicated.active_proxy();
      if (core::TopicState* topic = active.topic(event->topic)) {
        topic->requeue_undelivered(event);
      }
    });

    broker.subscribe("t", replicated, config.options);
    publisher.advertise("t");
  }

  static core::ReliableChannelConfig channel_config() {
    core::ReliableChannelConfig config;
    config.jitter = 0.0;
    config.ack_timeout = 30 * kSecond;
    config.max_attempts = 2;
    config.breaker_failure_threshold = 1;
    config.breaker_cooldown = 5 * kMinute;
    return config;
  }

  static core::ReplicationConfig replication_config() {
    core::ReplicationConfig config;
    config.heartbeat_interval = 30 * kSecond;
    config.suspicion_timeout = 2 * kMinute;
    return config;
  }

  sim::Simulator sim;
  net::Link link{sim};
  device::Device device{sim, DeviceId{1}};
  pubsub::Broker broker{sim, 64};
  storage::MemBackend backend;
  core::ReliableDeviceChannel reliable;
  core::ReplicatedProxy replicated;
  storage::ProxyPersistence persistence;
  pubsub::Publisher publisher;
  std::vector<BreakerState> transitions;
};

TEST_F(BreakerFailoverTest, OpenBreakerHoldsThroughPromotionThenRecloses) {
  starve_acks(link);
  sim.schedule_at(kSecond, [this] { publisher.publish("t", 5.0, kNever); });

  // Two starved attempts (30 s + 60 s backoff) exhaust the transfer and
  // trip the breaker (threshold 1).
  sim.run_until(3 * kMinute);
  ASSERT_EQ(reliable.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(reliable.stats().breaker_trips, 1u);
  const std::uint64_t transmissions_while_open = reliable.stats().transmissions;

  // With the breaker open, a new event is queued but never transmitted:
  // the replica channel forwards the real channel's accepting(), so the
  // hold-only degraded mode survives the replication wrapper.
  sim.schedule_at(sim.now(), [this] { publisher.publish("t", 5.0, kNever); });
  sim.run_until(4 * kMinute);  // still inside the 5 min cooldown
  EXPECT_EQ(reliable.stats().transmissions, transmissions_while_open);
  EXPECT_GE(replicated.active_proxy().topic("t")->queued_total(), 1u);

  // The primary dies with the breaker open. The standby must promote (its
  // own channel wrapper never blocks on the shared breaker) and inherit a
  // consistent channel: the device is still starved, so the breaker is
  // still somewhere in its open/half-open probe cycle, never closed.
  replicated.crash_active();
  sim.run_until(8 * kMinute);
  EXPECT_FALSE(replicated.primary_is_active());
  EXPECT_EQ(replicated.stats().failovers, 1u);
  EXPECT_NE(reliable.breaker_state(), BreakerState::kClosed);

  sim.schedule_at(sim.now(), [this] { publisher.publish("t", 5.0, kNever); });

  // The device recovers: the next half-open probe gets its ACK, the breaker
  // recloses, and the held events drain — no stuck-open channel after the
  // failover. All three events reached the device at least once (probe
  // transmissions deliver too; only their ACKs were starved).
  sim.schedule_at(12 * kMinute, [this] { link.set_fault_model({}, 7); });
  sim.run_until(40 * kMinute);
  EXPECT_EQ(reliable.breaker_state(), BreakerState::kClosed);
  EXPECT_GE(reliable.stats().breaker_closes, 1u);
  EXPECT_GE(reliable.stats().delivered, 3u);

  // Every observed transition was legal for the breaker state machine.
  BreakerState previous = BreakerState::kClosed;
  for (BreakerState state : transitions) {
    const bool legal =
        (previous == BreakerState::kClosed && state == BreakerState::kOpen) ||
        (previous == BreakerState::kOpen &&
         (state == BreakerState::kHalfOpen ||
          state == BreakerState::kClosed)) ||
        (previous == BreakerState::kHalfOpen &&
         (state == BreakerState::kOpen || state == BreakerState::kClosed));
    EXPECT_TRUE(legal) << "illegal transition into state "
                       << static_cast<int>(state);
    previous = state;
  }
}

TEST_F(BreakerFailoverTest, WarmStartFromDurableImageResetsTheBreaker) {
  starve_acks(link);
  sim.schedule_at(kSecond, [this] { publisher.publish("t", 5.0, kNever); });
  sim.run_until(3 * kMinute);
  ASSERT_EQ(reliable.breaker_state(), BreakerState::kOpen);

  // The machine dies and warm-starts from the durable image: the breaker's
  // transient state belongs to the dead process, so the restored channel
  // comes back closed — but the sequence counter survives (the device's
  // dedup window must stay coherent).
  const core::ChannelSnapshot durable = reliable.snapshot();
  reliable.crash_proxy_side();
  EXPECT_EQ(reliable.breaker_state(), BreakerState::kClosed);
  reliable.restore(durable);
  EXPECT_EQ(reliable.snapshot().next_seq, durable.next_seq);
  EXPECT_TRUE(reliable.accepting());

  // And the revived channel actually works once the device is healthy.
  link.set_fault_model({}, 7);
  const std::uint64_t delivered_before = reliable.stats().delivered;
  sim.schedule_at(sim.now(), [this] { publisher.publish("t", 5.0, kNever); });
  sim.run_until(sim.now() + 10 * kMinute);
  EXPECT_EQ(reliable.breaker_state(), BreakerState::kClosed);
  EXPECT_GT(reliable.stats().delivered, delivered_before);
}

}  // namespace
}  // namespace waif::experiments
