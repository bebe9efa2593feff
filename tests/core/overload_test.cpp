// Overload protection (core/overload.h): the canonical rank-then-expiration
// shed order, the per-topic and proxy-wide queue budgets, admission
// hysteresis at the proxy, and the enqueue-before-shed journal ordering WAL
// replay depends on.
#include "core/overload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "core/channel.h"
#include "core/journal.h"
#include "core/proxy.h"
#include "core/topic_state.h"
#include "device/device.h"
#include "net/link.h"
#include "sim/simulator.h"

namespace waif::core {
namespace {

using pubsub::Notification;
using pubsub::NotificationPtr;

Notification event_with(double rank, SimTime expires_at = kNever,
                        std::uint64_t id = 1) {
  Notification n;
  n.id = NotificationId{id};
  n.rank = rank;
  n.expires_at = expires_at;
  return n;
}

// ------------------------------------------------------------- shed_before

TEST(ShedOrder, LowerRankShedsFirst) {
  EXPECT_TRUE(shed_before(event_with(1.0), event_with(2.0)));
  EXPECT_FALSE(shed_before(event_with(2.0), event_with(1.0)));
}

TEST(ShedOrder, SoonerExpiryBreaksRankTies) {
  EXPECT_TRUE(shed_before(event_with(2.0, kHour), event_with(2.0, kDay)));
  EXPECT_FALSE(shed_before(event_with(2.0, kDay), event_with(2.0, kHour)));
}

TEST(ShedOrder, NeverExpiringShedsLast) {
  // kNever sorts after any finite instant: a never-expiring event of equal
  // rank outlives every expiring one.
  EXPECT_TRUE(shed_before(event_with(2.0, kDay), event_with(2.0, kNever)));
  EXPECT_FALSE(shed_before(event_with(2.0, kNever), event_with(2.0, kDay)));
}

TEST(ShedOrder, IdBreaksRemainingTies) {
  EXPECT_TRUE(shed_before(event_with(2.0, kNever, 1),
                          event_with(2.0, kNever, 2)));
  EXPECT_FALSE(shed_before(event_with(2.0, kNever, 2),
                           event_with(2.0, kNever, 1)));
}

TEST(ShedOrder, IsAStrictWeakOrder) {
  const Notification a = event_with(2.0, kHour, 3);
  EXPECT_FALSE(shed_before(a, a));
}

// -------------------------------------------------------- per-topic budget

/// Journal that records hook firings in order, and checks that every shed
/// victim is still queued (and canonically worst) at journal time.
class RecordingJournal final : public ProxyJournal {
 public:
  void watch(TopicState* state) { state_ = state; }

  void on_enqueue(const std::string& topic,
                  const EnqueueRecord& record) override {
    (void)topic;
    log_.emplace_back("enqueue", record.event.id.value);
  }

  void on_shed(const std::string& topic, const NotificationPtr& event,
               SimTime at) override {
    (void)topic;
    (void)at;
    log_.emplace_back("shed", event->id.value);
    if (state_ == nullptr) return;
    bool queued = false;
    bool worst = true;
    for (const NotificationPtr& candidate : state_->queued_events()) {
      if (candidate->id.value == event->id.value) queued = true;
      else if (shed_before(*candidate, *event)) worst = false;
    }
    victim_was_queued_ &= queued;
    victim_was_worst_ &= worst;
  }

  const std::vector<std::pair<std::string, std::uint64_t>>& log() const {
    return log_;
  }
  bool victim_was_queued() const { return victim_was_queued_; }
  bool victim_was_worst() const { return victim_was_worst_; }

 private:
  TopicState* state_ = nullptr;
  std::vector<std::pair<std::string, std::uint64_t>> log_;
  bool victim_was_queued_ = true;
  bool victim_was_worst_ = true;
};

class OverloadTopicTest : public ::testing::Test {
 protected:
  NotificationPtr make(std::uint64_t id, double rank,
                       SimDuration lifetime = kNever) {
    auto n = std::make_shared<Notification>();
    n->id = NotificationId{id};
    n->topic = "t";
    n->rank = rank;
    n->published_at = sim.now();
    n->expires_at = lifetime == kNever ? kNever : sim.now() + lifetime;
    return n;
  }

  std::unique_ptr<TopicState> make_state(PolicyConfig policy) {
    TopicConfig config;
    config.mode = DeliveryMode::kOnDemand;
    config.options.max = 8;
    config.options.threshold = 0.0;
    config.policy = policy;
    return std::make_unique<TopicState>(sim, channel, "t", config);
  }

  std::vector<std::uint64_t> queued_ids(const TopicState& state) {
    std::vector<std::uint64_t> ids;
    for (const NotificationPtr& event : state.queued_events()) {
      ids.push_back(event->id.value);
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  sim::Simulator sim;
  net::Link link{sim};
  device::Device device{sim, DeviceId{1}};
  SimDeviceChannel channel{link, device};
};

TEST_F(OverloadTopicTest, TopicBudgetShedsWorstRanksFirst) {
  auto state = make_state(PolicyConfig::on_demand());
  state->set_queue_budget(3);
  state->handle_notification(make(1, 5.0));
  state->handle_notification(make(2, 1.0));
  state->handle_notification(make(3, 4.0));
  state->handle_notification(make(4, 2.0));  // sheds rank 1.0 (id 2)
  state->handle_notification(make(5, 3.0));  // sheds rank 2.0 (id 4)

  EXPECT_EQ(state->stats().shed, 2u);
  EXPECT_EQ(state->queued_total(), 3u);
  EXPECT_EQ(queued_ids(*state), (std::vector<std::uint64_t>{1, 3, 5}));
}

TEST_F(OverloadTopicTest, ExpirationThenIdBreakEqualRankTies) {
  auto state = make_state(PolicyConfig::on_demand());
  state->set_queue_budget(1);
  state->handle_notification(make(1, 2.0));         // never expires
  state->handle_notification(make(2, 2.0, kHour));  // sooner expiry: sheds
  EXPECT_EQ(queued_ids(*state), (std::vector<std::uint64_t>{1}));

  state->handle_notification(make(3, 2.0));  // id tiebreak: 1 sheds before 3
  EXPECT_EQ(queued_ids(*state), (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(state->stats().shed, 2u);
}

TEST_F(OverloadTopicTest, ZeroBudgetIsUnbounded) {
  auto state = make_state(PolicyConfig::on_demand());
  for (std::uint64_t id = 1; id <= 64; ++id) {
    state->handle_notification(make(id, 1.0));
  }
  EXPECT_EQ(state->stats().shed, 0u);
  EXPECT_EQ(state->queued_total(), 64u);
}

TEST_F(OverloadTopicTest, ShedJournalsVictimBeforeErasure) {
  RecordingJournal journal;
  auto state = make_state(PolicyConfig::on_demand());
  journal.watch(state.get());
  state->set_journal(&journal);
  state->set_queue_budget(2);
  state->handle_notification(make(1, 3.0));
  state->handle_notification(make(2, 1.0));
  state->handle_notification(make(3, 2.0));  // sheds id 2

  // The WAL orders the victim's enqueue before its shed, and the on_shed
  // hook fires while the victim is still queued (write-ahead erasure).
  ASSERT_EQ(journal.log().size(), 4u);
  EXPECT_EQ(journal.log()[2],
            (std::pair<std::string, std::uint64_t>{"enqueue", 3}));
  EXPECT_EQ(journal.log()[3],
            (std::pair<std::string, std::uint64_t>{"shed", 2}));
  EXPECT_TRUE(journal.victim_was_queued());
  EXPECT_TRUE(journal.victim_was_worst());
}

TEST_F(OverloadTopicTest, ShedPurgesDelayCopyAndExpirationTimer) {
  // An interrupt promotes a delayed event to outgoing but leaves the delay
  // copy behind; shedding the event must purge both and disarm its
  // expiration timer, or the event would re-enter through the delay release
  // (and the dead timer would count a phantom expiration).
  PolicyConfig policy = PolicyConfig::on_demand();
  policy.delay = kHour;
  TopicConfig config;
  config.mode = DeliveryMode::kOnDemand;
  config.options.max = 8;
  config.options.threshold = 0.0;
  config.policy = policy;
  config.refinements.interrupt_threshold = 5.0;
  TopicState state(sim, channel, "t", config);
  link.set_state(net::LinkState::kDown);  // keep outgoing queued

  state.handle_notification(make(1, 1.0, 2 * kHour));  // delay stage
  ASSERT_EQ(state.delay_stage_size(), 1u);
  state.handle_notification(make(1, 6.0, 2 * kHour));  // interrupt
  ASSERT_EQ(state.outgoing_size(), 1u);
  ASSERT_EQ(state.delay_stage_size(), 1u);  // the stale copy stays behind

  EXPECT_TRUE(state.shed_one());
  EXPECT_EQ(state.queued_total(), 0u);
  EXPECT_EQ(state.delay_stage_size(), 0u);
  EXPECT_EQ(state.stats().shed, 1u);

  // The expiration timer was cancelled with the event: running past its
  // lifetime counts no phantom purge.
  sim.run_until(3 * kHour);
  EXPECT_EQ(state.stats().expired_at_proxy, 0u);
  EXPECT_FALSE(state.shed_one());  // nothing left
}

// ------------------------------------------------------- proxy-wide budget

class OverloadProxyTest : public ::testing::Test {
 protected:
  NotificationPtr make(const std::string& topic, std::uint64_t id,
                       double rank) {
    auto n = std::make_shared<Notification>();
    n->id = NotificationId{id};
    n->topic = topic;
    n->rank = rank;
    n->published_at = sim.now();
    n->expires_at = kNever;
    return n;
  }

  TopicConfig on_demand_config() {
    TopicConfig config;
    config.mode = DeliveryMode::kOnDemand;
    config.options.max = 8;
    config.options.threshold = 0.0;
    config.policy = PolicyConfig::on_demand();
    return config;
  }

  sim::Simulator sim;
  net::Link link{sim};
  device::Device device{sim, DeviceId{1}};
  SimDeviceChannel channel{link, device};
  Proxy proxy{sim, channel, "overload-proxy"};
};

TEST_F(OverloadProxyTest, ProxyBudgetShedsGloballyWorstAcrossTopics) {
  proxy.add_topic("a", on_demand_config());
  proxy.add_topic("b", on_demand_config());
  OverloadConfig overload;
  overload.proxy_queue_budget = 4;
  proxy.set_overload(overload);

  for (std::uint64_t id = 1; id <= 3; ++id) {
    proxy.on_notification(make("a", id, 10.0 + static_cast<double>(id)));
  }
  for (std::uint64_t id = 11; id <= 13; ++id) {
    proxy.on_notification(make("b", id, static_cast<double>(id - 10)));
  }

  // The two cheapest events both live on topic b: the global budget reached
  // through a's overflow hook must still shed them, not a's.
  EXPECT_EQ(proxy.total_queued(), 4u);
  EXPECT_EQ(proxy.topic("a")->stats().shed, 0u);
  EXPECT_EQ(proxy.topic("b")->stats().shed, 2u);
  EXPECT_EQ(proxy.topic("b")->queued_total(), 1u);
}

TEST_F(OverloadProxyTest, OverloadConfigAppliesToTopicsAddedLater) {
  OverloadConfig overload;
  overload.topic_queue_budget = 2;
  proxy.set_overload(overload);
  proxy.add_topic("late", on_demand_config());
  for (std::uint64_t id = 1; id <= 5; ++id) {
    proxy.on_notification(make("late", id, static_cast<double>(id)));
  }
  EXPECT_EQ(proxy.topic("late")->queued_total(), 2u);
  EXPECT_EQ(proxy.topic("late")->stats().shed, 3u);
}

TEST_F(OverloadProxyTest, AdmissionGateClosesHighReopensLow) {
  proxy.add_topic("t", on_demand_config());
  OverloadConfig overload;
  overload.admission_high = 4;
  overload.admission_low = 2;
  proxy.set_overload(overload);

  for (std::uint64_t id = 1; id <= 4; ++id) {
    proxy.on_notification(make("t", id, static_cast<double>(id)));
  }
  ASSERT_EQ(proxy.total_queued(), 4u);

  // At the high-watermark the gate closes: arrivals are turned away before
  // any queue or journal sees them.
  proxy.on_notification(make("t", 5, 5.0));
  proxy.on_notification(make("t", 6, 6.0));
  EXPECT_EQ(proxy.stats().admission_rejects, 2u);
  EXPECT_EQ(proxy.total_queued(), 4u);

  // Draining to 3 is not enough — hysteresis holds the gate shut above the
  // low-watermark.
  ReadRequest request;
  request.n = 1;
  ASSERT_EQ(proxy.try_read("t", request), ReadStatus::kOk);
  ASSERT_EQ(proxy.total_queued(), 3u);
  proxy.on_notification(make("t", 7, 7.0));
  EXPECT_EQ(proxy.stats().admission_rejects, 3u);

  // One more read reaches the low-watermark: the gate reopens.
  request.n = 2;
  request.queue_size = device.queue_size("t");
  request.client_events = device.top_ids("t", 2, 0.0);
  ASSERT_EQ(proxy.try_read("t", request), ReadStatus::kOk);
  ASSERT_EQ(proxy.total_queued(), 2u);
  proxy.on_notification(make("t", 8, 8.0));
  EXPECT_EQ(proxy.stats().admission_rejects, 3u);
  EXPECT_EQ(proxy.total_queued(), 3u);
}

TEST_F(OverloadProxyTest, AllZeroConfigIsByteForByteNoop) {
  proxy.add_topic("t", on_demand_config());
  proxy.set_overload(OverloadConfig{});
  for (std::uint64_t id = 1; id <= 100; ++id) {
    proxy.on_notification(make("t", id, 1.0));
  }
  EXPECT_TRUE(proxy.accepting());
  EXPECT_EQ(proxy.stats().admission_rejects, 0u);
  EXPECT_EQ(proxy.topic("t")->stats().shed, 0u);
  EXPECT_EQ(proxy.total_queued(), 100u);
}

}  // namespace
}  // namespace waif::core
