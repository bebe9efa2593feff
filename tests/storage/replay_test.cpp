// Recovery after every record: a scripted proxy drives two topics through
// every journaled transition, and after each simulator event a copy of its
// backend is recovered and every topic's rebuilt image is byte-compared with
// the live topic's image. The WAL is scanned first to show which
// record kinds the comparisons covered: all nine JournalStages, plain and
// replicated forwards (an on-line topic across a day boundary), fresh and
// duplicate READ and sync ids, both kinds of expiry, a requeue of a live and
// of an expired event, and a shed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "core/channel.h"
#include "core/forwarding_policy.h"
#include "core/journal.h"
#include "core/proxy.h"
#include "core/read_protocol.h"
#include "core/topic_state.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/codec.h"
#include "storage/persistence.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace waif::storage {
namespace {

using core::JournalStage;

/// A last hop whose link the script flips; every transfer is accepted.
class ToggledChannel final : public core::DeviceChannel {
 public:
  bool link_up() const override { return up; }
  bool deliver(const pubsub::NotificationPtr&) override { return true; }

  bool up = true;
};

/// Two topics on one journaled proxy, checkpointing every 16 records so
/// later recoveries start from a snapshot and replay only its tail.
struct EveryRecordProxy {
  static constexpr const char* kOnline = "replay/online";
  static constexpr const char* kOnDemand = "replay/on-demand";

  static core::TopicConfig online() {
    core::TopicConfig config;
    config.mode = core::DeliveryMode::kOnLine;
    config.policy = core::PolicyConfig::online();
    config.options.threshold = 1.0;
    return config;
  }

  static core::TopicConfig on_demand() {
    core::TopicConfig config;
    config.options.threshold = 1.0;
    config.options.max = 4;
    config.policy = core::PolicyConfig::adaptive();
    config.policy.expiration_threshold = kHour;
    config.policy.delay = 20 * kMinute;
    config.refinements.interrupt_threshold = 4.0;
    return config;
  }

  static PersistenceConfig every_16_records() {
    PersistenceConfig config;
    config.snapshot_interval = 16;
    return config;
  }

  EveryRecordProxy() {
    configs.emplace(kOnline, online());
    configs.emplace(kOnDemand, on_demand());
    for (const auto& [name, config] : configs) proxy.add_topic(name, config);
    persistence.attach(proxy);
    sim.add_post_event_hook([this] { check(); });
  }

  static pubsub::NotificationPtr event(const std::string& topic,
                                       std::uint64_t id, double rank,
                                       SimTime published_at,
                                       SimTime expires_at) {
    auto event = std::make_shared<pubsub::Notification>();
    event->id = NotificationId{id};
    event->topic = topic;
    event->publisher = PublisherId{5};
    event->rank = rank;
    event->published_at = published_at;
    event->expires_at = expires_at;
    return event;
  }

  void at(SimTime when, std::function<void()> action) {
    sim.schedule_at(when, std::move(action));
  }

  void publish(SimTime when, const std::string& topic, std::uint64_t id,
               double rank, SimTime expires_at = kNever) {
    at(when, [this, topic, id, rank, when, expires_at] {
      proxy.on_notification(event(topic, id, rank, when, expires_at));
    });
  }

  void set_link(SimTime when, bool up) {
    at(when, [this, up] {
      channel.up = up;
      proxy.handle_network(up ? net::LinkState::kUp : net::LinkState::kDown);
    });
  }

  core::TopicState& topic(const char* name) { return *proxy.topic(name); }

  void run_script() {
    // The on-line topic: forwards at once while the link is up.
    publish(0, kOnline, 1, 2.0);                 // kOutgoing, forwarded
    publish(10 * kSecond, kOnline, 2, 0.5);      // new, sub-threshold: kDropped
    publish(20 * kSecond, kOnline, 1, 0.5);      // rank drop: kWithdrawn
    publish(30 * kSecond, kOnline, 3, 2.0, kHour);
    at(40 * kSecond, [this] {
      topic(kOnline).apply_replicated_forward(
          event(kOnline, 4, 2.0, 40 * kSecond, kNever));
    });
    at(2 * kHour, [this] {  // the transfer of #3 failed after it expired
      topic(kOnline).requeue_undelivered(
          event(kOnline, 3, 2.0, 30 * kSecond, kHour));
    });
    publish(2 * kHour + 10 * kSecond, kOnline, 5, 2.0, 5 * kHour);
    at(2 * kHour + 20 * kSecond, [this] {  // ... and of #5 while it lives
      topic(kOnline).requeue_undelivered(
          event(kOnline, 5, 2.0, 2 * kHour + 10 * kSecond, 5 * kHour));
    });
    // #5's re-armed timer fires in holding at 5 h.
    publish(kDay - kMinute, kOnline, 6, 2.0);    // last forward of day 0
    publish(kDay + kMinute, kOnline, 7, 2.0);    // day 1: the budget rolls
    publish(kDay + 2 * kMinute, kOnline, 8, 3.0);

    // The on-demand topic: expiration check, delay stage, prefetch.
    publish(0, kOnDemand, 101, 2.0);                    // kDelay
    publish(0, kOnDemand, 102, 3.0);                    // kDelay
    publish(0, kOnDemand, 103, 2.0, 30 * kMinute);      // kHolding
    publish(0, kOnDemand, 104, 0.5);                    // kDropped
    publish(5 * kMinute, kOnDemand, 105, 2.2);          // kDelay
    // A rank refresh in the delay stage that expires before its release:
    // the release finds it expired (an expiry without a timer).
    publish(6 * kMinute, kOnDemand, 105, 2.4, 15 * kMinute);
    // Interrupts out of the delay stage, whose copy stays behind.
    publish(10 * kMinute, kOnDemand, 102, 4.5);         // kInterrupt
    // 20 min: 101 and 102 leave the delay stage (kDelayRelease).
    publish(21 * kMinute, kOnDemand, 101, 2.6);         // refresh: kPrefetch
    publish(22 * kMinute, kOnDemand, 106, 1.5);         // kDelay
    publish(23 * kMinute, kOnDemand, 106, 0.8);         // known, dropped
    // 25 min: 105 released expired; 30 min: 103's timer fires in holding.
    publish(35 * kMinute, kOnDemand, 107, 2.0, 50 * kMinute);  // kHolding
    at(40 * kMinute, [this] { read(900, 2, 0); });      // kReadDifference
    at(41 * kMinute, [this] { read(900, 2, 1); });      // duplicate READ
    at(45 * kMinute, [this] { sync(950); });
    at(46 * kMinute, [this] { sync(950); });            // duplicate sync
    // 50 min: 107's timer fires in holding.
    set_link(kHour, false);
    publish(kHour, kOnDemand, 108, 2.0);
    publish(kHour, kOnDemand, 109, 1.5);
    // 1 h 20 min: both released into prefetch, stuck behind the outage.
    at(kHour + 30 * kMinute, [this] { topic(kOnDemand).shed_one(); });
    set_link(kHour + 40 * kMinute, true);
    sim.run();
  }

  void read(std::uint64_t request_id, int n, std::size_t queue_size) {
    core::ReadRequest request;
    request.request_id = request_id;
    request.n = n;
    request.queue_size = queue_size;
    proxy.handle_read(kOnDemand, request);
  }

  void sync(std::uint64_t sync_id) {
    proxy.handle_sync(kOnDemand, 1, {{42 * kMinute, 1}}, sync_id);
  }

  /// Recovers a copy of the backend and byte-compares every topic.
  void check() {
    MemBackend copy = backend;
    const RecoveryResult recovery = ProxyPersistence::recover(copy, configs);
    ++checks;
    if (recovery.from_snapshot && recovery.replayed > 0) ++tail_checks;
    checked_records = recovery.wal_records;
    std::set<std::string> seen;
    for (const TopicImageRange& image : recovery.state.topics) {
      const std::string& name = image.name;
      seen.insert(name);
      if (!std::ranges::equal(recovery.state.image(image),
                              topic_image(topic(name.c_str())))) {
        mismatches.push_back(name + " after record " +
                             std::to_string(persistence.record_count()) +
                             " at t=" + std::to_string(sim.now()));
      }
    }
    if (seen.size() != configs.size()) {
      mismatches.push_back("recovered " + std::to_string(seen.size()) +
                           " topics at t=" + std::to_string(sim.now()));
    }
  }

  sim::Simulator sim;
  ToggledChannel channel;
  core::Proxy proxy{sim, channel, "every-record"};
  MemBackend backend;
  ProxyPersistence persistence{sim, backend, every_16_records()};
  std::map<std::string, core::TopicConfig> configs;
  std::uint64_t checks = 0;
  /// Checks that replayed a tail on top of a snapshot.
  std::uint64_t tail_checks = 0;
  /// The log length the latest check recovered.
  std::uint64_t checked_records = 0;
  std::vector<std::string> mismatches;
};

/// Which record kinds a WAL holds.
struct Coverage {
  std::set<JournalStage> stages;
  bool plain_forward = false;
  bool replicated_forward = false;
  std::set<std::int64_t> online_forward_days;
  std::map<std::uint64_t, int> read_ids;
  std::map<std::uint64_t, int> sync_ids;
  bool timer_expiry = false;
  bool release_expiry = false;
  bool live_requeue = false;
  bool expired_requeue = false;
  bool shed = false;

  /// An id logged twice: fresh the first time, a duplicate the second.
  static bool repeated(const std::map<std::uint64_t, int>& ids) {
    for (const auto& [id, count] : ids) {
      if (count > 1) return true;
    }
    return false;
  }
};

Coverage scan_coverage(const MemBackend& backend) {
  Coverage coverage;
  scan_wal(backend, kWalBlobName, [&coverage](WalRecord& record) {
    switch (record.type) {
      case WalRecordType::kEnqueue:
        coverage.stages.insert(record.stage);
        break;
      case WalRecordType::kForward:
        (record.replicated ? coverage.replicated_forward
                           : coverage.plain_forward) = true;
        if (!record.replicated &&
            record.topic == EveryRecordProxy::kOnline) {
          coverage.online_forward_days.insert(record.at / kDay);
        }
        break;
      case WalRecordType::kRead:
        ++coverage.read_ids[record.request_id];
        break;
      case WalRecordType::kSync:
        ++coverage.sync_ids[record.sync_id];
        break;
      case WalRecordType::kExpire:
        (record.timer_fired ? coverage.timer_expiry
                            : coverage.release_expiry) = true;
        break;
      case WalRecordType::kRequeue:
        (record.event.expired_at(record.at) ? coverage.expired_requeue
                                            : coverage.live_requeue) = true;
        break;
      case WalRecordType::kShed:
        coverage.shed = true;
        break;
      case WalRecordType::kAck:
      case WalRecordType::kAdopt:
        break;
    }
  });
  return coverage;
}

TEST(RecoveryAfterEveryRecord, RecoveredImagesMatchTheLiveTopics) {
  EveryRecordProxy node;
  node.run_script();

  const Coverage coverage = scan_coverage(node.backend);
  ASSERT_EQ(coverage.stages.size(), 9u);  // every JournalStage
  ASSERT_TRUE(coverage.plain_forward);
  ASSERT_TRUE(coverage.replicated_forward);
  ASSERT_EQ(coverage.online_forward_days, (std::set<std::int64_t>{0, 1}));
  ASSERT_TRUE(Coverage::repeated(coverage.read_ids));
  ASSERT_TRUE(Coverage::repeated(coverage.sync_ids));
  ASSERT_TRUE(coverage.timer_expiry);
  ASSERT_TRUE(coverage.release_expiry);
  ASSERT_TRUE(coverage.live_requeue);
  ASSERT_TRUE(coverage.expired_requeue);
  ASSERT_TRUE(coverage.shed);
  ASSERT_GE(node.persistence.stats().snapshots, 2u);

  EXPECT_EQ(node.checked_records, node.persistence.record_count());
  EXPECT_GT(node.tail_checks, 0u);
  EXPECT_EQ(node.mismatches, std::vector<std::string>{});
}

}  // namespace
}  // namespace waif::storage
