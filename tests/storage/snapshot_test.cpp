// Snapshot codec and round-trip fidelity: a TopicState rebuilt from its
// snapshot is indistinguishable (it re-snapshots to the same bytes), damaged
// blobs are rejected wholesale, and load_latest_snapshot falls back to the
// newest valid checkpoint.
#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "core/channel.h"
#include "core/forwarding_policy.h"
#include "core/proxy.h"
#include "core/read_protocol.h"
#include "core/reliable_channel.h"
#include "core/topic_state.h"
#include "device/device.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "storage/backend.h"
#include "storage/codec.h"
#include "storage/persistence.h"

namespace waif::storage {
namespace {

TEST(SnapshotNames, FixedWidthAndParseable) {
  EXPECT_EQ(snapshot_blob_name(7), "snap-000007");
  EXPECT_EQ(snapshot_blob_name(123456), "snap-123456");
  std::uint64_t seq = 0;
  ASSERT_TRUE(parse_snapshot_name("snap-000042", &seq));
  EXPECT_EQ(seq, 42u);
  EXPECT_FALSE(parse_snapshot_name("snap-", &seq));
  EXPECT_FALSE(parse_snapshot_name("snap-12x", &seq));
  EXPECT_FALSE(parse_snapshot_name("wal", &seq));
}

pubsub::Notification make_event(std::uint64_t id, double rank) {
  pubsub::Notification event;
  event.id = NotificationId{id};
  event.topic = "snap/topic";
  event.publisher = PublisherId{9};
  event.rank = rank;
  event.published_at = 100;
  event.expires_at = id % 2 == 0 ? 5000 : kNever;
  event.payload = "p" + std::to_string(id);
  return event;
}

ProxySnapshot sample_snapshot() {
  ProxySnapshot snapshot;
  snapshot.watermark = 321;
  snapshot.taken_at = 42 * kHour;
  snapshot.has_channel = true;
  snapshot.channel.next_seq = 17;
  snapshot.channel.seen = {3, 1, 9};

  core::TopicSnapshot topic;
  topic.outgoing = {make_event(1, 4.0)};
  topic.prefetch = {make_event(2, 3.0), make_event(3, 2.5)};
  topic.holding = {make_event(4, 1.0)};
  topic.delayed.push_back({make_event(5, 2.0), 7 * kHour});
  topic.history = {make_event(1, 4.0), make_event(2, 3.0)};
  topic.forwarded = {1, 2};
  topic.expiration_armed.push_back({4, 5000});
  topic.seen_read_ids = {70, 71};
  topic.seen_sync_ids = {80};
  topic.old_reads.samples = {4.0, 2.0};
  topic.old_reads.sum = 6.0;
  topic.read_times.diffs.samples = {3600.0};
  topic.read_times.diffs.sum = 3600.0;
  topic.read_times.last = 7200.0;
  topic.exp_times.samples = {100.0};
  topic.exp_times.sum = 100.0;
  topic.arrival_times.diffs.samples = {10.0, 20.0};
  topic.arrival_times.diffs.sum = 30.0;
  topic.arrival_times.last = 500.0;
  topic.queue_size_view = 3;
  topic.rate_credit = 0.5;
  topic.current_day = 2;
  topic.forwarded_today = 7;
  snapshot.topics.emplace_back("a", std::move(topic));
  snapshot.topics.emplace_back("b", core::TopicSnapshot{});
  return snapshot;
}

TEST(SnapshotCodec, RoundTripsTheFullImage) {
  const ProxySnapshot original = sample_snapshot();
  const std::vector<std::uint8_t> bytes = encode_snapshot(original);

  ProxySnapshot decoded;
  ASSERT_TRUE(decode_snapshot(bytes, &decoded));
  // Re-encoding the decoded image must be byte-identical: every field made
  // the trip, including bit-exact doubles.
  EXPECT_EQ(encode_snapshot(decoded), bytes);
  EXPECT_EQ(decoded.watermark, 321u);
  EXPECT_EQ(decoded.channel.seen, (std::vector<std::uint64_t>{3, 1, 9}));
  ASSERT_EQ(decoded.topics.size(), 2u);
  EXPECT_EQ(decoded.topics[0].first, "a");
  EXPECT_EQ(decoded.topics[0].second.delayed.size(), 1u);
  EXPECT_EQ(decoded.topics[0].second.delayed[0].release_at, 7 * kHour);
}

TEST(SnapshotCodec, RejectsDamage) {
  const std::vector<std::uint8_t> bytes = encode_snapshot(sample_snapshot());
  ProxySnapshot decoded;

  std::vector<std::uint8_t> flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x10;
  EXPECT_FALSE(decode_snapshot(flipped, &decoded));

  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 7);
  EXPECT_FALSE(decode_snapshot(truncated, &decoded));

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(decode_snapshot(bad_magic, &decoded));

  EXPECT_FALSE(decode_snapshot({}, &decoded));
}

TEST(SnapshotCodec, LoadLatestSkipsDamagedSnapshots) {
  MemBackend backend;
  ProxySnapshot older = sample_snapshot();
  older.watermark = 100;
  backend.write(snapshot_blob_name(1), encode_snapshot(older));

  ProxySnapshot newer = sample_snapshot();
  newer.watermark = 200;
  std::vector<std::uint8_t> damaged = encode_snapshot(newer);
  damaged[damaged.size() / 2] ^= 0x01;
  backend.write(snapshot_blob_name(2), damaged);
  backend.write("wal", {1, 2, 3});  // non-snapshot blobs are ignored

  ProxySnapshot loaded;
  std::uint64_t seq = 0;
  std::uint64_t damaged_count = 0;
  ASSERT_TRUE(load_latest_snapshot(backend, &loaded, &seq, &damaged_count));
  EXPECT_EQ(seq, 1u);
  EXPECT_EQ(loaded.watermark, 100u);
  EXPECT_EQ(damaged_count, 1u);
}

// Names pad to six digits, so from sequence 1,000,000 on name order is not
// sequence order: "snap-999999" sorts after "snap-1000000". The newest image
// is the one with the highest parsed sequence.
TEST(SnapshotCodec, LoadLatestOrdersBySequenceNotByName) {
  MemBackend backend;
  ProxySnapshot older = sample_snapshot();
  older.watermark = 100;
  backend.write(snapshot_blob_name(999'999), encode_snapshot(older));
  ProxySnapshot newer = sample_snapshot();
  newer.watermark = 200;
  backend.write(snapshot_blob_name(1'000'000), encode_snapshot(newer));
  ASSERT_LT(snapshot_blob_name(1'000'000), snapshot_blob_name(999'999));

  ProxySnapshot loaded;
  std::uint64_t seq = 0;
  std::uint64_t damaged_count = 0;
  ASSERT_TRUE(load_latest_snapshot(backend, &loaded, &seq, &damaged_count));
  EXPECT_EQ(seq, 1'000'000u);
  EXPECT_EQ(loaded.watermark, 200u);
  EXPECT_EQ(damaged_count, 0u);
}

/// Serializes one topic image so two TopicStates can be compared for exact
/// equality, moving averages and all.
std::vector<std::uint8_t> canonical_bytes(const core::TopicSnapshot& topic) {
  ProxySnapshot wrapper;
  wrapper.topics.emplace_back("t", topic);
  return encode_snapshot(wrapper);
}

TEST(SnapshotRoundTrip, RestoredTopicStateIsIndistinguishable) {
  sim::Simulator sim;
  net::Link link(sim);
  device::Device device(sim, DeviceId{1});
  core::SimDeviceChannel channel(link, device);

  core::TopicConfig config;
  config.options.max = 4;
  config.policy = core::PolicyConfig::adaptive();
  config.policy.delay = 20 * kMinute;
  core::TopicState state(sim, channel, "t", config);

  auto publish = [&state](std::uint64_t id, double rank, SimTime expires) {
    auto event = std::make_shared<pubsub::Notification>();
    event->id = NotificationId{id};
    event->topic = "t";
    event->publisher = PublisherId{1};
    event->rank = rank;
    event->published_at = 0;
    event->expires_at = expires;
    state.handle_notification(event);
  };

  // A mixed mid-run state: delayed arrivals, a training read, an outage
  // with traffic piling into outgoing, an armed expiration.
  sim.schedule_at(0, [&] {
    publish(1, 4.0, kNever);
    publish(2, 3.0, 3 * kHour);
    publish(3, 1.5, kNever);
  });
  sim.schedule_at(45 * kMinute, [&] {
    core::ReadRequest request;
    request.request_id = 1;
    request.n = 4;
    request.queue_size = device.queue_size("t");
    request.client_events = device.top_ids("t", 4, 0.0);
    state.handle_read(request);  // the difference arrives via the channel
  });
  sim.schedule_at(50 * kMinute, [&] { publish(4, 2.0, 6 * kHour); });
  sim.schedule_at(55 * kMinute, [&] {
    state.handle_network(net::LinkState::kDown);
    publish(5, 4.5, kNever);
  });
  sim.run_until(kHour);

  const core::TopicSnapshot snapshot = state.snapshot();

  net::Link link2(sim);
  device::Device device2(sim, DeviceId{2});
  core::SimDeviceChannel channel2(link2, device2);
  core::TopicState rebuilt(sim, channel2, "t", config);
  rebuilt.restore(snapshot);

  EXPECT_EQ(canonical_bytes(rebuilt.snapshot()), canonical_bytes(snapshot));
}

TEST(SnapshotRoundTrip, ReliableChannelKeepsSeqAndDedupWindow) {
  sim::Simulator sim;
  net::Link link(sim);
  device::Device device(sim, DeviceId{1});
  core::ReliableDeviceChannel channel(sim, link, device, {}, /*seed=*/42);

  for (std::uint64_t id = 1; id <= 3; ++id) {
    auto event = std::make_shared<pubsub::Notification>();
    event->id = NotificationId{id};
    event->topic = "t";
    event->rank = 3.0;
    channel.deliver(event);
  }
  sim.run_until(kMinute);  // let the transfers complete
  const core::ChannelSnapshot snapshot = channel.snapshot();
  EXPECT_EQ(snapshot.next_seq, 4u);  // three transfers: seqs 1..3 spent
  EXPECT_EQ(snapshot.seen.size(), 3u);

  core::ReliableDeviceChannel rebuilt(sim, link, device, {}, /*seed=*/43);
  rebuilt.restore(snapshot);
  const core::ChannelSnapshot again = rebuilt.snapshot();
  EXPECT_EQ(again.next_seq, snapshot.next_seq);
  EXPECT_EQ(again.seen, snapshot.seen);
}

// --- checkpoints written by ProxyPersistence --------------------------------

/// A last hop whose link the script flips; every transfer is accepted.
class ScriptedChannel final : public core::DeviceChannel {
 public:
  bool link_up() const override { return up; }
  bool deliver(const pubsub::NotificationPtr&) override { return true; }

  bool up = true;
};

/// One on-demand proxy with two topics, journaled to a MemBackend and
/// checkpointed on request. Topic names and payloads are past the
/// small-string buffer.
struct ScriptedProxy {
  static constexpr const char* kWeather = "scripted/weather-alerts";
  static constexpr const char* kNews = "scripted/news-headlines";

  static core::TopicConfig on_demand() {
    core::TopicConfig config;
    config.options.max = 4;
    config.policy = core::PolicyConfig::adaptive();
    config.policy.delay = 20 * kMinute;
    config.refinements.interrupt_threshold = 4.2;
    return config;
  }

  static PersistenceConfig manual_snapshots() {
    PersistenceConfig config;
    config.snapshot_interval = 0;
    return config;
  }

  explicit ScriptedProxy(PersistenceConfig config = manual_snapshots())
      : persistence(sim, backend, config) {
    proxy.add_topic(kWeather, on_demand());
    proxy.add_topic(kNews, on_demand());
    persistence.attach(proxy);
  }

  void publish(const std::string& topic, std::uint64_t id, double rank,
               SimTime expires_at) {
    auto event = std::make_shared<pubsub::Notification>();
    event->id = NotificationId{id};
    event->topic = topic;
    event->publisher = PublisherId{3};
    event->rank = rank;
    event->published_at = sim.now();
    event->expires_at = expires_at;
    event->payload = "payload of notification " + std::to_string(id);
    proxy.on_notification(event);
  }

  void read(const std::string& topic, std::uint64_t request_id, int n,
            std::size_t queue_size) {
    core::ReadRequest request;
    request.request_id = request_id;
    request.n = n;
    request.queue_size = queue_size;
    proxy.handle_read(topic, request);
  }

  /// Drives both topics through every image section by `until`: delayed
  /// events, prefetch, a READ difference forwarded out of id order, a
  /// rank-updated history entry, seen READ and sync ids, a held event with
  /// an armed timer, and an interrupt stranded in outgoing by an outage.
  void run_script(SimTime until) {
    using TopicIds = std::pair<const char*, std::uint64_t>;
    for (const auto& [topic, base] : {TopicIds{kWeather, 0}, {kNews, 100}}) {
      sim.schedule_at(0, [this, topic, base] {
        publish(topic, base + 7, 4.0, kNever);
        publish(topic, base + 3, 3.0, 3 * kHour);
        publish(topic, base + 9, 1.5, kNever);
        publish(topic, base + 2, 2.0, 5 * kHour);
        publish(topic, base + 8, 1.8, 6 * kHour);
        publish(topic, base + 1, 1.2, kNever);
        publish(topic, base + 6, 1.1, 7 * kHour);
        publish(topic, base + 10, 1.05, kNever);
      });
      sim.schedule_at(30 * kMinute, [this, topic, base] {
        read(topic, base + 11, 2, 0);
      });
      // Leaves the delay stage after the outage starts: stays in prefetch.
      sim.schedule_at(37 * kMinute, [this, topic, base] {
        publish(topic, base + 13, 1.3, kNever);
      });
      sim.schedule_at(40 * kMinute, [this, topic, base] {
        publish(topic, base + 9, 2.5, kNever);  // rank update
      });
      sim.schedule_at(45 * kMinute, [this, topic, base] {
        proxy.handle_sync(topic, 1, {{35 * kMinute, 1}}, base + 21);
      });
      sim.schedule_at(50 * kMinute, [this, topic, base] {
        read(topic, base + 12, 2, 1);
      });
      sim.schedule_at(55 * kMinute, [this, topic, base] {
        publish(topic, base + 4, 2.0, 60 * kMinute);  // held: expires soon
        publish(topic, base + 12, 3.5, kNever);       // delay stage
      });
    }
    sim.schedule_at(56 * kMinute, [this] {
      channel.up = false;
      proxy.handle_network(net::LinkState::kDown);
      publish(kWeather, 5, 4.5, kNever);    // interrupt, stranded
      publish(kNews, 105, 4.6, 9 * kHour);  // interrupt, stranded
    });
    sim.run_until(until);
  }

  sim::Simulator sim;
  ScriptedChannel channel;
  core::Proxy proxy{sim, channel, "scripted"};
  MemBackend backend;
  ProxyPersistence persistence;
};

// The checkpoint writer's bytes, pinned independently of how it walks the
// live state: a scripted proxy whose every image section is non-empty (the
// test asserts that first), checkpointed once. The CRC was captured from the
// writer that deep-copied each topic into a TopicSnapshot before encoding
// it, so a walk that visits a section in another order moves it.
TEST(SnapshotCheckpoint, LiveImageBytesArePinned) {
  ScriptedProxy node;
  node.run_script(58 * kMinute);

  for (const char* topic : {ScriptedProxy::kWeather, ScriptedProxy::kNews}) {
    const core::TopicSnapshot image = node.proxy.topic(topic)->snapshot();
    EXPECT_FALSE(image.outgoing.empty()) << topic;
    EXPECT_FALSE(image.prefetch.empty()) << topic;
    EXPECT_FALSE(image.holding.empty()) << topic;
    EXPECT_FALSE(image.delayed.empty()) << topic;
    EXPECT_GE(image.history.size(), 2u) << topic;
    EXPECT_GE(image.forwarded.size(), 2u) << topic;
    EXPECT_FALSE(image.expiration_armed.empty()) << topic;
    EXPECT_FALSE(image.seen_read_ids.empty()) << topic;
    EXPECT_FALSE(image.seen_sync_ids.empty()) << topic;
    EXPECT_FALSE(image.old_reads.samples.empty()) << topic;
    EXPECT_FALSE(image.read_times.diffs.samples.empty()) << topic;
    EXPECT_FALSE(image.exp_times.samples.empty()) << topic;
    EXPECT_FALSE(image.arrival_times.diffs.samples.empty()) << topic;
    EXPECT_GT(image.queue_size_view, 0u) << topic;
  }

  ASSERT_TRUE(node.persistence.snapshot_now());
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(node.backend.read(snapshot_blob_name(1), &blob));
  EXPECT_EQ(blob.size(), 4132u);
  EXPECT_EQ(crc32(blob), 0x89E3BA70u);
}

// Every periodic checkpoint is exactly what encode_snapshot makes of the
// proxy's TopicState::snapshot() images at that instant. The snapshot runs
// as its own simulator event, so the post-event hook sees the state it
// imaged.
TEST(SnapshotCheckpoint, EveryCheckpointEqualsTheEncodedTopicSnapshots) {
  PersistenceConfig config;
  config.snapshot_interval = 16;
  ScriptedProxy node(config);
  std::uint64_t checked = 0;
  node.sim.add_post_event_hook([&node, &checked] {
    const std::uint64_t taken = node.persistence.stats().snapshots;
    if (taken == checked) return;
    checked = taken;
    ProxySnapshot expected;
    expected.watermark = node.persistence.record_count();
    expected.taken_at = node.sim.now();
    for (const std::string& name : node.proxy.topic_names()) {
      expected.topics.emplace_back(name, node.proxy.topic(name)->snapshot());
    }
    std::vector<std::uint8_t> blob;
    ASSERT_TRUE(node.backend.read(snapshot_blob_name(taken), &blob));
    EXPECT_EQ(blob, encode_snapshot(expected)) << "checkpoint " << taken;
  });
  node.run_script(4 * kHour);
  EXPECT_GE(checked, 3u);
}

}  // namespace
}  // namespace waif::storage
