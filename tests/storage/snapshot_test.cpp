// Snapshot codec and round-trip fidelity: a TopicState rebuilt from its
// image is indistinguishable (it re-encodes to the same bytes), damaged
// blobs and images are rejected wholesale — the image decoder accepts
// exactly what the value decoder it replaced accepted — and
// load_latest_snapshot falls back to the newest valid checkpoint, reading
// only canonically named blobs.
#include "storage/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
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
#include "storage/fsck.h"
#include "storage/persistence.h"

namespace waif::storage {
namespace {

TEST(SnapshotNames, FixedWidthAndParseable) {
  EXPECT_EQ(snapshot_blob_name(7), "snap-000007");
  EXPECT_EQ(snapshot_blob_name(123456), "snap-123456");
  std::uint64_t seq = 0;
  ASSERT_TRUE(parse_snapshot_name("snap-000042", &seq));
  EXPECT_EQ(seq, 42u);
  ASSERT_TRUE(parse_snapshot_name("snap-1000000", &seq));
  EXPECT_EQ(seq, 1'000'000u);
  EXPECT_FALSE(parse_snapshot_name("snap-", &seq));
  EXPECT_FALSE(parse_snapshot_name("snap-12x", &seq));
  EXPECT_FALSE(parse_snapshot_name("wal", &seq));
  // Only the names snapshot_blob_name writes: not unpadded, not overpadded,
  // not past 2^64 (which would wrap to a huge "newest" sequence).
  EXPECT_FALSE(parse_snapshot_name("snap-42", &seq));
  EXPECT_FALSE(parse_snapshot_name("snap-0000042", &seq));
  EXPECT_FALSE(parse_snapshot_name("snap-99999999999999999999", &seq));
  EXPECT_EQ(seq, 1'000'000u);
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

/// A topic image with every section non-empty, scripted section by section
/// through the encoding sink (it need not be a state a TopicState could
/// reach).
std::vector<std::uint8_t> scripted_image() {
  using core::ImageSection;
  ByteWriter out;
  TopicImageEncoder image(out);
  const auto events = [&image](ImageSection section,
                               std::vector<pubsub::Notification> list) {
    image.begin(section, list.size());
    for (const pubsub::Notification& event : list) image.event(event);
  };
  events(ImageSection::kOutgoing, {make_event(1, 4.0)});
  events(ImageSection::kPrefetch, {make_event(2, 3.0), make_event(3, 2.5)});
  events(ImageSection::kHolding, {make_event(4, 1.0)});
  image.begin(ImageSection::kDelayed, 1);
  image.delayed(make_event(5, 2.0), 7 * kHour);
  events(ImageSection::kHistory, {make_event(1, 4.0), make_event(2, 3.0)});
  image.ids(ImageSection::kForwarded, std::vector<std::uint64_t>{1, 2});
  image.begin(ImageSection::kArmed, 1);
  image.armed(4, 5000);
  image.ids(ImageSection::kSeenReads, std::vector<std::uint64_t>{70, 71});
  image.ids(ImageSection::kSeenSyncs, std::vector<std::uint64_t>{80});
  image.average(ImageSection::kOldReads, std::vector<double>{4.0, 2.0}, 6.0,
                std::nullopt);
  image.average(ImageSection::kReadTimes, std::vector<double>{3600.0}, 3600.0,
                7200.0);
  image.average(ImageSection::kExpTimes, std::vector<double>{100.0}, 100.0,
                std::nullopt);
  image.average(ImageSection::kArrivalTimes, std::vector<double>{10.0, 20.0},
                30.0, 500.0);
  image.scalars(3, 0.5, 2, 7);
  return out.take();
}

/// A checkpoint blob at `watermark` holding topic "a" (the scripted image)
/// and topic "b" (the empty image).
std::vector<std::uint8_t> sample_blob(std::uint64_t watermark = 321) {
  core::ChannelSnapshot channel;
  channel.next_seq = 17;
  channel.seen = {3, 1, 9};
  const std::vector<std::uint8_t> a = scripted_image();
  ByteWriter blob;
  begin_snapshot(blob, watermark, 42 * kHour, &channel, 2);
  blob.str("a");
  blob.raw(a.data(), a.size());
  blob.str("b");
  encode_empty_topic_image(blob);
  finish_snapshot(blob);
  return blob.take();
}

/// Frames a decoded snapshot back into a blob, image bytes as they are.
std::vector<std::uint8_t> reframe(const ProxySnapshot& snapshot) {
  ByteWriter blob;
  begin_snapshot(blob, snapshot.watermark, snapshot.taken_at,
                 snapshot.has_channel ? &snapshot.channel : nullptr,
                 snapshot.topics.size());
  for (const TopicImageRange& topic : snapshot.topics) {
    blob.str(topic.name);
    const std::span<const std::uint8_t> image = snapshot.image(topic);
    blob.raw(image.data(), image.size());
  }
  finish_snapshot(blob);
  return blob.take();
}

/// Feeds an image through the decoder into the encoder: the bytes come back
/// only if every field made the trip, doubles bit-exact.
std::vector<std::uint8_t> reencode(std::span<const std::uint8_t> image) {
  ByteWriter out;
  TopicImageEncoder encoder(out);
  EXPECT_TRUE(read_topic_image(image, encoder));
  return out.take();
}

TEST(SnapshotCodec, RoundTripsTheFullImage) {
  const std::vector<std::uint8_t> bytes = sample_blob();

  ProxySnapshot decoded;
  ASSERT_TRUE(decode_snapshot(bytes, &decoded));
  EXPECT_EQ(reframe(decoded), bytes);
  EXPECT_EQ(decoded.watermark, 321u);
  EXPECT_EQ(decoded.taken_at, 42 * kHour);
  EXPECT_EQ(decoded.channel.seen, (std::vector<std::uint64_t>{3, 1, 9}));
  ASSERT_EQ(decoded.topics.size(), 2u);
  EXPECT_EQ(decoded.topics[0].name, "a");
  EXPECT_EQ(decoded.topics[1].name, "b");
  const std::vector<std::uint8_t> a = scripted_image();
  EXPECT_TRUE(std::ranges::equal(decoded.image("a"), a));
  EXPECT_TRUE(decoded.image("c").empty());
  for (const TopicImageRange& topic : decoded.topics) {
    EXPECT_TRUE(std::ranges::equal(reencode(decoded.image(topic)),
                                   decoded.image(topic)))
        << topic.name;
  }

  TopicImageShape shape;
  ASSERT_TRUE(read_topic_image(decoded.image("a"), shape));
  EXPECT_EQ(shape.count(core::ImageSection::kPrefetch), 2u);
  EXPECT_EQ(shape.count(core::ImageSection::kDelayed), 1u);
  EXPECT_EQ(shape.count(core::ImageSection::kArrivalTimes), 2u);
  EXPECT_EQ(shape.queue_size_view, 3u);
}

TEST(SnapshotCodec, RejectsDamage) {
  const std::vector<std::uint8_t> bytes = sample_blob();
  ProxySnapshot decoded;

  std::vector<std::uint8_t> flipped = bytes;
  flipped[bytes.size() / 2] ^= 0x10;
  EXPECT_FALSE(decode_snapshot(flipped, &decoded));

  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.end() - 7);
  EXPECT_FALSE(decode_snapshot(truncated, &decoded));

  std::vector<std::uint8_t> bad_magic = bytes;
  ASSERT_FALSE(bad_magic.empty());
  bad_magic[0] = 'X';
  EXPECT_FALSE(decode_snapshot(bad_magic, &decoded));

  EXPECT_FALSE(decode_snapshot({}, &decoded));
}

TEST(SnapshotCodec, LoadLatestSkipsDamagedSnapshots) {
  MemBackend backend;
  backend.write(snapshot_blob_name(1), sample_blob(100));

  std::vector<std::uint8_t> damaged = sample_blob(200);
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
  backend.write(snapshot_blob_name(999'999), sample_blob(100));
  backend.write(snapshot_blob_name(1'000'000), sample_blob(200));
  ASSERT_LT(snapshot_blob_name(1'000'000), snapshot_blob_name(999'999));

  ProxySnapshot loaded;
  std::uint64_t seq = 0;
  std::uint64_t damaged_count = 0;
  ASSERT_TRUE(load_latest_snapshot(backend, &loaded, &seq, &damaged_count));
  EXPECT_EQ(seq, 1'000'000u);
  EXPECT_EQ(loaded.watermark, 200u);
  EXPECT_EQ(damaged_count, 0u);
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

  // The image holds every field exactly, moving averages and all, so equal
  // bytes are indistinguishable states.
  const std::vector<std::uint8_t> image = topic_image(state);

  net::Link link2(sim);
  device::Device device2(sim, DeviceId{2});
  core::SimDeviceChannel channel2(link2, device2);
  core::TopicState rebuilt(sim, channel2, "t", config);
  // A damaged image is refused before the topic is touched: the whole image
  // still restores into it afterwards.
  EXPECT_FALSE(restore_topic_image(
      std::span(image).first(image.size() - 1), rebuilt));
  ASSERT_TRUE(restore_topic_image(image, rebuilt));

  EXPECT_EQ(topic_image(rebuilt), image);
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
// writer that deep-copied each topic into a value image before encoding
// it, so a walk that visits a section in another order moves it.
TEST(SnapshotCheckpoint, LiveImageBytesArePinned) {
  ScriptedProxy node;
  node.run_script(58 * kMinute);

  for (const char* topic : {ScriptedProxy::kWeather, ScriptedProxy::kNews}) {
    TopicImageShape image;
    ASSERT_TRUE(read_topic_image(topic_image(*node.proxy.topic(topic)), image));
    for (std::size_t section = 0; section < core::kImageSections; ++section) {
      EXPECT_GT(image.counts[section], 0u) << topic << " section " << section;
    }
    EXPECT_GE(image.count(core::ImageSection::kHistory), 2u) << topic;
    EXPECT_GE(image.count(core::ImageSection::kForwarded), 2u) << topic;
    EXPECT_GT(image.queue_size_view, 0u) << topic;
  }

  ASSERT_TRUE(node.persistence.snapshot_now());
  std::vector<std::uint8_t> blob;
  ASSERT_TRUE(node.backend.read(snapshot_blob_name(1), &blob));
  EXPECT_EQ(blob.size(), 4132u);
  EXPECT_EQ(crc32(blob), 0x89E3BA70u);
}

// Every periodic checkpoint holds, per topic, exactly the live topic's image
// at that instant, and each of those images goes back through the read side
// unchanged: restored into a fresh TopicState, it re-encodes to itself. The
// snapshot runs as its own simulator event, so the post-event hook sees the
// state it imaged.
TEST(SnapshotCheckpoint, EveryCheckpointEqualsTheEncodedTopicSnapshots) {
  PersistenceConfig config;
  config.snapshot_interval = 16;
  ScriptedProxy node(config);
  std::uint64_t checked = 0;
  node.sim.add_post_event_hook([&node, &checked] {
    const std::uint64_t taken = node.persistence.stats().snapshots;
    if (taken == checked) return;
    checked = taken;
    std::vector<std::uint8_t> blob;
    ASSERT_TRUE(node.backend.read(snapshot_blob_name(taken), &blob));
    ProxySnapshot snapshot;
    ASSERT_TRUE(decode_snapshot(blob, &snapshot)) << "checkpoint " << taken;
    EXPECT_EQ(snapshot.watermark, node.persistence.record_count());
    EXPECT_EQ(snapshot.taken_at, node.sim.now());
    ASSERT_EQ(snapshot.topics.size(), node.proxy.topic_names().size());
    for (const TopicImageRange& topic : snapshot.topics) {
      const std::span<const std::uint8_t> image = snapshot.image(topic);
      EXPECT_TRUE(std::ranges::equal(
          image, topic_image(*node.proxy.topic(topic.name))))
          << "checkpoint " << taken << " " << topic.name;
      sim::Simulator sim;
      ScriptedChannel channel;
      core::TopicState fresh(sim, channel, topic.name,
                             ScriptedProxy::on_demand());
      ASSERT_TRUE(restore_topic_image(image, fresh));
      EXPECT_TRUE(std::ranges::equal(topic_image(fresh), image))
          << "checkpoint " << taken << " " << topic.name;
    }
  });
  node.run_script(4 * kHour);
  EXPECT_GE(checked, 3u);
}

// A blob whose name parses to a sequence past every real checkpoint — here a
// longer log's checkpoint under a 20-digit name, which would wrap to about
// 7.8e18 — is not a checkpoint: recovery reads the real newest one, the
// prune keeps the two real ones it should, and fsck counts the stray as an
// unknown blob instead of finding a watermark beyond the log.
TEST(SnapshotNames, AStrayBlobIsNeitherRecoveredNorPruned) {
  ScriptedProxy longer;
  longer.run_script(58 * kMinute);
  ASSERT_TRUE(longer.persistence.snapshot_now());
  std::vector<std::uint8_t> stray;
  ASSERT_TRUE(longer.backend.read(snapshot_blob_name(1), &stray));

  ScriptedProxy node;
  const std::string stray_name = "snap-99999999999999999999";
  node.backend.write(stray_name, stray);
  node.run_script(10 * kMinute);
  ASSERT_TRUE(node.persistence.snapshot_now());
  ASSERT_TRUE(node.persistence.snapshot_now());
  ASSERT_LT(node.persistence.record_count(), longer.persistence.record_count());

  std::vector<std::uint8_t> blob;
  EXPECT_TRUE(node.backend.read(snapshot_blob_name(1), &blob));
  EXPECT_TRUE(node.backend.read(snapshot_blob_name(2), &blob));
  EXPECT_TRUE(node.backend.read(stray_name, &blob));

  const FsckReport report = waif_fsck(node.backend);
  EXPECT_EQ(report.unknown_blobs, 1u);
  EXPECT_EQ(report.valid_snapshots, 2u);
  EXPECT_EQ(report.latest_snapshot_seq, 2u);
  ASSERT_TRUE(report.recoverable());

  std::map<std::string, core::TopicConfig> configs;
  for (const std::string& name : node.proxy.topic_names()) {
    configs.emplace(name, ScriptedProxy::on_demand());
  }
  const RecoveryResult recovery = ProxyPersistence::recover(node.backend,
                                                            configs);
  EXPECT_TRUE(recovery.from_snapshot);
  EXPECT_EQ(recovery.snapshot_seq, 2u);
  EXPECT_EQ(recovery.wal_records, node.persistence.record_count());
  for (const TopicImageRange& topic : recovery.state.topics) {
    EXPECT_TRUE(std::ranges::equal(
        recovery.state.image(topic),
        topic_image(*node.proxy.topic(topic.name))))
        << topic.name;
  }
}

// The value decoder the image decoder replaced, kept verbatim (with the
// value types it filled) as the reference for what a topic image decoder
// must accept.
namespace reference {

struct AverageSnapshot {
  std::vector<double> samples;
  double sum = 0.0;
};

struct IntervalSnapshot {
  AverageSnapshot diffs;
  std::optional<double> last;
};

struct DelayedSnapshot {
  pubsub::Notification event;
  SimTime release_at = 0;
};

struct ArmedExpiration {
  std::uint64_t id = 0;
  SimTime expires_at = 0;
};

struct TopicSnapshot {
  std::vector<pubsub::Notification> outgoing;
  std::vector<pubsub::Notification> prefetch;
  std::vector<pubsub::Notification> holding;
  std::vector<DelayedSnapshot> delayed;
  std::vector<pubsub::Notification> history;
  std::vector<std::uint64_t> forwarded;
  std::vector<ArmedExpiration> expiration_armed;
  std::vector<std::uint64_t> seen_read_ids;
  std::vector<std::uint64_t> seen_sync_ids;
  AverageSnapshot old_reads;
  IntervalSnapshot read_times;
  AverageSnapshot exp_times;
  IntervalSnapshot arrival_times;
  std::uint64_t queue_size_view = 0;
  double rate_credit = 0.0;
  std::int64_t current_day = 0;
  std::uint64_t forwarded_today = 0;
};

bool decode_average(ByteReader& reader, AverageSnapshot* average) {
  const std::uint32_t count = reader.u32();
  if (reader.failed() || count > reader.remaining() / 8) return false;
  average->samples.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    average->samples.push_back(reader.f64());
  }
  average->sum = reader.f64();
  return !reader.failed();
}

bool decode_interval(ByteReader& reader, IntervalSnapshot* interval) {
  if (!decode_average(reader, &interval->diffs)) return false;
  if (reader.u8() != 0) interval->last = reader.f64();
  return !reader.failed();
}

bool decode_ids(ByteReader& reader, std::vector<std::uint64_t>* ids) {
  const std::uint32_t count = reader.u32();
  if (reader.failed() || count > reader.remaining() / 8) return false;
  ids->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) ids->push_back(reader.u64());
  return !reader.failed();
}

bool decode_events(ByteReader& reader,
                   std::vector<pubsub::Notification>* events) {
  const std::uint32_t count = reader.u32();
  if (reader.failed() || count > reader.remaining() / 48) return false;
  events->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    events->push_back(decode_notification(reader));
  }
  return !reader.failed();
}

bool decode_topic(ByteReader& reader, TopicSnapshot* topic) {
  if (!decode_events(reader, &topic->outgoing)) return false;
  if (!decode_events(reader, &topic->prefetch)) return false;
  if (!decode_events(reader, &topic->holding)) return false;
  const std::uint32_t delayed_count = reader.u32();
  if (reader.failed() || delayed_count > reader.remaining() / 56) return false;
  topic->delayed.reserve(delayed_count);
  for (std::uint32_t i = 0; i < delayed_count; ++i) {
    DelayedSnapshot delayed;
    delayed.event = decode_notification(reader);
    delayed.release_at = reader.i64();
    topic->delayed.push_back(std::move(delayed));
  }
  if (!decode_events(reader, &topic->history)) return false;
  if (!decode_ids(reader, &topic->forwarded)) return false;
  const std::uint32_t armed_count = reader.u32();
  if (reader.failed() || armed_count > reader.remaining() / 16) return false;
  topic->expiration_armed.reserve(armed_count);
  for (std::uint32_t i = 0; i < armed_count; ++i) {
    ArmedExpiration armed;
    armed.id = reader.u64();
    armed.expires_at = reader.i64();
    topic->expiration_armed.push_back(armed);
  }
  if (!decode_ids(reader, &topic->seen_read_ids)) return false;
  if (!decode_ids(reader, &topic->seen_sync_ids)) return false;
  if (!decode_average(reader, &topic->old_reads)) return false;
  if (!decode_interval(reader, &topic->read_times)) return false;
  if (!decode_average(reader, &topic->exp_times)) return false;
  if (!decode_interval(reader, &topic->arrival_times)) return false;
  topic->queue_size_view = reader.u64();
  topic->rate_credit = reader.f64();
  topic->current_day = reader.i64();
  topic->forwarded_today = reader.u64();
  return !reader.failed();
}

}  // namespace reference

/// Whether the image decoder and the reference accept `bytes`, and where
/// each left its reader; equal when they agree.
std::pair<bool, std::size_t> decode_with(
    const std::vector<std::uint8_t>& bytes, bool use_reference) {
  ByteReader reader(bytes);
  bool accepted = false;
  if (use_reference) {
    reference::TopicSnapshot topic;
    accepted = reference::decode_topic(reader, &topic);
  } else {
    TopicImageShape shape;
    accepted = read_topic_image(reader, shape);
  }
  return {accepted, accepted ? reader.offset() : 0};
}

// The image decoder accepts what the value decoder accepted, every count
// guard included: every prefix of an image whose every section is
// non-empty, and every single-byte corruption of it (which covers each
// count, low byte to high), with the image alone and with bytes after it.
TEST(SnapshotCodec, ImageDecoderAcceptsWhatTheValueDecoderAccepted) {
  const std::vector<std::uint8_t> image = scripted_image();
  TopicImageShape shape;
  ASSERT_TRUE(read_topic_image(image, shape));
  for (std::size_t section = 0; section < core::kImageSections; ++section) {
    ASSERT_GT(shape.counts[section], 0u) << "section " << section;
  }

  std::size_t accepted = 0;
  std::size_t checked = 0;
  const auto agree = [&](const std::vector<std::uint8_t>& bytes,
                         const std::string& what) {
    const auto ours = decode_with(bytes, false);
    EXPECT_EQ(ours, decode_with(bytes, true)) << what;
    accepted += ours.first ? 1 : 0;
    ++checked;
  };
  for (std::size_t size = 0; size <= image.size(); ++size) {
    agree({image.begin(), image.begin() + static_cast<std::ptrdiff_t>(size)},
          "prefix " + std::to_string(size));
  }
  for (const std::size_t tail : {std::size_t{0}, std::size_t{64}}) {
    for (std::size_t at = 0; at < image.size(); ++at) {
      for (const int value : {0x00, 0x01, 0x02, 0x7F, 0xFF}) {
        std::vector<std::uint8_t> corrupt = image;
        corrupt.resize(image.size() + tail, 0xAB);
        if (corrupt[at] == value) continue;
        corrupt[at] = static_cast<std::uint8_t>(value);
        agree(corrupt, "byte " + std::to_string(at) + " = " +
                           std::to_string(value) + ", tail " +
                           std::to_string(tail));
      }
    }
  }
  // Both outcomes were exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, checked);
}

// A topic that holds nothing writes the empty image: what a migration ships
// for a topic that predates every snapshot.
TEST(SnapshotCodec, EmptyImageIsAFreshTopicsImage) {
  sim::Simulator sim;
  ScriptedChannel channel;
  core::TopicState fresh(sim, channel, "t", ScriptedProxy::on_demand());
  ByteWriter empty;
  encode_empty_topic_image(empty);
  EXPECT_EQ(empty.bytes(), topic_image(fresh));
}

}  // namespace
}  // namespace waif::storage
