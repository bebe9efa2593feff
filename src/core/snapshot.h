// The durable images of the proxy: a TopicState's topic image, described
// here by its sections and the one sink protocol every walk of it uses, and
// the reliable channel's delivery window.
//
// A topic image is bytes (storage/snapshot.h lays them out). Two producers
// walk one, and three consumers take it, through one sink protocol:
//
//   producers  TopicState::write_image, over live state;
//              storage::read_topic_image, over bytes.
//   consumers  storage::TopicImageEncoder, which writes the bytes;
//              TopicState::Restorer, which fills a fresh TopicState;
//              storage::TopicImageShape, which only counts — reading an
//              image into it validates and measures the image before any
//              TopicState sees it.
//
// A sink provides, called in ImageSection order:
//
//   void begin(ImageSection section, std::size_t count);
//   void event(const pubsub::Notification& event);
//   void delayed(const pubsub::Notification& event, SimTime release_at);
//   void armed(std::uint64_t id, SimTime expires_at);
//   void ids(ImageSection section, const std::vector<std::uint64_t>& sorted);
//   template <typename Samples>
//   void average(ImageSection section, const Samples& samples, double sum,
//                std::optional<double> last);
//   void scalars(std::uint64_t queue_size_view, double rate_credit,
//                std::int64_t current_day, std::uint64_t forwarded_today);
//
// Each event, delay and armed list opens with begin() and its count; each
// id list arrives whole and sorted; each moving average arrives as its
// samples (oldest first), its running sum and, for the two interval
// averages, the last timestamp; `Samples` is any sized range of doubles.
// write_image also borrows `std::vector<std::uint64_t>& scratch_ids()` from
// its sink for its sorts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace waif::core {

/// The sections of a topic image, in the order every producer walks them
/// and the storage codec lays them out (the scalars follow the last one).
enum class ImageSection : std::uint8_t {
  kOutgoing,      // events, rank order
  kPrefetch,      // events, rank order
  kHolding,       // events, rank order
  kDelayed,       // delay-stage events with release instants, by id
  kHistory,       // events, insertion (FIFO) order
  kForwarded,     // ids, sorted
  kArmed,         // armed expirations, by id
  kSeenReads,     // ids, sorted
  kSeenSyncs,     // ids, sorted
  kOldReads,      // moving average of read sizes
  kReadTimes,     // interval average of read instants (has a last)
  kExpTimes,      // moving average of event lifetimes
  kArrivalTimes,  // interval average of arrival instants (has a last)
};

inline constexpr std::size_t kImageSections =
    static_cast<std::size_t>(ImageSection::kArrivalTimes) + 1;

/// The interval averages carry the last timestamp they saw.
constexpr bool has_last(ImageSection section) {
  return section == ImageSection::kReadTimes ||
         section == ImageSection::kArrivalTimes;
}

/// Durable state of the proxy side of a ReliableDeviceChannel: the sequence
/// counter (so a recovered proxy never reuses a seq the device has seen) and
/// the device-side dedup window, captured so the in-sim recovery hand-off
/// can rebuild a channel pair wholesale.
struct ChannelSnapshot {
  std::uint64_t next_seq = 1;
  std::vector<std::uint64_t> seen;  // device dedup window, insertion order
};

}  // namespace waif::core
