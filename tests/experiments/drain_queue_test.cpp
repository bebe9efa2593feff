#include "experiments/drain_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace waif::experiments {
namespace {

struct Counters {
  std::uint64_t deliveries = 0;
  std::uint64_t drops = 0;
  std::uint64_t drained = 0;
};

/// The settle-then-enqueue loop body the fan-outs ran before offer():
/// settle only when the bucket moved (less the ticks an outage froze), then
/// enqueue below the cap or drop.
void reference_offer(DrainQueue& queue, std::uint32_t bucket,
                     std::uint64_t blocked, std::uint32_t drain_batch,
                     std::uint32_t cap, Counters& counters) {
  if (queue.drain_bucket != bucket) {
    std::uint64_t ticks =
        static_cast<std::uint64_t>(bucket - queue.drain_bucket);
    ticks -= std::min(ticks, blocked);
    const std::uint64_t can_drain = ticks * drain_batch;
    const auto drained = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(queue.queued, can_drain));
    queue.queued -= drained;
    counters.drained += drained;
    queue.drain_bucket = bucket;
  }
  if (queue.queued >= cap) {
    ++counters.drops;
  } else {
    ++queue.queued;
    ++counters.deliveries;
  }
}

TEST(DrainQueueTest, OfferMatchesTheBranchyReference) {
  constexpr std::array<std::uint32_t, 4> kCaps = {0, 1, 4, 64};
  constexpr std::array<std::uint32_t, 3> kDrainBatches = {0, 1, 4};
  constexpr std::array<std::uint64_t, 4> kBlocked = {0, 1, 3, 1ull << 40};
  constexpr int kOffers = 100'000;
  for (const std::uint32_t cap : kCaps) {
    for (const std::uint32_t drain_batch : kDrainBatches) {
      Rng rng(cap * 31 + drain_batch + 1);
      std::vector<DrainQueue> reference(16);
      std::vector<DrainQueue> kernel(16);
      Counters expected;
      Counters actual;
      // Starts just below 2^32 so forward steps wrap the bucket clock too.
      std::uint32_t bucket = 0xFFFFFFFFu - 300;
      for (auto* queues : {&reference, &kernel}) {
        for (DrainQueue& queue : *queues) queue.drain_bucket = bucket;
      }
      int offers = 0;
      while (offers < kOffers) {
        switch (rng.next_below(6)) {
          case 0: break;  // another batch in the same bucket
          case 1: bucket += 1; break;
          case 2: bucket += 2; break;
          case 3: bucket += 97; break;
          case 4: bucket -= 3; break;  // behind some queues: ticks wrap
          default: break;
        }
        const auto size = static_cast<int>(1 + rng.next_below(8));
        for (int k = 0; k < size; ++k) {
          const auto slot = static_cast<std::size_t>(rng.next_below(16));
          const std::uint64_t blocked = kBlocked[rng.next_below(4)];
          reference_offer(reference[slot], bucket, blocked, drain_batch, cap,
                          expected);
          DrainQueue& queue = kernel[slot];
          const std::uint64_t ticks = bucket - queue.drain_bucket;
          const std::uint32_t admitted =
              offer(queue, bucket, ticks - std::min(ticks, blocked),
                    drain_batch, cap, actual.drained);
          actual.deliveries += admitted;
          actual.drops += 1 - admitted;
        }
        offers += size;
        ASSERT_EQ(actual.deliveries, expected.deliveries)
            << "cap " << cap << ", drain batch " << drain_batch;
        ASSERT_EQ(actual.drops, expected.drops);
        ASSERT_EQ(actual.drained, expected.drained);
        for (std::size_t q = 0; q < kernel.size(); ++q) {
          ASSERT_EQ(kernel[q].queued, reference[q].queued);
          ASSERT_EQ(kernel[q].drain_bucket, reference[q].drain_bucket);
        }
      }
      // Every combination admits, drops and drains whatever it can.
      if (cap > 0) {
        EXPECT_GT(expected.deliveries, 0u);
      }
      if (cap < 64) {
        EXPECT_GT(expected.drops, 0u);
      }
      if (cap > 0 && drain_batch > 0) {
        EXPECT_GT(expected.drained, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace waif::experiments
