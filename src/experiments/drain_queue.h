// The bounded, lazily drained queue both fleet fan-outs offer each delivery
// to (DESIGN.md §10): per device in ShardedFleet, per mailbox in ElasticFleet.
#pragma once

#include <algorithm>
#include <cstdint>

namespace waif::experiments {

/// Depth, and the drain bucket (time / drain_period) of the last settlement.
struct DrainQueue {
  std::uint32_t queued = 0;
  std::uint32_t drain_bucket = 0;
};

/// Settles `queue` at `bucket`, draining up to `ticks` × `drain_batch`
/// messages into `drained`, then offers it one message: returns 1 if it is
/// admitted below `cap`, 0 if dropped. `ticks` is `bucket - drain_bucket`
/// (mod 2^32: 0 inside the same bucket) less any an outage froze. No branch
/// depends on the data: the queues fit in L2, so mispredicts were the cost.
inline std::uint32_t offer(DrainQueue& queue, std::uint32_t bucket,
                           std::uint64_t ticks, std::uint32_t drain_batch,
                           std::uint32_t cap, std::uint64_t& drained) {
  const auto drain = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(queue.queued, ticks * drain_batch));
  const std::uint32_t left = queue.queued - drain;
  const std::uint32_t admit = left < cap;
  queue.queued = left + admit;
  queue.drain_bucket = bucket;
  drained += drain;
  return admit;
}

}  // namespace waif::experiments
