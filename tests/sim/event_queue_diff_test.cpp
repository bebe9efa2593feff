// Differential property test: the binary-heap event queue vs a plain
// std::priority_queue oracle.
//
// Randomized seeded schedules — interleavings of schedule/cancel/pop with
// duplicate timestamps, near-kNever outliers, cancel-at-top and bulk drains —
// run through both sim::EventQueue and sim::ReferenceEventQueue, asserting
// identical pop order, identical next_time() at every step, and identical
// cancel/size semantics. Any divergence in the queue's ordering, lazy
// cancellation or live count shows up here within a few hundred operations.
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/event_queue.h"
#include "sim/reference_event_queue.h"

namespace waif::sim {
namespace {

/// Drives both queues through the same operation stream and checks lockstep
/// equivalence at every step.
class LockstepDriver {
 public:
  void schedule(SimTime when) {
    const std::size_t tag = next_tag_++;
    handles_.push_back(queue_.schedule(when, [this, tag] { fired_.push_back(tag); }));
    ref_handles_.push_back(
        ref_.schedule(when, [this, tag] { ref_fired_.push_back(tag); }));
    check_invariants();
  }

  void cancel(std::size_t index) {
    ASSERT_EQ(handles_[index].active(), ref_handles_[index].active());
    handles_[index].cancel();
    ref_handles_[index].cancel();
    check_invariants();
  }

  void pop() {
    ASSERT_FALSE(queue_.empty());
    ASSERT_FALSE(ref_.empty());
    const SimTime t = queue_.next_time();
    const SimTime rt = ref_.next_time();
    ASSERT_EQ(t, rt);
    auto fired = queue_.pop();
    auto ref_fired = ref_.pop();
    ASSERT_EQ(fired.time, ref_fired.time);
    fired.fn();
    ref_fired.fn();
    ASSERT_EQ(fired_.size(), ref_fired_.size());
    ASSERT_EQ(fired_.back(), ref_fired_.back())
        << "pop order diverged at pop #" << fired_.size();
    check_invariants();
  }

  void drain() {
    while (!queue_.empty()) pop();
    ASSERT_TRUE(ref_.empty());
  }

  void check_invariants() {
    ASSERT_EQ(queue_.empty(), ref_.empty());
    ASSERT_EQ(queue_.size(), ref_.size());
    ASSERT_EQ(queue_.next_time(), ref_.next_time());
  }

  std::size_t live_handles() const { return handles_.size(); }
  EventQueue& queue() { return queue_; }

  const std::vector<std::size_t>& fired() const { return fired_; }

 private:
  EventQueue queue_;
  ReferenceEventQueue ref_;
  std::vector<EventHandle> handles_;
  std::vector<ReferenceEventHandle> ref_handles_;
  std::vector<std::size_t> fired_;
  std::vector<std::size_t> ref_fired_;
  std::size_t next_tag_ = 0;
};

/// One randomized interleaving: mixes schedules (several time regimes),
/// cancels (including just-scheduled and about-to-pop entries) and pops.
void run_random_interleaving(std::uint64_t seed, int operations) {
  Rng rng(seed);
  LockstepDriver driver;
  SimTime clock = 0;  // pops only move forward, like the simulator's clock

  for (int op = 0; op < operations; ++op) {
    const std::uint64_t dice = rng.next_below(100);
    if (dice < 55 || driver.queue().empty()) {
      // Schedule in one of several time regimes: dense duplicates,
      // near-future, uniform-far, and kNever outliers.
      SimTime when = clock;
      const std::uint64_t regime = rng.next_below(10);
      if (regime < 3) {
        when = clock + static_cast<SimTime>(rng.next_below(4));  // duplicates
      } else if (regime < 7) {
        when = clock + static_cast<SimTime>(rng.next_below(1000));
      } else if (regime < 9) {
        when = clock + static_cast<SimTime>(rng.next_below(1'000'000'000));
      } else {
        when = kNever - static_cast<SimTime>(rng.next_below(3)) - 1;
      }
      driver.schedule(when);
    } else if (dice < 75 && driver.live_handles() > 0) {
      driver.cancel(rng.next_below(driver.live_handles()));
    } else {
      const SimTime next = driver.queue().next_time();
      if (next != kNever) clock = next;
      driver.pop();
    }
  }
  driver.drain();
}

TEST(EventQueueDiffTest, RandomInterleavingsMatchReferenceHeap) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    run_random_interleaving(seed, 600);
  }
}

TEST(EventQueueDiffTest, LongRunExercisesResizeAndShrink) {
  // A long run: the heap grows deep while cancelled entries pile up and are
  // skimmed as their times reach the top.
  run_random_interleaving(0xCA1E7DA5, 6000);
}

TEST(EventQueueDiffTest, DuplicateTimestampsPreserveSchedulingOrder) {
  LockstepDriver driver;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 20; ++i) driver.schedule(7);  // all identical
    for (int i = 0; i < 20; ++i) driver.pop();
  }
  // Tags must fire in exact scheduling order.
  for (std::size_t i = 0; i < driver.fired().size(); ++i) {
    ASSERT_EQ(driver.fired()[i], i);
  }
}

TEST(EventQueueDiffTest, CancelAtTopThenPopMatches) {
  Rng rng(42);
  LockstepDriver driver;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 5; ++i) {
      driver.schedule(static_cast<SimTime>(rng.next_below(50)));
    }
    // Cancel the most recent two (often including the pending top), then pop
    // the rest.
    driver.cancel(driver.live_handles() - 1);
    driver.cancel(driver.live_handles() - 2);
    while (!driver.queue().empty()) driver.pop();
  }
}

TEST(EventQueueDiffTest, NeverSentinelsCoexistWithDenseTraffic) {
  LockstepDriver driver;
  driver.schedule(kNever - 1);  // far-future outlier parked behind everything
  Rng rng(7);
  for (int round = 0; round < 300; ++round) {
    driver.schedule(static_cast<SimTime>(round * 10) +
                    static_cast<SimTime>(rng.next_below(10)));
    if (round % 3 == 0 && !driver.queue().empty()) driver.pop();
  }
  driver.drain();
}

TEST(EventQueueDiffTest, MassCancellationLeavesEquivalentQueues) {
  Rng rng(99);
  LockstepDriver driver;
  for (int i = 0; i < 500; ++i) {
    driver.schedule(static_cast<SimTime>(rng.next_below(100000)));
  }
  // Cancel ~90% of everything, scattered.
  for (std::size_t i = 0; i < driver.live_handles(); ++i) {
    if (rng.next_below(10) != 0) driver.cancel(i);
  }
  driver.drain();
}

}  // namespace
}  // namespace waif::sim
