#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace waif::sim {
namespace {

TEST(EventQueueTest, StartsEmpty) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.next_time(), kNever);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(30, [&] { order.push_back(3); });
  queue.schedule(10, [&] { order.push_back(1); });
  queue.schedule(20, [&] { order.push_back(2); });
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, TiesBreakInSchedulingOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    queue.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) queue.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueTest, PopReportsTime) {
  EventQueue queue;
  queue.schedule(123, [] {});
  EXPECT_EQ(queue.next_time(), 123);
  auto fired = queue.pop();
  EXPECT_EQ(fired.time, 123);
}

TEST(EventQueueTest, CancelPreventsFiring) {
  EventQueue queue;
  bool fired = false;
  EventHandle handle = queue.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(handle.active());
  handle.cancel();
  EXPECT_FALSE(handle.active());
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.next_time(), kNever);
  EXPECT_FALSE(fired);
}

TEST(EventQueueTest, CancelIsIdempotent) {
  EventQueue queue;
  EventHandle handle = queue.schedule(10, [] {});
  handle.cancel();
  handle.cancel();
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueueTest, CancelledEntryBuriedInHeapIsSkipped) {
  EventQueue queue;
  std::vector<int> order;
  queue.schedule(10, [&] { order.push_back(1); });
  EventHandle mid = queue.schedule(20, [&] { order.push_back(2); });
  queue.schedule(30, [&] { order.push_back(3); });
  mid.cancel();
  EXPECT_EQ(queue.size(), 2u);
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueueTest, HandleInactiveAfterFiring) {
  EventQueue queue;
  EventHandle handle = queue.schedule(10, [] {});
  queue.pop().fn();
  EXPECT_FALSE(handle.active());
  handle.cancel();  // no-op after firing
  EXPECT_EQ(queue.size(), 0u);
}

TEST(EventQueueTest, DefaultHandleIsInert) {
  EventHandle handle;
  EXPECT_FALSE(handle.active());
  handle.cancel();  // must not crash
}

TEST(EventQueueTest, ClearDropsEverythingAndInertsHandles) {
  EventQueue queue;
  EventHandle handle = queue.schedule(10, [] {});
  queue.schedule(20, [] {});
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(handle.active());
}

TEST(EventQueueTest, HandleOutlivesQueueSafely) {
  EventHandle handle;
  {
    EventQueue queue;
    handle = queue.schedule(10, [] {});
  }
  handle.cancel();  // queue gone; must not crash
}

TEST(EventQueueTest, SizeTracksLiveEventsExactly) {
  EventQueue queue;
  EventHandle a = queue.schedule(1, [] {});
  EventHandle b = queue.schedule(2, [] {});
  queue.schedule(3, [] {});
  EXPECT_EQ(queue.size(), 3u);
  a.cancel();
  EXPECT_EQ(queue.size(), 2u);
  b.cancel();
  EXPECT_EQ(queue.size(), 1u);
  queue.pop();
  EXPECT_EQ(queue.size(), 0u);
}

// The next tests pin the handle contract: a handle names one event, never
// the storage that event used, so nothing a stale handle does can reach a
// later event that happens to reuse that storage.

TEST(EventQueueTest, StaleHandleCannotTouchTheEventThatReusedItsSlot) {
  EventQueue queue;
  std::vector<int> order;
  EventHandle fired = queue.schedule(1, [&] { order.push_back(1); });
  queue.pop().fn();
  EventHandle cancelled = queue.schedule(2, [&] { order.push_back(2); });
  cancelled.cancel();
  // Both events are gone; these two take whatever storage they left.
  EventHandle third = queue.schedule(3, [&] { order.push_back(3); });
  EventHandle fourth = queue.schedule(4, [&] { order.push_back(4); });

  EXPECT_FALSE(fired.active());
  EXPECT_FALSE(cancelled.active());
  fired.cancel();
  cancelled.cancel();
  EXPECT_TRUE(third.active());
  EXPECT_TRUE(fourth.active());
  EXPECT_EQ(queue.size(), 2u);
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 4}));
}

TEST(EventQueueTest, CancelAfterFireIsANoOp) {
  EventQueue queue;
  int fired = 0;
  EventHandle handle = queue.schedule(10, [&] { ++fired; });
  const EventHandle copy = handle;
  queue.schedule(20, [&] { ++fired; });
  auto first = queue.pop();
  EXPECT_FALSE(handle.active());  // inert once popped, before the callback runs
  first.fn();
  handle.cancel();
  EventHandle(copy).cancel();
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.next_time(), 20);
  queue.pop().fn();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, HandleOutlivingItsQueueIsInert) {
  EventHandle pending;
  EventHandle cancelled;
  {
    EventQueue queue;
    pending = queue.schedule(10, [] {});
    cancelled = queue.schedule(20, [] {});
    cancelled.cancel();
    EXPECT_TRUE(pending.active());
  }
  EXPECT_FALSE(pending.active());
  EXPECT_FALSE(cancelled.active());
  EventHandle copy = pending;  // copies of a dangling link stay inert too
  copy.cancel();
  pending.cancel();
  EXPECT_FALSE(copy.active());
}

TEST(EventQueueTest, ClearMakesEveryHandleInert) {
  EventQueue queue;
  int fired = 0;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(queue.schedule(10 + i, [&] { ++fired; }));
  }
  handles[3].cancel();
  queue.pop().fn();  // handles[0] fired
  queue.clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.next_time(), kNever);
  for (const EventHandle& handle : handles) EXPECT_FALSE(handle.active());

  // Events scheduled after the clear are out of reach of the old handles.
  EventHandle fresh = queue.schedule(5, [&] { ++fired; });
  queue.schedule(6, [&] { ++fired; });
  for (EventHandle& handle : handles) handle.cancel();
  EXPECT_TRUE(fresh.active());
  EXPECT_EQ(queue.size(), 2u);
  while (!queue.empty()) queue.pop().fn();
  EXPECT_EQ(fired, 3);
}

TEST(EventQueueTest, CopiedAndMovedHandlesBehaveLikeTheOriginal) {
  EventQueue queue;
  bool a_fired = false;
  bool b_fired = false;
  EventHandle a = queue.schedule(10, [&] { a_fired = true; });
  EventHandle b = queue.schedule(20, [&] { b_fired = true; });

  EventHandle a_copy = a;
  EXPECT_TRUE(a_copy.active());
  a_copy.cancel();  // cancelling through a copy cancels the one event
  EXPECT_FALSE(a.active());
  EXPECT_FALSE(a_copy.active());
  EXPECT_EQ(queue.size(), 1u);

  EventHandle b_moved = std::move(b);
  EXPECT_TRUE(b_moved.active());
  EXPECT_FALSE(b.active());  // NOLINT(bugprone-use-after-move): refers to nothing
  EventHandle b_assigned;
  b_assigned = b_moved;
  b_moved = EventHandle();  // dropping one copy leaves the event scheduled
  EXPECT_TRUE(b_assigned.active());
  EXPECT_EQ(queue.size(), 1u);

  while (!queue.empty()) queue.pop().fn();
  EXPECT_FALSE(a_fired);
  EXPECT_TRUE(b_fired);
  EXPECT_FALSE(b_assigned.active());
}

TEST(EventQueueTest, SizeStaysExactWhileCancelledEntriesWaitToBeSkimmed) {
  EventQueue queue;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 16; ++i) {
    handles.push_back(queue.schedule(100 - i, [] {}));  // reverse order
  }
  // The current top (time 85), one buried entry, and the same one twice.
  handles[15].cancel();
  handles[4].cancel();
  handles[4].cancel();
  EXPECT_EQ(queue.size(), 14u);
  EXPECT_EQ(queue.next_time(), 86);
  EXPECT_EQ(queue.size(), 14u);
  // Cancelled entries behind live ones still count nowhere.
  handles[0].cancel();
  handles[1].cancel();
  EXPECT_EQ(queue.size(), 12u);
  std::size_t popped = 0;
  while (!queue.empty()) {
    queue.pop();
    ++popped;
    EXPECT_EQ(queue.size(), 12u - popped);
  }
  EXPECT_EQ(popped, 12u);
  EXPECT_EQ(queue.next_time(), kNever);
}

TEST(EventQueueTest, ExtremeTimesOrderCorrectly) {
  EventQueue queue;
  queue.schedule(kNever - 1, [] {});
  queue.schedule(0, [] {});
  EXPECT_EQ(queue.next_time(), 0);
}

}  // namespace
}  // namespace waif::sim
