// Cancellable time-ordered event queue for the discrete-event simulator.
//
// Events scheduled for the same instant fire in scheduling order (a strictly
// increasing sequence number breaks ties), which makes runs deterministic.
//
// Internally this is one 4-ary min-heap in a std::vector, ordered by
// (time, seq). A heap entry is 24 trivially copyable bytes — (time, seq,
// slot) — so a sift moves no callback and touches no reference count, and
// the four children a pop compares share one or two cache lines. The
// callbacks live in a slot table beside the heap; a slot holds one pending
// event and records that event's seq, and freed slots are recycled through a
// free list. schedule() and pop() are O(log n); (time, seq) is a total order,
// so the pop order is that of any other correct priority queue. The heap and
// the slot table keep their capacity when the queue drains, so a workload
// that empties and refills the queue does not reallocate.
//
// Cancellation frees the slot at once and leaves the heap entry behind: an
// entry whose seq no longer matches its slot's is stale and is skimmed when
// it reaches the top — O(1) cancel, no heap surgery. A stale entry keeps its
// place until its own time comes up, which in the simulator's workloads
// costs at most a few percent over the live population.
//
// A handle is (link, slot, generation). An event's generation is its seq,
// unique over the queue's life, so a handle whose event fired, was cancelled
// or was cleared never matches the slot again, even after the slot is
// reused. The link is one small object per queue, shared by every handle it
// issued and counted by them; ~EventQueue nulls it, which leaves every
// outstanding handle inert.
//
// tests/sim/event_queue_diff_test.cpp drives the queue in lockstep with
// ReferenceEventQueue (a plain std::priority_queue oracle), and the
// digest-checked benches check the pop order end to end.
//
// Threading: one EventQueue (and its handles) belongs to one thread, as one
// Simulator always has. Handles may outlive the queue, but must be copied and
// destroyed on the thread that owned the queue: the link's count is a plain
// integer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "common/time.h"

namespace waif::sim {

class EventQueue;

/// Handle to a scheduled event; copyable, may outlive the queue safely.
/// Default-constructed handles refer to nothing.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& other);
  EventHandle(EventHandle&& other) noexcept;
  EventHandle& operator=(EventHandle other) noexcept;
  ~EventHandle();

  /// Prevents the event from firing. Idempotent; no-op after it fired.
  void cancel();

  /// True while the event is scheduled and has neither fired nor been
  /// cancelled.
  bool active() const;

 private:
  friend class EventQueue;
  /// The queue's side of every handle: the queue, or null once it is gone.
  struct Link {
    EventQueue* queue;
    std::size_t refs;  // the queue's own reference plus one per handle
  };
  EventHandle(Link* link, std::uint32_t slot, std::uint64_t generation);

  Link* link_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint64_t generation_ = 0;
};

/// Min-heap of (time, seq) -> callback.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue();
  /// Leaves every outstanding handle inert.
  ~EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `fn` at absolute time `when`.
  EventHandle schedule(SimTime when, Callback fn);

  /// Time of the earliest live event, or kNever when empty.
  SimTime next_time();

  /// Pops and returns the earliest live event. Pre: !empty().
  struct Fired {
    SimTime time;
    Callback fn;
  };
  Fired pop();

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live events.
  std::size_t size() const { return live_; }

  /// Drops every scheduled event; every outstanding handle goes inert.
  void clear();

 private:
  friend class EventHandle;

  struct Entry {
    SimTime time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Entry) <= 24 && std::is_trivially_copyable_v<Entry>);
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  /// Children per heap node: entry i's are kArity * i + 1 .. kArity * i +
  /// kArity, so a pop walks half the levels of a binary heap, and the
  /// children it compares share one or two cache lines.
  static constexpr std::size_t kArity = 4;

  static constexpr std::uint64_t kFree = ~std::uint64_t{0};
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  struct Slot {
    Callback fn;
    std::uint64_t seq = kFree;  // the pending event's seq; kFree when unused
    std::uint32_t next_free = 0;
  };

  bool holds(std::uint32_t slot, std::uint64_t seq) const {
    return slots_[slot].seq == seq;
  }
  /// Cancels the event in `slot` if it is still the one with `seq`.
  void cancel(std::uint32_t slot, std::uint64_t seq);
  /// Returns a slot to the free list and hands back its callback.
  Callback release(std::uint32_t slot);
  /// Discards stale entries at the front of the heap.
  void skim();
  /// Restores heap order after heap_[at] moved earlier.
  void sift_up(std::size_t at);
  /// Removes heap_.front().
  void pop_front();

  std::vector<Entry> heap_;  // includes stale entries not yet skimmed
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  EventHandle::Link* link_;
};

}  // namespace waif::sim
