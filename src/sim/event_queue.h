// Cancellable time-ordered event queue for the discrete-event simulator.
//
// Events scheduled for the same instant fire in scheduling order (a strictly
// increasing sequence number breaks ties), which makes runs deterministic.
// Cancellation is lazy: a handle flips a shared flag and the entry is skipped
// when it reaches the top of the heap — O(1) cancel, no heap surgery. A
// cancelled entry keeps its slot until its own time comes up, which in the
// simulator's workloads costs at most a few percent over the live population.
//
// Internally this is one binary min-heap in a std::vector, ordered by
// (time, seq): schedule() and pop() are O(log n), and the vector keeps its
// capacity when it drains, so a workload that empties and refills the queue
// does not reallocate. tests/sim/event_queue_diff_test.cpp drives it in
// lockstep with ReferenceEventQueue (a plain std::priority_queue oracle), and
// the digest-checked benches check the pop order end to end.
//
// Handle states are carved from a free-list arena (common/pool_allocator.h)
// shared with the out-standing handles, so a steady-state schedule/pop cycle
// performs zero heap allocations after warm-up.
//
// Threading: one EventQueue (and its handles) belongs to one thread, as one
// Simulator always has. Handles may outlive the queue, but must be destroyed
// on the thread that owned the queue.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/pool_allocator.h"
#include "common/time.h"

namespace waif::sim {

/// Handle to a scheduled event; copyable, may outlive the queue safely.
/// Default-constructed handles refer to nothing.
class EventHandle {
 public:
  EventHandle() = default;

  /// Prevents the event from firing. Idempotent; no-op after it fired.
  void cancel();

  /// True while the event is scheduled and has neither fired nor been
  /// cancelled.
  bool active() const;

 private:
  friend class EventQueue;
  struct State {
    bool cancelled = false;
    bool fired = false;
    // Live-event counter shared with the owning queue; keeps size() exact
    // even though cancelled entries are removed from the heap lazily.
    std::shared_ptr<std::size_t> live;
  };
  explicit EventHandle(std::shared_ptr<State> state) : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Min-heap of (time, seq) -> callback.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue();

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
  bool empty() const { return *live_ == 0; }

  /// Number of live events.
  std::size_t size() const { return *live_; }

  /// Drops every scheduled event.
  void clear();

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    Callback fn;
    std::shared_ptr<EventHandle::State> state;
  };
  /// With std::push_heap/pop_heap ("max" heap by Later) the front is the
  /// earliest (time, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Discards cancelled entries at the front of the heap.
  void skim();

  std::vector<Entry> heap_;  // includes cancelled entries not yet skimmed
  std::uint64_t next_seq_ = 0;
  std::shared_ptr<std::size_t> live_;
  std::shared_ptr<PoolArena> state_arena_;
};

}  // namespace waif::sim
