// A plain std::priority_queue implementation of the event queue, kept as the
// correctness oracle for sim::EventQueue.
//
// tests/sim/event_queue_diff_test.cpp drives randomized seeded interleavings
// of schedule/cancel/pop through both queues and asserts identical pop order
// and cancel semantics. Keep this in lockstep with the EventQueue API, but do
// NOT "optimize" it — its value is being the obviously correct O(log n)
// baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/time.h"

namespace waif::sim {

/// Handle to an event scheduled on a ReferenceEventQueue; same contract as
/// EventHandle.
class ReferenceEventHandle {
 public:
  ReferenceEventHandle() = default;

  void cancel() {
    if (!state_ || state_->cancelled || state_->fired) return;
    state_->cancelled = true;
    if (state_->live) --*state_->live;
  }

  bool active() const { return state_ && !state_->cancelled && !state_->fired; }

 private:
  friend class ReferenceEventQueue;
  struct State {
    bool cancelled = false;
    bool fired = false;
    std::shared_ptr<std::size_t> live;
  };
  explicit ReferenceEventHandle(std::shared_ptr<State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<State> state_;
};

/// Min-heap of (time, seq) -> callback; same contract as EventQueue.
class ReferenceEventQueue {
 public:
  using Callback = std::function<void()>;

  ReferenceEventQueue() : live_(std::make_shared<std::size_t>(0)) {}

  ReferenceEventHandle schedule(SimTime when, Callback fn) {
    auto state = std::make_shared<ReferenceEventHandle::State>();
    state->live = live_;
    heap_.push(Entry{when, next_seq_++, std::move(fn), state});
    ++*live_;
    return ReferenceEventHandle(std::move(state));
  }

  SimTime next_time() {
    skim();
    return heap_.empty() ? kNever : heap_.top().time;
  }

  struct Fired {
    SimTime time;
    Callback fn;
  };

  Fired pop() {
    skim();
    const Entry& top = heap_.top();
    Fired fired{top.time, std::move(top.fn)};
    top.state->fired = true;
    --*live_;
    heap_.pop();
    return fired;
  }

  bool empty() const { return *live_ == 0; }
  std::size_t size() const { return *live_; }

  void clear() {
    while (!heap_.empty()) {
      heap_.top().state->cancelled = true;
      heap_.pop();
    }
    *live_ = 0;
  }

 private:
  struct Entry {
    SimTime time;
    std::uint64_t seq;
    mutable Callback fn;
    std::shared_ptr<ReferenceEventHandle::State> state;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void skim() {
    while (!heap_.empty() && heap_.top().state->cancelled) heap_.pop();
  }

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  std::uint64_t next_seq_ = 0;
  std::shared_ptr<std::size_t> live_;
};

}  // namespace waif::sim
