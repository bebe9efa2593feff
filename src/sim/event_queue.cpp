#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace waif::sim {

void EventHandle::cancel() {
  if (!state_ || state_->cancelled || state_->fired) return;
  state_->cancelled = true;
  if (state_->live) --*state_->live;
}

bool EventHandle::active() const {
  return state_ && !state_->cancelled && !state_->fired;
}

EventQueue::EventQueue()
    : live_(std::make_shared<std::size_t>(0)),
      state_arena_(std::make_shared<PoolArena>()) {}

EventHandle EventQueue::schedule(SimTime when, Callback fn) {
  WAIF_CHECK(fn != nullptr);
  auto state = std::allocate_shared<EventHandle::State>(
      PoolAllocator<EventHandle::State>(state_arena_));
  state->live = live_;
  heap_.push_back(Entry{when, next_seq_++, std::move(fn), state});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++*live_;
  return EventHandle(std::move(state));
}

SimTime EventQueue::next_time() {
  skim();
  return heap_.empty() ? kNever : heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  WAIF_CHECK(!empty());
  skim();
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Entry entry = std::move(heap_.back());
  heap_.pop_back();
  entry.state->fired = true;
  --*live_;
  return Fired{entry.time, std::move(entry.fn)};
}

void EventQueue::clear() {
  for (Entry& entry : heap_) {
    entry.state->cancelled = true;  // so outstanding handles go inert
  }
  heap_.clear();
  *live_ = 0;
}

void EventQueue::skim() {
  while (!heap_.empty() && heap_.front().state->cancelled) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

}  // namespace waif::sim
