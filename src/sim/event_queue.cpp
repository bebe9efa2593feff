#include "sim/event_queue.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace waif::sim {

EventHandle::EventHandle(Link* link, std::uint32_t slot,
                         std::uint64_t generation)
    : link_(link), slot_(slot), generation_(generation) {
  ++link_->refs;
}

EventHandle::EventHandle(const EventHandle& other)
    : link_(other.link_), slot_(other.slot_), generation_(other.generation_) {
  if (link_ != nullptr) ++link_->refs;
}

EventHandle::EventHandle(EventHandle&& other) noexcept
    : link_(std::exchange(other.link_, nullptr)),
      slot_(other.slot_),
      generation_(other.generation_) {}

EventHandle& EventHandle::operator=(EventHandle other) noexcept {
  std::swap(link_, other.link_);
  std::swap(slot_, other.slot_);
  std::swap(generation_, other.generation_);
  return *this;
}

EventHandle::~EventHandle() {
  if (link_ != nullptr && --link_->refs == 0) delete link_;
}

void EventHandle::cancel() {
  if (link_ != nullptr && link_->queue != nullptr) {
    link_->queue->cancel(slot_, generation_);
  }
}

bool EventHandle::active() const {
  return link_ != nullptr && link_->queue != nullptr &&
         link_->queue->holds(slot_, generation_);
}

EventQueue::EventQueue() : link_(new EventHandle::Link{this, 1}) {}

EventQueue::~EventQueue() {
  link_->queue = nullptr;
  if (--link_->refs == 0) delete link_;
}

EventHandle EventQueue::schedule(SimTime when, Callback fn) {
  WAIF_CHECK(fn != nullptr);
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = slots_[slot].next_free;
  } else {
    WAIF_CHECK(slots_.size() < kNoSlot);
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  const std::uint64_t seq = next_seq_++;
  slots_[slot].fn = std::move(fn);
  slots_[slot].seq = seq;
  heap_.push_back(Entry{when, seq, slot});
  sift_up(heap_.size() - 1);
  ++live_;
  return EventHandle(link_, slot, seq);
}

SimTime EventQueue::next_time() {
  skim();
  return heap_.empty() ? kNever : heap_.front().time;
}

EventQueue::Fired EventQueue::pop() {
  WAIF_CHECK(!empty());
  skim();
  const Entry entry = heap_.front();
  pop_front();
  --live_;
  return Fired{entry.time, release(entry.slot)};
}

void EventQueue::cancel(std::uint32_t slot, std::uint64_t seq) {
  if (!holds(slot, seq)) return;
  const Callback fn = release(slot);
  --live_;
  // fn dies here, once the queue is consistent: its captures may own handles
  // whose destructors reach back into this queue.
}

void EventQueue::clear() {
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (slots_[slot].seq != kFree) release(slot);
  }
  heap_.clear();
  live_ = 0;
}

EventQueue::Callback EventQueue::release(std::uint32_t slot) {
  Slot& freed = slots_[slot];
  Callback fn;
  fn.swap(freed.fn);
  freed.seq = kFree;
  freed.next_free = free_head_;
  free_head_ = slot;
  return fn;
}

void EventQueue::skim() {
  while (!heap_.empty() && !holds(heap_.front().slot, heap_.front().seq)) {
    pop_front();
  }
}

void EventQueue::sift_up(std::size_t at) {
  const Entry moving = heap_[at];
  while (at > 0) {
    const std::size_t parent = (at - 1) / kArity;
    if (!earlier(moving, heap_[parent])) break;
    heap_[at] = heap_[parent];
    at = parent;
  }
  heap_[at] = moving;
}

void EventQueue::pop_front() {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t size = heap_.size();
  if (size == 0) return;
  std::size_t at = 0;
  for (;;) {
    const std::size_t first = kArity * at + 1;
    if (first >= size) break;
    const std::size_t end = std::min(first + kArity, size);
    std::size_t best = first;
    for (std::size_t child = first + 1; child < end; ++child) {
      if (earlier(heap_[child], heap_[best])) best = child;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[at] = heap_[best];
    at = best;
  }
  heap_[at] = last;
}

}  // namespace waif::sim
