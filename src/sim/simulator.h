// The discrete-event simulator driving every experiment.
//
// Single-threaded by design: one virtual clock, one event queue. Components
// (broker, proxy, link, device, user) hold a Simulator& and schedule callbacks;
// the paper's `schedule()` primitive maps to schedule_after()/schedule_at().
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/time.h"
#include "sim/event_queue.h"

namespace waif::sim {

/// Events fired across every Simulator this process has destroyed (each
/// folds its count in from its destructor) — the denominator of the
/// BENCH_*.json events-per-second figures. Thread-safe.
std::uint64_t total_events_fired();

class Simulator {
 public:
  using Callback = EventQueue::Callback;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Folds this simulator's fired-event count into total_events_fired().
  ~Simulator();

  /// Current virtual time.
  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute virtual time `when` (>= now()).
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Schedules `fn` `delay` after the current time (delay >= 0).
  EventHandle schedule_after(SimDuration delay, Callback fn);

  /// Runs events until the queue empties or the clock would pass `deadline`.
  /// Events scheduled exactly at `deadline` do fire; afterwards the clock
  /// rests at `deadline` (unless stop() was called or deadline is kNever).
  void run_until(SimTime deadline);

  /// Runs until the queue is empty.
  void run();

  /// Fires exactly one event if any is pending; returns whether one fired.
  bool step();

  /// Stops the current run_until()/run() after the in-flight event returns.
  void stop() { stopped_ = true; }

  std::size_t pending_events() const { return queue_.size(); }

  /// Total number of events fired since construction.
  std::uint64_t fired_events() const { return fired_; }

  /// Cancels everything scheduled; the clock is unchanged.
  void clear() { queue_.clear(); }

  /// Registers a hook that runs after every fired event's callback returns,
  /// before the next event is popped — the "end of event" boundary (the WAL
  /// group-commit flush hangs here). Returns an id for removal. Hooks must
  /// not add or remove hooks from inside a hook.
  std::size_t add_post_event_hook(std::function<void()> hook);
  void remove_post_event_hook(std::size_t id);

 private:
  void run_post_event_hooks() {
    for (auto& [id, hook] : post_event_hooks_) hook();
  }

  EventQueue queue_;
  SimTime now_ = 0;
  std::uint64_t fired_ = 0;
  bool stopped_ = false;
  std::vector<std::pair<std::size_t, Callback>> post_event_hooks_;
  std::size_t next_hook_id_ = 1;
};

}  // namespace waif::sim
