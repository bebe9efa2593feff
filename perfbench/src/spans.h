// In-memory span recorder for the traced benchmark pass.
//
// A span is one timed call into a layer: name, start, end, the span that was
// open when it began (its parent) and the notification it concerns. Spans
// are kept in memory and written out when the run ends; the per-layer
// numbers are folded from them afterwards:
//
//   self time   = the span's duration minus the part of its [start, end]
//                 interval that its child spans cover (children clipped to
//                 the parent, overlapping children counted once);
//   self allocs = heap allocations inside the span minus those inside its
//                 direct children (clamped at zero).
//
// Spans normally nest, but begin()/end() take explicit handles so a span can
// be opened in one callback and closed in a later one, which lets a child
// outlive the callback of the span that was open when it began.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
std::int64_t now_ns();

struct Span {
  std::uint32_t name = 0;
  /// Index of the span open when this one began; -1 for a root.
  std::int64_t parent = -1;
  /// NotificationId the span concerns (0 = none).
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Process-wide allocation counter at begin and end.
  std::uint64_t allocs_start = 0;
  std::uint64_t allocs_end = 0;
};

/// Per-name totals folded from a span list.
struct LayerTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::uint64_t self_allocs = 0;

  double self_ns_per_call() const;
  double allocs_per_call() const;
};

/// Self time of every span, index-aligned with `spans`.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Self allocations of every span, index-aligned with `spans`.
std::vector<std::uint64_t> self_allocs(const std::vector<Span>& spans);

class SpanRecorder {
 public:
  using Handle = std::size_t;

  /// Registers a span name; the returned id is what begin() takes.
  std::uint32_t intern(std::string_view name);

  /// Opens a span whose parent is the most recently opened span that is
  /// still open.
  Handle begin(std::uint32_t name, std::uint64_t id = 0);
  /// Closes `span`; `id` (when non-zero) replaces the notification id, for
  /// calls that learn it only on return (a publish).
  void end(Handle span, std::uint64_t id = 0);

  const std::vector<Span>& spans() const { return spans_; }
  bool idle() const { return open_.empty(); }
  void clear();

  /// Totals per interned name (index = name id).
  std::vector<LayerTotals> totals() const;

  /// One line per span: name, parent, id, start, end, self_ns, allocs.
  void write_tsv(std::ostream& out) const;

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<Handle> open_;
};

/// Opens a span for the lifetime of the scope; a null recorder records
/// nothing, so untraced code paths pay one branch.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::uint32_t name, std::uint64_t id = 0)
      : recorder_(recorder),
        handle_(recorder != nullptr ? recorder->begin(name, id) : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->end(handle_, id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Notification id learned inside the scope.
  void set_id(std::uint64_t id) { id_ = id; }

 private:
  SpanRecorder* recorder_;
  SpanRecorder::Handle handle_;
  std::uint64_t id_ = 0;
};

}  // namespace perfbench
