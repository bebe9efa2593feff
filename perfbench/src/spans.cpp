#include "spans.h"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "common/alloc_stats.h"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double LayerTotals::self_ns_per_call() const {
  return calls > 0 ? static_cast<double>(self_ns) / static_cast<double>(calls)
                   : 0.0;
}

double LayerTotals::allocs_per_call() const {
  return calls > 0
             ? static_cast<double>(self_allocs) / static_cast<double>(calls)
             : 0.0;
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::int64_t> self(spans.size());
  struct Child {
    std::int64_t parent;
    std::int64_t start;
    std::int64_t end;
  };
  std::vector<Child> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end_ns - spans[i].start_ns;
    if (spans[i].parent >= 0) {
      children.push_back({spans[i].parent, spans[i].start_ns, spans[i].end_ns});
    }
  }
  std::sort(children.begin(), children.end(),
            [](const Child& a, const Child& b) {
              return a.parent != b.parent ? a.parent < b.parent
                                          : a.start < b.start;
            });
  // Per parent: clip the children to the parent's interval and sum the
  // union of what they cover.
  for (std::size_t g = 0; g < children.size();) {
    const auto parent = static_cast<std::size_t>(children[g].parent);
    const std::int64_t lo = spans[parent].start_ns;
    const std::int64_t hi = spans[parent].end_ns;
    std::int64_t covered = 0;
    std::int64_t reach = lo;  // end of the union so far
    for (; g < children.size() &&
           static_cast<std::size_t>(children[g].parent) == parent;
         ++g) {
      const std::int64_t start = std::max(children[g].start, reach);
      const std::int64_t end = std::min(children[g].end, hi);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[parent] -= covered;
  }
  return self;
}

std::vector<std::uint64_t> self_allocs(const std::vector<Span>& spans) {
  std::vector<std::uint64_t> inclusive(spans.size());
  std::vector<std::uint64_t> in_children(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    inclusive[i] = spans[i].allocs_end - spans[i].allocs_start;
    if (spans[i].parent >= 0) {
      in_children[static_cast<std::size_t>(spans[i].parent)] += inclusive[i];
    }
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    inclusive[i] = inclusive[i] > in_children[i] ? inclusive[i] - in_children[i]
                                                 : 0;
  }
  return inclusive;
}

std::uint32_t SpanRecorder::intern(std::string_view name) {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) {
    return static_cast<std::uint32_t>(it - names_.begin());
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

SpanRecorder::Handle SpanRecorder::begin(std::uint32_t name, std::uint64_t id) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.id = id;
  span.allocs_start = waif::alloc_stats::allocation_count();
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanRecorder::end(Handle handle, std::uint64_t id) {
  Span& span = spans_[handle];
  span.end_ns = now_ns();
  span.allocs_end = waif::alloc_stats::allocation_count();
  if (id != 0) span.id = id;
  const auto it = std::find(open_.rbegin(), open_.rend(), handle);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

void SpanRecorder::clear() {
  spans_.clear();
  open_.clear();
}

std::vector<LayerTotals> SpanRecorder::totals() const {
  std::vector<LayerTotals> totals(names_.size());
  const std::vector<std::int64_t> self = self_times(spans_);
  const std::vector<std::uint64_t> allocs = self_allocs(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& layer = totals[spans_[i].name];
    ++layer.calls;
    layer.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    layer.self_ns += self[i];
    layer.self_allocs += allocs[i];
  }
  return totals;
}

void SpanRecorder::write_tsv(std::ostream& out) const {
  const std::vector<std::int64_t> self = self_times(spans_);
  const std::vector<std::uint64_t> allocs = self_allocs(spans_);
  out << "span\tname\tparent\tid\tstart_ns\tend_ns\tself_ns\tself_allocs\n";
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << '\t' << names_[span.name] << '\t' << span.parent << '\t'
        << span.id << '\t' << span.start_ns - origin << '\t'
        << span.end_ns - origin << '\t' << self[i] << '\t' << allocs[i]
        << '\n';
  }
}

}  // namespace perfbench
