// The span recorder and its self-time arithmetic.
#include "spans.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

Span span(std::int64_t parent, std::int64_t start, std::int64_t end,
          std::uint64_t allocs_start = 0, std::uint64_t allocs_end = 0) {
  Span s;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.allocs_start = allocs_start;
  s.allocs_end = allocs_end;
  return s;
}

TEST(SelfTimes, NestedSpansSubtractOnlyTheirDirectChildren) {
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 40),
                                   span(1, 20, 30)};
  EXPECT_EQ(self_times(spans), (std::vector<std::int64_t>{70, 20, 10}));
}

TEST(SelfTimes, SiblingSpansAreSummed) {
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 20),
                                   span(0, 30, 50)};
  EXPECT_EQ(self_times(spans), (std::vector<std::int64_t>{70, 10, 20}));
}

TEST(SelfTimes, OverlappingSiblingsAreCoveredOnce) {
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 10, 40),
                                   span(0, 30, 60), span(0, 35, 45)};
  EXPECT_EQ(self_times(spans)[0], 50);
}

TEST(SelfTimes, ZeroLengthSpans) {
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 50, 50),
                                   span(-1, 200, 200), span(2, 200, 200)};
  EXPECT_EQ(self_times(spans), (std::vector<std::int64_t>{100, 0, 0, 0}));
}

TEST(SelfTimes, ChildOutlivingItsParentIsClippedToTheParent) {
  const std::vector<Span> spans = {span(-1, 0, 100), span(0, 80, 150)};
  EXPECT_EQ(self_times(spans), (std::vector<std::int64_t>{80, 70}));
}

TEST(SelfAllocs, ChildrenAllocationsAreSubtractedAndClamped) {
  const std::vector<Span> spans = {span(-1, 0, 100, 0, 10),
                                   span(0, 10, 20, 2, 5),
                                   span(-1, 200, 300, 20, 21),
                                   span(2, 250, 400, 20, 30)};
  EXPECT_EQ(self_allocs(spans), (std::vector<std::uint64_t>{7, 3, 0, 10}));
}

TEST(SpanRecorder, ParentIsTheLatestSpanStillOpen) {
  SpanRecorder recorder;
  const std::uint32_t a = recorder.intern("a");
  const std::uint32_t b = recorder.intern("b");
  EXPECT_EQ(recorder.intern("a"), a);

  const auto outer = recorder.begin(a, 7);
  const auto inner = recorder.begin(b);
  recorder.end(outer);           // the parent's callback returns first
  const auto late = recorder.begin(a);
  recorder.end(late);
  recorder.end(inner, 9);        // the child outlives its parent
  EXPECT_TRUE(recorder.idle());

  const std::vector<Span>& spans = recorder.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[outer].parent, -1);
  EXPECT_EQ(spans[outer].id, 7u);
  EXPECT_EQ(spans[inner].parent, static_cast<std::int64_t>(outer));
  EXPECT_EQ(spans[inner].id, 9u);
  EXPECT_EQ(spans[late].parent, static_cast<std::int64_t>(inner));
  EXPECT_GE(spans[inner].end_ns, spans[outer].end_ns);
}

TEST(SpanRecorder, TotalsFoldSelfTimePerName) {
  SpanRecorder recorder;
  const std::uint32_t a = recorder.intern("a");
  const std::uint32_t b = recorder.intern("b");
  {
    ScopedSpan outer(&recorder, a);
    { ScopedSpan inner(&recorder, b); }
    { ScopedSpan inner(&recorder, b); }
  }
  { ScopedSpan none(nullptr, a); }  // a null recorder records nothing

  const std::vector<LayerTotals> totals = recorder.totals();
  ASSERT_EQ(totals.size(), 2u);
  EXPECT_EQ(totals[a].calls, 1u);
  EXPECT_EQ(totals[b].calls, 2u);
  EXPECT_EQ(totals[a].self_ns + totals[b].self_ns, totals[a].total_ns);
  EXPECT_EQ(totals[b].self_ns, totals[b].total_ns);
}

}  // namespace
}  // namespace perfbench
