// Streaming statistics used by the proxy's adaptive heuristics and by the
// experiment harness.
//
// The paper's pseudo-code (Figure 7) relies on `moving_average()` over the
// sizes of recent reads and `moving_average_difference()` over their
// timestamps; MovingAverage and IntervalAverage implement exactly those.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

namespace waif {

/// Value snapshot of a MovingAverage, suitable for serialization. `sum` is
/// captured verbatim rather than recomputed: the rolling add/subtract in
/// MovingAverage::add leaves a rounding residue that re-summing the retained
/// samples would not reproduce, and recovery must restore the average
/// bit-for-bit for replayed runs to stay byte-identical.
struct AverageSnapshot {
  std::vector<double> samples;
  double sum = 0.0;

  /// Mirrors MovingAverage::add exactly (same FP operation order) so WAL
  /// replay can advance a snapshot without a live MovingAverage.
  void add(double sample, std::size_t window);
};

/// Value snapshot of an IntervalAverage.
struct IntervalSnapshot {
  AverageSnapshot diffs;
  std::optional<double> last;

  /// Mirrors IntervalAverage::add.
  void add(double timestamp, std::size_t window);
};

/// Arithmetic mean over the most recent `window` samples.
class MovingAverage {
 public:
  explicit MovingAverage(std::size_t window);

  void add(double sample);
  /// Mean of the retained samples; 0 when no sample has been added.
  double value() const;
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }
  void reset();

  std::size_t window() const { return window_; }
  /// The retained samples, oldest first, and their running sum — what
  /// snapshot() copies, for a caller that encodes them in place.
  const std::deque<double>& samples() const { return samples_; }
  double sum() const { return sum_; }
  AverageSnapshot snapshot() const;
  /// Replaces the retained samples with `state` (truncated to the window).
  void restore(const AverageSnapshot& state);

 private:
  std::size_t window_;
  std::deque<double> samples_;
  double sum_ = 0.0;
};

/// Mean difference between consecutive values of a monotone series — the
/// paper's moving_average_difference() over read timestamps, yielding the
/// average interval between user reads.
class IntervalAverage {
 public:
  /// `window` counts retained *differences* (so window+1 timestamps).
  explicit IntervalAverage(std::size_t window);

  void add(double timestamp);
  /// Mean interval; nullopt until two timestamps have been observed.
  std::optional<double> value() const;
  void reset();

  std::size_t window() const { return diffs_.window(); }
  const MovingAverage& diffs() const { return diffs_; }
  const std::optional<double>& last() const { return last_; }
  IntervalSnapshot snapshot() const;
  void restore(const IntervalSnapshot& state);

 private:
  MovingAverage diffs_;
  std::optional<double> last_;
};

/// Exponentially-weighted moving average with smoothing factor alpha in (0,1].
class Ewma {
 public:
  explicit Ewma(double alpha);

  void add(double sample);
  double value() const;
  bool empty() const { return !seeded_; }
  void reset();

 private:
  double alpha_;
  double value_ = 0.0;
  bool seeded_ = false;
};

/// Welford's online mean/variance, for aggregating results across seeds.
class OnlineStats {
 public:
  void add(double sample);
  std::size_t count() const { return count_; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace waif
