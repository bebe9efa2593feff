#include "common/moving_stats.h"

#include <cmath>

#include "common/check.h"

namespace waif {

MovingAverage::MovingAverage(std::size_t window) : window_(window) {
  WAIF_CHECK(window > 0);
}

void MovingAverage::add(double sample) {
  samples_.push_back(sample);
  sum_ += sample;
  if (samples_.size() > window_) {
    sum_ -= samples_.front();
    samples_.pop_front();
  }
}

double MovingAverage::value() const {
  if (samples_.empty()) return 0.0;
  return sum_ / static_cast<double>(samples_.size());
}

void MovingAverage::reset() {
  samples_.clear();
  sum_ = 0.0;
}

IntervalAverage::IntervalAverage(std::size_t window) : diffs_(window) {}

void IntervalAverage::add(double timestamp) {
  if (last_.has_value()) diffs_.add(timestamp - *last_);
  last_ = timestamp;
}

std::optional<double> IntervalAverage::value() const {
  if (diffs_.empty()) return std::nullopt;
  return diffs_.value();
}

void IntervalAverage::reset() {
  diffs_.reset();
  last_.reset();
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  WAIF_CHECK(alpha > 0.0 && alpha <= 1.0);
}

void Ewma::add(double sample) {
  if (!seeded_) {
    value_ = sample;
    seeded_ = true;
  } else {
    value_ += alpha_ * (sample - value_);
  }
}

double Ewma::value() const { return value_; }

void Ewma::reset() {
  value_ = 0.0;
  seeded_ = false;
}

void OnlineStats::add(double sample) {
  if (count_ == 0) {
    min_ = sample;
    max_ = sample;
  } else {
    if (sample < min_) min_ = sample;
    if (sample > max_) max_ = sample;
  }
  ++count_;
  const double delta = sample - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (sample - mean_);
}

double OnlineStats::mean() const { return mean_; }

double OnlineStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::min() const { return min_; }

double OnlineStats::max() const { return max_; }

}  // namespace waif
