#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace ripki::util {

void Accumulator::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  sum_sq_ += x * x;
}

void Accumulator::merge(const Accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
  sum_sq_ += other.sum_sq_;
}

double Accumulator::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Accumulator::variance() const {
  if (count_ == 0) return 0.0;
  const double m = mean();
  const double v = sum_sq_ / static_cast<double>(count_) - m * m;
  return v < 0.0 ? 0.0 : v;  // guard tiny negative from rounding
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

RankAxis::RankAxis(std::uint64_t max_rank, std::uint64_t bin_width)
    : max_rank_(max_rank), bin_width_(bin_width) {
  assert(max_rank > 0 && bin_width > 0);
}

std::size_t RankAxis::bin_count() const {
  return static_cast<std::size_t>((max_rank_ + bin_width_ - 1) / bin_width_);
}

std::size_t RankAxis::bin_index(std::uint64_t rank) const {
  if (rank < 1) rank = 1;
  if (rank > max_rank_) rank = max_rank_;
  return static_cast<std::size_t>((rank - 1) / bin_width_);
}

std::uint64_t RankAxis::bin_lo(std::size_t i) const {
  return static_cast<std::uint64_t>(i) * bin_width_ + 1;
}

std::uint64_t RankAxis::bin_hi(std::size_t i) const {
  return std::min(max_rank_, (static_cast<std::uint64_t>(i) + 1) * bin_width_);
}

RankBinner::RankBinner(std::uint64_t max_rank, std::uint64_t bin_width)
    : axis_(max_rank, bin_width), bins_(axis_.bin_count()) {}

void RankBinner::add(std::uint64_t rank, double value) {
  bins_[bin_index(rank)].add(value);
}

std::vector<double> RankBinner::bin_means() const {
  std::vector<double> out(bins_.size());
  for (std::size_t i = 0; i < bins_.size(); ++i) out[i] = bins_[i].mean();
  return out;
}

double mean_of(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

}  // namespace ripki::util
