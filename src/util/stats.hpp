// Rank binning and summary statistics used by the measurement reports.
// The paper presents every per-domain metric averaged over 10k-rank bins.
#pragma once

#include <cstdint>
#include <vector>

namespace ripki::util {

/// Accumulates (count, sum, sum of squares, min, max) for a stream of
/// observations; all derived statistics are O(1).
class Accumulator {
 public:
  void add(double x);
  void merge(const Accumulator& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const;
  double variance() const;  // population variance
  double stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-width bins over a rank axis [1, max_rank]; e.g. the paper's
/// 10,000-domain bins over the 1M Alexa ranks.
class RankAxis {
 public:
  /// `bin_width` ranks per bin. Ranks beyond max_rank clamp to the last bin.
  RankAxis(std::uint64_t max_rank, std::uint64_t bin_width);

  std::size_t bin_count() const;
  std::size_t bin_index(std::uint64_t rank) const;
  /// Inclusive rank range covered by bin `i`.
  std::uint64_t bin_lo(std::size_t i) const;
  std::uint64_t bin_hi(std::size_t i) const;

  bool operator==(const RankAxis&) const = default;

 private:
  std::uint64_t max_rank_;
  std::uint64_t bin_width_;
};

/// One Accumulator per bin of a RankAxis.
class RankBinner {
 public:
  RankBinner(std::uint64_t max_rank, std::uint64_t bin_width);

  std::size_t bin_count() const { return bins_.size(); }
  std::size_t bin_index(std::uint64_t rank) const { return axis_.bin_index(rank); }
  std::uint64_t bin_lo(std::size_t i) const { return axis_.bin_lo(i); }
  std::uint64_t bin_hi(std::size_t i) const { return axis_.bin_hi(i); }

  void add(std::uint64_t rank, double value);
  const Accumulator& bin(std::size_t i) const { return bins_[i]; }

  /// Means per bin (NaN-free: empty bins report 0).
  std::vector<double> bin_means() const;

 private:
  RankAxis axis_;
  std::vector<Accumulator> bins_;
};

/// Mean of a vector (0 for empty input).
double mean_of(const std::vector<double>& xs);

}  // namespace ripki::util
