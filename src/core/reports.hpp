// Per-figure/table aggregations over the pipeline dataset — one function
// per artifact of the paper's evaluation (§4). The bench harnesses print
// these; the integration tests assert the shape claims on them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/classifiers.hpp"
#include "core/dataset.hpp"
#include "util/stats.hpp"

namespace ripki::core::reports {

/// The paper bins the 1M rank axis into 10k-domain bins.
inline constexpr std::uint64_t kPaperBinWidth = 10'000;

// --- Figure 3: www vs w/o-www prefix overlap ------------------------------

struct OverlapRow {
  std::uint64_t rank_lo = 0;
  std::uint64_t rank_hi = 0;
  std::uint64_t domains = 0;          // both variants resolved
  double mean_equal_fraction = 0.0;   // |www ∩ apex| / |www ∪ apex|
};

std::vector<OverlapRow> figure3_overlap(const Dataset& dataset,
                                        std::uint64_t bin_width = kPaperBinWidth);

// --- Figure 4: RPKI validation outcome by rank ----------------------------

struct RpkiByRankRow {
  std::uint64_t rank_lo = 0;
  std::uint64_t rank_hi = 0;
  std::uint64_t domains = 0;
  double covered = 0.0;    // valid + invalid (the paper's "secured")
  double valid = 0.0;
  double invalid = 0.0;
  double not_found = 0.0;
};

/// Headline numbers quoted in §4.1.
struct Figure4Summary {
  double mean_coverage = 0.0;          // "on average, only 6% ..."
  double top_100k_coverage = 0.0;      // "≈4.0%"
  double last_100k_coverage = 0.0;     // "≈5.5%"
  double mean_invalid = 0.0;           // "roughly 0.09%"
};

/// Integer Figure-4 counts, and the one place Figure-4 means are computed.
/// A row counts when its primary variant resolved to n >= 1 pairs. For
/// each rank bin, and for all rows, the top 100k ranks and the last 100k
/// ranks, the tally keeps per pair count n the number of such rows and
/// the sums of their covered, valid, invalid and not-found pairs. A mean
/// over a group is the sum over ascending n of (pairs with the outcome
/// among rows with n pairs) / n, divided by the group's rows. The counts
/// are integers and the summation order is fixed, so a tally kept up to
/// date row by row reads exactly like one filled from the rows in one
/// pass.
class Figure4Tally {
 public:
  explicit Figure4Tally(std::uint64_t rank_space = 0,
                        std::uint64_t bin_width = kPaperBinWidth);

  /// Tallies every row of `dataset`.
  static Figure4Tally of(const Dataset& dataset,
                         std::uint64_t bin_width = kPaperBinWidth);

  /// Adds (sign > 0) or removes (sign < 0) one row at `rank`. `Row` is a
  /// core::DomainMeasurement or a stored DomainTable::RecordView — the
  /// same rows PipelineCounters::count_row takes.
  template <typename Row>
  void count_row(int sign, std::uint64_t rank, const Row& row) {
    const auto& primary = row.www.resolved ? row.www : row.apex;
    if (!primary.resolved || primary.pairs.empty()) return;
    Cell cell{.rows = 1};
    for (const auto& pair : primary.pairs) {
      switch (pair.validity) {
        case rpki::OriginValidity::kValid: ++cell.valid; break;
        case rpki::OriginValidity::kInvalid: ++cell.invalid; break;
        case rpki::OriginValidity::kNotFound: ++cell.not_found; break;
      }
    }
    cell.covered = cell.valid + cell.invalid;
    add(sign, rank, primary.pairs.size(), cell);
  }

  std::vector<RpkiByRankRow> bins() const;
  Figure4Summary summary() const;

  bool operator==(const Figure4Tally&) const = default;

 private:
  struct Cell {
    std::int64_t rows = 0;
    std::int64_t covered = 0;
    std::int64_t valid = 0;
    std::int64_t invalid = 0;
    std::int64_t not_found = 0;
    bool operator==(const Cell&) const = default;
  };
  /// Cells indexed by pair count n - 1, without empty trailing cells, so
  /// equal counts compare equal however they were reached.
  using Group = std::vector<Cell>;
  using Outcome = std::int64_t Cell::*;

  void add(int sign, std::uint64_t rank, std::size_t pairs, const Cell& cell);
  static void add_to(Group& group, int sign, std::size_t pairs,
                     const Cell& cell);
  static std::int64_t rows_of(const Group& group);
  static double mean(const Group& group, Outcome outcome);

  util::RankAxis axis_;
  std::uint64_t tail_start_;
  std::vector<Group> bins_;
  Group all_;
  Group top_;
  Group tail_;
};

std::vector<RpkiByRankRow> figure4_rpki_by_rank(
    const Dataset& dataset, std::uint64_t bin_width = kPaperBinWidth);

Figure4Summary figure4_summary(const Dataset& dataset);

// --- Table 1: first domains with RPKI coverage ----------------------------

enum class CoverageMark : std::uint8_t { kNone, kPartial, kFull, kNotAvailable };

const char* to_string(CoverageMark mark);

struct Table1Row {
  std::uint64_t rank = 0;
  std::string name;
  CoverageMark www_mark = CoverageMark::kNotAvailable;
  std::uint32_t www_covered = 0;
  std::uint32_t www_total = 0;
  CoverageMark apex_mark = CoverageMark::kNotAvailable;
  std::uint32_t apex_covered = 0;
  std::uint32_t apex_total = 0;
};

/// First `limit` domains (by rank) with at least one covered pair.
std::vector<Table1Row> table1_top_covered(const Dataset& dataset,
                                          std::size_t limit = 10);

// --- Figure 5: CDN popularity by rank, two classifiers --------------------

struct CdnShareRow {
  std::uint64_t rank_lo = 0;
  std::uint64_t rank_hi = 0;
  std::uint64_t domains = 0;
  double chain_fraction = 0.0;  // paper's CNAME-chain heuristic
  /// HTTPArchive-style pattern classifier; nullopt beyond its coverage.
  std::optional<double> pattern_fraction;
};

std::vector<CdnShareRow> figure5_cdn_share(
    const Dataset& dataset, const ChainCdnClassifier& chain,
    const PatternCdnClassifier& pattern,
    std::uint64_t bin_width = kPaperBinWidth);

// --- Figure 6: RPKI deployment, CDN vs unconditioned web ------------------

struct CdnRpkiRow {
  std::uint64_t rank_lo = 0;
  std::uint64_t rank_hi = 0;
  std::uint64_t cdn_domains = 0;
  double cdn_coverage = 0.0;   // mean coverage of CDN-classified domains
  double all_coverage = 0.0;   // the unconditioned web (Fig. 4 line)
  double non_cdn_coverage = 0.0;
};

std::vector<CdnRpkiRow> figure6_cdn_rpki(
    const Dataset& dataset, const ChainCdnClassifier& chain,
    std::uint64_t bin_width = kPaperBinWidth);

/// §4.2 headline: average coverage of CDN-classified vs all domains.
struct Figure6Summary {
  double cdn_mean_coverage = 0.0;
  double all_mean_coverage = 0.0;
  double non_cdn_mean_coverage = 0.0;
};

Figure6Summary figure6_summary(const Dataset& dataset,
                               const ChainCdnClassifier& chain);

// --- Future work (§7): DNSSEC vs RPKI adoption ----------------------------

struct DnssecRow {
  std::uint64_t rank_lo = 0;
  std::uint64_t rank_hi = 0;
  std::uint64_t domains = 0;
  double dnssec_fraction = 0.0;    // zone publishes a DNSKEY
  double rpki_fraction = 0.0;      // >= 1 RPKI-covered prefix-AS pair
  double both_fraction = 0.0;      // protected at both layers
};

/// The comparison the paper defers to future work: per-rank-bin adoption of
/// DNSSEC (name-to-address integrity) next to RPKI (routing integrity).
std::vector<DnssecRow> dnssec_vs_rpki(const Dataset& dataset,
                                      std::uint64_t bin_width = kPaperBinWidth);

struct DnssecSummary {
  double dnssec_rate = 0.0;
  double rpki_rate = 0.0;
  double both_rate = 0.0;
  /// both_rate / (dnssec_rate * rpki_rate): 1.0 = independent deployment.
  double correlation_ratio = 0.0;
};

DnssecSummary dnssec_summary(const Dataset& dataset);

}  // namespace ripki::core::reports
