#include "core/reports.hpp"

#include <algorithm>
#include <set>
#include <span>

#include "util/stats.hpp"

namespace ripki::core::reports {

namespace {

/// Set of prefixes appearing in a variant's pairs.
std::set<net::Prefix> prefix_set(std::span<const PrefixAsPair> pairs) {
  std::set<net::Prefix> out;
  for (const auto& pair : pairs) out.insert(pair.prefix);
  return out;
}

util::RankBinner make_binner(const Dataset& dataset, std::uint64_t bin_width) {
  return util::RankBinner(dataset.rank_space == 0 ? 1 : dataset.rank_space,
                          bin_width);
}

}  // namespace

std::vector<OverlapRow> figure3_overlap(const Dataset& dataset,
                                        std::uint64_t bin_width) {
  util::RankBinner binner = make_binner(dataset, bin_width);
  for (const auto record : dataset.rows()) {
    if (!record.www.resolved || !record.apex.resolved) continue;
    const auto www = prefix_set(record.www.pairs);
    const auto apex = prefix_set(record.apex.pairs);
    if (www.empty() && apex.empty()) continue;
    std::size_t intersection = 0;
    for (const auto& prefix : www) {
      if (apex.count(prefix) != 0) ++intersection;
    }
    const std::size_t union_size = www.size() + apex.size() - intersection;
    binner.add(record.rank, static_cast<double>(intersection) /
                                static_cast<double>(union_size));
  }

  std::vector<OverlapRow> rows;
  for (std::size_t i = 0; i < binner.bin_count(); ++i) {
    rows.push_back(OverlapRow{binner.bin_lo(i), binner.bin_hi(i),
                              binner.bin(i).count(), binner.bin(i).mean()});
  }
  return rows;
}

namespace {

/// The headline groups: ranks 1..kHeadlineRanks, and the last
/// kHeadlineRanks of the rank space.
constexpr std::uint64_t kHeadlineRanks = 100'000;

}  // namespace

Figure4Tally::Figure4Tally(std::uint64_t rank_space, std::uint64_t bin_width)
    : axis_(rank_space == 0 ? 1 : rank_space, bin_width),
      tail_start_(rank_space > kHeadlineRanks ? rank_space - kHeadlineRanks
                                              : 0),
      bins_(axis_.bin_count()) {}

Figure4Tally Figure4Tally::of(const Dataset& dataset, std::uint64_t bin_width) {
  Figure4Tally tally(dataset.rank_space, bin_width);
  for (const auto record : dataset.rows()) {
    tally.count_row(+1, record.rank, record);
  }
  return tally;
}

void Figure4Tally::add(int sign, std::uint64_t rank, std::size_t pairs,
                       const Cell& cell) {
  add_to(bins_[axis_.bin_index(rank)], sign, pairs, cell);
  add_to(all_, sign, pairs, cell);
  if (rank <= kHeadlineRanks) add_to(top_, sign, pairs, cell);
  if (rank > tail_start_) add_to(tail_, sign, pairs, cell);
}

void Figure4Tally::add_to(Group& group, int sign, std::size_t pairs,
                          const Cell& cell) {
  if (group.size() < pairs) group.resize(pairs);
  Cell& into = group[pairs - 1];
  const std::int64_t step = sign > 0 ? 1 : -1;
  for (const Outcome field : {&Cell::rows, &Cell::covered, &Cell::valid,
                              &Cell::invalid, &Cell::not_found}) {
    into.*field += step * cell.*field;
  }
  while (!group.empty() && group.back().rows == 0) group.pop_back();
}

std::int64_t Figure4Tally::rows_of(const Group& group) {
  std::int64_t rows = 0;
  for (const Cell& cell : group) rows += cell.rows;
  return rows;
}

double Figure4Tally::mean(const Group& group, Outcome outcome) {
  const std::int64_t rows = rows_of(group);
  if (rows == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t n = 1; n <= group.size(); ++n) {
    sum += static_cast<double>(group[n - 1].*outcome) / static_cast<double>(n);
  }
  return sum / static_cast<double>(rows);
}

std::vector<RpkiByRankRow> Figure4Tally::bins() const {
  std::vector<RpkiByRankRow> rows;
  rows.reserve(bins_.size());
  for (std::size_t i = 0; i < bins_.size(); ++i) {
    const Group& bin = bins_[i];
    rows.push_back(RpkiByRankRow{
        axis_.bin_lo(i), axis_.bin_hi(i),
        static_cast<std::uint64_t>(rows_of(bin)), mean(bin, &Cell::covered),
        mean(bin, &Cell::valid), mean(bin, &Cell::invalid),
        mean(bin, &Cell::not_found)});
  }
  return rows;
}

Figure4Summary Figure4Tally::summary() const {
  return Figure4Summary{mean(all_, &Cell::covered), mean(top_, &Cell::covered),
                        mean(tail_, &Cell::covered), mean(all_, &Cell::invalid)};
}

std::vector<RpkiByRankRow> figure4_rpki_by_rank(const Dataset& dataset,
                                                std::uint64_t bin_width) {
  return Figure4Tally::of(dataset, bin_width).bins();
}

Figure4Summary figure4_summary(const Dataset& dataset) {
  return Figure4Tally::of(dataset).summary();
}

const char* to_string(CoverageMark mark) {
  switch (mark) {
    case CoverageMark::kNone: return "x";
    case CoverageMark::kPartial: return "~";
    case CoverageMark::kFull: return "OK";
    case CoverageMark::kNotAvailable: return "n/a";
  }
  return "?";
}

namespace {

CoverageMark mark_of(const DomainTable::VariantView& variant,
                     std::uint32_t& covered, std::uint32_t& total) {
  covered = 0;
  total = static_cast<std::uint32_t>(variant.pairs.size());
  if (!variant.resolved || variant.pairs.empty()) return CoverageMark::kNotAvailable;
  for (const auto& pair : variant.pairs) {
    if (pair.rpki_covered()) ++covered;
  }
  if (covered == 0) return CoverageMark::kNone;
  return covered == total ? CoverageMark::kFull : CoverageMark::kPartial;
}

}  // namespace

std::vector<Table1Row> table1_top_covered(const Dataset& dataset, std::size_t limit) {
  std::vector<Table1Row> rows;
  for (const auto record : dataset.rows()) {
    Table1Row row;
    row.rank = record.rank;
    row.name = record.name;
    row.www_mark = mark_of(record.www, row.www_covered, row.www_total);
    row.apex_mark = mark_of(record.apex, row.apex_covered, row.apex_total);
    const bool any_covered = row.www_covered > 0 || row.apex_covered > 0;
    if (!any_covered) continue;
    rows.push_back(std::move(row));
    if (rows.size() >= limit) break;
  }
  return rows;
}

std::vector<CdnShareRow> figure5_cdn_share(const Dataset& dataset,
                                           const ChainCdnClassifier& chain,
                                           const PatternCdnClassifier& pattern,
                                           std::uint64_t bin_width) {
  util::RankBinner chain_bins = make_binner(dataset, bin_width);
  util::RankBinner pattern_bins = make_binner(dataset, bin_width);

  for (const auto record : dataset.rows()) {
    if (record.excluded_dns) continue;
    chain_bins.add(record.rank, chain.is_cdn(record) ? 1.0 : 0.0);
    if (pattern.covers(record.rank)) {
      pattern_bins.add(record.rank, pattern.is_cdn(record) ? 1.0 : 0.0);
    }
  }

  std::vector<CdnShareRow> rows;
  for (std::size_t i = 0; i < chain_bins.bin_count(); ++i) {
    CdnShareRow row;
    row.rank_lo = chain_bins.bin_lo(i);
    row.rank_hi = chain_bins.bin_hi(i);
    row.domains = chain_bins.bin(i).count();
    row.chain_fraction = chain_bins.bin(i).mean();
    if (pattern_bins.bin(i).count() > 0) {
      row.pattern_fraction = pattern_bins.bin(i).mean();
    }
    rows.push_back(row);
  }
  return rows;
}

std::vector<CdnRpkiRow> figure6_cdn_rpki(const Dataset& dataset,
                                         const ChainCdnClassifier& chain,
                                         std::uint64_t bin_width) {
  util::RankBinner cdn = make_binner(dataset, bin_width);
  util::RankBinner all = make_binner(dataset, bin_width);
  util::RankBinner non_cdn = make_binner(dataset, bin_width);

  for (const auto record : dataset.rows()) {
    const auto variant = record.primary();
    if (!variant.resolved || variant.pairs.empty()) continue;
    const double coverage = variant.coverage();
    all.add(record.rank, coverage);
    if (chain.is_cdn(record)) {
      cdn.add(record.rank, coverage);
    } else {
      non_cdn.add(record.rank, coverage);
    }
  }

  std::vector<CdnRpkiRow> rows;
  for (std::size_t i = 0; i < all.bin_count(); ++i) {
    rows.push_back(CdnRpkiRow{all.bin_lo(i), all.bin_hi(i), cdn.bin(i).count(),
                              cdn.bin(i).mean(), all.bin(i).mean(),
                              non_cdn.bin(i).mean()});
  }
  return rows;
}

Figure6Summary figure6_summary(const Dataset& dataset,
                               const ChainCdnClassifier& chain) {
  util::Accumulator cdn;
  util::Accumulator all;
  util::Accumulator non_cdn;
  for (const auto record : dataset.rows()) {
    const auto variant = record.primary();
    if (!variant.resolved || variant.pairs.empty()) continue;
    const double coverage = variant.coverage();
    all.add(coverage);
    if (chain.is_cdn(record)) {
      cdn.add(coverage);
    } else {
      non_cdn.add(coverage);
    }
  }
  return Figure6Summary{cdn.mean(), all.mean(), non_cdn.mean()};
}

std::vector<DnssecRow> dnssec_vs_rpki(const Dataset& dataset,
                                      std::uint64_t bin_width) {
  util::RankBinner dnssec = make_binner(dataset, bin_width);
  util::RankBinner rpki = make_binner(dataset, bin_width);
  util::RankBinner both = make_binner(dataset, bin_width);

  for (const auto record : dataset.rows()) {
    if (record.excluded_dns) continue;
    const bool has_rpki = record.primary().coverage() > 0.0;
    dnssec.add(record.rank, record.dnssec_signed ? 1.0 : 0.0);
    rpki.add(record.rank, has_rpki ? 1.0 : 0.0);
    both.add(record.rank, record.dnssec_signed && has_rpki ? 1.0 : 0.0);
  }

  std::vector<DnssecRow> rows;
  for (std::size_t i = 0; i < dnssec.bin_count(); ++i) {
    rows.push_back(DnssecRow{dnssec.bin_lo(i), dnssec.bin_hi(i),
                             dnssec.bin(i).count(), dnssec.bin(i).mean(),
                             rpki.bin(i).mean(), both.bin(i).mean()});
  }
  return rows;
}

DnssecSummary dnssec_summary(const Dataset& dataset) {
  std::uint64_t n = 0;
  std::uint64_t has_dnssec = 0;
  std::uint64_t has_rpki = 0;
  std::uint64_t has_both = 0;
  for (const auto record : dataset.rows()) {
    if (record.excluded_dns) continue;
    ++n;
    const bool rpki = record.primary().coverage() > 0.0;
    if (record.dnssec_signed) ++has_dnssec;
    if (rpki) ++has_rpki;
    if (record.dnssec_signed && rpki) ++has_both;
  }
  DnssecSummary out;
  if (n == 0) return out;
  out.dnssec_rate = static_cast<double>(has_dnssec) / static_cast<double>(n);
  out.rpki_rate = static_cast<double>(has_rpki) / static_cast<double>(n);
  out.both_rate = static_cast<double>(has_both) / static_cast<double>(n);
  const double expected = out.dnssec_rate * out.rpki_rate;
  out.correlation_ratio = expected > 0.0 ? out.both_rate / expected : 0.0;
  return out;
}

}  // namespace ripki::core::reports
