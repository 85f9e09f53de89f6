#include "serve/snapshot.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <functional>
#include <span>
#include <utility>

#include "core/reports.hpp"
#include "util/strings.hpp"

namespace ripki::serve {

namespace {

/// Fixed-precision fraction — one formatting for service, tests, and the
/// load-generator oracle, so byte comparison is meaningful.
std::string json_fraction(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", value);
  return buf;
}

void append_pairs_json(std::string& out,
                       std::span<const core::PrefixAsPair> pairs) {
  out += '[';
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"prefix\":\"";
    out += pairs[i].prefix.to_string();
    out += "\",\"origin\":";
    out += std::to_string(pairs[i].origin.value());
    out += ",\"validity\":\"";
    out += rpki::to_string(pairs[i].validity);
    out += "\"}";
  }
  out += ']';
}

void append_variant_json(std::string& out, const char* label,
                         const core::DomainTable::VariantView& variant) {
  out += '"';
  out += label;
  out += "\":{\"resolved\":";
  out += variant.resolved ? "true" : "false";
  out += ",\"addresses\":";
  out += std::to_string(variant.address_count);
  out += ",\"cname_hops\":";
  out += std::to_string(variant.cname_hops);
  out += ",\"coverage\":";
  out += json_fraction(variant.coverage());
  out += ",\"valid\":";
  out += json_fraction(variant.fraction(rpki::OriginValidity::kValid));
  out += ",\"invalid\":";
  out += json_fraction(variant.fraction(rpki::OriginValidity::kInvalid));
  out += ",\"pairs\":";
  append_pairs_json(out, variant.pairs);
  out += '}';
}

/// The /v1/summary body, read from the Figure-4 tally (~100 bins) rather
/// than from the rows.
std::string render_summary_json(const core::reports::Figure4Tally& figure4,
                                std::size_t rows, std::uint64_t rank_space,
                                std::size_t vrp_count,
                                std::uint64_t generation,
                                std::uint64_t parent_generation) {
  const auto bins = figure4.bins();
  const auto summary = figure4.summary();
  std::string out;
  out += "{\"generation\":";
  out += std::to_string(generation);
  out += ",\"parent_generation\":";
  out += std::to_string(parent_generation);
  out += ",\"domains\":";
  out += std::to_string(rows);
  out += ",\"rank_space\":";
  out += std::to_string(rank_space);
  out += ",\"vrps\":";
  out += std::to_string(vrp_count);
  out += ",\"mean_coverage\":";
  out += json_fraction(summary.mean_coverage);
  out += ",\"top_100k_coverage\":";
  out += json_fraction(summary.top_100k_coverage);
  out += ",\"mean_invalid\":";
  out += json_fraction(summary.mean_invalid);
  out += ",\"bins\":[";
  for (std::size_t i = 0; i < bins.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"rank_lo\":";
    out += std::to_string(bins[i].rank_lo);
    out += ",\"rank_hi\":";
    out += std::to_string(bins[i].rank_hi);
    out += ",\"domains\":";
    out += std::to_string(bins[i].domains);
    out += ",\"covered\":";
    out += json_fraction(bins[i].covered);
    out += ",\"valid\":";
    out += json_fraction(bins[i].valid);
    out += ",\"invalid\":";
    out += json_fraction(bins[i].invalid);
    out += ",\"not_found\":";
    out += json_fraction(bins[i].not_found);
    out += '}';
  }
  out += "]}";
  return out;
}

/// A delta compacts instead once the overlay would exceed
/// rows / kCompactDenominator.
constexpr std::size_t kCompactDenominator = 4;

}  // namespace

Snapshot::Snapshot(std::size_t rows, std::uint64_t rank_space,
                   std::shared_ptr<const bgp::Rib::Image> routes,
                   std::shared_ptr<const rpki::VrpIndex> vrps,
                   const core::PipelineCounters& counters,
                   core::reports::Figure4Tally figure4,
                   std::uint64_t generation, std::uint64_t parent_generation)
    : generation_(generation),
      parent_generation_(parent_generation),
      rank_space_(rank_space),
      routes_(std::move(routes)),
      vrps_(std::move(vrps)),
      figure4_(std::move(figure4)),
      counters_(counters),
      summary_json_(render_summary_json(figure4_, rows, rank_space,
                                        vrps_->size(), generation,
                                        parent_generation)) {}

std::shared_ptr<const Snapshot> Snapshot::build(core::Dataset dataset,
                                                const bgp::Rib& rib,
                                                const rpki::VrpSet& vrps,
                                                std::uint64_t generation,
                                                std::uint64_t parent_generation) {
  const auto figure4 = core::reports::Figure4Tally::of(dataset);
  return build(std::move(dataset), rib.image(),
               std::make_shared<const rpki::VrpIndex>(vrps), figure4,
               generation, parent_generation);
}

std::shared_ptr<const Snapshot> Snapshot::build(
    core::Dataset dataset, std::shared_ptr<const bgp::Rib::Image> routes,
    std::shared_ptr<const rpki::VrpIndex> vrps,
    const core::reports::Figure4Tally& figure4, std::uint64_t generation,
    std::uint64_t parent_generation) {
  auto snapshot = std::shared_ptr<Snapshot>(
      new Snapshot(dataset.size(), dataset.rank_space, std::move(routes),
                   std::move(vrps), dataset.counters, figure4, generation,
                   parent_generation));
  const auto table =
      std::make_shared<const core::DomainTable>(std::move(dataset.domains));
  snapshot->table_ = table;

  auto by_name = std::make_shared<std::vector<std::uint32_t>>();
  by_name->resize(table->size());
  for (std::uint32_t i = 0; i < by_name->size(); ++i) (*by_name)[i] = i;
  std::sort(by_name->begin(), by_name->end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return table->name(a) < table->name(b);
            });
  snapshot->by_name_ = std::move(by_name);
  return snapshot;
}

std::shared_ptr<const Snapshot> Snapshot::apply_delta(
    std::shared_ptr<const Snapshot> parent, core::DomainTable changed,
    const std::vector<std::uint32_t>& changed_rows,
    std::shared_ptr<const bgp::Rib::Image> routes,
    std::shared_ptr<const rpki::VrpIndex> vrps,
    const core::PipelineCounters& counters,
    core::reports::Figure4Tally figure4, std::uint64_t generation) {
  assert(changed.size() == changed_rows.size());
  assert(std::adjacent_find(changed_rows.begin(), changed_rows.end(),
                            std::greater_equal<>()) == changed_rows.end());
  auto snapshot = std::shared_ptr<Snapshot>(
      new Snapshot(parent->table_->size(), parent->rank_space_,
                   std::move(routes), std::move(vrps), counters,
                   std::move(figure4), generation, parent->generation_));
  snapshot->table_ = parent->table_;
  snapshot->by_name_ = parent->by_name_;
  snapshot->segments_ = parent->segments_;
  const auto id = static_cast<std::uint32_t>(snapshot->segments_.size());
  if (!changed_rows.empty()) {
    snapshot->segments_.push_back(
        std::make_shared<const core::DomainTable>(std::move(changed)));
  }

  // Merge: a changed row points at the new segment, whether or not the
  // parent's overlay already held an older copy of it.
  std::vector<OverlayRow>& overlay = snapshot->overlay_;
  overlay.reserve(parent->overlay_.size() + changed_rows.size());
  auto old = parent->overlay_.begin();
  const auto old_end = parent->overlay_.end();
  for (std::uint32_t k = 0; k < changed_rows.size(); ++k) {
    const std::uint32_t row = changed_rows[k];
    while (old != old_end && old->row < row) overlay.push_back(*old++);
    if (old != old_end && old->row == row) ++old;
    overlay.push_back({row, id, k});
  }
  overlay.insert(overlay.end(), old, old_end);

  if ((parent->overlay_.size() + changed_rows.size()) * kCompactDenominator >
      parent->table_->size()) {
    // The one copy of the rows per compaction; it drops every row copy
    // the overlay superseded. The row set and its names never change, so
    // the name index serves the new base too.
    snapshot->table_ =
        std::make_shared<const core::DomainTable>(snapshot->copy_rows());
    snapshot->segments_.clear();
    snapshot->overlay_.clear();
  } else {
    snapshot->delta_applied_ = true;
  }
  return snapshot;
}

core::DomainTable Snapshot::copy_rows() const {
  // Calls `fn` with every row as row() serves it, in row order, walking the
  // base and the overlay list side by side.
  const auto for_each_row = [this](const auto& fn) {
    auto overlay = overlay_.begin();
    for (std::uint32_t row = 0; row < table_->size(); ++row) {
      if (overlay != overlay_.end() && overlay->row == row) {
        fn(segments_[overlay->segment]->view(overlay->index));
        ++overlay;
      } else {
        fn(table_->view(row));
      }
    }
  };
  std::size_t pairs = 0;
  for_each_row([&](const core::DomainTable::RecordView& record) {
    pairs += record.www.pairs.size() + record.apex.pairs.size();
  });
  core::DomainTable rows;
  rows.reserve(table_->size(), pairs);
  for_each_row([&](const core::DomainTable::RecordView& record) {
    rows.append(record);
  });
  return rows;
}

core::DomainTable::RecordView Snapshot::row(std::uint32_t row) const {
  const auto overlay = std::lower_bound(
      overlay_.begin(), overlay_.end(), row,
      [](const OverlayRow& entry, std::uint32_t r) { return entry.row < r; });
  if (overlay != overlay_.end() && overlay->row == row) {
    return segments_[overlay->segment]->view(overlay->index);
  }
  return table_->view(row);
}

std::optional<core::DomainTable::RecordView> Snapshot::find_domain(
    std::string_view name) const {
  const auto it = std::lower_bound(
      by_name_->begin(), by_name_->end(), name,
      [&](std::uint32_t index, std::string_view target) {
        return table_->name(index) < target;
      });
  if (it == by_name_->end() || table_->name(*it) != name) return std::nullopt;
  return row(*it);
}

std::string Snapshot::render_domain_json(
    const core::DomainTable::RecordView& record, std::uint64_t generation) {
  std::string out;
  out.reserve(512);
  out += "{\"generation\":";
  out += std::to_string(generation);
  out += ",\"name\":\"";
  out += util::json_escape(record.name);
  out += "\",\"rank\":";
  out += std::to_string(record.rank);
  out += ",\"excluded_dns\":";
  out += record.excluded_dns ? "true" : "false";
  out += ",\"dnssec_signed\":";
  out += record.dnssec_signed ? "true" : "false";
  out += ',';
  append_variant_json(out, "www", record.www);
  out += ',';
  append_variant_json(out, "apex", record.apex);
  out += '}';
  return out;
}

std::string Snapshot::ip_json(const net::IpAddress& address) const {
  const auto covering =
      bgp::Rib::covering_path(*routes_, routes_->deepest_covering(address));
  std::string out;
  out.reserve(256);
  out += "{\"generation\":";
  out += std::to_string(generation_);
  out += ",\"address\":\"";
  out += address.to_string();
  out += "\",\"routed\":";
  out += covering.empty() ? "false" : "true";
  out += ",\"prefixes\":[";
  std::vector<net::Asn> origins;
  for (std::size_t i = 0; i < covering.size(); ++i) {
    if (i != 0) out += ',';
    out += "{\"prefix\":\"";
    out += covering[i].prefix.to_string();
    out += "\",\"origins\":[";
    origins.clear();
    for (const bgp::RibEntry& entry : *covering[i].entries) {
      if (const auto origin = entry.origin()) origins.push_back(*origin);
    }
    std::sort(origins.begin(), origins.end());
    origins.erase(std::unique(origins.begin(), origins.end()), origins.end());
    for (std::size_t j = 0; j < origins.size(); ++j) {
      if (j != 0) out += ',';
      out += "{\"asn\":";
      out += std::to_string(origins[j].value());
      out += ",\"validity\":\"";
      out += rpki::to_string(vrps_->validate(covering[i].prefix, origins[j]));
      out += "\"}";
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string Snapshot::prefix_json(const net::Prefix& prefix,
                                  net::Asn origin) const {
  const auto validity = vrps_->validate(prefix, origin);
  std::string out;
  out.reserve(128);
  out += "{\"generation\":";
  out += std::to_string(generation_);
  out += ",\"prefix\":\"";
  out += prefix.to_string();
  out += "\",\"origin\":";
  out += std::to_string(origin.value());
  out += ",\"validity\":\"";
  out += rpki::to_string(validity);
  out += "\",\"covered\":";
  out += vrps_->covered(prefix) ? "true" : "false";
  out += '}';
  return out;
}

}  // namespace ripki::serve
