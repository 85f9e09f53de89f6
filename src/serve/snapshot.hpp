// Immutable query-serving view of one pipeline run.
//
// A Snapshot holds everything a lookup needs — the rows, a name index, the
// RIB image of announced routes, the VRP index and the Figure-4 tally
// /v1/summary renders from — so it stays valid after the pipeline that
// produced it is gone. The image and the index are immutable and shared
// by pointer with the delta pipeline's kernel, which builds each once per
// generation. The service publishes each snapshot behind an atomically
// swapped shared_ptr (RCU-style); the old snapshot, with anything only it
// held, is freed when its last in-flight reader drops it.
//
// Every snapshot is an immutable base core::DomainTable (the rows as of
// the last full build or rebase, shared across the delta generations
// derived from it) plus an overlay of the rows re-swept since. The overlay
// is a list of immutable segments, one core::DomainTable per delta
// generation holding only the rows its tick changed, and an ascending
// row -> (segment, index) list that points each overlay row at its newest
// copy. build() copies every row into a fresh base and sorts the names;
// apply_delta() copies only the tick's changed rows into a new segment and
// shares the base, the name index and the parent's segments by pointer;
// rebase() takes a table the caller hands over as the new base and keeps
// the parent's name index, copying no row.
//
// All JSON rendering lives here as deterministic pure functions of the
// snapshot contents, so tests, the load-generator oracle, and the delta
// pipeline's full-rebuild oracle can compute exact expected bytes from a
// core::Dataset directly. Byte identity between the two construction
// paths is the delta subsystem's correctness gate.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/rib.hpp"
#include "core/dataset.hpp"
#include "core/reports.hpp"
#include "net/asn.hpp"
#include "net/ip.hpp"
#include "net/prefix.hpp"
#include "rpki/origin_validation.hpp"
#include "rpki/vrp.hpp"

namespace ripki::serve {

class Snapshot {
 public:
  /// Builds the view from scratch: takes `dataset.domains` as its base
  /// (pass an rvalue to move the table rather than copy it), takes `rib`'s
  /// image (frozen or not), indexes `vrps`, and tallies the rows.
  /// `generation` stamps every response; `parent_generation` records the
  /// lineage (0 for a from-scratch build) and must match between a delta
  /// application and its full-rebuild oracle.
  static std::shared_ptr<const Snapshot> build(core::Dataset dataset,
                                               const bgp::Rib& rib,
                                               const rpki::VrpSet& vrps,
                                               std::uint64_t generation,
                                               std::uint64_t parent_generation = 0);

  /// The same over world objects the caller holds; `figure4` must tally
  /// `dataset`'s rows.
  static std::shared_ptr<const Snapshot> build(
      core::Dataset dataset,
      std::shared_ptr<const bgp::Rib::Image> routes,
      std::shared_ptr<const rpki::VrpIndex> vrps,
      const core::reports::Figure4Tally& figure4, std::uint64_t generation,
      std::uint64_t parent_generation);

  /// Derives generation N+1 from `parent`, which must serve the same fixed
  /// row set as `dataset`. `changed_rows` (strictly ascending) are copied
  /// from `dataset` into one new segment; every other row reads from the
  /// parent's segments or the base, both shared with the parent. That is
  /// exact as long as `dataset` rewrites a row only on a tick that lists
  /// it in `changed_rows`. `routes`
  /// and `vrps` are this generation's RIB image and VRP index (the
  /// parent's when the tick left that layer alone); `dataset` and
  /// `figure4` are the master and its tally after the tick's re-sweep.
  static std::shared_ptr<const Snapshot> apply_delta(
      std::shared_ptr<const Snapshot> parent, const core::Dataset& dataset,
      const std::vector<std::uint32_t>& changed_rows,
      std::shared_ptr<const bgp::Rib::Image> routes,
      std::shared_ptr<const rpki::VrpIndex> vrps,
      const core::reports::Figure4Tally& figure4, std::uint64_t generation);

  /// Derives generation N+1 from `parent` over a new base and an empty
  /// overlay: `base` must hold every row as `dataset` does now (the delta
  /// pipeline hands over its master table when it compacts), and is taken
  /// as it is, with no row copied. The row set and its names are fixed, so
  /// the parent's name index serves the new base. The other arguments are
  /// as for apply_delta().
  static std::shared_ptr<const Snapshot> rebase(
      std::shared_ptr<const Snapshot> parent,
      std::shared_ptr<const core::DomainTable> base,
      const core::Dataset& dataset,
      std::shared_ptr<const bgp::Rib::Image> routes,
      std::shared_ptr<const rpki::VrpIndex> vrps,
      const core::reports::Figure4Tally& figure4, std::uint64_t generation);

  std::uint64_t generation() const { return generation_; }
  /// Generation this snapshot was derived from (0 = from scratch).
  std::uint64_t parent_generation() const { return parent_generation_; }
  /// True when this snapshot came through apply_delta() rather than a
  /// full build or a rebase — surfaced in /runz and bench output, not in
  /// the JSON.
  bool delta_applied() const { return delta_applied_; }
  /// Distinct rows re-swept since the base (0 for a full build or a
  /// rebase), however many segments hold copies of them — the delta
  /// pipeline's compaction signal.
  std::size_t overlay_size() const { return overlay_.size(); }

  /// O(log n) lookup by apex name; nullopt when absent. The view borrows
  /// the snapshot (base table or a segment) — valid as long as this
  /// snapshot is held.
  std::optional<core::DomainTable::RecordView> find_domain(
      std::string_view name) const;

  // --- JSON renderers (deterministic; the oracle contract) ---------------

  /// Rendering for /v1/domain/<name> given a record — public and static
  /// so tests can compute the expected body straight from the dataset.
  static std::string render_domain_json(const core::DomainTable::RecordView& record,
                                        std::uint64_t generation);

  /// /v1/ip/<addr>: every covering announced prefix with its distinct
  /// origin ASes, ascending (a path ending in an AS_SET has none, RFC
  /// 6472), and their RFC 6811 outcome against this snapshot's VRPs.
  std::string ip_json(const net::IpAddress& address) const;

  /// /v1/prefix/<p>/<asn>: the RFC 6811 outcome for one pair.
  std::string prefix_json(const net::Prefix& prefix, net::Asn origin) const;

  /// /v1/summary: rank-bin aggregates, prebuilt at snapshot construction.
  const std::string& summary_json() const { return summary_json_; }

  /// RFC 6811 validation against this snapshot's VRP index (the oracle
  /// tests compare service answers against).
  rpki::OriginValidity validate(const net::Prefix& prefix,
                                net::Asn origin) const {
    return vrps_->validate(prefix, origin);
  }

  /// Its rows' tally and counters, which the delta oracle also compares.
  const core::reports::Figure4Tally& figure4() const { return figure4_; }
  const core::PipelineCounters& counters() const { return counters_; }

 private:
  Snapshot(const core::Dataset& dataset,
           std::shared_ptr<const bgp::Rib::Image> routes,
           std::shared_ptr<const rpki::VrpIndex> vrps,
           const core::reports::Figure4Tally& figure4,
           std::uint64_t generation, std::uint64_t parent_generation);

  std::uint64_t generation_ = 0;
  std::uint64_t parent_generation_ = 0;
  bool delta_applied_ = false;
  /// Every row as of the last full build or rebase; shared by the delta
  /// generations derived from it.
  std::shared_ptr<const core::DomainTable> table_;
  /// One per delta generation since `table_` that changed rows, oldest
  /// first: the rows its tick changed. Immutable, and shared with the
  /// parent and every descendant up to the next rebase.
  std::vector<std::shared_ptr<const core::DomainTable>> segments_;
  /// A row re-swept since `table_` and its newest copy: row `index` of
  /// segments_[segment].
  struct OverlayRow {
    std::uint32_t row;
    std::uint32_t segment;
    std::uint32_t index;
  };
  /// Ascending by row, so lookups binary-search it.
  std::vector<OverlayRow> overlay_;
  /// Base row indices sorted by name for binary search. Shared across
  /// the delta generations and rebases (names never change).
  std::shared_ptr<const std::vector<std::uint32_t>> by_name_;
  std::shared_ptr<const bgp::Rib::Image> routes_;
  std::shared_ptr<const rpki::VrpIndex> vrps_;
  core::reports::Figure4Tally figure4_;
  core::PipelineCounters counters_;
  std::string summary_json_;
};

}  // namespace ripki::serve
