// Immutable query-serving view of one pipeline run.
//
// A Snapshot holds everything a lookup needs — the rows, a name index, the
// RIB image of announced routes, the VRP index and the Figure-4 tally
// /v1/summary renders from — so it stays valid after the pipeline that
// produced it is gone. The image and the index are immutable and shared
// by pointer with the delta pipeline's kernel, which builds each once per
// generation. The service publishes each snapshot by swapping a
// shared_ptr under a mutex (RCU-style); the old snapshot, with anything
// only it held, is freed when its last in-flight reader drops it.
//
// Every snapshot is an immutable base core::DomainTable (the rows as of
// the last full build or compaction, shared across the delta generations
// derived from it) plus an overlay of the rows re-swept since. The overlay
// is a list of immutable segments, one core::DomainTable per delta
// generation holding only the rows its tick changed, and an ascending
// row -> (segment, index) list that points each overlay row at its newest
// copy. build() takes a dataset's table as the base and sorts the names;
// apply_delta() adds the tick's changed rows as a new segment and shares
// the base, the name index and the parent's segments by pointer, or, once
// the overlay would exceed a quarter of the rows, appends every current
// row into a fresh base. The delta pipeline keeps no table of its own:
// the published snapshot is the one store of its rows.
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

  /// Derives generation N+1 from `parent` over the same fixed row set:
  /// row k of `changed` is row `changed_rows[k]` (strictly ascending), and
  /// every other row reads from the parent's segments or base, shared by
  /// pointer. `routes` and `vrps` are this generation's RIB image and VRP
  /// index (the parent's when the tick left that layer alone); `counters`
  /// and `figure4` are the rows' after the tick. Once (parent overlay +
  /// changed rows) x 4 > rows, it compacts instead of adding a segment:
  /// every current row is appended into a fresh base (copy_rows()), the
  /// overlay is empty and delta_applied() is false.
  static std::shared_ptr<const Snapshot> apply_delta(
      std::shared_ptr<const Snapshot> parent, core::DomainTable changed,
      const std::vector<std::uint32_t>& changed_rows,
      std::shared_ptr<const bgp::Rib::Image> routes,
      std::shared_ptr<const rpki::VrpIndex> vrps,
      const core::PipelineCounters& counters,
      core::reports::Figure4Tally figure4, std::uint64_t generation);

  std::uint64_t generation() const { return generation_; }
  /// Generation this snapshot was derived from (0 = from scratch).
  std::uint64_t parent_generation() const { return parent_generation_; }
  /// True when this snapshot came through apply_delta() as a delta rather
  /// than a full build or a compaction — surfaced in /runz and bench
  /// output, not in the JSON.
  bool delta_applied() const { return delta_applied_; }
  /// Distinct rows re-swept since the base (0 for a full build or a
  /// compaction), however many segments hold copies of them — the
  /// compaction signal.
  std::size_t overlay_size() const { return overlay_.size(); }
  /// Every row as of the last full build or compaction; its size is the
  /// row count, fixed across the generations derived from a build.
  const core::DomainTable& base() const { return *table_; }
  std::uint64_t rank_space() const { return rank_space_; }

  /// Row `row` as this generation serves it: its newest overlay copy, else
  /// the base's. The view borrows the snapshot (base table or a segment)
  /// — valid as long as this snapshot is held.
  core::DomainTable::RecordView row(std::uint32_t row) const;

  /// Every row as row() serves it, appended in row order into a fresh
  /// table that holds only the pairs and strings they reference: a
  /// compaction's new base, and the delta pipeline's dataset().
  core::DomainTable copy_rows() const;

  /// O(log n) lookup by apex name through row(); nullopt when absent.
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
  /// Renders the summary of `rows` rows; the caller sets the rows.
  Snapshot(std::size_t rows, std::uint64_t rank_space,
           std::shared_ptr<const bgp::Rib::Image> routes,
           std::shared_ptr<const rpki::VrpIndex> vrps,
           const core::PipelineCounters& counters,
           core::reports::Figure4Tally figure4, std::uint64_t generation,
           std::uint64_t parent_generation);

  std::uint64_t generation_ = 0;
  std::uint64_t parent_generation_ = 0;
  bool delta_applied_ = false;
  /// Every row as of the last full build or compaction; shared by the
  /// delta generations derived from it.
  std::shared_ptr<const core::DomainTable> table_;
  std::uint64_t rank_space_ = 0;
  /// One per delta generation since `table_` that changed rows, oldest
  /// first: the rows its tick changed. Immutable, and shared with the
  /// parent and every descendant up to the next compaction.
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
  /// the delta generations and compactions (names never change).
  std::shared_ptr<const std::vector<std::uint32_t>> by_name_;
  std::shared_ptr<const bgp::Rib::Image> routes_;
  std::shared_ptr<const rpki::VrpIndex> vrps_;
  core::reports::Figure4Tally figure4_;
  core::PipelineCounters counters_;
  std::string summary_json_;
};

}  // namespace ripki::serve
