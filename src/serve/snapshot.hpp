// Immutable query-serving view of one pipeline run.
//
// A Snapshot owns everything a lookup needs — the per-domain rows, a name
// index over them, a prefix trie of announced routes rebuilt from the
// RIB, and a VRP index rebuilt from the validated VRP set — so it stays
// valid after the pipeline that produced it is gone. The service
// publishes each run's snapshot behind a shared_ptr that is swapped
// atomically (RCU-style): readers grab a reference once per request and
// keep a consistent view for its whole lifetime; the old snapshot is
// freed when the last in-flight reader drops it.
//
// Every snapshot has one shape: an immutable base core::DomainTable with
// the rows as of the last full build, shared by pointer across the delta
// generations derived from it, plus an overlay core::DomainTable with
// the rows re-swept since, keyed by an ascending row list. Two
// construction paths fill it:
//
//   build()        full rebuild from a Dataset + Rib + VrpSet; the base
//                  table is a fresh copy and the overlay is empty
//   apply_delta()  generation N+1 from N plus a changed-row set: the base
//                  table, the name index, and (when untouched) the route
//                  trie and VRP index are shared with the parent; the
//                  overlay holds every row re-swept since the base table
//                  was built, copied from the master dataset
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
#include "net/asn.hpp"
#include "net/ip.hpp"
#include "net/prefix.hpp"
#include "rpki/origin_validation.hpp"
#include "rpki/vrp.hpp"
#include "trie/prefix_trie.hpp"

namespace ripki::serve {

class Snapshot {
 public:
  /// Builds the immutable view: copies `dataset.domains` (compact SoA
  /// table, interned names), re-indexes the RIB's (prefix -> origin ASes)
  /// mapping, and rebuilds a VrpIndex from `vrps`. `generation` stamps
  /// every response from this snapshot; `parent_generation` records the
  /// lineage (0 for a from-scratch build) and must match between a delta
  /// application and its full-rebuild oracle for the byte-identity gate.
  static std::shared_ptr<const Snapshot> build(const core::Dataset& dataset,
                                               const bgp::Rib& rib,
                                               const rpki::VrpSet& vrps,
                                               std::uint64_t generation,
                                               std::uint64_t parent_generation = 0);

  /// Derives generation N+1 from `parent`, which must serve the same fixed
  /// row set as `dataset`. The overlay is the parent's overlay rows plus
  /// `changed_rows` (strictly ascending), each copied from `dataset`; all
  /// other rows read from the base table shared with the parent. That is
  /// exact as long as `dataset` rewrites a row only on a tick that lists
  /// it in `changed_rows`. `rib_if_changed` / `vrps_if_changed` are null
  /// when that layer is untouched this tick (the trie / VRP index is then
  /// shared with the parent) and point at the new state otherwise.
  /// `dataset` must be the master dataset AFTER the tick's re-sweep — the
  /// summary is re-rendered from it in full, never patched, because its
  /// %.6f fractions are not incrementally reconstructible byte-for-byte.
  static std::shared_ptr<const Snapshot> apply_delta(
      std::shared_ptr<const Snapshot> parent, const core::Dataset& dataset,
      const std::vector<std::uint32_t>& changed_rows,
      const bgp::Rib* rib_if_changed, const rpki::VrpSet* vrps_if_changed,
      std::uint64_t generation);

  std::uint64_t generation() const { return generation_; }
  /// Generation this snapshot was derived from (0 = from scratch).
  std::uint64_t parent_generation() const { return parent_generation_; }
  /// True when this snapshot came through apply_delta() rather than a
  /// full build — surfaced in /runz and bench output, not in the JSON.
  bool delta_applied() const { return delta_applied_; }
  std::size_t domain_count() const { return table_->size(); }
  /// Rows in this snapshot's overlay (0 for a full build) — the delta
  /// pipeline's compaction signal.
  std::size_t overlay_size() const { return overlay_rows_.size(); }

  /// O(log n) lookup by apex name; nullopt when absent. The view borrows
  /// the snapshot (base or overlay table) — valid as long as this
  /// snapshot is held.
  std::optional<core::DomainTable::RecordView> find_domain(
      std::string_view name) const;

  // --- JSON renderers (deterministic; the oracle contract) ---------------

  /// Rendering for /v1/domain/<name> given a record — public and static
  /// so tests can compute the expected body straight from the dataset.
  static std::string render_domain_json(const core::DomainTable::RecordView& record,
                                        std::uint64_t generation);

  /// /v1/ip/<addr>: every covering announced prefix with its origin ASes
  /// and their RFC 6811 outcome against this snapshot's VRPs.
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
  std::size_t vrp_count() const { return vrps_->size(); }

 private:
  Snapshot() = default;

  std::uint64_t generation_ = 0;
  std::uint64_t parent_generation_ = 0;
  bool delta_applied_ = false;
  /// Every row as of the last full build; shared by the delta
  /// generations derived from it.
  std::shared_ptr<const core::DomainTable> table_;
  /// Rows re-swept since `table_` was built: overlay_ row k is base row
  /// overlay_rows_[k]. Ascending, so lookups binary-search it.
  core::DomainTable overlay_;
  std::vector<std::uint32_t> overlay_rows_;
  /// Base row indices sorted by name for binary search. Shared across
  /// the delta generations (names never change).
  std::shared_ptr<const std::vector<std::uint32_t>> by_name_;
  /// Announced routes: origin ASes per prefix (AS_SET-terminated paths
  /// excluded, mirroring methodology step 3). Shared with the parent
  /// when the tick carried no RIB delta.
  std::shared_ptr<const trie::PrefixTrie<std::vector<net::Asn>>> routes_;
  /// Shared with the parent when the tick carried no VRP delta.
  std::shared_ptr<const rpki::VrpIndex> vrps_;
  std::string summary_json_;
};

}  // namespace ripki::serve
