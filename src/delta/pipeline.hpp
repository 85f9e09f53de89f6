// Incremental end-to-end pipeline: churn ticks in, snapshot deltas out.
//
// IncrementalPipeline keeps live under churn the world the batch
// MeasurementPipeline treats as frozen — a ChurnZone over the ecosystem's
// zone source (domain adds/removes/retargets, two numbers per row), a RIB
// that supports withdraw/announce/refreeze, and a VRP set kept in sync
// with an RTR cache/router pair — over a fixed row set, and publishes its
// rows as a chain of serve::Snapshot generations. Each apply_tick():
//
//   1. applies the tick's events to every layer,
//   2. derives the invalidation set: each zone event that changed a name
//      marks its row dirty, and RIB and VRP deltas fan out through one
//      address->rows reverse index keyed on the nodes of the RIB image
//      frozen at init(), so a prefix fans out over one range of node ids;
//      a VRP keeps only the rows with a pair inside its prefix,
//   3. re-measures only those rows through core::MeasurementPipeline::
//      sweep, the batch sweep itself (DNS resolve -> covering prefixes ->
//      RFC 6811), over the dirty row list, then takes the returned rows
//      in row order, swapping each row's old counter and Figure-4 tally
//      contributions (read from the parent snapshot) for its new ones,
//   4. publishes generation N+1 via serve::Snapshot::apply_delta, which
//      adds one segment of the rows whose record changed, or, once the
//      overlay would exceed a quarter of the rows, compacts: it appends
//      every current row into a fresh base.
//
// Each fact is stored once. The published snapshot is the one store of
// the rows, their counters and their tally. The RIB is built over the
// collector table's entry lists (bgp::Rib::sharing) and copies no entry; a
// withdrawn prefix is one the collector has and the RIB lacks, and a
// re-announce restores the collector's entries. The zone stores no record,
// only a retarget's tick. The pipeline itself keeps only what no other
// object holds: each row's kept addresses and AS_SET count, and the
// reverse index with the image it is keyed on and the nodes each row is
// filed under. Which pairs a VRP can touch is read from the rows' stored
// records, not indexed again.
//
// Each world object is built once per generation and shared by pointer:
// the RIB's image (refrozen on a BGP tick) and the VrpIndex (rebuilt on a
// VRP tick) feed both the tick's sweep and the published snapshot, so a
// publish costs what the tick changed.
//
// full_rebuild() is the oracle: the same sweep over every row of the
// *current* world (churn zone, refrozen RIB, current VRP index), built
// into a from-scratch snapshot with the same generation stamps, a
// VrpIndex of its own and a tally filled from its rows. check_against()
// byte-compares the two across every /v1/* endpoint rendering and
// compares their counters and tallies; identity on every tick is the
// subsystem's correctness gate.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bgp/rib.hpp"
#include "core/dataset.hpp"
#include "core/pipeline.hpp"
#include "delta/churn.hpp"
#include "delta/zone.hpp"
#include "net/ip.hpp"
#include "net/prefix.hpp"
#include "rpki/origin_validation.hpp"
#include "rpki/vrp.hpp"
#include "rtr/cache.hpp"
#include "rtr/client.hpp"
#include "serve/snapshot.hpp"
#include "web/ecosystem.hpp"

namespace ripki::delta {

struct DeltaConfig {
  ChurnConfig churn;
  web::Vantage vantage = web::Vantage::kBerlin;
};

/// Per-tick telemetry: delta sizes, invalidation fan-out, apply cost.
/// The five phase times are consecutive laps of apply_tick's clock, one
/// per layer (each layer applies its events and fans them out before the
/// next starts), so they sum to at most apply_ms.
struct TickStats {
  std::uint64_t tick = 0;
  std::uint64_t generation = 0;
  std::size_t events = 0;
  std::size_t dns_dirty_names = 0;  // zone names the tick's events changed
  std::size_t dirty_rows = 0;       // rows re-swept (invalidation fan-out)
  std::size_t changed_rows = 0;     // rows whose stored record changed
  std::size_t rib_withdrawn = 0;
  std::size_t rib_announced = 0;
  std::size_t vrp_added = 0;
  std::size_t vrp_removed = 0;
  bool rib_changed = false;
  bool vrps_changed = false;
  bool rtr_in_sync = true;
  bool compacted = false;  // the publish compacted the snapshot
  std::uint32_t zone_serial = 0;
  std::uint32_t rtr_serial = 0;
  std::size_t overlay_size = 0;
  double apply_ms = 0.0;
  double dns_ms = 0.0;      // zone events, each marking its row dirty
  double bgp_ms = 0.0;      // withdraws/announces, fan-out, refreeze
  double rpki_ms = 0.0;     // VRP delta, fan-out, RTR sync, VRP index
  double resweep_ms = 0.0;  // dirty rows through the sweep, then applied
  /// Snapshot publish: the overlay row-list merge and the summary render
  /// from the Figure-4 tally. On a compacting tick, also the copy of every
  /// current row into a fresh base, plus freeing what only the parent
  /// snapshot held: its base and segments.
  double publish_ms = 0.0;
};

class IncrementalPipeline {
 public:
  /// `ecosystem` is borrowed and must outlive the pipeline.
  IncrementalPipeline(const web::Ecosystem& ecosystem, DeltaConfig config);

  /// Builds the mutable world (spare rows suppressed, RIB built over the
  /// collector's lists and frozen, repositories validated, RTR session
  /// established), measures every row, and publishes generation 1.
  void init();

  /// Churn candidates for a TickGenerator, derived from the initialised
  /// world. Requires init().
  ChurnUniverse universe() const;

  /// Applies one tick end to end and publishes the next generation.
  TickStats apply_tick(const Tick& tick);

  /// From-scratch oracle of the current world: the batch pipeline's
  /// sweep re-measures every row, and the snapshot is rebuilt with the
  /// same generation/lineage stamps as the published one.
  std::shared_ptr<const serve::Snapshot> full_rebuild() const;

  struct OracleReport {
    bool identical = true;
    std::size_t endpoints_checked = 0;
    std::string divergence;  // first mismatching endpoint, when any
  };
  /// Compares the published snapshot against `full`: the counters (all
  /// but the cumulative dns_queries) and the Figure-4 tally as integers,
  /// then the bytes of the summary, every /v1/domain rendering, and a
  /// deterministic sample of /v1/ip and /v1/prefix renderings.
  OracleReport check_against(const serve::Snapshot& full) const;

  std::shared_ptr<const serve::Snapshot> snapshot() const { return snapshot_; }
  /// The published rows with their counters, copied out of the snapshot
  /// into a fresh table: O(rows), so hoist it out of loops. Empty before
  /// init().
  core::Dataset dataset() const {
    if (!snapshot_) return {};
    return {snapshot_->copy_rows(), snapshot_->counters(),
            snapshot_->rank_space()};
  }
  std::uint64_t generation() const { return generation_; }
  std::size_t row_count() const { return rows_; }
  std::uint32_t zone_serial() const { return zone_.serial(); }
  std::uint32_t rtr_serial() const { return client_.serial(); }
  bool rtr_in_sync() const { return rtr_in_sync_; }
  std::uint64_t ticks_applied() const { return ticks_applied_; }
  std::uint64_t compactions() const { return compactions_; }
  const std::vector<TickStats>& history() const { return history_; }

  /// /deltaz payload: world serials plus the recent per-tick stats.
  std::string deltaz_json() const;

 private:
  /// The batch sweep over `rows` of the current world, without a pool.
  core::Dataset sweep(std::span<const std::uint32_t> rows,
                      core::MeasurementPipeline::RowExtras* extras) const;
  void index_row(std::uint32_t row, std::vector<net::IpAddress> addrs);
  void unindex_row(std::uint32_t row);
  /// Appends to `dirty` the rows filed under a node inside `prefix` (for a
  /// node, the rows with a kept address inside it); with `pair_inside`,
  /// only those whose published record has a pair inside `prefix`.
  void fan_out(const net::Prefix& prefix, bool pair_inside,
               std::vector<std::uint32_t>& dirty) const;

  const web::Ecosystem& eco_;
  DeltaConfig config_;
  std::size_t rows_ = 0;
  bool initialized_ = false;

  // --- DNS layer ---------------------------------------------------------
  ChurnZone zone_;

  // --- BGP layer ---------------------------------------------------------
  /// Built over eco_.rib()'s lists; only withdraw and a re-announce of a
  /// withdrawn prefix change it.
  bgp::Rib rib_;

  // --- RPKI / RTR layer --------------------------------------------------
  rpki::VrpSet current_vrps_;  // sorted canonical
  std::unique_ptr<rtr::CacheServer> cache_;
  rtr::RouterClient client_;
  std::shared_ptr<const rpki::VrpIndex> vrp_index_;  // rebuilt per VRP tick
  bool rtr_in_sync_ = true;

  // --- Published rows ----------------------------------------------------
  /// The rows, their counters and their tally, as of the last tick.
  std::shared_ptr<const serve::Snapshot> snapshot_;
  std::uint64_t generation_ = 0;

  // --- Reverse index (invalidation fan-out) ------------------------------
  /// The RIB image frozen at init(), before any churn. Every prefix a tick
  /// can withdraw or announce, and every pair prefix, is a collector
  /// prefix and so one of its nodes; Frozen::within() gives the nodes
  /// inside any prefix as one id range. The index is keyed on its node ids.
  std::shared_ptr<const bgp::Rib::Image> nodes_;
  /// node -> rows with a kept address whose deepest covering node it is:
  /// an address lies inside a prefix exactly when its deepest node is in
  /// the prefix's range. An address no node covers lies inside no prefix
  /// a tick can change, and is not indexed.
  std::vector<std::vector<std::uint32_t>> addr_rows_;
  /// Per row: its kept addresses, which the snapshot does not store,
  /// and the nodes index_row() filed the row under, so that unindex_row()
  /// walks no trie.
  struct RowIndex {
    std::vector<net::IpAddress> addrs;
    std::vector<std::uint32_t> addr_nodes;
  };
  std::vector<RowIndex> row_index_;
  /// Per row: AS_SET entries its measurement excluded — the one counter
  /// contribution the snapshot's rows do not store.
  std::vector<std::uint32_t> row_as_set_;

  std::vector<TickStats> history_;
  std::uint64_t ticks_applied_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace ripki::delta
