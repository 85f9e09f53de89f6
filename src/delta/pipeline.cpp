#include "delta/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <utility>

#include "rpki/validator.hpp"

namespace ripki::delta {

namespace {

/// Sorts `values` and drops duplicates.
template <typename T>
void sort_unique(std::vector<T>& values) {
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
}

/// The nodes a row is filed under in the prefix index: each distinct
/// pair prefix is a node of `image`, which its own walk ends at.
std::vector<std::uint32_t> prefix_nodes(
    const bgp::Rib::Image& image, const core::DomainTable::RecordView& record) {
  std::vector<net::Prefix> prefixes;
  for (const auto* variant : {&record.www, &record.apex}) {
    for (const core::PrefixAsPair& pair : variant->pairs)
      prefixes.push_back(pair.prefix);
  }
  sort_unique(prefixes);
  std::vector<std::uint32_t> nodes;
  nodes.reserve(prefixes.size());
  for (const net::Prefix& prefix : prefixes) {
    nodes.push_back(image.deepest_covering(prefix));
    assert(!image.path_matches(nodes.back()).empty() &&
           image.path_matches(nodes.back()).back().prefix == prefix);
  }
  return nodes;
}

/// The nodes a row with these kept addresses is filed under in the
/// address index: each address's deepest covering node, when it has one.
std::vector<std::uint32_t> addr_nodes(
    const bgp::Rib::Image& image, const std::vector<net::IpAddress>& addrs) {
  std::vector<std::uint32_t> nodes;
  for (const net::IpAddress& addr : addrs) {
    const std::uint32_t node = image.deepest_covering(addr);
    if (node != bgp::Rib::Image::kNoNode) nodes.push_back(node);
  }
  sort_unique(nodes);
  return nodes;
}

/// The sorted distinct `keys`, thinned to about 64 at a fixed stride: the
/// deterministic sample check_against() renders.
template <typename Key>
std::vector<Key> sample_keys(std::vector<Key> keys) {
  sort_unique(keys);
  const std::size_t stride = std::max<std::size_t>(1, keys.size() / 64);
  std::vector<Key> sample;
  for (std::size_t i = 0; i < keys.size(); i += stride)
    sample.push_back(keys[i]);
  return sample;
}

/// A tick compacts the master and rebases the snapshot once the overlay
/// would exceed rows / kCompactDenominator.
constexpr std::size_t kCompactDenominator = 4;

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Appends `,"<key>":<value>` with the value as %.3f.
void append_ms(std::string& out, const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), ",\"%s\":%.3f", key, value);
  out += buf;
}

}  // namespace

IncrementalPipeline::IncrementalPipeline(const web::Ecosystem& ecosystem,
                                         DeltaConfig config)
    : eco_(ecosystem),
      config_(config),
      zone_(ecosystem, config.vantage, config.churn.seed) {}

void IncrementalPipeline::init() {
  rows_ = eco_.domain_count();

  // DNS world: the spare rows start inactive, in generation 1, not churn.
  for (const std::uint32_t row : initial_inactive_rows(config_.churn, rows_))
    zone_.set_active(row, false);

  // BGP world: a table over the collector's own entry lists. Withdraw and
  // announce store new lists, so the collector's table never changes.
  rib_ = bgp::Rib::sharing(eco_.rib());
  rib_.freeze();
  nodes_ = rib_.image();

  // RPKI world: validate the repositories, then establish the RTR session
  // the router-side VRP shadow is checked against on every VRP tick.
  rpki::RepositoryValidator validator(eco_.config().now);
  rpki::ValidationReport report = validator.validate(eco_.repositories());
  current_vrps_ = std::move(report.vrps);
  std::sort(current_vrps_.begin(), current_vrps_.end());
  current_vrps_.erase(std::unique(current_vrps_.begin(), current_vrps_.end()),
                      current_vrps_.end());
  cache_ = std::make_unique<rtr::CacheServer>(0x5157, current_vrps_);
  const auto synced = client_.sync(*cache_);
  rtr_in_sync_ = synced.ok() && client_.vrps() == cache_->current() &&
                 client_.serial() == cache_->serial();
  vrp_index_ = std::make_shared<const rpki::VrpIndex>(current_vrps_);

  // Measure every row through the batch sweep, then file each row under
  // the Figure-4 tally and the reverse indices.
  core::MeasurementPipeline::RowExtras extras;
  dataset_ = sweep(core::every_row(rows_), &extras);
  figure4_ = core::reports::Figure4Tally(dataset_.rank_space);
  prefix_rows_.assign(nodes_->node_count(), {});
  addr_rows_.assign(nodes_->node_count(), {});
  row_index_.assign(rows_, {});
  row_as_set_ = std::move(extras.as_set_entries);
  for (std::uint32_t row = 0; row < rows_; ++row) {
    const core::DomainTable::RecordView record = dataset_.domains.view(row);
    figure4_.count_row(+1, record.rank, record);
    index_row(row, record, std::move(extras.kept_addresses[row]));
  }

  generation_ = 1;
  snapshot_ = serve::Snapshot::build(dataset_, rib_.image(), vrp_index_,
                                     figure4_, generation_, 0);
  initialized_ = true;
}

ChurnUniverse IncrementalPipeline::universe() const {
  assert(initialized_);
  ChurnUniverse universe;
  universe.domain_count = rows_;
  universe.initial_vrps = current_vrps_;
  rib_.visit([&](const net::Prefix& prefix,
                 const std::vector<bgp::RibEntry>& entries) {
    if (entries.empty()) return;
    universe.announced_prefixes.push_back(prefix);
    std::set<net::Asn> origins;
    for (const bgp::RibEntry& entry : entries) {
      if (entry.as_path.contains_as_set()) continue;
      if (const auto origin = entry.origin()) origins.insert(*origin);
    }
    for (const net::Asn origin : origins) {
      const rpki::Vrp candidate{
          prefix, static_cast<std::uint8_t>(prefix.length()), origin};
      if (!std::binary_search(current_vrps_.begin(), current_vrps_.end(),
                              candidate))
        universe.candidate_vrps.push_back(candidate);
    }
  });
  return universe;
}

core::Dataset IncrementalPipeline::sweep(
    std::span<const std::uint32_t> rows,
    core::MeasurementPipeline::RowExtras* extras) const {
  core::MeasurementPipeline batch(eco_, {.vantage = config_.vantage});
  return batch.sweep(
      {.zones = &zone_, .rib = &rib_, .vrps = vrp_index_.get()}, rows,
      nullptr, extras);
}

// --- Reverse indices ------------------------------------------------------

void IncrementalPipeline::index_row(std::uint32_t row,
                                    const core::DomainTable::RecordView& record,
                                    std::vector<net::IpAddress> addrs) {
  RowIndex& index = row_index_[row];
  index.prefix_nodes = prefix_nodes(*nodes_, record);
  for (const std::uint32_t node : index.prefix_nodes)
    prefix_rows_[node].push_back(row);

  index.addrs = std::move(addrs);
  sort_unique(index.addrs);
  index.addr_nodes = addr_nodes(*nodes_, index.addrs);
  for (const std::uint32_t node : index.addr_nodes)
    addr_rows_[node].push_back(row);
}

void IncrementalPipeline::unindex_row(std::uint32_t row) {
  RowIndex& index = row_index_[row];
  for (const std::uint32_t node : index.prefix_nodes)
    std::erase(prefix_rows_[node], row);
  for (const std::uint32_t node : index.addr_nodes)
    std::erase(addr_rows_[node], row);
  index = {};
}

void IncrementalPipeline::fan_out_prefix(const net::Prefix& prefix,
                                         std::set<std::uint32_t>& dirty) const {
  // Any row with a kept address inside the prefix can change covering set,
  // pairs, or unrouted count: exactly the rows filed under a node in the
  // prefix's range, since the prefix is itself a node.
  const auto range = nodes_->within(prefix);
  for (std::uint32_t node = range.first; node < range.last; ++node)
    dirty.insert(addr_rows_[node].begin(), addr_rows_[node].end());
}

void IncrementalPipeline::fan_out_vrp(const rpki::Vrp& vrp,
                                      std::set<std::uint32_t>& dirty) const {
  // A VRP can only change the verdict of routes it covers: pair prefixes
  // equal to or more specific than vrp.prefix, which are the nodes in its
  // range whether or not vrp.prefix is itself a node.
  const auto range = nodes_->within(vrp.prefix);
  for (std::uint32_t node = range.first; node < range.last; ++node)
    dirty.insert(prefix_rows_[node].begin(), prefix_rows_[node].end());
}

// --- Tick application -----------------------------------------------------

TickStats IncrementalPipeline::apply_tick(const Tick& tick) {
  assert(initialized_);
  const auto started = std::chrono::steady_clock::now();
  // Milliseconds since the previous lap (the first lap starts at `started`).
  auto lap_start = started;
  const auto lap = [&lap_start] {
    const auto now = std::chrono::steady_clock::now();
    const double ms =
        std::chrono::duration<double, std::milli>(now - lap_start).count();
    lap_start = now;
    return ms;
  };
  TickStats stats;
  stats.tick = tick.number;
  stats.events = tick.event_count();
  std::set<std::uint32_t> dirty;

  // 1. DNS layer: domain removes/adds/retargets against the churn zone.
  // An event that changed a name dirties its row.
  const auto touch = [&](std::uint32_t row, std::size_t names) {
    if (names == 0) return;
    stats.dns_dirty_names += names;
    dirty.insert(row);
  };
  for (const std::uint32_t row : tick.domain_removes)
    touch(row, zone_.set_active(row, false));
  for (const std::uint32_t row : tick.domain_adds)
    touch(row, zone_.set_active(row, true));
  for (const std::uint32_t row : tick.cname_retargets)
    touch(row, zone_.retarget(row, tick.number));
  stats.zone_serial = zone_.serial();
  stats.dns_ms = lap();

  // 2. BGP layer: RIB diffing against the frozen trie. A prefix the
  // collector has and the RIB lacks was withdrawn, and announcing it
  // restores the collector's entries.
  for (const net::Prefix& prefix : tick.prefix_withdraws) {
    if (rib_.withdraw(prefix).empty()) continue;
    ++stats.rib_withdrawn;
    fan_out_prefix(prefix, dirty);
  }
  for (const net::Prefix& prefix : tick.prefix_announces) {
    const std::vector<bgp::RibEntry>* collected = eco_.rib().entries_for(prefix);
    if (collected == nullptr || rib_.entries_for(prefix) != nullptr) continue;
    rib_.announce(*collected);
    ++stats.rib_announced;
    fan_out_prefix(prefix, dirty);
  }
  stats.rib_changed = stats.rib_withdrawn + stats.rib_announced > 0;
  if (stats.rib_changed) rib_.refreeze();
  stats.bgp_ms = lap();

  // 3. RPKI layer: VRP set delta, pushed through the RTR session and
  // cross-checked against the router's serial-synced shadow.
  for (const rpki::Vrp& vrp : tick.roa_publishes) {
    const auto pos =
        std::lower_bound(current_vrps_.begin(), current_vrps_.end(), vrp);
    if (pos != current_vrps_.end() && *pos == vrp) continue;
    current_vrps_.insert(pos, vrp);
    ++stats.vrp_added;
    fan_out_vrp(vrp, dirty);
  }
  for (const rpki::Vrp& vrp : tick.roa_revokes) {
    const auto pos =
        std::lower_bound(current_vrps_.begin(), current_vrps_.end(), vrp);
    if (pos == current_vrps_.end() || !(*pos == vrp)) continue;
    current_vrps_.erase(pos);
    ++stats.vrp_removed;
    fan_out_vrp(vrp, dirty);
  }
  stats.vrps_changed = stats.vrp_added + stats.vrp_removed > 0;
  if (stats.vrps_changed) {
    cache_->update(current_vrps_);
    const auto synced = client_.sync(*cache_);
    rtr_in_sync_ = synced.ok() && client_.vrps() == cache_->current() &&
                   client_.serial() == cache_->serial();
    vrp_index_ = std::make_shared<const rpki::VrpIndex>(current_vrps_);
  }
  stats.rtr_in_sync = rtr_in_sync_;
  stats.rtr_serial = client_.serial();
  stats.rpki_ms = lap();

  // 4. Re-sweep only the invalidated rows; the sweep builds its kernel
  // after the refreeze, as the covering cache keys on the image's node
  // ids. Its counters add the rows' new contributions and the tick's
  // queries; each row, in row order, then swaps its old counter and tally
  // contributions for the new ones — a withdrawn all-AS_SET prefix moves
  // the AS_SET count without changing the record — and rows whose record
  // is unchanged stay out of the snapshot overlay. Both row lists are
  // ascending (the dirty set is ordered), as sweep and apply_delta need.
  const std::vector<std::uint32_t> dirty_rows(dirty.begin(), dirty.end());
  stats.dirty_rows = dirty_rows.size();
  core::MeasurementPipeline::RowExtras extras;
  const core::Dataset fresh = sweep(dirty_rows, &extras);
  dataset_.counters.merge(fresh.counters);
  std::vector<std::uint32_t> changed;
  for (std::size_t k = 0; k < dirty_rows.size(); ++k) {
    const std::uint32_t row = dirty_rows[k];
    const core::DomainTable::RecordView now = fresh.domains.view(k);
    const core::DomainTable::RecordView old = dataset_.domains.view(row);
    dataset_.counters.count_row(-1, old, row_as_set_[row]);
    figure4_.count_row(-1, old.rank, old);
    figure4_.count_row(+1, now.rank, now);
    row_as_set_[row] = extras.as_set_entries[k];
    if (old == now) continue;
    unindex_row(row);
    dataset_.domains.set_row(row, now.excluded_dns, now.dnssec_signed, now.www,
                             now.apex);
    index_row(row, now, std::move(extras.kept_addresses[k]));
    changed.push_back(row);
  }
  stats.changed_rows = changed.size();
  stats.resweep_ms = lap();

  // 5. Publish generation N+1: a delta over the parent, or — once the
  // overlay would exceed the threshold — a compaction. set_row never
  // reclaims relocated pair slots or interned CNAME targets no row refers
  // to any more; re-appending every row into a fresh table drops them.
  // That copy becomes the master, and the master as it stood becomes the
  // snapshot's new base, its dead slots and strings held until the next
  // compaction.
  ++generation_;
  const bool compact =
      (snapshot_->overlay_size() + changed.size()) * kCompactDenominator > rows_;
  if (compact) {
    std::size_t live_pairs = 0;
    for (const auto record : dataset_.domains)
      live_pairs += record.www.pairs.size() + record.apex.pairs.size();
    core::DomainTable compacted;
    // Headroom for the cycle's relocations: an exact pool makes the next
    // tick's first relocating set_row reallocate and copy all of it.
    compacted.reserve(rows_, live_pairs + live_pairs / kCompactDenominator);
    for (const auto record : dataset_.domains) compacted.append(record);
    auto base = std::make_shared<const core::DomainTable>(
        std::exchange(dataset_.domains, std::move(compacted)));
    snapshot_ = serve::Snapshot::rebase(snapshot_, std::move(base), dataset_,
                                        rib_.image(), vrp_index_, figure4_,
                                        generation_);
    stats.compacted = true;
    ++compactions_;
  } else {
    snapshot_ = serve::Snapshot::apply_delta(snapshot_, dataset_, changed,
                                             rib_.image(), vrp_index_,
                                             figure4_, generation_);
  }
  stats.generation = generation_;
  stats.overlay_size = snapshot_->overlay_size();
  stats.publish_ms = lap();
  stats.apply_ms = elapsed_ms(started);

  ++ticks_applied_;
  if (history_.size() >= 512) history_.erase(history_.begin());
  history_.push_back(stats);
  return stats;
}

// --- Oracle ---------------------------------------------------------------

std::shared_ptr<const serve::Snapshot> IncrementalPipeline::full_rebuild() const {
  assert(initialized_);
  // The batch sweep over every row of the world as it stands now, its
  // table moved into the snapshot.
  return serve::Snapshot::build(sweep(core::every_row(rows_), nullptr), rib_,
                                current_vrps_, snapshot_->generation(),
                                snapshot_->parent_generation());
}

IncrementalPipeline::OracleReport IncrementalPipeline::check_against(
    const serve::Snapshot& full) const {
  OracleReport report;
  const serve::Snapshot& mine = *snapshot_;
  const auto fail = [&report](std::string what) {
    report.identical = false;
    report.divergence = std::move(what);
  };

  // dns_queries counts every query sent, re-sweeps included, so it is the
  // one counter left out.
  core::PipelineCounters counters = mine.counters();
  counters.dns_queries = full.counters().dns_queries;
  if (!(counters == full.counters())) {
    fail("counters");
    return report;
  }
  if (!(mine.figure4() == full.figure4())) {
    fail("figure-4 tally");
    return report;
  }

  if (mine.summary_json() != full.summary_json()) {
    fail("/v1/summary");
    return report;
  }
  ++report.endpoints_checked;

  for (std::size_t row = 0; row < rows_; ++row) {
    const std::string name(dataset_.domains.name(row));
    const auto a = mine.find_domain(name);
    const auto b = full.find_domain(name);
    if (a.has_value() != b.has_value()) {
      fail("/v1/domain/" + name + " (presence)");
      return report;
    }
    if (!a.has_value()) continue;
    if (serve::Snapshot::render_domain_json(*a, mine.generation()) !=
        serve::Snapshot::render_domain_json(*b, full.generation())) {
      fail("/v1/domain/" + name);
      return report;
    }
    ++report.endpoints_checked;
  }

  // Deterministic samples of the address- and prefix-keyed endpoints,
  // drawn from the rows' distinct kept addresses and pair prefixes.
  std::vector<net::IpAddress> addrs;
  for (const RowIndex& row : row_index_)
    addrs.insert(addrs.end(), row.addrs.begin(), row.addrs.end());
  for (const net::IpAddress& addr : sample_keys(std::move(addrs))) {
    if (mine.ip_json(addr) != full.ip_json(addr)) {
      fail("/v1/ip/" + addr.to_string());
      return report;
    }
    ++report.endpoints_checked;
  }
  std::vector<net::Prefix> prefixes;
  for (const auto record : dataset_.domains) {
    for (const auto* variant : {&record.www, &record.apex}) {
      for (const auto& pair : variant->pairs) prefixes.push_back(pair.prefix);
    }
  }
  for (const net::Prefix& prefix : sample_keys(std::move(prefixes))) {
    const std::set<net::Asn> origins = rib_.origins_for(prefix);
    const net::Asn origin =
        origins.empty() ? net::Asn(64999) : *origins.begin();
    if (mine.prefix_json(prefix, origin) != full.prefix_json(prefix, origin)) {
      fail("/v1/prefix/" + prefix.to_string() + "/" + origin.to_string());
      return report;
    }
    ++report.endpoints_checked;
  }
  return report;
}

std::string IncrementalPipeline::deltaz_json() const {
  std::string out = "{";
  out += "\"ticks\":" + std::to_string(ticks_applied_);
  out += ",\"generation\":" + std::to_string(generation_);
  out += ",\"rows\":" + std::to_string(rows_);
  out += ",\"zone_serial\":" + std::to_string(zone_.serial());
  out += ",\"zone_overrides\":" + std::to_string(zone_.override_count());
  out += ",\"zone_suppressed\":" + std::to_string(zone_.suppressed_count());
  out += ",\"rtr_serial\":" + std::to_string(client_.serial());
  out += std::string(",\"rtr_in_sync\":") + (rtr_in_sync_ ? "true" : "false");
  out += ",\"vrp_count\":" + std::to_string(current_vrps_.size());
  out += ",\"withdrawn_prefixes\":" +
         std::to_string(eco_.rib().prefix_count() - rib_.prefix_count());
  out += ",\"overlay_size\":" +
         std::to_string(snapshot_ ? snapshot_->overlay_size() : 0);
  out += ",\"compactions\":" + std::to_string(compactions_);
  out += ",\"history\":[";
  const std::size_t window = std::min<std::size_t>(history_.size(), 32);
  for (std::size_t k = history_.size() - window; k < history_.size(); ++k) {
    const TickStats& s = history_[k];
    if (k != history_.size() - window) out += ',';
    out += "{\"tick\":" + std::to_string(s.tick);
    out += ",\"generation\":" + std::to_string(s.generation);
    out += ",\"events\":" + std::to_string(s.events);
    out += ",\"dns_dirty_names\":" + std::to_string(s.dns_dirty_names);
    out += ",\"dirty_rows\":" + std::to_string(s.dirty_rows);
    out += ",\"changed_rows\":" + std::to_string(s.changed_rows);
    out += ",\"rib_withdrawn\":" + std::to_string(s.rib_withdrawn);
    out += ",\"rib_announced\":" + std::to_string(s.rib_announced);
    out += ",\"vrp_added\":" + std::to_string(s.vrp_added);
    out += ",\"vrp_removed\":" + std::to_string(s.vrp_removed);
    out += std::string(",\"compacted\":") + (s.compacted ? "true" : "false");
    out += ",\"overlay_size\":" + std::to_string(s.overlay_size);
    append_ms(out, "apply_ms", s.apply_ms);
    append_ms(out, "dns_ms", s.dns_ms);
    append_ms(out, "bgp_ms", s.bgp_ms);
    append_ms(out, "rpki_ms", s.rpki_ms);
    append_ms(out, "resweep_ms", s.resweep_ms);
    append_ms(out, "publish_ms", s.publish_ms);
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace ripki::delta
