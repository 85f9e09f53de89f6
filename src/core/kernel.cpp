#include "core/kernel.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <span>

#include "net/special.hpp"
#include "obs/sched.hpp"
#include "obs/span.hpp"

namespace ripki::core {

MeasurementKernel::MeasurementKernel(const dns::AuthoritativeServer* server,
                                     const bgp::Rib* rib,
                                     const rpki::VrpIndex* index,
                                     obs::Registry* registry,
                                     obs::SchedTelemetry* sched)
    : resolver_(server),
      vrps_(index),
      image_(rib->image()),
      slots_(image_->node_count() + 1),
      registry_(registry),
      sched_(sched) {
  resolver_.attach(registry);
}

const MeasurementKernel::RouteSlot& MeasurementKernel::route(
    const net::IpAddress& addr) {
  const std::uint32_t node = image_->deepest_covering(addr);
  const auto index = static_cast<std::uint32_t>(
      node == bgp::Rib::Image::kNoNode ? slots_.size() - 1 : node);
  RouteSlot& slot = slots_[index];
  if (slot.state != RouteSlot::State::kEmpty) {
    ++covering_hits_;
    validation_hits_ += slot.size;
    return slot;
  }
  ++covering_misses_;
  const std::vector<bgp::Rib::CoveringResult> covering =
      bgp::Rib::covering_path(*image_, node);
  if (covering.empty()) {
    slot.state = RouteSlot::State::kUnrouted;
    return slot;
  }
  std::vector<PrefixAsPair> pairs;
  for (const auto& match : covering) {
    for (const auto& entry : *match.entries) {
      if (entry.as_path.contains_as_set()) {
        ++slot.as_set_entries;
        continue;
      }
      const auto origin = entry.origin();
      if (!origin.has_value()) continue;
      pairs.push_back(PrefixAsPair{match.prefix, *origin});
    }
  }
  dedupe_pairs(pairs);
  slot.state = RouteSlot::State::kRouted;
  slot.begin = static_cast<std::uint32_t>(route_pairs_.size());
  slot.size = static_cast<std::uint32_t>(pairs.size());
  route_pairs_.insert(route_pairs_.end(), pairs.begin(), pairs.end());
  if (!pairs.empty()) unvalidated_.push_back(index);
  return slot;
}

void MeasurementKernel::validate_fills(std::vector<PrefixAsPair>& pairs) {
  for (const std::uint32_t index : unvalidated_) {
    const RouteSlot& slot = slots_[index];
    // Both lists are sorted by (prefix, origin), and the variant's holds
    // every pair of the slot, so one forward search finds each.
    auto at = pairs.begin();
    for (PrefixAsPair& filled :
         std::span(route_pairs_).subspan(slot.begin, slot.size)) {
      filled.validity = vrps_->validate(filled.prefix, filled.origin);
      at = std::lower_bound(at, pairs.end(), filled, pair_key_less);
      assert(at != pairs.end() && !pair_key_less(filled, *at));
      at->validity = filled.validity;
    }
    validation_misses_ += slot.size;
  }
  unvalidated_.clear();
}

void MeasurementKernel::measure_variant(const dns::DnsName& name,
                                        VariantResult& out) {
  out.reset();

  // Step 2: resolve A/AAAA with CNAME chasing.
  obs::Span dns_span(registry_, "stage2.dns", sched_, obs::SweepStage::kDns);
  const auto resolution = resolver_.resolve_all_scratch(name);
  dns_span.stop();
  if (!resolution.ok()) return;  // treated as unresolvable
  const dns::Resolution& res = *resolution.value();
  out.cname_hops = static_cast<std::uint8_t>(
      std::min<std::size_t>(res.cname_hops(), 255));
  if (res.cname_hops() > 0) {
    std::array<char, 256> text;
    out.terminal_cname.assign(res.chain.back().text(text));
  }
  if (res.rcode != dns::Rcode::kNoError) return;

  // Filter IANA special-purpose answers; the rest join the row's kept
  // addresses.
  std::vector<net::IpAddress>& kept = row_.kept_addresses;
  const std::size_t first = kept.size();
  for (const auto& addr : res.addresses) {
    if (net::is_special_purpose(addr)) {
      ++out.special_purpose_excluded;
      continue;
    }
    kept.push_back(addr);
  }
  if (kept.size() == first) return;
  out.resolved = true;
  out.address_count = static_cast<std::uint16_t>(
      std::min<std::size_t>(kept.size() - first, UINT16_MAX));

  // Step 3: all covering prefixes and their origin ASes, read from the
  // route memo (addresses sharing a deepest prefix share a slot), then
  // deduplicated across the variant's addresses: a domain with several
  // addresses in one prefix yields the pair once.
  obs::Span lookup_span(registry_, "stage3.prefix_origin", sched_,
                        obs::SweepStage::kCovering);
  std::vector<PrefixAsPair>& pairs = out.pairs;  // reset() kept capacity
  for (std::size_t i = first; i < kept.size(); ++i) {
    const RouteSlot& slot = route(kept[i]);
    row_.as_set_entries_excluded += slot.as_set_entries;
    if (slot.state == RouteSlot::State::kUnrouted) {
      ++out.unrouted_addresses;
      continue;
    }
    const auto begin = route_pairs_.begin() + slot.begin;
    pairs.insert(pairs.end(), begin, begin + slot.size);
  }
  dedupe_pairs(pairs);
  lookup_span.stop();

  // Step 4: RFC 6811 on the pairs this variant's fills produced; every
  // other pair came with the verdict its slot keeps.
  if (!unvalidated_.empty()) {
    obs::Span validate_span(registry_, "stage4.origin_validation", sched_,
                            obs::SweepStage::kValidation);
    validate_fills(pairs);
  }
}

const DomainMeasurement& MeasurementKernel::measure(std::string_view apex) {
  auto apex_name = dns::DnsName::parse(apex);
  assert(apex_name.ok());
  apex_name.value().prepended("www", www_name_);

  row_.as_set_entries_excluded = 0;
  row_.kept_addresses.clear();
  measure_variant(www_name_, row_.www);
  measure_variant(apex_name.value(), row_.apex);
  row_.excluded_dns = !row_.www.resolved && !row_.apex.resolved;

  // DNSSEC adoption probe (future-work comparison): does the zone apex
  // publish a DNSKEY? Charged to the DNS stage on the lane only; it has
  // no histogram of its own, and traces as "dns" on the worker's track.
  row_.dnssec_signed = false;
  obs::Span probe_span(sched_, obs::SweepStage::kDns);
  if (auto dnskey =
          resolver_.query(apex_name.value(), dns::RecordType::kDnskey);
      dnskey.ok()) {
    for (const auto& rr : dnskey.value()->answers) {
      if (rr.type == dns::RecordType::kDnskey) {
        row_.dnssec_signed = true;
        break;
      }
    }
  }
  return row_;
}

}  // namespace ripki::core
