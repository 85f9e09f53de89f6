#include "core/kernel.hpp"

#include <algorithm>
#include <cassert>

#include "net/special.hpp"
#include "obs/sched.hpp"
#include "obs/span.hpp"

namespace ripki::core {

MeasurementKernel::MeasurementKernel(const dns::AuthoritativeServer* server,
                                     const bgp::Rib* rib,
                                     const rpki::VrpIndex* index,
                                     const rpki::SharedValidationCache* shared,
                                     obs::Registry* registry,
                                     obs::SchedTelemetry* sched)
    : resolver_(server),
      covering_(rib),
      validation_(index, shared),
      registry_(registry),
      sched_(sched) {
  resolver_.attach(registry);
}

void MeasurementKernel::measure_variant(const dns::DnsName& name,
                                        VariantResult& out) {
  out.reset();

  // Step 2: resolve A/AAAA with CNAME chasing.
  obs::Span dns_span(registry_, "stage2.dns", sched_, obs::SweepStage::kDns);
  auto resolution = resolver_.resolve_all(name);
  dns_span.stop();
  if (!resolution.ok()) return;  // treated as unresolvable
  const dns::Resolution& res = resolution.value();
  out.cname_hops = static_cast<std::uint8_t>(
      std::min<std::size_t>(res.cname_hops(), 255));
  if (res.cname_hops() > 0) out.terminal_cname = res.chain.back().to_string();
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

  // Step 3: all covering prefixes and their origin ASes, through the
  // memoized covering lookup (keyed on frozen-trie node indices, so
  // addresses sharing a deepest prefix share a slot).
  obs::Span lookup_span(registry_, "stage3.prefix_origin", sched_,
                        obs::SweepStage::kCovering);
  std::vector<PrefixAsPair>& pairs = out.pairs;  // reset() kept capacity
  for (std::size_t i = first; i < kept.size(); ++i) {
    const auto& covering = covering_.covering(kept[i]);
    if (covering.empty()) {
      ++out.unrouted_addresses;
      continue;
    }
    for (const auto& match : covering) {
      for (const auto& entry : *match.entries) {
        if (entry.as_path.contains_as_set()) {
          ++row_.as_set_entries_excluded;
          continue;
        }
        const auto origin = entry.origin();
        if (!origin.has_value()) continue;
        pairs.push_back(PrefixAsPair{match.prefix, *origin});
      }
    }
  }

  // Deduplicate (a domain with several addresses in one prefix yields the
  // pair once) and run step 4 on each unique pair: shared warm tier
  // first, private overflow second.
  dedupe_pairs(pairs);
  lookup_span.stop();
  obs::Span validate_span(registry_, "stage4.origin_validation", sched_,
                          obs::SweepStage::kValidation);
  for (auto& pair : pairs) {
    pair.validity = validation_.validate(pair.prefix, pair.origin);
  }
}

const DomainMeasurement& MeasurementKernel::measure(std::string_view apex) {
  auto apex_name = dns::DnsName::parse(apex);
  assert(apex_name.ok());
  const dns::DnsName www_name = apex_name.value().prepended("www");

  row_.as_set_entries_excluded = 0;
  row_.kept_addresses.clear();
  measure_variant(www_name, row_.www);
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
