// core::MeasurementKernel — the paper's per-domain measurement, written
// once. For one domain it runs stages 2–4 of Figure 2's toolchain on both
// name variants (www.<d> and <d>):
//
//   resolve A/AAAA with CNAME chasing -> drop IANA special-purpose answers
//   -> all covering prefixes and their origin ASes (AS_SET paths excluded,
//   RFC 6472) -> dedupe -> RFC 6811 origin validation
//
// plus the DNSSEC-adoption comparison's DNSKEY probe. Only
// MeasurementPipeline::sweep runs it, over a row list: the batch and the
// delta pipeline's init and oracle pass every row, a delta tick its dirty
// rows. So a delta row and a batch row cannot disagree by construction.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "bgp/covering_cache.hpp"
#include "core/dataset.hpp"
#include "dns/resolver.hpp"
#include "net/ip.hpp"
#include "rpki/validation_cache.hpp"

namespace ripki::obs {
class Registry;
class SchedTelemetry;
}

namespace ripki::core {

/// One measured domain: the record the dataset stores, plus what the
/// counters and the delta pipeline's reverse index need beyond it.
struct DomainMeasurement {
  bool excluded_dns = false;  // neither variant kept an address
  bool dnssec_signed = false;
  VariantResult www;
  VariantResult apex;
  /// Covering-route entries skipped because their AS path carries an
  /// AS_SET (both variants, before dedupe). The table does not store it.
  std::uint32_t as_set_entries_excluded = 0;
  /// Addresses kept after the special-purpose filter, www variant first.
  std::vector<net::IpAddress> kept_addresses;
};

class MeasurementKernel {
 public:
  /// Every pointer is borrowed and must outlive the kernel, except `rib`:
  /// the covering cache pins the RIB image current at construction and
  /// measures against it for the kernel's lifetime. The VRP index must
  /// stay unchanged while the kernel lives, because validation verdicts
  /// are memoized. `shared` is an optional pre-warmed validation tier;
  /// `registry` (trace spans, resolver counters) and `sched` (per-stage
  /// lane attribution) are optional telemetry.
  MeasurementKernel(const dns::AuthoritativeServer* server, const bgp::Rib* rib,
                    const rpki::VrpIndex* index,
                    const rpki::SharedValidationCache* shared = nullptr,
                    obs::Registry* registry = nullptr,
                    obs::SchedTelemetry* sched = nullptr);

  /// Measures the domain whose apex is `apex`. The result is the kernel's
  /// reusable scratch and stays valid until the next call.
  const DomainMeasurement& measure(std::string_view apex);

  std::uint64_t queries_sent() const { return resolver_.queries_sent(); }
  const bgp::CoveringCache& covering_cache() const { return covering_; }
  const rpki::ValidationCache& validation_cache() const { return validation_; }

 private:
  /// Measures one name variant into `out`, appending its kept addresses
  /// to the row's.
  void measure_variant(const dns::DnsName& name, VariantResult& out);

  dns::StubResolver resolver_;
  bgp::CoveringCache covering_;
  rpki::ValidationCache validation_;
  obs::Registry* registry_;
  obs::SchedTelemetry* sched_;
  DomainMeasurement row_;
};

}  // namespace ripki::core
