// core::MeasurementKernel — the paper's per-domain measurement, written
// once. For one domain it runs stages 2–4 of Figure 2's toolchain on both
// name variants (www.<d> and <d>):
//
//   resolve A/AAAA with CNAME chasing -> drop IANA special-purpose answers
//   -> all covering prefixes and their origin ASes (AS_SET paths excluded,
//   RFC 6472) -> dedupe -> RFC 6811 origin validation
//
// plus the DNSSEC-adoption comparison's DNSKEY probe. Stages 3 and 4 read
// a route memo: one slot per node of the RIB image the kernel pins, filled
// on first use with that node's validated covering pairs, so a repeated
// deepest prefix costs one trie walk and a span copy. Only
// MeasurementPipeline::sweep runs it, over a row list: the batch and the
// delta pipeline's init and oracle pass every row, a delta tick its dirty
// rows. So a delta row and a batch row cannot disagree by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "bgp/rib.hpp"
#include "core/dataset.hpp"
#include "dns/resolver.hpp"
#include "net/ip.hpp"
#include "rpki/origin_validation.hpp"

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
  /// the route memo pins the RIB image current at construction and
  /// measures against it for the kernel's lifetime, so a kernel over a
  /// newer image is a new kernel. The VRP index must stay unchanged while
  /// the kernel lives, because the memo keeps its verdicts. `registry`
  /// (trace spans, resolver counters) and `sched` (per-stage lane
  /// attribution) are optional telemetry.
  MeasurementKernel(const dns::AuthoritativeServer* server, const bgp::Rib* rib,
                    const rpki::VrpIndex* index,
                    obs::Registry* registry = nullptr,
                    obs::SchedTelemetry* sched = nullptr);

  /// Measures the domain whose apex is `apex`. The result is the kernel's
  /// reusable scratch and stays valid until the next call.
  const DomainMeasurement& measure(std::string_view apex);

  std::uint64_t queries_sent() const { return resolver_.queries_sent(); }

  /// Route-memo traffic. A covering hit is a lookup that found its slot
  /// filled, a covering miss one that filled it; a validation miss is a
  /// pair validated while filling a slot, a validation hit a pair taken
  /// from a filled slot.
  std::uint64_t covering_hits() const { return covering_hits_; }
  std::uint64_t covering_misses() const { return covering_misses_; }
  std::uint64_t validation_hits() const { return validation_hits_; }
  std::uint64_t validation_misses() const { return validation_misses_; }

 private:
  /// One memo slot: the node's covering pairs, AS_SET entries skipped and
  /// duplicates dropped, as [begin, begin + size) of `route_pairs_`, and
  /// the AS_SET entries its covering set holds.
  struct RouteSlot {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t as_set_entries = 0;
    enum class State : std::uint8_t { kEmpty, kUnrouted, kRouted };
    State state = State::kEmpty;
  };

  /// Measures one name variant into `out`, appending its kept addresses
  /// to the row's.
  void measure_variant(const dns::DnsName& name, VariantResult& out);
  /// The filled slot of `addr`'s deepest covering node. A fill walks the
  /// node's covering path and queues the slot for validate_fills().
  const RouteSlot& route(const net::IpAddress& addr);
  /// Validates the pairs of the slots this variant filled, and gives
  /// `pairs` (sorted and deduplicated) their verdicts.
  void validate_fills(std::vector<PrefixAsPair>& pairs);

  dns::StubResolver resolver_;
  const rpki::VrpIndex* vrps_;
  std::shared_ptr<const bgp::Rib::Image> image_;
  /// One slot per node of `image_`, plus one for "no covering node".
  std::vector<RouteSlot> slots_;
  std::vector<PrefixAsPair> route_pairs_;
  /// Slots filled since the last validate_fills(), not yet validated.
  std::vector<std::uint32_t> unvalidated_;
  std::uint64_t covering_hits_ = 0;
  std::uint64_t covering_misses_ = 0;
  std::uint64_t validation_hits_ = 0;
  std::uint64_t validation_misses_ = 0;
  obs::Registry* registry_;
  obs::SchedTelemetry* sched_;
  /// The row's www name, built over the previous row's buffer.
  dns::DnsName www_name_;
  DomainMeasurement row_;
};

}  // namespace ripki::core
