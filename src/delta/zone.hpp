// The churn layer's DNS: the ecosystem's zone with the delta's domain
// events applied. A tick removes domains, adds them back and moves their
// www name onto an overlay CDN name (CNAME indirection, §4.3). A retarget
// of row R at tick T is fully determined by (churn seed, T, R), so the
// zone stores no record: per row it keeps whether the row is active and
// the tick of its current retarget (0 = none), and answers from that:
//
//   - an inactive row's apex and www names are NXDOMAIN;
//   - a retargeted row's www name holds one CNAME, to
//     edge-t<T>-d<R>.cdn-overlay.example, and nothing else;
//   - that target holds one or two A records in the retarget pool (the
//     announced IPv4 prefixes of length <= 24) until the row's next
//     retarget, also while the row is inactive;
//   - every other name is the base zone's.
//
// Answers only read: any number of threads may query at once while
// nothing mutates the zone.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "dns/zone.hpp"
#include "net/prefix.hpp"
#include "web/ecosystem.hpp"

namespace ripki::delta {

class ChurnZone final : public dns::ZoneSource {
 public:
  /// Every row starts active and not retargeted. `eco` is borrowed and
  /// must outlive the zone; `seed` is the churn seed targets derive from.
  ChurnZone(const web::Ecosystem& eco, web::Vantage vantage, std::uint64_t seed);

  bool answer(const dns::DnsName& name, dns::RecordType type,
              dns::RecordSink& out) const override;

  /// Each mutation bumps the serial once per name it changes and returns
  /// that count. (De)activating changes the apex and www names, or nothing
  /// when the row is already so. A retarget changes the www name and the
  /// new target, and drops the previous target when there is one; ticks
  /// count from 1. Without a retarget pool a retarget changes nothing.
  std::size_t set_active(std::uint32_t row, bool active);
  std::size_t retarget(std::uint32_t row, std::uint64_t tick);

  std::uint32_t serial() const { return serial_; }
  /// Names the zone answers for instead of the base: each retargeted
  /// row's www name and current target.
  std::size_t override_count() const {
    return 2 * (tick_.size() - std::count(tick_.begin(), tick_.end(), 0u));
  }
  /// NXDOMAIN names: each inactive row's apex and www names.
  std::size_t suppressed_count() const {
    return 2 * std::count(active_.begin(), active_.end(), 0);
  }

 private:
  enum class Kind { kBase, kNxDomain, kCname, kTarget };
  /// What `name` is to the zone, and in `row` the row it belongs to.
  Kind match(const dns::DnsName& name, std::uint32_t& row) const;
  /// The first label of retargeted row `row`'s current target,
  /// "edge-t<tick>-d<row>", written into `buf`.
  std::string_view target_label(std::uint32_t row, std::array<char, 48>& buf) const;

  const web::Ecosystem& eco_;
  const dns::ZoneSource& base_;
  /// The zone every target lives in.
  dns::DnsName overlay_;
  std::uint64_t seed_;
  std::vector<net::Prefix> pool_;
  std::vector<char> active_;
  std::vector<std::uint32_t> tick_;
  std::uint32_t serial_ = 0;
};

}  // namespace ripki::delta
