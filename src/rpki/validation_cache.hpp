// (prefix, origin) -> OriginValidity memo in front of VrpIndex::validate().
//
// RFC 6811 classification is a pure function of the (immutable) VRP set,
// which makes it safe to memoize. SharedValidationCache is a read-mostly
// map: warmed once from a RIB's (prefix, origin) pairs, then read by any
// number of threads without locks.
//
// The measurement kernel does not use it: each kernel's route memo keeps
// the verdicts of the pairs its lookups produced (core/kernel.hpp). Its
// last callers are perfbench's replayed sweep and set-up stages.
#pragma once

#include <unordered_map>

#include "net/asn.hpp"
#include "net/prefix.hpp"
#include "rpki/origin_validation.hpp"

namespace ripki::rpki {

namespace detail {
struct PairKey {
  net::Prefix prefix;
  net::Asn origin;
  bool operator==(const PairKey&) const = default;
};
struct PairKeyHash {
  std::size_t operator()(const PairKey& key) const {
    return net::PrefixHash{}(key.prefix) * 31 + net::AsnHash{}(key.origin);
  }
};
}  // namespace detail

class SharedValidationCache {
 public:
  SharedValidationCache() = default;

  /// Warm phase (single-threaded): memoizes `index->validate(prefix,
  /// origin)` for one key. Must complete before any concurrent lookup().
  void warm(const VrpIndex& index, const net::Prefix& prefix, net::Asn origin);

  /// Lookup a warmed validity; nullptr when the key was never warmed.
  /// Safe to call concurrently from any number of threads once warming
  /// is done (const read of an immutable map).
  const OriginValidity* lookup(const net::Prefix& prefix,
                               net::Asn origin) const;

  std::size_t size() const { return cache_.size(); }

 private:
  std::unordered_map<detail::PairKey, OriginValidity, detail::PairKeyHash>
      cache_;
};

}  // namespace ripki::rpki
