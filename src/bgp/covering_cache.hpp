// Memoized covering-prefix lookup in front of Rib::covering().
//
// The measurement sweep resolves many domains onto the same hosting
// addresses (CDN clusters, shared webhosters), so the same
// address -> covering-prefixes query repeats constantly. Keying the memo
// by raw address barely helped (~0.5% hit rate on the baseline sweep:
// distinct server addresses rarely repeat exactly). The cache instead
// keys on the frozen RIB's *trie node index* of the deepest covering
// node: every address inside the same deepest prefix maps to the same
// dense node id and shares one slot, so the cache captures prefix-level
// locality instead of address-level identity. Slots are a flat array
// indexed by node id — no hashing on the hot path.
//
// The measurement kernel no longer uses it: its route memo keys the same
// way but stores each node's validated (prefix, origin) pairs, so one
// lookup answers stages 3 and 4 (core/kernel.hpp). Its last caller is
// perfbench's replayed sweep.
//
// The cache is intentionally NOT thread-safe: give every thread its own
// instance (coherence by ownership, no invalidation protocol). It pins
// the RIB image it was sized for, and its
// CoveringResult entries point into that image's entry lists, so they
// stay valid and unchanged for as long as the cache lives — even when the
// RIB is refrozen or destroyed meanwhile. A cache over a newer image is a
// new cache.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bgp/rib.hpp"

namespace ripki::bgp {

class CoveringCache {
 public:
  /// Covers `rib`'s current image (Rib::image()); `rib` is read only here.
  explicit CoveringCache(const Rib* rib);

  /// Rib::covering(addr), memoized. The reference stays valid until the
  /// cache is destroyed (values are never evicted).
  const std::vector<Rib::CoveringResult>& covering(const net::IpAddress& addr);

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::size_t size() const;

 private:
  std::shared_ptr<const Rib::Image> image_;
  /// One slot per trie node, indexed by the deepest covering node id
  /// (slot node_count = the shared "nothing covers it" entry).
  std::vector<std::unique_ptr<std::vector<Rib::CoveringResult>>> by_node_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace ripki::bgp
