#include "bgp/covering_cache.hpp"

#include <cassert>

namespace ripki::bgp {

CoveringCache::CoveringCache(const Rib* rib) : rib_(rib) {
  assert(rib_->frozen());
  // +1: a shared slot for addresses no node covers (index kNoNode).
  by_node_.resize(rib_->frozen_node_count() + 1);
}

const std::vector<Rib::CoveringResult>& CoveringCache::covering(
    const net::IpAddress& addr) {
  const std::uint32_t node = rib_->covering_node(addr);
  const std::size_t slot = node == Rib::kNoNode ? by_node_.size() - 1 : node;
  auto& entry = by_node_[slot];
  if (entry != nullptr) {
    ++hits_;
    return *entry;
  }
  ++misses_;
  entry = std::make_unique<std::vector<Rib::CoveringResult>>(
      rib_->covering_path(node));
  return *entry;
}

std::size_t CoveringCache::size() const {
  std::size_t filled = 0;
  for (const auto& entry : by_node_) {
    if (entry != nullptr) ++filled;
  }
  return filled;
}

}  // namespace ripki::bgp
