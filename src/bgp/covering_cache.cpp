#include "bgp/covering_cache.hpp"

namespace ripki::bgp {

// +1: a shared slot for addresses no node covers (index kNoNode).
CoveringCache::CoveringCache(const Rib* rib)
    : image_(rib->image()), by_node_(image_->node_count() + 1) {}

const std::vector<Rib::CoveringResult>& CoveringCache::covering(
    const net::IpAddress& addr) {
  const std::uint32_t node = image_->deepest_covering(addr);
  const std::size_t slot =
      node == Rib::Image::kNoNode ? by_node_.size() - 1 : node;
  auto& entry = by_node_[slot];
  if (entry != nullptr) {
    ++hits_;
    return *entry;
  }
  ++misses_;
  entry = std::make_unique<std::vector<Rib::CoveringResult>>(
      Rib::covering_path(*image_, node));
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
