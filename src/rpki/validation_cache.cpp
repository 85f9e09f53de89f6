#include "rpki/validation_cache.hpp"

namespace ripki::rpki {

void SharedValidationCache::warm(const VrpIndex& index,
                                 const net::Prefix& prefix, net::Asn origin) {
  const detail::PairKey key{prefix, origin};
  if (cache_.find(key) != cache_.end()) return;
  cache_.emplace(key, index.validate(prefix, origin));
}

const OriginValidity* SharedValidationCache::lookup(const net::Prefix& prefix,
                                                    net::Asn origin) const {
  const auto it = cache_.find(detail::PairKey{prefix, origin});
  return it == cache_.end() ? nullptr : &it->second;
}

}  // namespace ripki::rpki
