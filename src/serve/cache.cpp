#include "serve/cache.hpp"

#include <algorithm>
#include <functional>

namespace ripki::serve {

ResponseCache::ResponseCache(Options options)
    : per_shard_capacity_(std::max<std::size_t>(
          1, options.capacity / std::max<std::uint32_t>(1, options.shards))) {
  const std::uint32_t shard_count = std::max<std::uint32_t>(1, options.shards);
  shards_.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

std::uint32_t ResponseCache::shard_of(std::string_view key) const {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(key) %
                                    shards_.size());
}

std::shared_ptr<const std::string> ResponseCache::get(
    std::string_view key, std::uint64_t generation) {
  Shard& shard = *shards_[shard_of(key)];
  std::lock_guard lock(shard.mutex);
  const auto it = shard.index.find(key);
  if (it == shard.index.end() || it->second->generation != generation) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  // Move to front: most recently used.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second->value;
}

std::shared_ptr<const std::string> ResponseCache::put(std::string_view key,
                                                      std::uint64_t generation,
                                                      std::string value) {
  auto stored = std::make_shared<const std::string>(std::move(value));
  Shard& shard = *shards_[shard_of(key)];
  std::lock_guard lock(shard.mutex);
  if (const auto it = shard.index.find(key); it != shard.index.end()) {
    it->second->value = stored;
    it->second->generation = generation;
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return stored;
  }
  if (shard.lru.size() >= per_shard_capacity_) {
    const Entry& victim = shard.lru.back();
    shard.index.erase(victim.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
  shard.lru.push_front(Entry{std::string(key), stored, generation});
  // The index key views the entry's own stable string storage.
  shard.index.emplace(shard.lru.front().key, shard.lru.begin());
  return stored;
}

void ResponseCache::clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    shard->index.clear();
    shard->lru.clear();
  }
}

std::size_t ResponseCache::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mutex);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace ripki::serve
