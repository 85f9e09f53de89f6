// Sharded LRU response cache for the query service. Keys are the
// canonical request target (path + query); values are rendered response
// bodies. Sharding by key hash keeps lock contention off the hot path
// when the pool fans requests out; each shard runs its own LRU list, so
// eviction pressure in one shard never touches another.
//
// An entry needs no expiry: it is served only to requests on the snapshot
// generation it was rendered from, and the service clears its caches on
// every publish.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace ripki::serve {

class ResponseCache {
 public:
  struct Options {
    /// Total entry budget, split evenly across shards (at least one entry
    /// per shard).
    std::size_t capacity = 4096;
    std::uint32_t shards = 8;
  };

  explicit ResponseCache(Options options);

  /// The cached value when present and rendered from snapshot
  /// `generation`, as a shared reference into cache storage — nullptr on
  /// a miss. Callers hand the reference to the socket layer
  /// (HttpResponse::shared_body) so a hit is written with zero copies; the
  /// entry's bytes stay alive through eviction while any reference is
  /// held.
  std::shared_ptr<const std::string> get(std::string_view key,
                                         std::uint64_t generation);

  /// Inserts or refreshes `key` with a value rendered from snapshot
  /// `generation`, evicting the shard's least-recently-used entry when the
  /// shard is full. Returns the stored shared reference so the inserting
  /// request can serve from it without a second lookup.
  std::shared_ptr<const std::string> put(std::string_view key,
                                         std::uint64_t generation,
                                         std::string value);

  /// Drops every entry (frees what a snapshot swap made unreachable).
  void clear();

  /// Shard a key maps to — exposed so tests can target one shard.
  std::uint32_t shard_of(std::string_view key) const;

  std::size_t size() const;
  std::size_t capacity_per_shard() const { return per_shard_capacity_; }
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  double hit_rate() const {
    const std::uint64_t h = hits(), m = misses();
    return h + m == 0 ? 0.0
                      : static_cast<double>(h) / static_cast<double>(h + m);
  }

 private:
  struct Entry {
    std::string key;
    /// Immutable shared bytes: refresh swaps the pointer rather than
    /// mutating the string, so in-flight zero-copy writes of the old
    /// value are never raced.
    std::shared_ptr<const std::string> value;
    /// The snapshot the value was rendered from: a request on any other
    /// snapshot misses, however the store raced a publish.
    std::uint64_t generation;
  };
  struct Shard {
    std::mutex mutex;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<std::string_view, std::list<Entry>::iterator> index;
  };

  std::size_t per_shard_capacity_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace ripki::serve
