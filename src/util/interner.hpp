// Arena-backed string interner with dense 32-bit ids.
//
// The 1M-domain dataset stores every domain name, CNAME target, and zone
// name many times (dataset columns, name index, serve snapshot). Interning
// collapses each distinct string to one arena-resident copy addressed by a
// 32-bit id: columns shrink from a 32-byte std::string (plus its heap
// block) per cell to 4 bytes, and equal names compare as integer ids.
//
// Ids are assigned densely in first-intern order, which makes them
// deterministic for any fixed insertion sequence — the property the
// parallel sweep relies on when per-shard interners are re-interned into
// the final table in shard order.
//
// The index is flat: an open-addressing table of ids (linear probing,
// power-of-two size, load at most 1/2) over the id-ordered entries, each
// holding its arena view and its hash. No string owns a heap node, so
// dropping an interner frees a few large blocks, and growing the table
// re-slots the stored hashes without reading a string.
//
// Not thread-safe for intern(); concurrent const lookups are fine once
// writers are done (the sweep interns per-worker and merges at join).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/arena.hpp"

namespace ripki::util {

class StringInterner {
 public:
  using Id = std::uint32_t;
  /// Returned by find() when the string was never interned; also marks
  /// an empty slot of the index.
  static constexpr Id kNotFound = 0xFFFFFFFFu;

  StringInterner() = default;
  StringInterner(StringInterner&&) = default;
  StringInterner& operator=(StringInterner&&) = default;

  /// Returns the id of `text`, interning a copy on first sight.
  /// Re-interning an existing string returns the same id (dedup).
  Id intern(std::string_view text);

  /// Id of `text` if already interned, kNotFound otherwise.
  Id find(std::string_view text) const;

  /// The interned bytes of `id`. The view stays valid and its address
  /// stable for the interner's lifetime.
  std::string_view view(Id id) const { return entries_[id].text; }

  /// Number of distinct strings interned.
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Approximate heap footprint: arena bytes + entries + slot table.
  std::size_t memory_bytes() const;

  void clear();

 private:
  struct Entry {
    std::string_view text;  // arena view
    std::size_t hash = 0;
  };

  /// The slot holding `text`'s id, or the empty slot where it would go.
  /// Requires a non-empty slot table (load <= 1/2 ends every probe).
  std::size_t probe(std::string_view text, std::size_t hash) const;
  /// Doubles the slot table (16 slots when empty) and re-slots every id.
  void grow();

  Arena arena_;
  std::vector<Entry> entries_;  // id -> (view, hash)
  std::vector<Id> slots_;       // power-of-two size; kNotFound = empty
};

}  // namespace ripki::util
