#include "util/interner.hpp"

#include <cassert>
#include <functional>

namespace ripki::util {

std::size_t StringInterner::probe(std::string_view text,
                                  std::size_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    const Id id = slots_[slot];
    if (id == kNotFound) return slot;
    const Entry& entry = entries_[id];
    if (entry.hash == hash && entry.text == text) return slot;
  }
}

void StringInterner::grow() {
  const std::size_t size = slots_.empty() ? 16 : 2 * slots_.size();
  slots_.assign(size, kNotFound);
  const std::size_t mask = size - 1;
  for (Id id = 0; id < entries_.size(); ++id) {
    std::size_t slot = entries_[id].hash & mask;
    while (slots_[slot] != kNotFound) slot = (slot + 1) & mask;
    slots_[slot] = id;
  }
}

StringInterner::Id StringInterner::intern(std::string_view text) {
  const std::size_t hash = std::hash<std::string_view>{}(text);
  std::size_t slot = 0;
  if (!slots_.empty()) {
    slot = probe(text, hash);
    if (slots_[slot] != kNotFound) return slots_[slot];
  }
  // A new string: keep the load at most 1/2 after the insert.
  if (2 * (entries_.size() + 1) > slots_.size()) {
    grow();
    slot = probe(text, hash);
  }
  assert(entries_.size() < kNotFound && "interner id space exhausted");
  const Id id = static_cast<Id>(entries_.size());
  entries_.push_back(Entry{arena_.store(text), hash});
  slots_[slot] = id;
  return id;
}

StringInterner::Id StringInterner::find(std::string_view text) const {
  if (slots_.empty()) return kNotFound;
  return slots_[probe(text, std::hash<std::string_view>{}(text))];
}

std::size_t StringInterner::memory_bytes() const {
  return arena_.bytes_reserved() + entries_.capacity() * sizeof(Entry) +
         slots_.capacity() * sizeof(Id);
}

void StringInterner::clear() {
  slots_.clear();
  entries_.clear();
  arena_.clear();
}

}  // namespace ripki::util
