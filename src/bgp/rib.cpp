#include "bgp/rib.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace ripki::bgp {

Rib Rib::sharing(const Rib& source) {
  Rib out;
  out.peers_ = source.peers_;
  out.entry_count_ = source.entry_count_;
  source.trie_.visit([&](const net::Prefix& prefix, const EntryList& list) {
    out.trie_.insert(prefix, list);
  });
  return out;
}

void Rib::add(RibEntry entry) {
  assert(!frozen() && "Rib::add after freeze()");
  // The run's list is held by the trie and by open_list_; a third holder
  // is an image() taken of the unfrozen table or a table built by
  // sharing(), which must not see it grow.
  if (open_list_ != nullptr && open_list_->front().prefix == entry.prefix &&
      open_list_.use_count() == 2) {
    open_list_->push_back(std::move(entry));
    ++entry_count_;
    return;
  }
  const net::Prefix prefix = entry.prefix;
  open_list_ = extend(prefix, std::span(&entry, 1));
}

std::shared_ptr<std::vector<RibEntry>> Rib::extend(
    const net::Prefix& prefix, std::span<RibEntry> entries) {
  auto list = std::make_shared<std::vector<RibEntry>>();
  EntryList* stored = trie_.find_exact(prefix);
  if (stored != nullptr) {
    list->reserve((*stored)->size() + entries.size());
    list->assign((*stored)->begin(), (*stored)->end());
  }
  list->insert(list->end(), std::make_move_iterator(entries.begin()),
               std::make_move_iterator(entries.end()));
  entry_count_ += entries.size();
  if (stored != nullptr) {
    *stored = list;
  } else {
    trie_.insert(prefix, list);
  }
  return list;
}

const std::vector<RibEntry>* Rib::entries_for(const net::Prefix& prefix) const {
  const EntryList* list = trie_.find_exact(prefix);
  return list != nullptr ? list->get() : nullptr;
}

std::vector<Rib::CoveringResult> Rib::covering(const net::IpAddress& addr) const {
  std::vector<CoveringResult> out;
  for (const auto& match : trie_.covering(addr)) {
    out.push_back({match.prefix, match.value->get()});
  }
  return out;
}

std::vector<Rib::CoveringResult> Rib::covering_path(const Image& image,
                                                    std::uint32_t node) {
  std::vector<CoveringResult> out;
  for (const auto& match : image.path_matches(node)) {
    out.push_back({match.prefix, match.value->get()});
  }
  return out;
}

void Rib::freeze() {
  if (frozen()) return;
  open_list_.reset();
  image_ = std::make_shared<const Image>(trie_.freeze());
}

std::shared_ptr<const Rib::Image> Rib::image() const {
  return frozen() ? image_ : std::make_shared<const Image>(trie_.freeze());
}

std::vector<RibEntry> Rib::withdraw(const net::Prefix& prefix) {
  auto removed = trie_.erase(prefix);
  if (!removed.has_value()) return {};
  open_list_.reset();
  entry_count_ -= (*removed)->size();
  if (frozen()) image_stale_ = true;
  return **removed;
}

void Rib::announce(std::vector<RibEntry> entries) {
  open_list_.reset();
  // Grouped by prefix (stably), so each prefix gets one new list.
  std::stable_sort(entries.begin(), entries.end(),
                   [](const RibEntry& a, const RibEntry& b) {
                     return a.prefix < b.prefix;
                   });
  for (auto first = entries.begin(); first != entries.end();) {
    const net::Prefix prefix = first->prefix;
    const auto last =
        std::find_if(first, entries.end(),
                     [&](const RibEntry& entry) { return entry.prefix != prefix; });
    extend(prefix, std::span(first, last));
    first = last;
  }
  if (frozen()) image_stale_ = true;
}

void Rib::refreeze() {
  if (!frozen() || !image_stale_) return;
  image_ = std::make_shared<const Image>(trie_.freeze());
  image_stale_ = false;
}

std::set<net::Asn> Rib::origins_for(const net::Prefix& prefix) const {
  std::set<net::Asn> out;
  if (const auto* entries = entries_for(prefix)) {
    for (const auto& entry : *entries) {
      if (entry.as_path.contains_as_set()) continue;  // RFC 6472 exclusion
      if (const auto origin = entry.origin()) out.insert(*origin);
    }
  }
  return out;
}

void Rib::visit(const std::function<void(const net::Prefix&,
                                         const std::vector<RibEntry>&)>& fn) const {
  trie_.visit([&](const net::Prefix& prefix, const EntryList& entries) {
    fn(prefix, *entries);
  });
}

bool Rib::operator==(const Rib& other) const {
  if (peers_ != other.peers_ || entry_count_ != other.entry_count_ ||
      trie_.size() != other.trie_.size()) {
    return false;
  }
  // The trie has no iterator pair to compare lazily; collect both visit
  // sequences (prefix order is canonical per trie) and compare.
  std::vector<std::pair<net::Prefix, const std::vector<RibEntry>*>> lhs, rhs;
  lhs.reserve(trie_.size());
  rhs.reserve(other.trie_.size());
  visit([&](const net::Prefix& p, const std::vector<RibEntry>& e) {
    lhs.emplace_back(p, &e);
  });
  other.visit([&](const net::Prefix& p, const std::vector<RibEntry>& e) {
    rhs.emplace_back(p, &e);
  });
  if (lhs.size() != rhs.size()) return false;
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    if (lhs[i].first != rhs[i].first || *lhs[i].second != *rhs[i].second) {
      return false;
    }
  }
  return true;
}

}  // namespace ripki::bgp
