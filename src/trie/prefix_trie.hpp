// Compressed binary (patricia) trie keyed by IP prefixes.
//
// This is the lookup structure behind both halves of the pipeline's data
// plane: mapping resolved IP addresses to the covering BGP prefixes
// (methodology step 3) and finding covering ROAs during RFC 6811 origin
// validation (step 4). IPv4 and IPv6 keys live in separate sub-tries.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "net/ip.hpp"
#include "net/prefix.hpp"

namespace ripki::trie {

template <typename V>
class PrefixTrie {
 public:
  struct Match {
    net::Prefix prefix;
    const V* value;
  };

  PrefixTrie() = default;

  /// Inserts or replaces the value stored at `prefix`.
  /// Returns a reference to the stored value.
  V& insert(const net::Prefix& prefix, V value) {
    Node* node = insert_node(root_for(prefix.family()), prefix);
    if (!node->value.has_value()) ++size_;
    node->value = std::move(value);
    return *node->value;
  }

  /// Returns the value stored exactly at `prefix`, if any.
  const V* find_exact(const net::Prefix& prefix) const {
    const Node* node = root_of(prefix.family());
    while (node != nullptr) {
      const int cpl = common_prefix_length(node->key, prefix);
      if (cpl < node->key.length()) return nullptr;
      if (node->key.length() == prefix.length())
        return node->value.has_value() ? &*node->value : nullptr;
      node = child_of(node, prefix.address().bit(node->key.length()));
    }
    return nullptr;
  }

  V* find_exact(const net::Prefix& prefix) {
    return const_cast<V*>(std::as_const(*this).find_exact(prefix));
  }

  /// All stored prefixes that cover `addr`, shortest first.
  std::vector<Match> covering(const net::IpAddress& addr) const {
    return covering(net::Prefix(addr, addr.width()));
  }

  /// All stored prefixes equal to or less specific than `target`,
  /// shortest first ("all covering prefixes" of methodology step 3).
  std::vector<Match> covering(const net::Prefix& target) const {
    std::vector<Match> out;
    const Node* node = root_of(target.family());
    while (node != nullptr && node->key.length() <= target.length()) {
      if (common_prefix_length(node->key, target) < node->key.length()) break;
      if (node->value.has_value()) out.push_back({node->key, &*node->value});
      if (node->key.length() == target.length()) break;
      node = child_of(node, target.address().bit(node->key.length()));
    }
    return out;
  }

  /// Longest-prefix match for `addr`, or nullopt when nothing covers it.
  std::optional<Match> longest_match(const net::IpAddress& addr) const {
    auto all = covering(addr);
    if (all.empty()) return std::nullopt;
    return all.back();
  }

  /// Visits every (prefix, value) pair in bit order.
  void visit(const std::function<void(const net::Prefix&, const V&)>& fn) const {
    visit_node(v4_root_.get(), fn);
    visit_node(v6_root_.get(), fn);
  }

  /// Removes the value stored exactly at `prefix`, returning it. The node
  /// itself stays in place as a structural (valueless) split node — every
  /// traversal already skips valueless nodes, and keeping the shape means
  /// erase never invalidates sibling subtrees. A Frozen image taken before
  /// keeps the values it copied; freeze again to see the change.
  std::optional<V> erase(const net::Prefix& prefix) {
    Node* node = nullptr;
    {
      const Node* found = root_of(prefix.family());
      while (found != nullptr) {
        const int cpl = common_prefix_length(found->key, prefix);
        if (cpl < found->key.length()) return std::nullopt;
        if (found->key.length() == prefix.length()) break;
        found = child_of(found, prefix.address().bit(found->key.length()));
      }
      if (found == nullptr || !found->value.has_value()) return std::nullopt;
      node = const_cast<Node*>(found);
    }
    std::optional<V> out = std::move(node->value);
    node->value.reset();
    --size_;
    return out;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    v4_root_.reset();
    v6_root_.reset();
    size_ = 0;
  }

  /// Array-mapped read-only image of the trie: nodes flattened into one
  /// contiguous vector addressed by dense 32-bit indices instead of
  /// pointer-chased heap nodes. Covering walks touch a few cache lines of
  /// one array, and — the property the measurement kernel's route memo
  /// keys on — the walk's terminal node index uniquely identifies the
  /// whole covering set, so every address inside the same deepest prefix
  /// shares one memo slot.
  ///
  /// The image owns copies of the values (for a trie of shared_ptrs, one
  /// reference-count increment per stored prefix), so it stays valid and
  /// unchanged after the source trie changes or is destroyed.
  class Frozen {
   public:
    /// Walk result when nothing in the trie covers the target.
    static constexpr std::uint32_t kNoNode = 0xFFFFFFFFu;

    Frozen() = default;

    bool empty() const { return nodes_.empty(); }
    std::size_t node_count() const { return nodes_.size(); }

    /// Index of the deepest node on the covering path of `target` —
    /// valued or split node alike; the path from the root to it is fixed
    /// by the tree structure, so this index is a complete key for the
    /// covering set. kNoNode when even the root does not match.
    std::uint32_t deepest_covering(const net::Prefix& target) const {
      std::uint32_t deepest = kNoNode;
      std::uint32_t index =
          target.family() == net::Family::kIpv4 ? v4_root_ : v6_root_;
      while (index != kNoNode) {
        const FrozenNode& node = nodes_[index];
        if (node.key.length() > target.length() ||
            common_prefix_length(node.key, target) < node.key.length()) {
          break;
        }
        deepest = index;
        if (node.key.length() == target.length()) break;
        index = node.child[target.address().bit(node.key.length()) ? 1 : 0];
      }
      return deepest;
    }

    std::uint32_t deepest_covering(const net::IpAddress& addr) const {
      return deepest_covering(net::Prefix(addr, addr.width()));
    }

    /// A range of node indices, [first, last).
    struct NodeRange {
      std::uint32_t first = 0;
      std::uint32_t last = 0;
    };

    /// The nodes — valued and split alike — whose keys are equal to or
    /// more specific than `target`. freeze() numbers nodes in pre-order,
    /// so they are the subtree of the shallowest such node and form one
    /// range; empty when no key lies inside `target`. When `target` is a
    /// node of this image, an address lies inside it exactly when its
    /// deepest_covering() node is in the range.
    NodeRange within(const net::Prefix& target) const {
      std::uint32_t index =
          target.family() == net::Family::kIpv4 ? v4_root_ : v6_root_;
      while (index != kNoNode) {
        const FrozenNode& node = nodes_[index];
        const int cpl = common_prefix_length(node.key, target);
        if (node.key.length() >= target.length()) {
          if (cpl < target.length()) return {};
          // The subtree's last node in pre-order is its right-most leaf.
          std::uint32_t last = index;
          while (nodes_[last].child[0] != kNoNode ||
                 nodes_[last].child[1] != kNoNode) {
            last = nodes_[last].child[nodes_[last].child[1] != kNoNode ? 1 : 0];
          }
          return {index, last + 1};
        }
        if (cpl < node.key.length()) return {};
        index = node.child[target.address().bit(node.key.length()) ? 1 : 0];
      }
      return {};
    }

    /// Valued matches on the root -> `node` path, shortest prefix first —
    /// exactly PrefixTrie::covering() for any target whose walk ends at
    /// `node`. kNoNode yields an empty list.
    std::vector<Match> path_matches(std::uint32_t node) const {
      std::vector<Match> out;
      for (std::uint32_t index = node; index != kNoNode;
           index = nodes_[index].parent) {
        if (nodes_[index].value != kNoNode) {
          out.push_back({nodes_[index].key, &values_[nodes_[index].value]});
        }
      }
      std::reverse(out.begin(), out.end());
      return out;
    }

   private:
    friend class PrefixTrie;

    /// `value` indexes values_ (kNoNode for a split node), which keeps the
    /// nodes the walks touch small whatever V is.
    struct FrozenNode {
      net::Prefix key;
      std::uint32_t child[2] = {kNoNode, kNoNode};
      std::uint32_t parent = kNoNode;
      std::uint32_t value = kNoNode;
    };

    std::vector<FrozenNode> nodes_;
    std::vector<V> values_;
    std::uint32_t v4_root_ = kNoNode;
    std::uint32_t v6_root_ = kNoNode;
  };

  /// Builds the frozen image (pre-order node numbering, deterministic),
  /// copying every stored value into it.
  Frozen freeze() const {
    Frozen out;
    // Upper bound on node count: every insert adds at most one stored
    // node plus one split node.
    out.nodes_.reserve(2 * size_ + 2);
    out.values_.reserve(size_);
    out.v4_root_ = freeze_node(out, v4_root_.get(), Frozen::kNoNode);
    out.v6_root_ = freeze_node(out, v6_root_.get(), Frozen::kNoNode);
    return out;
  }

 private:
  struct Node {
    explicit Node(net::Prefix k) : key(k) {}
    net::Prefix key;
    std::optional<V> value;
    std::unique_ptr<Node> child[2];
  };

  /// Number of identical leading bits, capped at the shorter length;
  /// compared a big-endian 32-bit word at a time (one word for IPv4).
  static int common_prefix_length(const net::Prefix& a, const net::Prefix& b) {
    const int limit = std::min(a.length(), b.length());
    const auto& x = a.address().bytes();
    const auto& y = b.address().bytes();
    for (int bit = 0; bit < limit; bit += 32) {
      const std::uint32_t diff = word_at(x, bit / 8) ^ word_at(y, bit / 8);
      if (diff != 0) return std::min(limit, bit + std::countl_zero(diff));
    }
    return limit;
  }

  /// The big-endian 32-bit word of `bytes` that starts at byte `at`.
  static std::uint32_t word_at(const std::array<std::uint8_t, 16>& bytes,
                               int at) {
    const auto i = static_cast<std::size_t>(at);
    return (std::uint32_t{bytes[i]} << 24) |
           (std::uint32_t{bytes[i + 1]} << 16) |
           (std::uint32_t{bytes[i + 2]} << 8) | std::uint32_t{bytes[i + 3]};
  }

  std::unique_ptr<Node>& root_for(net::Family family) {
    return family == net::Family::kIpv4 ? v4_root_ : v6_root_;
  }

  const Node* root_of(net::Family family) const {
    return family == net::Family::kIpv4 ? v4_root_.get() : v6_root_.get();
  }

  static const Node* child_of(const Node* node, bool bit) {
    return node->child[bit ? 1 : 0].get();
  }

  Node* insert_node(std::unique_ptr<Node>& slot, const net::Prefix& prefix) {
    if (!slot) {
      slot = std::make_unique<Node>(prefix);
      return slot.get();
    }
    const int cpl = common_prefix_length(slot->key, prefix);
    if (cpl == slot->key.length() && cpl == prefix.length()) return slot.get();
    if (cpl == slot->key.length()) {
      // `prefix` is strictly more specific than this node: descend.
      return insert_node(slot->child[prefix.address().bit(cpl) ? 1 : 0], prefix);
    }
    // Keys diverge before the end of the node's label: split at cpl.
    auto split = std::make_unique<Node>(net::Prefix(slot->key.address(), cpl));
    std::unique_ptr<Node> old = std::move(slot);
    const bool old_bit = old->key.address().bit(cpl);
    split->child[old_bit ? 1 : 0] = std::move(old);
    slot = std::move(split);
    if (cpl == prefix.length()) return slot.get();
    return insert_node(slot->child[prefix.address().bit(cpl) ? 1 : 0], prefix);
  }

  std::uint32_t freeze_node(Frozen& out, const Node* node,
                            std::uint32_t parent) const {
    if (node == nullptr) return Frozen::kNoNode;
    assert(out.nodes_.size() < Frozen::kNoNode);
    const auto index = static_cast<std::uint32_t>(out.nodes_.size());
    std::uint32_t value = Frozen::kNoNode;
    if (node->value.has_value()) {
      value = static_cast<std::uint32_t>(out.values_.size());
      out.values_.push_back(*node->value);
    }
    out.nodes_.push_back(typename Frozen::FrozenNode{
        .key = node->key, .parent = parent, .value = value});
    // Children appended after the parent; indices patched once known.
    const std::uint32_t left = freeze_node(out, node->child[0].get(), index);
    const std::uint32_t right = freeze_node(out, node->child[1].get(), index);
    out.nodes_[index].child[0] = left;
    out.nodes_[index].child[1] = right;
    return index;
  }

  void visit_node(const Node* node,
                  const std::function<void(const net::Prefix&, const V&)>& fn) const {
    if (node == nullptr) return;
    if (node->value.has_value()) fn(node->key, *node->value);
    visit_node(node->child[0].get(), fn);
    visit_node(node->child[1].get(), fn);
  }

  std::unique_ptr<Node> v4_root_;
  std::unique_ptr<Node> v6_root_;
  std::size_t size_ = 0;
};

}  // namespace ripki::trie
