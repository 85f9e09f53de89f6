// Routing Information Base: the collector-view BGP table the measurement
// consumes (the stand-in for "dumps of the active tables of the RIPE RIS
// route servers", methodology step 3).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "bgp/as_path.hpp"
#include "net/prefix.hpp"
#include "trie/prefix_trie.hpp"

namespace ripki::bgp {

/// One table entry as seen from one collector peer.
struct RibEntry {
  net::Prefix prefix;
  AsPath as_path;
  std::uint16_t peer_index = 0;
  std::uint32_t originated_at = 0;  // seconds since epoch

  /// Origin AS (right-most ASN); nullopt when the path ends in an AS_SET.
  std::optional<net::Asn> origin() const { return as_path.origin(); }

  bool operator==(const RibEntry&) const = default;
};

/// Identity of a collector peer (PEER_INDEX_TABLE row).
struct PeerEntry {
  std::uint32_t bgp_id = 0;
  net::IpAddress address;
  net::Asn asn;

  bool operator==(const PeerEntry&) const = default;
};

class Rib {
 public:
  /// One prefix's entries. A stored list never changes: the table, every
  /// image frozen from it and every table built over it by sharing() hold
  /// it by pointer, and a change to the prefix stores a new list.
  using EntryList = std::shared_ptr<const std::vector<RibEntry>>;
  /// Immutable array-mapped image of the table (trie::PrefixTrie::Frozen)
  /// — what the measurement kernel's route memo and a serving snapshot
  /// read. It shares the
  /// entry lists, so it stays valid and unchanged for as long as anyone
  /// holds it, whatever happens to the table afterwards.
  using Image = trie::PrefixTrie<EntryList>::Frozen;

  /// A new table over `source`'s lists: the same prefixes, peers and entry
  /// count, holding each list by pointer and copying no entry. It starts
  /// unfrozen. Changing either table afterwards leaves the other as it is:
  /// every change stores a new list, and add() extends a list in place
  /// only while no one else holds it.
  static Rib sharing(const Rib& source);

  void add_peer(const PeerEntry& peer) { peers_.push_back(peer); }
  const std::vector<PeerEntry>& peers() const { return peers_; }

  /// Appends one entry while the table loads; add() after freeze() is a
  /// usage error (asserted). Consecutive adds for one prefix (the MRT
  /// load's one entry per peer) extend one list in place.
  void add(RibEntry entry);

  /// All entries stored for exactly `prefix`.
  const std::vector<RibEntry>* entries_for(const net::Prefix& prefix) const;

  /// All (covering prefix, entries) pairs for `addr`, shortest prefix
  /// first — methodology step 3 extracts *all* covering prefixes.
  struct CoveringResult {
    net::Prefix prefix;
    const std::vector<RibEntry>* entries;
  };
  std::vector<CoveringResult> covering(const net::IpAddress& addr) const;

  /// The covering set ending at `node` of `image` (a deepest_covering()
  /// result; Image::kNoNode yields an empty list). The entries point into
  /// `image`'s lists.
  static std::vector<CoveringResult> covering_path(const Image& image,
                                                   std::uint32_t node);

  /// Publishes the first image of the table. Call once after the table is
  /// fully loaded. Idempotent.
  void freeze();
  bool frozen() const { return image_ != nullptr; }

  /// The image freeze() or refreeze() last published; for a table never
  /// frozen, a fresh image of it.
  std::shared_ptr<const Image> image() const;

  // --- Incremental delta application (ripki::delta) ----------------------
  //
  // Unlike add(), these are legal on a frozen table: they leave the
  // published image as it is, and refreeze() publishes a new one. Node
  // indices differ between images, so a memo keyed on them (such as the
  // measurement kernel's route memo) pins the image it was built over.

  /// Removes every entry announced for `prefix`, returning the removed
  /// list (empty when the prefix was not in the table) so a later
  /// announce() can restore exactly what was withdrawn.
  std::vector<RibEntry> withdraw(const net::Prefix& prefix);

  /// Re-announces entries (same semantics as add(), but allowed after
  /// freeze()). Each prefix's list is copied once, extended, and stored
  /// as a new list; images holding the old list keep it.
  void announce(std::vector<RibEntry> entries);

  /// Publishes a new image after withdraw()/announce(). No-op when the
  /// table was never frozen or has not changed since.
  void refreeze();

  /// Distinct origin ASes announced for `prefix` across all peers,
  /// excluding AS_SET-terminated paths.
  std::set<net::Asn> origins_for(const net::Prefix& prefix) const;

  /// Visits every (prefix, entries) pair.
  void visit(const std::function<void(const net::Prefix&,
                                      const std::vector<RibEntry>&)>& fn) const;

  std::size_t prefix_count() const { return trie_.size(); }
  std::size_t entry_count() const { return entry_count_; }

  /// Deep content equality: same peers and the same entry lists per prefix
  /// in visit order. Backs the parallel-parse == serial-parse assertions.
  bool operator==(const Rib& other) const;

 private:
  /// Stores `prefix`'s list extended by `entries` as a new list, and
  /// returns it for add() to keep extending.
  std::shared_ptr<std::vector<RibEntry>> extend(const net::Prefix& prefix,
                                                std::span<RibEntry> entries);

  trie::PrefixTrie<EntryList> trie_;
  std::shared_ptr<const Image> image_;  // null until freeze()
  bool image_stale_ = false;  // withdraw/announce since the last (re)freeze
  /// The list the current run of add() calls for one prefix extends in
  /// place; every other mutation ends the run.
  std::shared_ptr<std::vector<RibEntry>> open_list_;
  std::vector<PeerEntry> peers_;
  std::size_t entry_count_ = 0;
};

}  // namespace ripki::bgp
