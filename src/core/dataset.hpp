// The pipeline's output data model: one record per Alexa-style domain,
// annotated with the resolved hosting footprint and RPKI validation
// outcome of every (prefix, origin AS) pair — "a comprehensive list of all
// Alexa websites that (i) can be resolved ... (ii) mapped to an IP prefix
// AS pair ... (iii) annotated with RPKI origin validation outcome" (§3).
//
// Storage is a flat structure-of-arrays (DomainTable): parallel columns of
// interned-name ids, ranks, packed flags, and a CSR pool of prefix-AS
// pairs. At the paper's real N (1M domains) this keeps the whole dataset
// in a few hundred MB of contiguous memory instead of a million
// heap-fragmented AoS records. Readers get cheap AoS-shaped views
// (DomainTable::RecordView / VariantView); DomainRecord remains as the
// materialized exchange struct for code that wants to own a record.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "net/asn.hpp"
#include "net/prefix.hpp"
#include "rpki/origin_validation.hpp"
#include "util/interner.hpp"

namespace ripki::obs {
class Registry;
}

namespace ripki::core {

/// One (covering prefix, origin AS) pair with its RFC 6811 outcome.
struct PrefixAsPair {
  net::Prefix prefix;
  net::Asn origin;
  rpki::OriginValidity validity = rpki::OriginValidity::kNotFound;

  /// "Covered by the RPKI" in the paper's sense: a ROA exists for the
  /// prefix, whether the announcement validates or not.
  bool rpki_covered() const { return validity != rpki::OriginValidity::kNotFound; }

  bool operator==(const PrefixAsPair&) const = default;
};

/// Coverage fraction over a pair span — shared by the owning and the
/// viewing variant representations so they cannot drift apart.
double pairs_coverage(std::span<const PrefixAsPair> pairs);
double pairs_fraction(std::span<const PrefixAsPair> pairs,
                      rpki::OriginValidity validity);

/// Measurement result for one name variant (www.<d> or <d>) — the
/// materialized (owning) form; the sweep builds these as scratch and the
/// table offers them back via DomainTable::record().
struct VariantResult {
  bool resolved = false;            // usable addresses after filtering
  std::uint16_t address_count = 0;  // addresses kept
  std::uint16_t special_purpose_excluded = 0;
  std::uint16_t unrouted_addresses = 0;  // no covering BGP prefix
  std::uint8_t cname_hops = 0;           // CNAME indirections observed
  /// Final CNAME target (empty when resolved directly); feeds the
  /// HTTPArchive-style pattern classifier.
  std::string terminal_cname;
  /// Deduplicated prefix-AS pairs with validation outcome.
  std::vector<PrefixAsPair> pairs;

  /// Fraction of pairs covered by the RPKI — the per-domain "coverage
  /// probability" of §4 ("e.g. 3/5 or 60% RPKI coverage of foo.bar").
  double coverage() const { return pairs_coverage(pairs); }
  double fraction(rpki::OriginValidity validity) const {
    return pairs_fraction(pairs, validity);
  }

  /// Resets to the default state without releasing capacity — the sweep
  /// reuses one instance per worker as scratch.
  void reset();

  bool operator==(const VariantResult&) const = default;
};

/// The (prefix, origin) order dedupe_pairs() leaves a list in; validity
/// is not part of the key.
inline bool pair_key_less(const PrefixAsPair& a, const PrefixAsPair& b) {
  return std::tie(a.prefix, a.origin) < std::tie(b.prefix, b.origin);
}

/// Sorts `pairs` by (prefix, origin) and drops duplicates — a domain with
/// several addresses inside one announced prefix yields the pair once
/// (methodology step 3). Validity is ignored by the key: dedup runs
/// before stage 4 assigns it.
void dedupe_pairs(std::vector<PrefixAsPair>& pairs);

struct DomainRecord {
  std::uint32_t rank = 0;
  std::string name;  // apex
  bool excluded_dns = false;  // every answer was special-purpose garbage
  /// Zone publishes a DNSKEY (the DNSSEC-adoption probe of the paper's
  /// future-work comparison).
  bool dnssec_signed = false;
  VariantResult www;
  VariantResult apex;

  /// The variant the per-domain analyses use (www when it resolved,
  /// mirroring the paper's headline www dataset).
  const VariantResult& primary() const { return www.resolved ? www : apex; }

  bool operator==(const DomainRecord&) const = default;
};

/// Flat SoA storage for domain records: parallel fixed-width columns plus
/// one CSR pair pool, names collapsed through a util::StringInterner.
/// Appends are single-threaded by design; the parallel sweep appends into
/// per-shard tables and merges them in shard order (append_table), which
/// reproduces the serial table exactly — interner ids included.
class DomainTable {
 public:
  using NameId = util::StringInterner::Id;

  /// Cheap view of one variant: scalars by value, strings and pairs as
  /// views into the table. Field names mirror VariantResult so reader
  /// code is shape-compatible with the old AoS records.
  struct VariantView {
    bool resolved = false;
    std::uint16_t address_count = 0;
    std::uint16_t special_purpose_excluded = 0;
    std::uint16_t unrouted_addresses = 0;
    std::uint8_t cname_hops = 0;
    std::string_view terminal_cname;
    std::span<const PrefixAsPair> pairs;

    double coverage() const { return pairs_coverage(pairs); }
    double fraction(rpki::OriginValidity validity) const {
      return pairs_fraction(pairs, validity);
    }

    /// Materializes an owning copy.
    VariantResult to_result() const;

    /// Field-wise equality with a VariantView or a VariantResult.
    template <typename Variant>
    bool operator==(const Variant& other) const {
      return resolved == other.resolved &&
             address_count == other.address_count &&
             special_purpose_excluded == other.special_purpose_excluded &&
             unrouted_addresses == other.unrouted_addresses &&
             cname_hops == other.cname_hops &&
             terminal_cname == other.terminal_cname &&
             std::ranges::equal(pairs, other.pairs);
    }
  };

  /// Cheap view of one record (no ownership; valid while the table
  /// lives and is not mutated).
  struct RecordView {
    std::uint32_t rank = 0;
    std::string_view name;
    bool excluded_dns = false;
    bool dnssec_signed = false;
    VariantView www;
    VariantView apex;

    const VariantView& primary() const { return www.resolved ? www : apex; }

    /// Materializes an owning DomainRecord.
    DomainRecord to_record() const;

    /// Field-wise equality with a RecordView or a DomainRecord.
    template <typename Record>
    bool operator==(const Record& other) const {
      return rank == other.rank && name == other.name &&
             excluded_dns == other.excluded_dns &&
             dnssec_signed == other.dnssec_signed && www == other.www &&
             apex == other.apex;
    }
  };

  DomainTable() = default;
  DomainTable(DomainTable&&) = default;
  DomainTable& operator=(DomainTable&&) = default;
  DomainTable(const DomainTable& other) { append_table(other); }
  DomainTable& operator=(const DomainTable& other);

  std::size_t size() const { return rank_.size(); }
  bool empty() const { return rank_.empty(); }
  std::size_t pair_count() const { return pairs_.size(); }

  void reserve(std::size_t rows, std::size_t pairs_hint = 0);
  void clear();
  /// Gives back the pair pool's spare capacity. Appends grow the pool by
  /// doubling; a table that is complete and kept calls this once.
  void shrink_pair_pool() { pairs_.shrink_to_fit(); }

  /// Appends one record (field-by-field copy into the columns).
  void append(const DomainRecord& record);

  /// Appends a copy of another table's row — how the delta pipeline
  /// collects its re-swept rows, and how a serving snapshot compacts (only
  /// the pairs and strings the row references come along).
  void append(const RecordView& record);

  /// Append without materializing a DomainRecord — the sweep's hot path.
  void append(std::uint32_t rank, std::string_view name, bool excluded_dns,
              bool dnssec_signed, const VariantResult& www,
              const VariantResult& apex);

  /// Appends every row of `other`, remapping its interner ids in id order
  /// (= first-appearance order), so fragments merged in shard order yield
  /// a table identical to serial row-by-row appends. The columns reserve
  /// exactly `size() + other.size()` rows (nothing, when reserved up
  /// front), and the pair pool at least doubles when it must grow, so an
  /// empty table gets exactly `other`'s pairs.
  void append_table(const DomainTable& other);

  /// Rewrites an existing row in place (rank and name are immutable) from
  /// VariantResults or from another table's VariantViews. Pair lists reuse
  /// their CSR slots when the new list fits, and otherwise relocate to the
  /// end of the pool. Neither the old slots nor interned strings no row
  /// refers to any more are reclaimed: a caller that rewrites rows
  /// repeatedly compacts by appending every row into a fresh table.
  template <typename Variant>
  void set_row(std::size_t index, bool excluded_dns, bool dnssec_signed,
               const Variant& www, const Variant& apex);

  RecordView view(std::size_t index) const;
  RecordView operator[](std::size_t index) const { return view(index); }
  DomainRecord record(std::size_t index) const { return view(index).to_record(); }

  std::uint32_t rank(std::size_t index) const { return rank_[index]; }
  std::string_view name(std::size_t index) const {
    return names_.view(name_[index]);
  }

  /// Approximate resident footprint of the columns + pools + interner,
  /// for the bench's memory reporting.
  std::size_t memory_bytes() const;

  /// Row-wise logical equality (names compared as strings, so two tables
  /// built through different fragment orders still compare correctly).
  bool operator==(const DomainTable& other) const;

  /// Forward iterator yielding RecordView by value — lets range-for code
  /// keep the `for (const auto& record : ...)` shape it had over the AoS
  /// vector.
  class Iterator {
   public:
    using value_type = RecordView;
    using difference_type = std::ptrdiff_t;
    using iterator_category = std::forward_iterator_tag;

    Iterator() = default;
    Iterator(const DomainTable* table, std::size_t index)
        : table_(table), index_(index) {}

    RecordView operator*() const { return table_->view(index_); }
    Iterator& operator++() { ++index_; return *this; }
    Iterator operator++(int) { Iterator tmp = *this; ++index_; return tmp; }
    bool operator==(const Iterator&) const = default;

   private:
    const DomainTable* table_ = nullptr;
    std::size_t index_ = 0;
  };
  Iterator begin() const { return Iterator(this, 0); }
  Iterator end() const { return Iterator(this, size()); }

 private:
  /// Per-variant columns; pair lists live in the shared CSR pool as
  /// [pair_begin, pair_begin + pair_count).
  struct VariantColumns {
    std::vector<std::uint16_t> address_count;
    std::vector<std::uint16_t> special_excluded;
    std::vector<std::uint16_t> unrouted;
    std::vector<std::uint8_t> cname_hops;
    std::vector<NameId> terminal_cname;
    std::vector<std::uint32_t> pair_begin;
    std::vector<std::uint32_t> pair_count;

    void reserve(std::size_t rows);
    void clear();
    std::size_t memory_bytes() const;
  };

  static constexpr std::uint8_t kWwwResolved = 1 << 0;
  static constexpr std::uint8_t kApexResolved = 1 << 1;
  static constexpr std::uint8_t kExcludedDns = 1 << 2;
  static constexpr std::uint8_t kDnssecSigned = 1 << 3;

  static std::uint8_t row_flags(bool excluded_dns, bool dnssec_signed,
                                bool www_resolved, bool apex_resolved);
  /// One row append for both variant shapes (VariantResult, VariantView):
  /// their fields share names.
  template <typename Variant>
  void append_row(std::uint32_t rank, std::string_view name,
                  bool excluded_dns, bool dnssec_signed, const Variant& www,
                  const Variant& apex);
  template <typename Variant>
  void append_variant(VariantColumns& columns, const Variant& variant);
  template <typename Variant>
  void set_variant(VariantColumns& columns, std::size_t index,
                   const Variant& variant);
  VariantView variant_view(const VariantColumns& columns, std::size_t index,
                           bool resolved) const;

  std::vector<std::uint32_t> rank_;
  std::vector<NameId> name_;
  std::vector<std::uint8_t> flags_;
  VariantColumns www_;
  VariantColumns apex_;
  std::vector<PrefixAsPair> pairs_;
  util::StringInterner names_;
};

struct PipelineCounters {
  std::uint64_t domains_total = 0;
  std::uint64_t domains_excluded_dns = 0;
  /// Queries sent, not a per-row quantity: cumulative by design, so the
  /// delta pipeline's re-sweeps add to it and never subtract.
  std::uint64_t dns_queries = 0;
  std::uint64_t addresses_www = 0;
  std::uint64_t addresses_apex = 0;
  std::uint64_t special_purpose_excluded = 0;
  std::uint64_t unrouted_addresses = 0;
  std::uint64_t pairs_www = 0;
  std::uint64_t pairs_apex = 0;
  std::uint64_t as_set_entries_excluded = 0;
  std::uint64_t dnssec_signed_domains = 0;

  /// The single enumeration point for these counters: CSV export and
  /// obs::Registry publication both iterate this list, so adding a field
  /// here is the only change needed to surface it everywhere.
  template <typename Fn>
  void for_each_field(Fn&& fn) const {
    fn("domains_total", domains_total);
    fn("domains_excluded_dns", domains_excluded_dns);
    fn("dns_queries", dns_queries);
    fn("addresses_www", addresses_www);
    fn("addresses_apex", addresses_apex);
    fn("special_purpose_excluded", special_purpose_excluded);
    fn("unrouted_addresses", unrouted_addresses);
    fn("pairs_www", pairs_www);
    fn("pairs_apex", pairs_apex);
    fn("as_set_entries_excluded", as_set_entries_excluded);
    fn("dnssec_signed_domains", dnssec_signed_domains);
  }

  /// Mutable visitation over the same field list (derived from the const
  /// overload so the enumeration cannot diverge).
  template <typename Fn>
  void for_each_field(Fn&& fn) {
    std::as_const(*this).for_each_field(
        [&](const char* name, const std::uint64_t& value) {
          fn(name, const_cast<std::uint64_t&>(value));
        });
  }

  /// Adds every field of `other` into this — how the parallel sweep folds
  /// per-worker counters into the dataset at join.
  void merge(const PipelineCounters& other);

  /// Adds (sign > 0) or removes (sign < 0) one domain row's contribution
  /// to every field but dns_queries. The batch sweep adds each measured
  /// row; the delta pipeline removes a re-swept row's old contribution and
  /// adds its new one. `Row` is a core::DomainMeasurement or a stored
  /// DomainTable::RecordView; the AS_SET count is passed on its own
  /// because the table does not store it.
  template <typename Row>
  void count_row(int sign, const Row& row, std::uint64_t as_set_entries) {
    const auto add = [sign](std::uint64_t& field, std::uint64_t value) {
      field = sign > 0 ? field + value : field - value;
    };
    add(domains_total, 1);
    add(domains_excluded_dns, row.excluded_dns ? 1 : 0);
    add(addresses_www, row.www.address_count);
    add(addresses_apex, row.apex.address_count);
    add(special_purpose_excluded,
        std::uint64_t{row.www.special_purpose_excluded} +
            row.apex.special_purpose_excluded);
    add(unrouted_addresses,
        std::uint64_t{row.www.unrouted_addresses} + row.apex.unrouted_addresses);
    add(pairs_www, row.www.pairs.size());
    add(pairs_apex, row.apex.pairs.size());
    add(as_set_entries_excluded, as_set_entries);
    add(dnssec_signed_domains, row.dnssec_signed ? 1 : 0);
  }

  /// Publishes every field as `ripki.pipeline.<field>` in `registry`.
  void publish(obs::Registry& registry) const;

  bool operator==(const PipelineCounters&) const = default;
};

struct Dataset {
  DomainTable domains;
  PipelineCounters counters;
  std::uint64_t rank_space = 0;  // rank axis upper bound (Alexa: 1M)

  std::size_t size() const { return domains.size(); }
  DomainTable::RecordView operator[](std::size_t index) const {
    return domains.view(index);
  }
  /// Range-for over cheap AoS views:
  /// `for (const auto& record : dataset.rows()) ...`
  const DomainTable& rows() const { return domains; }
  DomainRecord record(std::size_t index) const { return domains.record(index); }

  /// Record-for-record equality, counters included — the determinism
  /// contract between serial and sharded parallel runs.
  bool operator==(const Dataset&) const = default;
};

}  // namespace ripki::core
