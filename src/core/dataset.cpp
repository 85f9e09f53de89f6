#include "core/dataset.hpp"

#include <algorithm>
#include <cassert>

#include "obs/metrics.hpp"

namespace ripki::core {

void dedupe_pairs(std::vector<PrefixAsPair>& pairs) {
  // The one key order drives both the sort and the equality predicate
  // (neither sorts first), so the two can never drift apart.
  std::sort(pairs.begin(), pairs.end(),
            [](const PrefixAsPair& a, const PrefixAsPair& b) {
              return pair_key_less(a, b);
            });
  pairs.erase(std::unique(pairs.begin(), pairs.end(),
                          [](const PrefixAsPair& a, const PrefixAsPair& b) {
                            return !pair_key_less(a, b) && !pair_key_less(b, a);
                          }),
              pairs.end());
}

double pairs_coverage(std::span<const PrefixAsPair> pairs) {
  if (pairs.empty()) return 0.0;
  std::size_t covered = 0;
  for (const auto& pair : pairs) {
    if (pair.rpki_covered()) ++covered;
  }
  return static_cast<double>(covered) / static_cast<double>(pairs.size());
}

double pairs_fraction(std::span<const PrefixAsPair> pairs,
                      rpki::OriginValidity validity) {
  if (pairs.empty()) return 0.0;
  std::size_t n = 0;
  for (const auto& pair : pairs) {
    if (pair.validity == validity) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(pairs.size());
}

void VariantResult::reset() {
  resolved = false;
  address_count = 0;
  special_purpose_excluded = 0;
  unrouted_addresses = 0;
  cname_hops = 0;
  terminal_cname.clear();
  pairs.clear();
}

void PipelineCounters::merge(const PipelineCounters& other) {
  std::vector<const std::uint64_t*> fields;
  other.for_each_field([&](const char*, const std::uint64_t& value) {
    fields.push_back(&value);
  });
  std::size_t i = 0;
  for_each_field([&](const char*, std::uint64_t& value) {
    value += *fields[i++];
  });
}

void PipelineCounters::publish(obs::Registry& registry) const {
  for_each_field([&](const char* name, std::uint64_t value) {
    registry.counter(std::string("ripki.pipeline.") + name).set(value);
  });
  static constexpr struct {
    const char* name;
    const char* help;
  } kHelp[] = {
      {"domains_total", "Domains measured (paper stage 1 selection)"},
      {"domains_excluded_dns",
       "Domains where neither www nor apex resolved (excluded from the "
       "dataset)"},
      {"dns_queries", "DNS queries issued during stage 2 resolution"},
      {"addresses_www", "Addresses resolved for the www.<domain> variant"},
      {"addresses_apex", "Addresses resolved for the apex <domain> variant"},
      {"special_purpose_excluded",
       "Resolved addresses discarded as IANA special-purpose space"},
      {"unrouted_addresses",
       "Resolved addresses with no covering prefix in the RIB"},
      {"pairs_www",
       "Unique (prefix, origin AS) pairs from the www variant (stage 3)"},
      {"pairs_apex",
       "Unique (prefix, origin AS) pairs from the apex variant (stage 3)"},
      {"as_set_entries_excluded",
       "RIB entries skipped because the AS path ends in an AS_SET "
       "(RFC 6472)"},
      {"dnssec_signed_domains",
       "Domains whose apex publishes a DNSKEY (DNSSEC adoption probe)"},
  };
  for (const auto& entry : kHelp) {
    registry.describe(std::string("ripki.pipeline.") + entry.name, entry.help);
  }
}

// --- DomainTable ------------------------------------------------------------

VariantResult DomainTable::VariantView::to_result() const {
  VariantResult out;
  out.resolved = resolved;
  out.address_count = address_count;
  out.special_purpose_excluded = special_purpose_excluded;
  out.unrouted_addresses = unrouted_addresses;
  out.cname_hops = cname_hops;
  out.terminal_cname.assign(terminal_cname);
  out.pairs.assign(pairs.begin(), pairs.end());
  return out;
}

DomainRecord DomainTable::RecordView::to_record() const {
  DomainRecord out;
  out.rank = rank;
  out.name.assign(name);
  out.excluded_dns = excluded_dns;
  out.dnssec_signed = dnssec_signed;
  out.www = www.to_result();
  out.apex = apex.to_result();
  return out;
}

DomainTable& DomainTable::operator=(const DomainTable& other) {
  if (this != &other) {
    clear();
    append_table(other);
  }
  return *this;
}

void DomainTable::VariantColumns::reserve(std::size_t rows) {
  address_count.reserve(rows);
  special_excluded.reserve(rows);
  unrouted.reserve(rows);
  cname_hops.reserve(rows);
  terminal_cname.reserve(rows);
  pair_begin.reserve(rows);
  pair_count.reserve(rows);
}

void DomainTable::VariantColumns::clear() {
  address_count.clear();
  special_excluded.clear();
  unrouted.clear();
  cname_hops.clear();
  terminal_cname.clear();
  pair_begin.clear();
  pair_count.clear();
}

std::size_t DomainTable::VariantColumns::memory_bytes() const {
  return address_count.capacity() * sizeof(address_count[0]) +
         special_excluded.capacity() * sizeof(special_excluded[0]) +
         unrouted.capacity() * sizeof(unrouted[0]) +
         cname_hops.capacity() * sizeof(cname_hops[0]) +
         terminal_cname.capacity() * sizeof(terminal_cname[0]) +
         pair_begin.capacity() * sizeof(pair_begin[0]) +
         pair_count.capacity() * sizeof(pair_count[0]);
}

void DomainTable::reserve(std::size_t rows, std::size_t pairs_hint) {
  rank_.reserve(rows);
  name_.reserve(rows);
  flags_.reserve(rows);
  www_.reserve(rows);
  apex_.reserve(rows);
  if (pairs_hint != 0) pairs_.reserve(pairs_hint);
}

void DomainTable::clear() {
  rank_.clear();
  name_.clear();
  flags_.clear();
  www_.clear();
  apex_.clear();
  pairs_.clear();
  names_.clear();
}

std::uint8_t DomainTable::row_flags(bool excluded_dns, bool dnssec_signed,
                                    bool www_resolved, bool apex_resolved) {
  std::uint8_t flags = 0;
  if (www_resolved) flags |= kWwwResolved;
  if (apex_resolved) flags |= kApexResolved;
  if (excluded_dns) flags |= kExcludedDns;
  if (dnssec_signed) flags |= kDnssecSigned;
  return flags;
}

template <typename Variant>
void DomainTable::append_variant(VariantColumns& columns,
                                 const Variant& variant) {
  columns.address_count.push_back(variant.address_count);
  columns.special_excluded.push_back(variant.special_purpose_excluded);
  columns.unrouted.push_back(variant.unrouted_addresses);
  columns.cname_hops.push_back(variant.cname_hops);
  columns.terminal_cname.push_back(variant.terminal_cname.empty()
                                       ? util::StringInterner::kNotFound
                                       : names_.intern(variant.terminal_cname));
  columns.pair_begin.push_back(static_cast<std::uint32_t>(pairs_.size()));
  columns.pair_count.push_back(
      static_cast<std::uint32_t>(variant.pairs.size()));
  pairs_.insert(pairs_.end(), variant.pairs.begin(), variant.pairs.end());
}

template <typename Variant>
void DomainTable::append_row(std::uint32_t rank, std::string_view name,
                             bool excluded_dns, bool dnssec_signed,
                             const Variant& www, const Variant& apex) {
  rank_.push_back(rank);
  name_.push_back(names_.intern(name));
  flags_.push_back(
      row_flags(excluded_dns, dnssec_signed, www.resolved, apex.resolved));
  append_variant(www_, www);
  append_variant(apex_, apex);
}

void DomainTable::append(std::uint32_t rank, std::string_view name,
                         bool excluded_dns, bool dnssec_signed,
                         const VariantResult& www, const VariantResult& apex) {
  append_row(rank, name, excluded_dns, dnssec_signed, www, apex);
}

void DomainTable::append(const DomainRecord& record) {
  append_row(record.rank, record.name, record.excluded_dns,
             record.dnssec_signed, record.www, record.apex);
}

void DomainTable::append(const RecordView& record) {
  append_row(record.rank, record.name, record.excluded_dns,
             record.dnssec_signed, record.www, record.apex);
}

template <typename Variant>
void DomainTable::set_variant(VariantColumns& columns, std::size_t index,
                              const Variant& variant) {
  columns.address_count[index] = variant.address_count;
  columns.special_excluded[index] = variant.special_purpose_excluded;
  columns.unrouted[index] = variant.unrouted_addresses;
  columns.cname_hops[index] = variant.cname_hops;
  columns.terminal_cname[index] = variant.terminal_cname.empty()
                                      ? util::StringInterner::kNotFound
                                      : names_.intern(variant.terminal_cname);
  const auto count = static_cast<std::uint32_t>(variant.pairs.size());
  if (count <= columns.pair_count[index]) {
    std::copy(variant.pairs.begin(), variant.pairs.end(),
              pairs_.begin() + columns.pair_begin[index]);
  } else {
    columns.pair_begin[index] = static_cast<std::uint32_t>(pairs_.size());
    pairs_.insert(pairs_.end(), variant.pairs.begin(), variant.pairs.end());
  }
  columns.pair_count[index] = count;
}

template <typename Variant>
void DomainTable::set_row(std::size_t index, bool excluded_dns,
                          bool dnssec_signed, const Variant& www,
                          const Variant& apex) {
  assert(index < size());
  flags_[index] =
      row_flags(excluded_dns, dnssec_signed, www.resolved, apex.resolved);
  set_variant(www_, index, www);
  set_variant(apex_, index, apex);
}
template void DomainTable::set_row(std::size_t, bool, bool,
                                   const VariantResult&, const VariantResult&);
template void DomainTable::set_row(std::size_t, bool, bool, const VariantView&,
                                   const VariantView&);

void DomainTable::append_table(const DomainTable& other) {
  const std::size_t rows = other.size();
  if (rows == 0) return;
  const std::size_t pairs = pairs_.size() + other.pairs_.size();
  reserve(size() + rows,
          pairs > pairs_.capacity() ? std::max(pairs, 2 * pairs_.capacity())
                                    : 0);

  // Re-intern the fragment's strings in id order (= first-appearance
  // order). With empty-prefix tables merged in shard order this replays
  // the exact intern sequence a serial run would have produced.
  std::vector<NameId> remap(other.names_.size());
  for (std::size_t id = 0; id < other.names_.size(); ++id) {
    remap[id] = names_.intern(other.names_.view(id));
  }
  const auto remap_id = [&](NameId id) {
    return id == util::StringInterner::kNotFound
               ? util::StringInterner::kNotFound
               : remap[id];
  };

  rank_.insert(rank_.end(), other.rank_.begin(), other.rank_.end());
  flags_.insert(flags_.end(), other.flags_.begin(), other.flags_.end());
  for (const NameId id : other.name_) name_.push_back(remap_id(id));

  const auto append_columns = [&](VariantColumns& dst,
                                  const VariantColumns& src,
                                  std::uint32_t pair_offset) {
    dst.address_count.insert(dst.address_count.end(),
                             src.address_count.begin(),
                             src.address_count.end());
    dst.special_excluded.insert(dst.special_excluded.end(),
                                src.special_excluded.begin(),
                                src.special_excluded.end());
    dst.unrouted.insert(dst.unrouted.end(), src.unrouted.begin(),
                        src.unrouted.end());
    dst.cname_hops.insert(dst.cname_hops.end(), src.cname_hops.begin(),
                          src.cname_hops.end());
    for (const NameId id : src.terminal_cname)
      dst.terminal_cname.push_back(remap_id(id));
    for (const std::uint32_t begin : src.pair_begin)
      dst.pair_begin.push_back(begin + pair_offset);
    dst.pair_count.insert(dst.pair_count.end(), src.pair_count.begin(),
                          src.pair_count.end());
  };
  const auto pair_offset = static_cast<std::uint32_t>(pairs_.size());
  append_columns(www_, other.www_, pair_offset);
  append_columns(apex_, other.apex_, pair_offset);
  pairs_.insert(pairs_.end(), other.pairs_.begin(), other.pairs_.end());
}

DomainTable::VariantView DomainTable::variant_view(
    const VariantColumns& columns, std::size_t index, bool resolved) const {
  VariantView view;
  view.resolved = resolved;
  view.address_count = columns.address_count[index];
  view.special_purpose_excluded = columns.special_excluded[index];
  view.unrouted_addresses = columns.unrouted[index];
  view.cname_hops = columns.cname_hops[index];
  const NameId cname = columns.terminal_cname[index];
  view.terminal_cname = cname == util::StringInterner::kNotFound
                            ? std::string_view()
                            : names_.view(cname);
  view.pairs = std::span<const PrefixAsPair>(
      pairs_.data() + columns.pair_begin[index], columns.pair_count[index]);
  return view;
}

DomainTable::RecordView DomainTable::view(std::size_t index) const {
  assert(index < size());
  RecordView view;
  view.rank = rank_[index];
  view.name = names_.view(name_[index]);
  const std::uint8_t flags = flags_[index];
  view.excluded_dns = (flags & kExcludedDns) != 0;
  view.dnssec_signed = (flags & kDnssecSigned) != 0;
  view.www = variant_view(www_, index, (flags & kWwwResolved) != 0);
  view.apex = variant_view(apex_, index, (flags & kApexResolved) != 0);
  return view;
}

std::size_t DomainTable::memory_bytes() const {
  return rank_.capacity() * sizeof(rank_[0]) +
         name_.capacity() * sizeof(name_[0]) +
         flags_.capacity() * sizeof(flags_[0]) + www_.memory_bytes() +
         apex_.memory_bytes() + pairs_.capacity() * sizeof(pairs_[0]) +
         names_.memory_bytes();
}

bool DomainTable::operator==(const DomainTable& other) const {
  if (size() != other.size()) return false;
  for (std::size_t i = 0; i < size(); ++i) {
    if (!(view(i) == other.view(i))) return false;
  }
  return true;
}

}  // namespace ripki::core
