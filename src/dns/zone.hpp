// Zone data sources for the authoritative server.
//
// ZoneSource is an interface so record data can either live in memory
// (tests, small examples) or be synthesised on demand by the ecosystem
// generator (1M-domain experiments without 1M-domain memory footprints).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dns/message.hpp"

namespace ripki::dns {

/// Where a zone writes the records of one answer: the slots of a record
/// vector, from its front. A slot an earlier answer left keeps its
/// buffers, so a steady stream of answers copies owner names and targets
/// into storage that is already there. Records past the ones written stay
/// in the vector until trim().
class RecordSink {
 public:
  explicit RecordSink(std::vector<ResourceRecord>& records) : records_(records) {}

  /// Copies `record` into the next slot.
  void add(const ResourceRecord& record);
  /// An A or AAAA record, by the address's family.
  void address(const DnsName& owner, const net::IpAddress& addr,
               std::uint32_t ttl = 300);
  /// A CNAME record of `owner`; returns its target for the caller to set.
  DnsName& cname(const DnsName& owner, std::uint32_t ttl = 300);
  /// The next slot with its owner, type and TTL set; its rdata is what the
  /// slot held, for the caller to overwrite.
  ResourceRecord& next(const DnsName& owner, RecordType type, std::uint32_t ttl);

  std::size_t size() const { return size_; }
  /// Drops the records past the ones written.
  void trim() { records_.resize(size_); }

 private:
  std::vector<ResourceRecord>& records_;
  std::size_t size_ = 0;
};

class ZoneSource {
 public:
  virtual ~ZoneSource() = default;

  /// Writes the answer to one query for (name, type) into `out`: the
  /// records of exactly (name, type), or, when there are none, the type is
  /// not CNAME and the name is an alias, the alias's CNAME record (the
  /// server does not chase it; resolvers do). Returns whether the name
  /// exists: false drives NXDOMAIN, true with nothing written NOERROR with
  /// an empty answer section. Writing through a sink (rather than
  /// returning a span) lets a source synthesise its records per query.
  virtual bool answer(const DnsName& name, RecordType type, RecordSink& out) const = 0;

  /// The records of exactly (name, type) in a fresh vector (tests, tools):
  /// an alias's CNAME is in the answer to a CNAME query only.
  std::vector<ResourceRecord> lookup(const DnsName& name, RecordType type) const;
  /// True when any record exists for `name`.
  bool name_exists(const DnsName& name) const;
};

/// Simple in-memory record store.
class InMemoryZoneDb final : public ZoneSource {
 public:
  void add(ResourceRecord record);

  bool answer(const DnsName& name, RecordType type, RecordSink& out) const override;

  std::size_t record_count() const { return record_count_; }

 private:
  /// Each name's records, in the order they were added.
  std::unordered_map<DnsName, std::vector<ResourceRecord>, DnsNameHash> names_;
  std::size_t record_count_ = 0;
};

}  // namespace ripki::dns
