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

class ZoneSource {
 public:
  virtual ~ZoneSource() = default;

  /// Appends the records of exactly (name, type) to `out`. CNAME
  /// indirection is NOT resolved here; the server adds the CNAME record
  /// and resolvers chase it. Appending (rather than returning a span)
  /// lets a source synthesise its records per query.
  virtual void lookup(const DnsName& name, RecordType type,
                      std::vector<ResourceRecord>& out) const = 0;

  /// The records of (name, type) in a fresh vector (tests, tools).
  std::vector<ResourceRecord> lookup(const DnsName& name, RecordType type) const {
    std::vector<ResourceRecord> out;
    lookup(name, type, out);
    return out;
  }

  /// True when any record exists for `name` (drives NXDOMAIN vs NOERROR
  /// with an empty answer section).
  virtual bool name_exists(const DnsName& name) const = 0;
};

/// Simple in-memory record store.
class InMemoryZoneDb final : public ZoneSource {
 public:
  void add(ResourceRecord record);

  using ZoneSource::lookup;
  void lookup(const DnsName& name, RecordType type,
              std::vector<ResourceRecord>& out) const override;
  bool name_exists(const DnsName& name) const override;

  std::size_t record_count() const { return record_count_; }

 private:
  struct TypeMap {
    std::unordered_map<std::uint16_t, std::vector<ResourceRecord>> by_type;
  };
  std::unordered_map<DnsName, TypeMap, DnsNameHash> names_;
  std::size_t record_count_ = 0;
};

}  // namespace ripki::dns
