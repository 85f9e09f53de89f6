#include "dns/zone.hpp"

#include <algorithm>

namespace ripki::dns {

ResourceRecord& RecordSink::next(const DnsName& owner, RecordType type,
                                 std::uint32_t ttl) {
  if (size_ == records_.size()) records_.emplace_back();
  ResourceRecord& slot = records_[size_++];
  slot.name = owner;
  slot.type = type;
  slot.ttl = ttl;
  return slot;
}

void RecordSink::add(const ResourceRecord& record) {
  next(record.name, record.type, record.ttl).rdata = record.rdata;
}

void RecordSink::address(const DnsName& owner, const net::IpAddress& addr,
                         std::uint32_t ttl) {
  next(owner, addr.is_v4() ? RecordType::kA : RecordType::kAaaa, ttl).rdata = addr;
}

DnsName& RecordSink::cname(const DnsName& owner, std::uint32_t ttl) {
  Rdata& rdata = next(owner, RecordType::kCname, ttl).rdata;
  if (DnsName* held = std::get_if<DnsName>(&rdata)) return *held;
  return rdata.emplace<DnsName>();
}

std::vector<ResourceRecord> ZoneSource::lookup(const DnsName& name,
                                               RecordType type) const {
  std::vector<ResourceRecord> out;
  RecordSink sink(out);
  answer(name, type, sink);
  sink.trim();
  std::erase_if(out, [type](const ResourceRecord& rr) { return rr.type != type; });
  return out;
}

bool ZoneSource::name_exists(const DnsName& name) const {
  std::vector<ResourceRecord> out;
  RecordSink sink(out);
  return answer(name, RecordType::kCname, sink);
}

void InMemoryZoneDb::add(ResourceRecord record) {
  names_[record.name].push_back(std::move(record));
  ++record_count_;
}

bool InMemoryZoneDb::answer(const DnsName& name, RecordType type,
                            RecordSink& out) const {
  const auto it = names_.find(name);
  if (it == names_.end()) return false;
  const auto write = [&](RecordType wanted) {
    for (const ResourceRecord& rr : it->second) {
      if (rr.type == wanted) out.add(rr);
    }
  };
  const std::size_t first = out.size();
  write(type);
  if (out.size() == first && type != RecordType::kCname) write(RecordType::kCname);
  return true;
}

}  // namespace ripki::dns
