#include "dns/zone.hpp"

namespace ripki::dns {

void InMemoryZoneDb::add(ResourceRecord record) {
  auto& by_type = names_[record.name].by_type;
  by_type[static_cast<std::uint16_t>(record.type)].push_back(std::move(record));
  ++record_count_;
}

void InMemoryZoneDb::lookup(const DnsName& name, RecordType type,
                            std::vector<ResourceRecord>& out) const {
  const auto name_it = names_.find(name);
  if (name_it == names_.end()) return;
  const auto type_it = name_it->second.by_type.find(static_cast<std::uint16_t>(type));
  if (type_it == name_it->second.by_type.end()) return;
  out.insert(out.end(), type_it->second.begin(), type_it->second.end());
}

bool InMemoryZoneDb::name_exists(const DnsName& name) const {
  return names_.find(name) != names_.end();
}

}  // namespace ripki::dns
