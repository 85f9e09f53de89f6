#include "delta/zone.hpp"

#include <array>
#include <cassert>
#include <charconv>
#include <string>

#include "util/prng.hpp"

namespace ripki::delta {

ChurnZone::ChurnZone(const web::Ecosystem& eco, web::Vantage vantage,
                     std::uint64_t seed)
    : eco_(eco),
      base_(eco.zone_source(vantage)),
      seed_(seed),
      active_(eco.domain_count(), 1),
      tick_(eco.domain_count(), 0) {
  for (const web::PrefixRecord& record : eco.prefixes()) {
    if (record.announced && record.prefix.is_v4() &&
        record.prefix.length() <= 24)
      pool_.push_back(record.prefix);
  }
}

std::size_t ChurnZone::set_active(std::uint32_t row, bool active) {
  const std::uint32_t k = key(row);
  if ((active_[k] != 0) == active) return 0;
  active_[k] = active;
  serial_ += 2;
  return 2;
}

std::size_t ChurnZone::retarget(std::uint32_t row, std::uint64_t tick) {
  assert(tick >= 1 && tick == static_cast<std::uint32_t>(tick));
  if (pool_.empty()) return 0;
  const std::uint32_t k = key(row);
  const std::size_t names = tick_[k] == 0 ? 2 : 3;
  tick_[k] = static_cast<std::uint32_t>(tick);
  serial_ += static_cast<std::uint32_t>(names);
  return names;
}

dns::DnsName ChurnZone::target(std::uint32_t row) const {
  return dns::DnsName::parse("edge-t" + std::to_string(tick_[row]) + "-d" +
                             std::to_string(row) + ".cdn-overlay.example")
      .value();
}

ChurnZone::Kind ChurnZone::match(const dns::DnsName& name,
                                 std::uint32_t& row) const {
  // A current target: its row is the number after "-d", and the whole
  // name is the one target() spells for that row.
  const std::string_view first = name.first_label();
  const std::size_t at = first.rfind("-d");
  if (first.starts_with("edge-t") && at != std::string_view::npos &&
      std::from_chars(first.data() + at + 2, first.data() + first.size(), row)
              .ec == std::errc() &&
      row < tick_.size() && tick_[row] != 0 && name == target(row))
    return Kind::kTarget;

  // A site name: apex or www.apex, by its dotted text.
  std::array<char, 256> buf;
  std::string_view apex = name.text(buf);
  const bool www = first == "www" && apex.size() > first.size();
  if (www) apex.remove_prefix(4);  // strip "www."
  const auto plan = eco_.find_plan(apex);
  if (!plan.has_value()) return Kind::kBase;
  row = *plan;
  if (!active_[row]) return Kind::kNxDomain;
  return www && tick_[row] != 0 ? Kind::kCname : Kind::kBase;
}

void ChurnZone::lookup(const dns::DnsName& name, dns::RecordType type,
                       std::vector<dns::ResourceRecord>& out) const {
  std::uint32_t row = 0;
  const Kind kind = match(name, row);
  if (kind == Kind::kBase) return base_.lookup(name, type, out);
  if (kind == Kind::kCname && type == dns::RecordType::kCname)
    out.push_back(dns::ResourceRecord::cname(name, target(row)));
  if (kind != Kind::kTarget || type != dns::RecordType::kA) return;
  // A host in one pool prefix, and one in a second unless both picks
  // agree, all drawn from (seed, tick, row).
  const std::uint64_t h = util::mix64(
      util::hash_combine(seed_, util::hash_combine(tick_[row], row)));
  const auto host = [&](std::uint64_t pick, std::uint64_t offset) {
    const auto& bytes = pool_[pick % pool_.size()].address().bytes();
    return dns::ResourceRecord::a(
        name, net::IpAddress::v4(bytes[0], bytes[1], bytes[2],
                                 static_cast<std::uint8_t>(1 + offset % 250)));
  };
  out.push_back(host(h, h >> 32));
  if (pool_[h % pool_.size()] != pool_[(h >> 16) % pool_.size()])
    out.push_back(host(h >> 16, h >> 40));
}

bool ChurnZone::name_exists(const dns::DnsName& name) const {
  std::uint32_t row = 0;
  const Kind kind = match(name, row);
  return kind == Kind::kBase ? base_.name_exists(name) : kind != Kind::kNxDomain;
}

}  // namespace ripki::delta
