#include "delta/zone.hpp"

#include <cassert>
#include <charconv>

#include "util/prng.hpp"

namespace ripki::delta {

ChurnZone::ChurnZone(const web::Ecosystem& eco, web::Vantage vantage,
                     std::uint64_t seed)
    : eco_(eco),
      base_(eco.zone_source(vantage)),
      overlay_(dns::DnsName::parse("cdn-overlay.example").value()),
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
  if ((active_[row] != 0) == active) return 0;
  active_[row] = active;
  serial_ += 2;
  return 2;
}

std::size_t ChurnZone::retarget(std::uint32_t row, std::uint64_t tick) {
  assert(tick >= 1 && tick == static_cast<std::uint32_t>(tick));
  if (pool_.empty()) return 0;
  const std::size_t names = tick_[row] == 0 ? 2 : 3;
  tick_[row] = static_cast<std::uint32_t>(tick);
  serial_ += static_cast<std::uint32_t>(names);
  return names;
}

std::string_view ChurnZone::target_label(std::uint32_t row,
                                        std::array<char, 48>& buf) const {
  char* const end = buf.data() + buf.size();
  char* out = std::copy_n("edge-t", 6, buf.data());
  out = std::to_chars(out, end, tick_[row]).ptr;
  out = std::copy_n("-d", 2, out);
  out = std::to_chars(out, end, row).ptr;
  return {buf.data(), static_cast<std::size_t>(out - buf.data())};
}

ChurnZone::Kind ChurnZone::match(const dns::DnsName& name,
                                 std::uint32_t& row) const {
  // A current target: its row is the number after "-d", and the whole
  // name is the one target_label() spells for that row, in the overlay.
  const std::string_view first = name.first_label();
  const std::size_t at = first.rfind("-d");
  std::array<char, 48> label;
  if (first.starts_with("edge-t") && at != std::string_view::npos &&
      std::from_chars(first.data() + at + 2, first.data() + first.size(), row)
              .ec == std::errc() &&
      row < tick_.size() && tick_[row] != 0 && first == target_label(row, label) &&
      name.wire().substr(1 + first.size()) == overlay_.wire())
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

bool ChurnZone::answer(const dns::DnsName& name, dns::RecordType type,
                       dns::RecordSink& out) const {
  std::uint32_t row = 0;
  switch (match(name, row)) {
    case Kind::kBase:
      return base_.answer(name, type, out);
    case Kind::kNxDomain:
      return false;
    case Kind::kCname: {
      // The retargeted www name holds its CNAME only, which answers every
      // type.
      std::array<char, 48> label;
      overlay_.prepended(target_label(row, label), out.cname(name));
      return true;
    }
    case Kind::kTarget:
      break;
  }
  if (type != dns::RecordType::kA) return true;
  // A host in one pool prefix, and one in a second unless both picks
  // agree, all drawn from (seed, tick, row).
  const std::uint64_t h = util::mix64(
      util::hash_combine(seed_, util::hash_combine(tick_[row], row)));
  const auto host = [&](std::uint64_t pick, std::uint64_t offset) {
    const auto& bytes = pool_[pick % pool_.size()].address().bytes();
    out.address(name, net::IpAddress::v4(bytes[0], bytes[1], bytes[2],
                                         static_cast<std::uint8_t>(1 + offset % 250)));
  };
  host(h, h >> 32);
  if (pool_[h % pool_.size()] != pool_[(h >> 16) % pool_.size()]) host(h >> 16, h >> 40);
  return true;
}

}  // namespace ripki::delta
