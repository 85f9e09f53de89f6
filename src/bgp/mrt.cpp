#include "bgp/mrt.hpp"

#include <cassert>
#include <chrono>
#include <optional>

#include "exec/thread_pool.hpp"
#include "obs/span.hpp"

namespace ripki::bgp::mrt {

void ParseStats::publish(obs::Registry& registry) const {
  for_each_field([&](const char* name, std::uint64_t value) {
    registry.counter(std::string("ripki.bgp.mrt.") + name).set(value);
  });
  registry.describe("ripki.bgp.mrt.records",
                    "MRT records decoded from the stage 3 table dump");
  registry.describe("ripki.bgp.mrt.rib_entries",
                    "RIB path entries extracted from TABLE_DUMP_V2 records");
  registry.describe("ripki.bgp.mrt.skipped_attributes",
                    "BGP path attributes skipped as unknown or malformed "
                    "during MRT decode");
}

void ParseStats::merge(const ParseStats& other) {
  std::vector<const std::uint64_t*> fields;
  other.for_each_field([&](const char*, const std::uint64_t& value) {
    fields.push_back(&value);
  });
  std::size_t i = 0;
  for_each_field([&](const char*, std::uint64_t& value) {
    value += *fields[i++];
  });
}

namespace {

// BGP path attribute type codes (RFC 4271 §5.1).
constexpr std::uint8_t kAttrOrigin = 1;
constexpr std::uint8_t kAttrAsPath = 2;
constexpr std::uint8_t kAttrNextHop = 3;
constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagExtendedLength = 0x10;

void write_attribute(util::ByteWriter& w, std::uint8_t type,
                     std::span<const std::uint8_t> value) {
  const bool extended = value.size() > 255;
  w.put_u8(static_cast<std::uint8_t>(kFlagTransitive |
                                     (extended ? kFlagExtendedLength : 0)));
  w.put_u8(type);
  if (extended) {
    w.put_u16(static_cast<std::uint16_t>(value.size()));
  } else {
    w.put_u8(static_cast<std::uint8_t>(value.size()));
  }
  w.put_bytes(value);
}

util::Bytes encode_attributes(const RibEntry& entry) {
  util::ByteWriter attrs;
  // ORIGIN: IGP.
  const std::uint8_t origin_value = 0;
  write_attribute(attrs, kAttrOrigin, std::span<const std::uint8_t>(&origin_value, 1));
  // AS_PATH.
  util::ByteWriter path;
  entry.as_path.encode_into(path);
  write_attribute(attrs, kAttrAsPath, path.bytes());
  // NEXT_HOP (IPv4 only; IPv6 would use MP_REACH_NLRI).
  if (entry.prefix.is_v4()) {
    const std::uint8_t hop[4] = {192, 0, 2, 1};
    write_attribute(attrs, kAttrNextHop, std::span<const std::uint8_t>(hop, 4));
  }
  return std::move(attrs).take();
}

/// Extracts the AS_PATH from a BGP attribute blob, skipping everything else.
util::Result<AsPath> parse_as_path_from_attributes(
    std::span<const std::uint8_t> attrs, std::uint64_t* skipped) {
  util::ByteReader reader(attrs);
  std::optional<AsPath> path;
  while (!reader.at_end()) {
    RIPKI_TRY_ASSIGN(flags, reader.u8());
    RIPKI_TRY_ASSIGN(type, reader.u8());
    std::size_t length = 0;
    if ((flags & kFlagExtendedLength) != 0) {
      RIPKI_TRY_ASSIGN(len16, reader.u16());
      length = len16;
    } else {
      RIPKI_TRY_ASSIGN(len8, reader.u8());
      length = len8;
    }
    RIPKI_TRY_ASSIGN(value, reader.view(length));
    if (type == kAttrAsPath) {
      RIPKI_TRY_ASSIGN(decoded, AsPath::decode(value));
      path = std::move(decoded);
    } else if (skipped != nullptr) {
      ++*skipped;
    }
  }
  if (!path.has_value()) return util::Err("mrt: rib entry missing AS_PATH");
  return *path;
}

std::size_t prefix_byte_count(int length) {
  return static_cast<std::size_t>((length + 7) / 8);
}

/// One scanned record: header fields plus a zero-copy view of the body.
struct RawRecord {
  std::uint32_t timestamp = 0;
  std::uint16_t type = 0;
  std::uint16_t subtype = 0;
  std::span<const std::uint8_t> body;
};

util::Result<RawRecord> scan_record(util::ByteReader& reader) {
  RawRecord rec;
  RIPKI_TRY_ASSIGN(timestamp, reader.u32());
  rec.timestamp = timestamp;
  RIPKI_TRY_ASSIGN(type, reader.u16());
  rec.type = type;
  RIPKI_TRY_ASSIGN(subtype, reader.u16());
  rec.subtype = subtype;
  RIPKI_TRY_ASSIGN(length, reader.u32());
  RIPKI_TRY_ASSIGN(body, reader.view(length));
  rec.body = body;
  return rec;
}

util::Result<void> parse_peer_index(std::span<const std::uint8_t> data,
                                    Rib& rib) {
  util::ByteReader body(data);
  RIPKI_TRY_ASSIGN(collector_id, body.u32());
  (void)collector_id;
  RIPKI_TRY_ASSIGN(name_len, body.u16());
  RIPKI_TRY_ASSIGN(view_name, body.string(name_len));
  (void)view_name;
  RIPKI_TRY_ASSIGN(peer_count, body.u16());
  for (std::uint16_t i = 0; i < peer_count; ++i) {
    RIPKI_TRY_ASSIGN(peer_type, body.u8());
    const bool v6 = (peer_type & 0x01) != 0;
    const bool as4 = (peer_type & 0x02) != 0;
    PeerEntry peer;
    RIPKI_TRY_ASSIGN(bgp_id, body.u32());
    peer.bgp_id = bgp_id;
    RIPKI_TRY_ASSIGN(addr_bytes, body.bytes(v6 ? 16 : 4));
    if (v6) {
      std::array<std::uint8_t, 16> raw{};
      std::copy(addr_bytes.begin(), addr_bytes.end(), raw.begin());
      peer.address = net::IpAddress::v6(raw);
    } else {
      peer.address = net::IpAddress::v4(addr_bytes[0], addr_bytes[1],
                                        addr_bytes[2], addr_bytes[3]);
    }
    if (as4) {
      RIPKI_TRY_ASSIGN(asn, body.u32());
      peer.asn = net::Asn(asn);
    } else {
      RIPKI_TRY_ASSIGN(asn, body.u16());
      peer.asn = net::Asn(asn);
    }
    rib.add_peer(peer);
  }
  return {};
}

/// Decode output of one RIB record. On failure, `entries`/`stats` keep the
/// progress made before the error — exactly the counts the serial parser
/// had accumulated when it bailed out of that record.
struct DecodedRib {
  std::vector<RibEntry> entries;
  ParseStats stats;  // rib_entries + skipped_attributes only
  std::optional<util::Error> error;
};

util::Result<void> decode_rib_record_into(const RawRecord& rec,
                                          std::size_t peer_count,
                                          DecodedRib& out) {
  util::ByteReader body(rec.body);
  const bool v4 = rec.subtype == kSubtypeRibIpv4Unicast;
  RIPKI_TRY_ASSIGN(sequence, body.u32());
  (void)sequence;
  RIPKI_TRY_ASSIGN(prefix_len, body.u8());
  const int max_len = v4 ? 32 : 128;
  if (prefix_len > max_len) return util::Err("mrt: bad prefix length");
  RIPKI_TRY_ASSIGN(prefix_bytes, body.bytes(prefix_byte_count(prefix_len)));

  net::IpAddress addr;
  if (v4) {
    std::uint8_t raw[4] = {0, 0, 0, 0};
    std::copy(prefix_bytes.begin(), prefix_bytes.end(), raw);
    addr = net::IpAddress::v4(raw[0], raw[1], raw[2], raw[3]);
  } else {
    std::array<std::uint8_t, 16> raw{};
    std::copy(prefix_bytes.begin(), prefix_bytes.end(), raw.begin());
    addr = net::IpAddress::v6(raw);
  }
  const net::Prefix prefix(addr, prefix_len);

  RIPKI_TRY_ASSIGN(entry_count, body.u16());
  out.entries.reserve(entry_count);
  for (std::uint16_t i = 0; i < entry_count; ++i) {
    RibEntry entry;
    entry.prefix = prefix;
    RIPKI_TRY_ASSIGN(peer_index, body.u16());
    entry.peer_index = peer_index;
    if (entry.peer_index >= peer_count)
      return util::Err("mrt: rib entry references unknown peer");
    RIPKI_TRY_ASSIGN(originated, body.u32());
    entry.originated_at = originated;
    RIPKI_TRY_ASSIGN(attr_len, body.u16());
    RIPKI_TRY_ASSIGN(attrs, body.view(attr_len));
    std::uint64_t skipped = 0;
    RIPKI_TRY_ASSIGN(path, parse_as_path_from_attributes(attrs, &skipped));
    out.stats.skipped_attributes += skipped;
    ++out.stats.rib_entries;
    entry.as_path = std::move(path);
    out.entries.push_back(std::move(entry));
  }
  if (!body.at_end()) return util::Err("mrt: trailing bytes in RIB record");
  return {};
}

/// Shards per worker in the sliced decode: more shards than workers so the
/// pool's queue evens out per-record cost variance (entry counts differ).
constexpr std::size_t kShardsPerWorker = 4;

}  // namespace

void write_record(util::ByteWriter& writer, const Record& record) {
  writer.put_u32(record.timestamp);
  writer.put_u16(record.type);
  writer.put_u16(record.subtype);
  writer.put_u32(static_cast<std::uint32_t>(record.body.size()));
  writer.put_bytes(record.body);
}

util::Result<Record> read_record(util::ByteReader& reader) {
  Record record;
  RIPKI_TRY_ASSIGN(timestamp, reader.u32());
  record.timestamp = timestamp;
  RIPKI_TRY_ASSIGN(type, reader.u16());
  record.type = type;
  RIPKI_TRY_ASSIGN(subtype, reader.u16());
  record.subtype = subtype;
  RIPKI_TRY_ASSIGN(length, reader.u32());
  RIPKI_TRY_ASSIGN(body, reader.bytes(length));
  record.body = std::move(body);
  return record;
}

util::Bytes write_table_dump(const Rib& rib, std::uint32_t collector_bgp_id,
                             const std::string& view_name, std::uint32_t timestamp) {
  util::ByteWriter out;

  // PEER_INDEX_TABLE.
  {
    util::ByteWriter body;
    body.put_u32(collector_bgp_id);
    body.put_u16(static_cast<std::uint16_t>(view_name.size()));
    body.put_string(view_name);
    body.put_u16(static_cast<std::uint16_t>(rib.peers().size()));
    for (const auto& peer : rib.peers()) {
      const bool v6 = peer.address.is_v6();
      // Bit 0: address family; bit 1: 4-byte AS number.
      body.put_u8(static_cast<std::uint8_t>((v6 ? 0x01 : 0x00) | 0x02));
      body.put_u32(peer.bgp_id);
      body.put_bytes(std::span<const std::uint8_t>(peer.address.bytes().data(),
                                                   v6 ? 16 : 4));
      body.put_u32(peer.asn.value());
    }
    write_record(out, Record{timestamp, kTypeTableDumpV2, kSubtypePeerIndexTable,
                             std::move(body).take()});
  }

  // One RIB record per prefix.
  std::uint32_t sequence = 0;
  rib.visit([&](const net::Prefix& prefix, const std::vector<RibEntry>& entries) {
    util::ByteWriter body;
    body.put_u32(sequence++);
    body.put_u8(static_cast<std::uint8_t>(prefix.length()));
    body.put_bytes(std::span<const std::uint8_t>(prefix.address().bytes().data(),
                                                 prefix_byte_count(prefix.length())));
    body.put_u16(static_cast<std::uint16_t>(entries.size()));
    for (const auto& entry : entries) {
      body.put_u16(entry.peer_index);
      body.put_u32(entry.originated_at);
      const util::Bytes attrs = encode_attributes(entry);
      body.put_u16(static_cast<std::uint16_t>(attrs.size()));
      body.put_bytes(attrs);
    }
    write_record(out, Record{timestamp, kTypeTableDumpV2,
                             prefix.is_v4() ? kSubtypeRibIpv4Unicast
                                            : kSubtypeRibIpv6Unicast,
                             std::move(body).take()});
  });

  return std::move(out).take();
}

util::Result<Rib> read_table_dump(std::span<const std::uint8_t> data,
                                  ParseStats* stats, obs::Registry* registry,
                                  exec::ThreadPool* pool) {
  obs::Span parse_span(registry, "mrt.parse");

  // Pass 1 — serial boundary scan: headers only, bodies stay zero-copy
  // views into `data`.
  std::vector<RawRecord> records;
  std::optional<util::Error> scan_error;
  {
    util::ByteReader reader(data);
    while (!reader.at_end()) {
      auto rec = scan_record(reader);
      if (!rec.ok()) {
        scan_error = rec.error();
        break;
      }
      records.push_back(rec.value());
    }
  }

  // Pass 2 — serial control walk: peer-index handling and the record
  // sequencing rules, which inherently depend on stream order.
  Rib rib;
  bool saw_peer_index = false;
  std::vector<std::size_t> rib_records;      // indices into `records`
  std::optional<std::size_t> error_record;   // first failing record
  util::Error first_error;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const RawRecord& rec = records[i];
    if (rec.type != kTypeTableDumpV2) continue;  // tolerate foreign records
    if (rec.subtype == kSubtypePeerIndexTable) {
      if (saw_peer_index) {
        error_record = i;
        first_error = util::Err("mrt: duplicate PEER_INDEX_TABLE");
        break;
      }
      saw_peer_index = true;
      if (auto parsed = parse_peer_index(rec.body, rib); !parsed.ok()) {
        error_record = i;
        first_error = parsed.error();
        break;
      }
      continue;
    }
    if (rec.subtype != kSubtypeRibIpv4Unicast &&
        rec.subtype != kSubtypeRibIpv6Unicast) {
      continue;  // unhandled subtype
    }
    if (!saw_peer_index) {
      error_record = i;
      first_error = util::Err("mrt: RIB record before PEER_INDEX_TABLE");
      break;
    }
    rib_records.push_back(i);
  }

  // Pass 3 — decode RIB records into pre-sized per-record slots, sharded
  // across the pool when one is given. Decoding is pure per-record work;
  // everything order-dependent already happened above.
  std::vector<DecodedRib> decoded(rib_records.size());
  const std::size_t peer_count = rib.peers().size();
  const auto decode_one = [&](std::size_t j) {
    if (auto r = decode_rib_record_into(records[rib_records[j]], peer_count,
                                        decoded[j]);
        !r.ok()) {
      decoded[j].error = r.error();
    }
  };
  if (pool != nullptr && rib_records.size() > 1) {
    exec::parallel_for_shards(
        *pool, rib_records.size(), pool->size() * kShardsPerWorker,
        [&](std::size_t, std::size_t begin, std::size_t end) {
          for (std::size_t j = begin; j < end; ++j) decode_one(j);
        });
  } else {
    for (std::size_t j = 0; j < rib_records.size(); ++j) decode_one(j);
  }

  // The serial parser stops at its first error in stream order; reproduce
  // that cut-off when attributing stats and picking the returned error.
  // (rib_records is in stream order and only holds indices before any walk
  // error, so the first decode error — if any — is the earliest overall.)
  for (std::size_t j = 0; j < decoded.size(); ++j) {
    if (!decoded[j].error.has_value()) continue;
    error_record = rib_records[j];
    first_error = *decoded[j].error;
    break;
  }

  // Pass 4 — fold stats and entries in record order. A serial run counts
  // every record up to and including the failing one, full stats for the
  // records before it, and the failing record's partial progress.
  ParseStats delta;
  delta.records = error_record.has_value()
                      ? static_cast<std::uint64_t>(*error_record) + 1
                      : static_cast<std::uint64_t>(records.size());
  std::uint64_t insert_ns = 0;  // trie-insertion time, summed across entries
  for (std::size_t j = 0; j < decoded.size(); ++j) {
    if (error_record.has_value() && rib_records[j] > *error_record) break;
    delta.merge(decoded[j].stats);
    if (error_record.has_value()) continue;  // rib is discarded on error
    for (auto& entry : decoded[j].entries) {
      if (registry != nullptr) {
        const auto insert_start = std::chrono::steady_clock::now();
        rib.add(std::move(entry));
        insert_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - insert_start)
                .count());
      } else {
        rib.add(std::move(entry));
      }
    }
  }
  if (stats != nullptr) stats->merge(delta);

  if (error_record.has_value()) return first_error;
  if (scan_error.has_value()) return *scan_error;

  if (registry != nullptr) {
    obs::record_duration_ns(registry, "rib_insert", insert_ns);
    if (stats != nullptr) stats->publish(*registry);
  }
  return rib;
}

}  // namespace ripki::bgp::mrt
