#include "dns/message.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace ripki::dns {

const char* to_string(RecordType type) {
  switch (type) {
    case RecordType::kA: return "A";
    case RecordType::kNs: return "NS";
    case RecordType::kCname: return "CNAME";
    case RecordType::kSoa: return "SOA";
    case RecordType::kTxt: return "TXT";
    case RecordType::kDnskey: return "DNSKEY";
    case RecordType::kAaaa: return "AAAA";
  }
  return "?";
}

ResourceRecord ResourceRecord::a(DnsName name, net::IpAddress addr, std::uint32_t ttl) {
  assert(addr.is_v4());
  return ResourceRecord{std::move(name), RecordType::kA, ttl, addr};
}

ResourceRecord ResourceRecord::aaaa(DnsName name, net::IpAddress addr,
                                    std::uint32_t ttl) {
  assert(addr.is_v6());
  return ResourceRecord{std::move(name), RecordType::kAaaa, ttl, addr};
}

ResourceRecord ResourceRecord::cname(DnsName name, DnsName target, std::uint32_t ttl) {
  return ResourceRecord{std::move(name), RecordType::kCname, ttl, std::move(target)};
}

Message Message::query(std::uint16_t id, DnsName name, RecordType type) {
  Message m;
  m.id = id;
  m.questions.push_back(Question{std::move(name), type});
  return m;
}

namespace {

constexpr std::uint16_t kClassIn = 1;
constexpr std::size_t kHeaderSize = 12;
/// Size of a question's fixed block after its name: type and class.
constexpr std::size_t kQuestionFixed = 4;
/// Size of a record's fixed block after its owner name: type, class, TTL
/// and rdata length (RFC 1035 §4.1.3).
constexpr std::size_t kRecordFixed = 10;
/// Suffixes written at or past this offset stay out of the compression
/// table (a pointer holds a 14-bit offset).
constexpr std::size_t kMaxPointerOffset = 0x3FFF;

/// Compression table: one entry per name suffix written literally so far,
/// holding its message offset and a view of its wire bytes (into the
/// message's own names, which outlive the encode). Lookups compare bytes,
/// and a suffix is added only when no entry matches, so the first writer
/// of a suffix wins. The first entries live inline: typical messages
/// allocate nothing here.
class SuffixTable {
 public:
  /// Offset of the literal copy of `suffix`, or 0 when there is none
  /// (offset 0 is the header, never a name).
  std::size_t find(std::string_view suffix) const {
    const std::size_t inline_count = std::min(size_, kInline);
    for (std::size_t i = 0; i < inline_count; ++i) {
      if (matches(inline_[i], suffix)) return inline_[i].offset;
    }
    for (const Entry& entry : spill_) {
      if (matches(entry, suffix)) return entry.offset;
    }
    return 0;
  }

  void add(std::string_view suffix, std::size_t offset) {
    const Entry entry{suffix.data(), static_cast<std::uint16_t>(suffix.size()),
                      static_cast<std::uint16_t>(offset)};
    if (size_ < kInline) {
      inline_[size_] = entry;
    } else {
      spill_.push_back(entry);
    }
    ++size_;
  }

 private:
  struct Entry {
    const char* bytes;
    std::uint16_t size;
    std::uint16_t offset;
  };
  static constexpr std::size_t kInline = 32;

  static bool matches(const Entry& entry, std::string_view suffix) {
    return entry.size == suffix.size() &&
           std::memcmp(entry.bytes, suffix.data(), entry.size) == 0;
  }

  Entry inline_[kInline];
  std::vector<Entry> spill_;
  std::size_t size_ = 0;
};

void write_name(util::ByteWriter& w, const DnsName& name, SuffixTable& table) {
  // The labels before the longest suffix already written go out
  // literally, each of their suffixes entering the table at its offset;
  // then a pointer to that suffix, or the root byte when there is none.
  // The suffixes may enter after the search because no suffix of a name
  // can match another suffix of the same name.
  const std::string_view wire = name.wire();
  std::size_t literal = 0;
  std::size_t pointer = 0;
  while (literal < wire.size() && (pointer = table.find(wire.substr(literal))) == 0)
    literal += 1 + static_cast<std::uint8_t>(wire[literal]);
  const std::size_t start = w.size();
  for (std::size_t at = 0; at < literal && start + at < kMaxPointerOffset;
       at += 1 + static_cast<std::uint8_t>(wire[at]))
    table.add(wire.substr(at), start + at);
  std::uint8_t* out = w.grow(literal + (pointer != 0 ? 2 : 1));
  std::memcpy(out, wire.data(), literal);
  if (pointer != 0) {
    util::store_u16(out + literal, static_cast<std::uint16_t>(0xC000 | pointer));
  } else {
    out[literal] = 0;  // root
  }
}

/// Element `i` of a section being decoded in place: the element an earlier
/// decode left there (its buffers reused), or a fresh one appended.
template <typename T>
T& slot(std::vector<T>& section, std::size_t i) {
  if (i == section.size()) section.emplace_back();
  return section[i];
}

/// The rdata alternative `T`, reusing the one already held.
template <typename T>
T& rdata_as(Rdata& rdata) {
  if (T* held = std::get_if<T>(&rdata)) return *held;
  return rdata.emplace<T>();
}

void write_record(util::ByteWriter& w, const ResourceRecord& rr, SuffixTable& table) {
  write_name(w, rr.name, table);
  std::uint8_t* fixed = w.grow(kRecordFixed);
  util::store_u16(fixed, static_cast<std::uint16_t>(rr.type));
  util::store_u16(fixed + 2, kClassIn);
  util::store_u32(fixed + 4, rr.ttl);
  util::store_u16(fixed + 8, 0);  // rdata length, back-patched
  const std::size_t rdlength_at = w.size() - 2;
  const std::size_t rdata_start = w.size();

  switch (rr.type) {
    case RecordType::kA: {
      const auto& addr = std::get<net::IpAddress>(rr.rdata);
      w.put_bytes(std::span<const std::uint8_t>(addr.bytes().data(), 4));
      break;
    }
    case RecordType::kAaaa: {
      const auto& addr = std::get<net::IpAddress>(rr.rdata);
      w.put_bytes(std::span<const std::uint8_t>(addr.bytes().data(), 16));
      break;
    }
    case RecordType::kCname:
    case RecordType::kNs:
      write_name(w, std::get<DnsName>(rr.rdata), table);
      break;
    case RecordType::kSoa: {
      const auto& soa = std::get<SoaData>(rr.rdata);
      write_name(w, soa.mname, table);
      write_name(w, soa.rname, table);
      w.put_u32(soa.serial);
      w.put_u32(soa.refresh);
      w.put_u32(soa.retry);
      w.put_u32(soa.expire);
      w.put_u32(soa.minimum);
      break;
    }
    case RecordType::kTxt: {
      const auto& text = std::get<std::string>(rr.rdata);
      const std::size_t n = std::min<std::size_t>(text.size(), 255);
      w.put_u8(static_cast<std::uint8_t>(n));
      w.put_string(std::string_view(text).substr(0, n));
      break;
    }
    case RecordType::kDnskey: {
      const auto& key = std::get<DnskeyData>(rr.rdata);
      w.put_u16(key.flags);
      w.put_u8(key.protocol);
      w.put_u8(key.algorithm);
      w.put_string(key.public_key);
      break;
    }
  }
  w.patch_u16(rdlength_at, static_cast<std::uint16_t>(w.size() - rdata_start));
}

/// The error of a record whose fixed block is cut short to `remaining`
/// bytes: that of the first field that does not fit, unless a class before
/// it is wrong.
util::Error short_record_block(const std::uint8_t* fixed, std::size_t remaining) {
  if (remaining < 4) return util::Err("byte reader: truncated u16");
  if (util::load_u16(fixed + 2) != kClassIn) return util::Err("dns: unsupported class");
  return util::Err(remaining < 8 ? "byte reader: truncated u32"
                                 : "byte reader: truncated u16");
}

util::Result<void> read_record(std::span<const std::uint8_t> data, std::size_t& pos,
                               ResourceRecord& rr) {
  if (auto r = rr.name.read_wire(data, pos); !r.ok()) return r;

  const std::uint8_t* fixed = data.data() + pos;
  if (data.size() - pos < kRecordFixed) return short_record_block(fixed, data.size() - pos);
  const std::uint16_t type_raw = util::load_u16(fixed);
  if (util::load_u16(fixed + 2) != kClassIn) return util::Err("dns: unsupported class");
  rr.ttl = util::load_u32(fixed + 4);
  const std::uint16_t rdlength = util::load_u16(fixed + 8);
  const std::size_t rdata_start = pos + kRecordFixed;
  if (data.size() - rdata_start < rdlength) return util::Err("dns: truncated rdata");
  const std::size_t rdata_end = rdata_start + rdlength;
  util::ByteReader reader(data);
  if (auto r = reader.seek(rdata_start); !r.ok()) return r;

  rr.type = static_cast<RecordType>(type_raw);
  switch (rr.type) {
    case RecordType::kA: {
      if (rdlength != 4) return util::Err("dns: bad A rdata length");
      const std::uint8_t* raw = data.data() + rdata_start;
      rr.rdata = net::IpAddress::v4(raw[0], raw[1], raw[2], raw[3]);
      break;
    }
    case RecordType::kAaaa: {
      if (rdlength != 16) return util::Err("dns: bad AAAA rdata length");
      std::array<std::uint8_t, 16> addr;
      std::copy_n(data.data() + rdata_start, addr.size(), addr.begin());
      rr.rdata = net::IpAddress::v6(addr);
      break;
    }
    case RecordType::kCname:
    case RecordType::kNs: {
      std::size_t name_pos = rdata_start;
      if (auto r = rdata_as<DnsName>(rr.rdata).read_wire(data, name_pos); !r.ok())
        return r;
      if (name_pos != rdata_end) return util::Err("dns: bad name rdata length");
      break;
    }
    case RecordType::kSoa: {
      std::size_t soa_pos = rdata_start;
      SoaData& soa = rdata_as<SoaData>(rr.rdata);
      if (auto r = soa.mname.read_wire(data, soa_pos); !r.ok()) return r;
      if (auto r = soa.rname.read_wire(data, soa_pos); !r.ok()) return r;
      util::ByteReader ints(data);
      if (auto r = ints.seek(soa_pos); !r.ok()) return r;
      RIPKI_TRY_ASSIGN(serial, ints.u32());
      soa.serial = serial;
      RIPKI_TRY_ASSIGN(refresh, ints.u32());
      soa.refresh = refresh;
      RIPKI_TRY_ASSIGN(retry, ints.u32());
      soa.retry = retry;
      RIPKI_TRY_ASSIGN(expire, ints.u32());
      soa.expire = expire;
      RIPKI_TRY_ASSIGN(minimum, ints.u32());
      soa.minimum = minimum;
      if (ints.position() != rdata_end) return util::Err("dns: bad SOA rdata length");
      break;
    }
    case RecordType::kTxt: {
      RIPKI_TRY_ASSIGN(len, reader.u8());
      if (1 + static_cast<std::size_t>(len) != rdlength)
        return util::Err("dns: bad TXT rdata length");
      RIPKI_TRY_ASSIGN(text, reader.view(len));
      rdata_as<std::string>(rr.rdata).assign(text.begin(), text.end());
      break;
    }
    case RecordType::kDnskey: {
      if (rdlength < 4) return util::Err("dns: bad DNSKEY rdata length");
      DnskeyData& key = rdata_as<DnskeyData>(rr.rdata);
      RIPKI_TRY_ASSIGN(flags, reader.u16());
      key.flags = flags;
      RIPKI_TRY_ASSIGN(protocol, reader.u8());
      key.protocol = protocol;
      RIPKI_TRY_ASSIGN(algorithm, reader.u8());
      key.algorithm = algorithm;
      RIPKI_TRY_ASSIGN(blob, reader.view(rdlength - 4));
      key.public_key.assign(blob.begin(), blob.end());
      break;
    }
    default:
      return util::Err("dns: unsupported record type " + std::to_string(type_raw));
  }

  pos = rdata_end;
  return {};
}

/// Decodes `count` records into `section`, reusing its elements.
util::Result<void> read_section(std::span<const std::uint8_t> data, std::size_t& pos,
                                std::uint16_t count,
                                std::vector<ResourceRecord>& section) {
  for (std::uint16_t i = 0; i < count; ++i) {
    if (auto r = read_record(data, pos, slot(section, i)); !r.ok()) return r;
  }
  section.resize(count);
  return {};
}

}  // namespace

util::Bytes encode(const Message& message) {
  util::Bytes out;
  encode_into(message, out);
  return out;
}

void encode_into(const Message& message, util::Bytes& out) {
  util::ByteWriter w(std::move(out));
  SuffixTable table;

  std::uint16_t flags = 0;
  if (message.is_response) flags |= 0x8000;
  if (message.authoritative) flags |= 0x0400;
  if (message.truncated) flags |= 0x0200;
  if (message.recursion_desired) flags |= 0x0100;
  if (message.recursion_available) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(message.rcode);
  std::uint8_t* header = w.grow(kHeaderSize);
  util::store_u16(header, message.id);
  util::store_u16(header + 2, flags);
  util::store_u16(header + 4, static_cast<std::uint16_t>(message.questions.size()));
  util::store_u16(header + 6, static_cast<std::uint16_t>(message.answers.size()));
  util::store_u16(header + 8, static_cast<std::uint16_t>(message.authority.size()));
  util::store_u16(header + 10, static_cast<std::uint16_t>(message.additional.size()));

  for (const auto& q : message.questions) {
    write_name(w, q.name, table);
    std::uint8_t* fixed = w.grow(kQuestionFixed);
    util::store_u16(fixed, static_cast<std::uint16_t>(q.type));
    util::store_u16(fixed + 2, kClassIn);
  }
  for (const auto& rr : message.answers) write_record(w, rr, table);
  for (const auto& rr : message.authority) write_record(w, rr, table);
  for (const auto& rr : message.additional) write_record(w, rr, table);
  out = std::move(w).take();
}

util::Result<Message> decode(std::span<const std::uint8_t> data) {
  Message m;
  if (auto r = decode_into(data, m); !r.ok()) return r.error();
  return m;
}

util::Result<void> decode_into(std::span<const std::uint8_t> data, Message& m) {
  // Every header field is a u16, so a short header fails as its first
  // field that does not fit would.
  if (data.size() < kHeaderSize) return util::Err("byte reader: truncated u16");
  const std::uint8_t* header = data.data();
  m.id = util::load_u16(header);
  const std::uint16_t flags = util::load_u16(header + 2);
  m.is_response = (flags & 0x8000) != 0;
  m.authoritative = (flags & 0x0400) != 0;
  m.truncated = (flags & 0x0200) != 0;
  m.recursion_desired = (flags & 0x0100) != 0;
  m.recursion_available = (flags & 0x0080) != 0;
  m.rcode = static_cast<Rcode>(flags & 0x000F);
  const std::uint16_t qdcount = util::load_u16(header + 4);
  const std::uint16_t ancount = util::load_u16(header + 6);
  const std::uint16_t nscount = util::load_u16(header + 8);
  const std::uint16_t arcount = util::load_u16(header + 10);

  std::size_t pos = kHeaderSize;
  for (std::uint16_t i = 0; i < qdcount; ++i) {
    Question& q = slot(m.questions, i);
    if (auto r = q.name.read_wire(data, pos); !r.ok()) return r;
    // A cut-short block fails as its first u16 that does not fit (the
    // class check needs the whole block).
    if (data.size() - pos < kQuestionFixed) return util::Err("byte reader: truncated u16");
    const std::uint8_t* fixed = data.data() + pos;
    if (util::load_u16(fixed + 2) != kClassIn)
      return util::Err("dns: unsupported question class");
    q.type = static_cast<RecordType>(util::load_u16(fixed));
    pos += kQuestionFixed;
  }
  m.questions.resize(qdcount);
  if (auto r = read_section(data, pos, ancount, m.answers); !r.ok()) return r;
  if (auto r = read_section(data, pos, nscount, m.authority); !r.ok()) return r;
  if (auto r = read_section(data, pos, arcount, m.additional); !r.ok()) return r;
  if (pos != data.size()) return util::Err("dns: trailing bytes in message");
  return {};
}

}  // namespace ripki::dns
