// DNS message wire codec (RFC 1035 §4) with name compression.
//
// The pipeline's resolver and authoritative server exchange genuine DNS
// packets (header, question, resource records, compression pointers), so
// methodology step 2 runs over the same encode/parse work a live
// measurement against Google DNS / OpenDNS performs.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "dns/name.hpp"
#include "net/ip.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ripki::dns {

enum class RecordType : std::uint16_t {
  kA = 1,
  kNs = 2,
  kCname = 5,
  kSoa = 6,
  kTxt = 16,
  kAaaa = 28,
  kDnskey = 48,
};

const char* to_string(RecordType type);

enum class Rcode : std::uint8_t {
  kNoError = 0,
  kFormErr = 1,
  kServFail = 2,
  kNxDomain = 3,
  kNotImp = 4,
  kRefused = 5,
};

struct SoaData {
  DnsName mname;
  DnsName rname;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 0;
  std::uint32_t retry = 0;
  std::uint32_t expire = 0;
  std::uint32_t minimum = 0;
  bool operator==(const SoaData&) const = default;
};

/// DNSKEY rdata (RFC 4034 §2): the zone-signing evidence the pipeline's
/// DNSSEC-adoption probe looks for.
struct DnskeyData {
  std::uint16_t flags = 256;    // zone key
  std::uint8_t protocol = 3;    // fixed by RFC 4034
  std::uint8_t algorithm = 8;   // RSASHA256
  std::string public_key;       // opaque key bytes
  bool operator==(const DnskeyData&) const = default;
};

/// Typed rdata. A/AAAA carry addresses, CNAME/NS carry names, TXT text.
using Rdata =
    std::variant<net::IpAddress, DnsName, SoaData, std::string, DnskeyData>;

struct ResourceRecord {
  DnsName name;
  RecordType type = RecordType::kA;
  std::uint32_t ttl = 300;
  Rdata rdata;

  static ResourceRecord a(DnsName name, net::IpAddress addr, std::uint32_t ttl = 300);
  static ResourceRecord aaaa(DnsName name, net::IpAddress addr, std::uint32_t ttl = 300);
  static ResourceRecord cname(DnsName name, DnsName target, std::uint32_t ttl = 300);

  bool operator==(const ResourceRecord&) const = default;
};

struct Question {
  DnsName name;
  RecordType type = RecordType::kA;
  bool operator==(const Question&) const = default;
};

struct Message {
  std::uint16_t id = 0;
  bool is_response = false;
  bool authoritative = false;
  bool truncated = false;  // TC: response did not fit the UDP payload limit
  bool recursion_desired = true;
  bool recursion_available = false;
  Rcode rcode = Rcode::kNoError;

  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authority;
  std::vector<ResourceRecord> additional;

  /// Convenience constructor for a one-question query.
  static Message query(std::uint16_t id, DnsName name, RecordType type);

  bool operator==(const Message&) const = default;
};

/// Encodes with RFC 1035 §4.1.4 name compression: every repeated name
/// suffix becomes a 2-byte pointer to its first literal copy, found by
/// comparing wire bytes.
util::Bytes encode(const Message& message);

/// Encodes into `out` (cleared first, capacity reused) — the allocation-
/// free steady-state path for query loops with per-worker scratch.
void encode_into(const Message& message, util::Bytes& out);

/// Strict decoder: rejects truncation, compression loops and
/// forward-pointing compression offsets.
util::Result<Message> decode(std::span<const std::uint8_t> data);

/// decode() into `message`, reusing its section vectors, records and name
/// buffers from an earlier decode — the allocation-free steady-state path
/// for query loops with per-worker scratch. Every field is overwritten on
/// success; on failure the contents are unspecified.
util::Result<void> decode_into(std::span<const std::uint8_t> data, Message& message);

}  // namespace ripki::dns
