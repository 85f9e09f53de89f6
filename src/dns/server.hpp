// Authoritative DNS server over a ZoneSource: answers one-question
// queries, adding the CNAME record when the owner name is an alias
// (leaving the chase to the resolver, as authoritative servers that do
// not host the target zone must).
//
// One server instance may be queried concurrently from many threads as
// long as the ZoneSource's lookup is const-thread-safe (the in-memory and
// ecosystem sources are): the handlers are const, each caller brings its
// own Scratch for the decoded query and the response, and the stats
// counters are relaxed atomics. The parallel sweep shares a single server
// view across all workers.
#pragma once

#include <atomic>

#include "dns/zone.hpp"

namespace ripki::dns {

class AuthoritativeServer {
 public:
  /// Classic DNS-over-UDP payload ceiling (RFC 1035 §4.2.1).
  static constexpr std::size_t kUdpPayloadLimit = 512;

  /// `zones` is borrowed and must outlive the server.
  explicit AuthoritativeServer(const ZoneSource* zones) : zones_(zones) {}

  /// One exchange's decoded query and response. The caller owns it and
  /// passes it to every call: the server itself holds no per-query state,
  /// so one server serves many workers, each with its own scratch.
  struct Scratch {
    Message query;
    Message response;
  };

  /// Protocol-level handler: answers `query` into `response`, overwriting
  /// every field and reusing its vectors and name buffers.
  void handle(const Message& query, Message& response) const;
  Message handle(const Message& query) const;

  /// TCP path: decodes `query_bytes` into `scratch.query`, answers into
  /// `scratch.response` and encodes it into `out` (cleared first, capacity
  /// reused). Never truncates. Malformed queries yield a FORMERR response
  /// (never a crash).
  void handle_stream(std::span<const std::uint8_t> query_bytes, Scratch& scratch,
                     util::Bytes& out) const;

  /// UDP path: as handle_stream, but a response larger than
  /// kUdpPayloadLimit is truncated — the answer sections are emptied and TC
  /// is set, telling the client to retry over TCP (RFC 1035 §4.2.1 /
  /// RFC 2181 §9).
  void handle_datagram(std::span<const std::uint8_t> query_bytes, Scratch& scratch,
                       util::Bytes& out) const;

  /// Allocating forms of the wire paths. handle_bytes is handle_stream.
  util::Bytes handle_stream(std::span<const std::uint8_t> query_bytes) const;
  util::Bytes handle_datagram(std::span<const std::uint8_t> query_bytes) const;
  util::Bytes handle_bytes(std::span<const std::uint8_t> query_bytes) const;

  /// Relaxed atomics: increments race-free under concurrent queries, each
  /// field individually consistent (no cross-field snapshot guarantee).
  struct Stats {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> nxdomain{0};
    std::atomic<std::uint64_t> formerr{0};
    std::atomic<std::uint64_t> truncated{0};
  };
  const Stats& stats() const { return stats_; }

 private:
  const ZoneSource* zones_;
  mutable Stats stats_;
};

}  // namespace ripki::dns
