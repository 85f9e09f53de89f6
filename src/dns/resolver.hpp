// Stub resolver with CNAME chasing — the measurement's step-2 client
// ("using Google DNS, we collect all A, AAAA, and CNAME records").
//
// Every lookup goes through wire bytes against an AuthoritativeServer, and
// CNAME chains are followed hop by hop with loop and depth protection.
// The full chain is preserved: the CDN classifier of §4.3 counts the
// number of CNAME indirections per domain.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dns/server.hpp"
#include "obs/metrics.hpp"

namespace ripki::dns {

/// Result of resolving one (name, address family) pair.
struct Resolution {
  /// CNAME chain in traversal order, starting at the queried name
  /// (www.huffingtonpost.com -> ...edgesuite.net -> a495.g.akamai.net).
  std::vector<DnsName> chain;
  std::vector<net::IpAddress> addresses;
  Rcode rcode = Rcode::kNoError;

  /// Number of CNAME indirections (chain hops past the original name).
  std::size_t cname_hops() const { return chain.empty() ? 0 : chain.size() - 1; }
};

class StubResolver {
 public:
  static constexpr std::size_t kMaxChainDepth = 16;

  /// `server` is borrowed; it is the recursive vantage being queried.
  explicit StubResolver(const AuthoritativeServer* server) : server_(server) {}

  /// Attaches a metrics registry (nullptr detaches): query/retry/CNAME
  /// counters go to `ripki.dns.*`. Handles are cached here so the
  /// per-query hot path only touches pre-resolved atomics. The resolver
  /// opens no span: its caller times it (the kernel's `stage2.dns`).
  void attach(obs::Registry* registry);

  /// Resolves A (v4) or AAAA (v6) records for `name`, chasing CNAMEs.
  util::Result<Resolution> resolve(const DnsName& name, RecordType type);

  /// Resolves both A and AAAA; merges addresses, keeps the longer chain.
  util::Result<Resolution> resolve_all(const DnsName& name);

  /// One raw query/response exchange without CNAME chasing — used for
  /// non-address record types (e.g. the DNSKEY probe of the DNSSEC
  /// adoption study). The response is this resolver's scratch: it stays
  /// valid until the resolver's next query.
  util::Result<const Message*> query(const DnsName& name, RecordType type);

  std::uint64_t queries_sent() const { return queries_sent_; }
  /// Truncated-UDP responses retried over TCP.
  std::uint64_t tcp_retries() const { return tcp_retries_; }

 private:
  /// Fills the query scratch with a fresh id and one question, counts it
  /// and encodes it into query_wire_.
  void prepare_query(const DnsName& name, RecordType type);

  const AuthoritativeServer* server_;
  std::uint64_t queries_sent_ = 0;
  std::uint64_t tcp_retries_ = 0;
  std::uint16_t next_id_ = 1;

  /// Per-resolver scratch, reused across every query of a sweep (the
  /// DNSKEY probe included), so the steady-state wire path reuses message
  /// vectors, name buffers and byte buffers instead of allocating them.
  /// Each worker owns its resolver, so nothing here is shared; the
  /// server's half of the exchange runs in server_scratch_.
  Message query_;
  util::Bytes query_wire_;
  AuthoritativeServer::Scratch server_scratch_;
  util::Bytes response_wire_;
  Message response_;

  obs::Counter* queries_counter_ = nullptr;
  obs::Counter* tcp_retries_counter_ = nullptr;
  obs::Counter* cname_hops_counter_ = nullptr;
};

}  // namespace ripki::dns
