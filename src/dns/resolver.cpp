#include "dns/resolver.hpp"

#include <algorithm>

namespace ripki::dns {

void StubResolver::attach(obs::Registry* registry) {
  if (registry == nullptr) {
    queries_counter_ = nullptr;
    tcp_retries_counter_ = nullptr;
    cname_hops_counter_ = nullptr;
    return;
  }
  queries_counter_ = &registry->counter("ripki.dns.queries");
  tcp_retries_counter_ = &registry->counter("ripki.dns.tcp_retries");
  cname_hops_counter_ = &registry->counter("ripki.dns.cname_hops");
  registry->describe("ripki.dns.queries",
                     "DNS queries sent by the stub resolver (UDP and TCP "
                     "retries both count)");
  registry->describe("ripki.dns.tcp_retries",
                     "Queries retried over TCP after a truncated UDP "
                     "response (RFC 1035 §4.2.1)");
  registry->describe("ripki.dns.cname_hops",
                     "CNAME links followed while chasing resolution chains");
}

util::Result<Resolution> StubResolver::resolve(const DnsName& name, RecordType type) {
  Resolution result;
  DnsName current = name;
  result.chain.push_back(current);

  for (std::size_t depth = 0; depth <= kMaxChainDepth; ++depth) {
    const Message query = Message::query(next_id_++, current, type);
    ++queries_sent_;
    if (queries_counter_ != nullptr) queries_counter_->inc();
    // UDP first; a TC response triggers a TCP retry (RFC 1035 §4.2.1).
    // Wire bytes go through the member scratch buffers, so the
    // steady-state exchange reuses their capacity instead of allocating.
    encode_into(query, query_wire_);
    server_->handle_datagram(query_wire_, response_wire_);
    RIPKI_TRY_ASSIGN(first, decode(response_wire_));
    Message response = std::move(first);
    if (response.truncated) {
      ++tcp_retries_;
      ++queries_sent_;
      if (tcp_retries_counter_ != nullptr) tcp_retries_counter_->inc();
      if (queries_counter_ != nullptr) queries_counter_->inc();
      server_->handle_stream(query_wire_, response_wire_);
      RIPKI_TRY_ASSIGN(full, decode(response_wire_));
      response = std::move(full);
    }

    if (response.id != query.id) return util::Err("resolver: response id mismatch");
    if (!response.is_response) return util::Err("resolver: answer not a response");
    if (response.rcode != Rcode::kNoError) {
      result.rcode = response.rcode;
      return result;
    }

    const DnsName* next_target = nullptr;
    for (const auto& rr : response.answers) {
      if (rr.name != current) continue;
      if (rr.type == type) {
        result.addresses.push_back(std::get<net::IpAddress>(rr.rdata));
      } else if (rr.type == RecordType::kCname) {
        next_target = &std::get<DnsName>(rr.rdata);
      }
    }
    if (!result.addresses.empty() || next_target == nullptr) return result;

    // Follow the alias; a name repeating in the chain is a loop.
    if (std::find(result.chain.begin(), result.chain.end(), *next_target) !=
        result.chain.end()) {
      return util::Err("resolver: CNAME loop at " + next_target->to_string());
    }
    current = *next_target;
    result.chain.push_back(current);
  }
  return util::Err("resolver: CNAME chain exceeds depth limit");
}

util::Result<Message> StubResolver::query(const DnsName& name, RecordType type) {
  const Message message = Message::query(next_id_++, name, type);
  ++queries_sent_;
  if (queries_counter_ != nullptr) queries_counter_->inc();
  encode_into(message, query_wire_);
  server_->handle_stream(query_wire_, response_wire_);
  RIPKI_TRY_ASSIGN(response, decode(response_wire_));
  if (response.id != message.id) return util::Err("resolver: response id mismatch");
  return response;
}

util::Result<Resolution> StubResolver::resolve_all(const DnsName& name) {
  RIPKI_TRY_ASSIGN(v4, resolve(name, RecordType::kA));
  RIPKI_TRY_ASSIGN(v6, resolve(name, RecordType::kAaaa));

  Resolution merged = v4.chain.size() >= v6.chain.size() ? v4 : v6;
  const Resolution& other = v4.chain.size() >= v6.chain.size() ? v6 : v4;
  merged.addresses.insert(merged.addresses.end(), other.addresses.begin(),
                          other.addresses.end());
  // NXDOMAIN only if both lookups failed to produce data.
  if (v4.rcode == Rcode::kNoError || v6.rcode == Rcode::kNoError) {
    merged.rcode = Rcode::kNoError;
    if (merged.addresses.empty() && v4.rcode != Rcode::kNoError)
      merged.rcode = v4.rcode;
    if (merged.addresses.empty() && v6.rcode != Rcode::kNoError)
      merged.rcode = v6.rcode;
  }
  if (cname_hops_counter_ != nullptr && merged.cname_hops() > 0) {
    cname_hops_counter_->inc(merged.cname_hops());
  }
  return merged;
}

}  // namespace ripki::dns
