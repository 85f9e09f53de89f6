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

void StubResolver::prepare_query(const DnsName& name, RecordType type) {
  query_.id = next_id_++;
  query_.questions.resize(1);
  query_.questions.front().name = name;
  query_.questions.front().type = type;
  ++queries_sent_;
  if (queries_counter_ != nullptr) queries_counter_->inc();
  encode_into(query_, query_wire_);
}

util::Result<void> StubResolver::resolve_into(const DnsName& name, RecordType type,
                                              Resolution& out) {
  out.addresses.clear();
  out.rcode = Rcode::kNoError;
  // The chain is written over the names an earlier resolution left, and
  // trimmed to its length on every return.
  std::vector<DnsName>& chain = out.chain;
  if (chain.empty()) chain.emplace_back();
  chain.front() = name;
  std::size_t hops = 0;

  for (std::size_t depth = 0; depth <= kMaxChainDepth; ++depth) {
    const DnsName& current = chain[hops];
    // UDP first; a TC response triggers a TCP retry (RFC 1035 §4.2.1).
    prepare_query(current, type);
    server_->handle_datagram(query_wire_, server_scratch_, response_wire_);
    if (auto r = decode_into(response_wire_, response_); !r.ok()) return r;
    if (response_.truncated) {
      ++tcp_retries_;
      ++queries_sent_;
      if (tcp_retries_counter_ != nullptr) tcp_retries_counter_->inc();
      if (queries_counter_ != nullptr) queries_counter_->inc();
      server_->handle_stream(query_wire_, server_scratch_, response_wire_);
      if (auto r = decode_into(response_wire_, response_); !r.ok()) return r;
    }

    if (response_.id != query_.id) return util::Err("resolver: response id mismatch");
    if (!response_.is_response) return util::Err("resolver: answer not a response");
    if (response_.rcode != Rcode::kNoError) {
      out.rcode = response_.rcode;
      chain.resize(hops + 1);
      return {};
    }

    const DnsName* next_target = nullptr;
    for (const auto& rr : response_.answers) {
      if (rr.name != current) continue;
      if (rr.type == type) {
        out.addresses.push_back(std::get<net::IpAddress>(rr.rdata));
      } else if (rr.type == RecordType::kCname) {
        next_target = &std::get<DnsName>(rr.rdata);
      }
    }
    if (!out.addresses.empty() || next_target == nullptr) {
      chain.resize(hops + 1);
      return {};
    }

    // Follow the alias; a name repeating in the chain is a loop.
    const auto walked = chain.begin() + static_cast<std::ptrdiff_t>(hops + 1);
    if (std::find(chain.begin(), walked, *next_target) != walked) {
      return util::Err("resolver: CNAME loop at " + next_target->to_string());
    }
    if (++hops == chain.size()) chain.emplace_back();
    chain[hops] = *next_target;
  }
  return util::Err("resolver: CNAME chain exceeds depth limit");
}

util::Result<Resolution> StubResolver::resolve(const DnsName& name, RecordType type) {
  Resolution result;
  if (auto r = resolve_into(name, type, result); !r.ok()) return r.error();
  return result;
}

util::Result<const Message*> StubResolver::query(const DnsName& name, RecordType type) {
  prepare_query(name, type);
  server_->handle_stream(query_wire_, server_scratch_, response_wire_);
  if (auto r = decode_into(response_wire_, response_); !r.ok()) return r.error();
  if (response_.id != query_.id) return util::Err("resolver: response id mismatch");
  return &response_;
}

util::Result<const Resolution*> StubResolver::resolve_all_scratch(
    const DnsName& name) {
  if (auto r = resolve_into(name, RecordType::kA, v4_); !r.ok()) return r.error();
  if (auto r = resolve_into(name, RecordType::kAaaa, v6_); !r.ok()) return r.error();
  const Rcode v4_rcode = v4_.rcode;
  const Rcode v6_rcode = v6_.rcode;

  const bool v4_longer = v4_.chain.size() >= v6_.chain.size();
  Resolution& merged = v4_longer ? v4_ : v6_;
  const Resolution& other = v4_longer ? v6_ : v4_;
  merged.addresses.insert(merged.addresses.end(), other.addresses.begin(),
                          other.addresses.end());
  // NXDOMAIN only if both lookups failed to produce data.
  if (v4_rcode == Rcode::kNoError || v6_rcode == Rcode::kNoError) {
    merged.rcode = Rcode::kNoError;
    if (merged.addresses.empty() && v4_rcode != Rcode::kNoError)
      merged.rcode = v4_rcode;
    if (merged.addresses.empty() && v6_rcode != Rcode::kNoError)
      merged.rcode = v6_rcode;
  }
  if (cname_hops_counter_ != nullptr && merged.cname_hops() > 0) {
    cname_hops_counter_->inc(merged.cname_hops());
  }
  return &merged;
}

util::Result<Resolution> StubResolver::resolve_all(const DnsName& name) {
  RIPKI_TRY_ASSIGN(merged, resolve_all_scratch(name));
  return *merged;
}

}  // namespace ripki::dns
