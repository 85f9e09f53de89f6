#include "dns/server.hpp"

namespace ripki::dns {

namespace {

/// Relaxed bump: the counters are monotonic tallies, not synchronization.
void bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void AuthoritativeServer::handle(const Message& query, Message& response) const {
  bump(stats_.queries);
  response.id = query.id;
  response.is_response = true;
  response.authoritative = true;
  response.truncated = false;
  response.recursion_desired = query.recursion_desired;
  response.recursion_available = false;
  response.rcode = Rcode::kNoError;
  response.questions = query.questions;
  response.answers.clear();
  response.authority.clear();
  response.additional.clear();

  if (query.questions.size() != 1) {
    response.rcode = Rcode::kFormErr;
    bump(stats_.formerr);
    return;
  }
  const Question& q = query.questions.front();

  // Direct records for the requested type.
  zones_->lookup(q.name, q.type, response.answers);
  if (!response.answers.empty()) return;

  // Alias: include the CNAME and let the resolver follow it.
  if (q.type != RecordType::kCname) {
    zones_->lookup(q.name, RecordType::kCname, response.answers);
    if (!response.answers.empty()) return;
  }

  if (!zones_->name_exists(q.name)) {
    response.rcode = Rcode::kNxDomain;
    bump(stats_.nxdomain);
  }
  // Name exists but no data of this type: NOERROR with empty answer.
}

Message AuthoritativeServer::handle(const Message& query) const {
  Message response;
  handle(query, response);
  return response;
}

void AuthoritativeServer::handle_stream(std::span<const std::uint8_t> query_bytes,
                                        Scratch& scratch, util::Bytes& out) const {
  if (decode_into(query_bytes, scratch.query).ok()) {
    handle(scratch.query, scratch.response);
  } else {
    bump(stats_.queries);
    bump(stats_.formerr);
    scratch.response = Message{};
    scratch.response.is_response = true;
    scratch.response.rcode = Rcode::kFormErr;
  }
  encode_into(scratch.response, out);
}

void AuthoritativeServer::handle_datagram(std::span<const std::uint8_t> query_bytes,
                                          Scratch& scratch, util::Bytes& out) const {
  handle_stream(query_bytes, scratch, out);
  if (out.size() <= kUdpPayloadLimit) return;
  // Truncate: drop the answer sections, flag TC, let the client retry
  // over TCP.
  Message& response = scratch.response;
  response.answers.clear();
  response.authority.clear();
  response.additional.clear();
  response.truncated = true;
  bump(stats_.truncated);
  encode_into(response, out);
}

util::Bytes AuthoritativeServer::handle_stream(
    std::span<const std::uint8_t> query_bytes) const {
  Scratch scratch;
  util::Bytes out;
  handle_stream(query_bytes, scratch, out);
  return out;
}

util::Bytes AuthoritativeServer::handle_datagram(
    std::span<const std::uint8_t> query_bytes) const {
  Scratch scratch;
  util::Bytes out;
  handle_datagram(query_bytes, scratch, out);
  return out;
}

util::Bytes AuthoritativeServer::handle_bytes(
    std::span<const std::uint8_t> query_bytes) const {
  return handle_stream(query_bytes);
}

}  // namespace ripki::dns
