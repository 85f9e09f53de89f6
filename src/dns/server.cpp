#include "dns/server.hpp"

namespace ripki::dns {

namespace {

/// Relaxed bump: the counters are monotonic tallies, not synchronization.
void bump(std::atomic<std::uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t read(const std::atomic<std::uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

}  // namespace

AuthoritativeServer::Stats& AuthoritativeServer::tally() const {
  static std::atomic<std::size_t> next_slot{0};
  thread_local const std::size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed);
  return shards_[slot % kShards].stats;
}

AuthoritativeServer::Stats AuthoritativeServer::stats() const {
  std::uint64_t queries = 0;
  std::uint64_t nxdomain = 0;
  std::uint64_t formerr = 0;
  std::uint64_t truncated = 0;
  for (const Shard& shard : shards_) {
    queries += read(shard.stats.queries);
    nxdomain += read(shard.stats.nxdomain);
    formerr += read(shard.stats.formerr);
    truncated += read(shard.stats.truncated);
  }
  return Stats{queries, nxdomain, formerr, truncated};
}

void AuthoritativeServer::handle(const Message& query, Message& response) const {
  Stats& tally = this->tally();
  bump(tally.queries);
  response.id = query.id;
  response.is_response = true;
  response.authoritative = true;
  response.truncated = false;
  response.recursion_desired = query.recursion_desired;
  response.recursion_available = false;
  response.rcode = Rcode::kNoError;
  response.questions = query.questions;
  response.authority.clear();
  response.additional.clear();

  if (query.questions.size() != 1) {
    response.answers.clear();
    response.rcode = Rcode::kFormErr;
    bump(tally.formerr);
    return;
  }
  const Question& q = query.questions.front();

  // One zone answer: the records of the requested type, or an alias's
  // CNAME for the resolver to follow, written over the answer slots of
  // the scratch's previous response.
  RecordSink answers(response.answers);
  const bool exists = zones_->answer(q.name, q.type, answers);
  answers.trim();
  if (!exists) {
    response.rcode = Rcode::kNxDomain;
    bump(tally.nxdomain);
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
    Stats& tally = this->tally();
    bump(tally.queries);
    bump(tally.formerr);
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
  bump(tally().truncated);
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
