// The serve layer's request mixes, oracle rendering, and socket-free
// probes, shared by the serve workloads and by churn's traced run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/dataset.hpp"
#include "net/asn.hpp"
#include "net/ip.hpp"
#include "net/prefix.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"

namespace perfbench {

enum Endpoint : std::uint8_t { kDomain, kIp, kPrefix, kSummary, kEndpointCount };

/// One request of a traffic mix, with what the oracle needs to render its
/// expected body from any snapshot.
struct Key {
  Endpoint endpoint = kSummary;
  std::string name;
  ripki::net::IpAddress address;
  ripki::net::Prefix prefix;
  ripki::net::Asn origin;
  std::string wire;
};

/// serve_hot's working set: 63 /v1/domain requests spread over the rank
/// axis, plus /v1/summary.
std::vector<Key> hot_keys(const ripki::core::Dataset& dataset);

/// serve_churn's mix, seeded and uniform over every row: 80% domain, 10%
/// ip, 10% prefix.
std::vector<Key> churn_keys(const ripki::core::Dataset& dataset, std::uint64_t seed);

/// "GET <target> HTTP/1.1", for messages.
std::string request_line(const Key& key);

/// The expected body of `key` served from `snapshot`: the oracle.
std::string render(const ripki::serve::Snapshot& snapshot, const Key& key);

struct RequestPathProbe {
  double handle_p50_us = 0.0;
  /// Traced over untraced median handle time, in percent.
  double overhead_pct = 0.0;
};

/// Socket-free probes of the request path on `service` (started or not)
/// over the first keys, in rounds alternately traced and untraced: each
/// round publishes the served snapshot again (clearing the response
/// cache), then runs RequestParser::feed and QueryService::handle over the
/// keys twice — a miss pass and a hit pass. Checks every body against the
/// oracle. Reports serve.parse_us_p50, serve.handle_us_p50/p99 (hit
/// path), serve.handle_miss_us_p50 and serve.publish_us.
RequestPathProbe probe_request_path(ripki::serve::QueryService& service,
                                    const std::vector<Key>& keys, Tracer& tracer,
                                    Result& result);

/// Render cost per endpoint (render_domain_json, ip_json, prefix_json)
/// against `snapshot`: serve.render_<endpoint>_us_p50/p99.
void probe_render(const ripki::serve::Snapshot& snapshot,
                  const std::vector<Key>& keys, Tracer& tracer, Result& result);

}  // namespace perfbench
