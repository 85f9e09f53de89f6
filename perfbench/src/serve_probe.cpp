#include "serve_probe.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "util/prng.hpp"

namespace perfbench {

using namespace ripki;

namespace {

/// serve_churn's request pool; requests cycle through it.
constexpr std::size_t kChurnKeys = 1 << 16;
constexpr std::array<const char*, kEndpointCount> kRenderSpans = {
    "serve.render_domain", "serve.render_ip", "serve.render_prefix",
    "serve.render_summary"};

std::string get(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: ripki\r\n\r\n";
}

Key domain_key(std::string_view name) {
  Key key;
  key.endpoint = kDomain;
  key.name = std::string(name);
  key.wire = get("/v1/domain/" + key.name);
  return key;
}

}  // namespace

std::vector<Key> hot_keys(const core::Dataset& dataset) {
  std::vector<Key> keys;
  const std::size_t stride = std::max<std::size_t>(1, dataset.size() / 63);
  for (std::size_t i = 0; i < dataset.size() && keys.size() < 63; i += stride) {
    keys.push_back(domain_key(dataset.domains.name(i)));
  }
  Key summary;
  summary.wire = get("/v1/summary");
  keys.push_back(std::move(summary));
  return keys;
}

std::vector<Key> churn_keys(const core::Dataset& dataset, std::uint64_t seed) {
  std::vector<Key> keys;
  keys.reserve(kChurnKeys);
  util::Prng prng(util::hash_combine(seed, 0x5e12e));
  while (keys.size() < kChurnKeys) {
    const std::uint64_t roll = prng.uniform(10);
    std::size_t row = prng.index(dataset.size());
    if (roll < 8) {
      keys.push_back(domain_key(dataset.domains.name(row)));
      continue;
    }
    // Address and prefix requests use a measured (prefix, origin) pair of
    // the row, or of the next row that has one.
    std::span<const core::PrefixAsPair> pairs;
    for (std::size_t probe = 0; probe < dataset.size() && pairs.empty(); ++probe) {
      pairs = dataset[row].primary().pairs;
      if (pairs.empty()) row = (row + 1) % dataset.size();
    }
    if (pairs.empty()) {
      keys.push_back(domain_key(dataset.domains.name(row)));
      continue;
    }
    const core::PrefixAsPair& pair = pairs[prng.index(pairs.size())];
    Key key;
    key.address = pair.prefix.address();
    key.prefix = pair.prefix;
    key.origin = pair.origin;
    if (roll == 8) {
      key.endpoint = kIp;
      key.wire = get("/v1/ip/" + key.address.to_string());
    } else {
      key.endpoint = kPrefix;
      key.wire = get("/v1/prefix/" + key.address.to_string() + "/" +
                     std::to_string(pair.prefix.length()) + "/" +
                     std::to_string(pair.origin.value()));
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

std::string request_line(const Key& key) {
  return key.wire.substr(0, key.wire.find('\r'));
}

std::string render(const serve::Snapshot& snapshot, const Key& key) {
  switch (key.endpoint) {
    case kDomain: {
      const auto record = snapshot.find_domain(key.name);
      return record ? serve::Snapshot::render_domain_json(*record, snapshot.generation())
                    : std::string();
    }
    case kIp:
      return snapshot.ip_json(key.address);
    case kPrefix:
      return snapshot.prefix_json(key.prefix, key.origin);
    default:
      return snapshot.summary_json();
  }
}

RequestPathProbe probe_request_path(serve::QueryService& service,
                                    const std::vector<Key>& keys, Tracer& tracer,
                                    Result& result) {
  const auto snapshot = service.snapshot();
  const std::size_t probes = std::min<std::size_t>(keys.size(), 512);
  std::vector<double> parse_us, hit_us, miss_us, publish_us, traced_us, untraced_us;
  for (int round = 0; round < 8; ++round) {
    const bool traced = round % 2 == 0;
    tracer.set_enabled(traced);
    const auto publish_start = Clock::now();
    service.publish(snapshot);
    publish_us.push_back(us_between(publish_start, Clock::now()));
    for (const bool hit : {false, true}) {
      for (std::size_t i = 0; i < probes; ++i) {
        serve::RequestParser parser;
        const auto start = Clock::now();
        Tracer::Scope parse_span(tracer, "serve.parse", i);
        parser.feed(keys[i].wire);
        parse_span.end();
        const auto parsed = Clock::now();
        const auto request = parser.next();
        if (!request) {
          result.fail(1, "RequestParser rejected " + request_line(keys[i]));
          continue;
        }
        Tracer::Scope handle_span(tracer, hit ? "serve.handle" : "serve.handle_miss", i);
        const serve::HttpResponse response = service.handle(*request);
        handle_span.end();
        const double us = us_between(parsed, Clock::now());
        parse_us.push_back(us_between(start, parsed));
        (hit ? hit_us : miss_us).push_back(us);
        if (hit) (traced ? traced_us : untraced_us).push_back(us);
        if (response.status != 200 ||
            response.body_bytes() != render(*snapshot, keys[i])) {
          result.fail(1, "handle() body differs for " + request_line(keys[i]));
        }
      }
    }
  }
  tracer.set_enabled(true);
  RequestPathProbe probe;
  probe.handle_p50_us = quantile(hit_us, 0.5);
  const double untraced = median(untraced_us);
  probe.overhead_pct = (median(traced_us) - untraced) / untraced * 100.0;
  result.layer("serve.parse_us_p50", quantile(parse_us, 0.5), "us");
  result.layer("serve.handle_us_p50", probe.handle_p50_us, "us");
  result.layer("serve.handle_us_p99", quantile(hit_us, 0.99), "us");
  result.layer("serve.handle_miss_us_p50", quantile(miss_us, 0.5), "us");
  result.layer("serve.publish_us", median(publish_us), "us");
  return probe;
}

void probe_render(const serve::Snapshot& snapshot, const std::vector<Key>& keys,
                  Tracer& tracer, Result& result) {
  std::array<std::vector<double>, kEndpointCount> render_us;
  for (std::size_t i = 0; i < std::min<std::size_t>(keys.size(), 4096); ++i) {
    const Endpoint endpoint = keys[i].endpoint;
    const auto start = Clock::now();
    Tracer::Scope span(tracer, kRenderSpans[endpoint], i);
    const std::string body = render(snapshot, keys[i]);
    span.end();
    render_us[endpoint].push_back(us_between(start, Clock::now()));
  }
  for (const Endpoint endpoint : {kDomain, kIp, kPrefix}) {
    const std::string name = kRenderSpans[endpoint];
    result.layer(name + "_us_p50", quantile(render_us[endpoint], 0.5), "us");
    result.layer(name + "_us_p99", quantile(render_us[endpoint], 0.99), "us");
  }
}

}  // namespace perfbench
