#include "layers.hpp"

#include "bgp/mrt.hpp"
#include "rpki/origin_validation.hpp"
#include "rpki/validation_cache.hpp"
#include "rpki/validator.hpp"

namespace perfbench {

using namespace ripki;

std::unique_ptr<web::Ecosystem> generate_world(const Config& config,
                                               double& generate_ms) {
  web::EcosystemConfig eco_config;
  eco_config.seed = config.seed;
  eco_config.domain_count = config.domains;
  eco_config.rank_space = config.rank_space;
  const auto start = Clock::now();
  auto eco = web::Ecosystem::generate(eco_config);
  generate_ms = ms_between(start, Clock::now());
  return eco;
}

rpki::VrpSet replay_setup_stages(const web::Ecosystem& eco, Tracer& tracer,
                                 Result& result) {
  const util::Bytes dump = eco.mrt_dump();

  auto start = Clock::now();
  Tracer::Scope parse_span(tracer, "bgp.mrt_parse", 0);
  auto parsed = bgp::mrt::read_table_dump(dump);
  parse_span.end();
  result.layer("bgp.mrt_parse_ms", ms_between(start, Clock::now()), "ms");
  if (!parsed.ok()) {
    result.fail(1, "MRT dump did not parse: " + parsed.error().message);
    return {};
  }
  bgp::Rib rib = std::move(parsed).value();

  start = Clock::now();
  Tracer::Scope freeze_span(tracer, "bgp.rib_freeze", 0);
  rib.freeze();
  freeze_span.end();
  result.layer("bgp.rib_freeze_ms", ms_between(start, Clock::now()), "ms");

  const rpki::RepositoryValidator validator(eco.config().now);
  start = Clock::now();
  Tracer::Scope validate_span(tracer, "rpki.repo_validate", 0);
  rpki::ValidationReport report = validator.validate(eco.repositories());
  validate_span.end();
  result.layer("rpki.repo_validate_ms", ms_between(start, Clock::now()), "ms");
  result.layer("rpki.roas_accepted", static_cast<double>(report.roas_accepted),
               "count");

  start = Clock::now();
  Tracer::Scope index_span(tracer, "rpki.vrp_index_build", 0);
  const rpki::VrpIndex index(report.vrps);
  index_span.end();
  result.layer("rpki.vrp_index_build_ms", ms_between(start, Clock::now()), "ms");

  // MeasurementPipeline warms its shared cache the same way before each
  // sweep: every (prefix, origin) the RIB announces, AS_SET paths excluded.
  start = Clock::now();
  Tracer::Scope warm_span(tracer, "core.cache_warm", 0);
  rpki::SharedValidationCache cache;
  rib.visit([&](const net::Prefix& prefix,
                const std::vector<bgp::RibEntry>& entries) {
    for (const auto& entry : entries) {
      if (entry.as_path.contains_as_set()) continue;
      if (const auto origin = entry.origin()) cache.warm(index, prefix, *origin);
    }
  });
  warm_span.end();
  result.layer("core.cache_warm_ms", ms_between(start, Clock::now()), "ms");
  return std::move(report.vrps);
}

}  // namespace perfbench
