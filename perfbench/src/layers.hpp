// Set-up pieces every workload shares: the world it runs on and a replay
// of the library's set-up stages through their public functions.
#pragma once

#include <memory>

#include "bench.hpp"
#include "rpki/vrp.hpp"
#include "web/ecosystem.hpp"

namespace perfbench {

/// Generates the workload's world from the seed (domain count and rank
/// axis from the config); `generate_ms` receives the time it took.
std::unique_ptr<ripki::web::Ecosystem> generate_world(const Config& config,
                                                      double& generate_ms);

/// Replays, once and serially, the set-up stages the pipelines run inside
/// run()/init(): MRT parse, RIB freeze, repository validation, VRP index
/// build and validation-cache warm, with a span around each call. Reports
/// the bgp/rpki/core set-up metrics and returns the validated VRP set.
ripki::rpki::VrpSet replay_setup_stages(const ripki::web::Ecosystem& eco,
                                        Tracer& tracer, Result& result);

}  // namespace perfbench
