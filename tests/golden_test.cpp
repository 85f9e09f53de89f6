// "Same outputs" as a standing test: SHA-256 digests of the dataset over
// one fixed world, compared against a committed table.
//
// The world is seed 7, 2,000 domains, rank space 1M. The batch sweep is
// digested at threads = 0 and threads = 4 (the same table: the parallel
// sweep's determinism contract), and a 20-tick incremental run at 1% churn
// is digested after every tick.
//
// A change that alters an output on purpose updates this table and says
// why in CHANGES.md. A digest is never updated to let an unintended change
// pass.
#include <gtest/gtest.h>

#include <array>
#include <sstream>
#include <string>

#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "crypto/sha256.hpp"
#include "delta/churn.hpp"
#include "delta/pipeline.hpp"
#include "web/ecosystem.hpp"

namespace ripki {
namespace {

using ExportFn = void (*)(const core::Dataset&, std::ostream&);

std::string digest_of(ExportFn export_csv, const core::Dataset& dataset) {
  std::ostringstream os;
  export_csv(dataset, os);
  return crypto::digest_hex(crypto::sha256(os.str()));
}

struct BatchDigests {
  const char* domains;
  const char* pairs;
  const char* counters;
};

constexpr BatchDigests kBatch = {
    "5401786f361e6195047f553adffa5bf99a3f3b974c2471fd9720df1d7b1679b4",
    "2fb06c1fed53f57fcb0d2e775f85cd8ca07af7e8ba5497e68a5b4a4ad51d0e77",
    "466995a15904681f85fe8b59e41895af74b2701590c71144b2873b3c344420eb",
};

/// export_domains_csv of the incremental dataset after ticks 1..20.
constexpr std::array<const char*, 20> kDeltaTicks = {
    "7157778f51a5691f4147066e4f3033e6be7bcf931f9dbf29ec17a29671563125",
    "f5d3173bbbef671e0786d2e0cf330c7f35e00db62512c2c0d88bed23ed28e1e2",
    "e19eb3babc8e23246aaa1e49cbf426bc5bd94ba204abc50a19abc490cd4464da",
    "af36f54db07edf58cb08ebc38e5849a1d6aff59e6bd1ac8ee7a73a2608677a54",
    "348b0509d3ecc630da809849cddae209ea3b31c1c2cd0e476dc02a73ffa22499",
    "8f4939838523c2dd2854c7c50d21fe35abbc01a84e9b5b670c82a660c33c4415",
    "b1a713a618e840620819c53b66f2df47dbee34af6dbea61e2c66462003d63657",
    "b8308f3ba394a2c2043aef385158eb1709bfbe409de68ea1ab7774bd5107c814",
    "041fb2e493e42d306365dae6524867919642d15c015d80bf6964364137991693",
    "13bdcbfa392b8aa62adafb0126d0af4a5da5dfca8225c67e7c80fb0016f31309",
    "ffbd7c71159f41cba987223911220aa11b8ca912eecdab6d33a04dec1063d184",
    "86d80668a0691c059841e8f4668faf6d29a1240b88cd3a40ccebe20acb4f0c73",
    "3e9895f7d688ac0dacaaee0c631d735361b2a6b57f08b1bfea3318cdec89c516",
    "65090c29740694615d96a749ed6e22442a5ae07a9ac48c6ff98230bf38ab25b3",
    "31beee0a90f6188e85fbddc464a717bd7c6aaf7dfce4a0535b5979ed1cbe17de",
    "5fad643c7affa066ac558f58f54ff510d73870d94014fc3b6625dc573d41c1ae",
    "ce6084aee56eb3f4b1f0e2fbbab1b9e803e96f81921daa62e255c9bede3e431b",
    "d9d1c3cce37c3b1b971b0311f38f2b47b92c72434c06ac5f7da4a0508f4cd514",
    "d65c7381972200ca70a2a0750235e132e05b62668195c0e8c48a8d1856a0b77c",
    "4ff3680947f4ed292f6e9a24940aeb6beae92e558f99408e3a0bfbfa6c2ea5c9",
};

TEST(GoldenOutputs, DatasetDigests) {
  web::EcosystemConfig world;
  world.seed = 7;
  world.domain_count = 2'000;
  world.rank_space = 1'000'000;
  const auto eco = web::Ecosystem::generate(world);

  for (const std::size_t threads : {0, 4}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    core::PipelineConfig config;
    config.threads = threads;
    core::MeasurementPipeline pipeline(*eco, config);
    const core::Dataset dataset = pipeline.run();
    EXPECT_EQ(digest_of(core::export_domains_csv, dataset), kBatch.domains);
    EXPECT_EQ(digest_of(core::export_pairs_csv, dataset), kBatch.pairs);
    EXPECT_EQ(digest_of(core::export_counters_csv, dataset), kBatch.counters);
  }

  delta::DeltaConfig config;
  config.churn.seed = 29;
  config.churn.domain_churn_fraction = 0.01;
  delta::IncrementalPipeline pipeline(*eco, config);
  pipeline.init();
  delta::TickGenerator generator(config.churn, pipeline.universe());
  for (std::size_t tick = 0; tick < kDeltaTicks.size(); ++tick) {
    (void)pipeline.apply_tick(generator.next());
    EXPECT_EQ(digest_of(core::export_domains_csv, pipeline.dataset()),
              kDeltaTicks[tick])
        << "tick " << tick + 1;
  }
}

}  // namespace
}  // namespace ripki
