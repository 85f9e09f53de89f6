// "Same outputs" as a standing test: SHA-256 digests of the dataset over
// one fixed world, compared against a committed table.
//
// The world is seed 7, 2,000 domains, rank space 1M. The batch sweep is
// digested at threads = 0 and threads = 4 (the same table: the parallel
// sweep's determinism contract), and a 20-tick incremental run at 1% churn
// is digested after every tick. A longer incremental run digests every
// published snapshot's serve bodies, one row per generation, across at
// least one compaction, and pins what each of its ticks invalidated and
// the churn zone's counters after the last tick. The
// paper's reports are digested as rendered text, and the metric names a
// run with a registry publishes as a sorted list. The RPKI repositories
// the world signs are digested as their encoded objects, one digest per
// trust anchor: the surface key generation writes, which every other table
// sees only through the draws it leaves for the domains.
//
// A change that alters an output on purpose updates this table and says
// why in CHANGES.md. A digest is never updated to let an unintended change
// pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/classifiers.hpp"
#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "core/reports.hpp"
#include "crypto/sha256.hpp"
#include "delta/churn.hpp"
#include "delta/pipeline.hpp"
#include "obs/metrics.hpp"
#include "rpki/tal.hpp"
#include "rpki/validator.hpp"
#include "serve/snapshot.hpp"
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

std::unique_ptr<web::Ecosystem> golden_world() {
  web::EcosystemConfig world;
  world.seed = 7;
  world.domain_count = 2'000;
  world.rank_space = 1'000'000;
  return web::Ecosystem::generate(world);
}

delta::DeltaConfig golden_churn() {
  delta::DeltaConfig config;
  config.churn.seed = 29;
  config.churn.domain_churn_fraction = 0.01;
  return config;
}

TEST(GoldenOutputs, DatasetDigests) {
  const auto eco = golden_world();

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

  const delta::DeltaConfig config = golden_churn();
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

/// One published generation's serve bodies, each digested separately so
/// a failure names the surface that moved: the /v1/summary body, every
/// /v1/domain body in row order, and a fixed sample of /v1/ip and
/// /v1/prefix bodies. Each entry is the first 16 hex digits of the
/// SHA-256 of the bodies joined by newlines.
struct SnapshotDigests {
  const char* summary;
  const char* domains;
  const char* routes;
};

/// Generations 1 (init) through 33 (after tick 32) of the golden churn.
constexpr std::array<SnapshotDigests, 33> kSnapshots = {{
    {"f05da265c1479042", "6e56212f3a1be89f", "1b0e802f04edcbbd"},
    {"d168d3d8ed522ca3", "21c16b50a33265bc", "0199aab80070ea0e"},
    {"41b8add75cd6fee0", "931080ae63558e58", "0b5f29b067e7328c"},
    {"f7dc8fab5220ba80", "d8779374a17f4d41", "30a7634a1cba9b40"},
    {"9e5196cd3ec540a8", "10d175e13d8a8ab4", "6611c300b5a0a210"},
    {"5125f903e5f69eab", "ecb6c1743449d817", "cc30386d5d772c7e"},
    {"a0d155950c088bad", "162f3a7615fee9ab", "b96f2a5440626123"},
    {"13b8caa4e33c952b", "9f7f04312ee2d4ba", "46b22894d58929df"},
    {"a88c4c008dcc631e", "fc015980db2860e0", "b25a28599daa6dc7"},
    {"fe1bccb9371452c5", "99c1290d6cca7f3e", "fa18ac615f2a604d"},
    {"a22fadcdbccd1dd0", "80f31ac497ca6757", "00d6166d9c07264a"},
    {"306173bbdefd1211", "eefd38aa340e7b7f", "c7d4b1f5ad0fabeb"},
    {"d963440f42dafd87", "09765c3b13bf31c0", "d1311edfe6c973df"},
    {"514bf70a5a4eb8b7", "7a9c311f9c7d68c9", "9d6c124d9f8ea860"},
    {"278aa0a457b8db9e", "1d0e4220c40ca067", "93d52281849e06dc"},
    {"deeff7e095e568c7", "c800dd56d200bad0", "47129786e20a8db7"},
    {"5db82249e5f77d68", "1c52c9b5dae3b414", "63cd414d8f98ae4a"},
    {"5ca413761481b1da", "88d9ff2badbe23cf", "ba6b52cca2323eec"},
    {"15868f3f09c3298f", "12f39da5d078c4dc", "a3923e5f0c06c196"},
    {"73a87961368a7ffe", "746b343cf4cc0131", "f07f7ba74620d339"},
    {"4323333653661352", "b138a9695ff1253a", "06f1bb41814a6135"},
    {"8934e27554faf35a", "3c3242748cadbf7e", "36b3cc4279563d5a"},
    {"269fd93147e9fbb6", "2d530726a3a1ee12", "8c58ba8715d783db"},
    {"d1ddb41319889bef", "1e9cd4019e5dfd04", "973ed609c8ecdde8"},
    {"fa6dc41bb4f4c1f8", "9e5d3cd6df510243", "ffa7536be1339717"},
    {"e0e9fc16d7ef6988", "e1b51a09dd07bd42", "2d0eca0080cae1ae"},
    {"4d34b89937725b91", "0974bb3c6a1afb5e", "39d8834ee9ed680b"},
    {"b4e40533b2233cc3", "cebd3c2fa52f4d4a", "a21bd243c5b05383"},
    {"c225221ad6e68ee5", "f6e6079180b1b933", "60bc950a99a16053"},
    {"a18bb23afee783b6", "6d21edd02241b636", "d47d7532f1db6eee"},
    {"0b3228e7c0ddd73c", "0d409f5cf6ad3b5b", "5c499b872e99c115"},
    {"ddebcc7e53402d3a", "351e2833251fe893", "ab5d8e5c7f47437b"},
    {"815250d4274832d4", "852aa085c96cbbbf", "8f5758e8788a2579"},
}};

/// What each tick of the same run invalidated, ticks 1 through 32: the
/// rows re-swept, the rows whose record changed, the published overlay's
/// size and whether the tick compacted. A fan-out that re-sweeps a
/// superset of the rows, or misses one, moves a count.
struct TickInvalidation {
  std::size_t dirty_rows;
  std::size_t changed_rows;
  std::size_t overlay_size;
  bool compacted;
};

constexpr std::array<TickInvalidation, kSnapshots.size() - 1> kInvalidation = {{
    {20, 20, 20, false},
    {20, 20, 38, false},
    {20, 20, 58, false},
    {20, 20, 77, false},
    {20, 20, 95, false},
    {20, 20, 110, false},
    {20, 20, 129, false},
    {22, 21, 147, false},
    {20, 20, 164, false},
    {27, 26, 187, false},
    {20, 20, 204, false},
    {20, 20, 219, false},
    {20, 20, 235, false},
    {20, 20, 249, false},
    {23, 23, 269, false},
    {22, 22, 286, false},
    {21, 20, 303, false},
    {21, 21, 320, false},
    {20, 20, 337, false},
    {20, 20, 353, false},
    {21, 20, 367, false},
    {21, 21, 381, false},
    {21, 21, 399, false},
    {22, 22, 414, false},
    {21, 20, 429, false},
    {20, 20, 441, false},
    {22, 22, 456, false},
    {20, 20, 469, false},
    {21, 21, 484, false},
    {20, 20, 0, true},
    {20, 20, 20, false},
    {21, 21, 39, false},
}};

/// The churn zone after the last tick: its serial, zone_overrides and
/// zone_suppressed as /deltaz reports them, and the ticks' dns_dirty_names
/// summed.
struct ZoneCounters {
  std::uint64_t serial;
  std::uint64_t dirty_names;
  std::uint64_t overrides;
  std::uint64_t suppressed;
};
constexpr ZoneCounters kZone = {1'401, 1'321, 810, 52};

/// The unsigned value of `"key":` in a JSON text.
std::uint64_t json_count(const std::string& json, const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  return at == std::string::npos ? ~0ULL
                                 : std::stoull(json.substr(at + key.size() + 3));
}

std::string short_digest(crypto::Sha256& hasher) {
  return crypto::digest_hex(hasher.finish()).substr(0, 16);
}

/// The sampled route queries: an address inside, and the origins of, every
/// 16th announced prefix and every prefix the run withdraws, plus every
/// 4th ROA the run may publish or revoke.
struct RouteSample {
  std::vector<net::IpAddress> addresses;
  std::vector<std::pair<net::Prefix, net::Asn>> pairs;
};

RouteSample route_sample(const web::Ecosystem& eco,
                         const delta::ChurnUniverse& universe,
                         const std::vector<delta::Tick>& ticks) {
  std::vector<net::Prefix> prefixes;
  for (std::size_t i = 0; i < universe.announced_prefixes.size(); i += 16)
    prefixes.push_back(universe.announced_prefixes[i]);
  for (const delta::Tick& tick : ticks)
    prefixes.insert(prefixes.end(), tick.prefix_withdraws.begin(),
                    tick.prefix_withdraws.end());
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()), prefixes.end());

  RouteSample sample;
  for (const net::Prefix& prefix : prefixes) {
    sample.addresses.push_back(prefix.address());
    for (const net::Asn origin : eco.rib().origins_for(prefix))
      sample.pairs.emplace_back(prefix, origin);
    sample.pairs.emplace_back(prefix, net::Asn(64999));
  }
  // An address no announced prefix covers.
  sample.addresses.push_back(net::IpAddress::v4(0, 0, 0, 1));
  for (const rpki::VrpSet* vrps : {&universe.initial_vrps,
                                   &universe.candidate_vrps}) {
    for (std::size_t i = 0; i < vrps->size(); i += 4)
      sample.pairs.emplace_back((*vrps)[i].prefix, (*vrps)[i].asn);
  }
  return sample;
}

TEST(GoldenOutputs, SnapshotDigests) {
  const auto eco = golden_world();
  const delta::DeltaConfig config = golden_churn();
  delta::IncrementalPipeline pipeline(*eco, config);
  pipeline.init();
  const delta::ChurnUniverse universe = pipeline.universe();
  delta::TickGenerator generator(config.churn, universe);
  std::vector<delta::Tick> ticks;
  for (std::size_t i = 1; i < kSnapshots.size(); ++i)
    ticks.push_back(generator.next());
  const RouteSample sample = route_sample(*eco, universe, ticks);

  std::uint64_t dirty_names = 0;
  for (std::size_t generation = 1; generation <= kSnapshots.size();
       ++generation) {
    if (generation > 1) {
      const delta::TickStats stats = pipeline.apply_tick(ticks[generation - 2]);
      dirty_names += stats.dns_dirty_names;
      const TickInvalidation& counts = kInvalidation[generation - 2];
      EXPECT_EQ(stats.dirty_rows, counts.dirty_rows) << "tick " << stats.tick;
      EXPECT_EQ(stats.changed_rows, counts.changed_rows) << "tick " << stats.tick;
      EXPECT_EQ(stats.overlay_size, counts.overlay_size) << "tick " << stats.tick;
      EXPECT_EQ(stats.compacted, counts.compacted) << "tick " << stats.tick;
    }
    const serve::Snapshot& snapshot = *pipeline.snapshot();
    ASSERT_EQ(snapshot.generation(), generation);

    crypto::Sha256 summary;
    summary.update(snapshot.summary_json());
    crypto::Sha256 domains;
    for (std::size_t row = 0; row < pipeline.row_count(); ++row) {
      const auto record = snapshot.find_domain(eco->plan_name(row));
      ASSERT_TRUE(record.has_value()) << "row " << row;
      domains.update(serve::Snapshot::render_domain_json(
          *record, snapshot.generation()));
      domains.update("\n");
    }
    crypto::Sha256 routes;
    for (const net::IpAddress& address : sample.addresses) {
      routes.update(snapshot.ip_json(address));
      routes.update("\n");
    }
    for (const auto& [prefix, origin] : sample.pairs) {
      routes.update(snapshot.prefix_json(prefix, origin));
      routes.update("\n");
    }

    const SnapshotDigests& want = kSnapshots[generation - 1];
    EXPECT_EQ(short_digest(summary), want.summary) << "generation " << generation;
    EXPECT_EQ(short_digest(domains), want.domains) << "generation " << generation;
    EXPECT_EQ(short_digest(routes), want.routes) << "generation " << generation;
  }
  EXPECT_GE(pipeline.compactions(), 1u);
  const std::string deltaz = pipeline.deltaz_json();
  EXPECT_EQ(json_count(deltaz, "zone_serial"), kZone.serial);
  EXPECT_EQ(dirty_names, kZone.dirty_names);
  EXPECT_EQ(json_count(deltaz, "zone_overrides"), kZone.overrides);
  EXPECT_EQ(json_count(deltaz, "zone_suppressed"), kZone.suppressed);
}

/// One report rendered as text: a name and a line per row, space-separated
/// fields, every fraction as %.6f.
struct RenderedReport {
  const char* name;
  std::string text;
};

std::ostringstream report_stream() {
  std::ostringstream os;
  os << std::fixed << std::setprecision(6);
  return os;
}

std::vector<RenderedReport> render_reports(const web::Ecosystem& eco,
                                           const core::Dataset& dataset,
                                           const rpki::VrpSet& vrps) {
  namespace reports = core::reports;
  const core::ChainCdnClassifier chain;
  const core::PatternCdnClassifier pattern;
  std::vector<RenderedReport> out;

  std::ostringstream os = report_stream();
  for (const auto& row : reports::figure3_overlap(dataset))
    os << row.rank_lo << ' ' << row.rank_hi << ' ' << row.domains << ' '
       << row.mean_equal_fraction << '\n';
  out.push_back({"figure 3", os.str()});

  os = report_stream();
  for (const auto& row : reports::figure4_rpki_by_rank(dataset))
    os << row.rank_lo << ' ' << row.rank_hi << ' ' << row.domains << ' '
       << row.covered << ' ' << row.valid << ' ' << row.invalid << ' '
       << row.not_found << '\n';
  const reports::Figure4Summary figure4 = reports::figure4_summary(dataset);
  os << figure4.mean_coverage << ' ' << figure4.top_100k_coverage << ' '
     << figure4.last_100k_coverage << ' ' << figure4.mean_invalid << '\n';
  out.push_back({"figure 4", os.str()});

  os = report_stream();
  for (const auto& row : reports::table1_top_covered(dataset))
    os << row.rank << ' ' << row.name << ' ' << to_string(row.www_mark) << ' '
       << row.www_covered << '/' << row.www_total << ' '
       << to_string(row.apex_mark) << ' ' << row.apex_covered << '/'
       << row.apex_total << '\n';
  out.push_back({"table 1", os.str()});

  os = report_stream();
  for (const auto& row : reports::figure5_cdn_share(dataset, chain, pattern)) {
    os << row.rank_lo << ' ' << row.rank_hi << ' ' << row.domains << ' '
       << row.chain_fraction << ' ';
    if (row.pattern_fraction.has_value()) {
      os << *row.pattern_fraction << '\n';
    } else {
      os << "-\n";
    }
  }
  out.push_back({"figure 5", os.str()});

  os = report_stream();
  for (const auto& row : reports::figure6_cdn_rpki(dataset, chain))
    os << row.rank_lo << ' ' << row.rank_hi << ' ' << row.cdn_domains << ' '
       << row.cdn_coverage << ' ' << row.all_coverage << ' '
       << row.non_cdn_coverage << '\n';
  const reports::Figure6Summary figure6 =
      reports::figure6_summary(dataset, chain);
  os << figure6.cdn_mean_coverage << ' ' << figure6.all_mean_coverage << ' '
     << figure6.non_cdn_mean_coverage << '\n';
  out.push_back({"figure 6", os.str()});

  os = report_stream();
  for (const auto& row : reports::dnssec_vs_rpki(dataset))
    os << row.rank_lo << ' ' << row.rank_hi << ' ' << row.domains << ' '
       << row.dnssec_fraction << ' ' << row.rpki_fraction << ' '
       << row.both_fraction << '\n';
  const reports::DnssecSummary dnssec = reports::dnssec_summary(dataset);
  os << dnssec.dnssec_rate << ' ' << dnssec.rpki_rate << ' '
     << dnssec.both_rate << ' ' << dnssec.correlation_ratio << '\n';
  out.push_back({"dnssec", os.str()});

  os = report_stream();
  const core::CdnAsDirectory directory(eco.registry());
  for (const auto& entry : directory.census(vrps)) {
    os << entry.cdn << " ases";
    for (const net::Asn asn : entry.ases) os << ' ' << asn.to_string();
    os << " vrps";
    for (const rpki::Vrp& vrp : entry.rpki_entries) os << ' ' << vrp.to_string();
    os << " origins";
    for (const net::Asn asn : entry.roa_origin_ases) os << ' ' << asn.to_string();
    os << '\n';
  }
  os << "total " << directory.total_cdn_ases() << '\n';
  for (const web::AsCategory category :
       {web::AsCategory::kTier1, web::AsCategory::kTransit,
        web::AsCategory::kIsp, web::AsCategory::kHoster,
        web::AsCategory::kCdn, web::AsCategory::kEnterprise})
    os << to_string(category) << ' '
       << core::CdnAsDirectory::category_penetration(eco.registry(), category,
                                                     vrps)
       << '\n';
  out.push_back({"section 4.2", os.str()});
  return out;
}

/// SHA-256 of each rendered report over the batch dataset, in
/// render_reports() order.
constexpr std::array<const char*, 7> kReports = {
    "b951cc7b7943080a2994cef01b2ba347641a9e59b620ea2b7cf26283b79cf6e3",
    "77293d2257a099a08d7f92c9900ede84b744d32c4a8395335f4d1a64fbfea55f",
    "497c073a9066ad4daa947580c8d181244d2ae439af61852e6ad09830f725c455",
    "457cf291ad9f22f5351ce5f2182ab3136cef92d531f721c272f76de771d7da04",
    "679664f775aa7c300f4f8245e579cce513a2c3a255e06388a35239dee991a2ff",
    "596fa8475f62475434058f50e7a3cdd8f5c31199d93c8a0ed3e261b3cadf3fa5",
    "c8a2c22fc29187b8d79772c6e485812a9b8774f19b0ec509ac731e7e37b6258f",
};

TEST(GoldenOutputs, ReportDigests) {
  const auto eco = golden_world();
  core::MeasurementPipeline pipeline(*eco, {});
  const core::Dataset dataset = pipeline.run();
  const rpki::ValidationReport validated =
      rpki::RepositoryValidator(eco->config().now).validate(eco->repositories());
  // The paper world publishes no faulty object, so a validator that fails
  // closed changes no report.
  EXPECT_TRUE(validated.rejected.empty());

  const std::vector<RenderedReport> rendered =
      render_reports(*eco, dataset, validated.vrps);
  ASSERT_EQ(rendered.size(), kReports.size());
  for (std::size_t i = 0; i < rendered.size(); ++i) {
    EXPECT_FALSE(rendered[i].text.empty()) << rendered[i].name;
    EXPECT_EQ(crypto::digest_hex(crypto::sha256(rendered[i].text)), kReports[i])
        << rendered[i].name;
  }
}

/// SHA-256 of the sorted metric names a run publishes, one per line. A
/// pooled run adds the pool's task counter (`ripki.exec.tasks_executed`)
/// and its sweep-merge span (`ripki.trace.pipeline.run.sweep_merge`).
struct MetricNameDigests {
  const char* serial;
  const char* pooled;
};

constexpr MetricNameDigests kMetricNames = {
    "31e06b038bdf5cb92f05ccd739bd95363c7f5be2d41641ed3bb597b649d5c23b",
    "01e210be5c5d7d6770e9b306364d8eb46563f9946c4a04c29ba7ad6fb36de48c",
};

TEST(GoldenOutputs, MetricNames) {
  const auto eco = golden_world();
  for (const std::size_t threads : {0, 4}) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    obs::Registry registry;
    core::PipelineConfig config;
    config.threads = threads;
    config.registry = &registry;
    core::MeasurementPipeline pipeline(*eco, config);
    (void)pipeline.run();
    std::string names;
    for (const obs::MetricSnapshot& metric : registry.collect())
      names += metric.name + '\n';
    EXPECT_EQ(crypto::digest_hex(crypto::sha256(names)),
              threads == 0 ? kMetricNames.serial : kMetricNames.pooled);
  }
}

/// SHA-256 per trust anchor over its repository's encoded objects, in
/// order: the TA certificate and the TA CRL; each point's CA certificate,
/// ROAs, manifest and CRL; then the anchor's TAL text.
constexpr std::array<const char*, 5> kRepositories = {
    "b0eb327e4f2cbbada152cec9fdcf494435a596fa52d429c70f7ed09816746581",
    "b8807d50900941690e0ab06a6546adc5a009d680493cb2dfbea6bd1a59ff5384",
    "0fa1a227b2a9c33352b0b5c8286b26df33e4483eac5846dca87a9a9b21892b65",
    "56a6405f4b8dc9ccc09f13d4027c47f744e237b0abe48577163e4b71251e57bb",
    "4e07150853f70a1fca5465aae51c3b5c1f40bfa9e376fae4bf55afa607728864",
};

TEST(GoldenOutputs, RepositoryDigests) {
  const auto eco = golden_world();
  const std::vector<rpki::Repository>& repositories = eco->repositories();
  const std::vector<rpki::TrustAnchorLocator> tals = eco->tals();
  ASSERT_EQ(repositories.size(), kRepositories.size());
  ASSERT_EQ(tals.size(), kRepositories.size());
  for (std::size_t i = 0; i < repositories.size(); ++i) {
    const rpki::Repository& repository = repositories[i];
    crypto::Sha256 hasher;
    hasher.update(repository.ta_cert.encode());
    hasher.update(repository.ta_crl.encode());
    for (const rpki::CaPublicationPoint& point : repository.points) {
      hasher.update(point.ca_cert.encode());
      for (const rpki::Roa& roa : point.roas) hasher.update(roa.encode());
      hasher.update(point.manifest.encode());
      hasher.update(point.crl.encode());
    }
    hasher.update(rpki::encode_tal(tals[i]));
    EXPECT_EQ(crypto::digest_hex(hasher.finish()), kRepositories[i])
        << repository.ta_cert.data().subject;
  }
}

}  // namespace
}  // namespace ripki
