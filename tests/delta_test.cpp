// The incremental pipeline end to end: deterministic churn generation,
// the mutable world (churn zone, withdraw/announce RIB, RTR-synced
// VRPs), dirty-set invalidation, snapshot delta application — and the
// subsystem's correctness gate: on every tick of a randomized churn
// sequence the delta-applied snapshot must render byte-identically to a
// from-scratch full rebuild (the batch pipeline's sweep of the current
// world) across all /v1/* endpoints.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/pipeline.hpp"
#include "core/reports.hpp"
#include "delta/churn.hpp"
#include "delta/pipeline.hpp"
#include "delta/zone.hpp"
#include "dns/resolver.hpp"
#include "dns/server.hpp"
#include "serve/snapshot.hpp"
#include "util/prng.hpp"
#include "web/ecosystem.hpp"

namespace ripki::delta {
namespace {

constexpr std::uint32_t kVictimFallback = 0xFFFFFFFFu;

web::EcosystemConfig small_config() {
  web::EcosystemConfig config;
  config.seed = 11;
  config.domain_count = 1'200;
  config.rank_space = 100'000;
  config.isp_count = 150;
  config.hoster_count = 60;
  config.enterprise_count = 200;
  config.transit_count = 30;
  return config;
}

/// One generated ecosystem shared by every pipeline test (the expensive
/// part); each test builds its own IncrementalPipeline over it.
class DeltaPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { eco_ = web::Ecosystem::generate(small_config()).release(); }
  static void TearDownTestSuite() {
    delete eco_;
    eco_ = nullptr;
  }

  static web::Ecosystem* eco_;
};

web::Ecosystem* DeltaPipelineTest::eco_ = nullptr;

/// Every counter field by name, so a mismatch prints which field moved.
std::map<std::string, std::uint64_t> counter_fields(
    const core::PipelineCounters& counters) {
  std::map<std::string, std::uint64_t> fields;
  counters.for_each_field(
      [&](const char* name, std::uint64_t value) { fields[name] = value; });
  return fields;
}

// --- churn generator ---------------------------------------------------------

ChurnUniverse toy_universe() {
  ChurnUniverse universe;
  universe.domain_count = 500;
  for (int i = 0; i < 8; ++i) {
    auto p = net::Prefix::parse("10." + std::to_string(i) + ".0.0/16");
    EXPECT_TRUE(p.ok());
    universe.announced_prefixes.push_back(p.value());
    rpki::Vrp vrp{p.value(), 24, net::Asn(65000 + i)};
    if (i < 4) {
      universe.initial_vrps.push_back(vrp);
    } else {
      universe.candidate_vrps.push_back(vrp);
    }
  }
  return universe;
}

TEST(TickGenerator, DeterministicReplay) {
  ChurnConfig config;
  config.seed = 77;
  TickGenerator a(config, toy_universe());
  TickGenerator b(config, toy_universe());
  for (int i = 0; i < 50; ++i) {
    const Tick ta = a.next();
    const Tick tb = b.next();
    EXPECT_EQ(ta, tb) << "tick " << i;
    EXPECT_EQ(ta.number, static_cast<std::uint64_t>(i + 1));
    EXPECT_GE(ta.domain_adds.size() + ta.domain_removes.size() +
                  ta.cname_retargets.size(),
              1u);
  }
  EXPECT_EQ(a.ticks_generated(), 50u);
}

TEST(TickGenerator, SeedChangesTheTrace) {
  ChurnConfig a_config;
  a_config.seed = 1;
  ChurnConfig b_config;
  b_config.seed = 2;
  TickGenerator a(a_config, toy_universe());
  TickGenerator b(b_config, toy_universe());
  bool diverged = false;
  for (int i = 0; i < 10 && !diverged; ++i) {
    diverged = !(a.next() == b.next());
  }
  EXPECT_TRUE(diverged);
}

TEST(TickGenerator, NeverEmitsConflictingEvents) {
  ChurnConfig config;
  config.seed = 5;
  config.domain_churn_fraction = 0.05;
  config.prefix_withdraws_per_tick = 2;
  config.prefix_announces_per_tick = 2;
  const ChurnUniverse universe = toy_universe();
  TickGenerator gen(config, universe);

  std::set<net::Prefix> announced(universe.announced_prefixes.begin(),
                                  universe.announced_prefixes.end());
  std::set<rpki::Vrp> live(universe.initial_vrps.begin(),
                           universe.initial_vrps.end());
  std::vector<char> active(500, 1);
  for (std::uint32_t row : initial_inactive_rows(config, 500)) active[row] = 0;

  for (int i = 0; i < 120; ++i) {
    const Tick tick = gen.next();
    for (std::uint32_t row : tick.domain_removes) {
      ASSERT_TRUE(active[row]) << "remove of inactive row " << row;
      active[row] = 0;
    }
    for (std::uint32_t row : tick.domain_adds) {
      ASSERT_FALSE(active[row]) << "add of active row " << row;
      active[row] = 1;
    }
    for (std::uint32_t row : tick.cname_retargets) {
      ASSERT_TRUE(active[row]) << "retarget of inactive row " << row;
    }
    for (const auto& prefix : tick.prefix_withdraws) {
      ASSERT_EQ(announced.erase(prefix), 1u) << "double withdraw";
    }
    for (const auto& prefix : tick.prefix_announces) {
      ASSERT_TRUE(announced.insert(prefix).second) << "double announce";
    }
    for (const auto& vrp : tick.roa_publishes) {
      ASSERT_TRUE(live.insert(vrp).second) << "publish of live VRP";
    }
    for (const auto& vrp : tick.roa_revokes) {
      ASSERT_EQ(live.erase(vrp), 1u) << "revoke of unpublished VRP";
    }
  }
}

TEST(TickGenerator, RoaEventsArriveWithModeledDelay) {
  ChurnConfig config;
  config.seed = 9;
  config.roa_publishes_per_tick = 2;
  config.roa_revokes_per_tick = 1;
  config.max_publication_delay_ticks = 3;
  TickGenerator gen(config, toy_universe());

  // The first tick can never carry a ROA event: every signing decision
  // publishes at least one tick later.
  const Tick first = gen.next();
  EXPECT_TRUE(first.roa_publishes.empty());
  EXPECT_TRUE(first.roa_revokes.empty());

  std::size_t published = 0;
  for (int i = 0; i < 20; ++i) published += gen.next().roa_publishes.size();
  EXPECT_GT(published, 0u);
  // The universe only offers four publish candidates; each is used once.
  EXPECT_LE(published, 4u);
}

TEST(InitialInactiveRows, PureFunctionOfConfigAndCount) {
  ChurnConfig config;
  config.seed = 13;
  config.initial_inactive_fraction = 0.10;
  const auto a = initial_inactive_rows(config, 400);
  const auto b = initial_inactive_rows(config, 400);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 40u);
  std::set<std::uint32_t> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), a.size());
  for (std::uint32_t row : a) EXPECT_LT(row, 400u);

  config.seed = 14;
  EXPECT_NE(initial_inactive_rows(config, 400), a);

  config.initial_inactive_fraction = 0.0;
  EXPECT_TRUE(initial_inactive_rows(config, 400).empty());
}

// --- churn zone --------------------------------------------------------------

class ChurnZoneTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    web::EcosystemConfig config = small_config();
    config.domain_count = 400;
    eco_ = web::Ecosystem::generate(config).release();
  }
  static void TearDownTestSuite() {
    delete eco_;
    eco_ = nullptr;
  }

  static dns::DnsName apex(std::uint32_t row) {
    return dns::DnsName::parse(eco_->plan_name(row)).value();
  }
  static dns::DnsName www(std::uint32_t row) {
    return apex(row).prepended("www");
  }
  static const dns::ZoneSource& base() {
    return eco_->zone_source(web::Vantage::kBerlin);
  }
  /// The first row whose www name holds A records.
  static std::uint32_t direct_www_row() {
    for (std::uint32_t row = 0; row < eco_->domain_count(); ++row) {
      if (!base().lookup(www(row), dns::RecordType::kA).empty()) return row;
    }
    ADD_FAILURE() << "no row answers A at its www name";
    return 0;
  }

  static web::Ecosystem* eco_;
};

web::Ecosystem* ChurnZoneTest::eco_ = nullptr;

constexpr std::array<dns::RecordType, 4> kZoneTypes = {
    dns::RecordType::kA, dns::RecordType::kAaaa, dns::RecordType::kCname,
    dns::RecordType::kDnskey};

/// Whether `zone` and `want` agree on every checked type of `name` and on
/// its existence.
::testing::AssertionResult same_answers(const dns::ZoneSource& zone,
                                        const dns::ZoneSource& want,
                                        const dns::DnsName& name) {
  for (const dns::RecordType type : kZoneTypes) {
    if (zone.lookup(name, type) != want.lookup(name, type))
      return ::testing::AssertionFailure()
             << name.to_string() << " type " << static_cast<int>(type);
  }
  if (zone.name_exists(name) != want.name_exists(name))
    return ::testing::AssertionFailure() << name.to_string() << " existence";
  return ::testing::AssertionSuccess();
}

/// The reference the churn zone is held to: a name-keyed overlay over the
/// base zone that stores every record it serves. An override masks every
/// type of its name, and a suppressed name is NXDOMAIN. Each mutation
/// returns how many names it changed.
class NameKeyedOverlay final : public dns::ZoneSource {
 public:
  explicit NameKeyedOverlay(const dns::ZoneSource& base) : base_(base) {}

  using dns::ZoneSource::lookup;
  void lookup(const dns::DnsName& name, dns::RecordType type,
              std::vector<dns::ResourceRecord>& out) const override {
    if (suppressed.contains(name)) return;
    const auto it = overrides.find(name);
    if (it == overrides.end()) return base_.lookup(name, type, out);
    for (const dns::ResourceRecord& record : it->second)
      if (record.type == type) out.push_back(record);
  }
  bool name_exists(const dns::DnsName& name) const override {
    return !suppressed.contains(name) &&
           (overrides.contains(name) || base_.name_exists(name));
  }

  std::size_t suppress(const dns::DnsName& apex, bool on) {
    std::size_t changed = 0;
    for (const dns::DnsName& name : {apex, apex.prepended("www")})
      changed += on ? suppressed.insert(name).second : suppressed.erase(name);
    return changed;
  }
  /// Points www at `target`, which holds `records`, and drops the name
  /// www pointed at before.
  std::size_t retarget(const dns::DnsName& www, const dns::DnsName& target,
                       std::vector<dns::ResourceRecord> records) {
    std::size_t changed = 2;
    if (const auto it = overrides.find(www); it != overrides.end())
      changed += overrides.erase(std::get<dns::DnsName>(it->second[0].rdata));
    overrides[target] = std::move(records);
    overrides[www] = {dns::ResourceRecord::cname(www, target)};
    return changed;
  }

  std::unordered_map<dns::DnsName, std::vector<dns::ResourceRecord>,
                     dns::DnsNameHash>
      overrides;
  std::unordered_set<dns::DnsName, dns::DnsNameHash> suppressed;

 private:
  const dns::ZoneSource& base_;
};

TEST_F(ChurnZoneTest, PassesThroughUntouchedNames) {
  const ChurnZone zone(*eco_, web::Vantage::kBerlin, 1);
  for (std::uint32_t row = 0; row < 40; ++row) {
    EXPECT_TRUE(same_answers(zone, base(), apex(row)));
    EXPECT_TRUE(same_answers(zone, base(), www(row)));
  }
  EXPECT_FALSE(zone.name_exists(dns::DnsName::parse("gone.example").value()));
  EXPECT_EQ(zone.serial(), 0u);
  EXPECT_EQ(zone.override_count(), 0u);
  EXPECT_EQ(zone.suppressed_count(), 0u);
}

TEST_F(ChurnZoneTest, SuppressionYieldsNxDomainAndIsReversible) {
  ChurnZone zone(*eco_, web::Vantage::kBerlin, 1);
  const std::uint32_t row = direct_www_row();
  EXPECT_EQ(zone.set_active(row, false), 2u);
  for (const dns::DnsName& name : {apex(row), www(row)}) {
    EXPECT_FALSE(zone.name_exists(name));
    for (const dns::RecordType type : kZoneTypes)
      EXPECT_TRUE(zone.lookup(name, type).empty());
  }
  EXPECT_EQ(zone.serial(), 2u);
  EXPECT_EQ(zone.suppressed_count(), 2u);

  // The server over the zone must answer NXDOMAIN, not an empty NOERROR.
  dns::AuthoritativeServer server(&zone);
  dns::StubResolver resolver(&server);
  const auto resolved = resolver.resolve_all(www(row));
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value().rcode, dns::Rcode::kNxDomain);

  EXPECT_EQ(zone.set_active(row, true), 2u);
  EXPECT_TRUE(same_answers(zone, base(), apex(row)));
  EXPECT_TRUE(same_answers(zone, base(), www(row)));
  EXPECT_EQ(zone.serial(), 4u);
  EXPECT_EQ(zone.suppressed_count(), 0u);
}

TEST_F(ChurnZoneTest, RetargetFullyMasksBaseForTheWwwName) {
  ChurnZone zone(*eco_, web::Vantage::kBerlin, 1);
  const std::uint32_t row = direct_www_row();
  ASSERT_EQ(zone.retarget(row, 4), 2u);
  // Base has A records at www; the retarget leaves a CNAME only, with no
  // fall-through to the base for other types.
  EXPECT_TRUE(zone.lookup(www(row), dns::RecordType::kA).empty());
  EXPECT_TRUE(zone.lookup(www(row), dns::RecordType::kAaaa).empty());
  const auto cname = zone.lookup(www(row), dns::RecordType::kCname);
  ASSERT_EQ(cname.size(), 1u);
  const auto target = std::get<dns::DnsName>(cname[0].rdata);
  EXPECT_EQ(target.to_string(),
            "edge-t4-d" + std::to_string(row) + ".cdn-overlay.example");
  // The apex is untouched, and the resolver follows the CNAME.
  EXPECT_TRUE(same_answers(zone, base(), apex(row)));
  dns::AuthoritativeServer server(&zone);
  dns::StubResolver resolver(&server);
  const auto resolved = resolver.resolve_all(www(row));
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(resolved.value().chain,
            (std::vector<dns::DnsName>{www(row), target}));
  EXPECT_FALSE(resolved.value().addresses.empty());
  EXPECT_EQ(zone.override_count(), 2u);

  // The next retarget drops the old target.
  ASSERT_EQ(zone.retarget(row, 9), 3u);
  EXPECT_FALSE(zone.name_exists(target));
  EXPECT_TRUE(zone.lookup(target, dns::RecordType::kA).empty());
  EXPECT_EQ(zone.override_count(), 2u);
}

TEST_F(ChurnZoneTest, SerialBumpsOnlyOnEffectiveMutation) {
  ChurnZone zone(*eco_, web::Vantage::kBerlin, 1);
  EXPECT_EQ(zone.set_active(5, false), 2u);
  EXPECT_EQ(zone.serial(), 2u);
  EXPECT_EQ(zone.set_active(5, false), 0u);  // already inactive: no-op
  EXPECT_EQ(zone.set_active(7, true), 0u);   // already active: no-op
  EXPECT_EQ(zone.serial(), 2u);
  // A first retarget sets the www name and a target; every later one also
  // drops the previous target, the same tick's included.
  EXPECT_EQ(zone.retarget(5, 3), 2u);
  EXPECT_EQ(zone.retarget(5, 3), 3u);
  EXPECT_EQ(zone.retarget(5, 8), 3u);
  EXPECT_EQ(zone.serial(), 10u);
}

TEST_F(ChurnZoneTest, DeactivationMasksTheRetargetUntilReactivated) {
  ChurnZone zone(*eco_, web::Vantage::kBerlin, 1);
  const std::uint32_t row = direct_www_row();
  zone.retarget(row, 6);
  const auto cname = zone.lookup(www(row), dns::RecordType::kCname);
  ASSERT_EQ(cname.size(), 1u);
  const auto target = std::get<dns::DnsName>(cname[0].rdata);
  zone.set_active(row, false);
  EXPECT_FALSE(zone.name_exists(www(row)));
  EXPECT_TRUE(zone.lookup(www(row), dns::RecordType::kCname).empty());
  // The target itself is no name of the row's: it still answers.
  EXPECT_FALSE(zone.lookup(target, dns::RecordType::kA).empty());
  // Reactivating re-exposes the retarget, not the base records.
  zone.set_active(row, true);
  EXPECT_EQ(zone.lookup(www(row), dns::RecordType::kCname), cname);
  EXPECT_TRUE(zone.lookup(www(row), dns::RecordType::kA).empty());
}

TEST_F(ChurnZoneTest, AgreesWithANameKeyedReference) {
  // Both zones take the same seeded activate, deactivate and retarget
  // events; after each round of events every row's apex and www names and
  // every target ever set must answer alike. The reference spells out
  // each target's addresses: a hash of (seed, tick, row), one host in each
  // of two pool prefixes picked from it, one host when both picks agree.
  constexpr std::uint64_t kSeed = 23;
  ChurnZone zone(*eco_, web::Vantage::kBerlin, kSeed);
  NameKeyedOverlay reference(base());
  std::vector<net::Prefix> pool;
  for (const web::PrefixRecord& record : eco_->prefixes()) {
    if (record.announced && record.prefix.is_v4() &&
        record.prefix.length() <= 24)
      pool.push_back(record.prefix);
  }
  ASSERT_FALSE(pool.empty());
  const auto addresses = [&](const dns::DnsName& target, std::uint64_t tick,
                             std::uint32_t row) {
    const std::uint64_t h = util::mix64(
        util::hash_combine(kSeed, util::hash_combine(tick, row)));
    const net::Prefix& first = pool[h % pool.size()];
    const net::Prefix& second = pool[(h >> 16) % pool.size()];
    const auto host = [&](const net::Prefix& prefix, std::uint64_t offset) {
      const auto& bytes = prefix.address().bytes();
      return dns::ResourceRecord::a(
          target, net::IpAddress::v4(bytes[0], bytes[1], bytes[2],
                                     static_cast<std::uint8_t>(
                                         1 + offset % 250)));
    };
    std::vector<dns::ResourceRecord> records = {host(first, h >> 32)};
    if (!(second == first)) records.push_back(host(second, h >> 40));
    return records;
  };

  std::vector<dns::DnsName> targets;  // every target set, current or not
  std::size_t serial = 0;
  // Retargets `row` in both zones; the target is named after the row.
  const auto retarget = [&](std::uint32_t row, std::uint64_t tick) {
    const auto target =
        dns::DnsName::parse("edge-t" + std::to_string(tick) + "-d" +
                            std::to_string(row) + ".cdn-overlay.example")
            .value();
    targets.push_back(target);
    const std::size_t changed = zone.retarget(row, tick);
    EXPECT_EQ(changed, reference.retarget(www(row), target,
                                          addresses(target, tick, row)));
    return changed;
  };
  util::Prng prng(41);
  for (std::uint64_t tick = 1; tick <= 24; ++tick) {
    for (int event = 0; event < 24; ++event) {
      const auto row = static_cast<std::uint32_t>(
          prng.index(eco_->domain_count()));
      switch (prng.uniform(3)) {
        case 0: {
          const std::size_t changed = zone.set_active(row, false);
          EXPECT_EQ(changed, reference.suppress(apex(row), true));
          serial += changed;
          break;
        }
        case 1: {
          const std::size_t changed = zone.set_active(row, true);
          EXPECT_EQ(changed, reference.suppress(apex(row), false));
          serial += changed;
          break;
        }
        default:
          serial += retarget(row, tick);
      }
    }

    for (std::uint32_t row = 0; row < eco_->domain_count(); ++row) {
      ASSERT_TRUE(same_answers(zone, reference, apex(row))) << "tick " << tick;
      ASSERT_TRUE(same_answers(zone, reference, www(row))) << "tick " << tick;
    }
    for (const dns::DnsName& target : targets)
      ASSERT_TRUE(same_answers(zone, reference, target)) << "tick " << tick;
    EXPECT_EQ(zone.serial(), serial);
    EXPECT_EQ(zone.override_count(), reference.overrides.size());
    EXPECT_EQ(zone.suppressed_count(), reference.suppressed.size());
  }

  // A retarget whose two pool picks agree: its target holds one host.
  std::uint64_t tick = 25;
  while (addresses(dns::DnsName(), tick, 2).size() != 1) ++tick;
  serial += retarget(2, tick);
  EXPECT_EQ(zone.lookup(targets.back(), dns::RecordType::kA).size(), 1u);
  EXPECT_TRUE(same_answers(zone, reference, targets.back()));
  EXPECT_EQ(zone.serial(), serial);
}

TEST_F(ChurnZoneTest, ConcurrentLookupsOnAQuietZoneAgree) {
  // Lookups only read: four threads query one zone nothing mutates, and
  // each sees the answers a single thread saw.
  ChurnZone zone(*eco_, web::Vantage::kBerlin, 3);
  for (std::uint32_t row = 0; row < eco_->domain_count(); ++row) {
    if (row % 3 == 0) zone.retarget(row, 1 + row % 5);
    if (row % 7 == 0) zone.set_active(row, false);
  }
  std::vector<dns::DnsName> names;
  for (std::uint32_t row = 0; row < eco_->domain_count(); ++row) {
    names.push_back(apex(row));
    names.push_back(www(row));
    for (const auto& record : zone.lookup(www(row), dns::RecordType::kCname))
      names.push_back(std::get<dns::DnsName>(record.rdata));
  }
  const auto answers = [&] {
    std::vector<std::vector<dns::ResourceRecord>> out;
    for (const dns::DnsName& name : names) {
      for (const dns::RecordType type : kZoneTypes)
        out.push_back(zone.lookup(name, type));
      if (!zone.name_exists(name)) out.emplace_back();
    }
    return out;
  };
  const auto want = answers();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 3; ++round)
        if (answers() != want) ++mismatches;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- pipeline world ----------------------------------------------------------

TEST_F(DeltaPipelineTest, InitPublishesGenerationOne) {
  DeltaConfig config;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();

  EXPECT_EQ(pipeline.generation(), 1u);
  EXPECT_EQ(pipeline.row_count(), eco_->domain_count());
  ASSERT_NE(pipeline.snapshot(), nullptr);
  EXPECT_EQ(pipeline.snapshot()->generation(), 1u);
  EXPECT_EQ(pipeline.snapshot()->parent_generation(), 0u);
  EXPECT_FALSE(pipeline.snapshot()->delta_applied());
  EXPECT_TRUE(pipeline.rtr_in_sync());

  const auto universe = pipeline.universe();
  EXPECT_EQ(universe.domain_count, eco_->domain_count());
  EXPECT_GT(universe.announced_prefixes.size(), 0u);
  EXPECT_GT(universe.initial_vrps.size(), 0u);
  EXPECT_GT(universe.candidate_vrps.size(), 0u);

  // Fresh init must already agree with its own oracle.
  const auto oracle = pipeline.full_rebuild();
  const auto report = pipeline.check_against(*oracle);
  EXPECT_TRUE(report.identical) << report.divergence;
}

TEST_F(DeltaPipelineTest, EmptyTickPublishesUnchangedGeneration) {
  DeltaConfig config;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();
  const std::string before = pipeline.snapshot()->summary_json();

  Tick tick;
  tick.number = 1;
  const TickStats stats = pipeline.apply_tick(tick);
  EXPECT_EQ(stats.dirty_rows, 0u);
  EXPECT_EQ(stats.changed_rows, 0u);
  EXPECT_EQ(pipeline.generation(), 2u);
  EXPECT_EQ(pipeline.snapshot()->generation(), 2u);
  EXPECT_EQ(pipeline.snapshot()->parent_generation(), 1u);

  const auto report = pipeline.check_against(*pipeline.full_rebuild());
  EXPECT_TRUE(report.identical) << report.divergence;
  // Identical world, new generation: only the lineage stamps move.
  EXPECT_EQ(before.find("\"excluded_dns\""),
            pipeline.snapshot()->summary_json().find("\"excluded_dns\""));
}

TEST_F(DeltaPipelineTest, DomainRemoveFlowsIntoSnapshotDelta) {
  DeltaConfig config;
  config.churn.initial_inactive_fraction = 0.0;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();

  // Find a row that currently resolves, then suppress it.
  std::uint32_t victim = kVictimFallback;
  const auto published = pipeline.snapshot();
  for (std::uint32_t row = 0; row < pipeline.row_count(); ++row) {
    const auto view = published->row(row);
    if (!view.excluded_dns) {
      victim = row;
      break;
    }
  }
  ASSERT_NE(victim, kVictimFallback);

  Tick tick;
  tick.number = 1;
  tick.domain_removes.push_back(victim);
  const TickStats stats = pipeline.apply_tick(tick);

  EXPECT_GE(stats.dns_dirty_names, 1u);
  EXPECT_GE(stats.dirty_rows, 1u);
  EXPECT_GE(stats.changed_rows, 1u);
  EXPECT_TRUE(pipeline.snapshot()->delta_applied());
  EXPECT_EQ(pipeline.snapshot()->generation(), 2u);
  EXPECT_EQ(pipeline.snapshot()->parent_generation(), 1u);

  const auto record = pipeline.snapshot()->find_domain(
      std::string(eco_->plan_name(victim)));
  ASSERT_TRUE(record.has_value());
  EXPECT_TRUE(record->excluded_dns);

  const auto report = pipeline.check_against(*pipeline.full_rebuild());
  EXPECT_TRUE(report.identical) << report.divergence;
}

TEST_F(DeltaPipelineTest, InitMatchesBatchPipelineOnSameEcosystem) {
  // With no spare rows, generation 1 is exactly the world the batch
  // pipeline measures — the base the batch oracle rests on.
  DeltaConfig config;
  config.churn.initial_inactive_fraction = 0.0;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();

  core::MeasurementPipeline batch(*eco_, core::PipelineConfig{});
  const core::Dataset want = batch.run();
  const core::Dataset got = pipeline.dataset();
  EXPECT_EQ(counter_fields(got.counters), counter_fields(want.counters));
  EXPECT_TRUE(got == want);
}

TEST_F(DeltaPipelineTest, RemoveReAddRoundTripRestoresEveryCounter) {
  DeltaConfig config;
  config.churn.initial_inactive_fraction = 0.0;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();
  const core::Dataset initial_dataset = pipeline.dataset();
  const core::DomainTable& initial_rows = initial_dataset.domains;
  const core::PipelineCounters& initial = initial_dataset.counters;
  const core::reports::Figure4Tally initial_figure4 =
      pipeline.snapshot()->figure4();
  // The AS_SET term must be live, or this round trip cannot catch drift.
  ASSERT_GT(initial.as_set_entries_excluded, 0u);

  std::vector<std::uint32_t> all_rows(pipeline.row_count());
  std::iota(all_rows.begin(), all_rows.end(), 0u);
  std::uint64_t tick_number = 0;
  for (int round = 1; round <= 3; ++round) {
    Tick remove;
    remove.number = ++tick_number;
    remove.domain_removes = all_rows;
    pipeline.apply_tick(remove);
    Tick add;
    add.number = ++tick_number;
    add.domain_adds = all_rows;
    pipeline.apply_tick(add);

    // The world is back at generation 1, so every counter is too — except
    // dns_queries, which counts queries sent and only grows.
    const core::Dataset now = pipeline.dataset();
    EXPECT_GT(now.counters.dns_queries, initial.dns_queries)
        << "round " << round;
    auto got = counter_fields(now.counters);
    auto want = counter_fields(initial);
    got.erase("dns_queries");
    want.erase("dns_queries");
    EXPECT_EQ(got, want) << "round " << round;
    EXPECT_TRUE(now.domains == initial_rows) << "round " << round;
    EXPECT_TRUE(pipeline.snapshot()->figure4() == initial_figure4)
        << "round " << round;
    const auto report = pipeline.check_against(*pipeline.full_rebuild());
    ASSERT_TRUE(report.identical)
        << "round " << round << ": " << report.divergence;
  }
}

TEST_F(DeltaPipelineTest, WithdrawnPrefixCountsUntilReAnnounced) {
  DeltaConfig config;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();
  const auto withdrawn_field = [&pipeline](int count) {
    return pipeline.deltaz_json().find("\"withdrawn_prefixes\":" +
                                       std::to_string(count) + ",");
  };
  EXPECT_NE(withdrawn_field(0), std::string::npos);

  // A prefix some row's pair sits on, so both ticks re-sweep rows.
  std::optional<net::Prefix> prefix;
  const auto published = pipeline.snapshot();
  for (std::uint32_t row = 0; row < pipeline.row_count() && !prefix; ++row) {
    const auto view = published->row(row);
    if (!view.www.pairs.empty()) prefix = view.www.pairs.front().prefix;
  }
  ASSERT_TRUE(prefix.has_value());

  Tick withdraw;
  withdraw.number = 1;
  withdraw.prefix_withdraws = {*prefix, *prefix};
  TickStats stats = pipeline.apply_tick(withdraw);
  EXPECT_EQ(stats.rib_withdrawn, 1u);
  EXPECT_GE(stats.dirty_rows, 1u);
  EXPECT_NE(withdrawn_field(1), std::string::npos);
  auto report = pipeline.check_against(*pipeline.full_rebuild());
  EXPECT_TRUE(report.identical) << report.divergence;

  Tick announce;
  announce.number = 2;
  announce.prefix_announces = {*prefix, *prefix};
  stats = pipeline.apply_tick(announce);
  EXPECT_EQ(stats.rib_announced, 1u);
  EXPECT_GE(stats.dirty_rows, 1u);
  EXPECT_NE(withdrawn_field(0), std::string::npos);
  report = pipeline.check_against(*pipeline.full_rebuild());
  EXPECT_TRUE(report.identical) << report.divergence;

  // Announcing a prefix the table holds changes nothing.
  announce.number = 3;
  stats = pipeline.apply_tick(announce);
  EXPECT_EQ(stats.rib_announced, 0u);
  EXPECT_EQ(stats.dirty_rows, 0u);
}

// --- VRP fan-out: exactly the rows with a pair inside the VRP ---------------

/// Rows of `snapshot` with a www or apex pair inside one of `prefixes`,
/// counted over every row: the rows a tick whose effective VRP events
/// carry those prefixes must re-sweep.
std::size_t rows_with_pair_inside(const serve::Snapshot& snapshot,
                                  const std::vector<net::Prefix>& prefixes) {
  std::size_t rows = 0;
  for (std::uint32_t row = 0; row < snapshot.base().size(); ++row) {
    const auto record = snapshot.row(row);
    const auto inside = [&](const core::PrefixAsPair& pair) {
      return std::ranges::any_of(prefixes, [&](const net::Prefix& prefix) {
        return prefix.contains(pair.prefix);
      });
    };
    if (std::ranges::any_of(record.www.pairs, inside) ||
        std::ranges::any_of(record.apex.pairs, inside))
      ++rows;
  }
  return rows;
}

TEST_F(DeltaPipelineTest, VrpFanOutDirtiesExactlyTheRowsWithAPairInside) {
  DeltaConfig config;
  config.churn.initial_inactive_fraction = 0.0;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();
  const ChurnUniverse universe = pipeline.universe();
  const auto has_rows = [&](const rpki::Vrp& vrp) {
    return rows_with_pair_inside(*pipeline.snapshot(), {vrp.prefix}) > 0;
  };

  std::uint64_t tick_number = 0;
  // Applies a tick of VRP events only; `effective` are the prefixes of the
  // events that change the VRP set. Returns the brute-force row count.
  const auto apply = [&](Tick tick, const std::vector<net::Prefix>& effective) {
    tick.number = ++tick_number;
    const std::size_t want =
        rows_with_pair_inside(*pipeline.snapshot(), effective);
    const TickStats stats = pipeline.apply_tick(tick);
    EXPECT_EQ(stats.vrp_added + stats.vrp_removed, effective.size())
        << "tick " << tick.number;
    EXPECT_EQ(stats.dirty_rows, want) << "tick " << tick.number;
    const auto report = pipeline.check_against(*pipeline.full_rebuild());
    EXPECT_TRUE(report.identical)
        << "tick " << tick.number << ": " << report.divergence;
    return want;
  };

  // A publish from the candidates, with a repeat of itself and a revoke of
  // a VRP the set lacks: neither of those changes the set or dirties a row.
  std::vector<rpki::Vrp> candidates;
  std::ranges::copy_if(universe.candidate_vrps, std::back_inserter(candidates),
                       has_rows);
  ASSERT_GE(candidates.size(), 2u);
  const rpki::Vrp& published = candidates.front();
  const auto absent = std::ranges::find_if(candidates, [&](const rpki::Vrp& vrp) {
    return !vrp.prefix.overlaps(published.prefix);
  });
  ASSERT_NE(absent, candidates.end());
  Tick publish;
  publish.roa_publishes = {published, published};
  publish.roa_revokes = {*absent};
  EXPECT_GT(apply(publish, {published.prefix}), 0u);

  // A revoke from the initial VRPs.
  const auto revoked = std::ranges::find_if(universe.initial_vrps, has_rows);
  ASSERT_NE(revoked, universe.initial_vrps.end());
  Tick revoke;
  revoke.roa_revokes = {*revoked};
  EXPECT_GT(apply(revoke, {revoked->prefix}), 0u);

  // A VRP on a prefix the collector does not hold: a supernet of an
  // announced prefix, whose pairs all lie inside it.
  net::Prefix supernet = published.prefix;
  while (eco_->rib().entries_for(supernet) != nullptr) {
    ASSERT_GT(supernet.length(), 1);
    supernet = net::Prefix(supernet.address(), supernet.length() - 1);
  }
  Tick wide;
  wide.roa_publishes = {
      rpki::Vrp{supernet, published.max_length, net::Asn(64999)}};
  EXPECT_GT(apply(wide, {supernet}), 0u);

  // A /28 around the address a row's www name resolves to, inside one of
  // its pair prefixes: more specific than every collector prefix, so no
  // pair lies inside it.
  std::optional<net::Prefix> slash28;
  const auto current = pipeline.snapshot();
  for (std::uint32_t row = 0; row < pipeline.row_count() && !slash28; ++row) {
    const auto www = current->row(row).www;
    if (www.pairs.empty()) continue;
    const net::IpAddress addr = eco_->server_address(row, true, 0);
    if (addr.is_v4() && www.pairs.front().prefix.contains(addr))
      slash28 = net::Prefix(addr, 28);
  }
  ASSERT_TRUE(slash28.has_value());
  Tick narrow;
  narrow.roa_publishes = {rpki::Vrp{*slash28, 28, net::Asn(64999)}};
  EXPECT_EQ(apply(narrow, {*slash28}), 0u);

  // A VRP on a withdrawn more-specific: the rows with addresses inside it
  // stay filed under its node, but their pairs now sit on the covering
  // prefix, less specific than the VRP, so none of them is re-swept.
  const auto more_specific = std::ranges::find_if(
      eco_->prefixes(), [&](const web::PrefixRecord& record) {
        return record.is_more_specific &&
               eco_->rib().entries_for(record.prefix) != nullptr &&
               rows_with_pair_inside(*pipeline.snapshot(), {record.prefix}) > 0;
      });
  ASSERT_NE(more_specific, eco_->prefixes().end());
  const net::Prefix withdrawn = more_specific->prefix;
  Tick withdraw;
  withdraw.number = ++tick_number;
  withdraw.prefix_withdraws = {withdrawn};
  const TickStats withdraw_stats = pipeline.apply_tick(withdraw);
  ASSERT_EQ(withdraw_stats.rib_withdrawn, 1u);
  EXPECT_GT(withdraw_stats.changed_rows, 0u);
  Tick shadowed;
  shadowed.roa_publishes = {rpki::Vrp{
      withdrawn, static_cast<std::uint8_t>(withdrawn.length()), net::Asn(64999)}};
  EXPECT_EQ(apply(shadowed, {withdrawn}), 0u);
}

// --- the gate: ≥20-tick randomized churn, byte-identical oracle every tick ---

TEST_F(DeltaPipelineTest, TwentyTickChurnMatchesOracleEveryTick) {
  DeltaConfig config;
  config.churn.seed = 23;
  config.churn.domain_churn_fraction = 0.01;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();
  TickGenerator gen(config.churn, pipeline.universe());

  std::size_t rib_withdrawn = 0;
  std::size_t vrp_added = 0;
  std::size_t vrp_removed = 0;
  std::size_t changed_rows = 0;

  for (int i = 0; i < 20; ++i) {
    const Tick tick = gen.next();
    const TickStats stats = pipeline.apply_tick(tick);
    EXPECT_EQ(stats.generation, static_cast<std::uint64_t>(i + 2));
    EXPECT_TRUE(stats.rtr_in_sync) << "tick " << tick.number;
    // The phase laps split the apply clock, so they fit inside it.
    for (const double phase : {stats.dns_ms, stats.bgp_ms, stats.rpki_ms,
                               stats.resweep_ms, stats.publish_ms})
      EXPECT_GE(phase, 0.0) << "tick " << tick.number;
    EXPECT_LE(stats.dns_ms + stats.bgp_ms + stats.rpki_ms + stats.resweep_ms +
                  stats.publish_ms,
              stats.apply_ms)
        << "tick " << tick.number;
    EXPECT_GT(stats.publish_ms, 0.0) << "tick " << tick.number;
    rib_withdrawn += stats.rib_withdrawn;
    vrp_added += stats.vrp_added;
    vrp_removed += stats.vrp_removed;
    changed_rows += stats.changed_rows;

    const auto oracle = pipeline.full_rebuild();
    const auto report = pipeline.check_against(*oracle);
    ASSERT_TRUE(report.identical)
        << "tick " << tick.number << ": " << report.divergence;
    EXPECT_GT(report.endpoints_checked, 2u);
  }

  // The sequence must actually exercise every layer, or the oracle
  // identity is vacuous.
  EXPECT_GT(rib_withdrawn, 0u);
  EXPECT_GT(vrp_added, 0u);
  EXPECT_GT(vrp_removed, 0u);
  EXPECT_GT(changed_rows, 0u);
  EXPECT_EQ(pipeline.ticks_applied(), 20u);
  EXPECT_EQ(pipeline.history().size(), 20u);

  const std::string deltaz = pipeline.deltaz_json();
  EXPECT_NE(deltaz.find("\"ticks\":20"), std::string::npos);
  EXPECT_NE(deltaz.find("\"rtr_in_sync\":true"), std::string::npos);
  EXPECT_NE(deltaz.find("\"history\":[{"), std::string::npos);
  EXPECT_NE(deltaz.find("\"publish_ms\""), std::string::npos);
}

TEST_F(DeltaPipelineTest, FewerRanksThanDomainsStayIdenticalEveryTick) {
  // 1,200 domains over 900 ranks: every row must still answer for a name
  // of its own, so a zone event reaches exactly the row it names and each
  // tick matches a full rebuild.
  web::EcosystemConfig world = small_config();
  world.rank_space = 900;
  const auto eco = web::Ecosystem::generate(world);
  DeltaConfig config;
  config.churn.seed = 5;
  config.churn.domain_churn_fraction = 0.05;
  IncrementalPipeline pipeline(*eco, config);
  pipeline.init();
  const auto init_report = pipeline.check_against(*pipeline.full_rebuild());
  ASSERT_TRUE(init_report.identical) << "init: " << init_report.divergence;

  TickGenerator gen(config.churn, pipeline.universe());
  std::size_t dns_dirty_names = 0;
  for (int i = 0; i < 10; ++i) {
    const Tick tick = gen.next();
    dns_dirty_names += pipeline.apply_tick(tick).dns_dirty_names;
    const auto report = pipeline.check_against(*pipeline.full_rebuild());
    ASSERT_TRUE(report.identical)
        << "tick " << tick.number << ": " << report.divergence;
  }
  EXPECT_GT(dns_dirty_names, 0u);
}

TEST_F(DeltaPipelineTest, HeavyChurnCompactsAndStaysIdentical) {
  DeltaConfig config;
  config.churn.seed = 31;
  config.churn.domain_churn_fraction = 0.20;  // 240 rows/tick vs 1200 rows
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();
  TickGenerator gen(config.churn, pipeline.universe());

  bool compacted = false;
  for (int i = 0; i < 6; ++i) {
    const TickStats stats = pipeline.apply_tick(gen.next());
    if (stats.compacted) {
      compacted = true;
      EXPECT_EQ(stats.overlay_size, 0u);
      EXPECT_FALSE(pipeline.snapshot()->delta_applied());
    }
    const auto report = pipeline.check_against(*pipeline.full_rebuild());
    ASSERT_TRUE(report.identical) << "tick " << i + 1 << ": " << report.divergence;
  }
  EXPECT_TRUE(compacted);
  EXPECT_GT(pipeline.compactions(), 0u);
}

TEST_F(DeltaPipelineTest, ReadersRenderPublishedSnapshotsWhileTicking) {
  // Every tick withdraws, announces and refreezes the RIB and rebuilds the
  // VRP index, while reader threads render from the snapshots that share
  // those objects. Snapshots reach the readers through a mutex-guarded
  // shared_ptr.
  DeltaConfig config;
  config.churn.seed = 43;
  config.churn.domain_churn_fraction = 0.02;
  config.churn.prefix_withdraws_per_tick = 4;
  config.churn.prefix_announces_per_tick = 4;
  config.churn.roa_publishes_per_tick = 4;
  config.churn.roa_revokes_per_tick = 2;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();
  const ChurnUniverse universe = pipeline.universe();
  TickGenerator gen(config.churn, universe);
  std::vector<net::Prefix> prefixes;
  for (std::size_t i = 0; i < universe.announced_prefixes.size(); i += 7)
    prefixes.push_back(universe.announced_prefixes[i]);

  const auto render = [&](const serve::Snapshot& snapshot) {
    std::string bodies = snapshot.summary_json();
    for (const net::Prefix& prefix : prefixes) {
      bodies += snapshot.ip_json(prefix.address());
      bodies += snapshot.prefix_json(prefix, net::Asn(64999));
    }
    return bodies;
  };
  const std::shared_ptr<const serve::Snapshot> first = pipeline.snapshot();
  const std::string first_bodies = render(*first);

  std::mutex mu;
  std::shared_ptr<const serve::Snapshot> published = first;
  std::atomic<bool> done{false};
  std::atomic<std::size_t> renders{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_generation = 0;
      while (!done.load()) {
        std::shared_ptr<const serve::Snapshot> snapshot;
        {
          const std::lock_guard<std::mutex> lock(mu);
          snapshot = published;
        }
        EXPECT_GE(snapshot->generation(), last_generation);
        last_generation = snapshot->generation();
        EXPECT_FALSE(render(*snapshot).empty());
        renders.fetch_add(1);
      }
    });
  }

  std::size_t rib_ticks = 0;
  std::size_t vrp_ticks = 0;
  for (int i = 0; i < 12; ++i) {
    const TickStats stats = pipeline.apply_tick(gen.next());
    rib_ticks += stats.rib_changed ? 1 : 0;
    vrp_ticks += stats.vrps_changed ? 1 : 0;
    const std::lock_guard<std::mutex> lock(mu);
    published = pipeline.snapshot();
  }
  done.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_GT(rib_ticks, 0u);
  EXPECT_GT(vrp_ticks, 0u);
  EXPECT_GT(renders.load(), 0u);
  // A held snapshot renders what it rendered before the world moved on.
  EXPECT_EQ(render(*first), first_bodies);
  EXPECT_NE(render(*pipeline.snapshot()), first_bodies);
  const auto report = pipeline.check_against(*pipeline.full_rebuild());
  EXPECT_TRUE(report.identical) << report.divergence;
}

TEST_F(DeltaPipelineTest, HeldGenerationServesTheSameAcrossACompaction) {
  // A reader holds a generation whose overlay spans three segments, one
  // row changed in two of them, over the base the first compaction built.
  // The pipeline then ticks past the next compaction, which drops every
  // other snapshot sharing those segments and that base; the held one
  // must still serve every row as it did.
  DeltaConfig config;
  config.churn.seed = 37;
  config.churn.domain_churn_fraction = 0.20;
  IncrementalPipeline pipeline(*eco_, config);
  pipeline.init();
  TickGenerator gen(config.churn, pipeline.universe());
  while (!pipeline.apply_tick(gen.next()).compacted) {
  }

  // Three rows that resolve www; a retarget rewrites that variant.
  std::vector<std::uint32_t> rows;
  const auto compacted = pipeline.snapshot();
  for (std::uint32_t row = 0; row < pipeline.row_count() && rows.size() < 3;
       ++row) {
    if (compacted->row(row).www.resolved) rows.push_back(row);
  }
  ASSERT_EQ(rows.size(), 3u);
  const std::vector<std::vector<std::uint32_t>> retargets = {
      {rows[0]}, {rows[0], rows[1]}, {rows[2]}};
  for (std::size_t i = 0; i < retargets.size(); ++i) {
    Tick tick;
    tick.number = 1'000 + i;
    tick.cname_retargets = retargets[i];
    const TickStats stats = pipeline.apply_tick(tick);
    ASSERT_FALSE(stats.compacted);
    EXPECT_EQ(stats.changed_rows, retargets[i].size()) << "retarget " << i;
  }
  const std::shared_ptr<const serve::Snapshot> held = pipeline.snapshot();
  // Four row copies in three segments, three distinct rows.
  EXPECT_EQ(held->overlay_size(), 3u);
  ASSERT_TRUE(pipeline.check_against(*pipeline.full_rebuild()).identical);

  const auto render_held = [&] {
    std::vector<std::string> bodies;
    for (std::size_t row = 0; row < pipeline.row_count(); ++row) {
      const auto record = held->find_domain(eco_->plan_name(row));
      bodies.push_back(record ? serve::Snapshot::render_domain_json(
                                    *record, held->generation())
                              : "absent");
    }
    return bodies;
  };
  const std::vector<std::string> before = render_held();
  const core::Dataset dataset = pipeline.dataset();
  for (std::size_t row = 0; row < pipeline.row_count(); ++row) {
    ASSERT_EQ(before[row], serve::Snapshot::render_domain_json(
                               dataset.domains.view(row), held->generation()))
        << "row " << row;
  }

  while (!pipeline.apply_tick(gen.next()).compacted) {
  }
  (void)pipeline.apply_tick(gen.next());
  ASSERT_GT(pipeline.generation(), held->generation() + 1);
  EXPECT_EQ(held->overlay_size(), 3u);
  const std::vector<std::string> after = render_held();
  for (std::size_t row = 0; row < pipeline.row_count(); ++row) {
    EXPECT_EQ(after[row], before[row]) << "row " << row;
  }
}

}  // namespace
}  // namespace ripki::delta
