// Microbenchmarks for every substrate the pipeline is built on: prefix
// trie and frozen-image lookups, SHA-256/RSA, repository validation, RFC
// 6811 origin validation, the DNS and MRT codecs, RTR synchronisation, the
// string interner, and the end-to-end per-domain cost of the measurement
// pipeline.
//
// Not a paper artifact — performance context for DESIGN.md and regression
// tracking.
#include <benchmark/benchmark.h>

#include "bgp/mrt.hpp"
#include "bgp/rib.hpp"
#include "bgp/topology.hpp"
#include "bgp/update.hpp"
#include "core/pipeline.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/uint256.hpp"
#include "dns/resolver.hpp"
#include "rpki/rrdp.hpp"
#include "rpki/validator.hpp"
#include "rtr/client.hpp"
#include "trie/prefix_trie.hpp"
#include "util/interner.hpp"
#include "util/prng.hpp"
#include "web/ecosystem.hpp"
#include "web/names.hpp"

namespace {

using namespace ripki;

// --- trie -------------------------------------------------------------------

trie::PrefixTrie<int> build_trie(std::size_t prefixes, util::Prng& prng) {
  trie::PrefixTrie<int> trie;
  for (std::size_t i = 0; i < prefixes; ++i) {
    const int length = 12 + static_cast<int>(prng.uniform(13));
    trie.insert(net::Prefix(net::IpAddress::v4(
                                static_cast<std::uint32_t>(prng.next_u64())),
                            length),
                static_cast<int>(i));
  }
  return trie;
}

void BM_TrieLongestMatch(benchmark::State& state) {
  util::Prng prng(1);
  const auto trie = build_trie(static_cast<std::size_t>(state.range(0)), prng);
  util::Prng query_prng(2);
  for (auto _ : state) {
    const auto addr =
        net::IpAddress::v4(static_cast<std::uint32_t>(query_prng.next_u64()));
    benchmark::DoNotOptimize(trie.longest_match(addr));
  }
}
BENCHMARK(BM_TrieLongestMatch)->Arg(1'000)->Arg(30'000)->Arg(300'000);

void BM_TrieCovering(benchmark::State& state) {
  util::Prng prng(1);
  const auto trie = build_trie(30'000, prng);
  util::Prng query_prng(2);
  for (auto _ : state) {
    const auto addr =
        net::IpAddress::v4(static_cast<std::uint32_t>(query_prng.next_u64()));
    benchmark::DoNotOptimize(trie.covering(addr));
  }
}
BENCHMARK(BM_TrieCovering);

void BM_FrozenDeepestCovering(benchmark::State& state) {
  // The walk the sweep's covering cache and the delta pipeline's reverse
  // indices key on: the frozen image of a RIB over BM_TrieCovering's
  // prefixes, queried with the same random addresses.
  util::Prng prng(1);
  bgp::Rib rib;
  for (std::uint32_t i = 0; i < 30'000; ++i) {
    const int length = 12 + static_cast<int>(prng.uniform(13));
    rib.add(bgp::RibEntry{
        .prefix = net::Prefix(
            net::IpAddress::v4(static_cast<std::uint32_t>(prng.next_u64())),
            length),
        .as_path = bgp::AsPath::sequence({3320, 64000 + i % 999})});
  }
  rib.freeze();
  const auto image = rib.image();
  util::Prng query_prng(2);
  for (auto _ : state) {
    const auto addr =
        net::IpAddress::v4(static_cast<std::uint32_t>(query_prng.next_u64()));
    benchmark::DoNotOptimize(image->deepest_covering(addr));
  }
}
BENCHMARK(BM_FrozenDeepestCovering);

// --- crypto ------------------------------------------------------------------

void BM_Sha256(benchmark::State& state) {
  const std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)),
                                       0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1'024)->Arg(65'536);

// The two modexp cores over the same 256-bit odd modulus and long
// exponent: the division-based binary ladder (reference) against the
// Montgomery fixed-window ladder that RSA verify/sign dispatch to.
crypto::U256 modexp_bench_modulus() {
  util::Prng prng(31);
  crypto::U256 m = crypto::U256::random_bits(prng, 256);
  if (!m.is_odd()) m = m.add(crypto::U256(1));
  return m;
}

void BM_ModexpSchoolbook(benchmark::State& state) {
  util::Prng prng(32);
  const crypto::U256 m = modexp_bench_modulus();
  const crypto::U256 base = crypto::U256::random_below(prng, m);
  const crypto::U256 exp = crypto::U256::random_bits(prng, 255);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::U256::modexp_schoolbook(base, exp, m));
  }
}
BENCHMARK(BM_ModexpSchoolbook);

void BM_Modexp(benchmark::State& state) {
  util::Prng prng(32);
  const crypto::U256 m = modexp_bench_modulus();
  const crypto::U256 base = crypto::U256::random_below(prng, m);
  const crypto::U256 exp = crypto::U256::random_bits(prng, 255);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::U256::modexp(base, exp, m));
  }
}
BENCHMARK(BM_Modexp);

// divmod at its two shapes: a 256-bit dividend over a 128-bit divisor
// (shift-and-subtract over the quotient's 129 bits) and over a one-limb
// divisor (four word divisions, the prime search's sieve).
void BM_DivMod(benchmark::State& state) {
  util::Prng prng(34);
  const crypto::U256 a = crypto::U256::random_bits(prng, 256);
  const crypto::U256 d =
      crypto::U256::random_bits(prng, static_cast<int>(state.range(0)));
  crypto::U256 rem;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::U256::divmod(a, d, &rem));
    benchmark::DoNotOptimize(rem);
  }
}
BENCHMARK(BM_DivMod)->ArgName("divisor_bits")->Arg(128)->Arg(64);

// The private exponent's step of key generation: 65537 inverted modulo a
// 256-bit even phi, as generate_keypair calls it.
void BM_ModInv(benchmark::State& state) {
  util::Prng prng(36);
  const crypto::U256 e(65537);
  crypto::U256 phi;
  do {
    phi = crypto::U256::random_bits(prng, 256);
    if (phi.is_odd()) phi = phi.sub(crypto::U256(1));
  } while (crypto::U256::gcd(e, phi) != crypto::U256(1));
  crypto::U256 d;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::U256::modinv(e, phi, d));
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_ModInv);

// One 128-bit prime per iteration, drawn from one stream: the mean cost of
// the prime search (sieve and Miller-Rabin) over the primes of seed 35.
void BM_GeneratePrime(benchmark::State& state) {
  util::Prng prng(35);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::generate_prime(prng, 128));
  }
}
BENCHMARK(BM_GeneratePrime);

void BM_RsaKeygen(benchmark::State& state) {
  util::Prng prng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::generate_keypair(prng));
  }
}
BENCHMARK(BM_RsaKeygen);

void BM_RsaSign(benchmark::State& state) {
  util::Prng prng(4);
  const auto keys = crypto::generate_keypair(prng);
  const std::vector<std::uint8_t> message(256, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign(keys.priv, message));
  }
}
BENCHMARK(BM_RsaSign);

void BM_RsaVerify(benchmark::State& state) {
  util::Prng prng(5);
  const auto keys = crypto::generate_keypair(prng);
  const std::vector<std::uint8_t> message(256, 0x5A);
  const auto sig = crypto::sign(keys.priv, message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::verify(keys.pub, message, sig));
  }
}
BENCHMARK(BM_RsaVerify);

// --- string interner -----------------------------------------------------------

// The interner at the sweep's scale: 100k distinct domain-like names into
// a fresh interner (every table doubling included), then lookups of one
// interned name and of one never interned.
std::vector<std::string> interner_bench_names() {
  std::vector<std::string> names;
  names.reserve(100'000);
  for (std::uint64_t rank = 1; rank <= 100'000; ++rank) {
    names.push_back(web::domain_name_for_rank(7, rank * 10));
  }
  return names;
}

void BM_InternerIntern(benchmark::State& state) {
  const std::vector<std::string> names = interner_bench_names();
  for (auto _ : state) {
    util::StringInterner interner;
    for (const std::string& name : names) {
      benchmark::DoNotOptimize(interner.intern(name));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(names.size()));
}
BENCHMARK(BM_InternerIntern)->Unit(benchmark::kMillisecond);

void BM_InternerFind(benchmark::State& state) {
  const std::vector<std::string> names = interner_bench_names();
  util::StringInterner interner;
  for (const std::string& name : names) interner.intern(name);
  const std::string hit = names[names.size() / 2];
  const std::string miss = "www." + hit;
  const std::string& probe = state.range(0) != 0 ? hit : miss;
  for (auto _ : state) {
    benchmark::DoNotOptimize(interner.find(probe));
  }
}
BENCHMARK(BM_InternerFind)->ArgName("hit")->Arg(1)->Arg(0);

// --- RPKI validation -----------------------------------------------------------

void BM_RepositoryValidation(benchmark::State& state) {
  util::Prng prng(6);
  auto anchor = rpki::make_trust_anchor(
      "RIPE",
      rpki::ResourceSet({net::Prefix::parse("62.0.0.0/8").value()}),
      rpki::ValidityWindow{0, 2'000'000'000}, prng);
  rpki::RepositoryBuilder builder(anchor, rpki::kDefaultNow, prng);
  for (int ca_index = 0; ca_index < 16; ++ca_index) {
    const auto base = 62u << 24 | static_cast<std::uint32_t>(ca_index) << 16;
    const net::Prefix prefix(net::IpAddress::v4(base), 16);
    const auto ca = builder.add_ca("Org " + std::to_string(ca_index),
                                   rpki::ResourceSet({prefix}));
    rpki::RoaContent content;
    content.asn = net::Asn(64500u + static_cast<std::uint32_t>(ca_index));
    content.prefixes = {rpki::RoaPrefix{prefix, 20}};
    builder.add_roa(ca, content);
  }
  const rpki::Repository repo = builder.build();
  const rpki::RepositoryValidator validator(rpki::kDefaultNow);
  for (auto _ : state) {
    rpki::ValidationReport report;
    validator.validate_into(repo, report);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(state.iterations() * 16);  // ROAs per pass
}
BENCHMARK(BM_RepositoryValidation);

void BM_OriginValidation(benchmark::State& state) {
  util::Prng prng(7);
  rpki::VrpIndex index;
  for (int i = 0; i < 20'000; ++i) {
    const int length = 12 + static_cast<int>(prng.uniform(13));
    index.add(rpki::Vrp{
        net::Prefix(net::IpAddress::v4(static_cast<std::uint32_t>(prng.next_u64())),
                    length),
        static_cast<std::uint8_t>(length + 2),
        net::Asn(static_cast<std::uint32_t>(64000 + prng.uniform(1000)))});
  }
  util::Prng query_prng(8);
  for (auto _ : state) {
    const net::Prefix route(
        net::IpAddress::v4(static_cast<std::uint32_t>(query_prng.next_u64())), 24);
    benchmark::DoNotOptimize(
        index.validate(route, net::Asn(64500)));
  }
}
BENCHMARK(BM_OriginValidation);

// --- DNS codec -------------------------------------------------------------------

void BM_DnsEncodeDecode(benchmark::State& state) {
  dns::Message m;
  m.id = 1;
  m.is_response = true;
  const auto name = dns::DnsName::parse("www.lunarforge12345.com-web").value();
  m.questions.push_back(dns::Question{name, dns::RecordType::kA});
  for (int i = 0; i < 4; ++i) {
    m.answers.push_back(dns::ResourceRecord::a(
        name, net::IpAddress::v4(23, 1, 2, static_cast<std::uint8_t>(i))));
  }
  for (auto _ : state) {
    const auto bytes = dns::encode(m);
    auto decoded = dns::decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DnsEncodeDecode);

// Per-layer rows: encode, decode, zone lookup and resolve, each on the
// sweep's own shapes, so a DNS gain can be attributed to a layer.

/// A response of the sweep's two shapes: `a_records` = 0 is a question
/// plus one CNAME answer (www.<d> -> d1-w-1.edgesuite.net), otherwise a
/// question plus that many A answers at the chain's end.
dns::Message sweep_response(std::int64_t a_records) {
  const auto www = dns::DnsName::parse("www.lunarforge12345.com-web").value();
  const auto edge = dns::DnsName::parse("d1-w-1.edgesuite.net").value();
  dns::Message m;
  m.id = 1;
  m.is_response = true;
  m.authoritative = true;
  if (a_records == 0) {
    m.questions.push_back(dns::Question{www, dns::RecordType::kA});
    m.answers.push_back(dns::ResourceRecord::cname(www, edge));
    return m;
  }
  m.questions.push_back(dns::Question{edge, dns::RecordType::kA});
  for (std::int64_t i = 0; i < a_records; ++i) {
    m.answers.push_back(dns::ResourceRecord::a(
        edge, net::IpAddress::v4(23, 1, 2, static_cast<std::uint8_t>(i))));
  }
  return m;
}

void BM_DnsEncode(benchmark::State& state) {
  const dns::Message m = sweep_response(state.range(0));
  util::Bytes out;
  for (auto _ : state) {
    dns::encode_into(m, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DnsEncode)->ArgName("a_records")->Arg(0)->Arg(3);

void BM_DnsDecode(benchmark::State& state) {
  const util::Bytes bytes = dns::encode(sweep_response(state.range(0)));
  dns::Message scratch;
  for (auto _ : state) {
    auto decoded = dns::decode_into(bytes, scratch);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DnsDecode)->ArgName("a_records")->Arg(0)->Arg(3);

/// The sweep's chain shape in memory: www.<d> CNAME d1-w-1.edgesuite.net,
/// which holds three A records.
dns::InMemoryZoneDb sweep_chain_zone() {
  const auto www = dns::DnsName::parse("www.lunarforge12345.com-web").value();
  const auto edge = dns::DnsName::parse("d1-w-1.edgesuite.net").value();
  dns::InMemoryZoneDb zone;
  zone.add(dns::ResourceRecord::cname(www, edge));
  for (std::uint8_t i = 0; i < 3; ++i) {
    zone.add(dns::ResourceRecord::a(edge, net::IpAddress::v4(23, 1, 2, i)));
  }
  return zone;
}

void BM_DnsZoneLookup(benchmark::State& state) {
  const dns::InMemoryZoneDb zone = sweep_chain_zone();
  const auto edge = dns::DnsName::parse("d1-w-1.edgesuite.net").value();
  std::vector<dns::ResourceRecord> records;
  for (auto _ : state) {
    dns::RecordSink sink(records);
    benchmark::DoNotOptimize(zone.answer(edge, dns::RecordType::kA, sink));
    sink.trim();
    benchmark::DoNotOptimize(records.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_DnsZoneLookup);

/// resolve_all of www.<d>, as the sweep calls it (into the resolver's
/// scratch): A and AAAA, each chased through the CNAME (4 queries).
void BM_DnsResolve(benchmark::State& state) {
  const dns::InMemoryZoneDb zone = sweep_chain_zone();
  const dns::AuthoritativeServer server(&zone);
  dns::StubResolver resolver(&server);
  const auto www = dns::DnsName::parse("www.lunarforge12345.com-web").value();
  for (auto _ : state) {
    auto resolution = resolver.resolve_all_scratch(www);
    benchmark::DoNotOptimize(resolution);
  }
}
BENCHMARK(BM_DnsResolve);

/// A small world for the benches that run over generated domains: 2,000
/// domains over a reduced AS population.
web::EcosystemConfig small_world_config() {
  web::EcosystemConfig config;
  config.domain_count = 2'000;
  config.isp_count = 300;
  config.hoster_count = 80;
  config.enterprise_count = 300;
  config.transit_count = 40;
  return config;
}

/// resolve_all over the sweep's own zone: the www and apex names of a
/// generated world, round-robin, so every query pays the ecosystem zone's
/// name parse and plan lookup that an in-memory zone never does.
void BM_DnsResolveEcosystem(benchmark::State& state) {
  const auto ecosystem = web::Ecosystem::generate(small_world_config());
  const dns::AuthoritativeServer server(&ecosystem->zone_source(web::Vantage::kBerlin));
  dns::StubResolver resolver(&server);
  std::vector<dns::DnsName> names;
  for (std::size_t i = 0; i < ecosystem->domain_count(); ++i) {
    const auto apex = dns::DnsName::parse(ecosystem->plan_name(i)).value();
    names.push_back(apex.prepended("www"));
    names.push_back(apex);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    auto resolution = resolver.resolve_all_scratch(names[next]);
    benchmark::DoNotOptimize(resolution);
    if (++next == names.size()) next = 0;
  }
  state.counters["queries_per_resolve"] = benchmark::Counter(
      static_cast<double>(resolver.queries_sent()) /
      static_cast<double>(state.iterations()));
}
BENCHMARK(BM_DnsResolveEcosystem);

// --- MRT --------------------------------------------------------------------------

void BM_MrtParse(benchmark::State& state) {
  util::Prng prng(9);
  bgp::RouteCollector collector(1, "bench");
  const auto peer = collector.add_peer(
      bgp::PeerEntry{1, net::IpAddress::v4(192, 0, 2, 1), net::Asn(3320)});
  for (int i = 0; i < 10'000; ++i) {
    collector.announce(
        peer,
        net::Prefix(net::IpAddress::v4(static_cast<std::uint32_t>(prng.next_u64())),
                    20),
        bgp::AsPath::sequence({3320, 1299,
                               static_cast<std::uint32_t>(64000 + prng.uniform(999))}),
        0);
  }
  const util::Bytes dump = collector.dump_mrt(0);
  for (auto _ : state) {
    auto rib = bgp::mrt::read_table_dump(dump);
    benchmark::DoNotOptimize(rib);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(dump.size()));
}
BENCHMARK(BM_MrtParse);

// --- RTR ---------------------------------------------------------------------------

void BM_RtrFullSync(benchmark::State& state) {
  util::Prng prng(10);
  rpki::VrpSet vrps;
  for (int i = 0; i < state.range(0); ++i) {
    vrps.push_back(rpki::Vrp{
        net::Prefix(net::IpAddress::v4(static_cast<std::uint32_t>(prng.next_u64())),
                    20),
        24, net::Asn(static_cast<std::uint32_t>(64000 + i))});
  }
  rtr::CacheServer cache(9, vrps);
  for (auto _ : state) {
    rtr::RouterClient client;
    benchmark::DoNotOptimize(client.reset_sync(cache));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RtrFullSync)->Arg(1'000)->Arg(10'000);

// --- BGP UPDATE codec ---------------------------------------------------------------

void BM_BgpUpdateCodec(benchmark::State& state) {
  bgp::UpdateMessage update;
  update.as_path = bgp::AsPath::sequence({3320, 1299, 15169});
  update.next_hop = net::IpAddress::v4(192, 0, 2, 1);
  for (int i = 0; i < 8; ++i) {
    update.nlri.push_back(net::Prefix(
        net::IpAddress::v4(0x0A000000u + (static_cast<std::uint32_t>(i) << 16)), 20));
  }
  for (auto _ : state) {
    auto bytes = bgp::encode_update(update);
    util::ByteReader reader(bytes.value());
    benchmark::DoNotOptimize(bgp::decode_update(reader));
  }
}
BENCHMARK(BM_BgpUpdateCodec);

// --- RRDP ------------------------------------------------------------------------

void BM_RrdpSnapshotSync(benchmark::State& state) {
  util::Prng prng(11);
  auto anchor = rpki::make_trust_anchor(
      "RIPE", rpki::ResourceSet({net::Prefix::parse("62.0.0.0/8").value()}),
      rpki::ValidityWindow{0, 4'000'000'000LL}, prng);
  rpki::RepositoryBuilder builder(anchor, rpki::kDefaultNow, prng);
  for (int i = 0; i < 16; ++i) {
    const auto base = 62u << 24 | static_cast<std::uint32_t>(i) << 16;
    const net::Prefix prefix(net::IpAddress::v4(base), 16);
    const auto ca = builder.add_ca("Org " + std::to_string(i),
                                   rpki::ResourceSet({prefix}));
    rpki::RoaContent content;
    content.asn = net::Asn(64500u + static_cast<std::uint32_t>(i));
    content.prefixes = {rpki::RoaPrefix{prefix, 20}};
    builder.add_roa(ca, content);
  }
  const rpki::RrdpServer server("bench", builder.build());
  for (auto _ : state) {
    rpki::RrdpClient client;
    benchmark::DoNotOptimize(client.sync(server));
    benchmark::DoNotOptimize(client.assemble());
  }
}
BENCHMARK(BM_RrdpSnapshotSync);

// --- policy propagation -------------------------------------------------------------

void BM_TopologyPropagation(benchmark::State& state) {
  bgp::TopologyConfig config;
  config.tier1_count = 10;
  config.transit_count = 150;
  config.edge_count = static_cast<int>(state.range(0));
  const auto topology = bgp::AsTopology::generate(config);
  bgp::PropagationSim sim(topology, nullptr);
  const bgp::Announcement announcement{
      net::Prefix::parse("208.65.152.0/22").value(),
      static_cast<std::uint32_t>(topology.as_count() - 5)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.propagate(announcement));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(topology.as_count()));
}
BENCHMARK(BM_TopologyPropagation)->Arg(2'000)->Arg(10'000)->Unit(benchmark::kMillisecond);

// --- end-to-end pipeline -------------------------------------------------------------

void BM_PipelinePerDomain(benchmark::State& state) {
  const web::EcosystemConfig config = small_world_config();
  const auto ecosystem = web::Ecosystem::generate(config);
  for (auto _ : state) {
    core::MeasurementPipeline pipeline(*ecosystem, core::PipelineConfig{});
    benchmark::DoNotOptimize(pipeline.run());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(config.domain_count));
}
BENCHMARK(BM_PipelinePerDomain)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
