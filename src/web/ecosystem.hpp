// Synthetic web ecosystem: the simulation substrate standing in for the
// 2014/15 Internet the paper measured (Alexa 1M ranking, DNS hosting
// infrastructure, the global BGP table, and the five RIR RPKI trees).
//
// Everything is generated deterministically from a seed, with calibration
// knobs (EcosystemConfig) chosen so the *rank-conditioned structure* the
// paper measures — CDN share falling with rank, per-category RPKI
// deployment, www/apex divergence, misconfigured ROAs — is reproduced.
// DESIGN.md §5 documents the calibration targets.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bgp/collector.hpp"
#include "dns/zone.hpp"
#include "net/prefix.hpp"
#include "rpki/repository.hpp"
#include "rpki/tal.hpp"
#include "util/interner.hpp"
#include "util/prng.hpp"
#include "web/as_registry.hpp"
#include "web/cdn.hpp"

namespace ripki::web {

/// Resolver vantage points. Berlin is the paper's measurement point;
/// Redwood City is HTTPArchive's.
enum class Vantage : std::uint8_t { kBerlin = 0, kRedwoodCity = 1 };

inline constexpr std::uint8_t kNoCdn = 0xFF;

struct EcosystemConfig {
  std::uint64_t seed = 42;

  /// Number of generated domains; their ranks are spread uniformly over
  /// [1, rank_space] so experiments can subsample the Alexa-1M rank axis.
  /// A domain's name embeds its rank, so Ecosystem::generate raises
  /// rank_space to domain_count when it is smaller: every domain gets a
  /// rank, and so a name, of its own. config() reports the raised value.
  std::uint64_t domain_count = 200'000;
  std::uint64_t rank_space = 1'000'000;

  // AS population by category.
  std::uint64_t tier1_count = 12;
  std::uint64_t transit_count = 300;
  std::uint64_t isp_count = 3'000;
  std::uint64_t hoster_count = 800;
  std::uint64_t enterprise_count = 4'000;

  // RPKI participation probability by operator category (cf. §4.2: ISPs
  // and webhosters ">5%"; CDNs none except Internap).
  double tier1_roa_probability = 0.50;
  double transit_roa_probability = 0.10;
  double isp_roa_probability = 0.082;
  double hoster_roa_probability = 0.064;
  double enterprise_roa_probability = 0.034;

  /// Probability that an issued ROA keeps maxLength at the allocation
  /// length even though a more-specific is announced (-> RFC 6811 invalid;
  /// the paper's "invalid announcements ... rather potential
  /// misconfiguration").
  double roa_maxlen_misconfig_probability = 0.30;

  /// Per-prefix probability of an additional announcement with a wrong
  /// origin AS (fat-finger leaks; invalid when the prefix has a ROA).
  double wrong_origin_fraction = 0.003;

  /// Per-prefix probability of an extra table entry whose AS path ends in
  /// an AS_SET (excluded by methodology step 3 per RFC 6472).
  double as_set_fraction = 0.003;

  /// Probability a prefix also announces a more-specific subprefix.
  double more_specific_fraction = 0.22;

  // CDN adoption by rank: p(rank) = tail + (top-tail)*exp(-rank/decay).
  double cdn_share_top = 0.58;
  double cdn_share_tail = 0.10;
  double cdn_share_decay = 150'000.0;

  /// Of CDN-served domains: fraction reached via a >=2-hop CNAME chain
  /// (detected by the paper's heuristic), via a single CNAME (detected
  /// only by pattern matching), or via direct A records (neither).
  double cdn_chain_fraction = 0.80;
  double cdn_single_cname_fraction = 0.15;

  /// Probability a CDN-served www domain also serves its apex from the
  /// CDN (otherwise the apex stays on origin hosting).
  double apex_on_cdn_probability = 0.75;

  /// Global multiplier on every CDN's third-party cache placement
  /// fraction. 0 disables the §4.2 "inherit RPKI from the eyeball ISP"
  /// mechanism entirely; used by the ablation harness.
  double cdn_third_party_scale = 1.0;

  /// Non-CDN domains using a >=2-hop hosting-platform chain (false
  /// positives of the chain heuristic; kept small — the heuristic is a
  /// conservative under-estimate in the paper).
  double hoster_chain_fraction = 0.004;

  /// Non-CDN domains whose www is a single CNAME onto hosting-platform
  /// names (very common aliasing; this is why the paper requires TWO OR
  /// MORE indirections — a 1-hop threshold would flood the classifier
  /// with false positives).
  double single_cname_alias_fraction = 0.12;

  // www/apex infrastructure divergence by rank (drives Figure 3).
  double split_top = 0.12;
  double split_tail = 0.012;
  double split_decay = 200'000.0;

  /// Fraction of domains whose DNS answers are special-purpose garbage
  /// (the paper's 0.07% "incorrect DNS answers").
  double invalid_dns_fraction = 0.0007;

  /// Fraction of servers placed in allocated-but-never-announced space
  /// (the paper's 0.01% of addresses "not reachable from our BGP vantage
  /// points").
  double unrouted_fraction = 0.0001;

  /// Fraction of domains with AAAA glue in addition to A records.
  double ipv6_fraction = 0.15;

  // DNSSEC adoption by rank (the paper's stated future work: "compare RPKI
  // deployment with the adoption of other core protocols such as DNSSEC").
  // 2014/15 signing rates were low overall and slightly higher outside the
  // most popular ranks.
  double dnssec_top = 0.010;
  double dnssec_tail = 0.022;
  double dnssec_decay = 250'000.0;

  /// Collector peers (RIS route servers peer with many ASes; three is
  /// enough to exercise multi-peer tables).
  int collector_peers = 3;

  rpki::Timestamp now = rpki::kDefaultNow;
};

/// One allocated prefix.
struct PrefixRecord {
  net::Prefix prefix;
  std::uint32_t owner_as = 0;         // AsRegistry index
  std::int32_t more_specific_id = -1; // child PrefixRecord, or -1
  bool announced = true;
  bool is_more_specific = false;
};

/// Hosting of one name variant (www or apex).
struct HostVariant {
  std::array<std::uint32_t, 4> prefix_ids{};
  std::uint8_t server_count = 0;
  /// CNAME indirections before the address records (0 = direct).
  std::uint8_t chain_hops = 0;
  bool on_cdn = false;
};

struct DomainPlan {
  std::uint32_t rank = 0;
  std::uint8_t cdn_id = kNoCdn;
  bool invalid_dns = false;
  bool has_ipv6 = false;
  bool dnssec_signed = false;
  HostVariant www;
  HostVariant apex;
};

class Ecosystem {
 public:
  /// Builds the full world: ASes, prefixes, BGP table, RPKI repositories,
  /// and domain hosting plans. Deterministic in `config`.
  static std::unique_ptr<Ecosystem> generate(const EcosystemConfig& config);

  ~Ecosystem();

  const EcosystemConfig& config() const { return config_; }
  const AsRegistry& registry() const { return registry_; }
  const std::vector<rpki::TrustAnchor>& trust_anchors() const { return anchors_; }
  const std::vector<rpki::Repository>& repositories() const { return repositories_; }

  /// Trust anchor locators for the five RIRs (relying-party bootstrap).
  std::vector<rpki::TrustAnchorLocator> tals() const;
  const bgp::Rib& rib() const { return collector_->rib(); }

  /// RIS-style MRT TABLE_DUMP_V2 snapshot of the collector table. The
  /// table never changes after generate(), so the first call serialises
  /// it and every call returns those bytes (safe from any thread).
  const util::Bytes& mrt_dump() const;

  /// DNS view from a vantage point (drives an AuthoritativeServer).
  const dns::ZoneSource& zone_source(Vantage vantage) const;

  std::size_t domain_count() const { return plans_.size(); }
  const DomainPlan& plan(std::size_t index) const { return plans_[index]; }
  /// Apex name of plan `index`, e.g. "lunarforge481.com-web" (view into
  /// the ecosystem's interner; valid for the ecosystem's lifetime).
  std::string_view plan_name(std::size_t index) const {
    return names_.view(static_cast<util::StringInterner::Id>(index));
  }
  /// Index of the plan whose apex name is `apex`, if any.
  std::optional<std::uint32_t> find_plan(std::string_view apex) const {
    const util::StringInterner::Id id = names_.find(apex);
    if (id == util::StringInterner::kNotFound) return std::nullopt;
    return id;
  }
  const std::vector<PrefixRecord>& prefixes() const { return prefixes_; }

  /// Ground-truth CDN usage (for classifier evaluation in tests).
  bool domain_uses_cdn(std::size_t index) const {
    return plans_[index].cdn_id != kNoCdn;
  }

  /// ASes operated by CDN `profile_index` (ground truth for §4.2).
  const std::vector<std::uint32_t>& cdn_as_indices(std::size_t profile_index) const {
    return cdn_as_indices_[profile_index];
  }

  /// IP address of server `slot` of a variant (deterministic; used by the
  /// zone source and by tests).
  net::IpAddress server_address(std::uint32_t domain_index, bool www_variant,
                                std::size_t slot) const;

 private:
  friend class EcosystemZoneSource;
  Ecosystem() = default;

  struct AsInfo {
    std::vector<std::uint32_t> prefix_ids;  // v4 allocations (top-level)
    std::int32_t v6_prefix_id = -1;
    bool rpki_participant = false;
  };

  void build_anchors(util::Prng& prng);
  void build_ases(util::Prng& prng);
  void build_bgp(util::Prng& prng);
  void build_rpki(util::Prng& prng);
  void build_domains(util::Prng& prng);

  std::uint32_t allocate_prefix(std::uint8_t rir, int length, std::uint32_t owner,
                                bool announced);

  EcosystemConfig config_;
  AsRegistry registry_;
  std::vector<AsInfo> as_info_;
  std::vector<PrefixRecord> prefixes_;
  std::vector<rpki::TrustAnchor> anchors_;
  std::vector<rpki::Repository> repositories_;
  std::unique_ptr<bgp::RouteCollector> collector_;
  /// Domain-name storage: plan names interned in plan order, and no two
  /// plans share a name, so a name's id is its plan's index and a plan
  /// stores no name at all.
  util::StringInterner names_;
  std::vector<DomainPlan> plans_;

  // Category index pools for random placement decisions.
  std::vector<std::uint32_t> isp_indices_;
  std::vector<std::uint32_t> hoster_indices_;
  std::vector<std::uint32_t> enterprise_indices_;
  std::vector<std::uint32_t> transit_indices_;
  std::vector<std::uint32_t> tier1_indices_;
  std::vector<std::vector<std::uint32_t>> cdn_as_indices_;  // per profile

  std::vector<std::uint32_t> unrouted_prefix_ids_;

  mutable std::array<std::unique_ptr<dns::ZoneSource>, 2> zone_sources_;

  mutable std::once_flag mrt_dump_once_;
  mutable util::Bytes mrt_dump_;

  // Allocators per (RIR, family).
  struct Allocators;
  std::unique_ptr<Allocators> allocators_;
};

}  // namespace ripki::web
