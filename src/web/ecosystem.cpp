#include "web/ecosystem.hpp"

#include <array>
#include <cassert>
#include <charconv>
#include <cmath>

#include "dns/name.hpp"
#include "web/allocator.hpp"
#include "web/names.hpp"

namespace ripki::web {

namespace {

constexpr std::uint8_t kRirCount = 5;
const char* const kRirNames[kRirCount] = {"AFRINIC", "APNIC", "ARIN", "LACNIC",
                                          "RIPE"};
// Two /8 v4 pools and one /12 v6 pool per RIR (v6 pools are the RIRs' real
// top-level allocations; v4 /8s are representative).
const char* const kV4Pools[kRirCount][2] = {
    {"41.0.0.0/8", "102.0.0.0/8"},
    {"27.0.0.0/8", "36.0.0.0/8"},
    {"23.0.0.0/8", "63.0.0.0/8"},
    {"177.0.0.0/8", "187.0.0.0/8"},
    {"62.0.0.0/8", "77.0.0.0/8"},
};
const char* const kV6Pools[kRirCount] = {"2c00::/12", "2400::/12", "2600::/12",
                                         "2800::/12", "2a00::/12"};

/// Rank-conditioned probability: tail + (top - tail) * exp(-rank / decay).
double rank_decay(double top, double tail, double decay, std::uint64_t rank) {
  return tail + (top - tail) * std::exp(-static_cast<double>(rank) / decay);
}

net::Prefix must_parse(const char* text) {
  auto p = net::Prefix::parse(text);
  assert(p.ok());
  return p.value();
}

}  // namespace

struct Ecosystem::Allocators {
  std::vector<PrefixAllocator> v4[kRirCount];
  std::vector<PrefixAllocator> v6[kRirCount];
};

Ecosystem::~Ecosystem() = default;

std::uint32_t Ecosystem::allocate_prefix(std::uint8_t rir, int length,
                                         std::uint32_t owner, bool announced) {
  for (auto& allocator : allocators_->v4[rir]) {
    auto p = allocator.allocate(length);
    if (p.ok()) {
      PrefixRecord record;
      record.prefix = p.value();
      record.owner_as = owner;
      record.announced = announced;
      prefixes_.push_back(record);
      return static_cast<std::uint32_t>(prefixes_.size() - 1);
    }
  }
  assert(false && "v4 pool exhausted; enlarge pools or shrink the AS census");
  return 0;
}

void Ecosystem::build_anchors(util::Prng& prng) {
  allocators_ = std::make_unique<Allocators>();
  const rpki::ValidityWindow window{config_.now - 365 * rpki::kSecondsPerDay,
                                    config_.now + 10 * 365 * rpki::kSecondsPerDay};
  for (std::uint8_t r = 0; r < kRirCount; ++r) {
    rpki::ResourceSet allocation;
    for (const char* pool : kV4Pools[r]) {
      const net::Prefix p = must_parse(pool);
      allocation.add(p);
      allocators_->v4[r].emplace_back(p);
    }
    const net::Prefix pool6 = must_parse(kV6Pools[r]);
    allocation.add(pool6);
    allocators_->v6[r].emplace_back(pool6);
    anchors_.push_back(
        rpki::make_trust_anchor(kRirNames[r], std::move(allocation), window, prng));
  }
}

void Ecosystem::build_ases(util::Prng& prng) {
  std::uint32_t next_asn = 2000;
  const auto fresh_asn = [&]() {
    next_asn += 1 + static_cast<std::uint32_t>(prng.uniform(9));
    return net::Asn(next_asn);
  };

  const auto add_as = [&](std::string holder, AsCategory category) {
    AsRecord record;
    record.asn = fresh_asn();
    record.holder = std::move(holder);
    record.category = category;
    record.rir_index = static_cast<std::uint8_t>(prng.uniform(kRirCount));
    const std::size_t index = registry_.add(std::move(record));
    as_info_.emplace_back();
    return static_cast<std::uint32_t>(index);
  };

  const auto allocate_for = [&](std::uint32_t as_index, int count, int min_len,
                                int max_len) {
    const std::uint8_t rir = registry_.at(as_index).rir_index;
    for (int i = 0; i < count; ++i) {
      const int length =
          min_len + static_cast<int>(prng.uniform(
                        static_cast<std::uint64_t>(max_len - min_len + 1)));
      const std::uint32_t pid = allocate_prefix(rir, length, as_index, true);
      as_info_[as_index].prefix_ids.push_back(pid);
      // Sometimes a more-specific subprefix is announced as well (traffic
      // engineering); it drives the multiple-covering-prefix pairs and the
      // maxLength-misconfiguration invalids.
      if (length <= 21 && prng.bernoulli(config_.more_specific_fraction)) {
        const int child_len =
            length + 2 + static_cast<int>(prng.uniform(2));  // +2 or +3
        // Carve the child at a random aligned offset inside the parent.
        const net::Prefix parent = prefixes_[pid].prefix;  // v4 only here
        const std::uint32_t base = parent.address().v4_value();
        const int extra_bits = child_len - length;
        const std::uint32_t slot =
            static_cast<std::uint32_t>(prng.uniform(1ULL << extra_bits));
        const std::uint32_t child_base =
            base | (slot << (32 - child_len));
        PrefixRecord child;
        child.prefix = net::Prefix(net::IpAddress::v4(child_base), child_len);
        child.owner_as = as_index;
        child.announced = true;
        child.is_more_specific = true;
        prefixes_.push_back(child);
        prefixes_[pid].more_specific_id =
            static_cast<std::int32_t>(prefixes_.size() - 1);
      }
    }
    // ~30% of operators hold IPv6 space too.
    if (prng.bernoulli(0.30)) {
      auto p6 = allocators_->v6[rir].front().allocate(
          36 + static_cast<int>(prng.uniform(11)));
      if (p6.ok()) {
        PrefixRecord record;
        record.prefix = p6.value();
        record.owner_as = as_index;
        record.announced = true;
        prefixes_.push_back(record);
        as_info_[as_index].v6_prefix_id =
            static_cast<std::int32_t>(prefixes_.size() - 1);
      }
    }
  };

  for (std::uint64_t i = 0; i < config_.tier1_count; ++i) {
    const auto idx = add_as(holder_name(config_.seed, i, "TIER1", "Global Backbone"),
                            AsCategory::kTier1);
    tier1_indices_.push_back(idx);
    allocate_for(idx, 2 + static_cast<int>(prng.uniform(3)), 16, 17);
  }
  for (std::uint64_t i = 0; i < config_.transit_count; ++i) {
    const auto idx = add_as(holder_name(config_.seed, i, "TRANSIT", "Transit Services"),
                            AsCategory::kTransit);
    transit_indices_.push_back(idx);
    allocate_for(idx, 1 + static_cast<int>(prng.uniform(2)), 17, 20);
  }
  for (std::uint64_t i = 0; i < config_.isp_count; ++i) {
    const auto idx = add_as(holder_name(config_.seed, i, "NET", "Communications"),
                            AsCategory::kIsp);
    isp_indices_.push_back(idx);
    const int count = 1 + static_cast<int>(
                              std::min<std::uint64_t>(prng.geometric_at_least_one(1.8), 5));
    allocate_for(idx, count, 18, 22);
  }
  for (std::uint64_t i = 0; i < config_.hoster_count; ++i) {
    const auto idx =
        add_as(holder_name(config_.seed, i, "HOST", "Hosting"), AsCategory::kHoster);
    hoster_indices_.push_back(idx);
    allocate_for(idx, 1 + static_cast<int>(prng.uniform(3)), 19, 23);
  }
  for (std::uint64_t i = 0; i < config_.enterprise_count; ++i) {
    const auto idx = add_as(holder_name(config_.seed, i, "ENT", "Corporation"),
                            AsCategory::kEnterprise);
    enterprise_indices_.push_back(idx);
    allocate_for(idx, 1, 22, 24);
  }

  // CDN ASes: holders carry the CDN name so AS-list keyword spotting finds
  // them (the paper's §4.2 census: 199 ASes across the 16 CDNs).
  const auto& profiles = paper_cdn_profiles();
  cdn_as_indices_.resize(profiles.size());
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    for (int i = 0; i < profiles[p].as_count; ++i) {
      std::string holder = profiles[p].name;
      for (char& c : holder) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      holder += "-AS" + std::to_string(i + 1) + " " + profiles[p].name +
                (i % 3 == 0 ? " International" : " Technologies");
      const auto idx = add_as(std::move(holder), AsCategory::kCdn);
      cdn_as_indices_[p].push_back(idx);
      allocate_for(idx, 1 + static_cast<int>(prng.uniform(3)), 18, 22);
    }
  }

  // Allocated-but-unannounced space (drives the "0.01% not reachable from
  // our BGP vantage points" counter).
  for (std::uint8_t r = 0; r < kRirCount; ++r) {
    const std::uint32_t owner = isp_indices_[prng.index(isp_indices_.size())];
    unrouted_prefix_ids_.push_back(allocate_prefix(r, 18, owner, false));
  }
}

void Ecosystem::build_bgp(util::Prng& prng) {
  collector_ = std::make_unique<bgp::RouteCollector>(0x0A000001, "ris-sim");
  const int peer_count =
      std::min<int>(config_.collector_peers, static_cast<int>(tier1_indices_.size()));
  std::vector<net::Asn> peer_asns;
  for (int p = 0; p < peer_count; ++p) {
    const auto& record = registry_.at(tier1_indices_[static_cast<std::size_t>(p)]);
    bgp::PeerEntry peer;
    peer.bgp_id = 0xC0000000u + static_cast<std::uint32_t>(p);
    peer.address = net::IpAddress::v4(192, 0, 2, static_cast<std::uint8_t>(10 + p));
    peer.asn = record.asn;
    collector_->add_peer(peer);
    peer_asns.push_back(record.asn);
  }

  const auto random_transit_asn = [&]() {
    return registry_.at(transit_indices_[prng.index(transit_indices_.size())]).asn;
  };

  const std::uint32_t originated_base =
      static_cast<std::uint32_t>(config_.now - 90 * rpki::kSecondsPerDay);

  const std::size_t prefix_total = prefixes_.size();
  for (std::size_t pid = 0; pid < prefix_total; ++pid) {
    const PrefixRecord& record = prefixes_[pid];
    if (!record.announced) continue;
    const net::Asn origin = registry_.at(record.owner_as).asn;

    for (int p = 0; p < peer_count; ++p) {
      std::vector<net::Asn> hops;
      hops.push_back(peer_asns[static_cast<std::size_t>(p)]);
      const int vias = static_cast<int>(prng.uniform(3));  // 0..2
      for (int v = 0; v < vias; ++v) {
        const net::Asn via = random_transit_asn();
        if (via != origin && via != hops.back()) hops.push_back(via);
      }
      if (hops.back() != origin) hops.push_back(origin);
      collector_->announce(
          static_cast<std::uint16_t>(p), record.prefix, bgp::AsPath::sequence(hops),
          originated_base + static_cast<std::uint32_t>(prng.uniform(86'400)));
    }

    // Occasional wrong-origin leak (invalid once the prefix has a ROA).
    if (prng.bernoulli(config_.wrong_origin_fraction)) {
      const auto& leaker = registry_.at(
          isp_indices_[prng.index(isp_indices_.size())]);
      collector_->announce(
          0, record.prefix,
          bgp::AsPath::sequence({peer_asns[0], random_transit_asn(), leaker.asn}),
          originated_base);
    }

    // Occasional aggregation residue: a path terminating in an AS_SET
    // (methodology step 3 drops these entries per RFC 6472).
    if (prng.bernoulli(config_.as_set_fraction)) {
      bgp::PathSegment seq;
      seq.type = bgp::SegmentType::kAsSequence;
      seq.asns = {peer_asns[0], random_transit_asn()};
      bgp::PathSegment set;
      set.type = bgp::SegmentType::kAsSet;
      set.asns = {origin, random_transit_asn()};
      collector_->announce(0, record.prefix,
                           bgp::AsPath({std::move(seq), std::move(set)}),
                           originated_base);
    }
  }
}

void Ecosystem::build_rpki(util::Prng& prng) {
  std::vector<rpki::RepositoryBuilder> builders;
  builders.reserve(kRirCount);
  for (std::uint8_t r = 0; r < kRirCount; ++r) {
    builders.emplace_back(anchors_[r], config_.now, prng);
  }

  const auto participation_probability = [&](AsCategory category) {
    switch (category) {
      case AsCategory::kTier1: return config_.tier1_roa_probability;
      case AsCategory::kTransit: return config_.transit_roa_probability;
      case AsCategory::kIsp: return config_.isp_roa_probability;
      case AsCategory::kHoster: return config_.hoster_roa_probability;
      case AsCategory::kEnterprise: return config_.enterprise_roa_probability;
      case AsCategory::kCdn: return 0.0;  // the paper's central finding
    }
    return 0.0;
  };

  const auto issue_for_as = [&](std::uint32_t as_index,
                                const std::vector<std::uint32_t>& prefix_ids) {
    const AsRecord& record = registry_.at(as_index);
    as_info_[as_index].rpki_participant = true;

    rpki::ResourceSet resources;
    rpki::RoaContent content;
    content.asn = record.asn;
    for (const std::uint32_t pid : prefix_ids) {
      const PrefixRecord& prefix = prefixes_[pid];
      if (!prefix.announced) continue;
      resources.add(prefix.prefix);
      rpki::RoaPrefix rp;
      rp.prefix = prefix.prefix;
      rp.max_length = static_cast<std::uint8_t>(prefix.prefix.length());
      if (prefix.more_specific_id >= 0 &&
          !prng.bernoulli(config_.roa_maxlen_misconfig_probability)) {
        // Correctly configured: authorize the announced more-specific too.
        rp.max_length = static_cast<std::uint8_t>(
            prefixes_[static_cast<std::size_t>(prefix.more_specific_id)]
                .prefix.length());
      }
      content.prefixes.push_back(rp);
    }
    const std::int32_t v6 = as_info_[as_index].v6_prefix_id;
    if (v6 >= 0) {
      const PrefixRecord& prefix = prefixes_[static_cast<std::size_t>(v6)];
      resources.add(prefix.prefix);
      content.prefixes.push_back(rpki::RoaPrefix{
          prefix.prefix, static_cast<std::uint8_t>(prefix.prefix.length())});
    }
    if (content.prefixes.empty()) return;
    auto& builder = builders[record.rir_index];
    const std::size_t ca = builder.add_ca(record.holder, std::move(resources));
    builder.add_roa(ca, content);
  };

  for (std::uint32_t as_index = 0; as_index < registry_.size(); ++as_index) {
    const AsRecord& record = registry_.at(as_index);
    if (record.category == AsCategory::kCdn) continue;
    if (!prng.bernoulli(participation_probability(record.category))) continue;
    issue_for_as(as_index, as_info_[as_index].prefix_ids);
  }

  // §4.2's exception: "we find only four entries in the RPKI. These four
  // prefixes are owned by Internap and are tied to three origin ASes."
  const auto& internap = cdn_as_indices_[internap_profile_index()];
  assert(internap.size() >= 3);
  const auto internap_prefixes = [&](std::size_t as_pos, std::size_t count) {
    std::vector<std::uint32_t> out;
    const auto& ids = as_info_[internap[as_pos]].prefix_ids;
    for (std::size_t i = 0; i < count && i < ids.size(); ++i) out.push_back(ids[i]);
    return out;
  };
  // 2 + 1 + 1 prefixes across three Internap ASes. Temporarily detach the
  // v6 allocation so exactly four v4 prefixes enter the RPKI.
  for (std::size_t pos = 0; pos < 3; ++pos) {
    const std::uint32_t as_index = internap[pos];
    const std::int32_t saved_v6 = as_info_[as_index].v6_prefix_id;
    as_info_[as_index].v6_prefix_id = -1;
    issue_for_as(as_index, internap_prefixes(pos, pos == 0 ? 2 : 1));
    as_info_[as_index].v6_prefix_id = saved_v6;
  }

  for (auto& builder : builders) repositories_.push_back(builder.build());
}

void Ecosystem::build_domains(util::Prng& prng) {
  const auto& profiles = paper_cdn_profiles();

  // Cumulative market-share distribution for CDN choice.
  std::vector<double> cdf;
  double total_share = 0.0;
  for (const auto& profile : profiles) total_share += profile.market_share;
  double acc = 0.0;
  for (const auto& profile : profiles) {
    acc += profile.market_share / total_share;
    cdf.push_back(acc);
  }
  const auto pick_cdn = [&]() {
    const double u = prng.uniform01();
    for (std::size_t i = 0; i < cdf.size(); ++i) {
      if (u <= cdf[i]) return static_cast<std::uint8_t>(i);
    }
    return static_cast<std::uint8_t>(cdf.size() - 1);
  };

  // Per-CDN pools of own prefixes (for cache placement).
  std::vector<std::vector<std::uint32_t>> cdn_prefix_pool(profiles.size());
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    for (const std::uint32_t as_index : cdn_as_indices_[p]) {
      for (const std::uint32_t pid : as_info_[as_index].prefix_ids) {
        cdn_prefix_pool[p].push_back(pid);
      }
    }
  }

  const auto random_prefix_of = [&](std::uint32_t as_index) {
    const auto& ids = as_info_[as_index].prefix_ids;
    return ids[prng.index(ids.size())];
  };

  // Hosting for a non-CDN variant: 1-3 servers in 1-2 prefixes of one AS.
  const auto make_origin_variant = [&](std::uint32_t as_index) {
    HostVariant v;
    v.on_cdn = false;
    v.server_count = static_cast<std::uint8_t>(1 + prng.uniform(3));
    const std::uint32_t primary = random_prefix_of(as_index);
    for (std::uint8_t s = 0; s < v.server_count; ++s) {
      v.prefix_ids[s] =
          (s > 0 && prng.bernoulli(0.3)) ? random_prefix_of(as_index) : primary;
    }
    return v;
  };

  const auto pick_origin_as = [&]() {
    const double u = prng.uniform01();
    if (u < 0.70) return hoster_indices_[prng.index(hoster_indices_.size())];
    if (u < 0.90) return isp_indices_[prng.index(isp_indices_.size())];
    return enterprise_indices_[prng.index(enterprise_indices_.size())];
  };

  const auto make_cdn_variant = [&](std::uint8_t cdn_id) {
    const CdnProfile& profile = profiles[cdn_id];
    HostVariant v;
    v.on_cdn = true;
    v.server_count = static_cast<std::uint8_t>(2 + prng.uniform(3));
    const double third_party = std::min(
        1.0, profile.third_party_cache_fraction * config_.cdn_third_party_scale);
    for (std::uint8_t s = 0; s < v.server_count; ++s) {
      if (prng.bernoulli(third_party)) {
        // Cache in an eyeball ISP: the placement that "inherits" the
        // third party's RPKI deployment (§4.2).
        v.prefix_ids[s] =
            random_prefix_of(isp_indices_[prng.index(isp_indices_.size())]);
      } else {
        v.prefix_ids[s] =
            cdn_prefix_pool[cdn_id][prng.index(cdn_prefix_pool[cdn_id].size())];
      }
    }
    // CNAME exposure class.
    const double u = prng.uniform01();
    if (u < config_.cdn_chain_fraction) {
      v.chain_hops = static_cast<std::uint8_t>(2 + prng.uniform(2));  // 2-3
    } else if (u < config_.cdn_chain_fraction + config_.cdn_single_cname_fraction) {
      v.chain_hops = 1;
    } else {
      v.chain_hops = 0;
    }
    return v;
  };

  plans_.reserve(config_.domain_count);
  first_plan_.reserve(config_.domain_count);

  for (std::uint64_t i = 0; i < config_.domain_count; ++i) {
    DomainPlan plan;
    const std::uint64_t rank =
        i * config_.rank_space / config_.domain_count + 1;
    plan.rank = static_cast<std::uint32_t>(rank);
    plan.name_id = names_.intern(domain_name_for_rank(config_.seed, rank));
    if (plan.name_id == first_plan_.size()) {
      first_plan_.push_back(static_cast<std::uint32_t>(i));
    }
    plan.has_ipv6 = prng.bernoulli(config_.ipv6_fraction);
    plan.invalid_dns = prng.bernoulli(config_.invalid_dns_fraction);
    plan.dnssec_signed = prng.bernoulli(rank_decay(
        config_.dnssec_top, config_.dnssec_tail, config_.dnssec_decay, rank));

    const bool uses_cdn = prng.bernoulli(rank_decay(
        config_.cdn_share_top, config_.cdn_share_tail, config_.cdn_share_decay, rank));

    if (uses_cdn) {
      plan.cdn_id = pick_cdn();
      plan.www = make_cdn_variant(plan.cdn_id);
      if (prng.bernoulli(config_.apex_on_cdn_probability)) {
        // Apex rides the same CDN footprint (possibly flattened: ALIAS-at-
        // apex setups lose the CNAME chain; occasionally fewer servers).
        plan.apex = plan.www;
        if (prng.bernoulli(0.15)) {
          plan.apex.server_count = static_cast<std::uint8_t>(
              std::max<std::uint32_t>(1, plan.www.server_count - 1));
        }
        if (prng.bernoulli(0.5)) plan.apex.chain_hops = 0;
      } else {
        plan.apex = make_origin_variant(pick_origin_as());
      }
    } else {
      const std::uint32_t origin_as = pick_origin_as();
      plan.www = make_origin_variant(origin_as);
      if (registry_.at(origin_as).category == AsCategory::kHoster &&
          prng.bernoulli(config_.hoster_chain_fraction)) {
        plan.www.chain_hops = 2;  // hosting-platform chain (heuristic FP)
      } else if (prng.bernoulli(config_.single_cname_alias_fraction)) {
        plan.www.chain_hops = 1;  // plain aliasing onto the platform
      }
      const bool split = prng.bernoulli(rank_decay(
          config_.split_top, config_.split_tail, config_.split_decay, rank));
      if (split) {
        // Different infrastructure for the apex, usually same category.
        plan.apex = make_origin_variant(pick_origin_as());
      } else {
        plan.apex = plan.www;
      }
    }

    // Rare: the whole site sits in never-announced space.
    if (prng.bernoulli(config_.unrouted_fraction)) {
      const std::uint32_t pid =
          unrouted_prefix_ids_[prng.index(unrouted_prefix_ids_.size())];
      plan.www = HostVariant{};
      plan.www.server_count = 1;
      plan.www.prefix_ids[0] = pid;
      plan.apex = plan.www;
      plan.cdn_id = kNoCdn;
    }

    plans_.push_back(std::move(plan));
  }
}

std::unique_ptr<Ecosystem> Ecosystem::generate(const EcosystemConfig& config) {
  auto eco = std::unique_ptr<Ecosystem>(new Ecosystem());
  eco->config_ = config;
  util::Prng prng(config.seed);
  eco->build_anchors(prng);
  eco->build_ases(prng);
  eco->build_bgp(prng);
  eco->build_rpki(prng);
  eco->build_domains(prng);
  return eco;
}

std::vector<rpki::TrustAnchorLocator> Ecosystem::tals() const {
  std::vector<rpki::TrustAnchorLocator> out;
  out.reserve(anchors_.size());
  for (const auto& anchor : anchors_) out.push_back(rpki::tal_for(anchor));
  return out;
}

util::Bytes Ecosystem::mrt_dump() const {
  return collector_->dump_mrt(static_cast<std::uint32_t>(config_.now));
}

net::IpAddress Ecosystem::server_address(std::uint32_t domain_index, bool www_variant,
                                         std::size_t slot) const {
  const DomainPlan& plan = plans_[domain_index];
  const HostVariant& variant = www_variant ? plan.www : plan.apex;
  assert(variant.server_count > 0);
  const std::uint32_t pid = variant.prefix_ids[slot % variant.server_count];
  const PrefixRecord* record = &prefixes_[pid];

  const std::uint64_t h = util::hash_combine(
      config_.seed,
      util::hash_combine(domain_index * 2 + (www_variant ? 1 : 0), slot));

  // Half of the servers inside a prefix with an announced more-specific
  // fall into the more-specific range (two covering prefixes).
  if (record->more_specific_id >= 0 && ((h >> 33) & 1) != 0) {
    record = &prefixes_[static_cast<std::size_t>(record->more_specific_id)];
  }

  const net::Prefix& prefix = record->prefix;
  const std::uint32_t base = prefix.address().v4_value();
  const std::uint32_t span = prefix.length() >= 32
                                 ? 1
                                 : (1u << (32 - prefix.length()));
  const std::uint32_t host =
      span <= 3 ? 1 : 1 + static_cast<std::uint32_t>(h % (span - 2));
  return net::IpAddress::v4(base + host);
}

// ---------------------------------------------------------------------------
// Zone source: synthesises DNS records on demand from domain plans.
// ---------------------------------------------------------------------------

namespace {

dns::DnsName zone_name(std::string_view text) {
  auto parsed = dns::DnsName::parse(text);
  assert(parsed.ok());
  return std::move(parsed).value();
}

/// First label of chain node `hop` of a variant: "d<index>-<w|a>-<hop>",
/// written into `buf`.
std::string_view chain_label(std::uint64_t index, bool www, std::uint64_t hop,
                             std::array<char, 48>& buf) {
  char* const end = buf.data() + buf.size();
  char* out = buf.data();
  *out++ = 'd';
  out = std::to_chars(out, end, index).ptr;
  *out++ = '-';
  *out++ = www ? 'w' : 'a';
  *out++ = '-';
  out = std::to_chars(out, end, hop).ptr;
  return {buf.data(), static_cast<std::size_t>(out - buf.data())};
}

/// Splits a label of chain_label's shape into its fields; false for any
/// other shape. The fields are not checked against the plans, and a
/// non-canonical spelling ("d07-w-1") still splits.
bool split_chain_label(std::string_view label, std::uint64_t& index, bool& www,
                       std::uint64_t& hop) {
  if (label.size() < 6 || label[0] != 'd') return false;
  const char* const end = label.data() + label.size();
  const auto [after_index, index_error] = std::from_chars(label.data() + 1, end, index);
  if (index_error != std::errc() || end - after_index < 4 || after_index[0] != '-' ||
      (after_index[1] != 'w' && after_index[1] != 'a') || after_index[2] != '-') {
    return false;
  }
  www = after_index[1] == 'w';
  const auto [after_hop, hop_error] = std::from_chars(after_index + 3, end, hop);
  return hop_error == std::errc() && after_hop == end;
}

}  // namespace

class EcosystemZoneSource final : public dns::ZoneSource {
 public:
  EcosystemZoneSource(const Ecosystem* eco, Vantage vantage);

  void lookup(const dns::DnsName& name, dns::RecordType type,
              std::vector<dns::ResourceRecord>& out) const override;
  bool name_exists(const dns::DnsName& name) const override;

 private:
  struct Parsed {
    enum class Kind { kNone, kSite, kChainNode } kind = Kind::kNone;
    std::uint32_t domain_index = 0;
    bool www = false;
    int hop = 0;  // 0 for the site name itself
  };

  Parsed parse(const dns::DnsName& name) const;
  /// Zone that chain node `hop` of a variant lives in.
  const dns::DnsName& chain_suffix(const DomainPlan& plan, const HostVariant& variant,
                                   std::uint64_t hop) const;
  dns::DnsName chain_name(std::uint32_t index, bool www, int hop) const;
  void address_records(const Parsed& parsed, const dns::DnsName& owner,
                       dns::RecordType type,
                       std::vector<dns::ResourceRecord>& out) const;

  const Ecosystem* eco_;
  Vantage vantage_;
  dns::DnsName hosting_suffix_;  // hosting-platform chains
  std::vector<std::vector<dns::DnsName>> cdn_suffixes_;  // per CDN profile
};

EcosystemZoneSource::EcosystemZoneSource(const Ecosystem* eco, Vantage vantage)
    : eco_(eco), vantage_(vantage), hosting_suffix_(zone_name("cluster.webhost.example")) {
  for (const auto& profile : paper_cdn_profiles()) {
    auto& names = cdn_suffixes_.emplace_back();
    for (const auto& suffix : profile.cname_suffixes) names.push_back(zone_name(suffix));
  }
}

EcosystemZoneSource::Parsed EcosystemZoneSource::parse(
    const dns::DnsName& name) const {
  Parsed out;
  const std::string_view first = name.first_label();
  if (first.empty()) return out;

  // Chain node: first label "d<idx>-<w|a>-<hop>", and the whole name
  // byte-equal to the one the plan generates.
  std::uint64_t idx = 0;
  std::uint64_t hop = 0;
  bool www = false;
  if (split_chain_label(first, idx, www, hop) && idx < eco_->plans_.size() &&
      hop >= 1) {
    const DomainPlan& plan = eco_->plans_[static_cast<std::size_t>(idx)];
    const HostVariant& variant = www ? plan.www : plan.apex;
    std::array<char, 48> buf;
    if (hop <= variant.chain_hops && first == chain_label(idx, www, hop, buf) &&
        name.wire().substr(1 + first.size()) ==
            chain_suffix(plan, variant, hop).wire()) {
      out.kind = Parsed::Kind::kChainNode;
      out.domain_index = static_cast<std::uint32_t>(idx);
      out.www = www;
      out.hop = static_cast<int>(hop);
      return out;
    }
  }

  // Site name: apex or www.apex, looked up by its dotted text.
  std::array<char, 256> buf;
  std::string_view apex = name.text(buf);
  www = first == "www" && apex.size() > first.size();
  if (www) apex.remove_prefix(4);  // strip "www."
  const std::optional<std::uint32_t> index = eco_->find_plan(apex);
  if (!index.has_value()) return out;
  out.kind = Parsed::Kind::kSite;
  out.domain_index = *index;
  out.www = www;
  out.hop = 0;
  return out;
}

const dns::DnsName& EcosystemZoneSource::chain_suffix(const DomainPlan& plan,
                                                      const HostVariant& variant,
                                                      std::uint64_t hop) const {
  if (plan.cdn_id == kNoCdn || !variant.on_cdn) return hosting_suffix_;
  const auto& suffixes = cdn_suffixes_[plan.cdn_id];
  // Terminal hop lands in the last suffix zone; earlier hops walk the
  // front of the list (edgesuite -> g.akamai style).
  if (hop >= variant.chain_hops) return suffixes.back();
  return suffixes[std::min(static_cast<std::size_t>(hop - 1), suffixes.size() - 1)];
}

dns::DnsName EcosystemZoneSource::chain_name(std::uint32_t index, bool www,
                                             int hop) const {
  const DomainPlan& plan = eco_->plans_[index];
  const HostVariant& variant = www ? plan.www : plan.apex;
  std::array<char, 48> buf;
  return chain_suffix(plan, variant, static_cast<std::uint64_t>(hop))
      .prepended(chain_label(index, www, static_cast<std::uint64_t>(hop), buf));
}

void EcosystemZoneSource::address_records(const Parsed& parsed,
                                          const dns::DnsName& owner,
                                          dns::RecordType type,
                                          std::vector<dns::ResourceRecord>& out) const {
  const DomainPlan& plan = eco_->plans_[parsed.domain_index];
  const HostVariant& variant = parsed.www ? plan.www : plan.apex;

  if (plan.invalid_dns) {
    // Broken deployment: answers point into special-purpose space (these
    // are the paper's excluded "incorrect DNS answers").
    if (type == dns::RecordType::kA) {
      out.push_back(dns::ResourceRecord::a(
          owner, net::IpAddress::v4(127, 0, 0,
                                    static_cast<std::uint8_t>(
                                        1 + parsed.domain_index % 250))));
    }
    return;
  }

  // Vantage-dependent answer ordering (CDN request routing); the record
  // *set* is vantage independent, mirroring the paper's observation that
  // its results do not depend on the DNS measurement point.
  const std::size_t rotation =
      util::hash_combine(parsed.domain_index,
                         static_cast<std::uint64_t>(vantage_) * 7919 +
                             (parsed.www ? 1 : 0)) %
      variant.server_count;

  for (std::uint8_t s = 0; s < variant.server_count; ++s) {
    const std::size_t slot = (s + rotation) % variant.server_count;
    if (type == dns::RecordType::kA) {
      out.push_back(dns::ResourceRecord::a(
          owner, eco_->server_address(parsed.domain_index, parsed.www, slot)));
    } else if (type == dns::RecordType::kAaaa && plan.has_ipv6) {
      // AAAA exists when the hosting AS holds IPv6 space.
      const std::uint32_t pid = variant.prefix_ids[slot % variant.server_count];
      const std::uint32_t as_index = eco_->prefixes_[pid].owner_as;
      const std::int32_t v6_pid = eco_->as_info_[as_index].v6_prefix_id;
      if (v6_pid < 0) continue;
      const net::Prefix& p6 =
          eco_->prefixes_[static_cast<std::size_t>(v6_pid)].prefix;
      auto bytes = p6.address().bytes();
      const std::uint64_t h = util::hash_combine(
          eco_->config_.seed,
          util::hash_combine(parsed.domain_index * 2 + (parsed.www ? 1 : 0),
                             0xAAAA + slot));
      for (int b = 0; b < 8; ++b) {
        bytes[static_cast<std::size_t>(8 + b)] =
            static_cast<std::uint8_t>(h >> (56 - 8 * b));
      }
      if (bytes[15] == 0) bytes[15] = 1;
      out.push_back(dns::ResourceRecord::aaaa(owner, net::IpAddress::v6(bytes)));
    }
  }
}

void EcosystemZoneSource::lookup(const dns::DnsName& name, dns::RecordType type,
                                 std::vector<dns::ResourceRecord>& out) const {
  const Parsed parsed = parse(name);
  if (parsed.kind == Parsed::Kind::kNone) return;

  const DomainPlan& plan = eco_->plans_[parsed.domain_index];
  const HostVariant& variant = parsed.www ? plan.www : plan.apex;

  if (parsed.kind == Parsed::Kind::kSite) {
    // DNSKEY lives at the zone apex of signed domains.
    if (type == dns::RecordType::kDnskey) {
      if (parsed.www || !plan.dnssec_signed) return;
      dns::DnskeyData key;
      const std::uint64_t h = util::hash_combine(eco_->config_.seed,
                                                 0xD1155EC + parsed.domain_index);
      key.public_key.assign(reinterpret_cast<const char*>(&h), sizeof h);
      out.push_back(
          dns::ResourceRecord{name, dns::RecordType::kDnskey, 3600, std::move(key)});
      return;
    }
    if (variant.chain_hops > 0 && !plan.invalid_dns) {
      if (type == dns::RecordType::kCname) {
        out.push_back(dns::ResourceRecord::cname(
            name, chain_name(parsed.domain_index, parsed.www, 1)));
      }
      return;
    }
    if (type == dns::RecordType::kA || type == dns::RecordType::kAaaa) {
      address_records(parsed, name, type, out);
    }
    return;
  }

  // Chain node.
  if (parsed.hop < variant.chain_hops) {
    if (type == dns::RecordType::kCname) {
      out.push_back(dns::ResourceRecord::cname(
          name, chain_name(parsed.domain_index, parsed.www, parsed.hop + 1)));
    }
    return;
  }
  if (type == dns::RecordType::kA || type == dns::RecordType::kAaaa) {
    address_records(parsed, name, type, out);
  }
}

bool EcosystemZoneSource::name_exists(const dns::DnsName& name) const {
  return parse(name).kind != Parsed::Kind::kNone;
}

const dns::ZoneSource& Ecosystem::zone_source(Vantage vantage) const {
  auto& slot = zone_sources_[static_cast<std::size_t>(vantage)];
  if (!slot) slot = std::make_unique<EcosystemZoneSource>(this, vantage);
  return *slot;
}

}  // namespace ripki::web
