// CDN classification (§4.3) and the CDN AS census (§4.2).
//
// Two deliberately independent classifiers, as in the paper:
//  * ChainCdnClassifier — "a domain is served by a CDN if the IP address
//    of its domain name is indirectly accessed via two or more CNAMEs"
//    (the paper's own conservative heuristic).
//  * PatternCdnClassifier — HTTPArchive stand-in: matches CNAME targets
//    against known CDN suffix zones, from a different vantage, limited to
//    the first 300k ranks (HTTPArchive's coverage).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "rpki/vrp.hpp"
#include "web/as_registry.hpp"
#include "web/cdn.hpp"

namespace ripki::core {

class ChainCdnClassifier {
 public:
  /// Minimum CNAME indirections to call a domain CDN-served.
  explicit ChainCdnClassifier(int min_hops = 2) : min_hops_(min_hops) {}

  bool is_cdn(const VariantResult& variant) const {
    return variant.cname_hops >= min_hops_;
  }
  bool is_cdn(const DomainTable::VariantView& variant) const {
    return variant.cname_hops >= min_hops_;
  }
  bool is_cdn(const DomainTable::RecordView& record) const {
    return is_cdn(record.primary());
  }

 private:
  int min_hops_;
};

class PatternCdnClassifier {
 public:
  /// Builds the suffix-zone pattern list from the known CDN profiles.
  explicit PatternCdnClassifier(std::uint64_t max_rank = 300'000);

  /// Rank coverage limit (0 = unlimited).
  std::uint64_t max_rank() const { return max_rank_; }
  bool covers(std::uint64_t rank) const {
    return max_rank_ == 0 || rank <= max_rank_;
  }

  /// True when any observed CNAME points into a known CDN zone.
  bool is_cdn(const VariantResult& variant) const {
    return matches(variant.terminal_cname);
  }
  bool is_cdn(const DomainTable::VariantView& variant) const {
    return matches(variant.terminal_cname);
  }
  bool is_cdn(const DomainTable::RecordView& record) const {
    return is_cdn(record.primary());
  }

 private:
  bool matches(std::string_view terminal_cname) const;

  std::uint64_t max_rank_;
  std::vector<std::string> suffixes_;  // with leading '.' for suffix match
};

/// §4.2: keyword spotting of CDN-operated ASes in the AS assignment list,
/// then auditing the validated ROA set for entries tied to those ASes.
class CdnAsDirectory {
 public:
  explicit CdnAsDirectory(const web::AsRegistry& registry);

  struct CensusEntry {
    std::string cdn;
    std::vector<net::Asn> ases;         // keyword-spotted
    std::vector<rpki::Vrp> rpki_entries;  // VRPs originated by those ASes
    std::vector<net::Asn> roa_origin_ases;  // distinct ASes with entries
  };

  /// Audits the VRP set against each CDN's AS list.
  std::vector<CensusEntry> census(const rpki::VrpSet& vrps) const;

  /// Total keyword-spotted CDN ASes (the paper's 199).
  std::size_t total_cdn_ases() const;

  /// Fraction of ASes of `category` with at least one VRP ("web hosters or
  /// common ISPs ... far higher levels of penetration (>5%)").
  static double category_penetration(const web::AsRegistry& registry,
                                     web::AsCategory category,
                                     const rpki::VrpSet& vrps);

 private:
  const web::AsRegistry& registry_;
  std::vector<std::pair<std::string, std::vector<net::Asn>>> spotted_;
};

}  // namespace ripki::core
