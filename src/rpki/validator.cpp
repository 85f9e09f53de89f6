#include "rpki/validator.hpp"

#include <chrono>
#include <optional>
#include <utility>

#include "crypto/sha256.hpp"
#include "exec/thread_pool.hpp"
#include "obs/span.hpp"

namespace ripki::rpki {

namespace {

/// Shards per worker in the pooled walk: more shards than workers so work
/// stealing evens out per-point cost variance (ROA counts differ per CA).
constexpr std::size_t kShardsPerWorker = 4;

/// Why a CRL or manifest cannot be used at `now`, if it cannot: a
/// signature that does not verify under `issuer` is kBadSignature, and a
/// currency failure is `stale`.
template <typename Object>
std::optional<RejectReason> unusable(const Object& object,
                                     const crypto::PublicKey& issuer,
                                     Timestamp now, RejectReason stale) {
  if (!object.verify_signature(issuer)) return RejectReason::kBadSignature;
  if (!object.is_current(now)) return stale;
  return std::nullopt;
}

}  // namespace

const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kBadSignature: return "bad-signature";
    case RejectReason::kExpired: return "expired";
    case RejectReason::kRevoked: return "revoked";
    case RejectReason::kResourceOverclaim: return "resource-overclaim";
    case RejectReason::kNotInManifest: return "not-in-manifest";
    case RejectReason::kManifestMismatch: return "manifest-hash-mismatch";
    case RejectReason::kStaleCrl: return "stale-crl";
    case RejectReason::kStaleManifest: return "stale-manifest";
    case RejectReason::kNotACa: return "not-a-ca";
    case RejectReason::kNoMatchingTal: return "no-matching-tal";
  }
  return "unknown";
}

std::uint64_t ValidationReport::rejected_for(RejectReason reason) const {
  std::uint64_t n = 0;
  for (const auto& obj : rejected) {
    if (obj.reason == reason) ++n;
  }
  return n;
}

void ValidationReport::merge(ValidationReport&& other) {
  vrps.insert(vrps.end(), std::make_move_iterator(other.vrps.begin()),
              std::make_move_iterator(other.vrps.end()));
  rejected.insert(rejected.end(),
                  std::make_move_iterator(other.rejected.begin()),
                  std::make_move_iterator(other.rejected.end()));
  tas_processed += other.tas_processed;
  cas_accepted += other.cas_accepted;
  cas_rejected += other.cas_rejected;
  roas_accepted += other.roas_accepted;
  roas_rejected += other.roas_rejected;
}

void RepositoryValidator::validate_point(const Repository& repo,
                                         const CaPublicationPoint& point,
                                         ValidationReport& report) const {
  const auto& ca = point.ca_cert;
  const auto reject_ca = [&](RejectReason reason) {
    ++report.cas_rejected;
    report.rejected.push_back({"CA " + ca.data().subject, reason});
    // All ROAs below an invalid CA are unusable; count them as collateral.
    report.roas_rejected += point.roas.size();
  };

  // --- CA certificate ---
  if (!ca.verify_signature(repo.ta_cert.data().public_key)) {
    reject_ca(RejectReason::kBadSignature);
    return;
  }
  if (!ca.data().validity.contains(now_)) {
    reject_ca(RejectReason::kExpired);
    return;
  }
  if (!ca.data().is_ca) {
    reject_ca(RejectReason::kNotACa);
    return;
  }
  if (repo.ta_crl.is_revoked(ca.data().serial)) {
    reject_ca(RejectReason::kRevoked);
    return;
  }
  if (!repo.ta_cert.data().resources.contains(ca.data().resources)) {
    reject_ca(RejectReason::kResourceOverclaim);
    return;
  }
  ++report.cas_accepted;

  // --- publication point CRL and manifest ---
  // Without both, the point cannot say which of its ROAs are revoked or
  // withheld, so it contributes none; its ROAs are collateral, as under a
  // rejected CA.
  const auto reject_point = [&](const char* object, RejectReason reason) {
    report.rejected.push_back({object + ca.data().subject, reason});
    report.roas_rejected += point.roas.size();
  };
  if (const auto reason = unusable(point.crl, ca.data().public_key, now_,
                                   RejectReason::kStaleCrl)) {
    reject_point("CRL of ", *reason);
    return;
  }
  if (const auto reason = unusable(point.manifest, ca.data().public_key, now_,
                                   RejectReason::kStaleManifest)) {
    reject_point("manifest of ", *reason);
    return;
  }

  // --- ROAs ---
  const auto roa_start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < point.roas.size(); ++i) {
    const Roa& roa = point.roas[i];
    const auto reject = [&](RejectReason reason) {
      ++report.roas_rejected;
      report.rejected.push_back(
          {"ROA " + roa.content().asn.to_string() + " under " + ca.data().subject,
           reason});
    };

    // Manifest completeness: an object missing from the manifest (or
    // whose hash differs) is treated as withheld/substituted.
    const ManifestEntry* entry = point.manifest.find(roa.file_name(i));
    if (entry == nullptr) {
      reject(RejectReason::kNotInManifest);
      continue;
    }
    if (entry->hash != crypto::sha256(roa.encode())) {
      reject(RejectReason::kManifestMismatch);
      continue;
    }

    const Certificate& ee = roa.ee_cert();
    if (!ee.verify_signature(ca.data().public_key)) {
      reject(RejectReason::kBadSignature);
      continue;
    }
    if (!ee.data().validity.contains(now_)) {
      reject(RejectReason::kExpired);
      continue;
    }
    if (point.crl.is_revoked(ee.data().serial)) {
      reject(RejectReason::kRevoked);
      continue;
    }
    if (!ca.data().resources.contains(ee.data().resources)) {
      reject(RejectReason::kResourceOverclaim);
      continue;
    }
    bool prefixes_ok = true;
    for (const auto& rp : roa.content().prefixes) {
      if (!ee.data().resources.contains(rp.prefix) ||
          rp.max_length < rp.prefix.length() ||
          rp.max_length > rp.prefix.address().width()) {
        prefixes_ok = false;
        break;
      }
    }
    if (!prefixes_ok) {
      reject(RejectReason::kResourceOverclaim);
      continue;
    }
    if (!roa.verify_content_signature()) {
      reject(RejectReason::kBadSignature);
      continue;
    }

    ++report.roas_accepted;
    for (const auto& rp : roa.content().prefixes) {
      report.vrps.push_back(Vrp{rp.prefix, rp.max_length, roa.content().asn});
    }
  }
  if (registry_ != nullptr && !point.roas.empty()) {
    obs::record_duration_ns(
        registry_, "roa_validate",
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - roa_start)
                .count()));
  }
}

void RepositoryValidator::publish(const ValidationReport& report) const {
  if (registry_ == nullptr) return;
  auto& r = *registry_;
  r.counter("ripki.rpki.tas_processed").set(report.tas_processed);
  r.counter("ripki.rpki.cas_accepted").set(report.cas_accepted);
  r.counter("ripki.rpki.cas_rejected").set(report.cas_rejected);
  r.counter("ripki.rpki.roas_accepted").set(report.roas_accepted);
  r.counter("ripki.rpki.roas_rejected").set(report.roas_rejected);
  r.gauge("ripki.rpki.vrps").set(static_cast<std::int64_t>(report.vrps.size()));
  r.describe("ripki.rpki.tas_processed",
             "Trust anchors processed in the stage 4 repository walk");
  r.describe("ripki.rpki.cas_accepted",
             "CA certificates accepted during chain validation");
  r.describe("ripki.rpki.cas_rejected",
             "CA certificates rejected (bad signature, expired, or "
             "malformed)");
  r.describe("ripki.rpki.roas_accepted",
             "ROAs whose EE certificate and signature validated");
  r.describe("ripki.rpki.roas_rejected",
             "ROAs rejected during cryptographic validation");
}

bool RepositoryValidator::validate_ta(const Repository& repo,
                                      ValidationReport& report) const {
  ++report.tas_processed;

  // Trust anchor: self-signed, current, and a CA.
  const auto& ta = repo.ta_cert;
  if (!ta.verify_signature(ta.data().public_key)) {
    report.rejected.push_back({"TA " + ta.data().subject, RejectReason::kBadSignature});
    return false;
  }
  if (!ta.data().validity.contains(now_)) {
    report.rejected.push_back({"TA " + ta.data().subject, RejectReason::kExpired});
    return false;
  }
  if (!ta.data().is_ca) {
    report.rejected.push_back({"TA " + ta.data().subject, RejectReason::kNotACa});
    return false;
  }
  // CA revocation cannot be decided without the TA CRL.
  if (const auto reason = unusable(repo.ta_crl, ta.data().public_key, now_,
                                   RejectReason::kStaleCrl)) {
    report.rejected.push_back({"CRL of TA " + ta.data().subject, *reason});
    return false;
  }
  return true;
}

void RepositoryValidator::validate_into(const Repository& repo,
                                        ValidationReport& report) const {
  obs::Span span(registry_, "rpki.validate_repo");
  if (!validate_ta(repo, report)) return;
  for (const auto& point : repo.points) {
    validate_point(repo, point, report);
  }
}

ValidationReport RepositoryValidator::validate_pooled(
    std::span<const Repository> repos, const std::vector<char>* trusted,
    exec::ThreadPool& pool) const {
  // Cheap trust-anchor pass on the calling thread. Each repo gets a
  // private header fragment holding its TA tallies and TA-level
  // rejections, in the exact order the serial walk would append them.
  std::vector<ValidationReport> headers(repos.size());
  std::vector<char> walk(repos.size(), 0);
  for (std::size_t r = 0; r < repos.size(); ++r) {
    if (trusted != nullptr && (*trusted)[r] == 0) {
      ++headers[r].tas_processed;
      headers[r].rejected.push_back({"TA " + repos[r].ta_cert.data().subject,
                                     RejectReason::kNoMatchingTal});
      continue;
    }
    obs::Span span(registry_, "rpki.validate_repo");
    walk[r] = validate_ta(repos[r], headers[r]) ? 1 : 0;
  }

  // One unit per CA publication point of every walkable repo, in serial
  // order. Pre-sized per-unit fragments make the merge below independent
  // of shard boundaries and thread count.
  struct Unit {
    std::size_t repo;
    std::size_t point;
  };
  std::vector<Unit> units;
  for (std::size_t r = 0; r < repos.size(); ++r) {
    if (walk[r] == 0) continue;
    for (std::size_t p = 0; p < repos[r].points.size(); ++p) {
      units.push_back({r, p});
    }
  }
  std::vector<ValidationReport> fragments(units.size());

  // Workers carry an empty span stack, so shard spans are named with the
  // caller's full dotted path: their roa_validate sub-durations land in
  // the same histograms as the serial walk (PR 3's sweep-span pattern).
  std::string span_path = "rpki.validate_repo";
  if (const obs::Span* current = obs::Span::current();
      current != nullptr && current->active()) {
    span_path = current->path() + ".rpki.validate_repo";
  }
  exec::parallel_for_shards(
      pool, units.size(), pool.size() * kShardsPerWorker,
      [&](std::size_t, std::size_t begin, std::size_t end) {
        obs::Span span(registry_, span_path);
        for (std::size_t i = begin; i < end; ++i) {
          const Unit& unit = units[i];
          validate_point(repos[unit.repo], repos[unit.repo].points[unit.point],
                         fragments[i]);
        }
      });

  // Deterministic join: per-repo header first, then that repo's point
  // fragments in point order — the serial append order exactly.
  ValidationReport report;
  std::size_t next = 0;
  for (std::size_t r = 0; r < repos.size(); ++r) {
    report.merge(std::move(headers[r]));
    while (next < units.size() && units[next].repo == r) {
      report.merge(std::move(fragments[next++]));
    }
  }
  return report;
}

ValidationReport RepositoryValidator::validate(std::span<const Repository> repos,
                                               exec::ThreadPool* pool) const {
  if (pool != nullptr) {
    ValidationReport report = validate_pooled(repos, nullptr, *pool);
    publish(report);
    return report;
  }
  ValidationReport report;
  for (const auto& repo : repos) validate_into(repo, report);
  publish(report);
  return report;
}

ValidationReport RepositoryValidator::validate(
    std::span<const Repository> repos,
    std::span<const TrustAnchorLocator> tals, exec::ThreadPool* pool) const {
  std::vector<char> trusted(repos.size(), 0);
  for (std::size_t r = 0; r < repos.size(); ++r) {
    for (const auto& tal : tals) {
      if (ta_matches_tal(repos[r].ta_cert, tal)) {
        trusted[r] = 1;
        break;
      }
    }
  }
  if (pool != nullptr) {
    ValidationReport report = validate_pooled(repos, &trusted, *pool);
    publish(report);
    return report;
  }
  ValidationReport report;
  for (std::size_t r = 0; r < repos.size(); ++r) {
    if (trusted[r] == 0) {
      ++report.tas_processed;
      report.rejected.push_back({"TA " + repos[r].ta_cert.data().subject,
                                 RejectReason::kNoMatchingTal});
      continue;
    }
    validate_into(repos[r], report);
  }
  publish(report);
  return report;
}

}  // namespace ripki::rpki
