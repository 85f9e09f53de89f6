// Relying-party repository validation: the chain walk a validator such as
// RTRlib's cache, the RIPE validator or Routinator performs (methodology
// step 4: "ROA data of all trust anchors are collected and validated; only
// cryptographically correct ROAs are further used").
//
// Checks applied, in order, per object:
//   trust anchor : self-signature, validity window, CA bit, and a TA CRL
//                  signed by the TA and current (else no CA is walked)
//   CA cert      : signature by TA, validity window, not revoked (TA CRL),
//                  CA bit, resource containment in the TA allocation
//   CRL/manifest : signature by owning key, currency window (else the
//                  point contributes no VRPs; its ROAs are collateral)
//   ROA          : listed in the CA manifest with matching hash, EE cert
//                  signature/validity/revocation, EE resource containment,
//                  ROA prefixes within EE resources, content signature
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rpki/repository.hpp"
#include "rpki/tal.hpp"
#include "rpki/vrp.hpp"

namespace ripki::obs {
class Registry;
}

namespace ripki::exec {
class ThreadPool;
}

namespace ripki::rpki {

/// Why an object was rejected; tallied per reason for diagnostics.
enum class RejectReason : std::uint8_t {
  kBadSignature,
  kExpired,
  kRevoked,
  kResourceOverclaim,
  kNotInManifest,
  kManifestMismatch,
  kStaleCrl,
  kStaleManifest,
  kNotACa,
  kNoMatchingTal,  // TA certificate matches no configured trust anchor locator
};

const char* to_string(RejectReason reason);

struct RejectedObject {
  std::string description;
  RejectReason reason;

  bool operator==(const RejectedObject&) const = default;
};

struct ValidationReport {
  VrpSet vrps;
  std::vector<RejectedObject> rejected;

  std::uint64_t tas_processed = 0;
  std::uint64_t cas_accepted = 0;
  std::uint64_t cas_rejected = 0;
  std::uint64_t roas_accepted = 0;
  std::uint64_t roas_rejected = 0;

  std::uint64_t rejected_for(RejectReason reason) const;

  /// Appends `other`'s VRPs/rejections and sums the tallies; the pooled
  /// walk merges per-point fragments in serial order through this.
  void merge(ValidationReport&& other);

  bool operator==(const ValidationReport&) const = default;
};

class RepositoryValidator {
 public:
  /// `now` is the validation instant for every validity-window check.
  /// When `registry` is given, each repository walk is wrapped in a
  /// `rpki.validate_repo` trace span (ROA signature validation timed
  /// separately as `roa_validate`) and accepted/rejected tallies are
  /// published under `ripki.rpki.*`.
  explicit RepositoryValidator(Timestamp now, obs::Registry* registry = nullptr)
      : now_(now), registry_(registry) {}

  /// Validates one repository rooted at its embedded trust anchor
  /// certificate and appends the surviving VRPs to `report`.
  void validate_into(const Repository& repo, ValidationReport& report) const;

  /// Validates all repositories (the paper's five RIR trust anchors).
  /// When `pool` is given, CA publication points are sharded across its
  /// workers, each validating into a private fragment; fragments merge at
  /// join in repo/point order, so the pooled report is byte-identical to
  /// the serial one at any thread count.
  ValidationReport validate(std::span<const Repository> repos,
                            exec::ThreadPool* pool = nullptr) const;

  /// TAL-bootstrapped validation (RFC 7730): a repository is only walked
  /// when its trust-anchor certificate carries a key configured in one of
  /// the relying party's locators and its self-signature verifies under
  /// that key. Pool semantics as above.
  ValidationReport validate(std::span<const Repository> repos,
                            std::span<const TrustAnchorLocator> tals,
                            exec::ThreadPool* pool = nullptr) const;

 private:
  /// Trust-anchor checks for one repository (tas_processed bump, TA
  /// self-signature/validity/CA-bit, TA CRL signature and currency).
  /// Returns whether the repository's publication points should be walked.
  bool validate_ta(const Repository& repo, ValidationReport& report) const;
  void validate_point(const Repository& repo, const CaPublicationPoint& point,
                      ValidationReport& report) const;
  /// Sharded walk over every publication point of the walkable repos.
  /// `trusted` (when non-null) marks repos admitted by a TAL; the rest get
  /// a kNoMatchingTal rejection header, as in the serial TAL overload.
  ValidationReport validate_pooled(std::span<const Repository> repos,
                                   const std::vector<char>* trusted,
                                   exec::ThreadPool& pool) const;
  void publish(const ValidationReport& report) const;

  Timestamp now_;
  obs::Registry* registry_ = nullptr;
};

}  // namespace ripki::rpki
