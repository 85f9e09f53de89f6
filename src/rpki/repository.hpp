// Repository model: the publication points a relying party fetches.
//
// One Repository corresponds to one trust anchor (an RIR in the paper's
// methodology: AFRINIC, APNIC, ARIN, LACNIC, RIPE). Below the TA sit CA
// publication points, one per resource-holding organisation, each
// publishing its ROAs, a CRL and a manifest.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "rpki/cert.hpp"
#include "rpki/crl.hpp"
#include "rpki/manifest.hpp"
#include "rpki/roa.hpp"
#include "util/prng.hpp"

namespace ripki::rpki {

struct CaPublicationPoint {
  Certificate ca_cert;
  std::vector<Roa> roas;
  Crl crl;            // issued by this CA; revokes its EE certificates
  Manifest manifest;  // lists every ROA file of this point with its hash
};

struct Repository {
  Certificate ta_cert;  // self-signed trust anchor certificate
  Crl ta_crl;           // issued by the TA; revokes CA certificates
  std::vector<CaPublicationPoint> points;

  std::size_t total_roas() const;
};

/// Generator-side identity of a trust anchor: its name, key material,
/// self-signed certificate and total address allocation.
struct TrustAnchor {
  std::string name;
  crypto::KeyPair keys;
  Certificate cert;
  ResourceSet allocation;
};

TrustAnchor make_trust_anchor(const std::string& name, ResourceSet allocation,
                              ValidityWindow validity, util::Prng& prng);

/// Incrementally assembles one trust anchor's repository. Used by the
/// ecosystem generator and by tests; also exposes tampering hooks so the
/// validator's rejection paths can be exercised. A hook acts only when
/// called, and the hooks that fault an existing object draw no
/// randomness, so every other object keeps the keys and bytes it has
/// without them.
class RepositoryBuilder {
 public:
  RepositoryBuilder(const TrustAnchor& anchor, Timestamp now, util::Prng& prng);

  /// Adds a CA publication point for an organisation holding `resources`.
  /// Returns its index for subsequent add_roa calls.
  std::size_t add_ca(const std::string& subject, ResourceSet resources);

  /// Adds a CA whose resources are NOT covered by the trust anchor
  /// (exercises the resource-containment rejection path).
  std::size_t add_overclaiming_ca(const std::string& subject, ResourceSet resources);

  /// Issues a signed ROA under publication point `ca_index`.
  void add_roa(std::size_t ca_index, const RoaContent& content);

  /// Issues a ROA whose content is corrupted after signing (bad signature).
  void add_tampered_roa(std::size_t ca_index, RoaContent content);

  /// Issues a ROA that is already expired at build time.
  void add_expired_roa(std::size_t ca_index, const RoaContent& content);

  /// Revokes the CA certificate at `ca_index` in the TA's CRL.
  void revoke_ca(std::size_t ca_index);

  /// Revokes the EE certificate of ROA `roa_index` under `ca_index`.
  void revoke_roa(std::size_t ca_index, std::size_t roa_index);

  /// Omits ROA `roa_index` of `ca_index` from the manifest (exercises the
  /// manifest-completeness rejection path).
  void hide_from_manifest(std::size_t ca_index, std::size_t roa_index);

  /// Lists ROA `roa_index` of `ca_index` on the manifest with a wrong hash
  /// (exercises the manifest-hash rejection path).
  void corrupt_manifest_hash(std::size_t ca_index, std::size_t roa_index);

  /// Re-issues the certificate of `ca_index` without the CA bit (exercises
  /// the not-a-CA rejection path).
  void strip_ca_bit(std::size_t ca_index);

  /// Issues the CRL of `ca_index` already stale at build time.
  void make_crl_stale(std::size_t ca_index);

  /// Issues the manifest of `ca_index` already stale at build time.
  void make_manifest_stale(std::size_t ca_index);

  /// Finalises CRLs and manifests and returns the repository.
  Repository build();

  const TrustAnchor& anchor() const { return anchor_; }

 private:
  struct PendingPoint {
    std::string subject;
    crypto::KeyPair keys;
    Certificate cert;
    std::vector<Roa> roas;
    std::vector<std::uint64_t> revoked_ee_serials;
    std::vector<std::size_t> hidden_roas;
    std::vector<std::size_t> corrupt_hash_roas;
    bool stale_crl = false;
    bool stale_manifest = false;
  };

  std::size_t add_ca_internal(const std::string& subject, ResourceSet resources,
                              bool overclaim);
  Roa make_roa(PendingPoint& point, RoaContent content, ValidityWindow validity);

  const TrustAnchor& anchor_;
  Timestamp now_;
  util::Prng& prng_;
  std::uint64_t next_serial_ = 1;
  std::vector<PendingPoint> pending_;
  std::vector<std::uint64_t> revoked_ca_serials_;
};

}  // namespace ripki::rpki
