#include "rpki/repository.hpp"

#include <algorithm>
#include <cassert>

namespace ripki::rpki {

std::size_t Repository::total_roas() const {
  std::size_t n = 0;
  for (const auto& point : points) n += point.roas.size();
  return n;
}

TrustAnchor make_trust_anchor(const std::string& name, ResourceSet allocation,
                              ValidityWindow validity, util::Prng& prng) {
  TrustAnchor anchor;
  anchor.name = name;
  anchor.keys = crypto::generate_keypair(prng);
  anchor.allocation = allocation;

  CertificateData data;
  data.serial = 1;
  data.subject = name + " trust anchor";
  data.issuer = data.subject;
  data.is_ca = true;
  data.public_key = anchor.keys.pub;
  data.resources = std::move(allocation);
  data.validity = validity;
  anchor.cert = Certificate::self_sign(std::move(data), anchor.keys.priv);
  return anchor;
}

RepositoryBuilder::RepositoryBuilder(const TrustAnchor& anchor, Timestamp now,
                                     util::Prng& prng)
    : anchor_(anchor), now_(now), prng_(prng) {}

std::size_t RepositoryBuilder::add_ca_internal(const std::string& subject,
                                               ResourceSet resources, bool overclaim) {
  if (!overclaim) {
    assert(anchor_.allocation.contains(resources) &&
           "CA resources must be delegated by the trust anchor; use "
           "add_overclaiming_ca to test the rejection path");
  }
  PendingPoint point;
  point.subject = subject;
  point.keys = crypto::generate_keypair(prng_);

  CertificateData data;
  data.serial = next_serial_++;
  data.subject = subject;
  data.issuer = anchor_.cert.data().subject;
  data.is_ca = true;
  data.public_key = point.keys.pub;
  data.resources = std::move(resources);
  data.validity = ValidityWindow{now_ - 30 * kSecondsPerDay, now_ + 365 * kSecondsPerDay};
  point.cert = Certificate::issue(std::move(data), anchor_.keys.pub, anchor_.keys.priv);

  pending_.push_back(std::move(point));
  return pending_.size() - 1;
}

std::size_t RepositoryBuilder::add_ca(const std::string& subject,
                                      ResourceSet resources) {
  return add_ca_internal(subject, std::move(resources), /*overclaim=*/false);
}

std::size_t RepositoryBuilder::add_overclaiming_ca(const std::string& subject,
                                                   ResourceSet resources) {
  return add_ca_internal(subject, std::move(resources), /*overclaim=*/true);
}

Roa RepositoryBuilder::make_roa(PendingPoint& point, RoaContent content,
                                ValidityWindow validity) {
  return Roa::create(std::move(content), point.subject, point.keys.pub,
                     point.keys.priv, crypto::generate_keypair(prng_), next_serial_++,
                     validity);
}

void RepositoryBuilder::add_roa(std::size_t ca_index, const RoaContent& content) {
  auto& point = pending_.at(ca_index);
  point.roas.push_back(make_roa(
      point, content,
      ValidityWindow{now_ - 7 * kSecondsPerDay, now_ + 180 * kSecondsPerDay}));
}

void RepositoryBuilder::add_tampered_roa(std::size_t ca_index, RoaContent content) {
  auto& point = pending_.at(ca_index);
  const Roa roa = make_roa(point, std::move(content),
                           ValidityWindow{now_ - 7 * kSecondsPerDay,
                                          now_ + 180 * kSecondsPerDay});
  // Corrupt the content signature on the wire: the kRoaSignature payload is
  // the final 32 bytes of the encoding. The object stays structurally
  // well-formed but its signature no longer verifies.
  util::Bytes encoded = roa.encode();
  assert(encoded.size() >= 32);
  encoded[encoded.size() - 1] ^= 0x01;
  auto corrupted = Roa::decode(encoded);
  assert(corrupted.ok());
  point.roas.push_back(std::move(corrupted).value());
}

void RepositoryBuilder::add_expired_roa(std::size_t ca_index,
                                        const RoaContent& content) {
  auto& point = pending_.at(ca_index);
  point.roas.push_back(make_roa(
      point, content,
      ValidityWindow{now_ - 365 * kSecondsPerDay, now_ - 30 * kSecondsPerDay}));
}

void RepositoryBuilder::revoke_ca(std::size_t ca_index) {
  revoked_ca_serials_.push_back(pending_.at(ca_index).cert.data().serial);
}

void RepositoryBuilder::revoke_roa(std::size_t ca_index, std::size_t roa_index) {
  auto& point = pending_.at(ca_index);
  point.revoked_ee_serials.push_back(
      point.roas.at(roa_index).ee_cert().data().serial);
}

void RepositoryBuilder::hide_from_manifest(std::size_t ca_index,
                                           std::size_t roa_index) {
  pending_.at(ca_index).hidden_roas.push_back(roa_index);
}

void RepositoryBuilder::corrupt_manifest_hash(std::size_t ca_index,
                                              std::size_t roa_index) {
  pending_.at(ca_index).corrupt_hash_roas.push_back(roa_index);
}

void RepositoryBuilder::strip_ca_bit(std::size_t ca_index) {
  auto& point = pending_.at(ca_index);
  CertificateData data = point.cert.data();
  data.is_ca = false;
  point.cert = Certificate::issue(std::move(data), anchor_.keys.pub,
                                  anchor_.keys.priv);
}

void RepositoryBuilder::make_crl_stale(std::size_t ca_index) {
  pending_.at(ca_index).stale_crl = true;
}

void RepositoryBuilder::make_manifest_stale(std::size_t ca_index) {
  pending_.at(ca_index).stale_manifest = true;
}

Repository RepositoryBuilder::build() {
  Repository repo;
  repo.ta_cert = anchor_.cert;

  CrlData ta_crl;
  ta_crl.issuer = anchor_.cert.data().subject;
  ta_crl.this_update = now_ - kSecondsPerDay;
  ta_crl.next_update = now_ + 30 * kSecondsPerDay;
  ta_crl.revoked_serials = revoked_ca_serials_;
  repo.ta_crl = Crl::create(std::move(ta_crl), anchor_.keys.priv);

  // A point's CRL and manifest cover 31 days; a current one ends 30 days
  // after `now_`, a stale one a day before it.
  const auto window_end = [&](bool stale) {
    return stale ? now_ - kSecondsPerDay : now_ + 30 * kSecondsPerDay;
  };
  const auto listed = [](const std::vector<std::size_t>& roas, std::size_t i) {
    return std::find(roas.begin(), roas.end(), i) != roas.end();
  };
  for (auto& pending : pending_) {
    CaPublicationPoint point;
    point.ca_cert = pending.cert;
    point.roas = std::move(pending.roas);

    CrlData crl;
    crl.issuer = pending.subject;
    crl.next_update = window_end(pending.stale_crl);
    crl.this_update = crl.next_update - 31 * kSecondsPerDay;
    crl.revoked_serials = pending.revoked_ee_serials;
    point.crl = Crl::create(std::move(crl), pending.keys.priv);

    ManifestData manifest;
    manifest.issuer = pending.subject;
    manifest.manifest_number = 1;
    manifest.next_update = window_end(pending.stale_manifest);
    manifest.this_update = manifest.next_update - 31 * kSecondsPerDay;
    for (std::size_t i = 0; i < point.roas.size(); ++i) {
      if (listed(pending.hidden_roas, i)) continue;
      const util::Bytes encoded = point.roas[i].encode();
      ManifestEntry entry;
      entry.file_name = point.roas[i].file_name(i);
      entry.hash = crypto::sha256(encoded);
      if (listed(pending.corrupt_hash_roas, i)) entry.hash[0] ^= 0x01;
      manifest.entries.push_back(std::move(entry));
    }
    point.manifest = Manifest::create(std::move(manifest), pending.keys.priv);

    repo.points.push_back(std::move(point));
  }
  return repo;
}

}  // namespace ripki::rpki
