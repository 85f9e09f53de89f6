// Repository publication: flattening a Repository into the named, encoded
// objects a publication server offers (.cer/.crl/.mft/.roa files under
// rsync URIs), and reassembling a Repository from fetched objects.
//
// This is the object layer shared by both relying-party transports:
// RRDP (rpki/rrdp.hpp) and rsync-style directory trees (the test helper
// tests/fs_publication.hpp).
#pragma once

#include <string>
#include <vector>

#include "rpki/repository.hpp"

namespace ripki::rpki {

struct PublishedObject {
  /// rsync URI, e.g. "rsync://rpki.ripe.example/repo/7/roa-AS64512-0.roa".
  std::string uri;
  util::Bytes data;

  bool operator==(const PublishedObject&) const = default;
};

/// Base URI for a trust anchor's publication point.
std::string repository_base_uri(const Repository& repo);

/// Serialises every object of `repo` with deterministic URIs:
///   <base>/ta.cer  <base>/ta.crl
///   <base>/<point-index>/ca.cer|revoked.crl|manifest.mft|roa-...-<i>.roa
std::vector<PublishedObject> publish_repository(const Repository& repo);

/// Reassembles a Repository from published objects (the relying party's
/// view after an rsync/RRDP fetch). Strict: unknown extensions, missing
/// TA objects, undecodable payloads, or stray URIs are errors. The result
/// feeds RepositoryValidator exactly like a locally built Repository.
util::Result<Repository> assemble_repository(
    const std::vector<PublishedObject>& objects);

}  // namespace ripki::rpki
