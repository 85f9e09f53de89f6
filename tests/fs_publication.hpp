// rsync-style publication: materialise a repository as an on-disk
// publication-point tree (the layout an `rsync -a rsync://... ./cache`
// fetch produces) and load it back for validation. The pre-RRDP transport
// relying parties used in the paper's measurement period. A test helper:
// rrdp_test round-trips repositories through a tree.
#pragma once

#include <filesystem>

#include "rpki/publication.hpp"

namespace ripki::rpki {

/// Writes `repo` under `root` (ta.cer, ta.crl, <point>/...). The directory
/// is created; existing files are overwritten.
util::Result<void> write_repository_tree(const Repository& repo,
                                         const std::filesystem::path& root);

/// Loads a repository tree previously written by write_repository_tree
/// (or mirrored via rsync). Strict about unknown files.
util::Result<Repository> read_repository_tree(const std::filesystem::path& root);

}  // namespace ripki::rpki
