#include "fs_publication.hpp"

#include <fstream>

namespace ripki::rpki {

namespace fs = std::filesystem;

util::Result<void> write_repository_tree(const Repository& repo,
                                         const fs::path& root) {
  std::error_code ec;
  fs::create_directories(root, ec);
  if (ec) return util::Err("fs publication: cannot create " + root.string());

  const std::string base = repository_base_uri(repo);
  for (const auto& object : publish_repository(repo)) {
    // Strip "<base>/" to get the repository-relative path.
    const std::string relative = object.uri.substr(base.size() + 1);
    const fs::path path = root / relative;
    fs::create_directories(path.parent_path(), ec);
    if (ec) return util::Err("fs publication: cannot create " +
                             path.parent_path().string());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return util::Err("fs publication: cannot write " + path.string());
    out.write(reinterpret_cast<const char*>(object.data.data()),
              static_cast<std::streamsize>(object.data.size()));
    if (!out) return util::Err("fs publication: short write to " + path.string());
  }
  return {};
}

util::Result<Repository> read_repository_tree(const fs::path& root) {
  std::error_code ec;
  if (!fs::is_directory(root, ec) || ec)
    return util::Err("fs publication: not a directory: " + root.string());

  std::vector<PublishedObject> objects;
  for (const auto& entry : fs::recursive_directory_iterator(root, ec)) {
    if (ec) return util::Err("fs publication: walk failed in " + root.string());
    if (!entry.is_regular_file()) continue;

    std::ifstream in(entry.path(), std::ios::binary);
    if (!in) return util::Err("fs publication: cannot read " +
                              entry.path().string());
    util::Bytes data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());

    // Rebuild a synthetic URI so assemble_repository sees the same shape
    // as an rsync fetch would.
    const std::string relative =
        fs::relative(entry.path(), root, ec).generic_string();
    if (ec) return util::Err("fs publication: relative path failed");
    objects.push_back({"rsync://cache.example/repo/" + relative, std::move(data)});
  }
  return assemble_repository(objects);
}

}  // namespace ripki::rpki
