//===- ScratchDir.h - A private temporary directory ------------*- C++ -*-===//
//
// A fresh mkdtemp directory under the system temp directory, removed with
// its contents on destruction. Tests and benches that write files keep
// them in one, so two programs running at once (ctest -j runs shard_test,
// shard_soak and shard_stress side by side) never share a path, and a run
// leaves nothing behind.
//
//===----------------------------------------------------------------------===//

#ifndef HGLIFT_SUPPORT_SCRATCHDIR_H
#define HGLIFT_SUPPORT_SCRATCHDIR_H

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace hglift {

class ScratchDir {
public:
  /// Creates <temp>/<Prefix>_XXXXXX. Aborts if that fails: every caller
  /// would otherwise write into a directory that does not exist.
  explicit ScratchDir(const std::string &Prefix) {
    std::error_code EC;
    std::filesystem::path Tmp = std::filesystem::temp_directory_path(EC);
    std::string Tmpl = (EC ? std::string("/tmp") : Tmp.string()) + "/" +
                       Prefix + "_XXXXXX";
    if (!::mkdtemp(Tmpl.data()))
      std::abort();
    Path = Tmpl;
  }
  ~ScratchDir() {
    std::error_code EC;
    std::filesystem::remove_all(Path, EC);
  }
  ScratchDir(const ScratchDir &) = delete;
  ScratchDir &operator=(const ScratchDir &) = delete;

  const std::string &path() const { return Path; }
  /// Path of Name inside the directory.
  std::string file(const std::string &Name) const { return Path + "/" + Name; }

private:
  std::string Path;
};

} // namespace hglift

#endif // HGLIFT_SUPPORT_SCRATCHDIR_H
