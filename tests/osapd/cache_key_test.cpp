// The osapd result cache is keyed by each cell's config digest, so a
// change that moves one orphans every cached record of that cell and
// splits a sweep's history in two. These folds pin the digests every
// committed matrix expands to: per file, its cells' config digests in
// expansion order, folded through FNV-1a (each digest's eight bytes, low
// byte first). `osapd expand <file>` prints the digests a row folds.
// Regenerate a row only for an intentional change of an axis or a
// default, and name the change where it is recorded.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "osapd/expand.hpp"
#include "osapd/matrix.hpp"

namespace osap::osapd {
namespace {

struct Fold {
  std::size_t cells = 0;
  std::uint64_t digest = 0xcbf29ce484222325ull;
};

Fold fold_config_digests(const std::filesystem::path& file) {
  std::ifstream in(file);
  EXPECT_TRUE(in) << "cannot open " << file;
  Fold fold;
  for (const core::RunDescriptor& d : expand(parse_matrix(in, file.string()))) {
    const std::uint64_t digest = d.digest();
    for (int byte = 0; byte < 8; ++byte) {
      fold.digest ^= (digest >> (8 * byte)) & 0xffu;
      fold.digest *= 0x100000001b3ull;
    }
    ++fold.cells;
  }
  return fold;
}

TEST(CacheKeys, EveryCommittedMatrixKeepsItsConfigDigests) {
  struct Pin {
    const char* dir;
    const char* file;
    std::size_t cells;
    std::uint64_t fold;
  };
  const Pin pins[] = {
      {OSAP_CONFIGS_DIR, "fig2.matrix", 540, 0xafe41ecb083d6416ull},
      {OSAP_CONFIGS_DIR, "fig3.matrix", 540, 0xd29b9fb8fa63fb63ull},
      {OSAP_CONFIGS_DIR, "fig4.matrix", 540, 0x15a7be214137448aull},
      {OSAP_CONFIGS_DIR, "natjam.matrix", 240, 0x08b704bc7af87181ull},
      {OSAP_CONFIGS_DIR, "policy.matrix", 32, 0x5d84ba2b673c094full},
      {OSAP_CONFIGS_DIR, "revoke.matrix", 18, 0x9e02d68cfcc5b2e2ull},
      {OSAP_CONFIGS_DIR, "sched_prim.matrix", 12, 0x6944687b54185d9aull},
      {OSAP_CONFIGS_DIR, "smoke.matrix", 4, 0x361aa7a446a4ceebull},
      {OSAP_PERFBENCH_INPUTS_DIR, "fig2.matrix", 540, 0xafe41ecb083d6416ull},
      {OSAP_PERFBENCH_INPUTS_DIR, "fig3.matrix", 540, 0xd29b9fb8fa63fb63ull},
      {OSAP_PERFBENCH_INPUTS_DIR, "fig4.matrix", 540, 0x15a7be214137448aull},
      {OSAP_PERFBENCH_INPUTS_DIR, "natjam.matrix", 240, 0x08b704bc7af87181ull},
      {OSAP_PERFBENCH_INPUTS_DIR, "policy.matrix", 256, 0x4856eae306a95472ull},
      {OSAP_PERFBENCH_INPUTS_DIR, "revoke.matrix", 144, 0x124387f1da2aa455ull},
  };
  std::set<std::filesystem::path> pinned;
  for (const Pin& pin : pins) {
    const std::filesystem::path file = std::filesystem::path(pin.dir) / pin.file;
    SCOPED_TRACE(file.string());
    pinned.insert(file);
    const Fold fold = fold_config_digests(file);
    EXPECT_EQ(fold.cells, pin.cells);
    EXPECT_EQ(fold.digest, pin.fold);
  }
  // Every committed matrix has a row: a new file must be pinned too.
  std::set<std::filesystem::path> committed;
  for (const char* dir : {OSAP_CONFIGS_DIR, OSAP_PERFBENCH_INPUTS_DIR}) {
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".matrix") committed.insert(entry.path());
    }
  }
  EXPECT_EQ(committed, pinned);
  EXPECT_EQ(pinned.size(), std::size(pins));
}

}  // namespace
}  // namespace osap::osapd
