// The `.matrix` spec and its expansion: parse errors carry line
// numbers, `--set` replaces axes wholesale, and the cross product walks
// sorted keys with the last key spinning fastest — so the cell at index
// i is a pure function of the spec, which is what lets `osapd expand`,
// `osapd run` and the benchmark's paper grid share one cell order.
#include "osapd/matrix.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/error.hpp"
#include "osapd/expand.hpp"

namespace osap::osapd {
namespace {

MatrixSpec parse(const std::string& text) {
  std::istringstream in(text);
  return parse_matrix(in, "test.matrix");
}

TEST(Matrix, ParsesCommentsBlanksAndValueLists) {
  const MatrixSpec spec = parse(
      "# fig2-ish sweep\n"
      "\n"
      "workload  = two_job\n"
      "primitive = wait, kill, susp\n"
      "r         = 0.1,0.2\n");
  ASSERT_EQ(spec.axes.size(), 3u);
  EXPECT_EQ(spec.axes.at("workload"), (std::vector<std::string>{"two_job"}));
  EXPECT_EQ(spec.axes.at("primitive"), (std::vector<std::string>{"wait", "kill", "susp"}));
  EXPECT_EQ(spec.axes.at("r"), (std::vector<std::string>{"0.1", "0.2"}));
  EXPECT_EQ(spec.cells(), 6u);
  EXPECT_EQ(MatrixSpec{}.cells(), 0u);
}

TEST(Matrix, RejectsDuplicateAxesAndMalformedLines) {
  EXPECT_THROW((void)parse("r = 0.1\nr = 0.2\n"), SimError);
  EXPECT_THROW((void)parse("just words\n"), SimError);
  EXPECT_THROW((void)parse("R = 0.1\n"), SimError);  // keys are [a-z0-9_]+
  EXPECT_THROW((void)parse("r = \n"), SimError);     // an axis needs a value
}

TEST(Matrix, ApplySetReplacesTheWholeAxis) {
  MatrixSpec spec = parse("primitive = wait, kill, susp\nr = 0.5\n");
  apply_set(spec, "primitive=susp");            // narrow
  apply_set(spec, "seed=1,2,3");                // introduce
  EXPECT_EQ(spec.axes.at("primitive"), (std::vector<std::string>{"susp"}));
  EXPECT_EQ(spec.axes.at("seed"), (std::vector<std::string>{"1", "2", "3"}));
  EXPECT_EQ(spec.cells(), 3u);
  EXPECT_THROW(apply_set(spec, "no-equals"), SimError);
}

TEST(Expand, RowMajorOverSortedKeysLastKeyFastest) {
  MatrixSpec spec;
  spec.axes["primitive"] = {"kill", "susp"};
  spec.axes["r"] = {"0.1", "0.2"};
  const std::vector<core::RunDescriptor> cells = expand(spec);
  ASSERT_EQ(cells.size(), 4u);
  // Sorted keys are (primitive, r); r spins fastest. Defaults are
  // materialized by normalization, so the canonical text is total.
  const char* expected[] = {
      "jitter=0.02;primitive=kill;r=0.1;seed=1;th_state=0;tl_state=0;workload=two_job",
      "jitter=0.02;primitive=kill;r=0.2;seed=1;th_state=0;tl_state=0;workload=two_job",
      "jitter=0.02;primitive=susp;r=0.1;seed=1;th_state=0;tl_state=0;workload=two_job",
      "jitter=0.02;primitive=susp;r=0.2;seed=1;th_state=0;tl_state=0;workload=two_job",
  };
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].canonical(), expected[i]) << "cell " << i;
  }
}

TEST(Expand, NormalizationMakesSpelledAndTerseSpecsShareDigests) {
  MatrixSpec terse;
  terse.axes["primitive"] = {"kill"};
  MatrixSpec spelled;
  spelled.axes["workload"] = {"two_job"};
  spelled.axes["primitive"] = {"kill"};
  spelled.axes["r"] = {"0.5"};
  spelled.axes["seed"] = {"1"};
  const std::vector<core::RunDescriptor> a = expand(terse);
  const std::vector<core::RunDescriptor> b = expand(spelled);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(a[0].digest(), b[0].digest());
}

TEST(Expand, RejectsAMiskeyedAxisBeforeAnythingRuns) {
  MatrixSpec spec;
  spec.axes["primitve"] = {"kill"};  // typo: must fail the whole sweep
  EXPECT_THROW((void)expand(spec), SimError);
}

TEST(Expand, CellKeyDropsOnlyTheSeedAxis) {
  MatrixSpec spec;
  spec.axes["primitive"] = {"susp"};
  spec.axes["seed"] = {"1", "2"};
  const std::vector<core::RunDescriptor> cells = expand(spec);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cell_key(cells[0]), cell_key(cells[1]));
  EXPECT_EQ(cell_key(cells[0]).find("seed="), std::string::npos);
  EXPECT_NE(cell_key(cells[0]).find("primitive=susp"), std::string::npos);
  EXPECT_NE(cells[0].digest(), cells[1].digest());  // seeds still distinct cells
}

}  // namespace
}  // namespace osap::osapd
