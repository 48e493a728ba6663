// Aggregation over terminal cell results: seed replicates group by
// cell_key, percentiles are nearest-rank, the pivot reproduces the
// paper's fig2 layout when the axes allow it, and the summary JSON is
// invariant under the pool's completion order — the whole point of
// sorting every traversal.
#include "osapd/aggregate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "osapd/expand.hpp"

namespace osap::osapd {
namespace {

core::RunDescriptor cell(const std::string& text) {
  return core::normalize_descriptor(core::RunDescriptor::parse(text));
}

CellResult ok_cell(std::size_t index, double sojourn_th, double makespan) {
  CellResult res;
  res.index = index;
  res.attempts = 1;
  res.ok = true;
  res.record.ok = true;
  res.record.sojourn_th = sojourn_th;
  res.record.makespan = makespan;
  return res;
}

CellResult failed_cell(std::size_t index, const std::string& error) {
  CellResult res;
  res.index = index;
  res.attempts = 1;
  res.ok = false;
  res.error = error;
  return res;
}

TEST(Aggregate, GroupsSeedReplicatesWithNearestRankPercentiles) {
  std::vector<core::RunDescriptor> descriptors;
  std::vector<CellResult> cells;
  const double sojourns[] = {30, 10, 50, 20, 40};  // deliberately unsorted
  for (std::size_t i = 0; i < 5; ++i) {
    descriptors.push_back(cell("primitive=susp;r=0.5;seed=" + std::to_string(i + 1)));
    cells.push_back(ok_cell(i, sojourns[i], 100 + static_cast<double>(i)));
  }
  descriptors.push_back(cell("primitive=susp;r=0.5;seed=6"));
  cells.push_back(failed_cell(5, "worker exited (status 9)"));

  const std::vector<GroupStats> groups = group_stats(descriptors, cells);
  ASSERT_EQ(groups.size(), 1u);  // all six cells share one cell_key
  const GroupStats& g = groups[0];
  EXPECT_EQ(g.cell_key, cell_key(descriptors[0]));
  EXPECT_EQ(g.runs, 5);
  EXPECT_EQ(g.failed, 1);
  EXPECT_DOUBLE_EQ(g.mean, 30);
  EXPECT_DOUBLE_EQ(g.p50, 30);  // nearest rank: ceil(0.50 * 5) = 3rd of sorted
  EXPECT_DOUBLE_EQ(g.p99, 50);  // ceil(0.99 * 5) = 5th
  EXPECT_DOUBLE_EQ(g.min, 10);
  EXPECT_DOUBLE_EQ(g.max, 50);
  EXPECT_DOUBLE_EQ(g.makespan_mean, 102);
}

TEST(Aggregate, PivotPrefersTheFig2Layout) {
  std::vector<core::RunDescriptor> descriptors = {
      cell("primitive=kill;r=0.1"), cell("primitive=susp;r=0.1"),
      cell("primitive=kill;r=0.2"),  // (r=0.2, susp) deliberately absent
  };
  std::vector<CellResult> cells = {ok_cell(0, 85, 0), ok_cell(1, 78, 0), ok_cell(2, 86, 0)};
  const PivotTable table = pivot(descriptors, cells);
  EXPECT_EQ(table.row_axis, "r");
  EXPECT_EQ(table.col_axis, "primitive");
  EXPECT_EQ(table.rows, (std::vector<std::string>{"0.1", "0.2"}));
  EXPECT_EQ(table.cols, (std::vector<std::string>{"kill", "susp"}));
  ASSERT_EQ(table.values.size(), 2u);
  ASSERT_EQ(table.values[0].size(), 2u);
  EXPECT_DOUBLE_EQ(table.values[0][0], 85);
  EXPECT_DOUBLE_EQ(table.values[0][1], 78);
  EXPECT_DOUBLE_EQ(table.values[1][0], 86);
  EXPECT_DOUBLE_EQ(table.values[1][1], -1);  // empty cell, not NaN
}

TEST(Aggregate, PivotRowsSortNumericallyNotLexically) {
  // Lexicographic order would put "0.100" < "0.55" < "0.9" too, so use
  // a value set where the two orders genuinely disagree: lexically
  // "0.100" < "0.55" but also "0.9" > "0.55"; the tell is "0.100" vs
  // "0.55" against plain integers.
  const std::vector<core::RunDescriptor> descriptors = {
      cell("primitive=susp;r=10"), cell("primitive=susp;r=9"),
      cell("primitive=susp;r=0.55")};
  const std::vector<CellResult> cells = {ok_cell(0, 1, 0), ok_cell(1, 2, 0),
                                         ok_cell(2, 3, 0)};
  const PivotTable table = pivot(descriptors, cells);
  // Lexically the order would be {"0.55", "10", "9"}.
  EXPECT_EQ(table.rows, (std::vector<std::string>{"0.55", "9", "10"}));
}

TEST(Aggregate, PivotPutsTheSweptStateSizeAgainstThePrimitives) {
  // Figure 4's shape: th's state swept at a fixed r. Normalization
  // writes r=0.5 into every cell, so r is present but not swept and
  // must not take the rows. Sizes sort by bytes, not as text.
  std::vector<core::RunDescriptor> descriptors;
  std::vector<CellResult> cells;
  for (const char* th : {"2560MiB", "0", "320MiB"}) {
    for (const char* prim : {"susp", "kill", "wait"}) {
      const std::size_t i = descriptors.size();
      descriptors.push_back(cell(std::string("primitive=") + prim + ";r=0.5;tl_state=2560MiB" +
                                 ";th_state=" + th));
      CellResult res = ok_cell(i, 100 + static_cast<double>(i), 200 + static_cast<double>(i));
      res.record.tl_swapped_out_mib = static_cast<double>(i);
      cells.push_back(res);
    }
  }
  const PivotTable table = pivot(descriptors, cells);
  EXPECT_EQ(table.row_axis, "th_state");
  EXPECT_EQ(table.col_axis, "primitive");
  EXPECT_EQ(table.rows, (std::vector<std::string>{"0", "320MiB", "2560MiB"}));
  EXPECT_EQ(table.cols, (std::vector<std::string>{"kill", "susp", "wait"}));
  // (th_state=320MiB, susp) is cell 6: the makespan and paged-out MiB
  // matrices sit beside the sojourn one, same layout.
  ASSERT_EQ(table.makespan.size(), 3u);
  ASSERT_EQ(table.tl_swapped_out_mib.size(), 3u);
  EXPECT_DOUBLE_EQ(table.values[1][1], 106);
  EXPECT_DOUBLE_EQ(table.makespan[1][1], 206);
  EXPECT_DOUBLE_EQ(table.tl_swapped_out_mib[1][1], 6);
}

TEST(Aggregate, PivotFallsBackToTheFirstTwoMultiValuedAxes) {
  // The trace workload has a primitive axis but no r, so the fig2 shape
  // is unavailable; sorted multi-valued non-seed axes take over.
  std::vector<core::RunDescriptor> descriptors = {
      cell("workload=trace;jobs=8;scheduler=fifo"),
      cell("workload=trace;jobs=8;scheduler=hfsp"),
      cell("workload=trace;jobs=16;scheduler=fifo"),
      cell("workload=trace;jobs=16;scheduler=hfsp"),
  };
  std::vector<CellResult> cells = {ok_cell(0, 10, 0), ok_cell(1, 11, 0), ok_cell(2, 12, 0),
                                   ok_cell(3, 13, 0)};
  const PivotTable table = pivot(descriptors, cells);
  EXPECT_EQ(table.row_axis, "jobs");       // first multi-valued key in sorted order
  EXPECT_EQ(table.col_axis, "scheduler");  // second
  EXPECT_EQ(table.rows, (std::vector<std::string>{"8", "16"}));  // numeric sort
  EXPECT_EQ(table.cols, (std::vector<std::string>{"fifo", "hfsp"}));
}

TEST(Aggregate, SummaryJsonIsInvariantUnderCompletionOrder) {
  std::vector<core::RunDescriptor> descriptors;
  std::vector<CellResult> cells;
  std::size_t i = 0;
  for (const char* prim : {"kill", "susp"}) {
    for (const char* seed : {"1", "2"}) {
      descriptors.push_back(
          cell(std::string("primitive=") + prim + ";r=0.5;seed=" + seed));
      CellResult res = ok_cell(i, 70 + static_cast<double>(i), 600);
      res.record.trace_digest = 0x1000 + i;
      res.record.events = 700 + i;
      res.record.jobs = 2;
      cells.push_back(res);
      ++i;
    }
  }
  const std::vector<std::pair<std::string, std::uint64_t>> harness = {
      {"osapd.cells_total", 4}, {"osapd.cells_completed", 4}};

  std::ostringstream forward;
  write_summary_json(forward, descriptors, cells, false, harness, 12.5);

  std::vector<CellResult> shuffled(cells.rbegin(), cells.rend());
  std::ostringstream backward;
  write_summary_json(backward, descriptors, shuffled, false, harness, 12.5);
  EXPECT_EQ(forward.str(), backward.str());

  const std::string json = forward.str();
  EXPECT_NE(json.find("\"schema\":\"osapd-summary-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"cells_total\":4"), std::string::npos);
  EXPECT_NE(json.find("\"cells_ok\":4"), std::string::npos);
  EXPECT_NE(json.find("\"osapd.cells_total\":4"), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\":12.5"), std::string::npos);
  // The volatile fields stay out of the results section entirely.
  EXPECT_EQ(json.find("\"cached\""), std::string::npos);
  EXPECT_EQ(json.find("\"attempts\""), std::string::npos);

  // Three seeds per group, on node_mix/revoke_react axes so the frontier
  // block is filled too, with makespans and costs of 0.1, 0.2 and 0.3:
  // (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1 in binary floating point, so
  // any mean summed in arrival order shows up in the last digits.
  std::vector<core::RunDescriptor> revoke_descriptors;
  std::vector<CellResult> revoke_cells;
  std::size_t j = 0;
  for (const char* react : {"none", "checkpoint"}) {
    for (const char* seed : {"1", "2", "3"}) {
      revoke_descriptors.push_back(
          cell(std::string("workload=trace;lifetime_model=exp;node_mix=0.5;revoke_react=") +
               react + ";seed=" + seed));
      const double tenths = 0.1 * static_cast<double>(j % 3 + 1);
      CellResult res = ok_cell(j, tenths, tenths);
      res.record.cost = tenths;
      revoke_cells.push_back(res);
      ++j;
    }
  }
  std::ostringstream arrival;
  write_summary_json(arrival, revoke_descriptors, revoke_cells, false, harness, 12.5);
  std::vector<CellResult> reversed(revoke_cells.rbegin(), revoke_cells.rend());
  std::ostringstream reverse_arrival;
  write_summary_json(reverse_arrival, revoke_descriptors, reversed, false, harness, 12.5);
  EXPECT_EQ(arrival.str(), reverse_arrival.str());
  EXPECT_NE(arrival.str().find("\"frontier\":[{"), std::string::npos) << arrival.str();
}

TEST(Aggregate, FrontierGroupsByMixAndReactionInNumericMixOrder) {
  // Two mixes x two reactions, two seeds each; one failed cell must not
  // pollute its point's means.
  std::vector<core::RunDescriptor> descriptors;
  std::vector<CellResult> cells;
  std::size_t i = 0;
  for (const char* mix : {"0.5", "0.25"}) {
    for (const char* react : {"none", "checkpoint"}) {
      for (const char* seed : {"7", "8"}) {
        descriptors.push_back(cell(std::string("workload=trace;lifetime_model=exp;node_mix=") +
                                   mix + ";revoke_react=" + react + ";seed=" + seed));
        CellResult res = ok_cell(i, 100 + static_cast<double>(i), 500);
        res.record.cost = 10 + static_cast<double>(i);
        cells.push_back(res);
        ++i;
      }
    }
  }
  cells.back() = failed_cell(i - 1, "worker exited (status 9)");

  const std::vector<FrontierPoint> points = frontier(descriptors, cells);
  ASSERT_EQ(points.size(), 4u);
  // Numeric mix order: 0.25 before 0.5 (lexically "0.25" < "0.5" too,
  // but the sort is numeric — see PivotRowsSortNumericallyNotLexically).
  EXPECT_EQ(points[0].node_mix, "0.25");
  EXPECT_EQ(points[0].revoke_react, "checkpoint");
  EXPECT_EQ(points[1].node_mix, "0.25");
  EXPECT_EQ(points[1].revoke_react, "none");
  EXPECT_EQ(points[2].node_mix, "0.5");
  EXPECT_EQ(points[3].node_mix, "0.5");
  // cells 0,1 -> (0.5, none): cost 10,11 sojourn 100,101.
  EXPECT_EQ(points[3].revoke_react, "none");
  EXPECT_EQ(points[3].runs, 2);
  EXPECT_DOUBLE_EQ(points[3].cost_mean, 10.5);
  EXPECT_DOUBLE_EQ(points[3].sojourn_mean, 100.5);
  // The failed seed drops out of (0.25, checkpoint): one run remains.
  EXPECT_EQ(points[0].runs, 1);
  EXPECT_DOUBLE_EQ(points[0].cost_mean, 16);

  // Cells without the revocation axes contribute no frontier at all.
  const std::vector<core::RunDescriptor> legacy = {cell("primitive=susp;r=0.5")};
  const std::vector<CellResult> legacy_cells = {ok_cell(0, 80, 600)};
  EXPECT_TRUE(frontier(legacy, legacy_cells).empty());

  // And the summary JSON carries the block.
  std::ostringstream out;
  write_summary_json(out, descriptors, cells, false, {}, 1.0);
  EXPECT_NE(out.str().find("\"frontier\":[{\"node_mix\":\"0.25\""), std::string::npos);
  EXPECT_NE(out.str().find("\"cost_mean\":"), std::string::npos);
}

TEST(Aggregate, PartialSummariesCountFailuresAndCancellation) {
  std::vector<core::RunDescriptor> descriptors = {cell("primitive=kill;r=0.5"),
                                                  cell("primitive=susp;r=0.5"),
                                                  cell("primitive=wait;r=0.5")};
  // Only two of three cells resolved (SIGINT drained the sweep), one of
  // them failed.
  std::vector<CellResult> cells = {ok_cell(0, 80, 600),
                                   failed_cell(1, "worker exited (status 9)")};
  std::ostringstream out;
  write_summary_json(out, descriptors, cells, true, {}, 1.0);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"cancelled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"cells_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"cells_done\":2"), std::string::npos);
  EXPECT_NE(json.find("\"cells_ok\":1"), std::string::npos);
  EXPECT_NE(json.find("\"cells_failed\":1"), std::string::npos);
  EXPECT_NE(json.find("worker exited (status 9)"), std::string::npos);
}

}  // namespace
}  // namespace osap::osapd
