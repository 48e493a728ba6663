// Streamed-result aggregation: cells grouped across seeds, summary
// statistics, and the fig2-style pivot table.
//
// A "group" is every cell sharing a cell_key (canonical descriptor
// minus the seed axis); its seeds are replicates and the summary
// reports mean/p50/p99/min/max of the TH sojourn and the makespan per
// group. The pivot table rearranges groups along two swept axes —
// primitives across the columns when swept, against the scheduler
// (configs/policy.matrix), r (the paper's figure 2) or the swept state
// size (figure 4, the Natjam comparison) down the rows — with the mean,
// p50 and p99 TH sojourn, the mean makespan and the mean MiB paged out
// of tl in each cell.
//
// All traversal is over sorted keys (std::map, sorted vectors), so the
// summary JSON is byte-deterministic for a given result set no matter
// what order the pool completed cells in.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/run.hpp"
#include "osapd/pool.hpp"

namespace osap::osapd {

struct GroupStats {
  std::string cell_key;
  int runs = 0;  // successful replicates
  int failed = 0;
  double mean = 0, p50 = 0, p99 = 0, min = 0, max = 0;  // sojourn_th
  double makespan_mean = 0;
  double cost_mean = 0;
};

/// One point of the cost vs. mean-sojourn frontier: all successful cells
/// sharing a (node_mix, revoke_react) pair, averaged across every other
/// axis (seeds, schedulers). docs/REVOKE.md.
struct FrontierPoint {
  std::string node_mix;
  std::string revoke_react;
  int runs = 0;
  double cost_mean = 0;
  double sojourn_mean = 0;
  double makespan_mean = 0;
};

struct PivotTable {
  std::string row_axis;
  std::string col_axis;  // "" when only one axis is swept: cols = {"all"}
  std::vector<std::string> rows;
  std::vector<std::string> cols;
  /// values[r][c] = mean TH sojourn of the matching group; NaN-free:
  /// cells with no successful run hold -1. p50/p99 are the nearest-rank
  /// percentiles over the same sample set, same -1 convention, and so
  /// are the means of the makespan and of tl's paged-out MiB.
  std::vector<std::vector<double>> values;
  std::vector<std::vector<double>> p50;
  std::vector<std::vector<double>> p99;
  std::vector<std::vector<double>> makespan;
  std::vector<std::vector<double>> tl_swapped_out_mib;
};

/// Group terminal cell results by cell_key and compute per-group stats.
/// `descriptors` backs the CellResult indices.
[[nodiscard]] std::vector<GroupStats> group_stats(
    const std::vector<core::RunDescriptor>& descriptors,
    const std::vector<CellResult>& cells);

/// Choose pivot axes and fill the table. A swept "primitive" (or one
/// beside a swept "r") takes the columns, and the rows go to "scheduler",
/// then "r", then the first other swept axis; otherwise the first two
/// swept axes in sorted key order. The seed never pivots. Values sort
/// numerically when every value parses as a number, by bytes when every
/// value is a size ("320MiB"), lexicographically otherwise.
[[nodiscard]] PivotTable pivot(const std::vector<core::RunDescriptor>& descriptors,
                               const std::vector<CellResult>& cells);

/// The revocation frontier: one point per (node_mix, revoke_react) pair,
/// sorted by numeric node_mix then reaction name. Empty unless both axes
/// appear in the descriptors: two_job matrices never have them; trace
/// matrices always do after normalization (legacy ones collapse to the
/// single inert node_mix=0/revoke_react=none point).
[[nodiscard]] std::vector<FrontierPoint> frontier(
    const std::vector<core::RunDescriptor>& descriptors,
    const std::vector<CellResult>& cells);

/// The final matrix summary JSON (docs/OSAPD.md). Deterministic given
/// the same records: per-cell results sorted by canonical descriptor
/// (wall time, cache provenance, and attempt counts are excluded from
/// the "results" section and reported separately), then groups, then
/// the pivot.
void write_summary_json(std::ostream& out,
                        const std::vector<core::RunDescriptor>& descriptors,
                        const std::vector<CellResult>& cells, bool cancelled,
                        const std::vector<std::pair<std::string, std::uint64_t>>& harness,
                        double wall_ms);

}  // namespace osap::osapd
