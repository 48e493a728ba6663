#include "osapd/aggregate.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <ostream>
#include <set>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "osapd/expand.hpp"
#include "osapd/record.hpp"

namespace osap::osapd {

namespace {

/// Nearest-rank percentile over an ascending sample vector.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size()))));
  return sorted[std::min(rank, sorted.size()) - 1];
}

bool all_numeric(const std::vector<std::string>& values) {
  for (const std::string& v : values) {
    char* end = nullptr;
    std::strtod(v.c_str(), &end);
    if (end == v.c_str() || *end != '\0') return false;
  }
  return true;
}

/// Mean of `values`, summed in ascending order: floating-point addition
/// is not associative, so summing in cell-arrival order would let the
/// pool's completion order reach the last digits.
double sorted_mean(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Bytes a size spelling such as "320MiB" names, or -1 for any other text.
double size_of(const std::string& v) {
  try {
    return static_cast<double>(parse_size(v));
  } catch (const SimError&) {
    return -1;
  }
}

/// Numbers sort numerically and sizes by bytes ("320MiB" < "1GiB"),
/// anything else lexicographically.
void sort_axis_values(std::vector<std::string>& values) {
  std::sort(values.begin(), values.end());
  if (all_numeric(values)) {
    std::stable_sort(values.begin(), values.end(), [](const std::string& a, const std::string& b) {
      return std::strtod(a.c_str(), nullptr) < std::strtod(b.c_str(), nullptr);
    });
  } else if (std::all_of(values.begin(), values.end(),
                         [](const std::string& v) { return size_of(v) >= 0; })) {
    std::stable_sort(values.begin(), values.end(), [](const std::string& a, const std::string& b) {
      return size_of(a) < size_of(b);
    });
  }
}

}  // namespace

std::vector<GroupStats> group_stats(const std::vector<core::RunDescriptor>& descriptors,
                                    const std::vector<CellResult>& cells) {
  struct Acc {
    std::vector<double> sojourns, makespans, costs;
    int failed = 0;
  };
  std::map<std::string, Acc> by_key;
  for (const CellResult& cell : cells) {
    Acc& acc = by_key[cell_key(descriptors[cell.index])];
    if (!cell.ok) {
      ++acc.failed;
      continue;
    }
    acc.sojourns.push_back(cell.record.sojourn_th);
    acc.makespans.push_back(cell.record.makespan);
    acc.costs.push_back(cell.record.cost);
  }

  std::vector<GroupStats> out;
  out.reserve(by_key.size());
  for (auto& [key, acc] : by_key) {
    GroupStats g;
    g.cell_key = key;
    g.runs = static_cast<int>(acc.sojourns.size());
    g.failed = acc.failed;
    if (g.runs > 0) {
      std::sort(acc.sojourns.begin(), acc.sojourns.end());
      g.mean = sorted_mean(acc.sojourns);
      g.p50 = percentile(acc.sojourns, 0.50);
      g.p99 = percentile(acc.sojourns, 0.99);
      g.min = acc.sojourns.front();
      g.max = acc.sojourns.back();
      g.makespan_mean = sorted_mean(std::move(acc.makespans));
      g.cost_mean = sorted_mean(std::move(acc.costs));
    }
    out.push_back(std::move(g));
  }
  return out;
}

PivotTable pivot(const std::vector<core::RunDescriptor>& descriptors,
                 const std::vector<CellResult>& cells) {
  PivotTable table;
  // Axis inventory over the descriptors that actually ran.
  std::map<std::string, std::set<std::string>> axis_values;
  for (const CellResult& cell : cells) {
    for (const auto& [key, val] : descriptors[cell.index].items()) {
      axis_values[key].insert(val);
    }
  }
  if (axis_values.empty()) return table;

  // Primitives across the columns whenever they are swept, or when r is
  // (the paper's fig2 layout); the rows are then the scheduler, r, or
  // else the first other swept axis — the swept state size of fig4 and
  // natjam. Without primitive columns, the first two swept axes in
  // sorted key order. "Swept" means multi-valued and not the seed:
  // normalization writes every default into every cell, so a fixed
  // axis carries no information.
  const auto swept = [&](const std::string& key) {
    const auto at = axis_values.find(key);
    return key != "seed" && at != axis_values.end() && at->second.size() >= 2;
  };
  if (swept("primitive") || (swept("r") && axis_values.contains("primitive"))) {
    table.col_axis = "primitive";
    for (const char* preferred : {"scheduler", "r"}) {
      if (swept(preferred)) {
        table.row_axis = preferred;
        break;
      }
    }
  }
  for (const auto& [key, vals] : axis_values) {
    if (!swept(key) || key == table.col_axis) continue;
    if (table.row_axis.empty()) {
      table.row_axis = key;
    } else if (table.col_axis.empty()) {
      table.col_axis = key;
    } else {
      break;
    }
  }
  if (table.row_axis.empty()) {
    // One swept axis (or none): it takes the rows, beside one column.
    table.row_axis = table.col_axis.empty() ? axis_values.begin()->first : table.col_axis;
    table.col_axis.clear();
  }

  table.rows.assign(axis_values[table.row_axis].begin(), axis_values[table.row_axis].end());
  sort_axis_values(table.rows);
  if (!table.col_axis.empty()) {
    table.cols.assign(axis_values[table.col_axis].begin(), axis_values[table.col_axis].end());
    sort_axis_values(table.cols);
  } else {
    table.cols = {"all"};
  }

  for (auto* m : {&table.values, &table.p50, &table.p99, &table.makespan,
                  &table.tl_swapped_out_mib}) {
    m->assign(table.rows.size(), std::vector<double>(table.cols.size(), -1));
  }
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    for (std::size_t c = 0; c < table.cols.size(); ++c) {
      std::vector<double> samples, makespans, swapped;
      for (const CellResult& cell : cells) {
        if (!cell.ok) continue;
        const core::RunDescriptor& d = descriptors[cell.index];
        if (d.get(table.row_axis, "") != table.rows[r]) continue;
        if (!table.col_axis.empty() && d.get(table.col_axis, "") != table.cols[c]) continue;
        samples.push_back(cell.record.sojourn_th);
        makespans.push_back(cell.record.makespan);
        swapped.push_back(cell.record.tl_swapped_out_mib);
      }
      if (samples.empty()) continue;
      std::sort(samples.begin(), samples.end());
      table.values[r][c] = sorted_mean(samples);
      table.p50[r][c] = percentile(samples, 0.50);
      table.p99[r][c] = percentile(samples, 0.99);
      table.makespan[r][c] = sorted_mean(std::move(makespans));
      table.tl_swapped_out_mib[r][c] = sorted_mean(std::move(swapped));
    }
  }
  return table;
}

std::vector<FrontierPoint> frontier(const std::vector<core::RunDescriptor>& descriptors,
                                    const std::vector<CellResult>& cells) {
  struct Acc {
    std::vector<double> costs, sojourns, makespans;
  };
  // Key: (node_mix text, revoke_react text). std::map gives sorted
  // traversal; the final sort below fixes numeric node_mix order.
  std::map<std::pair<std::string, std::string>, Acc> by_point;
  for (const CellResult& cell : cells) {
    if (!cell.ok) continue;
    const core::RunDescriptor& d = descriptors[cell.index];
    const std::string* mix = d.find("node_mix");
    const std::string* react = d.find("revoke_react");
    if (mix == nullptr || react == nullptr) continue;
    Acc& acc = by_point[{*mix, *react}];
    acc.costs.push_back(cell.record.cost);
    acc.sojourns.push_back(cell.record.sojourn_th);
    acc.makespans.push_back(cell.record.makespan);
  }

  std::vector<FrontierPoint> out;
  out.reserve(by_point.size());
  for (auto& [key, acc] : by_point) {
    FrontierPoint p;
    p.node_mix = key.first;
    p.revoke_react = key.second;
    p.runs = static_cast<int>(acc.costs.size());
    p.cost_mean = sorted_mean(std::move(acc.costs));
    p.sojourn_mean = sorted_mean(std::move(acc.sojourns));
    p.makespan_mean = sorted_mean(std::move(acc.makespans));
    out.push_back(std::move(p));
  }
  std::sort(out.begin(), out.end(), [](const FrontierPoint& a, const FrontierPoint& b) {
    const double am = std::strtod(a.node_mix.c_str(), nullptr);
    const double bm = std::strtod(b.node_mix.c_str(), nullptr);
    if (am != bm) return am < bm;
    return a.revoke_react < b.revoke_react;
  });
  return out;
}

void write_summary_json(std::ostream& out,
                        const std::vector<core::RunDescriptor>& descriptors,
                        const std::vector<CellResult>& cells, bool cancelled,
                        const std::vector<std::pair<std::string, std::uint64_t>>& harness,
                        double wall_ms) {
  // Completion order is pool-scheduling noise; canonical order is not.
  std::vector<const CellResult*> ordered;
  ordered.reserve(cells.size());
  for (const CellResult& cell : cells) ordered.push_back(&cell);
  std::sort(ordered.begin(), ordered.end(), [&](const CellResult* a, const CellResult* b) {
    return descriptors[a->index].canonical() < descriptors[b->index].canonical();
  });

  int ok_count = 0;
  for (const CellResult& cell : cells) ok_count += cell.ok ? 1 : 0;

  out << "{\"schema\":\"osapd-summary-v1\"";
  out << ",\"cancelled\":" << (cancelled ? "true" : "false");
  out << ",\"cells_total\":" << descriptors.size();
  out << ",\"cells_done\":" << cells.size();
  out << ",\"cells_ok\":" << ok_count;
  out << ",\"cells_failed\":" << (cells.size() - static_cast<std::size_t>(ok_count));

  out << ",\"results\":[";
  bool first = true;
  for (const CellResult* cell : ordered) {
    const core::ResultRecord& rec = cell->record;
    if (!first) out << ',';
    first = false;
    out << "{\"descriptor\":\"" << json_escape(descriptors[cell->index].canonical()) << '"'
        << ",\"config_digest\":\"" << hex_u64(descriptors[cell->index].digest()) << '"'
        << ",\"ok\":" << (cell->ok ? "true" : "false") << ",\"error\":\""
        << json_escape(cell->error) << '"' << ",\"trace_digest\":\""
        << hex_u64(rec.trace_digest) << '"' << ",\"events\":" << rec.events
        << ",\"jobs\":" << rec.jobs << ",\"sojourn_th\":" << json_num(rec.sojourn_th)
        << ",\"sojourn_tl\":" << json_num(rec.sojourn_tl)
        << ",\"makespan\":" << json_num(rec.makespan) << ",\"cost\":" << json_num(rec.cost)
        << ",\"tl_swapped_out_mib\":" << json_num(rec.tl_swapped_out_mib) << '}';
  }
  out << ']';

  out << ",\"groups\":[";
  first = true;
  for (const GroupStats& g : group_stats(descriptors, cells)) {
    if (!first) out << ',';
    first = false;
    out << "{\"cell\":\"" << json_escape(g.cell_key) << "\",\"runs\":" << g.runs
        << ",\"failed\":" << g.failed << ",\"sojourn_th\":{\"mean\":" << json_num(g.mean)
        << ",\"p50\":" << json_num(g.p50) << ",\"p99\":" << json_num(g.p99)
        << ",\"min\":" << json_num(g.min) << ",\"max\":" << json_num(g.max)
        << "},\"makespan_mean\":" << json_num(g.makespan_mean)
        << ",\"cost_mean\":" << json_num(g.cost_mean) << '}';
  }
  out << ']';

  const PivotTable table = pivot(descriptors, cells);
  out << ",\"pivot\":{\"row_axis\":\"" << json_escape(table.row_axis) << "\",\"col_axis\":\""
      << json_escape(table.col_axis) << "\",\"rows\":[";
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    out << (r > 0 ? "," : "") << '"' << json_escape(table.rows[r]) << '"';
  }
  out << "],\"cols\":[";
  for (std::size_t c = 0; c < table.cols.size(); ++c) {
    out << (c > 0 ? "," : "") << '"' << json_escape(table.cols[c]) << '"';
  }
  out << "],\"values\":[";
  const auto write_matrix = [&out](const std::vector<std::vector<double>>& m) {
    for (std::size_t r = 0; r < m.size(); ++r) {
      out << (r > 0 ? "," : "") << '[';
      for (std::size_t c = 0; c < m[r].size(); ++c) {
        out << (c > 0 ? "," : "") << json_num(m[r][c]);
      }
      out << ']';
    }
  };
  write_matrix(table.values);
  out << "],\"p50\":[";
  write_matrix(table.p50);
  out << "],\"p99\":[";
  write_matrix(table.p99);
  out << "],\"makespan\":[";
  write_matrix(table.makespan);
  out << "],\"tl_swapped_out_mib\":[";
  write_matrix(table.tl_swapped_out_mib);
  out << "]}";

  // Cost vs. mean-sojourn frontier (docs/REVOKE.md) — empty for
  // matrices without the revocation axes.
  out << ",\"frontier\":[";
  first = true;
  for (const FrontierPoint& p : frontier(descriptors, cells)) {
    if (!first) out << ',';
    first = false;
    out << "{\"node_mix\":\"" << json_escape(p.node_mix) << "\",\"revoke_react\":\""
        << json_escape(p.revoke_react) << "\",\"runs\":" << p.runs
        << ",\"cost_mean\":" << json_num(p.cost_mean)
        << ",\"sojourn_mean\":" << json_num(p.sojourn_mean)
        << ",\"makespan_mean\":" << json_num(p.makespan_mean) << '}';
  }
  out << ']';

  // Volatile tail: harness counters and wall time vary run to run (cache
  // hits, worker deaths, real time) — CI strips these before diffing.
  out << ",\"counters\":{";
  first = true;
  for (const auto& [name, count] : harness) {
    if (!first) out << ',';
    first = false;
    out << '"' << json_escape(name) << "\":" << count;
  }
  out << "},\"wall_ms\":" << json_num(wall_ms);
  out << "}\n";
}

}  // namespace osap::osapd
