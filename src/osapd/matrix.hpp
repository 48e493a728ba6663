// Experiment-matrix spec: the `.matrix` file format and its `--set`
// CLI overlay (docs/OSAPD.md).
//
// A matrix is a map from descriptor key to the list of values that axis
// takes; the cross product of all axes is the concrete cell list. The
// file format is line-based:
//
//   # fig2: the paper's r x primitive sweep
//   workload  = two_job
//   primitive = wait, kill, susp
//   r         = 0.1, 0.2, 0.3
//   seed      = 1, 2
//
// Keys are [a-z0-9_]+; values are comma-separated and trimmed; a single
// value is a fixed (non-swept) setting. `--set key=a,b,c` replaces the
// axis wholesale, so a checked-in matrix can be narrowed or widened from
// the command line without editing the file.
//
// Axes live in a std::map, so every traversal — expansion, printing,
// digesting — walks keys in sorted order: the cell order is a pure
// function of the spec, never of insertion or hash order.
#pragma once

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace osap::osapd {

struct MatrixSpec {
  /// key -> ordered axis values (at least one each).
  std::map<std::string, std::vector<std::string>> axes;

  /// Total cell count (product of axis sizes; 0 for an empty spec).
  [[nodiscard]] std::size_t cells() const;
};

/// Parse a `.matrix` stream; `source` names it in diagnostics. Throws
/// SimError with a line number on malformed input or duplicate keys.
[[nodiscard]] MatrixSpec parse_matrix(std::istream& in, const std::string& source);

/// Apply one `--set key=v1,v2` overlay: replaces (or introduces) the
/// whole axis. Throws SimError on malformed input.
void apply_set(MatrixSpec& spec, const std::string& overlay);

}  // namespace osap::osapd
