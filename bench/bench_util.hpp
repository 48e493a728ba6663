// Shared helpers for the study benches: the paper's repetition count and
// a common banner.
#pragma once

#include <cstdio>
#include <map>
#include <string>

#include "metrics/experiment.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "workload/two_job.hpp"

namespace osap::bench {

/// Number of repetitions per data point — the paper averages 20 runs.
inline constexpr int kRuns = 20;

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n(reproduces %s)\n", title, paper_ref);
  std::printf("==============================================================\n");
}

}  // namespace osap::bench
