// Priority preemption, interactively: run the paper's two-job scenario
// with a primitive and preemption point of your choice and compare all
// four primitives side by side.
//
//   $ ./priority_preemption            # defaults: r = 0.5
//   $ ./priority_preemption 0.8        # preempt at 80% of tl
//   $ ./priority_preemption 0.8 2048   # …with 2 GiB of task state each
#include <cstdio>
#include <cstdlib>

#include "metrics/table.hpp"
#include "workload/two_job.hpp"

using namespace osap;

int main(int argc, char** argv) {
  const double r = argc > 1 ? std::atof(argv[1]) : 0.5;
  const Bytes state = argc > 2 ? static_cast<Bytes>(std::atof(argv[2])) * MiB : 0;
  if (r <= 0 || r >= 1) {
    std::fprintf(stderr, "usage: %s [progress in (0,1)] [state MiB]\n", argv[0]);
    return 1;
  }

  std::printf("two single-task jobs; th arrives at %.0f%% of tl", r * 100);
  if (state > 0) std::printf("; each task holds %s of state", format_bytes(state).c_str());
  std::printf("\n\n");

  Table table({"primitive", "th sojourn (s)", "tl sojourn (s)", "makespan (s)",
               "tl paged out", "verdict"});
  for (PreemptPrimitive p : {PreemptPrimitive::Wait, PreemptPrimitive::Kill,
                             PreemptPrimitive::Suspend, PreemptPrimitive::NatjamCheckpoint}) {
    TwoJobParams params;
    params.primitive = p;
    params.progress_at_launch = r;
    params.tl_state = params.th_state = state;
    params.seed = 1;
    const TwoJobResult res = run_two_job(params);
    const char* verdict = "";
    switch (p) {
      case PreemptPrimitive::Wait: verdict = "no waste, worst latency"; break;
      case PreemptPrimitive::Kill: verdict = "low latency, work lost"; break;
      case PreemptPrimitive::Suspend: verdict = "low latency, work kept"; break;
      case PreemptPrimitive::NatjamCheckpoint: verdict = "always pays (de)serialization"; break;
      case PreemptPrimitive::Requeue: verdict = "work lost, locality dropped"; break;
    }
    table.row({to_string(p), Table::num(res.sojourn_th), Table::num(res.sojourn_tl),
               Table::num(res.makespan), format_bytes(res.tl_swapped_out), verdict});
  }
  table.print();
  return 0;
}
