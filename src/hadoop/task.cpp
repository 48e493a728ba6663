#include "hadoop/task.hpp"

namespace osap {

const char* to_string(TaskState s) noexcept {
  switch (s) {
    case TaskState::Unassigned: return "UNASSIGNED";
    case TaskState::Running: return "RUNNING";
    case TaskState::MustSuspend: return "MUST_SUSPEND";
    case TaskState::Suspended: return "SUSPENDED";
    case TaskState::MustResume: return "MUST_RESUME";
    case TaskState::Succeeded: return "SUCCEEDED";
    case TaskState::Failed: return "FAILED";
  }
  return "?";
}

const char* to_string(TaskType t) noexcept {
  return t == TaskType::Map ? "map" : "reduce";
}

Program build_task_program(const TaskSpec& spec) {
  ProgramBuilder b(spec.name);
  // JVM spawn + task initialization.
  b.compute(spec.startup_cpu_seconds);
  // Execution-engine memory stays in the working set for the task's life.
  b.alloc("framework", spec.framework_memory, /*hot_after=*/true);
  if (spec.checkpoint_state > 0) {
    // Natjam resume path: deserialize the saved state from disk back into
    // memory before processing continues.
    b.read_parse(spec.checkpoint_state, /*cpu_per_byte=*/0, /*weight=*/0);
  }
  if (spec.state_memory > 0) {
    // "Writing random values to all memory at task startup" — every page
    // dirtied, then the region sits idle while the input is processed.
    b.alloc("state", spec.state_memory, /*hot_after=*/false);
  }
  if (spec.type == TaskType::Reduce) {
    // Fetch + merge map outputs (read from local disk in this model),
    // then the sort. A reduce launched while maps still run copies what
    // exists and then blocks until the JobTracker signals completion —
    // it must not race ahead and finish before its inputs exist.
    if (spec.shuffle_bytes > 0) {
      b.read_parse(spec.shuffle_bytes, spec.parse_cpu_per_byte, /*weight=*/0.3);
    }
    if (spec.wait_for_maps) b.barrier("maps");
    if (spec.sort_cpu_seconds > 0) b.compute(spec.sort_cpu_seconds);
  }
  if (spec.input_bytes > 0) {
    // A checkpointed attempt fast-forwards: the saved counters let it seek
    // straight to the first unprocessed record.
    const auto remaining = static_cast<Bytes>(
        static_cast<double>(spec.input_bytes) * (1.0 - spec.checkpoint_progress));
    if (spec.state_memory > 0 && spec.state_lifetime < 1.0) {
      // GC-friendly task (§V-B): the state is read back and released
      // partway through, so later suspensions find a small footprint.
      const auto head = static_cast<Bytes>(static_cast<double>(remaining) *
                                           spec.state_lifetime);
      if (head > 0) b.read_parse(head, spec.parse_cpu_per_byte, spec.state_lifetime);
      b.touch("state", /*write=*/false);
      b.free("state");
      if (remaining > head) {
        b.read_parse(remaining - head, spec.parse_cpu_per_byte, 1.0 - spec.state_lifetime);
      }
      if (spec.output_bytes > 0) b.write_out(spec.output_bytes);
      return b.build();
    }
    if (remaining > 0) b.read_parse(remaining, spec.parse_cpu_per_byte, /*weight=*/1.0);
  }
  if (spec.state_memory > 0 && spec.touch_state_at_end) {
    // "Reading them back when finalizing the tasks."
    b.touch("state", /*write=*/false);
  }
  if (spec.output_bytes > 0) b.write_out(spec.output_bytes);
  return b.build();
}

}  // namespace osap
