#include "workload/profiles.hpp"

namespace osap {

ClusterConfig paper_cluster() {
  ClusterConfig cfg;
  cfg.num_nodes = 1;
  cfg.os.ram = 4 * GiB;
  cfg.os.os_reserved = mib(448);  // kernel + Hadoop daemons
  cfg.os.swap_size = 8 * GiB;
  cfg.os.swappiness = 0;  // the paper's recommended configuration
  cfg.os.cores = 4;
  cfg.os.disk_bandwidth = 140.0 * static_cast<double>(MiB);
  // The measured Fig.-4 swap curve grows markedly faster than linearly;
  // the paper attributes this to Linux's approximate page replacement.
  // A higher error rate under pressure reproduces that curvature.
  cfg.os.lru_approx_error = 0.25;
  cfg.hadoop.map_slots = 1;  // single task slot: th must displace tl
  cfg.hadoop.reduce_slots = 1;
  return cfg;
}

TaskSpec light_map_task(Bytes input) {
  TaskSpec spec;
  spec.type = TaskType::Map;
  spec.input_bytes = input;
  // ~6.7 MiB/s of parsing: a 512 MB block takes ~76 s of mapper CPU,
  // matching the task durations readable off the paper's figures.
  spec.parse_cpu_per_byte = 1.0 / (6.7 * static_cast<double>(MiB));
  spec.framework_memory = 160 * MiB;
  spec.state_memory = 0;
  spec.startup_cpu_seconds = 1.0;
  return spec;
}

TaskSpec hungry_map_task(Bytes state, Bytes input) {
  TaskSpec spec = light_map_task(input);
  spec.state_memory = state;
  spec.touch_state_at_end = true;
  return spec;
}

JobSpec single_task_job(std::string name, int priority, TaskSpec task) {
  JobSpec job;
  job.name = std::move(name);
  job.priority = priority;
  task.name = job.name;
  job.tasks.push_back(std::move(task));
  return job;
}

TaskSpec jitter_task(TaskSpec spec, Rng& rng, double fraction) {
  const auto wiggle = [&rng, fraction] { return 1.0 + rng.uniform(-fraction, fraction); };
  spec.parse_cpu_per_byte *= wiggle();
  spec.startup_cpu_seconds *= wiggle();
  return spec;
}

}  // namespace osap
