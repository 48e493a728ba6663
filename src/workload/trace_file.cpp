#include "workload/trace_file.hpp"

#include <sstream>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "workload/profiles.hpp"

namespace osap {

std::vector<SwimJob> load_trace_file(std::istream& in, const TraceFileConfig& cfg) {
  OSAP_CHECK(cfg.block_size > 0);
  std::vector<SwimJob> jobs;
  std::string line;
  int lineno = 0;
  SimTime last_arrival = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream is(line);
    std::string name;
    if (!(is >> name) || name[0] == '#') continue;
    std::string where = "trace line ";
    where += std::to_string(lineno);
    std::string arrival_str, input_str, shuffle_str, output_str, state_str, extra;
    const bool short_line = !(is >> arrival_str >> input_str >> shuffle_str >> output_str);
    // The state column is optional; nothing may follow it.
    if (short_line || (is >> state_str >> extra)) {
      throw SimError(where + ": expected <name> <arrival> <input> <shuffle> <output> [state]");
    }

    SwimJob job;
    job.arrival = parse_real(arrival_str, where + ": arrival");
    if (job.arrival < 0) throw SimError(where + ": bad arrival '" + arrival_str + "'");
    if (job.arrival < last_arrival) {
      throw SimError(where + ": arrivals must be sorted");
    }
    last_arrival = job.arrival;

    const Bytes input = parse_size(input_str);
    const Bytes shuffle = parse_size(shuffle_str);
    const Bytes output = parse_size(output_str);
    const Bytes state = state_str.empty() ? 0 : parse_size(state_str);

    job.spec.name = name;
    // One mapper per block, like Hadoop's input splits.
    const Bytes blocks = input == 0 ? 1 : (input + cfg.block_size - 1) / cfg.block_size;
    Bytes remaining = input;
    for (Bytes b = 0; b < blocks; ++b) {
      const Bytes this_block = std::min<Bytes>(remaining, cfg.block_size);
      TaskSpec map = state > 0 ? hungry_map_task(state, this_block == 0 ? input : this_block)
                               : light_map_task(this_block == 0 ? input : this_block);
      map.parse_cpu_per_byte = cfg.parse_cpu_per_byte;
      map.output_bytes = blocks > 0 ? output / blocks : output;
      job.spec.tasks.push_back(std::move(map));
      remaining = sat_sub(remaining, this_block);
    }
    if (shuffle > 0) {
      TaskSpec reduce;
      reduce.type = TaskType::Reduce;
      reduce.input_bytes = 0;
      reduce.shuffle_bytes = shuffle;
      reduce.sort_cpu_seconds = 2.0;
      reduce.output_bytes = output;
      reduce.parse_cpu_per_byte = cfg.parse_cpu_per_byte;
      job.spec.tasks.push_back(std::move(reduce));
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

}  // namespace osap
