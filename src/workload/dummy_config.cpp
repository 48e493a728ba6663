#include "workload/dummy_config.hpp"

#include <climits>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "workload/profiles.hpp"

namespace osap {

namespace {

/// "dummy config line <line>: <what>" — an error, or the label a number
/// reader's error gives the field.
std::string at_line(int line, const std::string& what) {
  std::ostringstream os;
  os << "dummy config line " << line << ": " << what;
  return os.str();
}

[[noreturn]] void fail(int line, const std::string& message) {
  throw SimError(at_line(line, message));
}

int parse_task_index(const std::string& token, int line) {
  return parse_integer<int>(token, at_line(line, "task index"), 0, "a non-negative integer");
}

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string token;
  while (is >> token) {
    if (token[0] == '#') break;
    tokens.push_back(token);
  }
  return tokens;
}

double parse_percent(const std::string& token, int line) {
  std::string digits = token;
  if (!digits.empty() && digits.back() == '%') digits.pop_back();
  const double v = parse_real(digits, at_line(line, "progress percentage"));
  if (v <= 0 || v >= 100) {
    fail(line, "expected a progress percentage in (0,100), got '" + token + "'");
  }
  return v / 100.0;
}

}  // namespace

void load_dummy_config(std::istream& in, DummyScheduler& scheduler, Cluster& cluster) {
  // Job definitions are collected first; submissions and triggers
  // reference them by name.
  auto jobs = std::make_shared<std::map<std::string, JobSpec>>();

  auto lookup = [&jobs](const std::string& name, int line) -> const JobSpec& {
    const auto it = jobs->find(name);
    if (it == jobs->end()) fail(line, "unknown job '" + name + "'");
    return it->second;
  };

  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::vector<std::string> t = tokenize(line);
    if (t.empty()) continue;

    if (t[0] == "job") {
      // job <name> priority <p> tasks <n> input <size> state <size>
      if (t.size() != 10 || t[2] != "priority" || t[4] != "tasks" || t[6] != "input" ||
          t[8] != "state") {
        fail(lineno, "expected: job <name> priority <p> tasks <n> input <size> state <size>");
      }
      const std::string& name = t[1];
      const int priority = parse_integer<int>(t[3], at_line(lineno, "priority"), INT_MIN,
                                              "an integer");
      const int tasks = parse_count(t[5], at_line(lineno, "task count"));
      const Bytes input = parse_size(t[7]);
      const Bytes state = parse_size(t[9]);
      JobSpec spec;
      spec.name = name;
      spec.priority = priority;
      for (int i = 0; i < tasks; ++i) {
        spec.tasks.push_back(state > 0 ? hungry_map_task(state, input) : light_map_task(input));
      }
      jobs->emplace(name, std::move(spec));

    } else if (t[0] == "submit") {
      // submit <name> at <t>
      if (t.size() != 4 || t[2] != "at") fail(lineno, "expected: submit <name> at <t>");
      const JobSpec spec = lookup(t[1], lineno);
      cluster.submit_at(parse_real(t[3], at_line(lineno, "submit time")), spec);

    } else if (t[0] == "at-progress") {
      // at-progress <job> <idx> <r>% (submit <name> | preempt <job2> <idx2> <prim>)
      if (t.size() < 5) fail(lineno, "truncated at-progress trigger");
      const std::string watched = t[1];
      const int index = parse_task_index(t[2], lineno);
      const double r = parse_percent(t[3], lineno);
      if (t[4] == "submit" && t.size() == 6) {
        const JobSpec spec = lookup(t[5], lineno);
        Cluster* c = &cluster;
        scheduler.at_progress(watched, index, r, [c, spec] { c->submit(spec); });
      } else if (t[4] == "preempt" && t.size() == 8) {
        const std::string victim = t[5];
        const int vindex = parse_task_index(t[6], lineno);
        const PreemptPrimitive primitive = parse_primitive(t[7]);
        DummyScheduler* ds = &scheduler;
        scheduler.at_progress(watched, index, r, [ds, victim, vindex, primitive] {
          ds->preempt(victim, vindex, primitive);
        });
      } else {
        fail(lineno, "expected 'submit <name>' or 'preempt <job> <idx> <primitive>'");
      }

    } else if (t[0] == "on-complete") {
      // on-complete <job> (restore <job2> <idx2> <prim> | submit <name>)
      if (t.size() < 4) fail(lineno, "truncated on-complete trigger");
      const std::string watched = t[1];
      if (t[2] == "restore" && t.size() == 6) {
        const std::string victim = t[3];
        const int vindex = parse_task_index(t[4], lineno);
        const PreemptPrimitive primitive = parse_primitive(t[5]);
        DummyScheduler* ds = &scheduler;
        scheduler.on_complete(watched, [ds, victim, vindex, primitive] {
          ds->restore(victim, vindex, primitive);
        });
      } else if (t[2] == "submit" && t.size() == 4) {
        const JobSpec spec = lookup(t[3], lineno);
        Cluster* c = &cluster;
        scheduler.on_complete(watched, [c, spec] { c->submit(spec); });
      } else {
        fail(lineno, "expected 'restore <job> <idx> <primitive>' or 'submit <name>'");
      }

    } else {
      fail(lineno, "unknown directive '" + t[0] + "'");
    }
  }
}

}  // namespace osap
