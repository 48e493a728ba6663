#include "workload/dummy_config.hpp"

#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "workload/profiles.hpp"

namespace osap {

namespace {

[[noreturn]] void fail(int line, const std::string& message) {
  std::ostringstream os;
  os << "dummy config line " << line << ": " << message;
  throw SimError(os.str());
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
  char* end = nullptr;
  const double v = std::strtod(digits.c_str(), &end);
  if (end == digits.c_str() || *end != '\0' || v <= 0 || v >= 100) {
    fail(line, "expected a progress percentage in (0,100), got '" + token + "'");
  }
  return v / 100.0;
}

double parse_double(const std::string& token, int line) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') fail(line, "expected a number, got '" + token + "'");
  return v;
}

int parse_int(const std::string& token, int line) {
  const double v = parse_double(token, line);
  return static_cast<int>(v);
}

}  // namespace

Bytes parse_size(const std::string& token) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || v < 0) throw SimError("bad size: " + token);
  const std::string suffix(end);
  if (suffix.empty() || suffix == "B") return static_cast<Bytes>(v);
  if (suffix == "KiB") return static_cast<Bytes>(v * static_cast<double>(KiB));
  if (suffix == "MiB") return static_cast<Bytes>(v * static_cast<double>(MiB));
  if (suffix == "GiB") return static_cast<Bytes>(v * static_cast<double>(GiB));
  throw SimError("bad size suffix in: " + token);
}

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
      const int priority = parse_int(t[3], lineno);
      const int tasks = parse_int(t[5], lineno);
      if (tasks < 1) fail(lineno, "a job needs at least one task");
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
      cluster.submit_at(parse_double(t[3], lineno), spec);

    } else if (t[0] == "at-progress") {
      // at-progress <job> <idx> <r>% (submit <name> | preempt <job2> <idx2> <prim>)
      if (t.size() < 5) fail(lineno, "truncated at-progress trigger");
      const std::string watched = t[1];
      const int index = parse_int(t[2], lineno);
      const double r = parse_percent(t[3], lineno);
      if (t[4] == "submit" && t.size() == 6) {
        const JobSpec spec = lookup(t[5], lineno);
        Cluster* c = &cluster;
        scheduler.at_progress(watched, index, r, [c, spec] { c->submit(spec); });
      } else if (t[4] == "preempt" && t.size() == 8) {
        const std::string victim = t[5];
        const int vindex = parse_int(t[6], lineno);
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
        const int vindex = parse_int(t[4], lineno);
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
