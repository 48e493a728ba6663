// Measurement harness of the repository benchmark (README.md here).
//
//   osap_perfbench <warehouse|paper_grid|study_sweep> --seed N --seconds S
//                  --trace 0|1 --inputs DIR --work-dir DIR
//
// Runs one workload in passes over its fixed input until S seconds have
// gone, then prints one JSON report of raw samples on stdout; run.py turns
// it into the benchmark's metrics and checks. With --trace 1 every other
// pass is traced and a final counting pass reads each cell's
// observability dump.
//
// Every timer sits around a public call the harness makes into the
// library, or inside a Scheduler decorator installed through the public
// interface; nothing under src/ is instrumented. Counts come from the
// library's own observability dump (counter registry, hot-path call
// counts, audit costs) and from osapd's SweepOutcome.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/osap.hpp"
#include "core/run.hpp"
#include "osapd/aggregate.hpp"
#include "osapd/cache.hpp"
#include "osapd/expand.hpp"
#include "osapd/matrix.hpp"
#include "osapd/sweep.hpp"
#include "sched/hfsp.hpp"
#include "trace/names.hpp"
#include "trace/profile.hpp"
#include "workload/profiles.hpp"
#include "workload/swim.hpp"

namespace fs = std::filesystem;
using namespace osap;

namespace {

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The wall-clock hook osapd's pool stamps record.wall_ms with.
double now_ms() { return now_s() * 1000.0; }

// --- report values ---------------------------------------------------------

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + '"';
}

std::string jnum(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// FNV-1a over the cells' trace digests, in descriptor order.
std::uint64_t fold(const std::vector<std::uint64_t>& digests) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t d : digests) {
    for (int b = 0; b < 8; ++b) {
      h ^= (d >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

/// One pass over the workload's fixed input.
struct Pass {
  bool traced = false;
  double setup_s = 0;
  double wall_s = 0;
  std::uint64_t fold = 0;
  std::size_t cells = 0;
  std::size_t failed = 0;
  /// Timers and counts of a traced pass, by per-layer metric name.
  std::map<std::string, double> layers;
  /// Per-cell compute time of a traced pass, ms.
  std::vector<double> cell_ms;
  /// Output checks this pass could make on its own.
  std::map<std::string, bool> checks;
  /// study_sweep: sweeps whose warm summary, as served, differs from the
  /// cold one (a known defect, not a check).
  std::size_t order_dependent = 0;
};

/// Everything a run reports besides its passes.
struct Report {
  std::vector<Pass> passes;
  /// Each distinct failure reason -> the failing cells.
  std::map<std::string, std::set<std::string>> failures;
  /// Exact per-layer counts of the counting pass (traced runs).
  std::map<std::string, double> counts;
  std::map<std::string, std::string> info;
};

/// Group a failed cell under its reason: the lines of its message up to
/// the state dump ("--- jobtracker ---"), numbers masked and repeats
/// dropped, so that one defect hit at different times and tasks reads as
/// one reason.
void note_failure(Report& rep, const std::string& cell, const std::string& error) {
  std::istringstream head(error.substr(0, error.find("\n---")));
  std::vector<std::string> lines;
  for (std::string line; std::getline(head, line);) {
    std::string masked;
    bool in_number = false;
    for (const char c : line) {
      const bool digit =
          std::isdigit(static_cast<unsigned char>(c)) != 0 || (in_number && c == '.');
      if (digit && !in_number) masked += '#';
      if (!digit) masked += c;
      in_number = digit;
    }
    masked.erase(0, masked.find_first_not_of(' '));
    if (std::find(lines.begin(), lines.end(), masked) == lines.end()) lines.push_back(masked);
  }
  std::string reason;
  for (const std::string& line : lines) reason += (reason.empty() ? "" : " | ") + line;
  rep.failures[reason].insert(cell);
}

/// The largest resident set of this process and its reaped workers, KiB.
/// This process's own high-water mark comes from /proc: getrusage's
/// ru_maxrss also keeps the peak of the image that exec replaced.
long peak_rss_kib() {
  long self_kib = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) self_kib = std::stol(line.substr(6));
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  return std::max(self_kib, children.ru_maxrss);
}

void print_report(const std::string& workload, const Report& rep) {
  std::string out = "{\"workload\":" + jstr(workload) + ",\"passes\":[";
  for (std::size_t i = 0; i < rep.passes.size(); ++i) {
    const Pass& p = rep.passes[i];
    out += i > 0 ? ",{" : "{";
    out += "\"traced\":" + std::string(p.traced ? "true" : "false");
    out += ",\"setup_s\":" + jnum(p.setup_s) + ",\"wall_s\":" + jnum(p.wall_s);
    out += ",\"fold\":" + jstr(hex64(p.fold));
    out += ",\"cells\":" + std::to_string(p.cells) + ",\"failed\":" + std::to_string(p.failed);
    out += ",\"order_dependent\":" + std::to_string(p.order_dependent);
    out += ",\"layers\":{";
    bool first = true;
    for (const auto& [name, v] : p.layers) {
      out += (first ? "" : ",") + jstr(name) + ":" + jnum(v);
      first = false;
    }
    out += "},\"cell_ms\":[";
    for (std::size_t c = 0; c < p.cell_ms.size(); ++c) {
      out += (c > 0 ? "," : "") + jnum(p.cell_ms[c]);
    }
    out += "],\"checks\":{";
    first = true;
    for (const auto& [name, ok] : p.checks) {
      out += (first ? "" : ",") + jstr(name) + ":" + (ok ? "true" : "false");
      first = false;
    }
    out += "}}";
  }
  out += "],\"failures\":{";
  bool first = true;
  for (const auto& [reason, cells] : rep.failures) {
    out += (first ? "" : ",") + jstr(reason) + ":[";
    first = false;
    bool first_cell = true;
    for (const std::string& cell : cells) {
      out += (first_cell ? "" : ",") + jstr(cell);
      first_cell = false;
    }
    out += "]";
  }
  out += "},\"counts\":{";
  first = true;
  for (const auto& [name, v] : rep.counts) {
    out += (first ? "" : ",") + jstr(name) + ":" + jnum(v);
    first = false;
  }
  out += "},\"info\":{";
  first = true;
  for (const auto& [name, v] : rep.info) {
    out += (first ? "" : ",") + jstr(name) + ":" + jstr(v);
    first = false;
  }
  out += "},\"peak_rss_kib\":" + std::to_string(peak_rss_kib());
  out += "}\n";
  std::fputs(out.c_str(), stdout);
}

// --- per-layer counts from the observability dump -------------------------

/// Every number of a JSON document by its path ("hot_paths/VmmCommit/calls").
/// Covers the JSON that Simulation::write_observability_json emits.
class FlatJson {
 public:
  static std::map<std::string, double> parse(const std::string& text) {
    FlatJson p(text);
    p.value("");
    return std::move(p.out_);
  }

 private:
  explicit FlatJson(const std::string& s) : s_(s) {}

  void ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_])) != 0) ++i_;
  }
  void expect(char c) {
    ws();
    if (s_.at(i_) != c) {
      throw std::runtime_error(std::string("observability JSON: expected ") + c);
    }
    ++i_;
  }
  bool take(char c) {
    ws();
    if (s_.at(i_) != c) return false;
    ++i_;
    return true;
  }
  std::string str() {
    expect('"');
    std::string r;
    while (s_.at(i_) != '"') {
      if (s_[i_] == '\\') ++i_;
      r += s_.at(i_++);
    }
    ++i_;
    return r;
  }
  void value(const std::string& path) {
    const std::string prefix = path.empty() ? "" : path + "/";
    ws();
    const char c = s_.at(i_);
    if (c == '{') {
      ++i_;
      if (take('}')) return;
      do {
        const std::string key = str();
        expect(':');
        value(prefix + key);
      } while (take(','));
      expect('}');
    } else if (c == '[') {
      ++i_;
      if (take(']')) return;
      int n = 0;
      do {
        value(prefix + std::to_string(n++));
      } while (take(','));
      expect(']');
    } else if (c == '"') {
      str();
    } else if (std::isalpha(static_cast<unsigned char>(c)) != 0) {
      while (i_ < s_.size() && std::isalpha(static_cast<unsigned char>(s_[i_])) != 0) ++i_;
    } else {
      const char* begin = s_.c_str() + i_;
      char* end = nullptr;
      const double v = std::strtod(begin, &end);
      if (end == begin) throw std::runtime_error("observability JSON: bad number");
      out_[path] = v;
      i_ += static_cast<std::size_t>(end - begin);
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
  std::map<std::string, double> out_;
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Add one run's exact per-layer counts, read from its observability dump,
/// into `acc`.
void add_counts(const std::string& observability_json, std::map<std::string, double>& acc) {
  namespace names = trace::names;
  const std::map<std::string, double> obs = FlatJson::parse(observability_json);
  const auto get = [&obs](const std::string& path) {
    const auto it = obs.find(path);
    return it == obs.end() ? 0.0 : it->second;
  };
  const auto counter = [&get](const char* name) { return get(std::string("counters/") + name); };
  const auto calls = [&get](trace::HotPath p) {
    return get(std::string("hot_paths/") + trace::HotPathProfiler::name(p) + "/calls");
  };
  constexpr double kMiB = 1024.0 * 1024.0;

  acc["sim.events"] += get("events_processed");
  acc["hadoop.heartbeats"] += counter(names::kJtHeartbeatsHandled);
  acc["hadoop.actions_sent"] += counter(names::kJtActionsSent);
  acc["hadoop.spec_launched"] += counter(names::kSpecLaunched);
  acc["hadoop.spec_killed"] += counter(names::kSpecKilled);
  acc["net.deliveries"] += calls(trace::HotPath::NetDelivery);
  acc["sched.assign_calls"] += calls(trace::HotPath::SchedulerAssign);
  acc["sched.assignments"] += counter(names::kSchedAssignments);
  acc["preempt.suspends"] += counter(names::kJtSuspendRequests);
  acc["preempt.resumes"] += counter(names::kJtResumeRequests);
  acc["os.vmm.commits"] += calls(trace::HotPath::VmmCommit);
  acc["os.vmm.reclaims"] += calls(trace::HotPath::VmmReclaim);
  acc["audit.sweeps"] += get("audit_sweeps/sweeps");
  acc["policy.decisions"] += counter(names::kPolicyDecisions);
  acc["policy.swap_demotions"] += counter(names::kPolicySwapDemotions);
  acc["policy.orders_refused"] += counter(names::kPolicyOrdersRefused);
  acc["revoke.warnings_handled"] += counter(names::kRevokeWarningsHandled);
  acc["revoke.drain_checkpoints"] += counter(names::kRevokeDrainCheckpoints);
  acc["revoke.drain_migrations"] += counter(names::kRevokeDrainMigrations);
  acc["revoke.evacuations"] += counter(names::kRevokeEvacuations);
  acc["revoke.blocks_steered"] += counter(names::kRevokeBlocksSteered);
  acc["fault.revocations"] += counter(names::kFaultRevocations);

  // Per-node counters ("node17.vmm.paged_out_bytes") summed over nodes,
  // and the per-auditor sweep costs summed over auditors.
  const std::string paged_out = std::string(".vmm") + names::kVmmPagedOutBytes;
  const std::string paged_in = std::string(".vmm") + names::kVmmPagedInBytes;
  for (const auto& [path, v] : obs) {
    if (path.rfind("counters/node", 0) == 0) {
      if (ends_with(path, paged_out)) acc["os.vmm.paged_out_mib"] += v / kMiB;
      if (ends_with(path, paged_in)) acc["os.vmm.paged_in_mib"] += v / kMiB;
      if (ends_with(path, names::kKernelSignals)) acc["os.kernel.signals"] += v;
      if (ends_with(path, names::kKernelSpawned)) acc["os.kernel.spawned"] += v;
    } else if (path.rfind("audit_sweeps/auditors/", 0) == 0) {
      if (ends_with(path, "/swept")) acc["audit.auditors_swept"] += v;
      if (ends_with(path, "/skipped")) acc["audit.auditors_skipped"] += v;
    }
  }
}

// --- workload inputs -------------------------------------------------------

/// Seeded Fisher-Yates permutation of [0, n): the order a pass presents a
/// workload's cells in. The cell set itself is frozen.
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::uint64_t state = seed;
  const auto next = [&state] {  // splitmix64
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  for (std::size_t i = n; i > 1; --i) std::swap(order[i - 1], order[next() % i]);
  return order;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

/// A workload's frozen matrices, read once at start-up so that set-up
/// time is parse and expand only.
struct Matrices {
  std::vector<std::string> names;
  std::vector<std::string> texts;
};

Matrices load_matrices(const fs::path& dir, const std::vector<std::string>& names) {
  Matrices m;
  for (const std::string& name : names) {
    m.names.push_back(name);
    m.texts.push_back(read_file(dir / (name + ".matrix")));
  }
  return m;
}

/// Parse and expand every matrix: the set-up of paper_grid and study_sweep.
std::vector<std::vector<core::RunDescriptor>> expand_all(const Matrices& m, double& expand_s) {
  std::vector<osapd::MatrixSpec> specs;
  for (std::size_t i = 0; i < m.texts.size(); ++i) {
    std::istringstream in(m.texts[i]);
    specs.push_back(osapd::parse_matrix(in, m.names[i]));
  }
  const double t0 = now_s();
  std::vector<std::vector<core::RunDescriptor>> out;
  for (const osapd::MatrixSpec& spec : specs) out.push_back(osapd::expand(spec));
  expand_s = now_s() - t0;
  return out;
}

// --- warehouse -------------------------------------------------------------

/// The warehouse point of bench/cluster_scale.cpp and BENCH_scale.json,
/// frozen here: 1,000 nodes x 2,000 SWIM jobs under HFSP + susp, with
/// speculation on and audits off.
constexpr int kWarehouseNodes = 1000;
constexpr int kWarehouseJobs = 2000;
constexpr int kWarehouseMapSlots = 2;
constexpr double kWarehouseArrivalSpan = 600.0;
constexpr int kWarehouseMaxTasks = 12;
constexpr double kWarehouseStateful = 0.2;
constexpr std::uint64_t kWarehouseTraceSeed = 11;

/// Times every assign() of the scheduler it wraps; installed through the
/// public Scheduler interface, so the model sees the same calls.
class TimedScheduler final : public Scheduler {
 public:
  explicit TimedScheduler(std::unique_ptr<Scheduler> inner) : inner_(std::move(inner)) {}

  void job_added(JobId id) override { inner_->job_added(id); }
  void job_completed(JobId id) override { inner_->job_completed(id); }
  std::vector<TaskId> assign(const TrackerStatus& status) override {
    const double t0 = now_s();
    std::vector<TaskId> out = inner_->assign(status);
    busy_s_ += now_s() - t0;
    ++calls_;
    return out;
  }

  [[nodiscard]] double busy_s() const noexcept { return busy_s_; }
  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }

 protected:
  void attached() override { inner_->attach(*jt_); }

 private:
  std::unique_ptr<Scheduler> inner_;
  double busy_s_ = 0;
  std::uint64_t calls_ = 0;
};

Pass warehouse_pass(bool traced, bool count, Report& rep) {
  Pass p;
  p.traced = traced;
  p.cells = 1;

  const double t0 = now_s();
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = kWarehouseNodes;
  cfg.hadoop.map_slots = kWarehouseMapSlots;
  cfg.hadoop.speculative_execution = true;
  cfg.audit.enabled = false;
  auto cluster = std::make_unique<Cluster>(cfg);
  const double t1 = now_s();
  HfspScheduler::Options options;
  options.primitive = PreemptPrimitive::Suspend;
  std::unique_ptr<Scheduler> scheduler = std::make_unique<HfspScheduler>(options);
  TimedScheduler* timed = nullptr;
  if (traced) {
    auto wrapper = std::make_unique<TimedScheduler>(std::move(scheduler));
    timed = wrapper.get();
    scheduler = std::move(wrapper);
  }
  cluster->set_scheduler(std::move(scheduler));
  const double t2 = now_s();
  SwimConfig swim;
  swim.jobs = kWarehouseJobs;
  swim.mean_interarrival = seconds(kWarehouseArrivalSpan / kWarehouseJobs);
  swim.max_tasks = kWarehouseMaxTasks;
  swim.stateful_fraction = kWarehouseStateful;
  Rng rng(kWarehouseTraceSeed);
  std::vector<SwimJob> jobs = generate_swim_trace(swim, rng);
  const double t3 = now_s();
  Cluster* c = cluster.get();
  for (SwimJob& job : jobs) {
    c->sim().at(job.arrival, [c, spec = std::move(job.spec)]() mutable {
      (void)c->submit(std::move(spec));
    });
  }
  const double t4 = now_s();
  c->run();
  const double t5 = now_s();

  p.setup_s = t4 - t0;
  p.wall_s = t5 - t4;
  p.fold = fold({c->trace_digest()});
  rep.info["events_processed"] = std::to_string(c->sim().events_processed());
  rep.info["sim_seconds"] = jnum(c->sim().now());
  rep.info["trace_digest"] = hex64(c->trace_digest());
  if (traced) {
    p.layers["hadoop.cluster_build_s"] = t1 - t0;
    p.layers["workload.swim_gen_s"] = t3 - t2;
    p.layers["sim.run_s"] = t5 - t4;
    p.layers["sched.assign_s"] = timed->busy_s();
    p.layers["sched.timed_calls"] = static_cast<double>(timed->calls());
  }
  if (count) {
    std::ostringstream obs;
    c->sim().write_observability_json(obs);
    add_counts(obs.str(), rep.counts);
  }
  return p;
}

// --- paper_grid ------------------------------------------------------------

Pass grid_pass(const Matrices& m, const std::vector<std::size_t>& order, bool traced,
               Report& rep) {
  Pass p;
  p.traced = traced;
  const double t0 = now_s();
  double expand_s = 0;
  std::vector<core::RunDescriptor> cells;
  for (auto& part : expand_all(m, expand_s)) {
    for (auto& d : part) cells.push_back(std::move(d));
  }
  const double t1 = now_s();

  std::vector<std::uint64_t> digests(cells.size());
  for (const std::size_t i : order) {
    const double c0 = traced ? now_s() : 0;
    const core::ResultRecord rec = core::run_descriptor(cells[i]);
    if (traced) p.cell_ms.push_back((now_s() - c0) * 1000.0);
    digests[i] = rec.trace_digest;
    if (!rec.ok) {
      ++p.failed;
      note_failure(rep, cells[i].canonical(), rec.error);
    }
  }
  const double t2 = now_s();

  p.cells = cells.size();
  p.setup_s = t1 - t0;
  p.wall_s = t2 - t1;
  p.fold = fold(digests);
  if (traced) {
    p.layers["osapd.expand_s"] = expand_s;
    p.layers["sim.run_s"] = t2 - t1;
  }
  return p;
}

// --- study_sweep -----------------------------------------------------------

constexpr int kSweepWorkers = 2;

/// A summary minus its volatile tail (harness counters, wall time), the
/// part CI's sweep-smoke job compares across passes.
std::string stable_summary(const std::string& summary) {
  return summary.substr(0, summary.rfind(",\"counters\":{"));
}

/// The stable part of the summary of `out`'s cells.
std::string summary_of(const std::vector<core::RunDescriptor>& descriptors,
                       const osapd::SweepOutcome& out) {
  std::ostringstream text;
  osapd::write_summary_json(text, descriptors, out.cells, out.cancelled,
                            osapd::harness_counters(out, descriptors.size()), 0.0);
  return stable_summary(text.str());
}

/// Where two texts first part, with some context, for the report.
std::string first_difference(const std::string& a, const std::string& b) {
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  const std::size_t from = at > 80 ? at - 80 : 0;
  return "cold ..." + a.substr(from, 100) + "... warm ..." + b.substr(from, 100) + "...";
}

Pass sweep_pass(const Matrices& m, const std::vector<std::vector<std::size_t>>& orders,
                const fs::path& cache_dir, bool traced, Report& rep) {
  Pass p;
  p.traced = traced;
  const double t0 = now_s();
  double expand_s = 0;
  std::vector<std::vector<core::RunDescriptor>> expanded = expand_all(m, expand_s);
  const double t1 = now_s();
  p.setup_s = t1 - t0;

  // Present each matrix's cells in the seeded order; results map back.
  std::vector<std::vector<core::RunDescriptor>> cells(expanded.size());
  for (std::size_t k = 0; k < expanded.size(); ++k) {
    for (const std::size_t i : orders[k]) cells[k].push_back(expanded[k][i]);
  }
  fs::remove_all(cache_dir);

  osapd::SweepOptions opts;
  opts.pool.workers = kSweepWorkers;
  opts.pool.now_ms = &now_ms;
  opts.cache_dir = cache_dir.string();

  double cold_s = 0, warm_s = 0, summary_s = 0, compute_ms = 0;
  double stores = 0, hits = 0, deaths = 0, rescheduled = 0;
  std::vector<std::uint64_t> cold_digests, warm_digests;
  bool warm_hits_every_ok_cell = true;
  bool summaries_identical = true;
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const auto sweep = [&](double& span_s, std::vector<std::uint64_t>& digests,
                           std::string& summary) {
      const double s0 = now_s();
      osapd::SweepOutcome out = osapd::run_sweep(cells[k], opts);
      const double s1 = now_s();
      std::ostringstream text;
      osapd::write_summary_json(text, cells[k], out.cells, out.cancelled,
                                osapd::harness_counters(out, cells[k].size()),
                                (s1 - s0) * 1000.0);
      summary_s += now_s() - s1;
      span_s += s1 - s0;
      summary = text.str();
      std::vector<std::uint64_t> by_expansion(cells[k].size());
      for (const osapd::CellResult& r : out.cells) {
        by_expansion[orders[k][r.index]] = r.record.trace_digest;
      }
      digests.insert(digests.end(), by_expansion.begin(), by_expansion.end());
      deaths += static_cast<double>(out.worker_deaths);
      rescheduled += static_cast<double>(out.rescheduled);
      return out;
    };
    std::string cold_summary, warm_summary;
    const osapd::SweepOutcome cold = sweep(cold_s, cold_digests, cold_summary);
    osapd::SweepOutcome warm = sweep(warm_s, warm_digests, warm_summary);

    std::vector<bool> cold_ok(cells[k].size(), false);
    for (const osapd::CellResult& r : cold.cells) {
      cold_ok[r.index] = r.ok;
      ++p.cells;
      if (!r.ok) {
        ++p.failed;
        note_failure(rep, cells[k][r.index].canonical(), r.error);
      }
      if (traced && !r.cached) {
        p.cell_ms.push_back(r.record.wall_ms);
        compute_ms += r.record.wall_ms;
      }
    }
    for (const osapd::CellResult& r : warm.cells) {
      if (cold_ok[r.index] && !r.cached) warm_hits_every_ok_cell = false;
    }
    stores += static_cast<double>(cold.cache_stores);
    hits += static_cast<double>(warm.cache_hits);

    // A difference between the summaries as served is a known defect,
    // reported, not checked: osapd's means depend on the order cells
    // arrive in (README, "Known defects"). The check hands the
    // aggregation the warm results in the cold pass's completion order,
    // and the warm pass must then reproduce the cold summary exactly.
    const std::string cold_stable = stable_summary(cold_summary);
    const std::string warm_stable = stable_summary(warm_summary);
    if (warm_stable != cold_stable) {
      ++p.order_dependent;
      rep.info.emplace("order_diff_" + m.names[k], first_difference(cold_stable, warm_stable));
    }
    if (warm.cells.size() == cold.cells.size()) {
      std::vector<std::size_t> slot(cells[k].size());
      for (std::size_t i = 0; i < cold.cells.size(); ++i) slot[cold.cells[i].index] = i;
      std::sort(warm.cells.begin(), warm.cells.end(),
                [&slot](const osapd::CellResult& a, const osapd::CellResult& b) {
                  return slot[a.index] < slot[b.index];
                });
    }
    const std::string replay_stable = summary_of(cells[k], warm);
    if (replay_stable != cold_stable) {
      summaries_identical = false;
      rep.info["summary_diff_" + m.names[k]] = first_difference(cold_stable, replay_stable);
    }

    if (traced) {
      // Cost of serving one hit, timed at the cache's public lookup.
      osapd::ResultCache cache(cache_dir);
      std::size_t n = 0;
      const double h0 = now_s();
      for (std::size_t i = 0; i < cells[k].size(); ++i) {
        if (cold_ok[i] && cache.lookup(cells[k][i]).has_value()) ++n;
      }
      p.layers["osapd.hit_us"] += (now_s() - h0) * 1e6;
      p.layers["osapd.hit_lookups"] += static_cast<double>(n);
    }
  }

  p.wall_s = cold_s + warm_s + summary_s;
  p.fold = fold(cold_digests);
  p.checks["warm_pass_same_fold"] = fold(warm_digests) == p.fold;
  p.checks["warm_pass_hits_every_ok_cell"] = warm_hits_every_ok_cell;
  p.checks["warm_summary_identical"] = summaries_identical;
  if (traced) {
    p.layers["osapd.expand_s"] = expand_s;
    p.layers["osapd.cold_s"] = cold_s;
    p.layers["osapd.warm_s"] = warm_s;
    p.layers["osapd.summary_s"] = summary_s;
    p.layers["osapd.compute_s"] = compute_ms / 1000.0;
    p.layers["osapd.workers"] = kSweepWorkers;
    p.layers["osapd.cache_stores"] = stores;
    p.layers["osapd.cache_hits"] = hits;
    p.layers["osapd.worker_deaths"] = deaths;
    p.layers["osapd.rescheduled"] = rescheduled;
  }
  return p;
}

/// The counting pass of a traced run: every cell once more, in descriptor
/// order and in-process, with the library's observability dump switched
/// on through RunOptions::counters_file. Returns the digest fold, which
/// must match the timed passes'.
std::uint64_t count_pass(const Matrices& m, const fs::path& work_dir, Report& rep) {
  double expand_s = 0;
  const fs::path counters = work_dir / "counters.json";
  core::RunOptions opts;
  opts.counters_file = counters.string();
  std::vector<std::uint64_t> digests;
  double counted = 0;
  for (const auto& part : expand_all(m, expand_s)) {
    for (const core::RunDescriptor& d : part) {
      fs::remove(counters);
      const core::ResultRecord rec = core::run_descriptor(d, opts);
      digests.push_back(rec.trace_digest);
      // A failed cell aborts before the dump is written; its counts are
      // left out.
      if (fs::exists(counters)) {
        add_counts(read_file(counters), rep.counts);
        ++counted;
      }
    }
  }
  rep.counts["count_pass.cells_counted"] = counted;
  return fold(digests);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path inputs;
  fs::path work_dir;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::runtime_error("usage: osap_perfbench <workload> [flags]");
  Args a;
  a.workload = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--inputs") {
      a.inputs = value;
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else {
      throw std::runtime_error("unknown flag " + flag);
    }
  }
  if (a.inputs.empty() || a.work_dir.empty()) {
    throw std::runtime_error("--inputs and --work-dir are required");
  }
  return a;
}

int run(const Args& a) {
  // A traced run alternates untraced and traced passes, so the trace
  // overhead is measured under the same host conditions.
  constexpr std::size_t kMinPasses = 4;
  Report rep;
  fs::create_directories(a.work_dir);
  const double deadline = now_s() + a.seconds;
  const auto more = [&] { return rep.passes.size() < kMinPasses || now_s() < deadline; };
  const auto traced_pass = [&](std::size_t i) { return a.trace && i % 2 == 1; };

  if (a.workload == "warehouse") {
    bool counted = false;
    while (more()) {
      const bool traced = traced_pass(rep.passes.size());
      rep.passes.push_back(warehouse_pass(traced, traced && !counted, rep));
      counted = counted || traced;
    }
  } else if (a.workload == "paper_grid") {
    const Matrices m = load_matrices(a.inputs, {"fig2", "fig3", "fig4", "natjam"});
    double expand_s = 0;
    std::size_t n = 0;
    for (const auto& part : expand_all(m, expand_s)) n += part.size();
    const std::vector<std::size_t> order = permutation(n, a.seed);
    while (more()) rep.passes.push_back(grid_pass(m, order, traced_pass(rep.passes.size()), rep));
    if (a.trace) rep.info["count_pass_fold"] = hex64(count_pass(m, a.work_dir, rep));
  } else if (a.workload == "study_sweep") {
    const Matrices m = load_matrices(a.inputs, {"policy", "revoke"});
    double expand_s = 0;
    std::vector<std::vector<std::size_t>> orders;
    std::uint64_t seed = a.seed;
    for (const auto& part : expand_all(m, expand_s)) {
      orders.push_back(permutation(part.size(), seed++));
    }
    while (more()) {
      rep.passes.push_back(
          sweep_pass(m, orders, a.work_dir / "cache", traced_pass(rep.passes.size()), rep));
    }
    if (a.trace) rep.info["count_pass_fold"] = hex64(count_pass(m, a.work_dir, rep));
  } else {
    throw std::runtime_error("unknown workload '" + a.workload +
                             "' (warehouse|paper_grid|study_sweep)");
  }
  fs::remove_all(a.work_dir);
  print_report(a.workload, rep);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "osap_perfbench: %s\n", e.what());
    return 2;
  }
}
