#include "core/run.hpp"

#include <algorithm>
#include <sstream>

#include "common/det.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "fault/injector.hpp"
#include "policy/gang.hpp"
#include "policy/policy.hpp"
#include "revoke/lifetime.hpp"
#include "revoke/manager.hpp"
#include "sched/deadline.hpp"
#include "sched/fair.hpp"
#include "sched/fifo.hpp"
#include "sched/hfsp.hpp"
#include "trace/names.hpp"
#include "workload/swim.hpp"
#include "workload/two_job.hpp"

namespace osap::core {

namespace {

constexpr unsigned kTwoJob = 1u << 0;  // bit i stands for kWorkloads[i]
constexpr unsigned kTrace = 1u << 1;
constexpr unsigned kEvery = kTwoJob | kTrace;

/// Every descriptor axis, sorted by name so normalize_descriptor can
/// merge it with a descriptor's sorted keys. `faults` is an inline fault plan (';'-separated
/// lines, docs/FAULTS.md); `fault_worker` is the osapd worker-pool
/// fault-injection hook (docs/OSAPD.md) — the library runner ignores it,
/// but it must stay digest-visible. lifetime_*, node_mix, revoke_react
/// and warning_s are the node-revocation axes (docs/REVOKE.md).
constexpr Axis kAxes[] = {
    // name             default        workloads
    {"deadline_factor", "0",           kTrace},
    {"fault_worker",    nullptr,       kEvery},
    {"faults",          nullptr,       kEvery},
    {"gang_slice",      "0",           kTrace},
    {"jitter",          "0.02",        kTwoJob},
    {"jobs",            "12",          kTrace},
    {"lifetime_mean_s", "400",         kTrace},
    {"lifetime_model",  "none",        kTrace},
    {"node_mix",        "0",           kTrace},
    {"nodes",           "4",           kTrace},
    {"policy",          "off",         kTrace},
    {"primitive",       "susp",        kEvery},
    {"queues",          "default:1",   kTrace},
    {"r",               "0.5",         kTwoJob},
    {"revoke_react",    "none",        kTrace},
    {"scheduler",       "hfsp",        kTrace},
    {"seed",            "1",           kTwoJob},
    {"seed",            "7",           kTrace},
    {"state",           "1GiB",        kTrace},
    {"stateful",        "0.2",         kTrace},
    {"swap_watermark",  "0.5",         kTrace},
    {"th_state",        "0",           kTwoJob},
    {"tl_state",        "0",           kTwoJob},
    {"warning_s",       "120",         kTrace},
    {"workload",        kWorkloads[0], kEvery},
};

/// The merge in normalize_descriptor needs the rows sorted by name, and
/// no workload accepting two rows of one name.
constexpr bool merge_ready() {
  for (std::size_t i = 1; i < std::size(kAxes); ++i) {
    const Axis& a = kAxes[i - 1];
    const Axis& b = kAxes[i];
    if (b.name < a.name || (a.name == b.name && (a.workloads & b.workloads) != 0)) return false;
  }
  return true;
}
static_assert(merge_ready(), "kAxes: sort by name, one row per name and workload");

[[noreturn]] void not_understood(const std::string& key, const std::string& workload) {
  std::ostringstream msg;
  msg << "descriptor key '" << key << "' is not understood by workload '" << workload << "'";
  throw SimError(msg.str());
}

/// The value of an axis the normalized descriptor always carries.
const std::string& axis(const RunDescriptor& d, const char* key) {
  const std::string* v = d.find(key);
  OSAP_CHECK_MSG(v != nullptr, "descriptor lacks axis '" << key << "'");
  return *v;
}

/// What a descriptor axis's parse error calls it.
std::string axis_label(const char* key) {
  std::string label = "descriptor key '";
  label += key;
  label += '\'';
  return label;
}

double real_axis(const RunDescriptor& d, const char* key) {
  return parse_real(axis(d, key), axis_label(key));
}

std::uint64_t seed_axis(const RunDescriptor& d) {
  return parse_seed(axis(d, "seed"), axis_label("seed"));
}

int count_axis(const RunDescriptor& d, const char* key) {
  return parse_count(axis(d, key), axis_label(key));
}

/// The counters subset shipped per cell: the preemption protocol's
/// round trips, scheduler pressure, failures, speculation. Names come
/// from the registry (src/trace/names.hpp, lint rule SID-1).
std::vector<std::pair<std::string, std::uint64_t>> counter_subset(Cluster& cluster) {
  const trace::CounterRegistry& reg = cluster.sim().trace().counters();
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const char* name : {trace::names::kJtSuspendRequests, trace::names::kJtResumeRequests,
                           trace::names::kJtTasksLost, trace::names::kJtTaskFailures,
                           trace::names::kJtJobsFailed, trace::names::kSchedAssignments,
                           trace::names::kSpecLaunched, trace::names::kSpecWon,
                           trace::names::kPolicyDecisions, trace::names::kPolicySwapDemotions,
                           trace::names::kPolicyOrdersRefused,
                           trace::names::kPolicyGangRotations,
                           trace::names::kPolicyGangAdmissionRefused,
                           trace::names::kFaultRevocationWarnings,
                           trace::names::kFaultRevocations,
                           trace::names::kRevokeWarningsHandled,
                           trace::names::kRevokeWarningsLate,
                           trace::names::kRevokeDrainCheckpoints,
                           trace::names::kRevokeDrainMigrations,
                           trace::names::kRevokeDrainKills,
                           trace::names::kRevokeEvacuations,
                           trace::names::kRevokeMigrationsDone,
                           trace::names::kJtTrackersDraining,
                           trace::names::kJtCheckpointsEvacuated}) {
    out.emplace_back(name, reg.value(name));
  }
  return out;
}

std::string inline_fault_plan(const RunDescriptor& d) {
  std::string plan = d.get("faults", "");
  // Matrix axis values are comma-split by the expansion, so an inline
  // plan from a `.matrix` faults axis separates its lines with '|'; the
  // facade accepts both. "none" names the empty plan (a sweep axis needs
  // a spellable baseline value).
  if (plan == "none") return "";
  std::replace(plan.begin(), plan.end(), ';', '\n');
  std::replace(plan.begin(), plan.end(), '|', '\n');
  return plan;
}

void apply_observability(const RunOptions& opts, ClusterConfig& cfg) {
  if (opts.counters_file.empty() && opts.trace_file.empty()) return;
  cfg.trace.enabled = true;
  cfg.trace.counters_file = opts.counters_file;
  cfg.trace.trace_file = opts.trace_file;
}

void run_two_job_cell(const RunDescriptor& d, const RunOptions& opts, ResultRecord& rec) {
  TwoJobParams params;
  params.primitive = parse_primitive(axis(d, "primitive"));
  params.progress_at_launch = real_axis(d, "r");
  params.tl_state = parse_size(axis(d, "tl_state"));
  params.th_state = parse_size(axis(d, "th_state"));
  params.seed = seed_axis(d);
  params.jitter = real_axis(d, "jitter");
  params.fault_plan = inline_fault_plan(d);
  params.tick = opts.tick;
  apply_observability(opts, params.cluster);
  // Extraction runs before the success check so failed runs still stamp
  // their digest when the simulation itself completed.
  params.inspect = [&rec](Cluster& cluster) {
    rec.trace_digest = cluster.trace_digest();
    rec.events = cluster.sim().events_processed();
    rec.counters = counter_subset(cluster);
  };
  const TwoJobResult res = run_two_job(params);
  rec.jobs = 2;
  rec.sojourn_th = res.sojourn_th;
  rec.sojourn_tl = res.sojourn_tl;
  rec.makespan = res.makespan;
  rec.tl_swapped_out_mib = to_mib(res.tl_swapped_out);
  rec.ok = true;
}

/// Queue axis of the trace workload: `name:capacity[:preempt]|...`.
/// Descriptor values cannot carry ';' or ',' (RunDescriptor::parse
/// splits on both), so the queue list uses '|' and ':' instead.
/// `options` with the primitive and the policy rules filled in.
template <typename S>
std::unique_ptr<Scheduler> preempting(typename S::Options options, PreemptPrimitive primitive,
                                      const policy::PolicyOptions& policy) {
  options.primitive = primitive;
  options.policy = policy;
  return std::make_unique<S>(std::move(options));
}

std::vector<CapacityScheduler::QueueConfig> parse_queue_spec(const std::string& spec) {
  std::vector<CapacityScheduler::QueueConfig> out;
  std::size_t at = 0;
  while (at < spec.size()) {
    std::size_t end = spec.find('|', at);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(at, end - at);
    at = end + 1;
    if (item.empty()) continue;
    const std::size_t c1 = item.find(':');
    OSAP_CHECK_MSG(c1 != std::string::npos && c1 > 0,
                   "queue spec '" << item << "' is not name:capacity[:preempt]");
    CapacityScheduler::QueueConfig q;
    q.name = item.substr(0, c1);
    const std::size_t c2 = item.find(':', c1 + 1);
    const std::string cap =
        item.substr(c1 + 1, (c2 == std::string::npos ? item.size() : c2) - c1 - 1);
    q.capacity = parse_real(cap, "queue '" + q.name + "' capacity");
    if (c2 != std::string::npos) q.preempt = item.substr(c2 + 1);
    out.push_back(std::move(q));
  }
  OSAP_CHECK_MSG(!out.empty(), "queue spec '" << spec << "' names no queues");
  return out;
}

void run_trace_cell(const RunDescriptor& d, const RunOptions& opts, ResultRecord& rec) {
  ClusterConfig cfg = paper_cluster();
  cfg.num_nodes = count_axis(d, "nodes");
  const std::uint64_t seed = seed_axis(d);
  const double swap_watermark = real_axis(d, "swap_watermark");
  apply_observability(opts, cfg);
  Cluster cluster(cfg);

  // Swap pressure as seen by the policy layer: the per-node VMM's used
  // fraction of its swap device. Safe to capture the cluster by
  // reference — schedulers and the gang rotator die before it does.
  policy::MemoryProbe probe = [&cluster](NodeId node) {
    return cluster.kernel(node).vmm().swap_pressure();
  };

  PreemptPrimitive primitive = parse_primitive(axis(d, "primitive"));

  // Every eviction runs through the scheduler's policy engine. policy=off
  // runs `primitive` without the swap probe; policy=primitive adds the
  // probe's swap-watermark demotion; any primitive spelling replaces
  // `primitive` for every victim, probe included.
  policy::PolicyOptions popts;
  const std::string& policy_spec = axis(d, "policy");
  if (policy_spec != "off") {
    if (policy_spec != "primitive") primitive = parse_primitive(policy_spec);
    popts.swap_watermark = swap_watermark;
    popts.probe = probe;
  }

  std::vector<CapacityScheduler::QueueConfig> queues =
      parse_queue_spec(axis(d, "queues"));

  cluster.set_scheduler(make_scheduler(axis(d, "scheduler"), primitive, popts, queues));

  SwimConfig swim;
  swim.jobs = count_axis(d, "jobs");
  swim.state_memory = parse_size(axis(d, "state"));
  swim.stateful_fraction = real_axis(d, "stateful");
  const double deadline_factor = real_axis(d, "deadline_factor");
  Rng rng(seed);
  std::vector<SwimJob> trace = generate_swim_trace(swim, rng);
  std::size_t job_index = 0;
  for (SwimJob& job : trace) {
    // Round-robin queue assignment; with the default single queue this
    // restates JobSpec's own default and perturbs nothing.
    job.spec.queue = queues[job_index % queues.size()].name;
    if (deadline_factor > 0) {
      job.spec.deadline =
          job.arrival + deadline_factor * static_cast<double>(job.spec.tasks.size());
    }
    ++job_index;
    cluster.submit_at(job.arrival, std::move(job.spec));
  }

  // Gang scheduling: a slice > 0 arms the rotation timer; the rotator
  // re-arms itself, and Cluster::run terminates on all-jobs-done
  // regardless of the pending timer.
  std::unique_ptr<policy::GangRotator> gang;
  if (const double gang_slice = real_axis(d, "gang_slice"); gang_slice > 0) {
    policy::GangOptions gopts;
    gopts.slice = gang_slice;
    gopts.swap_watermark = swap_watermark;
    gopts.probe = probe;
    gang = std::make_unique<policy::GangRotator>(cluster.job_tracker(), gopts);
    gang->start();
  }

  fault::FaultPlan fplan;
  const std::string plan = inline_fault_plan(d);
  if (!plan.empty()) {
    std::istringstream in(plan);
    fplan = fault::parse_fault_plan(in);
  }

  // Node-revocation axes (docs/REVOKE.md): a lifetime model samples a
  // revocation schedule for the transient slice of the cluster, merged
  // into the scripted fault plan so one injector executes both. Every
  // cell reads and range-checks all the axes; without a model the plan is
  // empty. Cells with a model are costed — including the all-on-demand
  // node_mix=0 baseline, so the frontier's cost axis is comparable across
  // mixes.
  revoke::LifetimeOptions lopts;
  lopts.model = revoke::parse_lifetime_model(axis(d, "lifetime_model"));
  lopts.node_mix = real_axis(d, "node_mix");
  lopts.mean_lifetime_s = real_axis(d, "lifetime_mean_s");
  lopts.warning_s = real_axis(d, "warning_s");
  lopts.seed = seed;
  const revoke::RevocationPlan rplan =
      revoke::plan_revocations(static_cast<std::size_t>(cfg.num_nodes), lopts);
  rplan.merge_into(fplan);
  const bool costed = lopts.model != revoke::LifetimeModel::None;

  std::unique_ptr<fault::FaultInjector> injector;
  std::unique_ptr<revoke::RevocationManager> manager;
  if (!fplan.empty()) {
    injector = std::make_unique<fault::FaultInjector>(cluster, std::move(fplan));
  }
  if (costed && injector != nullptr) {
    manager = std::make_unique<revoke::RevocationManager>(
        cluster, *injector, rplan, revoke::parse_reaction(axis(d, "revoke_react")));
  }

  cluster.run(opts.tick);

  const JobTracker& jt = cluster.job_tracker();
  double sojourn_sum = 0;
  double first_submit = -1, last_done = 0;
  int succeeded = 0;
  for (JobId id : jt.jobs_in_order()) {
    const Job& job = jt.job(id);
    if (job.state != JobState::Succeeded) continue;
    ++succeeded;
    sojourn_sum += job.sojourn();
    if (first_submit < 0 || job.submitted_at < first_submit) first_submit = job.submitted_at;
    if (job.completed_at > last_done) last_done = job.completed_at;
  }
  rec.jobs = static_cast<int>(jt.jobs_in_order().size());
  rec.sojourn_th = succeeded > 0 ? sojourn_sum / succeeded : 0;
  rec.sojourn_tl = 0;
  rec.makespan = succeeded > 0 ? last_done - first_submit : 0;
  if (costed) rec.cost = rplan.cost(cluster.sim().now());
  rec.trace_digest = cluster.trace_digest();
  rec.events = cluster.sim().events_processed();
  rec.counters = counter_subset(cluster);
  rec.ok = true;
}

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(
    std::string_view name, PreemptPrimitive primitive, const policy::PolicyOptions& policy,
    const std::vector<CapacityScheduler::QueueConfig>& queues) {
  if (name == "fifo") return std::make_unique<FifoScheduler>();
  if (name == "fair") return preempting<FairScheduler>({}, primitive, policy);
  if (name == "hfsp") return preempting<HfspScheduler>({}, primitive, policy);
  if (name == "capacity") return preempting<CapacityScheduler>({queues}, primitive, policy);
  if (name == "deadline") return preempting<DeadlineScheduler>({}, primitive, policy);
  std::string msg = "unknown scheduler '";
  msg += name;
  msg += "' (";
  msg += kSchedulerNames;
  msg += ')';
  throw SimError(msg);
}

void RunDescriptor::set(const std::string& key, const std::string& value) {
  const auto at = std::lower_bound(
      kv_.begin(), kv_.end(), key,
      [](const std::pair<std::string, std::string>& e, const std::string& k) {
        return e.first < k;
      });
  if (at != kv_.end() && at->first == key) {
    at->second = value;
  } else {
    kv_.insert(at, {key, value});
  }
}

const std::string* RunDescriptor::find(const std::string& key) const {
  const auto at = std::lower_bound(
      kv_.begin(), kv_.end(), key,
      [](const std::pair<std::string, std::string>& e, const std::string& k) {
        return e.first < k;
      });
  return at != kv_.end() && at->first == key ? &at->second : nullptr;
}

std::string RunDescriptor::get(const std::string& key, const std::string& fallback) const {
  const std::string* v = find(key);
  return v == nullptr ? fallback : *v;
}

std::string RunDescriptor::canonical() const {
  std::string out;
  for (const auto& [key, value] : kv_) {
    if (!out.empty()) out += ';';
    out += key;
    out += '=';
    out += value;
  }
  return out;
}

std::uint64_t RunDescriptor::digest() const {
  det::Fnv1a fnv;
  const std::string text = canonical();
  fnv.mix_bytes(reinterpret_cast<const unsigned char*>(text.data()), text.size());
  return fnv.value();
}

std::string RunDescriptor::digest_hex() const {
  static const char* kHex = "0123456789abcdef";
  std::uint64_t v = digest();
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kHex[v & 0xf];
    v >>= 4;
  }
  return out;
}

RunDescriptor RunDescriptor::parse(const std::string& text) {
  RunDescriptor d;
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find_first_of(";,", at);
    if (end == std::string::npos) end = text.size();
    const std::string item = text.substr(at, end - at);
    at = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    OSAP_CHECK_MSG(eq != std::string::npos && eq > 0,
                   "descriptor item '" << item << "' is not key=value");
    d.set(item.substr(0, eq), item.substr(eq + 1));
  }
  return d;
}

std::span<const Axis> axes() noexcept { return kAxes; }

RunDescriptor normalize_descriptor(RunDescriptor d) {
  const std::string* given = d.find("workload");
  const std::string workload = given != nullptr ? *given : kWorkloads[0];
  const auto named = std::find(std::begin(kWorkloads), std::end(kWorkloads), workload);
  if (named == std::end(kWorkloads)) {
    throw SimError("unknown workload '" + workload + "' (two_job|trace)");
  }
  const unsigned bit = 1u << (named - std::begin(kWorkloads));
  // One merge of the workload's rows with the descriptor's sorted keys
  // finds the absent axes and the keys no row accepts. A mis-keyed axis
  // silently running the default experiment is the bug class the osap
  // CLI's unknown-flag check exists for; reject it here too so a sweep
  // fails its cells loudly instead of caching nonsense.
  const Axis* absent[std::size(kAxes)];
  std::size_t n_absent = 0;
  auto item = d.items().begin();
  const auto end = d.items().end();
  for (const Axis& a : kAxes) {
    if ((a.workloads & bit) == 0) continue;
    if (item != end && std::string_view(item->first) < a.name) {
      not_understood(item->first, workload);
    }
    if (item != end && item->first == a.name) {
      ++item;
    } else if (a.fallback != nullptr) {
      absent[n_absent++] = &a;
    }
  }
  if (item != end) not_understood(item->first, workload);
  for (std::size_t i = 0; i < n_absent; ++i) {
    d.set(std::string(absent[i]->name), absent[i]->fallback);
  }
  return d;
}

ResultRecord run_descriptor(const RunDescriptor& din, const RunOptions& opts) {
  ResultRecord rec;
  try {
    const RunDescriptor d = normalize_descriptor(din);
    rec.config_digest = d.digest();
    if (axis(d, "workload") == "two_job") {
      run_two_job_cell(d, opts, rec);
    } else {
      run_trace_cell(d, opts, rec);
    }
  } catch (const std::exception& e) {
    rec.ok = false;
    rec.error = e.what();
  }
  return rec;
}

}  // namespace osap::core
