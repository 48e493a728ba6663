// The heartbeat round trip's payload: every status the JobTracker hands its
// scheduler carries exactly the reports its tracker assembled for it,
// even while an out-of-band heartbeat and a periodic one are in flight
// together.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hadoop/cluster.hpp"
#include "sched/fifo.hpp"
#include "workload/profiles.hpp"

namespace osap {
namespace {

/// Decorator that records every status the JobTracker passes to the
/// scheduler it wraps.
class RecordingScheduler final : public Scheduler {
 public:
  struct Seen {
    SimTime at;
    TrackerId tracker;
    std::vector<TaskStatusReport> reports;
  };

  explicit RecordingScheduler(std::unique_ptr<Scheduler> inner) : inner_(std::move(inner)) {}

  void job_added(JobId id) override { inner_->job_added(id); }
  void job_completed(JobId id) override { inner_->job_completed(id); }
  std::vector<TaskId> assign(const TrackerStatus& status) override {
    seen.push_back(Seen{jt_->now(), status.tracker, status.reports});
    return inner_->assign(status);
  }

  std::vector<Seen> seen;

 protected:
  void attached() override { inner_->attach(*jt_); }

 private:
  std::unique_ptr<Scheduler> inner_;
};

/// The `"reports":N` argument of a heartbeat span's begin event.
std::uint64_t reports_arg(const trace::TraceEvent& e) {
  const std::string key = "\"reports\":";
  const auto at = e.args.find(key);
  EXPECT_NE(at, std::string::npos) << e.name << " begin without a reports argument";
  return at == std::string::npos ? 0 : std::strtoull(e.args.c_str() + at + key.size(), nullptr, 10);
}

TEST(HeartbeatPayload, EachStatusCarriesExactlyItsOwnReports) {
  // Tracker-to-master messages take 4 s longer than the 3 s heartbeat
  // period, so a periodic heartbeat is always in flight when a task's
  // completion sends an out-of-band one.
  constexpr Duration kDelay = 4.0;
  ClusterConfig cfg = paper_cluster();
  cfg.trace.enabled = true;
  Cluster cluster(cfg);
  auto recorder = std::make_unique<RecordingScheduler>(
      std::make_unique<FifoScheduler>(/*locality_delay=*/0.0));
  RecordingScheduler& rec = *recorder;
  cluster.set_scheduler(std::move(recorder));
  const NodeId master = cluster.job_tracker().master_node();
  cluster.network().set_message_filter([master](NodeId, NodeId to) {
    MsgFate fate;
    if (to == master) fate.extra_delay = kDelay;
    return fate;
  });
  int tasks = 0;
  for (int j = 0; j < 6; ++j) {
    JobSpec job;
    job.name = "j";
    job.name += std::to_string(j);
    for (int t = 0; t < 3; ++t) job.tasks.push_back(light_map_task((8 + 4 * (j + t)) * MiB));
    tasks += 3;
    cluster.submit_at(0.05 + 0.7 * j, std::move(job));
  }
  cluster.run();
  const JobTracker& jt = cluster.job_tracker();
  ASSERT_TRUE(jt.all_jobs_done());
  for (JobId id : jt.jobs_in_order()) EXPECT_EQ(jt.job(id).state, JobState::Succeeded);

  const TaskTracker& tt = cluster.tracker(cluster.node(0));
  const trace::CounterRegistry& counters = cluster.sim().trace().counters();
  ASSERT_GT(counters.value("node0.tasktracker.oob_heartbeats"), 0u);

  // The k-th status to arrive is the k-th the tracker sent: one tracker,
  // one fixed delay, so its heartbeats arrive in the order they left.
  std::vector<std::uint64_t> assembled;
  for (const trace::TraceEvent& e : cluster.sim().trace().tracer().events()) {
    if (e.phase == 'b' && (e.name == "heartbeat" || e.name == "oob_heartbeat")) {
      assembled.push_back(reports_arg(e));
    }
  }
  ASSERT_FALSE(rec.seen.empty());
  ASSERT_LE(rec.seen.size(), assembled.size());

  bool overlapped = false;
  std::set<TaskId> succeeded;
  std::map<TaskId, double> last_progress;
  for (std::size_t k = 0; k < rec.seen.size(); ++k) {
    const RecordingScheduler::Seen& s = rec.seen[k];
    EXPECT_EQ(s.tracker, tt.id());
    EXPECT_EQ(s.reports.size(), assembled[k]) << "status " << k << " at t=" << s.at;
    // The next status left before this one arrived: both were in flight.
    if (k + 1 < rec.seen.size() && rec.seen[k + 1].at - s.at < kDelay) overlapped = true;
    std::set<std::pair<TaskId, ReportKind>> in_status;
    for (const TaskStatusReport& r : s.reports) {
      EXPECT_TRUE(in_status.emplace(r.task, r.kind).second)
          << r.task << " reported twice in status " << k << " at t=" << s.at;
      EXPECT_FALSE(succeeded.contains(r.task))
          << r.task << " reported again after its success, status " << k << " at t=" << s.at;
      const auto [it, fresh] = last_progress.emplace(r.task, r.progress);
      if (!fresh) {
        EXPECT_GE(r.progress, it->second) << r.task << " progress went back in status " << k;
        it->second = r.progress;
      }
    }
    for (const TaskStatusReport& r : s.reports) {
      if (r.kind == ReportKind::Succeeded) succeeded.insert(r.task);
    }
  }
  EXPECT_TRUE(overlapped) << "no two heartbeats were ever in flight together";
  EXPECT_EQ(static_cast<int>(succeeded.size()), tasks);
}

}  // namespace
}  // namespace osap
