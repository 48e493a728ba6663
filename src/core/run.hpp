// Descriptor-driven run entry points — the facade surface the osapd
// sweep harness (src/osapd, tools/osapd_cli.cpp) is built on.
//
// A RunDescriptor is a flat, canonically ordered set of key=value pairs
// naming one concrete experiment cell: workload, preemption primitive,
// state sizes, scheduler, seed, fault plan. `normalize_descriptor`
// materializes every default the runner would consume, so two spellings
// of the same cell (defaults omitted vs written out) share one canonical
// text — and therefore one FNV-1a config digest. The digest is what the
// osapd result cache is keyed by: the event-trace digest already proves
// a descriptor replays bit-identically (docs/LINT.md), so equal config
// digests ⇒ equal results, and caching is sound.
//
//   core::RunDescriptor d;
//   d.set("primitive", "kill");
//   d.set("r", "0.3");
//   core::ResultRecord rec = core::run_descriptor(core::normalize_descriptor(d));
//
// Everything here stays strictly deterministic: no wall clocks (the
// harness injects wall-time measurement from outside the library) and no
// ambient randomness.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hadoop/scheduler.hpp"
#include "policy/policy.hpp"
#include "sched/capacity.hpp"

namespace osap::core {

/// One experiment cell as flat key=value pairs, kept sorted by key so the
/// canonical text — and the config digest derived from it — is unique per
/// configuration regardless of insertion order.
class RunDescriptor {
 public:
  /// Insert or replace; keys stay unique and sorted.
  void set(const std::string& key, const std::string& value);

  /// nullptr when the key is absent.
  [[nodiscard]] const std::string* find(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& fallback) const;

  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>& items() const noexcept {
    return kv_;
  }
  [[nodiscard]] bool empty() const noexcept { return kv_.empty(); }

  /// "key=value;key=value" in sorted key order — the digest input and the
  /// cache's stored identity.
  [[nodiscard]] std::string canonical() const;
  /// FNV-1a over canonical().
  [[nodiscard]] std::uint64_t digest() const;
  /// digest() as 16 lowercase hex digits — the cache file stem.
  [[nodiscard]] std::string digest_hex() const;

  /// Parse "k=v;k=v" (also accepts ',' separators) back into a
  /// descriptor; throws SimError on malformed input.
  static RunDescriptor parse(const std::string& text);

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// Harness-side hooks for one run. Everything is optional and passive:
/// a default-constructed RunOptions reproduces the plain library run.
struct RunOptions {
  /// Called every few thousand fired events from inside the event loop.
  /// Never schedules events, so it cannot change the trace digest; it may
  /// throw to abort the run (the osapd RSS watchdog does exactly that —
  /// the thrown message becomes the result record's failure reason).
  std::function<void()> tick;
  /// Write the observability JSON / Chrome trace after the run.
  std::string counters_file;
  std::string trace_file;
};

/// Compact result of one descriptor run — what an osapd worker ships back
/// over its pipe and what the cache stores.
struct ResultRecord {
  bool ok = false;
  /// Failure reason when !ok (sim invariant, descriptor error, watchdog
  /// abort). Runs that fail leave the metric fields zero.
  std::string error;
  std::uint64_t config_digest = 0;
  /// Event-trace digest of the run — the replay witness.
  std::uint64_t trace_digest = 0;
  std::uint64_t events = 0;
  int jobs = 0;
  double sojourn_th = 0;
  double sojourn_tl = 0;
  double makespan = 0;
  /// Cluster cost of the run (per-class hourly rates × node lifetimes,
  /// docs/REVOKE.md); 0 unless the cell enables a lifetime model.
  double cost = 0;
  double tl_swapped_out_mib = 0;
  /// Fixed subset of the run's counters (suspend/resume round trips,
  /// scheduler assignments, speculation) — enough to diff sweeps without
  /// shipping the whole registry per cell.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Wall time of the compute, stamped by the harness (the library never
  /// reads a wall clock). Cached hits return the original value.
  double wall_ms = 0;
};

/// The workloads a descriptor can name; the first is the default.
inline constexpr const char* kWorkloads[] = {"two_job", "trace"};

/// One descriptor axis: its name, the default normalize_descriptor writes
/// (nullptr: the axis is optional) and the workloads that accept it (bit
/// i stands for kWorkloads[i]). An axis whose default differs between
/// workloads has one row per workload.
struct Axis {
  std::string_view name;
  const char* fallback;
  unsigned workloads;
};

/// Every axis, sorted by name — the one place an axis and its default
/// are written. Normalization, the mis-keyed-axis check, both runners
/// and `osapd`'s usage text read it.
[[nodiscard]] std::span<const Axis> axes() noexcept;

/// Materialize every default the runner consumes for the descriptor's
/// workload (kWorkloads[0] when unspecified), so canonical texts are
/// unique per configuration. Throws SimError for an unknown workload or
/// an axis the workload does not accept. Values are not parsed here: a
/// malformed value fails its run, with the key named in the error.
[[nodiscard]] RunDescriptor normalize_descriptor(RunDescriptor d);

/// Every name make_scheduler accepts, as usage and error texts print it.
inline constexpr const char* kSchedulerNames = "fifo|fair|hfsp|capacity|deadline";

/// The scheduler `name` names (the `scheduler` axis, `osap trace
/// --scheduler`), evicting with `primitive` under `policy`; only capacity
/// reads `queues`, fifo preempts nothing, and every other option keeps
/// its default. Throws SimError for a name outside kSchedulerNames.
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    std::string_view name, PreemptPrimitive primitive, const policy::PolicyOptions& policy = {},
    const std::vector<CapacityScheduler::QueueConfig>& queues = {{"default", 1.0}});

/// Run one cell. Descriptor errors and simulation failures are reported
/// in the record (ok=false + reason), not thrown — a sweep must survive a
/// bad cell. The record's wall_ms is left zero (see above).
[[nodiscard]] ResultRecord run_descriptor(const RunDescriptor& d, const RunOptions& opts = {});

}  // namespace osap::core
