// Virtual-memory manager for one simulated node.
//
// Models exactly the mechanisms §III-A of the paper relies on, at
// byte-extent granularity (page-accurate volumes without per-page
// objects):
//
//  * Anonymous process memory lives in named *regions* (JVM heap, task
//    state, I/O buffers). Regions are hot (recently touched, in the
//    working set) or cold, and their owning process is running or stopped.
//  * Reclaim triggers when free RAM drops below the low watermark and
//    frees up to the high watermark, evicting in the order the paper
//    describes: file-system cache first (swappiness 0), then pages of
//    stopped processes, then cold pages of running processes, then — as a
//    last resort — hot pages. Clean extents are dropped for free; dirty
//    extents cost a clustered swap-out write on the shared disk.
//  * The approximate-LRU replacement is modelled by an error fraction that
//    grows with memory pressure: some evicted bytes belong to the
//    requester's working set and fault straight back in (swap-in read +
//    re-eviction elsewhere). This reproduces the super-linear "paged
//    bytes" curve of Fig. 4 ("swapped data grows more than linearly
//    because of an approximate implementation of the page replacement
//    algorithm in Linux").
//  * Victim frames stay occupied until their swap-out write completes;
//    only then do they become grantable, so paging cost is never hidden.
//
// All frame acquisition is asynchronous: `commit` and `page_in` call their
// continuation once frames are available, possibly after disk I/O.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/audit.hpp"
#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/units.hpp"
#include "os/config.hpp"
#include "os/disk.hpp"

namespace osap::trace {
class Counter;
class Tracer;
}  // namespace osap::trace

namespace osap {

struct RegionTag { static const char* prefix() { return "region_"; } };
using RegionId = StrongId<RegionTag>;

class Vmm final : public InvariantAuditor {
 public:
  Vmm(Simulation& sim, Disk& disk, const OsConfig& cfg, std::string name = "vmm");
  ~Vmm() override;
  Vmm(const Vmm&) = delete;
  Vmm& operator=(const Vmm&) = delete;

  // --- process / region lifecycle ---------------------------------------
  void register_process(Pid pid);
  /// Mark a process stopped (SIGTSTP) or running (SIGCONT): stopped
  /// processes' pages are preferred eviction victims.
  void set_stopped(Pid pid, bool stopped);
  /// Drop every frame and swap slot of the process (exit / SIGKILL).
  void release_process(Pid pid);

  RegionId create_region(Pid pid, std::string name);
  /// The process's region of this name, or an invalid id when it has none.
  [[nodiscard]] RegionId find_region(Pid pid, const std::string& name) const;
  /// Whether the region is in its owner's current working set.
  void mark_hot(RegionId rid, bool hot);

  // --- memory operations --------------------------------------------------
  /// Make `bytes` more of the region resident and dirty (allocation or
  /// writing). `done` fires once frames are granted — after swap-out I/O
  /// if reclaim had to page something out.
  void commit(RegionId rid, Bytes bytes, std::function<void()> done);

  /// Bring all currently swapped bytes of the region back to RAM (the
  /// process touches it again after a suspend-resume cycle). Swap-in reads
  /// go through the shared disk. If `dirtying` the swap slots are freed.
  void page_in(RegionId rid, bool dirtying, std::function<void()> done);

  /// Release `bytes` resident bytes of the region (free() / GC giving
  /// memory back to the OS, §V-B).
  void release(RegionId rid, Bytes bytes);

  /// The process rewrites the region: clean resident pages become dirty
  /// again and abandon their swap slots.
  void dirty_resident(RegionId rid);

  /// Opportunistically grow the file-system cache after a disk read; the
  /// cache only consumes frames above the low watermark.
  void fs_cache_insert(Bytes bytes);

  /// Installed by the kernel: called when reclaim cannot free enough
  /// memory (aggregate memory exceeds RAM + swap, §III-A). The handler
  /// must kill a process (releasing memory) or the simulation aborts.
  void set_oom_handler(std::function<void()> handler) { oom_handler_ = std::move(handler); }

  // --- queries -------------------------------------------------------------
  [[nodiscard]] Bytes free_ram() const noexcept { return free_; }
  [[nodiscard]] Bytes fs_cache() const noexcept { return fs_cache_; }
  [[nodiscard]] Bytes swap_used() const noexcept { return swap_used_; }
  /// Swap-used fraction in [0,1] (0 when the node has no swap device) —
  /// the policy layer's memory-pressure watermark probe.
  [[nodiscard]] double swap_pressure() const noexcept {
    return cfg_.swap_size == 0
               ? 0.0
               : static_cast<double>(swap_used_) / static_cast<double>(cfg_.swap_size);
  }
  [[nodiscard]] Bytes resident(Pid pid) const;
  [[nodiscard]] Bytes swapped(Pid pid) const;
  /// Cumulative bytes ever paged out for this process — Fig. 4's metric.
  [[nodiscard]] Bytes swapped_out_total(Pid pid) const;
  [[nodiscard]] Bytes swapped_in_total(Pid pid) const;
  /// Every byte ever written to swap on this node: the disk's swap-out
  /// traffic, which only the VMM issues.
  [[nodiscard]] Bytes swapped_out_total_all() const noexcept {
    return disk_.transferred(IoClass::SwapOut);
  }
  [[nodiscard]] Bytes region_resident(RegionId rid) const;
  [[nodiscard]] Bytes region_swapped(RegionId rid) const;
  [[nodiscard]] bool has_region(RegionId rid) const { return regions_.contains(rid); }
  [[nodiscard]] bool is_stopped(Pid pid) const;

  // --- invariant auditing ---------------------------------------------------
  [[nodiscard]] std::string audit_label() const override { return name_; }
  /// Audited invariants: frame conservation (free + cache + in-flight +
  /// resident == usable RAM), swap-slot exactness (swap_used == swapped +
  /// clean copies), swap capacity, every region's owner registered, and
  /// paging-counter conservation (paged_out == paged_in + discarded +
  /// currently swapped).
  void audit(std::vector<std::string>& violations) const override;
  void dump(std::ostream& os) const override;
  /// Every mutator marks the audit-dirty flag, so the periodic sweep may
  /// skip this VMM across clean (pure-compute) stretches.
  [[nodiscard]] bool audit_supports_dirty() const override { return true; }

  /// Testing-only fault injection: skew the free-frame counter so the
  /// conservation audit fires. Never call outside audit tests.
  void testing_corrupt_free_frames(Bytes delta) {
    free_ += delta;
    mark_audit_dirty();
  }

 private:
  struct Region {
    Pid pid;
    std::string name;
    Bytes resident_clean = 0;  // swap copy exists; droppable for free
    Bytes resident_dirty = 0;  // must be written to swap before eviction
    Bytes swapped = 0;
    bool hot = false;
    std::uint64_t last_touch = 0;
  };
  struct ProcInfo {
    bool stopped = false;
    Bytes swapped_out_total = 0;
    Bytes swapped_in_total = 0;
  };
  /// One reclaim round's outcome.
  struct VictimPlan {
    Bytes instant = 0;   // frames free immediately (cache + clean)
    Bytes io = 0;        // dirty bytes needing a swap-out write
    Bytes refault = 0;   // working-set bytes mistakenly evicted
    RegionId refault_region;
  };

  /// Grant `bytes` frames to a requester, reclaiming if needed; `grant`
  /// runs once the frames are held. `rounds` counts reclaim retries for
  /// this request; the loop is bounded (livelock guard).
  void acquire_frames(Bytes bytes, Pid requester, std::function<void()> grant, int depth,
                      int rounds = 0);

  /// Select and immediately detach victims worth roughly `want` bytes.
  VictimPlan select_victims(Bytes want, Pid requester);

  /// Take up to `want` bytes from one region, clean first.
  Bytes evict_from_region(Region& region, Bytes want, VictimPlan& plan);

  void touch(Region& region);
  void oom(const char* why);

  Simulation& sim_;
  Disk& disk_;
  const OsConfig cfg_;
  std::string name_;
  /// Ordered by id: victim selection, audits and dumps walk them. A
  /// process's regions are the ones it owns, in creation order.
  std::map<Pid, ProcInfo> procs_;
  std::map<RegionId, Region> regions_;
  IdGenerator<RegionId> region_ids_;
  Bytes free_;
  Bytes fs_cache_ = 0;
  Bytes swap_used_ = 0;
  /// In-flight frames: victims awaiting their swap-out write, and granted
  /// page-in frames awaiting their swap-in read. Part of conservation.
  Bytes held_ = 0;
  std::uint64_t touch_seq_ = 0;
  std::function<void()> oom_handler_;

  // --- observability (src/trace) -----------------------------------------
  // Counter references are resolved once at construction; the registry
  // guarantees them stable. The paging counters obey an exact conservation
  // law cross-checked by audit(): paged_out == paged_in + discarded +
  // currently-swapped bytes.
  trace::Tracer* tracer_ = nullptr;
  std::uint32_t trk_ = 0;  ///< trace track (node process, "vmm" thread)
  trace::Counter* ctr_paged_out_ = nullptr;   ///< resident -> swapped moves
  trace::Counter* ctr_paged_in_ = nullptr;    ///< swapped -> resident moves
  trace::Counter* ctr_discarded_ = nullptr;   ///< swapped bytes dropped (free/exit)
  trace::Counter* ctr_swap_out_io_ = nullptr; ///< bytes written to the swap device
  trace::Counter* ctr_swap_in_io_ = nullptr;  ///< bytes read from the swap device
  std::uint64_t io_span_seq_ = 0;             ///< async span ids for swap I/O
};

}  // namespace osap
