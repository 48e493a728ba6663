#include "os/vmm.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "sim/simulation.hpp"
#include "trace/context.hpp"
#include "trace/names.hpp"

namespace osap {

namespace {
constexpr const char* kLog = "vmm";
/// Reclaim retries per frame request before declaring a livelock. Each
/// retry means a concurrent acquirer raced us to reclaimed frames, so
/// legitimate counts are bounded by concurrent demand / vm_chunk — far
/// below this.
constexpr int kMaxReclaimRounds = 10000;
}  // namespace

Vmm::Vmm(Simulation& sim, Disk& disk, const OsConfig& cfg, std::string name)
    : sim_(sim), disk_(disk), cfg_(cfg), name_(std::move(name)), free_(cfg.usable_ram()) {
  OSAP_CHECK_MSG(cfg_.usable_ram() > cfg_.high_watermark_bytes(),
                 "os_reserved leaves no usable memory");
  OSAP_CHECK(cfg_.high_watermark >= cfg_.low_watermark);
  OSAP_CHECK(cfg_.vm_chunk > 0);
  sim_.audits().add(this);

  // Track: the node half of a "node0.vmm"-style name becomes the trace
  // process, the subsystem half the thread; a bare name maps to itself.
  tracer_ = &sim_.trace().tracer();
  const auto dot = name_.rfind('.');
  const std::string process = dot == std::string::npos ? name_ : name_.substr(0, dot);
  const std::string thread = dot == std::string::npos ? name_ : name_.substr(dot + 1);
  trk_ = tracer_->track(process, thread);
  trace::CounterRegistry& counters = sim_.trace().counters();
  ctr_paged_out_ = &counters.counter(name_ + trace::names::kVmmPagedOutBytes);
  ctr_paged_in_ = &counters.counter(name_ + trace::names::kVmmPagedInBytes);
  ctr_discarded_ = &counters.counter(name_ + trace::names::kVmmSwapDiscardedBytes);
  ctr_swap_out_io_ = &counters.counter(name_ + trace::names::kVmmSwapOutIoBytes);
  ctr_swap_in_io_ = &counters.counter(name_ + trace::names::kVmmSwapInIoBytes);
}

Vmm::~Vmm() { sim_.audits().remove(this); }

void Vmm::register_process(Pid pid) {
  mark_audit_dirty();
  const bool inserted = procs_.emplace(pid, ProcInfo{}).second;
  OSAP_CHECK_MSG(inserted, "pid " << pid << " registered twice");
}

void Vmm::set_stopped(Pid pid, bool stopped) {
  mark_audit_dirty();
  auto it = procs_.find(pid);
  if (it == procs_.end()) return;  // already exited
  it->second.stopped = stopped;
}

void Vmm::release_process(Pid pid) {
  mark_audit_dirty();
  auto it = procs_.find(pid);
  if (it == procs_.end()) return;
  for (auto rit = regions_.begin(); rit != regions_.end();) {
    const Region& r = rit->second;
    if (r.pid != pid) {
      ++rit;
      continue;
    }
    // Anonymous pages are simply dropped; swap slots are recycled — both
    // the slots backing swapped extents and the slots whose clean resident
    // copies die with the process.
    free_ += r.resident_clean + r.resident_dirty;
    OSAP_CHECK(swap_used_ >= r.swapped + r.resident_clean);
    swap_used_ -= r.swapped + r.resident_clean;
    ctr_discarded_->add(r.swapped);
    rit = regions_.erase(rit);
  }
  // Keep the ProcInfo entry: the cumulative paging counters are the
  // experiment metrics (Fig. 4) and must outlive the process.
  it->second.stopped = false;
}

RegionId Vmm::create_region(Pid pid, std::string name) {
  mark_audit_dirty();
  OSAP_CHECK_MSG(procs_.contains(pid), "create_region for unknown " << pid);
  const RegionId rid = region_ids_.next();
  Region r;
  r.pid = pid;
  r.name = std::move(name);
  r.last_touch = ++touch_seq_;
  regions_.emplace(rid, std::move(r));
  return rid;
}

RegionId Vmm::find_region(Pid pid, const std::string& name) const {
  for (const auto& [rid, r] : regions_) {
    if (r.pid == pid && r.name == name) return rid;
  }
  return RegionId{};
}

void Vmm::mark_hot(RegionId rid, bool hot) {
  mark_audit_dirty();
  auto it = regions_.find(rid);
  if (it == regions_.end()) return;
  it->second.hot = hot;
  if (hot) touch(it->second);
}

void Vmm::touch(Region& region) {
  mark_audit_dirty();
  region.last_touch = ++touch_seq_;
}

void Vmm::commit(RegionId rid, Bytes bytes, std::function<void()> done) {
  // Work is the vm_chunk extents the steps below acquire, one each.
  sim_.trace().profiler().add(trace::HotPath::VmmCommit,
                              (bytes + cfg_.vm_chunk - 1) / cfg_.vm_chunk);
  auto it = regions_.find(rid);
  OSAP_CHECK_MSG(it != regions_.end(), "commit to missing " << rid);
  const Pid pid = it->second.pid;
  touch(it->second);

  struct Op {
    RegionId rid;
    Pid pid;
    Bytes remaining;
    std::function<void()> done;
  };
  auto op = std::make_shared<Op>(Op{rid, pid, bytes, std::move(done)});
  // Each continuation carries a copy of the step lambda; a shared
  // self-referencing std::function would cycle and never free.
  auto step = [this, op](auto self) -> void {
    if (op->remaining == 0) {
      if (op->done) op->done();
      return;
    }
    const Bytes chunk = std::min<Bytes>(op->remaining, cfg_.vm_chunk);
    acquire_frames(chunk, op->pid, [this, op, self, chunk] {
      mark_audit_dirty();
      auto rit = regions_.find(op->rid);
      if (rit == regions_.end()) {
        // Owner was killed while we waited for frames: return them.
        free_ += chunk;
        return;
      }
      rit->second.resident_dirty += chunk;
      touch(rit->second);
      op->remaining -= chunk;
      self(self);
    }, /*depth=*/0);
  };
  step(step);
}

void Vmm::page_in(RegionId rid, bool dirtying, std::function<void()> done) {
  auto it = regions_.find(rid);
  OSAP_CHECK_MSG(it != regions_.end(), "page_in on missing " << rid);
  touch(it->second);

  struct Op {
    RegionId rid;
    Pid pid;
    bool dirtying;
    /// Bytes this operation still intends to fault in. Snapshotted at
    /// start and strictly decreasing: reclaim may concurrently re-evict
    /// what we just brought in, and chasing the moving target
    /// (re-reading region.swapped each round) livelocks under pressure.
    /// Re-evicted bytes simply fault again on the next touch.
    Bytes remaining;
    std::function<void()> done;
  };
  auto op = std::make_shared<Op>(
      Op{rid, it->second.pid, dirtying, it->second.swapped, std::move(done)});
  auto step = [this, op](auto self) -> void {
    auto rit = regions_.find(op->rid);
    if (rit == regions_.end()) return;  // owner killed mid page-in
    const Bytes left = std::min(op->remaining, rit->second.swapped);
    if (left == 0) {
      if (op->done) op->done();
      return;
    }
    const Bytes chunk = std::min<Bytes>(left, cfg_.vm_chunk);
    op->remaining -= chunk;
    acquire_frames(chunk, op->pid, [this, op, self, chunk] {
      mark_audit_dirty();
      auto rit2 = regions_.find(op->rid);
      if (rit2 == regions_.end()) {
        free_ += chunk;
        return;
      }
      // Frames held; now read the extent back from the swap device.
      held_ += chunk;
      ctr_swap_in_io_->add(chunk);
      const std::uint64_t span = ++io_span_seq_;
      tracer_->async_begin(trk_, "swap_in", span, {{"bytes", chunk}});
      disk_.start(IoClass::SwapIn, chunk, [this, op, self, chunk, span] {
        mark_audit_dirty();
        tracer_->async_end(trk_, "swap_in", span);
        OSAP_CHECK(held_ >= chunk);
        held_ -= chunk;
        auto rit3 = regions_.find(op->rid);
        if (rit3 == regions_.end()) {
          free_ += chunk;
          return;
        }
        Region& r = rit3->second;
        const Bytes moved = std::min(chunk, r.swapped);
        r.swapped -= moved;
        ctr_paged_in_->add(moved);
        if (op->dirtying) {
          r.resident_dirty += moved;
          OSAP_CHECK(swap_used_ >= moved);
          swap_used_ -= moved;  // dirtied pages abandon their swap slot
        } else {
          r.resident_clean += moved;  // slot retained; page stays clean
        }
        free_ += chunk - moved;  // extent shrank under concurrent reclaim
        touch(r);
        auto pit = procs_.find(op->pid);
        if (pit != procs_.end()) pit->second.swapped_in_total += moved;
        self(self);
      });
    }, /*depth=*/0);
  };
  step(step);
}

void Vmm::release(RegionId rid, Bytes bytes) {
  mark_audit_dirty();
  auto it = regions_.find(rid);
  if (it == regions_.end()) return;
  Region& r = it->second;
  Bytes left = bytes;
  const Bytes from_clean = std::min(left, r.resident_clean);
  r.resident_clean -= from_clean;
  left -= from_clean;
  const Bytes from_dirty = std::min(left, r.resident_dirty);
  r.resident_dirty -= from_dirty;
  left -= from_dirty;
  free_ += from_clean + from_dirty;
  // Anything still swapped that the caller frees releases its slot too —
  // as do the slots that backed the freed clean pages.
  const Bytes from_swap = std::min(left, r.swapped);
  r.swapped -= from_swap;
  ctr_discarded_->add(from_swap);
  OSAP_CHECK(swap_used_ >= from_swap + from_clean);
  swap_used_ -= from_swap + from_clean;
}

void Vmm::dirty_resident(RegionId rid) {
  mark_audit_dirty();
  auto it = regions_.find(rid);
  if (it == regions_.end()) return;
  Region& r = it->second;
  // Clean resident pages exist only as copies of swap slots; rewriting
  // them invalidates those slots.
  OSAP_CHECK(swap_used_ >= r.resident_clean);
  swap_used_ -= r.resident_clean;
  r.resident_dirty += r.resident_clean;
  r.resident_clean = 0;
  touch(r);
}

void Vmm::fs_cache_insert(Bytes bytes) {
  mark_audit_dirty();
  // The cache never pushes free memory below the low watermark; beyond
  // that it recycles its own oldest entries (a no-op in this model).
  const Bytes headroom = sat_sub(free_, cfg_.low_watermark_bytes());
  const Bytes grow = std::min(bytes, headroom);
  free_ -= grow;
  fs_cache_ += grow;
}

Bytes Vmm::evict_from_region(Region& region, Bytes want, VictimPlan& plan) {
  mark_audit_dirty();
  Bytes taken = 0;
  // Clean extents have a valid swap copy: dropping them is free. The data
  // now lives only in that swap copy, so the extent moves to `swapped`
  // (the slot itself was already charged to swap_used_).
  const Bytes clean = std::min(want, region.resident_clean);
  region.resident_clean -= clean;
  region.swapped += clean;
  ctr_paged_out_->add(clean);
  free_ += clean;
  plan.instant += clean;
  taken += clean;
  // Dirty extents must be written out; frames free when the write lands.
  const Bytes swap_left = sat_sub(cfg_.swap_size, swap_used_);
  const Bytes dirty = std::min({want - taken, region.resident_dirty, swap_left});
  if (dirty > 0) {
    region.resident_dirty -= dirty;
    region.swapped += dirty;
    ctr_paged_out_->add(dirty);
    swap_used_ += dirty;
    plan.io += dirty;
    taken += dirty;
    auto pit = procs_.find(region.pid);
    if (pit != procs_.end()) pit->second.swapped_out_total += dirty;
  }
  return taken;
}

Vmm::VictimPlan Vmm::select_victims(Bytes want, Pid requester) {
  mark_audit_dirty();
  VictimPlan plan;
  Bytes taken = 0;

  // 1. File-system cache. With swappiness 0 (the paper's configuration)
  //    reclaim takes all it can from the cache before touching anonymous
  //    memory; higher swappiness shifts part of the burden to anon pages.
  const Bytes cache_budget =
      cfg_.swappiness == 0
          ? want
          : static_cast<Bytes>(static_cast<double>(want) * (100 - cfg_.swappiness) / 100.0);
  const Bytes from_cache = std::min(fs_cache_, cache_budget);
  fs_cache_ -= from_cache;
  free_ += from_cache;
  plan.instant += from_cache;
  taken += from_cache;
  if (taken >= want) return plan;

  // 2..4. Anonymous memory, by eviction class then LRU age. Stopped
  // processes first ("pages from suspended processes are evicted before
  // those from running ones"), then cold regions of running processes,
  // then hot regions as a last resort.
  struct Candidate {
    RegionId rid;
    int klass;
    std::uint64_t age;
  };
  std::vector<Candidate> order;
  order.reserve(regions_.size());
  for (const auto& [rid, region] : regions_) {
    if (region.resident_clean + region.resident_dirty == 0) continue;
    const auto pit = procs_.find(region.pid);
    const bool stopped = pit != procs_.end() && pit->second.stopped;
    const int klass = stopped ? 0 : (region.hot ? 2 : 1);
    order.push_back({rid, klass, region.last_touch});
  }
  std::sort(order.begin(), order.end(), [](const Candidate& a, const Candidate& b) {
    if (a.klass != b.klass) return a.klass < b.klass;
    return a.age < b.age;
  });
  for (const Candidate& c : order) {
    if (taken >= want) break;
    taken += evict_from_region(regions_.at(c.rid), want - taken, plan);
  }

  // Approximate-LRU error: under pressure the scanner also evicts pages
  // the requester is actively using; they fault straight back in.
  if (plan.io > 0 && cfg_.lru_approx_error > 0) {
    const double pressure =
        std::min(1.0, static_cast<double>(swap_used_) / static_cast<double>(cfg_.usable_ram()));
    const auto refault_budget =
        static_cast<Bytes>(cfg_.lru_approx_error * pressure * static_cast<double>(want));
    if (refault_budget > 0) {
      const auto pit = procs_.find(requester);
      if (pit != procs_.end() && !pit->second.stopped) {
        for (auto& [rid, r] : regions_) {
          if (r.pid != requester || !r.hot || r.resident_dirty == 0) continue;
          const Bytes swap_left = sat_sub(cfg_.swap_size, swap_used_);
          const Bytes hit = std::min({refault_budget, r.resident_dirty, swap_left});
          if (hit == 0) continue;
          r.resident_dirty -= hit;
          r.swapped += hit;
          ctr_paged_out_->add(hit);
          swap_used_ += hit;
          pit->second.swapped_out_total += hit;
          plan.io += hit;
          plan.refault += hit;
          plan.refault_region = rid;
          break;
        }
      }
    }
  }
  return plan;
}

void Vmm::acquire_frames(Bytes bytes, Pid requester, std::function<void()> grant, int depth,
                         int rounds) {
  mark_audit_dirty();
  const Bytes reserve = cfg_.low_watermark_bytes();
  if (free_ >= bytes + reserve) {
    free_ -= bytes;
    grant();
    return;
  }
  sim_.trace().profiler().add(trace::HotPath::VmmReclaim, bytes);
  if (rounds >= kMaxReclaimRounds) {
    std::ostringstream os;
    os << name_ << ": reclaim livelock — " << rounds << " reclaim rounds for a "
       << format_bytes(bytes) << " request by " << requester << " without a grant\n";
    dump(os);
    throw SimError(os.str());
  }

  // Reclaim up to the high watermark — deliberately more than `bytes`
  // (kswapd semantics); the overshoot is the paper's "more swapping than
  // strictly necessary".
  const Bytes target = bytes + cfg_.high_watermark_bytes();
  const Bytes want = sat_sub(target, free_);
  VictimPlan plan = select_victims(want, requester);

  auto proceed = [this, bytes, requester, grant = std::move(grant), depth, rounds,
                  plan]() mutable {
    if (plan.refault > 0 && depth < 4 && regions_.contains(plan.refault_region)) {
      // The mistakenly evicted working-set extent faults back in: a swap
      // read plus a fresh frame acquisition, which may evict yet more of
      // the legitimate victims — the compounding behind Fig. 4.
      const Bytes refault = plan.refault;
      const RegionId rid = plan.refault_region;
      ctr_swap_in_io_->add(refault);
      const std::uint64_t span = ++io_span_seq_;
      tracer_->async_begin(trk_, "swap_in", span, {{"bytes", refault}, {"refault", 1}});
      disk_.start(IoClass::SwapIn, refault, [this, refault, rid, requester, depth, span] {
        tracer_->async_end(trk_, "swap_in", span);
        acquire_frames(refault, requester, [this, refault, rid] {
          mark_audit_dirty();
          auto it = regions_.find(rid);
          if (it == regions_.end()) {
            free_ += refault;
            return;
          }
          Region& r = it->second;
          const Bytes moved = std::min(refault, r.swapped);
          r.swapped -= moved;
          ctr_paged_in_->add(moved);
          r.resident_clean += moved;
          free_ += refault - moved;
          auto pit = procs_.find(r.pid);
          if (pit != procs_.end()) pit->second.swapped_in_total += moved;
        }, depth + 1);
      });
    }
    if (free_ >= bytes) {
      free_ -= bytes;
      grant();
      return;
    }
    if (plan.instant == 0 && plan.io == 0) {
      oom("reclaim found no evictable memory");
      // The OOM handler killed something (or threw); retry once.
      OSAP_CHECK_MSG(free_ >= bytes, "OOM handler freed no memory");
      free_ -= bytes;
      grant();
      return;
    }
    // Progress was made but a concurrent acquirer raced us to the frames.
    acquire_frames(bytes, requester, std::move(grant), depth, rounds + 1);
  };

  if (plan.io > 0) {
    // Victim frames stay occupied until the write lands: they have left
    // their regions but are not yet grantable.
    const Bytes io = plan.io;
    held_ += io;
    ctr_swap_out_io_->add(io);
    const std::uint64_t span = ++io_span_seq_;
    tracer_->async_begin(trk_, "swap_out", span, {{"bytes", io}});
    disk_.start(IoClass::SwapOut, io,
                [this, io, span, proceed = std::move(proceed)]() mutable {
      mark_audit_dirty();
      tracer_->async_end(trk_, "swap_out", span);
      OSAP_CHECK(held_ >= io);
      held_ -= io;
      free_ += io;
      proceed();
    });
  } else {
    proceed();
  }
}

void Vmm::oom(const char* why) {
  OSAP_LOG(Warn, kLog) << "out of memory: " << why;
  OSAP_CHECK_MSG(oom_handler_, "OOM with no handler installed: " << why);
  oom_handler_();
}

Bytes Vmm::resident(Pid pid) const {
  Bytes total = 0;
  for (const auto& [rid, r] : regions_) {
    if (r.pid == pid) total += r.resident_clean + r.resident_dirty;
  }
  return total;
}

Bytes Vmm::swapped(Pid pid) const {
  Bytes total = 0;
  for (const auto& [rid, r] : regions_) {
    if (r.pid == pid) total += r.swapped;
  }
  return total;
}

Bytes Vmm::swapped_out_total(Pid pid) const {
  const auto it = procs_.find(pid);
  return it == procs_.end() ? 0 : it->second.swapped_out_total;
}

Bytes Vmm::swapped_in_total(Pid pid) const {
  const auto it = procs_.find(pid);
  return it == procs_.end() ? 0 : it->second.swapped_in_total;
}

Bytes Vmm::region_resident(RegionId rid) const {
  const auto it = regions_.find(rid);
  return it == regions_.end() ? 0 : it->second.resident_clean + it->second.resident_dirty;
}

Bytes Vmm::region_swapped(RegionId rid) const {
  const auto it = regions_.find(rid);
  return it == regions_.end() ? 0 : it->second.swapped;
}

bool Vmm::is_stopped(Pid pid) const {
  const auto it = procs_.find(pid);
  return it != procs_.end() && it->second.stopped;
}

void Vmm::audit(std::vector<std::string>& violations) const {
  Bytes resident = 0, swapped = 0, clean = 0;
  for (const auto& [rid, r] : regions_) {
    resident += r.resident_clean + r.resident_dirty;
    swapped += r.swapped;
    clean += r.resident_clean;
    if (!procs_.contains(r.pid)) {
      std::ostringstream os;
      os << rid << " (" << r.name << ") is owned by unregistered " << r.pid;
      violations.push_back(os.str());
    }
  }

  // Frame conservation: every usable frame is free, in the fs cache, in
  // flight between a region and the swap device, or resident somewhere.
  const Bytes accounted = free_ + fs_cache_ + held_ + resident;
  if (accounted != cfg_.usable_ram()) {
    std::ostringstream os;
    os << "frame conservation broken: free " << format_bytes(free_) << " + cache "
       << format_bytes(fs_cache_) << " + in-flight " << format_bytes(held_) << " + resident "
       << format_bytes(resident) << " = " << format_bytes(accounted) << ", expected "
       << format_bytes(cfg_.usable_ram());
    violations.push_back(os.str());
  }

  // Swap-slot exactness: a slot is in use iff it backs a swapped extent
  // or a clean resident copy.
  if (swap_used_ != swapped + clean) {
    std::ostringstream os;
    os << "swap accounting broken: swap_used " << format_bytes(swap_used_) << " != swapped "
       << format_bytes(swapped) << " + clean copies " << format_bytes(clean);
    violations.push_back(os.str());
  }
  if (swap_used_ > cfg_.swap_size) {
    std::ostringstream os;
    os << "swap overcommitted: " << format_bytes(swap_used_) << " > device size "
       << format_bytes(cfg_.swap_size);
    violations.push_back(os.str());
  }

  // Paging-counter conservation: every byte ever paged out is either back
  // in RAM (paged_in), discarded with its slot (free/exit), or still out.
  const Bytes out = ctr_paged_out_->value();
  const Bytes in = ctr_paged_in_->value();
  const Bytes discarded = ctr_discarded_->value();
  if (out != in + discarded + swapped) {
    std::ostringstream os;
    os << "paging counters broken: paged_out " << format_bytes(out) << " != paged_in "
       << format_bytes(in) << " + discarded " << format_bytes(discarded) << " + swapped "
       << format_bytes(swapped);
    violations.push_back(os.str());
  }
}

void Vmm::dump(std::ostream& os) const {
  os << "free " << format_bytes(free_) << ", fs-cache " << format_bytes(fs_cache_)
     << ", in-flight " << format_bytes(held_) << ", swap " << format_bytes(swap_used_) << "/"
     << format_bytes(cfg_.swap_size) << ", " << regions_.size() << " regions, "
     << procs_.size() << " processes\n";
  for (const auto& [pid, info] : procs_) {
    bool listed = false;
    for (const auto& [rid, r] : regions_) {
      if (r.pid != pid) continue;
      if (!listed) os << "  " << pid << (info.stopped ? " [stopped]" : "") << ":";
      listed = true;
      os << " " << r.name << "(clean " << format_bytes(r.resident_clean) << ", dirty "
         << format_bytes(r.resident_dirty) << ", swapped " << format_bytes(r.swapped)
         << (r.hot ? ", hot" : "") << ")";
    }
    if (listed) os << "\n";
  }
}

}  // namespace osap
