// Single-spindle disk model.
//
// One FluidResource carries every byte that moves through the device:
// HDFS block reads, task output writes, and — crucially for this paper —
// swap-out and swap-in traffic. Sharing the spindle is what makes paging
// visible to running tasks: a suspend that forces page-out steals disk
// bandwidth from the high-priority task's input reads (§IV-C).
//
// Each stream is charged a seek on start, folded into its demand as
// `seek * bandwidth` equivalent bytes. Swap streams use clustered,
// mostly-sequential I/O (§III-A) and are charged the same way.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "common/units.hpp"
#include "sim/fluid_resource.hpp"

namespace osap {

/// Traffic class, for accounting only — all classes share capacity.
enum class IoClass { HdfsRead, HdfsWrite, SwapOut, SwapIn, Shuffle, Other };

const char* to_string(IoClass c) noexcept;

class Disk {
 public:
  using StreamId = FluidResource::ConsumerId;

  Disk(Simulation& sim, double bandwidth_bytes_per_sec, Duration seek, std::string name);

  /// Start a transfer of `bytes`; `on_complete` fires when it finishes.
  StreamId start(IoClass cls, Bytes bytes, std::function<void()> on_complete);

  /// Freeze / thaw a stream (process suspension).
  void pause(StreamId id) { resource_.pause(id); }
  void resume(StreamId id) { resource_.resume(id); }

  /// Abort a stream without completion (process killed).
  void cancel(StreamId id) { resource_.cancel(id); }

  [[nodiscard]] double remaining(StreamId id) const { return resource_.remaining(id); }
  [[nodiscard]] double served(StreamId id) const { return resource_.served(id); }

  [[nodiscard]] Bytes transferred(IoClass cls) const noexcept {
    return transferred_[static_cast<int>(cls)];
  }
  [[nodiscard]] double bandwidth() const noexcept { return resource_.capacity(); }

 private:
  FluidResource resource_;
  double seek_bytes_;  // seek charged as equivalent bytes
  Bytes transferred_[6] = {};
};

}  // namespace osap
