// Cluster network model.
//
// Control messages (heartbeats, RPC) are latency-only. Bulk transfers
// (a migrating task's frozen image) are fluid streams through the
// receiving node's downlink NIC — modelling one end keeps the model
// simple while preserving contention among concurrent transfers to the
// same node. Map input and shuffle bytes never cross it: both are read
// from the task's own node's disk.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "sim/fluid_resource.hpp"
#include "sim/simulation.hpp"

namespace osap {

struct NetConfig {
  /// One-way control-message latency.
  Duration latency = ms(0.5);
  /// Per-node NIC bandwidth (bytes/second).
  double nic_bandwidth = 1.0 * static_cast<double>(GiB);
  /// Latency applied to loopback (same-node) messages.
  Duration loopback_latency = ms(0.05);
};

/// Fault-injection verdict for one control message (src/fault installs a
/// filter returning these; see docs/FAULTS.md). A dropped message never
/// arrives — exactly what a partitioned or dead NIC does to a heartbeat;
/// only its sender learns of the drop, from send()'s result.
struct MsgFate {
  bool drop = false;
  Duration extra_delay = 0;
};

class Network {
 public:
  using TransferId = FluidResource::ConsumerId;

  Network(Simulation& sim, NetConfig cfg);

  void register_node(NodeId node);

  /// Deliver a control message after the link latency. Returns false
  /// when the fault filter dropped it: `deliver` is left unrun.
  bool send(NodeId from, NodeId to, Callback&& deliver);

  /// Install (or clear, with an empty function) the control-message fault
  /// filter consulted by send(). The filter must be a pure function of
  /// (from, to) and the current simulated time — any other input would
  /// break digest determinism.
  void set_message_filter(std::function<MsgFate(NodeId from, NodeId to)> filter) {
    filter_ = std::move(filter);
  }
  [[nodiscard]] std::uint64_t messages_dropped() const noexcept { return msgs_dropped_; }
  [[nodiscard]] std::uint64_t messages_delayed() const noexcept { return msgs_delayed_; }

  /// Move `bytes` from `from` to `to`; `done` fires when the last byte
  /// lands. Same-node transfers complete after loopback latency only.
  TransferId transfer(NodeId from, NodeId to, Bytes bytes, std::function<void()> done);

  void pause(NodeId to, TransferId id);
  void resume(NodeId to, TransferId id);
  void cancel(NodeId to, TransferId id);

  [[nodiscard]] Bytes bytes_moved() const noexcept { return bytes_moved_; }

 private:
  FluidResource& downlink(NodeId node);

  Simulation& sim_;
  NetConfig cfg_;
  std::unordered_map<NodeId, std::unique_ptr<FluidResource>> downlinks_;
  Bytes bytes_moved_ = 0;
  std::function<MsgFate(NodeId, NodeId)> filter_;
  std::uint64_t msgs_dropped_ = 0;
  std::uint64_t msgs_delayed_ = 0;
};

}  // namespace osap
