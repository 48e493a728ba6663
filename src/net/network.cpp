#include "net/network.hpp"

#include "common/error.hpp"

namespace osap {

Network::Network(Simulation& sim, NetConfig cfg) : sim_(sim), cfg_(cfg) {
  OSAP_CHECK(cfg_.nic_bandwidth > 0);
  // Every control message between two nodes (each heartbeat and its
  // response) travels after exactly this delay.
  sim_.declare_fixed_delay(cfg_.latency);
}

void Network::register_node(NodeId node) {
  OSAP_CHECK_MSG(!downlinks_.contains(node), node << " registered twice");
  downlinks_.emplace(node, std::make_unique<FluidResource>(
                               sim_, cfg_.nic_bandwidth,
                               "downlink"));
}

FluidResource& Network::downlink(NodeId node) {
  auto it = downlinks_.find(node);
  OSAP_CHECK_MSG(it != downlinks_.end(), "unknown " << node);
  return *it->second;
}

void Network::send(NodeId from, NodeId to, std::function<void()> deliver) {
  sim_.trace().profiler().add(trace::HotPath::NetDelivery);
  Duration lat = (from == to) ? cfg_.loopback_latency : cfg_.latency;
  if (filter_) {
    const MsgFate fate = filter_(from, to);
    if (fate.drop) {
      ++msgs_dropped_;
      return;
    }
    if (fate.extra_delay > 0) {
      ++msgs_delayed_;
      lat += fate.extra_delay;
    }
  }
  sim_.after(lat, std::move(deliver));
}

Network::TransferId Network::transfer(NodeId from, NodeId to, Bytes bytes,
                                      std::function<void()> done) {
  bytes_moved_ += bytes;
  if (from == to) {
    sim_.after(cfg_.loopback_latency, std::move(done));
    return 0;
  }
  return downlink(to).add(static_cast<double>(bytes), std::move(done));
}

void Network::pause(NodeId to, TransferId id) { downlink(to).pause(id); }
void Network::resume(NodeId to, TransferId id) { downlink(to).resume(id); }
void Network::cancel(NodeId to, TransferId id) { downlink(to).cancel(id); }

}  // namespace osap
