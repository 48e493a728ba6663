#include "hdfs/namenode.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace osap {

NameNode::NameNode(HdfsConfig cfg, std::uint64_t seed) : cfg_(cfg), rng_(seed) {
  OSAP_CHECK(cfg_.block_size > 0);
  OSAP_CHECK(cfg_.replication >= 1);
}

void NameNode::add_datanode(NodeId node) {
  OSAP_CHECK_MSG(std::find(datanodes_.begin(), datanodes_.end(), node) == datanodes_.end(),
                 node << " already a datanode");
  datanodes_.push_back(node);
}

FileId NameNode::create_file(std::string name, Bytes size, NodeId writer) {
  OSAP_CHECK_MSG(!datanodes_.empty(), "no datanodes registered");
  FileInfo info;
  info.id = file_ids_.next();
  info.name = std::move(name);
  info.size = size;
  const int replication = std::min<int>(cfg_.replication, static_cast<int>(datanodes_.size()));
  Bytes remaining = size;
  do {
    const Bytes block_bytes = std::min<Bytes>(remaining, cfg_.block_size);
    BlockInfo block;
    block.id = block_ids_.next();
    block.size = block_bytes;
    // First replica local to the writer when it hosts a DataNode; the rest
    // round-robin across the cluster.
    if (writer.valid() &&
        std::find(datanodes_.begin(), datanodes_.end(), writer) != datanodes_.end()) {
      block.replicas.push_back(writer);
    }
    while (static_cast<int>(block.replicas.size()) < replication) {
      const NodeId candidate = datanodes_[placement_cursor_++ % datanodes_.size()];
      if (std::find(block.replicas.begin(), block.replicas.end(), candidate) ==
          block.replicas.end()) {
        block.replicas.push_back(candidate);
      }
    }
    info.blocks.push_back(block.id);
    blocks_.emplace(block.id, std::move(block));
    remaining = sat_sub(remaining, block_bytes);
  } while (remaining > 0);
  const FileId id = info.id;
  files_.emplace(id, std::move(info));
  return id;
}

const FileInfo& NameNode::file(FileId id) const {
  const auto it = files_.find(id);
  OSAP_CHECK_MSG(it != files_.end(), "unknown " << id);
  return it->second;
}

const BlockInfo& NameNode::block(BlockId id) const {
  const auto it = blocks_.find(id);
  OSAP_CHECK_MSG(it != blocks_.end(), "unknown " << id);
  return it->second;
}

const std::vector<NodeId>& NameNode::locations(BlockId id) const { return block(id).replicas; }

NodeId NameNode::pick_replica(BlockId id, NodeId reader) {
  const BlockInfo& info = block(id);
  if (info.is_local_to(reader)) return reader;
  OSAP_CHECK(!info.replicas.empty());
  return info.replicas[rng_.uniform_int(0, info.replicas.size() - 1)];
}

std::size_t NameNode::re_replicate_away(NodeId doomed, const std::vector<NodeId>& targets) {
  std::size_t moved = 0;
  for (auto& [bid, info] : blocks_) {
    for (NodeId& replica : info.replicas) {
      if (replica != doomed) continue;
      for (NodeId target : targets) {
        if (target == doomed || !target.valid() || info.is_local_to(target)) continue;
        replica = target;
        ++moved;
        break;
      }
      break;  // at most one replica of a block per node
    }
  }
  return moved;
}

void NameNode::remove_file(FileId id) {
  const auto it = files_.find(id);
  if (it == files_.end()) return;
  for (BlockId b : it->second.blocks) blocks_.erase(b);
  files_.erase(it);
}

}  // namespace osap
