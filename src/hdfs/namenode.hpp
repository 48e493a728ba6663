// HDFS metadata model.
//
// The NameNode tracks files, their blocks (default 512 MB — the paper's
// input is "a single-block file stored on HDFS, with size 512 MB"), and
// replica placement across DataNodes. Actual block bytes move through the
// owning node's disk when tasks read them; the NameNode only answers
// placement and locality questions, which is what the schedulers and the
// resume-locality logic need.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace osap {

struct HdfsConfig {
  Bytes block_size = 512 * MiB;
  int replication = 1;
};

struct BlockInfo {
  BlockId id;
  Bytes size = 0;
  std::vector<NodeId> replicas;

  [[nodiscard]] bool is_local_to(NodeId node) const {
    for (NodeId r : replicas) {
      if (r == node) return true;
    }
    return false;
  }
};

struct FileInfo {
  FileId id;
  std::string name;
  Bytes size = 0;
  std::vector<BlockId> blocks;
};

class NameNode {
 public:
  explicit NameNode(HdfsConfig cfg, std::uint64_t seed = 1);

  /// Register a storage node (a DataNode lives on it).
  void add_datanode(NodeId node);

  /// Create a file of `size` bytes; blocks are cut at block_size and
  /// replicas placed round-robin (first replica on `writer` when given,
  /// HDFS's write-local policy).
  FileId create_file(std::string name, Bytes size, NodeId writer = NodeId{});

  [[nodiscard]] const FileInfo& file(FileId id) const;
  [[nodiscard]] const BlockInfo& block(BlockId id) const;
  [[nodiscard]] bool exists(FileId id) const { return files_.contains(id); }

  /// Nodes holding a replica of the block.
  [[nodiscard]] const std::vector<NodeId>& locations(BlockId id) const;

  /// Pick the replica to read from `reader`: a local one when available,
  /// otherwise a random replica (remote read).
  [[nodiscard]] NodeId pick_replica(BlockId id, NodeId reader);

  void remove_file(FileId id);

  /// Revocation-aware re-replication (docs/REVOKE.md): move every replica
  /// held by `doomed` onto a node from `targets` (first target not already
  /// holding the block, in the given order — callers pass on-demand nodes
  /// first). Blocks whose every target already holds a replica keep the
  /// doomed copy. Returns the number of replicas moved. Deterministic:
  /// blocks are visited in ascending id order.
  std::size_t re_replicate_away(NodeId doomed, const std::vector<NodeId>& targets);

 private:
  HdfsConfig cfg_;
  Rng rng_;
  std::vector<NodeId> datanodes_;
  std::unordered_map<FileId, FileInfo> files_;
  /// Ordered by id: re-replication walks it.
  std::map<BlockId, BlockInfo> blocks_;
  IdGenerator<FileId> file_ids_;
  IdGenerator<BlockId> block_ids_;
  std::size_t placement_cursor_ = 0;
};

}  // namespace osap
