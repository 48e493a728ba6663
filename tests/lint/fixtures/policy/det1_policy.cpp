// DET-1 fixture: hash-order traversal inside the policy layer
// (fixtures/policy/). The first matching rule picks the primitive a
// victim is evicted with, so rule lookup must walk a stable order.
#include <string>
#include <unordered_map>

struct PolicyDet1Bad {
  std::unordered_map<std::string, int> queue_rules_;

  int first_rule() const {
    for (const auto& [queue, primitive] : queue_rules_) return primitive;
    return 0;
  }
};
