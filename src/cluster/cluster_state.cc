#include "src/cluster/cluster_state.h"

#include "src/common/check.h"

namespace mudi {

ClusterState::ClusterState(int num_nodes, const NodeSpec& spec)
    : num_nodes_(num_nodes), spec_(spec) {
  MUDI_CHECK_GT(num_nodes, 0);
  MUDI_CHECK_GT(spec.gpus_per_node, 0);
  devices_.reserve(static_cast<size_t>(num_nodes) * static_cast<size_t>(spec.gpus_per_node));
  int id = 0;
  for (int n = 0; n < num_nodes; ++n) {
    for (int g = 0; g < spec.gpus_per_node; ++g) {
      devices_.emplace_back(id++, spec.gpu_memory_mb);
    }
  }
}

int ClusterState::NodeOf(size_t index) const {
  MUDI_CHECK_LT(index, devices_.size());
  return static_cast<int>(index) / spec_.gpus_per_node;
}

}  // namespace mudi
