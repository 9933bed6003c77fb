// Cluster topology: nodes of GPUs, with flat device iteration for the
// cluster-wide schedulers. Mirrors the paper's testbeds: 3 nodes × 4 A100
// (physical) and a 1000-GPU simulated cluster.
#ifndef SRC_CLUSTER_CLUSTER_STATE_H_
#define SRC_CLUSTER_CLUSTER_STATE_H_

#include <memory>
#include <vector>

#include "src/common/check.h"
#include "src/gpu/gpu_device.h"

namespace mudi {

struct NodeSpec {
  int gpus_per_node = 4;
  double gpu_memory_mb = ModelZoo::kGpuMemoryMb;
};

class ClusterState {
 public:
  // Builds `num_nodes` homogeneous nodes.
  ClusterState(int num_nodes, const NodeSpec& spec);

  size_t num_devices() const { return devices_.size(); }
  int num_nodes() const { return num_nodes_; }
  int gpus_per_node() const { return spec_.gpus_per_node; }

  GpuDevice& device(size_t index) {
    MUDI_CHECK_LT(index, devices_.size());
    return devices_[index];
  }
  const GpuDevice& device(size_t index) const {
    MUDI_CHECK_LT(index, devices_.size());
    return devices_[index];
  }
  std::vector<GpuDevice>& devices() { return devices_; }
  const std::vector<GpuDevice>& devices() const { return devices_; }

  // Node index owning device `index`.
  int NodeOf(size_t index) const;

 private:
  int num_nodes_;
  NodeSpec spec_;
  std::vector<GpuDevice> devices_;
};

}  // namespace mudi

#endif  // SRC_CLUSTER_CLUSTER_STATE_H_
