// MuxFlow baseline (Zhao et al., 2023; paper §7.1).
//
// MuxFlow multiplexes production inference with offline training using
// *pre-profiled* performance tables and matching-based scheduling: each
// (service, training-type, batch, GPU%) cell memorizes the measured latency /
// iteration time. Placement matches a training task to the device whose
// table entry promises the best SLO-safety margin; SM allocation is looked
// up from the table (dynamic SM allocation on placement and QPS change).
// Its weakness, which the paper's Fig. 8 highlights: unseen training types
// have no table rows, so MuxFlow falls back to the across-type average and
// misjudges interference.
#ifndef SRC_BASELINES_MUXFLOW_POLICY_H_
#define SRC_BASELINES_MUXFLOW_POLICY_H_

#include <map>
#include <string>

#include "src/cluster/policy.h"
#include "src/common/rng.h"
#include "src/gpu/perf_oracle.h"

namespace mudi {

class MuxflowPolicy : public MultiplexPolicy {
 public:
  // `profiling_oracle` backs the offline table construction (same offline
  // measurement budget as Mudi's profiler).
  explicit MuxflowPolicy(const PerfOracle& profiling_oracle);

  std::string name() const override { return "MuxFlow"; }
  void Initialize(SchedulingEnv& env) override;
  std::optional<int> SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) override;
  void OnTrainingPlaced(SchedulingEnv& env, int device_id,
                        const TrainingTaskInfo& task) override;
  void OnQpsChange(SchedulingEnv& env, int device_id) override;

 private:
  struct TableKey {
    size_t service_index;
    size_t training_type;
    int batch;
    int fraction_pct;
    bool operator<(const TableKey& other) const;
  };

  // Table lookup with unseen-type fallback (across-type average).
  double TableLatency(size_t service_index, size_t training_type, int batch,
                      double fraction) const;
  // Minimal tabled GPU% meeting the planning SLO for a batch; <0 if none.
  double MinTableFraction(size_t service_index, size_t training_type, int batch, double qps,
                          double slo_ms) const;
  void Retune(SchedulingEnv& env, int device_id);

  const PerfOracle& profiling_oracle_;
  Rng rng_{19};
  std::map<TableKey, double> latency_table_;
  bool initialized_ = false;
};

}  // namespace mudi

#endif  // SRC_BASELINES_MUXFLOW_POLICY_H_
