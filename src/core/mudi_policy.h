// MudiPolicy — the complete Mudi system (paper §3–§5) packaged as a
// MultiplexPolicy for the cluster experiment harness.
//
// Composition:
//  * Offline Profiler = LatencyProfiler + InterferenceModeler, run in
//    Initialize() over the observed training-task types (§7.1: the first
//    five of Tab. 3, ModelZoo::kNumObservedTrainingTypes).
//  * Online Multiplexer = InterferencePredictor + DeviceSelector for
//    cluster-wide placement (§5.2).
//  * Local Coordinator = Tuner (adaptive batching + resource scaling,
//    §5.3) driven by Monitor triggers; the Memory Manager runs inside the
//    harness for swap-capable policies (§5.6).
//
// Ablation switches reproduce Fig. 13: cluster_policy=kRandom keeps only
// device-level control; device_policy=kStatic keeps only cluster-wide
// co-location.
#ifndef SRC_CORE_MUDI_POLICY_H_
#define SRC_CORE_MUDI_POLICY_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/policy.h"
#include "src/common/rng.h"
#include "src/core/interference_modeler.h"
#include "src/core/latency_profiler.h"
#include "src/core/online_multiplexer.h"
#include "src/core/tuner.h"
#include "src/gpu/perf_oracle.h"

namespace mudi {

class MudiPolicy : public MultiplexPolicy {
 public:
  enum class ClusterPolicy { kSlopeBased, kRandom };
  enum class DevicePolicy { kAdaptive, kStatic };

  struct Options {
    int max_trainings_per_device = 1;
    ClusterPolicy cluster_policy = ClusterPolicy::kSlopeBased;
    DevicePolicy device_policy = DevicePolicy::kAdaptive;
  };

  // `profiling_oracle` backs the *offline* profiling measurements
  // (pre-deployment profiling GPU); online behaviour only uses env probes.
  MudiPolicy(const PerfOracle& profiling_oracle, Options options);
  MudiPolicy(const PerfOracle& profiling_oracle);

  std::string name() const override;
  void Initialize(SchedulingEnv& env) override;
  std::optional<int> SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) override;
  void OnTrainingPlaced(SchedulingEnv& env, int device_id,
                        const TrainingTaskInfo& task) override;
  void OnTrainingCompleted(SchedulingEnv& env, int device_id, int task_id) override;
  void OnQpsChange(SchedulingEnv& env, int device_id) override;
  // Failure handling: a dead device invalidates the predictor's cached
  // interference scores (its profile snapshot no longer describes anything
  // placeable); displaced trainings are re-placed by the harness through the
  // normal SelectDevice path. Recovery re-tunes the restarted replica as
  // soon as its monitor reports measurable load.
  void OnDeviceFailed(SchedulingEnv& env, int device_id,
                      const std::vector<TrainingTaskInfo>& displaced) override;
  void OnDeviceRecovered(SchedulingEnv& env, int device_id) override;
  // Crash-recovery: the reconstructed view may reflect stale configs, so
  // drop every derived cache (interference scores, memoized fits) and let
  // the harness-driven retune sweep re-converge the cluster.
  void OnControlPlaneRestart(SchedulingEnv& env) override;
  int MaxTrainingsPerDevice() const override { return options_.max_trainings_per_device; }
  bool SupportsMemorySwap() const override { return true; }

  // Read access for tests and microscopic benches.
  const LatencyProfiler& profiler() const { return profiler_; }
  const InterferenceModeler& modeler() const { return modeler_; }
  const InterferencePredictor& predictor() const { return *predictor_; }
  const Tuner& tuner() const { return tuner_; }

 private:
  // Training-type mix currently resident on the device.
  static std::vector<size_t> DeviceMix(const GpuDevice& device);
  // Runs the full device-level tuning flow and applies the configuration.
  void TuneDevice(SchedulingEnv& env, int device_id, bool on_placement, int probe_task_id);
  // Static (tuner-disabled) configuration for Fig. 13(a).
  void ApplyStaticConfig(SchedulingEnv& env, int device_id);
  void DistributeTrainingShares(SchedulingEnv& env, int device_id, double inference_fraction);
  // Deferred modeler fit for replay mode: a replayed run preloads recorded
  // curves and predictions, so the (expensive) learner fit only happens if a
  // prediction actually misses the trace.
  void EnsureFittedFromProfiler();

  Options options_;
  LatencyProfiler profiler_;
  InterferenceModeler modeler_;
  std::unique_ptr<InterferencePredictor> predictor_;
  std::unique_ptr<DeviceSelector> selector_;
  Tuner tuner_;
  Rng rng_;
  bool initialized_ = false;
};

}  // namespace mudi

#endif  // SRC_CORE_MUDI_POLICY_H_
