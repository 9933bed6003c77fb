// Ground-truth GPU performance oracle — the simulated substitute for the
// paper's physical A100 testbed (see DESIGN.md §1 and §3).
//
// The oracle maps (inference service, batch, GPU%, co-located workloads) to
// per-phase latency, and (training task, GPU%, co-located load) to mini-batch
// iteration time. Mudi and the baselines only ever see these observations
// (optionally with multiplicative log-normal noise), never the formulas.
//
// Qualitative behaviours reproduced from the paper's measurements:
//  * Latency vs GPU% saturates at a batch-dependent knee (Fig. 5): steep
//    hyperbolic improvement below g_sat(b), near-flat (small residual slope)
//    above it. A piece-wise linear fit approximates this well but not
//    perfectly — exactly the situation on real hardware.
//  * Inference↔inference co-location suffers heavy CPU contention in the
//    preprocess/tokenize phase and in control-flow-bound execution (Fig. 3);
//    inference↔training contention is mild because training data loading is
//    single-threaded (Fig. 4).
//  * PCIe contention is high between two inference services shipping image
//    tensors (≈1.9×) and mild against training (≈1.16×).
//  * GPU-side (HBM bandwidth / L2) contention between an inference service
//    and a training task is governed by a pair-specific *affinity* that is a
//    fixed nonlinear function of the training task's layer census — the
//    ground truth that the Interference Modeler must learn from architecture
//    features (§4.1.2).
//  * The interference a *training task* suffers from the co-located
//    inference service is non-monotonic in the inference batching size
//    (§5.3.1): PCIe duty falls with b while compute-burst pressure grows,
//    so an interior batch minimizes training iteration time.
#ifndef SRC_GPU_PERF_ORACLE_H_
#define SRC_GPU_PERF_ORACLE_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/sim/simulator.h"
#include "src/workload/models.h"

namespace mudi {

class GpuDevice;
class Telemetry;
namespace telemetry {
class Histogram;
}  // namespace telemetry

// One co-located training task as the oracle sees it.
struct ColocatedTraining {
  const TrainingTaskSpec* spec = nullptr;
  double gpu_fraction = 0.0;  // GPU share allocated to this training task
};

// The device's unpaused trainings other than `skip_task_id`, in residency
// order: the co-location an oracle query on that device sees.
std::vector<ColocatedTraining> ActiveColocation(const GpuDevice& dev, int skip_task_id = -1);

// The inference side's load, as needed to compute the pressure it exerts.
struct InferenceLoad {
  const InferenceServiceSpec* spec = nullptr;
  int batch_size = 0;
  double gpu_fraction = 0.0;
  double qps = 0.0;  // request arrival rate it is absorbing
};

struct InferencePhaseLatency {
  double preprocess_ms = 0.0;
  double transfer_ms = 0.0;
  double execute_ms = 0.0;

  double total_ms() const { return preprocess_ms + transfer_ms + execute_ms; }
};

class PerfOracle {
 public:
  // `seed` fixes the hidden affinity projection; experiments use one oracle
  // instance so ground truth is consistent between profiling and runtime.
  explicit PerfOracle(uint64_t seed = 42);

  // ---- Inference side ----

  // Noise-free per-phase latency of one batch of `batch` requests executed at
  // GPU share `gpu_fraction`, co-located with `training` tasks and
  // `other_inference_count` other inference services (0 except in the Fig. 3
  // motivation experiments).
  InferencePhaseLatency InferenceBatchLatency(
      const InferenceServiceSpec& service, int batch, double gpu_fraction,
      const std::vector<ColocatedTraining>& training,
      size_t other_inference_count = 0) const;

  // Same, with multiplicative log-normal observation noise.
  InferencePhaseLatency ObserveInferenceBatchLatency(
      const InferenceServiceSpec& service, int batch, double gpu_fraction,
      const std::vector<ColocatedTraining>& training, Rng& rng,
      size_t other_inference_count = 0) const;

  // Batch-dependent saturation knee g_sat(b) in (0, 1].
  static double SaturationFraction(const InferenceServiceSpec& service, int batch);

  // ---- Training side ----

  // Noise-free mini-batch iteration time of `task` at share `gpu_fraction`,
  // co-located with `inference` (pass nullptr spec for solo) and
  // `other_training` tasks.
  double TrainingIterationMs(const TrainingTaskSpec& task, double gpu_fraction,
                             const InferenceLoad& inference,
                             const std::vector<ColocatedTraining>& other_training) const;

  double ObserveTrainingIterationMs(const TrainingTaskSpec& task, double gpu_fraction,
                                    const InferenceLoad& inference,
                                    const std::vector<ColocatedTraining>& other_training,
                                    Rng& rng) const;

  // ---- Ground-truth interference structure (tests / Optimal baseline) ----

  // Pair affinity in [0, 1]: the hidden architecture-dependent coefficient
  // scaling GPU-side contention between `service` and a training task with
  // layer census `arch`.
  double PairAffinity(const InferenceServiceSpec& service, const NetworkArchitecture& arch) const;

  // Observation noise sigma (log-normal) used by the Observe* methods.
  static constexpr double kNoiseSigma = 0.04;

  // Per-phase latency sample histograms ("oracle.inference.*_ms",
  // "oracle.training.iter_ms") for every Observe* call. Observational only.
  void SetTelemetry(Telemetry* telemetry);

 private:
  // Per-service random projection weights over the layer-census features.
  std::vector<std::vector<double>> affinity_weights_;
  std::vector<double> affinity_bias_;

  // Cached registry histograms (stable addresses); null when detached.
  telemetry::Histogram* preprocess_hist_ = nullptr;
  telemetry::Histogram* transfer_hist_ = nullptr;
  telemetry::Histogram* execute_hist_ = nullptr;
  telemetry::Histogram* inference_total_hist_ = nullptr;
  telemetry::Histogram* training_iter_hist_ = nullptr;
};

}  // namespace mudi

#endif  // SRC_GPU_PERF_ORACLE_H_
