// The one what-if probe path. The live harness (ClusterExperiment) and the
// counterfactual replay environment (ReplayEnv) both answer
// SchedulingEnv::ProbeInferenceLatencyMs / ProbeTrainingIterMs through a
// Prober, so the colocation mix, the hypothetical swap, the content key
// (probe_key.h) and the oracle call are built once, the same way for
// recording and for replay.
#ifndef SRC_REPLAY_PROBE_H_
#define SRC_REPLAY_PROBE_H_

#include "src/common/rng.h"
#include "src/gpu/gpu_device.h"
#include "src/gpu/perf_oracle.h"
#include "src/replay/decision_recorder.h"
#include "src/replay/replay_source.h"

namespace mudi {
namespace replay {

// A probe is served from `source` when the trace holds its key; otherwise
// the oracle observes it with `rng`'s noise and `recorder` (if any) stores
// the answer under its key. Keys are built only when a source or a recorder
// is attached, so an unrecorded live run pays nothing for them. A trace hit
// leaves the oracle and `rng` untouched, which keeps a replayed run's noise
// stream aligned with the recorded one.
class Prober {
 public:
  Prober(const PerfOracle& oracle, Rng& rng, ReplaySource* source, DecisionRecorder* recorder)
      : oracle_(oracle), rng_(rng), source_(source), recorder_(recorder) {}

  // Batch latency of the device's service at (batch, gpu_fraction) next to
  // its running trainings.
  double Inference(const GpuDevice& dev, int batch, double gpu_fraction, double sim_ms);
  // Iteration time of training `task_id` at `train_fraction` while the
  // replica runs (inf_batch, inf_fraction) at `qps`; a knob <= 0 keeps its
  // deployed value. A larger probed batch can push the task's working set
  // to host swap, and the probe charges that slowdown.
  double Training(const GpuDevice& dev, int task_id, double train_fraction, int inf_batch,
                  double inf_fraction, double qps, double sim_ms);

 private:
  const PerfOracle& oracle_;
  Rng& rng_;
  ReplaySource* source_;
  DecisionRecorder* recorder_;
};

}  // namespace replay
}  // namespace mudi

#endif  // SRC_REPLAY_PROBE_H_
