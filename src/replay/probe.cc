#include "src/replay/probe.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/replay/probe_key.h"

namespace mudi {
namespace replay {

double Prober::Inference(const GpuDevice& dev, int batch, double gpu_fraction, double sim_ms) {
  const size_t service = dev.inference().service_index;
  std::vector<ColocatedTraining> colocated = ActiveColocation(dev);
  uint64_t key = 0;
  if (source_ != nullptr || recorder_ != nullptr) {
    key = InferenceProbeKey(static_cast<uint32_t>(service), batch, gpu_fraction, colocated,
                            dev.EffectiveComputeScale());
    if (source_ != nullptr) {
      if (auto recorded = source_->TakeObservation(key)) {
        return *recorded;
      }
    }
  }
  double lat = oracle_
                   .ObserveInferenceBatchLatency(ModelZoo::InferenceServices()[service], batch,
                                                 gpu_fraction, colocated, rng_)
                   .total_ms() /
               dev.EffectiveComputeScale();
  if (recorder_ != nullptr) {
    recorder_->RecordObservation(ObsKind::kProbeInference, sim_ms, dev.id(), key, lat);
  }
  return lat;
}

double Prober::Training(const GpuDevice& dev, int task_id, double train_fraction, int inf_batch,
                        double inf_fraction, double qps, double sim_ms) {
  const TrainingInstance* instance = dev.FindTraining(task_id);
  MUDI_CHECK(instance != nullptr);
  const size_t service = dev.inference().service_index;
  InferenceLoad load;
  load.spec = &ModelZoo::InferenceServices()[service];
  load.batch_size = inf_batch > 0 ? inf_batch : dev.inference().batch_size;
  load.gpu_fraction = inf_fraction > 0.0 ? inf_fraction : dev.inference().gpu_fraction;
  load.qps = qps;
  double frac = train_fraction > 0.0 ? train_fraction : instance->gpu_fraction;
  double clamped = std::clamp(frac, 0.02, 1.0);

  TrainingInstance hypothetical = *instance;
  if (inf_batch > 0) {
    double required = InferenceMemoryMb(*load.spec, inf_batch);
    for (const TrainingInstance& t : dev.trainings()) {
      required += t.mem_required_mb;
    }
    double deficit = std::max(0.0, required - dev.memory_mb());
    hypothetical.mem_swapped_mb = std::min(deficit, 0.85 * instance->mem_required_mb);
  }
  double swap_factor = SwapSlowdownFactor(hypothetical);

  std::vector<ColocatedTraining> others = ActiveColocation(dev, task_id);
  uint64_t key = 0;
  if (source_ != nullptr || recorder_ != nullptr) {
    key = TrainingProbeKey(static_cast<uint32_t>(instance->type_index), clamped,
                           static_cast<uint32_t>(service), load.batch_size, load.gpu_fraction,
                           load.qps, others, swap_factor, dev.EffectiveComputeScale());
    if (source_ != nullptr) {
      if (auto recorded = source_->TakeObservation(key)) {
        return *recorded;
      }
    }
  }
  double iter = oracle_.ObserveTrainingIterationMs(ModelZoo::TrainingTasks()[instance->type_index],
                                                   clamped, load, others, rng_);
  double result = iter * swap_factor / dev.EffectiveComputeScale();
  if (recorder_ != nullptr) {
    recorder_->RecordObservation(ObsKind::kProbeTraining, sim_ms, dev.id(), key, result);
  }
  return result;
}

}  // namespace replay
}  // namespace mudi
