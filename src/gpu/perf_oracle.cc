#include "src/gpu/perf_oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>

#include "src/common/check.h"
#include "src/gpu/gpu_device.h"
#include "src/telemetry/telemetry.h"

namespace mudi {

namespace {

// CPU demand one co-located inference service exerts (multi-threaded
// preprocess/tokenize pipelines oversubscribe cores).
constexpr double kInferenceNeighborCpuDemand = 0.5;

// PCIe pressure exerted per co-located inference neighbor (image tensors
// streamed per batch) vs the per-MB/ms rate factor for training loaders.
constexpr double kInferencePciePressure = 0.9;
constexpr double kTrainingPciePressureRate = 0.33;  // per MB/ms of loader traffic

// GPU-side (HBM/L2) pressure exerted per co-located inference neighbor.
constexpr double kInferenceGpuPressure = 1.4;

// Residual improvement of the execute phase beyond the saturation knee,
// producing the shallow second slope k2 of the piece-wise linear curve.
constexpr double kBeyondKneeGain = 0.12;
constexpr double kTrainingBeyondKneeGain = 0.04;

uint64_t HashCombine(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97f4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

double UnitHash(uint64_t h) {
  // splitmix64 finalizer -> [0, 1).
  h += 0x9E3779B97f4A7C15ull;
  h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
  h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
  h = h ^ (h >> 31);
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

// Time-shape of a saturating kernel pipeline: hyperbolic below the knee,
// slight residual gain above it. Returns the multiple of the at-knee time.
double SaturatingShape(double g, double g_sat, double beyond_gain) {
  MUDI_CHECK_GT(g, 0.0);
  if (g < g_sat) {
    return g_sat / g;
  }
  double span = std::max(0.05, 1.0 - g_sat);
  return 1.0 - beyond_gain * (g - g_sat) / span;
}

size_t ServiceIndex(const InferenceServiceSpec& service) {
  const auto& all = ModelZoo::InferenceServices();
  for (size_t i = 0; i < all.size(); ++i) {
    if (all[i].name == service.name) {
      return i;
    }
  }
  // Unknown (user-defined) services hash onto a stable pseudo-index.
  return all.size() + (std::hash<std::string>{}(service.name) % 64);
}

// Index of `item` in `zoo` when it is one of zoo's own elements, else
// zoo.size(). std::less orders pointers into unrelated objects too.
template <typename T>
size_t ZooSlot(const T& item, const std::vector<T>& zoo) {
  std::less<const T*> before;
  if (before(&item, zoo.data()) || !before(&item, zoo.data() + zoo.size())) {
    return zoo.size();
  }
  return static_cast<size_t>(&item - zoo.data());
}

}  // namespace

PerfOracle::PerfOracle(uint64_t seed) {
  // Pre-draw affinity projections for a generous number of service slots so
  // user-defined services get stable weights too.
  constexpr size_t kSlots = 128;
  Rng rng(seed);
  affinity_weights_.resize(kSlots);
  affinity_bias_.resize(kSlots);
  for (size_t s = 0; s < kSlots; ++s) {
    Rng service_rng = rng.Fork(s + 1);
    auto& w = affinity_weights_[s];
    w.resize(kNumLayerTypes);
    for (size_t k = 0; k < kNumLayerTypes; ++k) {
      w[k] = service_rng.Uniform(0.1, 1.0);
    }
    affinity_bias_[s] = service_rng.Uniform(-0.12, 0.12);
  }
  const auto& tasks = ModelZoo::TrainingTasks();
  for (const auto& service : ModelZoo::InferenceServices()) {
    for (const auto& task : tasks) {
      zoo_affinity_.push_back(PairAffinity(service, task.arch));
    }
  }
}

double PerfOracle::AffinityOf(const InferenceServiceSpec& service,
                              const TrainingTaskSpec& task) const {
  const auto& services = ModelZoo::InferenceServices();
  const auto& tasks = ModelZoo::TrainingTasks();
  size_t s = ZooSlot(service, services);
  size_t t = ZooSlot(task, tasks);
  if (s == services.size() || t == tasks.size()) {
    return PairAffinity(service, task.arch);
  }
  return zoo_affinity_[s * tasks.size() + t];
}

double PerfOracle::PairAffinity(const InferenceServiceSpec& service,
                                const NetworkArchitecture& arch) const {
  size_t slot = ServiceIndex(service) % affinity_weights_.size();
  const auto& w = affinity_weights_[slot];
  auto counts = arch.ToFeatureVector();
  double raw = 0.0;
  double norm = 0.0;
  for (size_t k = 0; k < kNumLayerTypes; ++k) {
    raw += w[k] * std::log1p(counts[k]);
    norm += w[k] * std::log1p(20.0);
  }
  double z = norm > 0.0 ? raw / norm : 0.0;
  double affinity = 0.05 + 0.9 * Sigmoid(10.0 * (z - 0.55 + affinity_bias_[slot]));

  // Deterministic per-pair jitter: idiosyncratic kernel overlap effects that
  // layer counts alone cannot explain (bounds the modeler's achievable
  // accuracy, as on hardware).
  uint64_t h = slot;
  for (size_t k = 0; k < kNumLayerTypes; ++k) {
    h = HashCombine(h, static_cast<uint64_t>(counts[k]));
  }
  affinity += (UnitHash(h) - 0.5) * 0.08;
  return std::clamp(affinity, 0.0, 1.0);
}

double PerfOracle::SaturationFraction(const InferenceServiceSpec& service, int batch) {
  double g = service.saturation_base + service.saturation_per_sample * static_cast<double>(batch);
  return std::clamp(g, 0.10, 1.0);
}

InferencePhaseLatency PerfOracle::InferenceBatchLatency(
    const InferenceServiceSpec& service, int batch, double gpu_fraction,
    const std::vector<ColocatedTraining>& training, size_t other_inference_count) const {
  MUDI_CHECK_GT(batch, 0);
  MUDI_CHECK_GT(gpu_fraction, 0.0);
  MUDI_CHECK_LE(gpu_fraction, 1.0);

  InferencePhaseLatency out;
  double b = static_cast<double>(batch);

  // --- preprocess / tokenization phase (CPU-bound, multi-threaded) ---
  // Image pipelines (large PCIe volume) contend hardest with other
  // multi-threaded preprocess pipelines; control-flow-heavy models contend
  // with single-threaded training loaders too.
  bool image_like = service.transfer_ms_per_sample >= 0.1;
  double pre_inf_sens = image_like ? 8.0 : 4.0;
  double pre_train_sens = service.control_flow_fraction * 16.0;
  double demand_inf = kInferenceNeighborCpuDemand * static_cast<double>(other_inference_count);
  double demand_train = 0.0;
  for (const auto& t : training) {
    MUDI_CHECK(t.spec != nullptr);
    demand_train += t.spec->cpu_load;
  }
  double pre_slow = 1.0 + pre_inf_sens * demand_inf + pre_train_sens * demand_train;
  out.preprocess_ms = b * service.preprocess_ms_per_sample * pre_slow;

  // --- PCIe transfer phase ---
  double pcie_pressure = kInferencePciePressure * static_cast<double>(other_inference_count);
  for (const auto& t : training) {
    double mb_per_ms = t.spec->pcie_mb_per_iter / t.spec->iter_ms_full;
    pcie_pressure += kTrainingPciePressureRate * mb_per_ms;
  }
  out.transfer_ms = b * service.transfer_ms_per_sample * (1.0 + pcie_pressure);

  // --- execute phase ---
  double base_exec = b * service.exec_ms_per_sample_full + service.batch_overhead_ms;
  double g_sat = SaturationFraction(service, batch);
  double shape = SaturatingShape(gpu_fraction, g_sat, kBeyondKneeGain);

  // Control-flow (CPU) share stalls under CPU contention; the GPU share
  // stalls under HBM-bandwidth/L2 contention weighted by pair affinity.
  double cf = service.control_flow_fraction;
  double exec_cpu_slow = 1.0 + 6.0 * demand_inf + 2.0 * demand_train;
  double gpu_pressure = kInferenceGpuPressure * static_cast<double>(other_inference_count);
  for (const auto& t : training) {
    double affinity = AffinityOf(service, *t.spec);
    double activity = std::min(1.0, t.gpu_fraction / 0.5);
    gpu_pressure += (0.1 + 1.3 * affinity) * activity;
  }
  double exec_gpu_factor = 1.0 + service.mem_bw_intensity * gpu_pressure;
  out.execute_ms = base_exec * (cf * exec_cpu_slow + (1.0 - cf) * shape * exec_gpu_factor);
  return out;
}

InferencePhaseLatency PerfOracle::ObserveInferenceBatchLatency(
    const InferenceServiceSpec& service, int batch, double gpu_fraction,
    const std::vector<ColocatedTraining>& training, Rng& rng,
    size_t other_inference_count) const {
  InferencePhaseLatency latency =
      InferenceBatchLatency(service, batch, gpu_fraction, training, other_inference_count);
  latency.preprocess_ms *= rng.LogNormalFactor(kNoiseSigma);
  latency.transfer_ms *= rng.LogNormalFactor(kNoiseSigma);
  latency.execute_ms *= rng.LogNormalFactor(kNoiseSigma);
  if (preprocess_hist_ != nullptr) {
    preprocess_hist_->Observe(latency.preprocess_ms);
    transfer_hist_->Observe(latency.transfer_ms);
    execute_hist_->Observe(latency.execute_ms);
    inference_total_hist_->Observe(latency.total_ms());
  }
  return latency;
}

void PerfOracle::SetTelemetry(Telemetry* telemetry) {
  if (telemetry == nullptr || !telemetry->enabled()) {
    preprocess_hist_ = nullptr;
    transfer_hist_ = nullptr;
    execute_hist_ = nullptr;
    inference_total_hist_ = nullptr;
    training_iter_hist_ = nullptr;
    return;
  }
  auto& metrics = telemetry->metrics();
  const auto buckets = telemetry::MetricsRegistry::DefaultLatencyBucketsMs();
  preprocess_hist_ = &metrics.GetHistogram("oracle.inference.preprocess_ms", buckets);
  transfer_hist_ = &metrics.GetHistogram("oracle.inference.transfer_ms", buckets);
  execute_hist_ = &metrics.GetHistogram("oracle.inference.execute_ms", buckets);
  inference_total_hist_ = &metrics.GetHistogram("oracle.inference.total_ms", buckets);
  training_iter_hist_ = &metrics.GetHistogram("oracle.training.iter_ms", buckets);
}

double PerfOracle::TrainingIterationMs(const TrainingTaskSpec& task, double gpu_fraction,
                                       const InferenceLoad& inference,
                                       const std::vector<ColocatedTraining>& other_training) const {
  MUDI_CHECK_GT(gpu_fraction, 0.0);
  MUDI_CHECK_LE(gpu_fraction, 1.0);

  double shape = SaturatingShape(gpu_fraction, task.saturation_gpu, kTrainingBeyondKneeGain);

  double inflicted = 0.0;
  double cpu_factor = 1.0;
  if (inference.spec != nullptr) {
    MUDI_CHECK_GT(inference.batch_size, 0);
    double b = static_cast<double>(inference.batch_size);
    double affinity = AffinityOf(*inference.spec, task);

    // GPU-side pressure: the service's kernel duty cycle, amplified by the
    // burstiness of large batches holding SMs/L2 contiguously.
    double gpu_busy_ms_per_s =
        inference.qps * inference.spec->exec_ms_per_sample_full /
        std::max(inference.gpu_fraction, 0.05);
    double duty = std::min(1.0, gpu_busy_ms_per_s / kMsPerSecond);
    double burst = 0.7 + 0.45 * std::sqrt(b / 128.0);
    inflicted += task.mem_bw_intensity * (0.1 + 1.0 * affinity) * duty * burst;

    // PCIe pressure: per-request volume is batch-independent but the
    // per-batch setup cost falls with b — together with the rising burst
    // term this makes training interference non-monotonic in b (§5.3.1).
    double pcie_duty = inference.qps * inference.spec->transfer_ms_per_sample / kMsPerSecond +
                       (inference.qps / b) * 0.5 / kMsPerSecond * 60.0;
    inflicted += 0.35 * std::min(1.2, pcie_duty);

    // Data-loader CPU slowdown from the service's preprocess threads.
    cpu_factor += 0.15 * task.cpu_load / 0.1;
  }
  for (const auto& other : other_training) {
    MUDI_CHECK(other.spec != nullptr);
    double activity = std::min(1.0, other.gpu_fraction / 0.5);
    inflicted += 0.20 * task.mem_bw_intensity * other.spec->mem_bw_intensity * activity;
    cpu_factor += 0.05 * other.spec->cpu_load / 0.1;
  }

  return task.iter_ms_full * shape * (1.0 + inflicted) * cpu_factor;
}

double PerfOracle::ObserveTrainingIterationMs(
    const TrainingTaskSpec& task, double gpu_fraction, const InferenceLoad& inference,
    const std::vector<ColocatedTraining>& other_training, Rng& rng) const {
  double iter = TrainingIterationMs(task, gpu_fraction, inference, other_training) *
                rng.LogNormalFactor(kNoiseSigma);
  if (training_iter_hist_ != nullptr) {
    training_iter_hist_->Observe(iter);
  }
  return iter;
}

void ActiveColocation(const GpuDevice& dev, int skip_task_id,
                      std::vector<ColocatedTraining>* out) {
  const auto& tasks = ModelZoo::TrainingTasks();
  out->clear();
  for (const TrainingInstance& t : dev.trainings()) {
    if (!t.paused && t.task_id != skip_task_id) {
      out->push_back(ColocatedTraining{&tasks[t.type_index], t.gpu_fraction});
    }
  }
}

}  // namespace mudi
