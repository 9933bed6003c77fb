#include "src/core/mudi_policy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/cluster/replay_hooks.h"
#include "src/common/check.h"
#include "src/common/logging.h"
#include "src/ml/fit_cache.h"
#include "src/perf/perf_collector.h"
#include "src/telemetry/telemetry.h"

namespace mudi {
namespace {

// Seeds the device-only ablation's uniform-random placement.
constexpr uint64_t kAblationSeed = 7;

}  // namespace

MudiPolicy::MudiPolicy(const PerfOracle& profiling_oracle, Options options)
    : options_(options), profiler_(profiling_oracle), rng_(kAblationSeed) {
  predictor_ = std::make_unique<InterferencePredictor>(&profiler_, &modeler_);
  DeviceSelector::Constraints constraints;
  constraints.max_trainings_per_device = options_.max_trainings_per_device;
  constraints.allow_memory_overcommit = true;
  selector_ = std::make_unique<DeviceSelector>(predictor_.get(), constraints);
}

MudiPolicy::MudiPolicy(const PerfOracle& profiling_oracle)
    : MudiPolicy(profiling_oracle, Options{}) {}

std::string MudiPolicy::name() const {
  if (options_.cluster_policy == ClusterPolicy::kRandom) {
    return "Mudi-device-only";
  }
  if (options_.device_policy == DevicePolicy::kStatic) {
    return "Mudi-cluster-only";
  }
  if (options_.max_trainings_per_device > 1) {
    return "Mudi-more";
  }
  return "Mudi";
}

void MudiPolicy::EnsureFittedFromProfiler() {
  if (modeler_.fitted()) {
    return;
  }
  modeler_.AddSamplesFromProfiler(profiler_);
  modeler_.Fit();
}

void MudiPolicy::Initialize(SchedulingEnv& env) {
  if (initialized_) {
    return;
  }
  if (replay::PredictionReplay* source = env.replay()) {
    // Replay mode: the recorded offline curves substitute for profiling and
    // the recorded predictions substitute for the learner, so neither the
    // oracle sweep nor the fit runs here (profiler_.total_measurements()
    // stays 0 — the replay gate asserts on it). The learner fit is deferred
    // to the first prediction that misses the trace, if any.
    for (const replay::TraceCurve& recorded : source->curves()) {
      ProfiledCurve curve;
      curve.key.service_index = recorded.service_index;
      curve.key.batch = recorded.batch;
      curve.key.training_types.assign(recorded.training_types.begin(),
                                      recorded.training_types.end());
      curve.model.k1 = recorded.k1;
      curve.model.k2 = recorded.k2;
      curve.model.x0 = recorded.x0;
      curve.model.y0 = recorded.y0;
      curve.sample_fractions = recorded.sample_fractions;
      curve.sample_latencies = recorded.sample_latencies;
      profiler_.InjectCurve(std::move(curve));
    }
    predictor_->SetReplay(source, [this] { EnsureFittedFromProfiler(); });
    initialized_ = true;
    MUDI_LOG(Info) << name() << ": replaying " << profiler_.curves().size()
                   << " recorded curves, profiling skipped";
    return;
  }
  {
    perf::PerfRegion region(env.perf(), "mudi.offline_profile");
    profiler_.ProfileAll(ModelZoo::kNumObservedTrainingTypes);
    if (options_.max_trainings_per_device > 1) {
      profiler_.ProfileMultiTraining(ModelZoo::kNumObservedTrainingTypes,
                                     options_.max_trainings_per_device > 2);
    }
  }
  {
    // The piece-wise-linear refit over all profiled curves — one of the
    // expected hot spots the self-attribution is built to expose.
    perf::PerfRegion region(env.perf(), "mudi.fit");
    modeler_.AddSamplesFromProfiler(profiler_);
    modeler_.Fit();
  }
  if (env.perf() != nullptr) {
    // Snapshot-style, observe-only: how much of the fit the FitCache absorbed.
    env.perf()->SetCounter("mudi.fit_shards_cached", modeler_.last_fit_cached());
    env.perf()->SetCounter("mudi.fit_shards_computed", modeler_.last_fit_computed());
  }
  if (replay::DecisionSink* recorder = env.recorder()) {
    // Dump the *offline* curve store into the trace so a replayed run can
    // preload it. Online refreshes (AddMeasuredCurve) happen after this and
    // are re-derived identically during a fidelity replay from the recorded
    // probe observations, so they are deliberately not recorded.
    for (const auto& [key, curve] : profiler_.curves()) {
      replay::TraceCurve out;
      out.service_index = static_cast<uint32_t>(key.service_index);
      out.batch = key.batch;
      out.training_types.assign(key.training_types.begin(), key.training_types.end());
      out.k1 = curve.model.k1;
      out.k2 = curve.model.k2;
      out.x0 = curve.model.x0;
      out.y0 = curve.model.y0;
      out.sample_fractions = curve.sample_fractions;
      out.sample_latencies = curve.sample_latencies;
      recorder->RecordCurve(out);
    }
    predictor_->SetRecorder(recorder);
  }
  initialized_ = true;
  MUDI_LOG(Info) << name() << ": offline profiling done, "
                 << profiler_.curves().size() << " curves, "
                 << profiler_.total_measurements() << " measurements";
}

std::vector<size_t> MudiPolicy::DeviceMix(const GpuDevice& device) {
  std::vector<size_t> mix;
  mix.reserve(device.trainings().size());
  for (const auto& t : device.trainings()) {
    mix.push_back(t.type_index);
  }
  return mix;
}

std::optional<int> MudiPolicy::SelectDevice(SchedulingEnv& env, const TrainingTaskInfo& task) {
  MUDI_CHECK(initialized_);
  if (options_.cluster_policy == ClusterPolicy::kSlopeBased) {
    return selector_->Select(env, task);
  }
  // Ablation (Fig. 13b): uniform-random among eligible devices.
  std::vector<int> eligible;
  for (const GpuDevice& device : env.devices()) {
    if (selector_->Eligible(env, device, task)) {
      eligible.push_back(device.id());
    }
  }
  if (eligible.empty()) {
    return std::nullopt;
  }
  return eligible[static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(eligible.size()) - 1))];
}

void MudiPolicy::DistributeTrainingShares(SchedulingEnv& env, int device_id,
                                          double inference_fraction) {
  const GpuDevice& device = env.device(device_id);
  size_t active = device.num_active_trainings();
  if (active == 0) {
    return;
  }
  // §5.5: the unassigned portion of the GPU is split evenly across the
  // co-located training tasks.
  double share = std::max(0.02, (1.0 - inference_fraction) / static_cast<double>(active));
  for (const auto& t : device.trainings()) {
    if (!t.paused) {
      env.ApplyTrainingFraction(device_id, t.task_id, share);
    }
  }
}

void MudiPolicy::TuneDevice(SchedulingEnv& env, int device_id, bool on_placement,
                            int probe_task_id) {
  perf::PerfRegion tune_region(env.perf(), "mudi.tune_device");
  const GpuDevice& device = env.device(device_id);
  MUDI_CHECK(device.has_inference());
  size_t service_index = device.inference().service_index;
  const InferenceServiceSpec& service = ModelZoo::InferenceServices()[service_index];
  double qps = env.MeasuredQps(device_id);
  std::vector<size_t> mix = DeviceMix(device);

  auto curve_provider = [&](int batch) {
    return predictor_->PredictCurve(service_index, mix, batch);
  };

  // Initial GPU% for the service: the maximum predicted cutoff across
  // batching sizes (§5.3.2) — generous while the batching search runs.
  double init_fraction = Tuner::kMinFraction;
  for (int b : ProfilingBatchSizes()) {
    init_fraction = std::max(init_fraction, curve_provider(b).x0);
  }
  init_fraction = std::min(init_fraction, Tuner::kMaxFraction);

  // The BO objective: observed training mini-batch time for a candidate
  // inference batching size (Training Agent feedback). With no training
  // resident (pure rescale), the objective is flat.
  size_t active = std::max<size_t>(1, device.num_active_trainings());
  double train_share = std::max(0.05, (1.0 - init_fraction) / static_cast<double>(active));
  auto objective = [&](int batch) {
    if (probe_task_id < 0) {
      return 1.0;
    }
    return env.ProbeTrainingIterMs(device_id, probe_task_id, train_share, batch, init_fraction);
  };

  int current_batch =
      device.inference().batch_size > 0 ? device.inference().batch_size : ProfilingBatchSizes()[0];
  Tuner::Result result;
  {
    perf::PerfRegion region(env.perf(), "mudi.gp_lcb");
    result = on_placement
                 ? tuner_.TuneOnPlacement(curve_provider, objective, ProfilingBatchSizes(), qps,
                                          service.slo_ms)
                 : tuner_.TuneOnQpsChange(curve_provider, objective, ProfilingBatchSizes(),
                                          current_batch, qps, service.slo_ms);
  }
  RecordTuningIterations(result.bo_iterations);

  // Resume hysteresis: un-pausing preempted training requires feasibility
  // with extra load margin, or the device thrashes pause/resume around the
  // feasibility boundary while the request rate fluctuates.
  bool any_paused = false;
  for (const auto& t : device.trainings()) {
    any_paused |= t.paused;
  }
  if (result.feasible && any_paused &&
      !tuner_.BatchFeasible(curve_provider(result.batch), result.batch, qps * 1.08,
                            service.slo_ms)) {
    result.feasible = false;
  }

  Telemetry* telemetry = env.telemetry();

  if (!result.feasible && device.trainings().size() > 1) {
    // The full mix is infeasible, but §5.3.2's "until suitable resources
    // become available" applies per task, not per device: a subset of the
    // co-located trainings may still multiplex within the SLO (all-or-nothing
    // resume latches packed devices into a permanent pause otherwise). Search
    // admission-ordered prefixes for the largest feasible subset, resume
    // exactly those tasks, and keep the rest preempted.
    std::vector<int> task_ids;
    std::vector<size_t> types;
    std::vector<bool> was_paused;
    for (const auto& t : device.trainings()) {
      task_ids.push_back(t.task_id);
      types.push_back(t.type_index);
      was_paused.push_back(t.paused);
    }
    for (size_t keep = task_ids.size(); keep-- > 0;) {
      std::vector<size_t> submix(types.begin(), types.begin() + static_cast<long>(keep));
      auto sub_provider = [&](int batch) {
        return predictor_->PredictCurve(service_index, submix, batch);
      };
      Tuner::Result sub;
      {
        perf::PerfRegion region(env.perf(), "mudi.gp_lcb");
        sub = tuner_.TuneOnQpsChange(sub_provider, objective, ProfilingBatchSizes(),
                                     current_batch, qps, service.slo_ms);
      }
      RecordTuningIterations(sub.bo_iterations);
      if (!sub.feasible) {
        continue;
      }
      bool resumes_paused = false;
      for (size_t i = 0; i < keep; ++i) {
        resumes_paused |= was_paused[i];
      }
      if (resumes_paused && !tuner_.BatchFeasible(sub_provider(sub.batch), sub.batch, qps * 1.08,
                                                  service.slo_ms)) {
        continue;  // resume hysteresis, as for the full mix
      }
      for (size_t i = 0; i < task_ids.size(); ++i) {
        env.SetTrainingPaused(device_id, task_ids[i], i >= keep);
      }
      env.ApplyInferenceConfig(device_id, sub.batch, sub.inference_fraction);
      DistributeTrainingShares(env, device_id, sub.inference_fraction);
      if (telemetry != nullptr) {
        telemetry->metrics().GetCounter("policy.partial_resumes").Increment();
        MUDI_TRACE_INSTANT(telemetry, "tuning", "tune_partial_resume", device_id, env.Now(),
                           telemetry::TraceArgs{
                               telemetry::TraceArg::Num("qps", qps),
                               telemetry::TraceArg::Num("batch", sub.batch),
                               telemetry::TraceArg::Num("fraction", sub.inference_fraction),
                               telemetry::TraceArg::Num("kept", static_cast<double>(keep)),
                               telemetry::TraceArg::Num(
                                   "paused", static_cast<double>(task_ids.size() - keep))});
      }
      return;
    }
  }

  if (!result.feasible) {
    // §5.3.2: bursty load beyond what multiplexing can absorb — preempt the
    // training tasks and give the service the maximum partition.
    size_t paused_now = 0;
    for (const auto& t : device.trainings()) {
      if (!t.paused) {
        ++paused_now;
      }
      env.SetTrainingPaused(device_id, t.task_id, true);
    }
    env.ApplyInferenceConfig(device_id, current_batch, Tuner::kMaxFraction);
    if (telemetry != nullptr) {
      auto& metrics = telemetry->metrics();
      metrics.GetCounter("policy.tunes_infeasible").Increment();
      metrics.GetCounter("policy.preempt_pauses").Increment(static_cast<double>(paused_now));
      MUDI_TRACE_INSTANT(telemetry, "tuning", "tune_infeasible", device_id, env.Now(),
                         telemetry::TraceArgs{
                             telemetry::TraceArg::Num("qps", qps),
                             telemetry::TraceArg::Num("batch", current_batch),
                             telemetry::TraceArg::Num("bo_iters",
                                                      static_cast<double>(result.bo_iterations)),
                             telemetry::TraceArg::Num("paused", static_cast<double>(paused_now))});
    }
    return;
  }

  // Feasible again: resume anything we paused earlier.
  for (const auto& t : device.trainings()) {
    if (t.paused) {
      env.SetTrainingPaused(device_id, t.task_id, false);
    }
  }
  // §7.3 incremental sampling: the prediction may extrapolate poorly to an
  // unseen co-location, so verify the chosen configuration with live probes
  // and escalate the partition while the measured latency misses the
  // planning budget. The samples also refresh the curve store, so repeat
  // co-locations predict from measurements instead of extrapolation.
  double budget = PlanningLatencyBudgetMs(
      result.batch, std::max(qps, 1.0) * Tuner::kLoadHeadroom, service.slo_ms);
  std::vector<double> probe_fractions, probe_latencies;
  for (int round = 0; round < 5; ++round) {
    double measured =
        env.ProbeInferenceLatencyMs(device_id, result.batch, result.inference_fraction);
    probe_fractions.push_back(result.inference_fraction);
    probe_latencies.push_back(measured);
    if (measured <= budget || result.inference_fraction >= Tuner::kMaxFraction) {
      break;
    }
    result.inference_fraction = std::min(Tuner::kMaxFraction,
                                         result.inference_fraction * 1.25 + 0.02);
  }
  if (probe_fractions.size() >= 4) {
    // Enough spread to refresh the stored curve for this (mix, batch).
    profiler_.AddMeasuredCurve(CurveKey{service_index, result.batch, mix},
                               probe_fractions, probe_latencies);
    predictor_->InvalidateCache();
  }

  env.ApplyInferenceConfig(device_id, result.batch, result.inference_fraction);
  DistributeTrainingShares(env, device_id, result.inference_fraction);

  if (telemetry != nullptr) {
    telemetry->metrics().GetCounter("policy.tunes").Increment();
    MUDI_TRACE_INSTANT(telemetry, "tuning", on_placement ? "tune_on_placement" : "tune_on_qps",
                       device_id, env.Now(),
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("qps", qps),
                           telemetry::TraceArg::Num("batch", result.batch),
                           telemetry::TraceArg::Num("fraction", result.inference_fraction),
                           telemetry::TraceArg::Num("bo_iters",
                                                    static_cast<double>(result.bo_iterations))});
  }
}

void MudiPolicy::ApplyStaticConfig(SchedulingEnv& env, int device_id) {
  // Fig. 13(a) ablation: cluster-wide placement only. Pick the largest
  // batching size whose predicted curve meets the SLO at the cutoff point,
  // set Δ to that cutoff, and never retune.
  const GpuDevice& device = env.device(device_id);
  size_t service_index = device.inference().service_index;
  const InferenceServiceSpec& service = ModelZoo::InferenceServices()[service_index];
  double qps = env.MeasuredQps(device_id);
  std::vector<size_t> mix = DeviceMix(device);

  const auto& batches = ProfilingBatchSizes();
  int chosen_batch = batches.front();
  double chosen_fraction = Tuner::kMaxFraction;
  for (auto it = batches.rbegin(); it != batches.rend(); ++it) {
    PiecewiseLinearModel curve = predictor_->PredictCurve(service_index, mix, *it);
    auto frac = tuner_.MinimalFraction(curve, *it, qps, service.slo_ms);
    if (frac.has_value()) {
      chosen_batch = *it;
      chosen_fraction = std::clamp(std::max(*frac, curve.x0) * 1.05, Tuner::kMinFraction,
                                   Tuner::kMaxFraction);
      break;
    }
  }
  env.ApplyInferenceConfig(device_id, chosen_batch, chosen_fraction);
  DistributeTrainingShares(env, device_id, chosen_fraction);
}

void MudiPolicy::OnTrainingPlaced(SchedulingEnv& env, int device_id,
                                  const TrainingTaskInfo& task) {
  if (options_.device_policy == DevicePolicy::kStatic) {
    ApplyStaticConfig(env, device_id);
    return;
  }
  TuneDevice(env, device_id, /*on_placement=*/true, task.task_id);
}

void MudiPolicy::OnTrainingCompleted(SchedulingEnv& env, int device_id, int task_id) {
  (void)task_id;
  const GpuDevice& device = env.device(device_id);
  if (!device.has_inference()) {
    return;
  }
  // Reclaim the departed task's share for the remaining residents.
  DistributeTrainingShares(env, device_id, device.inference().gpu_fraction);
}

void MudiPolicy::OnDeviceFailed(SchedulingEnv& env, int device_id,
                                const std::vector<TrainingTaskInfo>& displaced) {
  (void)device_id;
  // Cached interference scores were computed against a cluster snapshot that
  // included the dead device; drop them so displaced tasks are re-placed
  // against fresh state.
  predictor_->InvalidateCache();
  if (Telemetry* telemetry = env.telemetry(); telemetry != nullptr) {
    telemetry->metrics().GetCounter("policy.device_failures").Increment();
    telemetry->metrics().GetCounter("policy.trainings_displaced")
        .Increment(static_cast<double>(displaced.size()));
  }
}

void MudiPolicy::OnDeviceRecovered(SchedulingEnv& env, int device_id) {
  predictor_->InvalidateCache();
  if (options_.device_policy == DevicePolicy::kStatic) {
    ApplyStaticConfig(env, device_id);
    return;
  }
  // The restarted replica boots with the initial config; re-tune right away
  // if the monitor already sees load, otherwise the next monitor trigger
  // (first observation on a fresh monitor) handles it.
  if (env.MeasuredQps(device_id) > 0.0) {
    OnQpsChange(env, device_id);
  }
}

void MudiPolicy::OnControlPlaneRestart(SchedulingEnv& env) {
  // The scheduler was down: configs it believed applied may have been lost,
  // and the recovery scan may have served stale rows. Every derived cache is
  // suspect — interference scores against an unknown cluster snapshot and
  // memoized fits alike. Drop them all; re-tunes after restart then recompute
  // against observed state.
  predictor_->InvalidateCache();
  FitCache::Global().Clear();
  if (Telemetry* telemetry = env.telemetry(); telemetry != nullptr) {
    telemetry->metrics().GetCounter("policy.control_plane_restarts").Increment();
  }
}

void MudiPolicy::OnQpsChange(SchedulingEnv& env, int device_id) {
  if (options_.device_policy == DevicePolicy::kStatic) {
    return;
  }
  const GpuDevice& device = env.device(device_id);
  if (!device.has_inference()) {
    return;
  }
  int probe_task = -1;
  for (const auto& t : device.trainings()) {
    if (!t.paused) {
      probe_task = t.task_id;
      break;
    }
  }
  TuneDevice(env, device_id, /*on_placement=*/false, probe_task);
}

}  // namespace mudi
