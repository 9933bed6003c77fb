// Decorators that time calls into each layer from outside the program, for
// the benchmark's traced run. They wrap the public seams only:
//
//  * TracedPolicy wraps a MultiplexPolicy and times every hook (the `core`
//    layer). On every hook it hands the inner policy a TracedEnv bound to the
//    harness's env, so the policy's reads, probes and actuations are counted
//    too (the `env` layer).
//  * TracedQps wraps one replica's QpsProfile and counts and times QpsAt,
//    which the serving plane calls once per arrival tick (the `workload`
//    layer).
//
// Observe-only: every wrapper forwards its call unchanged and returns the
// inner result, so a traced run's ExperimentResult digest must equal the
// untraced one's (the benchmark checks this on every traced run).
#ifndef MUDIBENCH_TRACED_H_
#define MUDIBENCH_TRACED_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/policy.h"
#include "src/perf/mem_probe.h"
#include "src/perf/perf_stats.h"
#include "src/workload/request_generator.h"

namespace mudibench {

// Every traced call site, filled by the decorators during one run: the call
// count, summed wall time and quantile samples of each.
struct LayerTrace {
  using Stat = mudi::perf::LatencyStat;

  // core: policy hooks.
  Stat initialize;
  Stat select_device;
  Stat on_placed;
  Stat on_qps_change;
  Stat on_completed;
  Stat on_device_failed;
  Stat on_device_recovered;
  Stat on_ctrl_restart;
  // Heap allocations made inside Initialize (fit threads included), so the
  // run's allocation count can exclude offline profiling.
  uint64_t initialize_allocs = 0;
  // FitCache lookups by Initialize's model fit. Read when Initialize returns,
  // because a scheduler restart clears the cache and its counters mid-run.
  uint64_t initialize_fit_hits = 0;
  uint64_t initialize_fit_misses = 0;

  // env: SchedulingEnv calls the policy makes.
  Stat probe_inference;
  Stat probe_training;
  Stat measured_qps;
  Stat measured_p99;
  Stat apply_inference;
  Stat apply_training;
  Stat set_paused;

  // workload: QpsProfile::QpsAt from the serving plane.
  Stat qps_at;

  // Wall time of the policy hooks that run inside Run() after Initialize.
  double HookMs() const;
};

class TracedEnv : public mudi::SchedulingEnv {
 public:
  explicit TracedEnv(LayerTrace* trace) : trace_(trace) {}

  void Bind(mudi::SchedulingEnv* inner) { inner_ = inner; }

  mudi::TimeMs Now() const override { return inner_->Now(); }
  std::vector<mudi::GpuDevice>& devices() override { return inner_->devices(); }
  const mudi::GpuDevice& device(int device_id) const override {
    return inner_->device(device_id);
  }
  const mudi::InferenceServiceSpec& ServiceOnDevice(int device_id) const override {
    return inner_->ServiceOnDevice(device_id);
  }
  double MeasuredQps(int device_id) override;
  double MeasuredP99(int device_id) override;
  double ProbeInferenceLatencyMs(int device_id, int batch, double gpu_fraction) override;
  double ProbeTrainingIterMs(int device_id, int task_id, double train_fraction, int inf_batch,
                             double inf_fraction) override;
  void ApplyInferenceConfig(int device_id, int batch, double gpu_fraction) override;
  void ApplyTrainingFraction(int device_id, int task_id, double fraction) override;
  void SetTrainingPaused(int device_id, int task_id, bool paused) override;
  bool CanFitTraining(int device_id, const mudi::TrainingTaskSpec& spec) const override {
    return inner_->CanFitTraining(device_id, spec);
  }
  const mudi::PerfOracle& oracle() const override { return inner_->oracle(); }
  mudi::Telemetry* telemetry() override { return inner_->telemetry(); }
  mudi::perf::PerfCollector* perf() override { return inner_->perf(); }
  mudi::replay::DecisionSink* recorder() override { return inner_->recorder(); }
  mudi::replay::PredictionReplay* replay() override { return inner_->replay(); }

 private:
  LayerTrace* trace_;
  mudi::SchedulingEnv* inner_ = nullptr;
};

class TracedPolicy : public mudi::MultiplexPolicy {
 public:
  TracedPolicy(mudi::MultiplexPolicy* inner, LayerTrace* trace)
      : inner_(inner), trace_(trace), env_(trace) {}

  std::string name() const override { return inner_->name(); }
  void Initialize(mudi::SchedulingEnv& env) override;
  std::optional<int> SelectDevice(mudi::SchedulingEnv& env,
                                  const mudi::TrainingTaskInfo& task) override;
  void OnTrainingPlaced(mudi::SchedulingEnv& env, int device_id,
                        const mudi::TrainingTaskInfo& task) override;
  void OnTrainingCompleted(mudi::SchedulingEnv& env, int device_id, int task_id) override;
  void OnQpsChange(mudi::SchedulingEnv& env, int device_id) override;
  void OnDeviceFailed(mudi::SchedulingEnv& env, int device_id,
                      const std::vector<mudi::TrainingTaskInfo>& displaced) override;
  void OnDeviceRecovered(mudi::SchedulingEnv& env, int device_id) override;
  void OnControlPlaneRestart(mudi::SchedulingEnv& env) override;
  int MaxTrainingsPerDevice() const override { return inner_->MaxTrainingsPerDevice(); }
  bool SupportsMemorySwap() const override { return inner_->SupportsMemorySwap(); }

 private:
  // Binds the env decorator to the harness's env for this hook.
  mudi::SchedulingEnv& Wrap(mudi::SchedulingEnv& env) {
    env_.Bind(&env);
    return env_;
  }

  mudi::MultiplexPolicy* inner_;
  LayerTrace* trace_;
  TracedEnv env_;
};

class TracedQps : public mudi::QpsProfile {
 public:
  TracedQps(std::shared_ptr<const mudi::QpsProfile> inner, LayerTrace* trace)
      : inner_(std::move(inner)), trace_(trace) {}

  double QpsAt(mudi::TimeMs t) const override;

 private:
  std::shared_ptr<const mudi::QpsProfile> inner_;
  LayerTrace* trace_;
};

}  // namespace mudibench

#endif  // MUDIBENCH_TRACED_H_
