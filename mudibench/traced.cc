#include "mudibench/traced.h"

#include "src/common/wallclock.h"
#include "src/ml/fit_cache.h"

namespace mudibench {

namespace {

// Times one forwarded call into a LatencyStat.
class Span {
 public:
  explicit Span(mudi::perf::LatencyStat* stat) : stat_(stat) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { stat_->Record(timer_.ElapsedMs()); }

 private:
  mudi::perf::LatencyStat* stat_;
  mudi::WallTimer timer_;
};

}  // namespace

double LayerTrace::HookMs() const {
  return select_device.total_ms() + on_placed.total_ms() + on_qps_change.total_ms() +
         on_completed.total_ms() + on_device_failed.total_ms() + on_device_recovered.total_ms() +
         on_ctrl_restart.total_ms();
}

// --- TracedEnv ---

double TracedEnv::MeasuredQps(int device_id) {
  Span span(&trace_->measured_qps);
  return inner_->MeasuredQps(device_id);
}

double TracedEnv::MeasuredP99(int device_id) {
  Span span(&trace_->measured_p99);
  return inner_->MeasuredP99(device_id);
}

double TracedEnv::ProbeInferenceLatencyMs(int device_id, int batch, double gpu_fraction) {
  Span span(&trace_->probe_inference);
  return inner_->ProbeInferenceLatencyMs(device_id, batch, gpu_fraction);
}

double TracedEnv::ProbeTrainingIterMs(int device_id, int task_id, double train_fraction,
                                      int inf_batch, double inf_fraction) {
  Span span(&trace_->probe_training);
  return inner_->ProbeTrainingIterMs(device_id, task_id, train_fraction, inf_batch,
                                     inf_fraction);
}

void TracedEnv::ApplyInferenceConfig(int device_id, int batch, double gpu_fraction) {
  Span span(&trace_->apply_inference);
  inner_->ApplyInferenceConfig(device_id, batch, gpu_fraction);
}

void TracedEnv::ApplyTrainingFraction(int device_id, int task_id, double fraction) {
  Span span(&trace_->apply_training);
  inner_->ApplyTrainingFraction(device_id, task_id, fraction);
}

void TracedEnv::SetTrainingPaused(int device_id, int task_id, bool paused) {
  Span span(&trace_->set_paused);
  inner_->SetTrainingPaused(device_id, task_id, paused);
}

// --- TracedPolicy ---

void TracedPolicy::Initialize(mudi::SchedulingEnv& env) {
  mudi::perf::AllocStats before = mudi::perf::ReadAllocStats();
  {
    Span span(&trace_->initialize);
    inner_->Initialize(Wrap(env));
  }
  trace_->initialize_allocs = mudi::perf::AllocStatsSince(before).allocations;
  trace_->initialize_fit_hits = mudi::FitCache::Global().hits();
  trace_->initialize_fit_misses = mudi::FitCache::Global().misses();
}

std::optional<int> TracedPolicy::SelectDevice(mudi::SchedulingEnv& env,
                                              const mudi::TrainingTaskInfo& task) {
  Span span(&trace_->select_device);
  return inner_->SelectDevice(Wrap(env), task);
}

void TracedPolicy::OnTrainingPlaced(mudi::SchedulingEnv& env, int device_id,
                                    const mudi::TrainingTaskInfo& task) {
  Span span(&trace_->on_placed);
  inner_->OnTrainingPlaced(Wrap(env), device_id, task);
}

void TracedPolicy::OnTrainingCompleted(mudi::SchedulingEnv& env, int device_id, int task_id) {
  Span span(&trace_->on_completed);
  inner_->OnTrainingCompleted(Wrap(env), device_id, task_id);
}

void TracedPolicy::OnQpsChange(mudi::SchedulingEnv& env, int device_id) {
  Span span(&trace_->on_qps_change);
  inner_->OnQpsChange(Wrap(env), device_id);
}

void TracedPolicy::OnDeviceFailed(mudi::SchedulingEnv& env, int device_id,
                                  const std::vector<mudi::TrainingTaskInfo>& displaced) {
  Span span(&trace_->on_device_failed);
  inner_->OnDeviceFailed(Wrap(env), device_id, displaced);
}

void TracedPolicy::OnDeviceRecovered(mudi::SchedulingEnv& env, int device_id) {
  Span span(&trace_->on_device_recovered);
  inner_->OnDeviceRecovered(Wrap(env), device_id);
}

void TracedPolicy::OnControlPlaneRestart(mudi::SchedulingEnv& env) {
  Span span(&trace_->on_ctrl_restart);
  inner_->OnControlPlaneRestart(Wrap(env));
}

// --- TracedQps ---

double TracedQps::QpsAt(mudi::TimeMs t) const {
  Span span(&trace_->qps_at);
  return inner_->QpsAt(t);
}

}  // namespace mudibench
