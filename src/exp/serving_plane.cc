#include "src/exp/serving_plane.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/float_eq.h"
#include "src/common/stats.h"
#include "src/exp/cluster_experiment.h"

namespace mudi {
namespace {

constexpr double kDefaultReplicaQps = 200.0;  // mean inter-arrival 5 ms (§7.1)
constexpr double kInitialInferenceFraction = 0.5;
constexpr int kInitialBatch = 64;
// Queue cap as a multiple of the batching size: beyond it, oldest requests
// are shed and counted as worst-case latency (overload).
constexpr double kQueueCapBatches = 50.0;
// SLO attainment is judged per window of this length.
constexpr TimeMs kSloWindowMs = 10.0 * kMsPerSecond;
// Shadow-instance switchover for GPU% reconfiguration (§5.3.2).
constexpr TimeMs kReconfigLatencyMs = 1.5 * kMsPerSecond;

}  // namespace

ServingPlane::ServingPlane(const ExperimentOptions& options, Simulator& sim,
                           ClusterState& cluster, const PerfOracle& oracle, Rng& rng,
                           Telemetry& telemetry, Listener& listener)
    : options_(options),
      sim_(sim),
      cluster_(cluster),
      oracle_(oracle),
      rng_(rng),
      telemetry_(telemetry),
      listener_(listener),
      replicas_(cluster.num_devices()) {
  MUDI_CHECK_GT(options_.num_services, 0u);
  MUDI_CHECK_LE(options_.num_services, ModelZoo::InferenceServices().size());
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    size_t service_index = (d % options_.num_services + options_.service_offset) %
                           ModelZoo::InferenceServices().size();
    InferenceInstance instance;
    instance.service_index = service_index;
    instance.batch_size = kInitialBatch;
    instance.gpu_fraction = kInitialInferenceFraction;
    instance.mem_required_mb =
        InferenceMemoryMb(ModelZoo::InferenceServices()[service_index], kInitialBatch);
    cluster_.device(d).PlaceInference(instance);

    Replica& r = replicas_[d];
    if (options_.qps_factory) {
      r.qps = options_.qps_factory(service_index, static_cast<int>(d));
    } else {
      r.qps = std::make_shared<ConstantQps>(kDefaultReplicaQps);
    }
    r.monitor.SetTelemetry(&telemetry_, static_cast<int>(d));
  }
}

const InferenceServiceSpec& ServingPlane::Service(int device_id) const {
  return ModelZoo::InferenceServices()
      [cluster_.device(static_cast<size_t>(device_id)).inference().service_index];
}

void ServingPlane::Start() {
  // Devices with the same arrival tick share one sweep (all start at 0).
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    int device_id = static_cast<int>(d);
    TimeMs tick = ArrivalTickMs(device_id);
    auto same = std::find_if(sweeps_.begin(), sweeps_.end(),
                             [tick](const ArrivalSweep& s) { return ExactEq(s.period, tick); });
    if (same == sweeps_.end()) {
      AddSweep(device_id, 0.0);
    } else {
      same->members.push_back(device_id);
      replicas_[d].sweep = static_cast<size_t>(same - sweeps_.begin());
    }
    ScheduleSloWindows(device_id, 0.0);
  }
}

void ServingPlane::AddSweep(int device_id, TimeMs start) {
  size_t index = sweeps_.size();
  TimeMs tick = ArrivalTickMs(device_id);
  ArrivalSweep& sweep = sweeps_.emplace_back();
  sweep.period = tick;
  sweep.members.push_back(device_id);
  sweep.event = sim_.SchedulePeriodic(start + tick, tick, [this, index] { RunSweep(index); });
  replicas_[static_cast<size_t>(device_id)].sweep = index;
}

void ServingPlane::ScheduleSloWindows(int device_id, TimeMs start) {
  replicas_[static_cast<size_t>(device_id)].slo_event = sim_.SchedulePeriodic(
      start + kSloWindowMs, kSloWindowMs, [this, device_id] { CloseSloWindow(device_id); });
}

void ServingPlane::RunSweep(size_t sweep) {
  // Ticks neither add nor remove members, so the list is stable here.
  for (int device_id : sweeps_[sweep].members) {
    ArrivalTick(device_id);
  }
}

void ServingPlane::Reconfigure(int device_id, int batch, double gpu_fraction) {
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (!dev.healthy()) {
    return;  // dead replica: nothing to configure (degrade gracefully)
  }
  Replica& r = replicas_[static_cast<size_t>(device_id)];
  InferenceInstance& inf = dev.mutable_inference();

  // Batch updates are a serving-loop parameter: immediate (§5.3.1).
  inf.batch_size = batch;
  inf.mem_required_mb = InferenceMemoryMb(Service(device_id), batch);
  listener_.RebalanceMemory(device_id);

  double delta = std::abs(gpu_fraction - inf.gpu_fraction);
  if (delta < 1e-6) {
    listener_.UpdateTrainingSpeeds(device_id);
    return;
  }
  // GPU% updates ride the shadow instance: effective after the
  // reconfiguration latency. A request matching the in-flight shadow keeps
  // it (otherwise periodic retunes with the same target would restart the
  // shadow forever and the config would never land); a different target
  // supersedes it.
  if (r.pending_config.has_value() && r.pending_config->first == batch &&
      std::abs(r.pending_config->second - gpu_fraction) < 1e-6) {
    listener_.UpdateTrainingSpeeds(device_id);
    return;
  }
  if (r.pending_event != Simulator::kInvalidEventId) {
    sim_.Cancel(r.pending_event);
    r.pending_event = Simulator::kInvalidEventId;
  }
  r.pending_config = {batch, gpu_fraction};
  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("serving.reconfigs").Increment();
    MUDI_TRACE_INSTANT(&telemetry_, "config", "reconfig_start", device_id, sim_.Now(),
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("batch", batch),
                           telemetry::TraceArg::Num("fraction", gpu_fraction)});
  }
  r.pending_event = sim_.ScheduleAfter(kReconfigLatencyMs, [this, device_id] {
    Replica& rep = replicas_[static_cast<size_t>(device_id)];
    if (!rep.pending_config.has_value()) {
      return;
    }
    auto [b, g] = *rep.pending_config;
    rep.pending_config.reset();
    rep.pending_event = Simulator::kInvalidEventId;
    GpuDevice& d = cluster_.device(static_cast<size_t>(device_id));
    d.mutable_inference().batch_size = b;
    d.mutable_inference().gpu_fraction = g;
    d.mutable_inference().mem_required_mb = InferenceMemoryMb(Service(device_id), b);
    MUDI_TRACE_INSTANT(&telemetry_, "config", "reconfig_done", device_id, sim_.Now(),
                       telemetry::TraceArgs{telemetry::TraceArg::Num("batch", b),
                                            telemetry::TraceArg::Num("fraction", g)});
    listener_.RebalanceMemory(device_id);
    listener_.UpdateTrainingSpeeds(device_id);
  });
  listener_.UpdateTrainingSpeeds(device_id);
}

// ---------------------------------------------------------------------------
// Serving loop
// ---------------------------------------------------------------------------

TimeMs ServingPlane::WaitTimeoutMs(int device_id) const {
  return std::clamp(0.25 * Service(device_id).slo_ms, 5.0, 400.0);
}

TimeMs ServingPlane::ArrivalTickMs(int device_id) const {
  if (options_.arrival_tick_ms > 0.0) {
    return options_.arrival_tick_ms;
  }
  return std::clamp(Service(device_id).slo_ms / 15.0, 5.0, 100.0);
}

void ServingPlane::ArrivalTick(int device_id) {
  Replica& r = replicas_[static_cast<size_t>(device_id)];
  const GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (!dev.healthy()) {
    return;  // a failed device leaves its sweep; belt and braces
  }
  TimeMs now = sim_.Now();
  double tick = ArrivalTickMs(device_id);
  double mean = r.qps->QpsAt(now) * tick / kMsPerSecond;
  auto count = static_cast<double>(rng_.Poisson(mean));
  if (count > 0.0) {
    r.queue.push_back(Cohort{now, count});
    r.queued += count;
    r.monitor.RecordArrivals(now, count);

    // Overload shedding: bound the queue, penalizing shed requests.
    double cap = kQueueCapBatches * static_cast<double>(std::max(dev.inference().batch_size, 1));
    while (r.queued > cap && !r.queue.empty()) {
      Cohort shed = r.queue.front();
      r.queue.pop_front();
      r.queued -= shed.count;
      double penalty = 10.0 * Service(device_id).slo_ms;
      r.window_latencies.emplace_back(penalty, shed.count);
      r.monitor.RecordLatency(penalty, shed.count);
      if (telemetry_.enabled()) {
        telemetry_.metrics().GetCounter("serving.shed_requests").Increment(shed.count);
        MUDI_TRACE_INSTANT(&telemetry_, "serving", "shed", device_id, now,
                           telemetry::TraceArgs{telemetry::TraceArg::Num("count", shed.count)});
      }
    }
    TryStartBatch(device_id);
  }
}

void ServingPlane::TryStartBatch(int device_id) {
  Replica& r = replicas_[static_cast<size_t>(device_id)];
  if (r.busy || r.queue.empty()) {
    return;
  }
  GpuDevice& dev = cluster_.device(static_cast<size_t>(device_id));
  if (!dev.healthy()) {
    return;
  }
  int target_batch = std::max(dev.inference().batch_size, 1);
  TimeMs now = sim_.Now();
  TimeMs oldest_age = now - r.queue.front().arrival_ms;
  // The epsilon guards against a Zeno loop: when the timeout fires at
  // exactly arrival+timeout, floating-point error can leave oldest_age one
  // ulp short of the timeout, which would re-arm at the same instant.
  if (r.queued < static_cast<double>(target_batch) &&
      oldest_age + 1e-6 < WaitTimeoutMs(device_id)) {
    // Not enough for a full batch yet: arm the formation timeout.
    if (r.timeout_event == Simulator::kInvalidEventId) {
      TimeMs fire_at = r.queue.front().arrival_ms + WaitTimeoutMs(device_id);
      r.timeout_event = sim_.ScheduleAt(std::max(fire_at, now + 0.001), [this, device_id] {
        replicas_[static_cast<size_t>(device_id)].timeout_event = Simulator::kInvalidEventId;
        TryStartBatch(device_id);
      });
    }
    return;
  }
  if (r.timeout_event != Simulator::kInvalidEventId) {
    sim_.Cancel(r.timeout_event);
    r.timeout_event = Simulator::kInvalidEventId;
  }

  // Form the batch FIFO from cohorts, straight into the in-flight record.
  double want = std::min(r.queued, static_cast<double>(target_batch));
  int actual = std::max(1, static_cast<int>(std::lround(want)));
  r.inflight.clear();
  double remaining = static_cast<double>(actual);
  while (remaining > 1e-9 && !r.queue.empty()) {
    Cohort& front = r.queue.front();
    double take = std::min(front.count, remaining);
    r.inflight.emplace_back(front.arrival_ms, take);
    front.count -= take;
    r.queued -= take;
    remaining -= take;
    if (front.count <= 1e-9) {
      r.queue.pop_front();
    }
  }

  ActiveColocation(dev, /*skip_task_id=*/-1, &colocated_);
  double latency = oracle_
                       .ObserveInferenceBatchLatency(Service(device_id), actual,
                                                     dev.inference().gpu_fraction, colocated_,
                                                     rng_)
                       .total_ms() /
                   dev.EffectiveComputeScale();
  r.busy = true;
  r.busy_start = now;
  r.batch_event = sim_.ScheduleAfter(
      latency, [this, device_id, latency] { FinishBatch(device_id, latency); });
}

void ServingPlane::FinishBatch(int device_id, double latency_ms) {
  Replica& r = replicas_[static_cast<size_t>(device_id)];
  TimeMs now = sim_.Now();
  r.busy = false;
  r.batch_event = Simulator::kInvalidEventId;
  r.busy_accum_ms += now - r.busy_start;
  double batch_requests = 0.0;
  for (const auto& [arrival, count] : r.inflight) {
    // End-to-end latency = queueing + batch service time.
    double e2e = now - arrival;
    r.window_latencies.emplace_back(e2e, count);
    r.monitor.RecordLatency(e2e, count);
    r.latency_weighted_sum += e2e * count;
    r.served += count;
    batch_requests += count;
  }
  r.inflight.clear();
  if (telemetry_.enabled()) {
    auto& metrics = telemetry_.metrics();
    metrics.GetCounter("serving.batches").Increment();
    metrics.GetCounter("serving.requests").Increment(batch_requests);
    metrics.GetHistogram("serving.batch_latency_ms", telemetry::MetricsRegistry::DefaultLatencyBucketsMs())
        .Observe(latency_ms);
    MUDI_TRACE_COMPLETE(&telemetry_, "serving", "batch", device_id, r.busy_start,
                        now - r.busy_start,
                        telemetry::TraceArgs{
                            telemetry::TraceArg::Num("requests", batch_requests),
                            telemetry::TraceArg::Num("latency_ms", latency_ms)});
  }
  TryStartBatch(device_id);
}

void ServingPlane::CloseSloWindow(int device_id) {
  Replica& r = replicas_[static_cast<size_t>(device_id)];
  bool tainted = r.window_failure_tainted;
  r.window_failure_tainted = false;
  if (r.window_latencies.empty()) {
    return;  // idle window: nothing to judge
  }
  ++r.windows_total;
  // The window is cleared below, so the P99 sorts it in place. A window
  // with no latency above the SLO cannot violate it and is not sorted.
  double slo_ms = Service(device_id).slo_ms;
  double p99 = 0.0;
  bool violated = false;
  if (AnyValueAbove(r.window_latencies, slo_ms)) {
    p99 = WeightedP99(&r.window_latencies);
    violated = p99 > slo_ms;
  }
  if (violated) {
    ++r.windows_violated;
    if (tainted) {
      ++r.windows_violated_failure;
    }
  }
  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("slo.windows_total").Increment();
    if (violated) {
      telemetry_.metrics().GetCounter("slo.windows_violated").Increment();
      if (tainted) {
        telemetry_.metrics().GetCounter("slo.windows_violated_failure").Increment();
      }
      MUDI_TRACE_INSTANT(&telemetry_, "slo", "window_violation", device_id, sim_.Now(),
                         telemetry::TraceArgs{
                             telemetry::TraceArg::Num("p99_ms", p99),
                             telemetry::TraceArg::Num("slo_ms", slo_ms),
                             telemetry::TraceArg::Num("failure_attributed", tainted ? 1.0 : 0.0)});
    }
  }
  r.window_latencies.clear();
}

// ---------------------------------------------------------------------------
// Failover
// ---------------------------------------------------------------------------

void ServingPlane::RouteCohort(int failed_device, const Cohort& cohort) {
  Replica& failed = replicas_[static_cast<size_t>(failed_device)];
  size_t service = cluster_.device(static_cast<size_t>(failed_device)).inference().service_index;
  auto survives = [&](size_t d) {
    const GpuDevice& dev = cluster_.device(d);
    return static_cast<int>(d) != failed_device && dev.healthy() && dev.has_inference() &&
           dev.inference().service_index == service;
  };
  size_t survivors = 0;
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    survivors += survives(d) ? 1 : 0;
  }
  TimeMs now = sim_.Now();
  if (survivors == 0) {
    // No surviving replica of this service: the requests are lost.
    failed_requests_ += cohort.count;
    if (telemetry_.enabled()) {
      telemetry_.metrics().GetCounter("fault.failed_requests").Increment(cohort.count);
    }
    return;
  }
  // Round-robin: the (cursor % survivors)-th survivor in device order.
  size_t skip = failed.reroute_cursor % survivors;
  int target = -1;
  for (size_t d = 0; target < 0; ++d) {
    if (survives(d) && skip-- == 0) {
      target = static_cast<int>(d);
    }
  }
  ++failed.reroute_cursor;
  Replica& r = replicas_[static_cast<size_t>(target)];
  // The cohort keeps its original arrival time: failover detour latency
  // counts against the SLO, and the window is failure-attributed.
  r.queue.push_back(cohort);
  r.queued += cohort.count;
  r.monitor.RecordArrivals(now, cohort.count);
  r.window_failure_tainted = true;
  rerouted_requests_ += cohort.count;
  if (telemetry_.enabled()) {
    telemetry_.metrics().GetCounter("fault.rerouted_requests").Increment(cohort.count);
    MUDI_TRACE_INSTANT(&telemetry_, "fault", "reroute", target, now,
                       telemetry::TraceArgs{
                           telemetry::TraceArg::Num("from_device", failed_device),
                           telemetry::TraceArg::Num("count", cohort.count)});
  }
  TryStartBatch(target);
}

void ServingPlane::FailoverArrivalTick(int failed_device) {
  Replica& r = replicas_[static_cast<size_t>(failed_device)];
  TimeMs now = sim_.Now();
  double tick = ArrivalTickMs(failed_device);
  double mean = r.qps->QpsAt(now) * tick / kMsPerSecond;
  auto count = static_cast<double>(rng_.Poisson(mean));
  if (count > 0.0) {
    RouteCohort(failed_device, Cohort{now, count});
  }
}

void ServingPlane::OnDeviceDown(int device_id, TimeMs now) {
  Replica& r = replicas_[static_cast<size_t>(device_id)];
  // Leave the arrival sweep; the last member to leave cancels it.
  ArrivalSweep& sweep = sweeps_[r.sweep];
  sweep.members.erase(std::find(sweep.members.begin(), sweep.members.end(), device_id));
  if (sweep.members.empty()) {
    sim_.Cancel(sweep.event);
    sweep.event = Simulator::kInvalidEventId;
  }
  // Stop every per-device event: SLO windows, batch formation timeouts, the
  // in-flight batch, and any shadow-instance reconfiguration.
  for (Simulator::EventId* ev :
       {&r.slo_event, &r.timeout_event, &r.batch_event, &r.pending_event}) {
    if (*ev != Simulator::kInvalidEventId) {
      sim_.Cancel(*ev);
      *ev = Simulator::kInvalidEventId;
    }
  }
  r.pending_config.reset();

  // In-flight requests die with the device: worst-case penalty latency in
  // the (failure-attributed) SLO window, counted as failed.
  if (r.busy) {
    r.busy = false;
    r.busy_accum_ms += now - r.busy_start;
    double penalty = 10.0 * Service(device_id).slo_ms;
    for (const auto& [arrival, count] : r.inflight) {
      r.window_latencies.emplace_back(penalty, count);
      failed_requests_ += count;
      if (telemetry_.enabled()) {
        telemetry_.metrics().GetCounter("fault.failed_requests").Increment(count);
      }
    }
    r.inflight.clear();
    r.window_failure_tainted = true;
  }
  // Queued cohorts fail over to surviving replicas of the same service.
  std::deque<Cohort> queued;
  queued.swap(r.queue);
  r.queued = 0.0;
  for (const auto& cohort : queued) {
    RouteCohort(device_id, cohort);
  }
  // Judge the partial window now; subsequent windows belong to the failover
  // replicas (this replica's window clock stops until recovery).
  if (!r.window_latencies.empty()) {
    r.window_failure_tainted = true;
  }
  CloseSloWindow(device_id);
  r.window_failure_tainted = false;

  // The service's request stream does not stop because a replica died:
  // future arrivals are generated on the dead replica's profile and re-routed.
  TimeMs tick = ArrivalTickMs(device_id);
  r.failover_event = sim_.SchedulePeriodic(now + tick, tick,
                                           [this, device_id] { FailoverArrivalTick(device_id); });
}

void ServingPlane::OnDeviceUp(int device_id, TimeMs now) {
  Replica& r = replicas_[static_cast<size_t>(device_id)];
  // The replica restarts from the initial serving configuration (a rebooted
  // server does not remember its tuned state) with a fresh monitor.
  InferenceInstance& inf = cluster_.device(static_cast<size_t>(device_id)).mutable_inference();
  inf.batch_size = kInitialBatch;
  inf.gpu_fraction = kInitialInferenceFraction;
  inf.mem_required_mb = InferenceMemoryMb(Service(device_id), kInitialBatch);
  r.monitor = QpsMonitor();
  r.monitor.SetTelemetry(&telemetry_, device_id);
  r.window_latencies.clear();
  r.window_failure_tainted = false;

  if (r.failover_event != Simulator::kInvalidEventId) {
    sim_.Cancel(r.failover_event);
    r.failover_event = Simulator::kInvalidEventId;
  }
  // A sweep of its own, ticking from the recovery instant: joining the old
  // sweep would move the replica's tick phase onto that sweep's grid.
  AddSweep(device_id, now);
  ScheduleSloWindows(device_id, now);
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

double ServingPlane::SampleBusyFraction(int device_id, TimeMs now, TimeMs dt) {
  Replica& r = replicas_[static_cast<size_t>(device_id)];
  double busy_ms = r.busy_accum_ms;
  if (r.busy) {
    busy_ms += now - std::max(r.busy_start, now - dt);
  }
  r.busy_accum_ms = 0.0;
  // Swap-time accounting (Tab. 4).
  for (const auto& t : cluster_.device(static_cast<size_t>(device_id)).trainings()) {
    if (t.mem_swapped_mb > 1.0) {
      r.swapped_time_ms += dt;
      break;
    }
  }
  r.observed_time_ms += dt;
  return std::clamp(busy_ms / dt, 0.0, 1.0);
}

double ServingPlane::Collect(ExperimentResult& result) {
  double total_served = 0.0;
  std::map<std::string, std::pair<double, double>> swap_acc;  // (swapped, observed)
  for (size_t d = 0; d < cluster_.num_devices(); ++d) {
    CloseSloWindow(static_cast<int>(d));
    const Replica& r = replicas_[d];
    const std::string& name = Service(static_cast<int>(d)).name;
    ServiceMetrics& m = result.per_service[name];
    m.service_name = name;
    m.windows_total += r.windows_total;
    m.windows_violated += r.windows_violated;
    m.windows_violated_failure += r.windows_violated_failure;
    m.mean_latency_ms += r.latency_weighted_sum;
    m.served_requests += r.served;
    total_served += r.served;
    swap_acc[name].first += r.swapped_time_ms;
    swap_acc[name].second += r.observed_time_ms;
  }
  for (auto& [name, m] : result.per_service) {
    if (m.served_requests > 0.0) {
      m.mean_latency_ms /= m.served_requests;
    }
  }
  for (const auto& [name, acc] : swap_acc) {
    result.swap_time_fraction[name] = acc.second > 0.0 ? acc.first / acc.second : 0.0;
  }
  result.faults.failed_requests = failed_requests_;
  result.faults.rerouted_requests = rerouted_requests_;
  return total_served;
}

}  // namespace mudi
