// One benchmark run: builds one seeded Mudi workload through the public
// ClusterExperiment / MakePolicy API, runs it once, and prints one JSON line
// with its host times, simulated outcomes, run validity, result digest and
// (with --traced) the per-layer numbers the decorators in traced.h collect.
//
//   mudibench --workload fleet|coldstart|chaos --seed N
//   mudibench_traced --workload fleet|coldstart|chaos --seed N --traced
//   mudibench_traced --selftest
//
// Both binaries build from these sources; only mudibench_traced links the
// allocation-counting hook, so untraced runs time the default allocator.
// One run per process, so the process's peak RSS is the run's peak. run.py
// repeats processes, checks digests and summarises them.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "mudibench/traced.h"
#include "src/common/check.h"
#include "src/common/wallclock.h"
#include "src/exp/cluster_experiment.h"
#include "src/exp/presets.h"
#include "src/fault/control_fault_plan.h"
#include "src/fault/fault_plan.h"
#include "src/ml/fit_cache.h"
#include "src/ml/fit_pool.h"
#include "src/perf/mem_probe.h"
#include "src/perf/perf_collector.h"
#include "src/perf/perf_report.h"

#ifndef MUDIBENCH_BUILD_TYPE
#define MUDIBENCH_BUILD_TYPE "unknown"
#endif

namespace mudibench {
namespace {

using mudi::ExperimentOptions;
using mudi::ExperimentResult;

// Every workload stops at a fixed simulated horizon, so a seed changes the
// inputs but not the amount of simulated time: run-to-completion lengths
// varied 3x across seeds (chaos: 2 218 vs 7 175 simulated s), which would
// drown any host-time change in seed noise. For the same reason the seed
// drives the request streams (per-replica QPS drift, Poisson arrivals) and
// the simulator's RNG, while the training trace is the preset's canonical
// one: its heavy-tailed task mix alone moved fleet's run_s by ~10%.
//  * fleet: the paper's 1000-GPU simulated cluster; 60 s covers the first
//    periodic re-tune sweep (30 s) and steady training churn.
//  * coldstart: the 12-GPU physical cluster; 600 s keeps the serving path
//    small next to the cold offline profiling and fit.
//  * chaos: the physical cluster with device and control-plane fault plans;
//    1200 s covers every scheduled fault (the last lands at 340 s) and the
//    recovery after it.
bool MakeWorkload(const std::string& name, uint64_t seed, ExperimentOptions* options) {
  if (name == "fleet") {
    *options = mudi::SimulatedClusterOptions(5000, seed);
    options->trace = mudi::SimulatedClusterOptions(5000).trace;
    options->horizon_ms = 60.0 * mudi::kMsPerSecond;
  } else if (name == "coldstart") {
    *options = mudi::PhysicalClusterOptions(120, seed);
    options->trace = mudi::PhysicalClusterOptions(120).trace;
    options->horizon_ms = 600.0 * mudi::kMsPerSecond;
  } else if (name == "chaos") {
    *options = mudi::ChaosClusterOptions(120, seed);
    options->trace = mudi::ChaosClusterOptions(120).trace;
    options->ctrl_fault_plan = mudi::StandardControlChaosPlan();
    options->horizon_ms = 1200.0 * mudi::kMsPerSecond;
  } else if (name == "tiny") {
    // Self-test only: both fault planes on a few tasks, run to completion.
    *options = mudi::ChaosClusterOptions(12, seed);
    options->ctrl_fault_plan = mudi::StandardControlChaosPlan();
  } else {
    return false;
  }
  return true;
}

// FNV-1a over the bit patterns of the simulated result fields.
class Digest {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ = (h_ ^ p[i]) * 1099511628211ull;
    }
  }
  void U(uint64_t v) { Bytes(&v, sizeof v); }
  void D(double v) { Bytes(&v, sizeof v); }
  void S(const std::string& s) {
    U(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

// Every simulated field of the result, plus the deciding policy's tuning
// iterations. placement_overheads_ms is excluded: it holds host wall times.
// `decider` is the policy that made the decisions, which for a traced run is
// the decorator's inner policy (ExperimentResult copies the non-virtual
// vectors from the decorator, which records none).
uint64_t ResultDigest(const ExperimentResult& r, const mudi::MultiplexPolicy& decider,
                      mudi::TimeMs sim_end_ms) {
  Digest d;
  d.S(r.policy_name);
  d.D(sim_end_ms);
  for (const auto& [name, m] : r.per_service) {
    d.S(name);
    d.U(m.windows_total);
    d.U(m.windows_violated);
    d.U(m.windows_violated_failure);
    d.D(m.mean_latency_ms);
    d.D(m.served_requests);
  }
  for (const auto& t : r.tasks) {
    d.U(static_cast<uint64_t>(t.task_id));
    d.U(t.type_index);
    d.D(t.arrival_ms);
    d.D(t.start_ms);
    d.D(t.completion_ms);
    d.U(static_cast<uint64_t>(t.device_id));
    d.U(t.failures);
    d.D(t.work_lost_ms);
  }
  d.D(r.makespan_ms);
  d.D(r.avg_sm_util);
  d.D(r.avg_mem_util);
  for (const auto& s : r.util_series) {
    d.D(s.time_ms);
    d.D(s.sm_util);
    d.D(s.mem_util);
  }
  for (const auto& [name, f] : r.swap_time_fraction) {
    d.S(name);
    d.D(f);
  }
  d.U(r.swap_events);
  d.D(r.swap_total_mb);
  for (size_t n : decider.tuning_iterations()) {
    d.U(n);
  }
  for (const auto& s : r.device_series) {
    d.D(s.time_ms);
    d.D(s.qps);
    d.U(static_cast<uint64_t>(s.batch));
    d.D(s.inference_fraction);
    d.D(s.swapped_mb);
    d.D(s.mem_resident_mb);
  }
  const mudi::FaultMetrics& f = r.faults;
  d.U(f.faults_injected);
  d.U(f.device_failures);
  d.U(f.devices_recovered);
  d.D(f.total_downtime_ms);
  d.U(f.trainings_displaced);
  d.D(f.work_lost_ms);
  d.D(f.mean_replacement_ms);
  d.U(f.trainings_replaced);
  d.D(f.failed_requests);
  d.D(f.rerouted_requests);
  d.D(f.goodput_rps);
  const mudi::ControlMetrics& c = r.ctrl;
  for (size_t v : {c.events_injected, c.kv_partitions, c.watch_losses, c.scheduler_crashes,
                   c.scheduler_recoveries, c.retries, c.stale_reads, c.unavailable_reads,
                   c.watch_delivered, c.watch_dropped, c.watch_lost_partition,
                   c.configs_published, c.configs_applied, c.stale_scan_entries}) {
    d.U(v);
  }
  d.D(c.total_recovery_ms);
  return d.value();
}

// Minimal JSON object writer: one flat or nested object on one line.
class Json {
 public:
  Json& Num(const char* key, double v) {
    Key(key);
    std::snprintf(buf_, sizeof buf_, "%.17g", v);
    out_ += buf_;
    return *this;
  }
  Json& Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"' + v + '"';  // keys and values here never need escaping
    return *this;
  }
  Json& Null(const char* key) {
    Key(key);
    out_ += "null";
    return *this;
  }
  Json& Obj(const char* key, const Json& inner) {
    Key(key);
    out_ += inner.str();
    return *this;
  }
  std::string str() const { return "{" + out_ + "}"; }

 private:
  void Key(const char* key) {
    if (!out_.empty()) {
      out_ += ',';
    }
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
  std::string out_;
  char buf_[40];
};

double RegionTotalMs(const mudi::perf::PerfCollector& c, const char* name) {
  auto it = c.regions().find(name);
  return it == c.regions().end() ? 0.0 : it->second.total_ms();
}

double RegionQuantileMs(const mudi::perf::PerfCollector& c, const char* name, double q) {
  auto it = c.regions().find(name);
  return it == c.regions().end() || it->second.count() == 0 ? 0.0 : it->second.Quantile(q);
}

double Counter(const mudi::perf::PerfCollector& c, const char* name) {
  auto it = c.counters().find(name);
  return it == c.counters().end() ? 0.0 : static_cast<double>(it->second);
}

struct Outcome {
  uint64_t digest = 0;
  std::string json;
};

Outcome RunOnce(const std::string& workload, uint64_t seed, bool traced) {
  ExperimentOptions options;
  MUDI_CHECK(MakeWorkload(workload, seed, &options));
  // A traced run reports allocations per event: its binary must count them.
  MUDI_CHECK(!traced || mudi::perf::ReadAllocStats().hooked);
  // Every fresh process pays the cold fit; clearing keeps in-process repeats
  // (the self-test) on the same path.
  mudi::FitCache::Global().Clear();

  // Untraced runs attach a collector too: it is observe-only, and the
  // simulator's event totals are exported only through it.
  mudi::perf::PerfCollector collector;
  options.perf = &collector;
  LayerTrace trace;
  if (traced) {
    auto base = options.qps_factory;
    options.qps_factory = [base, &trace](size_t service,
                                         int device) -> std::shared_ptr<const mudi::QpsProfile> {
      return std::make_shared<TracedQps>(base(service, device), &trace);
    };
  }

  mudi::WallTimer ctor_timer;
  mudi::PerfOracle profiling_oracle(options.oracle_seed);
  std::unique_ptr<mudi::MultiplexPolicy> inner = mudi::MakePolicy("Mudi", profiling_oracle);
  std::unique_ptr<TracedPolicy> wrapper;
  mudi::MultiplexPolicy* policy = inner.get();
  if (traced) {
    wrapper = std::make_unique<TracedPolicy>(inner.get(), &trace);
    policy = wrapper.get();
  }
  mudi::ClusterExperiment experiment(options, policy);
  double ctor_s = ctor_timer.ElapsedSeconds();

  mudi::perf::AllocStats alloc0 = mudi::perf::ReadAllocStats();
  mudi::WallTimer run_timer;
  ExperimentResult result = experiment.Run();
  double run_total_s = run_timer.ElapsedSeconds();
  uint64_t allocs_run = mudi::perf::AllocStatsSince(alloc0).allocations;
  mudi::perf::MemoryUsage mem = mudi::perf::ReadMemoryUsage();

  double init_s = traced ? trace.initialize.total_ms() / 1e3
                         : RegionTotalMs(collector, "policy.initialize") / 1e3;
  double run_s = run_total_s - init_s;
  double sim_end_ms = experiment.SimNowMs();
  double events = Counter(collector, "sim.events_fired");

  // Run validity, judged from outside: a horizon run stops by design; a
  // run-to-completion run only stops with tasks left when it reached
  // max_sim_ms, i.e. hit the liveness backstop, and its CT would average
  // only the finished tasks.
  size_t completed = result.CompletedTasks();
  size_t unfinished = result.tasks.size() - completed;
  const char* termination = options.horizon_ms > 0.0 ? "horizon"
                            : unfinished == 0         ? "completed"
                                                      : "backstop";

  double served = 0.0;
  for (const auto& [name, m] : result.per_service) {
    served += m.served_requests;
  }
  double failed = result.faults.failed_requests;
  uint64_t digest = ResultDigest(result, *inner, sim_end_ms);
  size_t tuning_sum = 0;
  for (size_t n : inner->tuning_iterations()) {
    tuning_sum += n;
  }

  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016" PRIx64, digest);

  Json e2e;
  e2e.Num("setup_s", ctor_s + init_s)
      .Num("run_s", run_s)
      .Num("sim_s_per_wall_s", sim_end_ms / 1e3 / run_s)
      .Num("peak_rss_mb", static_cast<double>(mem.peak_rss_bytes) / (1024.0 * 1024.0))
      .Num("retune_p95_us", RegionQuantileMs(collector, "policy.on_qps_change", 0.95) * 1e3)
      .Num("goodput_rps", result.faults.goodput_rps);

  const mudi::ControlMetrics& cm = result.ctrl;
  const mudi::FaultMetrics& fm = result.faults;
  Json layers;
  layers.Num("exp.slo_violation_pct", result.OverallSloViolationRate() * 100.0)
      .Num("exp.failed_request_pct",
           served + failed > 0.0 ? failed / (served + failed) * 100.0 : 0.0)
      .Num("exp.tasks_unfinished", static_cast<double>(unfinished))
      .Num("sim.events_fired", events)
      .Num("sim.events_scheduled", Counter(collector, "sim.events_scheduled"))
      .Num("sim.events_cancelled", Counter(collector, "sim.events_cancelled"))
      .Num("sim.events_per_s", events / run_s)
      .Num("mudi.offline_profile_ms", RegionTotalMs(collector, "mudi.offline_profile"))
      .Num("mudi.fit_ms", RegionTotalMs(collector, "mudi.fit"))
      .Num("mudi.gp_lcb_ms", RegionTotalMs(collector, "mudi.gp_lcb"))
      .Num("mudi.tune_device_ms", RegionTotalMs(collector, "mudi.tune_device"))
      .Num("core.tuning_iterations", static_cast<double>(tuning_sum))
      .Num("ml.fit_threads", static_cast<double>(mudi::FitPool::ConfiguredThreads()))
      .Num("ctrl.configs_published", static_cast<double>(cm.configs_published))
      .Num("ctrl.configs_applied", static_cast<double>(cm.configs_applied))
      .Num("ctrl.config_apply_ratio",
           cm.configs_published == 0 ? 0.0
                                     : static_cast<double>(cm.configs_applied) /
                                           static_cast<double>(cm.configs_published))
      .Num("ctrl.retries", static_cast<double>(cm.retries))
      .Num("ctrl.watch_delivered", static_cast<double>(cm.watch_delivered))
      .Num("ctrl.watch_dropped", static_cast<double>(cm.watch_dropped))
      .Num("ctrl.stale_reads", static_cast<double>(cm.stale_reads))
      .Num("ctrl.unavailable_reads", static_cast<double>(cm.unavailable_reads))
      .Num("ctrl.mean_recovery_ms", cm.MeanRecoveryMs())
      .Num("fault.device_failures", static_cast<double>(fm.device_failures))
      .Num("fault.trainings_displaced", static_cast<double>(fm.trainings_displaced))
      .Num("fault.trainings_replaced", static_cast<double>(fm.trainings_replaced))
      .Num("fault.rerouted_requests", fm.rerouted_requests)
      .Num("fault.failed_requests", fm.failed_requests)
      .Num("mem.swap_events", static_cast<double>(result.swap_events))
      .Num("mem.swap_total_mb", result.swap_total_mb);
  if (traced) {
    // exp's self time: Run() after Initialize minus the timed calls out of
    // the serving and training planes (policy hooks, QpsAt).
    double self_s = run_s - (trace.HookMs() + trace.qps_at.total_ms()) / 1e3;
    auto calls = [](const LayerTrace::Stat& s) { return static_cast<double>(s.count()); };
    layers.Num("exp.self_s", self_s)
        .Num("exp.self_ns_per_event", self_s * 1e9 / events)
        .Num("exp.allocs_per_event",
             static_cast<double>(allocs_run - trace.initialize_allocs) / events)
        .Num("workload.qps_at.calls", calls(trace.qps_at))
        .Num("workload.qps_at.ns_per_call", trace.qps_at.mean_ms() * 1e6)
        .Num("core.initialize_s", trace.initialize.total_ms() / 1e3)
        .Num("ml.fit_cache.hits", static_cast<double>(trace.initialize_fit_hits))
        .Num("ml.fit_cache.misses", static_cast<double>(trace.initialize_fit_misses))
        .Num("core.select_device.calls", calls(trace.select_device))
        .Num("core.select_device.p50_us", trace.select_device.Quantile(0.5) * 1e3)
        .Num("core.select_device.p95_us", trace.select_device.Quantile(0.95) * 1e3)
        .Num("core.on_placed.calls", calls(trace.on_placed))
        .Num("core.on_placed.total_ms", trace.on_placed.total_ms())
        .Num("core.on_qps_change.calls", calls(trace.on_qps_change))
        .Num("core.on_qps_change.total_ms", trace.on_qps_change.total_ms())
        .Num("core.on_qps_change.p50_us", trace.on_qps_change.Quantile(0.5) * 1e3)
        .Num("core.on_completed.calls", calls(trace.on_completed))
        .Num("core.on_device_failed.calls", calls(trace.on_device_failed))
        .Num("core.on_device_recovered.calls", calls(trace.on_device_recovered))
        .Num("core.on_ctrl_restart.calls", calls(trace.on_ctrl_restart))
        .Num("core.hooks_s", trace.HookMs() / 1e3)
        .Num("env.probe_inference.calls", calls(trace.probe_inference))
        .Num("env.probe_inference.total_ms", trace.probe_inference.total_ms())
        .Num("env.probe_training.calls", calls(trace.probe_training))
        .Num("env.probe_training.total_ms", trace.probe_training.total_ms())
        .Num("env.measured_qps.calls", calls(trace.measured_qps))
        .Num("env.measured_p99.calls", calls(trace.measured_p99))
        .Num("env.measured_p99.ns_per_call", trace.measured_p99.mean_ms() * 1e6)
        .Num("env.apply_inference.calls", calls(trace.apply_inference))
        .Num("env.apply_training.calls", calls(trace.apply_training))
        .Num("env.set_paused.calls", calls(trace.set_paused));
  }

  mudi::perf::BuildMetadata build = mudi::perf::BuildMetadata::Current();
  Json provenance;
  provenance.Str("cmake_build_type", MUDIBENCH_BUILD_TYPE)
      .Str("compiler", build.compiler)
      .Num("tracing_compiled_in", build.tracing_compiled_in ? 1 : 0)
      .Num("fit_threads", static_cast<double>(mudi::FitPool::ConfiguredThreads()))
      .Num("nproc", static_cast<double>(std::thread::hardware_concurrency()));

  Json out;
  out.Str("workload", workload)
      .Num("seed", static_cast<double>(seed))
      .Num("traced", traced ? 1 : 0)
      .Str("termination", termination)
      .Num("tasks_total", static_cast<double>(result.tasks.size()))
      .Num("tasks_completed", static_cast<double>(completed))
      .Num("sim_end_s", sim_end_ms / 1e3)
      .Str("digest", digest_hex);
  // Mean CT only when every task finished: over the finished ones alone it
  // would drop exactly the tasks a truncated run starved.
  if (unfinished == 0 && completed > 0) {
    out.Num("ct_mean_s", result.MeanCtMs() / 1e3);
  } else {
    out.Null("ct_mean_s");
  }
  out.Num("ctor_s", ctor_s)
      .Num("initialize_s", init_s)
      .Num("retunes", static_cast<double>(inner->tuning_iterations().size()))
      .Obj("end_to_end", e2e)
      .Obj("per_layer", layers)
      .Obj("provenance", provenance);
  return Outcome{digest, out.str()};
}

// Unwrapped, wrapped and repeated runs of one small workload with both fault
// planes armed must produce the same digest.
int SelfTest() {
  Outcome plain = RunOnce("tiny", 3, false);
  Outcome wrapped = RunOnce("tiny", 3, true);
  Outcome again = RunOnce("tiny", 3, false);
  bool ok = plain.digest == wrapped.digest && plain.digest == again.digest;
  std::printf("selftest: unwrapped=%016" PRIx64 " wrapped=%016" PRIx64 " repeat=%016" PRIx64
              " %s\n",
              plain.digest, wrapped.digest, again.digest, ok ? "ok" : "MISMATCH");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace mudibench

int main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 1;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--selftest") {
      return mudibench::SelfTest();
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--workload" && i + 1 < argc) {
      workload = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else {
      std::fprintf(stderr, "usage: %s --workload fleet|coldstart|chaos --seed N [--traced]\n"
                           "       %s --selftest\n", argv[0], argv[0]);
      return 2;
    }
  }
  mudi::ExperimentOptions probe;
  if (!mudibench::MakeWorkload(workload, seed, &probe)) {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  std::printf("%s\n", mudibench::RunOnce(workload, seed, traced).json.c_str());
  return 0;
}
