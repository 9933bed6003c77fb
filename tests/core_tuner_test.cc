#include <gtest/gtest.h>

#include <cmath>

#include "src/cluster/policy.h"
#include "src/common/rng.h"
#include "src/core/memory_manager.h"
#include "src/core/tuner.h"

namespace mudi {
namespace {

// Synthetic latency curve family: batch b's curve scales with b.
PiecewiseLinearModel CurveForBatch(int batch) {
  PiecewiseLinearModel m;
  m.x0 = 0.3 + 0.0004 * batch;
  m.y0 = 0.4 * batch + 5.0;  // at-knee latency grows with batch
  m.k1 = -4.0 * m.y0;        // steep segment
  m.k2 = -0.05 * m.y0;
  return m;
}

// ---------------------------------------------------------------------------
// MinimalFraction (Eq. 4)
// ---------------------------------------------------------------------------

TEST(TunerEq4Test, SatisfiesConstraintAtSolution) {
  Tuner tuner;
  int batch = 64;
  double qps = 200.0, slo = 150.0;
  auto curve = CurveForBatch(batch);
  auto frac = tuner.MinimalFraction(curve, batch, qps, slo);
  ASSERT_TRUE(frac.has_value());
  double budget = PlanningLatencyBudgetMs(batch, qps, slo);
  EXPECT_LE(curve.Eval(*frac), budget + 1e-6);
}

TEST(TunerEq4Test, SolutionIsMinimal) {
  Tuner tuner;
  int batch = 64;
  double qps = 200.0, slo = 150.0;
  auto curve = CurveForBatch(batch);
  auto frac = tuner.MinimalFraction(curve, batch, qps, slo);
  ASSERT_TRUE(frac.has_value());
  if (*frac > tuner.options().min_fraction + 0.01) {
    // The tuner plans against the load-headroom-inflated budget.
    double budget = PlanningLatencyBudgetMs(batch, qps * tuner.options().load_headroom, slo);
    EXPECT_GT(curve.Eval(*frac - 0.01), budget);
  }
}

TEST(TunerEq4Test, InfeasibleWhenSloTooTight) {
  Tuner tuner;
  auto curve = CurveForBatch(512);
  // Impossibly tight SLO at high QPS.
  EXPECT_FALSE(tuner.MinimalFraction(curve, 512, 5000.0, 50.0).has_value());
}

TEST(TunerEq4Test, ZeroQpsNeedsOnlyFloor) {
  Tuner tuner;
  auto frac = tuner.MinimalFraction(CurveForBatch(64), 64, 0.0, 100.0);
  ASSERT_TRUE(frac.has_value());
  EXPECT_DOUBLE_EQ(*frac, tuner.options().min_fraction);
}

TEST(TunerEq4Test, HigherQpsNeedsMoreGpu) {
  Tuner tuner;
  auto curve = CurveForBatch(128);
  auto lo = tuner.MinimalFraction(curve, 128, 100.0, 200.0);
  auto hi = tuner.MinimalFraction(curve, 128, 300.0, 200.0);
  ASSERT_TRUE(lo.has_value());
  ASSERT_TRUE(hi.has_value());
  EXPECT_GE(*hi, *lo);
}

// ---------------------------------------------------------------------------
// TuneOnPlacement
// ---------------------------------------------------------------------------

TEST(TunerPlacementTest, PicksFeasibleBatchMinimizingObjective) {
  Tuner tuner;
  // Objective favors batch 128 (U-shaped).
  auto objective = [](int b) {
    return std::abs(std::log2(static_cast<double>(b)) - 7.0) * 10.0 + 50.0;
  };
  auto result = tuner.TuneOnPlacement(CurveForBatch, objective, ProfilingBatchSizes(), 200.0,
                                      330.0);
  ASSERT_TRUE(result.feasible);
  EXPECT_EQ(result.batch, 128);
  EXPECT_GT(result.inference_fraction, 0.0);
  EXPECT_LE(result.inference_fraction, tuner.options().max_fraction);
  EXPECT_LE(result.bo_iterations, tuner.options().bo.max_iterations);
  EXPECT_GT(result.tuning_time_ms, 0.0);
}

TEST(TunerPlacementTest, AppliesTenPercentMargin) {
  Tuner tuner;
  auto objective = [](int) { return 100.0; };
  auto result =
      tuner.TuneOnPlacement(CurveForBatch, objective, ProfilingBatchSizes(), 200.0, 330.0);
  ASSERT_TRUE(result.feasible);
  auto raw = tuner.MinimalFraction(CurveForBatch(result.batch), result.batch, 200.0, 330.0);
  ASSERT_TRUE(raw.has_value());
  EXPECT_NEAR(result.inference_fraction,
              std::clamp(*raw * 1.1, tuner.options().min_fraction,
                         tuner.options().max_fraction),
              1e-9);
}

TEST(TunerPlacementTest, InfeasibleWhenNoBatchWorks) {
  Tuner tuner;
  auto result = tuner.TuneOnPlacement(CurveForBatch, [](int) { return 1.0; },
                                      ProfilingBatchSizes(), 10000.0, 20.0);
  EXPECT_FALSE(result.feasible);
}

TEST(TunerPlacementTest, SkipsInfeasibleBatches) {
  Tuner tuner;
  // Headroom-inflated budget = 200·b/(400·1.1) ≈ 0.4545b while best-case
  // latency ≈ 0.388b + 4.85: batches below ~73 are infeasible. The objective
  // prefers the smallest batch, so the tuner must settle on the smallest
  // *feasible* one (128).
  auto objective = [](int b) { return static_cast<double>(b); };
  auto result = tuner.TuneOnPlacement(CurveForBatch, objective, ProfilingBatchSizes(), 400.0,
                                      200.0);
  ASSERT_TRUE(result.feasible);
  EXPECT_FALSE(tuner.BatchFeasible(CurveForBatch(16), 16, 400.0, 200.0));
  EXPECT_FALSE(tuner.BatchFeasible(CurveForBatch(64), 64, 400.0, 200.0));
  EXPECT_EQ(result.batch, 128);
  EXPECT_TRUE(
      tuner.BatchFeasible(CurveForBatch(result.batch), result.batch, 400.0, 200.0));
}

// ---------------------------------------------------------------------------
// TuneOnQpsChange
// ---------------------------------------------------------------------------

TEST(TunerQpsChangeTest, RetunesToFeasibleConfig) {
  Tuner tuner;
  auto objective = [](int b) { return 1000.0 / b; };
  auto result = tuner.TuneOnQpsChange(CurveForBatch, objective, ProfilingBatchSizes(),
                                      /*current_batch=*/64, 250.0, 330.0);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(tuner.BatchFeasible(CurveForBatch(result.batch), result.batch, 250.0, 330.0));
}

TEST(TunerQpsChangeTest, FallsBackToCurrentBatchWhenSearchFails) {
  Tuner::Options options;
  Tuner tuner(options);
  // Construct a case where only the current batch is feasible: curve family
  // returns infeasible-everywhere except batch 512 at lenient SLO... use a
  // custom provider: batch != 512 → terrible latency.
  auto curves = [](int batch) {
    PiecewiseLinearModel m = CurveForBatch(batch);
    if (batch != 512) {
      m.y0 = 1e9;  // infeasible
      m.k1 = -1.0;
      m.k2 = -0.1;
    }
    return m;
  };
  auto result = tuner.TuneOnQpsChange(curves, [](int) { return 1.0; }, ProfilingBatchSizes(),
                                      /*current_batch=*/512, 200.0, 330.0);
  EXPECT_TRUE(result.feasible);
  EXPECT_EQ(result.batch, 512);
}

// ---------------------------------------------------------------------------
// MemoryManager
// ---------------------------------------------------------------------------

TrainingInstance Resident(int id, double mem, double swapped = 0.0) {
  TrainingInstance t;
  t.task_id = id;
  t.mem_required_mb = mem;
  t.mem_swapped_mb = swapped;
  t.gpu_fraction = 0.3;
  return t;
}

TEST(MemoryManagerTest, SwapsOutOnDeficit) {
  GpuDevice dev(0, 10000.0);
  InferenceInstance inf;
  inf.service_index = 0;
  inf.batch_size = 64;
  inf.gpu_fraction = 0.5;
  inf.mem_required_mb = 7000.0;
  dev.PlaceInference(inf);
  dev.AddTraining(Resident(1, 6000.0));

  MemoryManager manager;
  double transfer = manager.Rebalance(dev, 100.0);
  EXPECT_GT(transfer, 0.0);
  EXPECT_LE(dev.MemoryDeficitMb(), 1e-6);
  EXPECT_GT(dev.FindTraining(1)->mem_swapped_mb, 0.0);
  ASSERT_EQ(manager.records().size(), 1u);
  EXPECT_TRUE(manager.records()[0].to_host);
  EXPECT_DOUBLE_EQ(manager.records()[0].time_ms, 100.0);
}

TEST(MemoryManagerTest, KeepsMinimumResident) {
  GpuDevice dev(0, 1000.0);
  InferenceInstance inf;
  inf.service_index = 0;
  inf.batch_size = 64;
  inf.gpu_fraction = 0.5;
  inf.mem_required_mb = 950.0;
  dev.PlaceInference(inf);
  dev.AddTraining(Resident(1, 2000.0));

  MemoryManager::Options options;
  options.min_resident_fraction = 0.15;
  MemoryManager manager(options);
  manager.Rebalance(dev, 0.0);
  // Cannot evict below 15% of the working set even if still over capacity.
  EXPECT_GE(dev.FindTraining(1)->mem_resident_mb(), 0.15 * 2000.0 - 1e-6);
}

TEST(MemoryManagerTest, SwapsBackInWithHeadroom) {
  GpuDevice dev(0, 20000.0);
  dev.AddTraining(Resident(1, 6000.0, /*swapped=*/4000.0));
  MemoryManager manager;
  double transfer = manager.Rebalance(dev, 5.0);
  EXPECT_GT(transfer, 0.0);
  EXPECT_DOUBLE_EQ(dev.FindTraining(1)->mem_swapped_mb, 0.0);
  ASSERT_FALSE(manager.records().empty());
  EXPECT_FALSE(manager.records().back().to_host);
}

TEST(MemoryManagerTest, NoOpWhenBalanced) {
  GpuDevice dev(0, 20000.0);
  dev.AddTraining(Resident(1, 5000.0));
  MemoryManager manager;
  EXPECT_DOUBLE_EQ(manager.Rebalance(dev, 0.0), 0.0);
  EXPECT_TRUE(manager.records().empty());
}

TEST(MemoryManagerTest, TransferTimeMatchesBandwidth) {
  GpuDevice dev(0, 1000.0);
  dev.AddTraining(Resident(1, 2200.0));
  MemoryManager::Options options;
  options.pcie_mb_per_ms = 10.0;
  options.swap_in_headroom_mb = 1e9;  // disable swap-in
  MemoryManager manager(options);
  double transfer = manager.Rebalance(dev, 0.0);
  double swapped = dev.FindTraining(1)->mem_swapped_mb;
  EXPECT_NEAR(transfer, swapped / 10.0, 1e-9);
}

TEST(MemoryManagerTest, SwapSlowdownGrowsWithSwappedFraction) {
  TrainingInstance t = Resident(1, 1000.0);
  EXPECT_DOUBLE_EQ(SwapSlowdownFactor(t), 1.0);
  t.mem_swapped_mb = 500.0;
  double half = SwapSlowdownFactor(t);
  t.mem_swapped_mb = 900.0;
  double most = SwapSlowdownFactor(t);
  EXPECT_GT(half, 1.0);
  EXPECT_GT(most, half);
  EXPECT_LT(most, 3.0);
}

// Randomized invariant sweep: arbitrary sequences of placements, removals,
// inference growth/shrink, and rebalances must keep the accounting sane.
TEST(MemoryManagerTest, RandomizedOperationsKeepInvariants) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    GpuDevice dev(0, 40960.0);
    InferenceInstance inf;
    inf.service_index = 0;
    inf.batch_size = 64;
    inf.gpu_fraction = 0.5;
    inf.mem_required_mb = 4000.0;
    dev.PlaceInference(inf);
    MemoryManager manager;
    int next_id = 0;
    for (int step = 0; step < 60; ++step) {
      double action = rng.Uniform();
      if (action < 0.35) {
        TrainingInstance t = Resident(next_id++, rng.Uniform(2000.0, 28000.0));
        dev.AddTraining(t);
      } else if (action < 0.5 && !dev.trainings().empty()) {
        size_t idx = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(dev.trainings().size()) - 1));
        dev.RemoveTraining(dev.trainings()[idx].task_id);
      } else if (action < 0.7) {
        dev.mutable_inference().mem_required_mb = rng.Uniform(1000.0, 25000.0);
      }
      double transfer = manager.Rebalance(dev, static_cast<TimeMs>(step));
      EXPECT_GE(transfer, 0.0);
      double total_min_resident = 0.0;
      for (const auto& t : dev.trainings()) {
        // Swap state within bounds per task.
        EXPECT_GE(t.mem_swapped_mb, -1e-9);
        EXPECT_LE(t.mem_swapped_mb, t.mem_required_mb + 1e-9);
        EXPECT_GE(SwapSlowdownFactor(t), 1.0);
        total_min_resident += 0.15 * t.mem_required_mb;
      }
      // After a rebalance the device fits unless even minimum residents plus
      // the pinned inference memory exceed capacity.
      double floor = dev.inference().mem_required_mb + total_min_resident;
      if (floor <= dev.memory_mb()) {
        EXPECT_LE(dev.MemoryDeficitMb(), 1e-6) << "trial " << trial << " step " << step;
      }
    }
  }
}

TEST(MemoryManagerTest, LargestResidentEvictedFirst) {
  GpuDevice dev(0, 10000.0);
  dev.AddTraining(Resident(1, 3000.0));
  dev.AddTraining(Resident(2, 9000.0));
  MemoryManager manager;
  manager.Rebalance(dev, 0.0);
  // Deficit is 2000: the 9000-MB task absorbs all of it.
  EXPECT_DOUBLE_EQ(dev.FindTraining(1)->mem_swapped_mb, 0.0);
  EXPECT_NEAR(dev.FindTraining(2)->mem_swapped_mb, 2000.0, 1e-6);
}

}  // namespace
}  // namespace mudi
