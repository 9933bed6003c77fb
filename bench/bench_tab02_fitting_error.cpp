// Tab. 2 reproduction: fitting error (%) of polynomial vs MLP vs piece-wise
// linear latency models as profiling samples grow from 5 to 9, averaged over
// three representative models (ResNet50, GPT2, BERT) with held-out points.
//
// Paper shape: piece-wise linear wins below 10 samples (10.03 → 3.78 as
// samples grow 5 → 9), with a marked error drop from 5 to 6 samples;
// polynomial and MLP need more data.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/table.h"
#include "src/gpu/perf_oracle.h"
#include "src/ml/mlp.h"
#include "src/ml/piecewise_linear.h"
#include "src/ml/polynomial.h"

namespace {

using namespace mudi;

// Dense GPU% grid; training points are chosen evenly from it, the rest test.
std::vector<double> DenseGrid() {
  std::vector<double> g;
  for (double v = 0.10; v <= 0.901; v += 0.05) {
    g.push_back(v);
  }
  return g;
}

double MeanAbsPctError(const std::vector<double>& pred, const std::vector<double>& truth) {
  double total = 0.0;
  for (size_t i = 0; i < pred.size(); ++i) {
    total += std::abs(pred[i] - truth[i]) / truth[i];
  }
  return 100.0 * total / static_cast<double>(pred.size());
}

}  // namespace

int main() {
  PerfOracle oracle(42);
  Rng rng(11);
  const std::vector<const char*> models{"ResNet50", "GPT2", "BERT"};
  const auto& training = ModelZoo::TrainingTaskByName("VGG16");
  std::vector<ColocatedTraining> colocated{{&training, 0.5}};

  Table table({"Model \\ Samples", "5", "6", "7", "8", "9"});
  std::vector<std::vector<double>> errors(3, std::vector<double>(5, 0.0));

  auto grid = DenseGrid();
  int trials = 0;
  for (const char* name : models) {
    const InferenceServiceSpec& service = ModelZoo::InferenceServiceByName(name);
    for (int b : {128, 256, 512}) {
      // Noisy observations along the dense grid; truth = noise-free oracle.
      std::vector<double> observed, truth;
      for (double g : grid) {
        observed.push_back(
            oracle.ObserveInferenceBatchLatency(service, b, g, colocated, rng).total_ms());
        truth.push_back(oracle.InferenceBatchLatency(service, b, g, colocated).total_ms());
      }
      for (size_t s = 0; s < 5; ++s) {
        size_t samples = 5 + s;
        // Evenly spaced training subset.
        std::vector<double> tx, ty;
        std::vector<size_t> train_idx;
        for (size_t i = 0; i < samples; ++i) {
          size_t idx = i * (grid.size() - 1) / (samples - 1);
          train_idx.push_back(idx);
          tx.push_back(grid[idx]);
          ty.push_back(observed[idx]);
        }
        // Held-out evaluation points.
        std::vector<double> ex;
        std::vector<double> etruth;
        for (size_t i = 0; i < grid.size(); ++i) {
          bool used = false;
          for (size_t idx : train_idx) {
            used |= idx == i;
          }
          if (!used) {
            ex.push_back(grid[i]);
            etruth.push_back(truth[i]);
          }
        }
        // Polynomial (degree 2).
        PolynomialModel poly = PolynomialModel::Fit(tx, ty, 2);
        std::vector<double> poly_pred;
        for (double g : ex) {
          poly_pred.push_back(poly.Eval(g));
        }
        errors[0][s] += MeanAbsPctError(poly_pred, etruth);
        // MLP.
        MlpOptions mlp_options;
        mlp_options.epochs = 250;
        MlpRegressor mlp(mlp_options);
        std::vector<std::vector<double>> mx;
        for (double g : tx) {
          mx.push_back({g});
        }
        mlp.Fit(mx, ty);
        std::vector<double> mlp_pred;
        for (double g : ex) {
          mlp_pred.push_back(mlp.Predict({g}));
        }
        errors[1][s] += MeanAbsPctError(mlp_pred, etruth);
        // Piece-wise linear (Eq. 1).
        PiecewiseLinearModel pw = FitPiecewiseLinear(tx, ty);
        std::vector<double> pw_pred;
        for (double g : ex) {
          pw_pred.push_back(pw.Eval(g));
        }
        errors[2][s] += MeanAbsPctError(pw_pred, etruth);
      }
      ++trials;
    }
  }

  const char* row_names[3] = {"Polynomial fitting", "MLP fitting", "Piece-wise linear"};
  for (int m = 0; m < 3; ++m) {
    std::vector<std::string> row{row_names[m]};
    for (size_t s = 0; s < 5; ++s) {
      row.push_back(Table::Num(errors[static_cast<size_t>(m)][s] / trials, 2));
    }
    table.AddRow(row);
  }
  std::printf("== Tab. 2: fitting error (%%) vs number of training samples ==\n%s\n",
              table.ToString().c_str());
  std::printf("Paper: piece-wise 10.03/6.41/4.27/3.91/3.78; polynomial 9.81→5.53; MLP ~7.\n"
              "Expected shape: piece-wise linear best from 6 samples on, with a clear\n"
              "drop from 5 to 6 samples.\n");
  return 0;
}
