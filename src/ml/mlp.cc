#include "src/ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "src/common/check.h"
#include "src/common/float_eq.h"
#include "src/common/rng.h"
#include "src/common/stats.h"

namespace mudi {

namespace {

constexpr size_t kH = MlpRegressor::kHiddenUnits;
constexpr double kBeta1 = 0.9, kBeta2 = 0.999, kEps = 1e-8;

// Per-step Adam constants: learning rate and bias corrections 1 - beta^t.
struct AdamStep {
  double lr;
  double bc1;
  double bc2;
};

// One Adam step on N contiguous parameters whose gradients are g[k] * scale.
// Each element sees exactly the scalar expression sequence of a textbook
// per-weight Adam update, so vectorizing the loop cannot change a bit. Once
// bc1 has rounded to exactly 1.0 (kBc1IsOne), m / bc1 == m for every double
// and the division is dropped.
template <size_t N, bool kBc1IsOne>
void AdamUpdate(double* __restrict w, double* __restrict m, double* __restrict v,
                const double* __restrict g, double scale, const AdamStep& s) {
  for (size_t k = 0; k < N; ++k) {
    double grad = g[k] * scale;
    m[k] = kBeta1 * m[k] + (1.0 - kBeta1) * grad;
    v[k] = kBeta2 * v[k] + (1.0 - kBeta2) * grad * grad;
    const double m_hat = kBc1IsOne ? m[k] : m[k] / s.bc1;
    w[k] -= s.lr * m_hat / (std::sqrt(v[k] / s.bc2) + kEps);
  }
}

// z = b1 + W1·x over the input-major hidden layer, summing each unit's
// inputs in j order.
void HiddenPreActivation(const double* __restrict w1t, const double* __restrict b1,
                         const double* __restrict x, size_t d, double* __restrict z) {
  for (size_t u = 0; u < kH; ++u) {
    z[u] = b1[u];
  }
  for (size_t j = 0; j < d; ++j) {
    const double xj = x[j];
    const double* row = w1t + j * kH;
    for (size_t u = 0; u < kH; ++u) {
      z[u] += row[u] * xj;
    }
  }
}

}  // namespace

void MlpRegressor::Fit(const std::vector<std::vector<double>>& x, const std::vector<double>& y) {
  MUDI_CHECK(!x.empty());
  MUDI_CHECK_EQ(x.size(), y.size());
  scaler_.Fit(x);
  const size_t n = x.size();
  const size_t d = x[0].size();
  // Scaled rows, row-major in one n × d buffer.
  std::vector<double> xs;
  xs.reserve(n * d);
  for (const auto& row : x) {
    auto q = scaler_.Transform(row);
    xs.insert(xs.end(), q.begin(), q.end());
  }

  y_mean_ = Mean(y);
  double sd = StdDev(y);
  y_scale_ = sd > 1e-9 ? sd : 1.0;
  std::vector<double> yn(n);
  for (size_t i = 0; i < n; ++i) {
    yn[i] = (y[i] - y_mean_) / y_scale_;
  }

  Rng rng(options_.seed);
  double init = 1.0 / std::sqrt(static_cast<double>(d));
  w1t_.assign(d * kH, 0.0);
  b1_.fill(0.0);
  b2_ = 0.0;
  // Draw order is unit-major (all of unit u's inputs, then its output weight).
  for (size_t u = 0; u < kH; ++u) {
    for (size_t j = 0; j < d; ++j) {
      w1t_[j * kH + u] = rng.Uniform(-init, init);
    }
    w2_[u] = rng.Uniform(-init, init);
  }

  // Adam state, laid out like the parameters.
  std::vector<double> m_w1(d * kH, 0.0), v_w1(d * kH, 0.0);
  Units m_b1{}, v_b1{}, m_w2{}, v_w2{};
  double m_b2 = 0.0, v_b2 = 0.0;

  Units z{}, act{}, delta{};
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = i;
  }

  // w1 rows of inputs that are ±0 on every training row. Their gradient
  // delta[u] * (±0) is ±0 while every delta is finite, and from Adam's +0
  // moments that update is an exact no-op (DESIGN.md §12.5), so `rows` lists
  // only the other inputs until the first step with a non-finite delta.
  // The forward pass still reads every input: dropping a ±0 term can flip
  // the sign of a zero partial sum.
  std::vector<size_t> rows(d);
  size_t num_rows = 0;
  for (size_t j = 0; j < d; ++j) {
    bool all_zero = true;
    for (size_t i = 0; i < n && all_zero; ++i) {
      all_zero = ExactEq(xs[i * d + j], 0.0);
    }
    if (!all_zero) {
      rows[num_rows++] = j;
    }
  }

  // One step's Adam updates, with bc1 == 1 known at compile time.
  auto adam_step = [&](auto bc1_is_one, const AdamStep& s, double err, const double* xi) {
    constexpr bool kBc1IsOne = decltype(bc1_is_one)::value;
    AdamUpdate<1, kBc1IsOne>(&b2_, &m_b2, &v_b2, &err, 1.0, s);
    AdamUpdate<kH, kBc1IsOne>(w2_.data(), m_w2.data(), v_w2.data(), act.data(), err, s);
    AdamUpdate<kH, kBc1IsOne>(b1_.data(), m_b1.data(), v_b1.data(), delta.data(), 1.0, s);
    for (size_t r = 0; r < num_rows; ++r) {
      const size_t j = rows[r];
      AdamUpdate<kH, kBc1IsOne>(w1t_.data() + j * kH, m_w1.data() + j * kH,
                                v_w1.data() + j * kH, delta.data(), xi[j], s);
    }
  };

  int step = 0;
  // 1 - 0.9^t rounds to exactly 1.0 from step 356 on (0.9^t only shrinks),
  // so std::pow for it stops once it has.
  bool bc1_is_one = false;
  // MUDI_HOT_PATH  one SGD step per (epoch, row): the cold Initialize fit
  // runs it ~10^6 times, so the step body stays allocation-free.
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t oi = 0; oi < n; ++oi) {
      const size_t i = order[oi];
      const double* xi = xs.data() + i * d;
      // Forward.
      HiddenPreActivation(w1t_.data(), b1_.data(), xi, d, z.data());
      for (size_t u = 0; u < kH; ++u) {
        act[u] = std::tanh(z[u]);
      }
      double pred = b2_;
      for (size_t u = 0; u < kH; ++u) {
        pred += w2_[u] * act[u];
      }
      double err = pred - yn[i];

      // Backward (squared loss) with Adam updates. delta reads w2 before
      // its update.
      for (size_t u = 0; u < kH; ++u) {
        delta[u] = err * w2_[u] * (1.0 - act[u] * act[u]);
      }
      if (num_rows < d &&
          !std::all_of(delta.begin(), delta.end(), [](double g) { return std::isfinite(g); })) {
        for (size_t j = 0; j < d; ++j) {
          rows[j] = j;
        }
        num_rows = d;
      }
      ++step;
      AdamStep s{options_.learning_rate, 1.0, 1.0 - std::pow(kBeta2, step)};
      if (bc1_is_one) {
        adam_step(std::true_type{}, s, err, xi);
      } else {
        s.bc1 = 1.0 - std::pow(kBeta1, step);
        bc1_is_one = ExactEq(s.bc1, 1.0);
        adam_step(std::false_type{}, s, err, xi);
      }
    }
  }
  // MUDI_HOT_PATH_END
}

double MlpRegressor::Predict(const std::vector<double>& x) const {
  MUDI_CHECK(!w1t_.empty());
  auto q = scaler_.Transform(x);
  Units z{};
  HiddenPreActivation(w1t_.data(), b1_.data(), q.data(), q.size(), z.data());
  double pred = b2_;
  for (size_t u = 0; u < kH; ++u) {
    pred += w2_[u] * std::tanh(z[u]);
  }
  return pred * y_scale_ + y_mean_;
}

}  // namespace mudi
