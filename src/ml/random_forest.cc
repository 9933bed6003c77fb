#include "src/ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/check.h"

namespace mudi {

namespace {

struct SplitResult {
  int feature = -1;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::infinity();  // weighted child SSE
};

double SubsetMean(const std::vector<double>& y, const std::vector<size_t>& idx) {
  double sum = 0.0;
  for (size_t i : idx) {
    sum += y[i];
  }
  return idx.empty() ? 0.0 : sum / static_cast<double>(idx.size());
}

double SubsetSse(const std::vector<double>& y, const std::vector<size_t>& idx) {
  double mean = SubsetMean(y, idx);
  double sse = 0.0;
  for (size_t i : idx) {
    sse += (y[i] - mean) * (y[i] - mean);
  }
  return sse;
}

// Per-Fit buffers reused by every node's split search; they grow to the
// bootstrap size once and are never reallocated after that.
struct SplitScratch {
  std::vector<std::pair<double, double>> col;  // (feature value, target)
  std::vector<double> prefix_sum;
  std::vector<double> prefix_sq;
};

SplitResult FindBestSplit(const std::vector<std::vector<double>>& x, const std::vector<double>& y,
                          const std::vector<size_t>& idx, const std::vector<int>& features,
                          size_t min_samples_leaf, SplitScratch* scratch) {
  SplitResult best;
  auto& col = scratch->col;
  auto& prefix_sum = scratch->prefix_sum;
  auto& prefix_sq = scratch->prefix_sq;
  for (int f : features) {
    col.clear();
    for (size_t i : idx) {
      col.emplace_back(x[i][static_cast<size_t>(f)], y[i]);
    }
    std::sort(col.begin(), col.end());
    // Prefix sums enable O(n) evaluation of every split position.
    size_t n = col.size();
    prefix_sum.resize(n + 1);
    prefix_sq.resize(n + 1);
    prefix_sum[0] = 0.0;
    prefix_sq[0] = 0.0;
    for (size_t i = 0; i < n; ++i) {
      prefix_sum[i + 1] = prefix_sum[i] + col[i].second;
      prefix_sq[i + 1] = prefix_sq[i] + col[i].second * col[i].second;
    }
    for (size_t split = min_samples_leaf; split + min_samples_leaf <= n; ++split) {
      if (col[split - 1].first == col[split].first) {
        continue;  // cannot separate equal feature values
      }
      double ls = prefix_sum[split];
      double lq = prefix_sq[split];
      double rs = prefix_sum[n] - ls;
      double rq = prefix_sq[n] - lq;
      double nl = static_cast<double>(split);
      double nr = static_cast<double>(n - split);
      double sse = (lq - ls * ls / nl) + (rq - rs * rs / nr);
      if (sse < best.score) {
        best.score = sse;
        best.feature = f;
        best.threshold = 0.5 * (col[split - 1].first + col[split].first);
      }
    }
  }
  return best;
}

}  // namespace

RandomForestRegressor::RandomForestRegressor(RandomForestOptions options)
    : options_(options) {
  MUDI_CHECK_GT(options_.num_trees, 0u);
  MUDI_CHECK_GT(options_.feature_fraction, 0.0);
  MUDI_CHECK_LE(options_.feature_fraction, 1.0);
}

void RandomForestRegressor::Fit(const std::vector<std::vector<double>>& x,
                                const std::vector<double>& y) {
  MUDI_CHECK(!x.empty());
  MUDI_CHECK_EQ(x.size(), y.size());
  size_t d = x[0].size();
  Rng rng(options_.seed);
  nodes_.clear();
  roots_.clear();

  size_t features_per_split =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(options_.feature_fraction *
                                                        static_cast<double>(d))));
  SplitScratch scratch;
  scratch.col.reserve(x.size());
  std::vector<int> split_features;
  split_features.reserve(d);

  for (size_t t = 0; t < options_.num_trees; ++t) {
    // Bootstrap sample.
    std::vector<size_t> root_idx(x.size());
    for (size_t i = 0; i < x.size(); ++i) {
      root_idx[i] = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(x.size()) - 1));
    }

    // Iterative depth-first construction.
    struct WorkItem {
      std::vector<size_t> idx;
      size_t depth;
      int node_slot;
    };
    std::vector<WorkItem> stack;
    const int root = static_cast<int>(nodes_.size());
    roots_.push_back(root);
    nodes_.emplace_back();
    stack.push_back({std::move(root_idx), 0, root});
    while (!stack.empty()) {
      WorkItem item = std::move(stack.back());
      stack.pop_back();
      Node& node = nodes_[static_cast<size_t>(item.node_slot)];
      node.value = SubsetMean(y, item.idx);
      bool should_split = item.depth < options_.max_depth &&
                          item.idx.size() >= 2 * options_.min_samples_leaf &&
                          SubsetSse(y, item.idx) > 1e-12;
      if (!should_split) {
        continue;
      }
      // Random feature subset for this split: shuffle all d, keep a prefix.
      split_features.resize(d);
      for (size_t j = 0; j < d; ++j) {
        split_features[j] = static_cast<int>(j);
      }
      rng.Shuffle(split_features);
      split_features.resize(features_per_split);

      SplitResult split = FindBestSplit(x, y, item.idx, split_features,
                                        options_.min_samples_leaf, &scratch);
      if (split.feature < 0) {
        continue;
      }
      std::vector<size_t> left_idx, right_idx;
      for (size_t i : item.idx) {
        if (x[i][static_cast<size_t>(split.feature)] <= split.threshold) {
          left_idx.push_back(i);
        } else {
          right_idx.push_back(i);
        }
      }
      if (left_idx.size() < options_.min_samples_leaf ||
          right_idx.size() < options_.min_samples_leaf) {
        continue;
      }
      int left_slot = static_cast<int>(nodes_.size());
      nodes_.emplace_back();
      int right_slot = static_cast<int>(nodes_.size());
      nodes_.emplace_back();
      // `node` reference may be invalidated by the emplace_backs above.
      Node& fresh = nodes_[static_cast<size_t>(item.node_slot)];
      fresh.feature = split.feature;
      fresh.threshold = split.threshold;
      fresh.left = left_slot;
      fresh.right = right_slot;
      stack.push_back({std::move(left_idx), item.depth + 1, left_slot});
      stack.push_back({std::move(right_idx), item.depth + 1, right_slot});
    }
  }
}

double RandomForestRegressor::Predict(const std::vector<double>& x) const {
  MUDI_CHECK(!roots_.empty());
  double sum = 0.0;
  for (int root : roots_) {
    const Node* n = &nodes_[static_cast<size_t>(root)];
    while (n->feature >= 0) {
      n = &nodes_[static_cast<size_t>(x[static_cast<size_t>(n->feature)] <= n->threshold
                                          ? n->left
                                          : n->right)];
    }
    sum += n->value;
  }
  return sum / static_cast<double>(roots_.size());
}

}  // namespace mudi
