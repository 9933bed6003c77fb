#include "src/ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "src/common/check.h"

namespace mudi {

namespace {

struct SplitResult {
  int feature = -1;
  double threshold = 0.0;
  double score = std::numeric_limits<double>::infinity();  // weighted child SSE
};

// One bootstrap row in a feature's sorted list.
struct SortedEntry {
  double value;   // the row's feature value
  double target;  // the row's target
  size_t row;     // index into the training set
};

// Per-Fit buffers, sized once for the bootstrap sample. A tree's node owns
// the range [begin, end) of `rows` and of every feature's block of `sorted`;
// a split stably partitions each of them into the children's ranges, so
// every range keeps its parent's order.
struct TreeScratch {
  // Bootstrap rows in draw order (the order the node mean and SSE sum in).
  std::vector<size_t> rows;
  // d blocks of n entries: block f is sorted by (value, target), the order
  // std::sort gives the (value, target) pairs of the node's rows.
  std::vector<SortedEntry> sorted;
  std::vector<size_t> rows_spill;
  std::vector<SortedEntry> sorted_spill;
  std::vector<uint8_t> goes_left;  // per training row, for the split in progress
  std::vector<double> prefix_sum;
  std::vector<double> prefix_sq;
};

double SubsetMean(const std::vector<double>& y, const size_t* rows, size_t count) {
  double sum = 0.0;
  for (size_t k = 0; k < count; ++k) {
    sum += y[rows[k]];
  }
  return sum / static_cast<double>(count);
}

double SubsetSse(const std::vector<double>& y, const size_t* rows, size_t count, double mean) {
  double sse = 0.0;
  for (size_t k = 0; k < count; ++k) {
    sse += (y[rows[k]] - mean) * (y[rows[k]] - mean);
  }
  return sse;
}

// Moves the entries of [first, first + count) for which goes_left holds to
// the front, keeping the relative order of both sides.
template <typename T, typename GoesLeft>
void StablePartition(T* first, size_t count, T* spill, GoesLeft goes_left) {
  size_t left = 0;
  size_t right = 0;
  for (size_t k = 0; k < count; ++k) {
    if (goes_left(first[k])) {
      first[left++] = first[k];
    } else {
      spill[right++] = first[k];
    }
  }
  std::copy(spill, spill + right, first + left);
}

// Best variance-reduction split of the node's `count` entries starting at
// offset `begin` of each sorted block (block size `n`), over `features` in
// their given order; ties keep the first (strict `<`).
SplitResult FindBestSplit(const int* features, size_t num_features, size_t n, size_t begin,
                          size_t count, size_t min_samples_leaf, TreeScratch* scratch) {
  SplitResult best;
  double* prefix_sum = scratch->prefix_sum.data();
  double* prefix_sq = scratch->prefix_sq.data();
  for (size_t k = 0; k < num_features; ++k) {
    const int f = features[k];
    const SortedEntry* col = scratch->sorted.data() + static_cast<size_t>(f) * n + begin;
    // Prefix sums enable O(n) evaluation of every split position.
    prefix_sum[0] = 0.0;
    prefix_sq[0] = 0.0;
    for (size_t i = 0; i < count; ++i) {
      prefix_sum[i + 1] = prefix_sum[i] + col[i].target;
      prefix_sq[i + 1] = prefix_sq[i] + col[i].target * col[i].target;
    }
    for (size_t split = min_samples_leaf; split + min_samples_leaf <= count; ++split) {
      if (col[split - 1].value == col[split].value) {
        continue;  // cannot separate equal feature values
      }
      double ls = prefix_sum[split];
      double lq = prefix_sq[split];
      double rs = prefix_sum[count] - ls;
      double rq = prefix_sq[count] - lq;
      double nl = static_cast<double>(split);
      double nr = static_cast<double>(count - split);
      double sse = (lq - ls * ls / nl) + (rq - rs * rs / nr);
      if (sse < best.score) {
        best.score = sse;
        best.feature = f;
        best.threshold = 0.5 * (col[split - 1].value + col[split].value);
      }
    }
  }
  return best;
}

}  // namespace

RandomForestRegressor::RandomForestRegressor(RandomForestOptions options)
    : options_(options) {
  MUDI_CHECK_GT(options_.num_trees, 0u);
  MUDI_CHECK_GE(options_.min_samples_leaf, 1u);
  MUDI_CHECK_GT(options_.feature_fraction, 0.0);
  MUDI_CHECK_LE(options_.feature_fraction, 1.0);
}

void RandomForestRegressor::Fit(const std::vector<std::vector<double>>& x,
                                const std::vector<double>& y) {
  MUDI_CHECK(!x.empty());
  MUDI_CHECK_EQ(x.size(), y.size());
  const size_t n = x.size();
  const size_t d = x[0].size();
  const size_t min_leaf = options_.min_samples_leaf;
  Rng rng(options_.seed);
  roots_.assign(options_.num_trees, 0);

  size_t features_per_split =
      std::max<size_t>(1, static_cast<size_t>(std::ceil(options_.feature_fraction *
                                                        static_cast<double>(d))));
  // Every split leaves at least min_samples_leaf rows in each child, and a
  // node at max_depth is a leaf, which bounds a tree's leaves and so its
  // nodes. The work stack never holds more items than the tree has nodes.
  size_t max_leaves = std::max<size_t>(1, n / min_leaf);
  if (options_.max_depth < 64) {
    max_leaves = std::min(max_leaves, size_t{1} << options_.max_depth);
  }
  const size_t max_tree_nodes = 2 * max_leaves - 1;
  nodes_.assign(options_.num_trees * max_tree_nodes, Node{});
  size_t num_nodes = 0;

  TreeScratch scratch;
  scratch.rows.resize(n);
  scratch.sorted.resize(d * n);
  scratch.rows_spill.resize(n);
  scratch.sorted_spill.resize(n);
  scratch.goes_left.resize(n);
  scratch.prefix_sum.resize(n + 1);
  scratch.prefix_sq.resize(n + 1);
  std::vector<int> split_features(d);
  struct WorkItem {
    size_t begin;
    size_t end;
    size_t depth;
    size_t node;
  };
  std::vector<WorkItem> stack(max_tree_nodes);
  const auto row_goes_left = [&scratch](size_t row) { return scratch.goes_left[row] != 0; };
  const auto entry_goes_left = [&scratch](const SortedEntry& e) {
    return scratch.goes_left[e.row] != 0;
  };

  // MUDI_HOT_PATH  one tree per iteration, its nodes in depth-first order:
  // the cold Initialize fit grows ~5 000 trees, all in the buffers above.
  for (size_t t = 0; t < options_.num_trees; ++t) {
    // Bootstrap sample.
    for (size_t i = 0; i < n; ++i) {
      scratch.rows[i] = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    }
    // Presort: each feature's entries by (value, target), once per tree.
    for (size_t f = 0; f < d; ++f) {
      SortedEntry* block = scratch.sorted.data() + f * n;
      for (size_t i = 0; i < n; ++i) {
        const size_t row = scratch.rows[i];
        block[i] = {x[row][f], y[row], row};
      }
      std::sort(block, block + n, [](const SortedEntry& a, const SortedEntry& b) {
        return a.value < b.value || (!(b.value < a.value) && a.target < b.target);
      });
    }

    // Iterative depth-first construction.
    const size_t root = num_nodes++;
    roots_[t] = static_cast<int>(root);
    size_t top = 0;
    stack[top++] = {0, n, 0, root};
    while (top > 0) {
      const WorkItem item = stack[--top];
      const size_t count = item.end - item.begin;
      const size_t* rows = scratch.rows.data() + item.begin;
      const double mean = SubsetMean(y, rows, count);
      nodes_[item.node].value = mean;
      bool should_split = item.depth < options_.max_depth && count >= 2 * min_leaf &&
                          SubsetSse(y, rows, count, mean) > 1e-12;
      if (!should_split) {
        continue;
      }
      // Random feature subset for this split: shuffle all d, keep a prefix.
      for (size_t j = 0; j < d; ++j) {
        split_features[j] = static_cast<int>(j);
      }
      rng.Shuffle(split_features);

      SplitResult split = FindBestSplit(split_features.data(), features_per_split, n,
                                        item.begin, count, min_leaf, &scratch);
      if (split.feature < 0) {
        continue;
      }
      size_t left = 0;
      for (size_t k = 0; k < count; ++k) {
        const size_t row = rows[k];
        const bool goes_left = x[row][static_cast<size_t>(split.feature)] <= split.threshold;
        scratch.goes_left[row] = goes_left ? 1 : 0;
        left += goes_left ? 1 : 0;
      }
      if (left < min_leaf || count - left < min_leaf) {
        continue;
      }
      StablePartition(scratch.rows.data() + item.begin, count, scratch.rows_spill.data(),
                      row_goes_left);
      for (size_t f = 0; f < d; ++f) {
        StablePartition(scratch.sorted.data() + f * n + item.begin, count,
                        scratch.sorted_spill.data(), entry_goes_left);
      }
      const size_t left_node = num_nodes++;
      const size_t right_node = num_nodes++;
      Node& node = nodes_[item.node];
      node.feature = split.feature;
      node.threshold = split.threshold;
      node.left = static_cast<int>(left_node);
      node.right = static_cast<int>(right_node);
      const size_t mid = item.begin + left;
      stack[top++] = {item.begin, mid, item.depth + 1, left_node};
      stack[top++] = {mid, item.end, item.depth + 1, right_node};
    }
  }
  // MUDI_HOT_PATH_END
  // A fitted model keeps only its nodes: cached winners outlive the fit.
  nodes_.resize(num_nodes);
  nodes_.shrink_to_fit();
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
