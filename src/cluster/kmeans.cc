#include "cluster/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "tensor/kernels.h"

namespace calibre::cluster {
namespace {

using tensor::Tensor;

// Argmin scan over a row-major [n, k] distance matrix: writes the best
// centroid per row and (optionally) the best squared distance. Raw pointers
// — this runs on every KMeans iteration and every prototype assignment.
void argmin_rows(const float* dists, std::int64_t n, std::int64_t k,
                 int* assignments, float* best_sq) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = dists + i * k;
    float best = row[0];
    std::int64_t arg = 0;
    for (std::int64_t c = 1; c < k; ++c) {
      if (row[c] < best) {
        best = row[c];
        arg = c;
      }
    }
    assignments[i] = static_cast<int>(arg);
    if (best_sq != nullptr) best_sq[i] = best;
  }
}

// Mean Euclidean distance from n squared distances.
float mean_distance(const float* best_sq, std::int64_t n) {
  double total_distance = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    total_distance += std::sqrt(static_cast<double>(best_sq[i]));
  }
  return n == 0 ? 0.0f : static_cast<float>(total_distance / n);
}

// means[k, cols] = per-cluster mean of the rows of `points`, counts[k] = the
// cluster sizes; both are overwritten. Empty clusters get a zero row.
void cluster_means_into(const Tensor& points, const int* assignments, int k,
                        float* means, int* counts) {
  const std::int64_t cols = points.cols();
  std::fill(means, means + k * cols, 0.0f);
  std::fill(counts, counts + k, 0);
  for (std::int64_t i = 0; i < points.rows(); ++i) {
    const int a = assignments[i];
    CALIBRE_CHECK(a >= 0 && a < k);
    ++counts[a];
    const float* prow = points.data() + i * cols;
    float* mrow = means + a * cols;
    for (std::int64_t c = 0; c < cols; ++c) mrow[c] += prow[c];
  }
  for (int a = 0; a < k; ++a) {
    if (counts[a] > 0) {
      const float inv = 1.0f / static_cast<float>(counts[a]);
      float* mrow = means + static_cast<std::int64_t>(a) * cols;
      for (std::int64_t c = 0; c < cols; ++c) mrow[c] *= inv;
    }
  }
}

// Every buffer one kmeans call needs, sized once: seeding and the Lloyd
// iterations allocate nothing.
struct Workspace {
  Workspace(const Tensor& points, int k)
      : point_sq(static_cast<std::size_t>(points.rows()), 0.0f),
        centroid_sq(static_cast<std::size_t>(k)),
        dists(static_cast<std::size_t>(points.rows() * k)),
        best_sq(static_cast<std::size_t>(points.rows())),
        means(static_cast<std::size_t>(k * points.cols())),
        min_sq(static_cast<std::size_t>(points.rows()),
               std::numeric_limits<double>::max()) {
    tensor::kernels::row_sq_norms(points.rows(), points.cols(), points.data(),
                                  point_sq.data());
  }

  // dists[n, kc] = squared distances from every point to the kc centroid
  // rows starting at `centroids` (read in place).
  void distances(const Tensor& points, const float* centroids,
                 std::int64_t kc) {
    std::fill(centroid_sq.begin(), centroid_sq.begin() + kc, 0.0f);
    tensor::kernels::row_sq_norms(kc, points.cols(), centroids,
                                  centroid_sq.data());
    tensor::kernels::sq_dists(points.rows(), points.cols(), kc, points.data(),
                              point_sq.data(), centroids, centroid_sq.data(),
                              dists.data());
  }

  std::vector<float> point_sq;     // [n], fixed for the call
  std::vector<float> centroid_sq;  // [k]
  std::vector<float> dists;        // [n, k]
  std::vector<float> best_sq;      // [n]
  std::vector<float> means;        // [k, D]
  std::vector<double> min_sq;      // [n], k-means++ running minimum
};

// k-means++ seeding into centroids [k, D]: first centroid uniform, the rest
// proportional to the squared distance from the nearest chosen centroid.
// Each round folds the distances to the newest centroid (one GEMM-based
// pairwise column) into the running minimum.
void seed_centroids(const Tensor& points, int k, rng::Generator& gen,
                    Workspace& ws, Tensor& centroids) {
  const std::int64_t n = points.rows();
  const std::int64_t cols = points.cols();
  const std::int64_t first =
      static_cast<std::int64_t>(gen.uniform_index(static_cast<std::uint64_t>(n)));
  std::copy(points.data() + first * cols, points.data() + (first + 1) * cols,
            centroids.data());
  for (int chosen = 1; chosen < k; ++chosen) {
    ws.distances(points, centroids.data() + (chosen - 1) * cols, 1);
    double total = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      double& nearest = ws.min_sq[static_cast<std::size_t>(i)];
      nearest = std::min(
          nearest, static_cast<double>(ws.dists[static_cast<std::size_t>(i)]));
      total += nearest;
    }
    // Degenerate input (fewer distinct points than k): fall back to a
    // uniform draw instead of a zero-weight categorical.
    const std::int64_t next =
        total > 0.0
            ? gen.categorical(ws.min_sq)
            : static_cast<std::int64_t>(
                  gen.uniform_index(static_cast<std::uint64_t>(n)));
    std::copy(points.data() + next * cols, points.data() + (next + 1) * cols,
              centroids.data() + chosen * cols);
  }
}

}  // namespace

KMeansResult kmeans(const tensor::Tensor& points, const KMeansConfig& config,
                    rng::Generator& gen) {
  const std::int64_t n = points.rows();
  CALIBRE_CHECK_MSG(n > 0, "kmeans on empty input");
  const int k = std::max(1, std::min<int>(config.k, static_cast<int>(n)));
  const std::int64_t cols = points.cols();

  Workspace ws(points, k);
  KMeansResult result;
  result.centroids = Tensor::uninit(k, cols);  // seeding fills every row
  seed_centroids(points, k, gen, ws, result.centroids);
  result.assignments.assign(static_cast<std::size_t>(n), 0);
  result.cluster_sizes.assign(static_cast<std::size_t>(k), 0);
  float* centroids = result.centroids.data();

  for (int iter = 0; iter < config.max_iters; ++iter) {
    result.iterations = iter + 1;
    // Assignment step: one GEMM-based [N,K] distance matrix per iteration;
    // the per-point best distance is reused by the empty-cluster reseed.
    ws.distances(points, centroids, k);
    argmin_rows(ws.dists.data(), n, k, result.assignments.data(),
                ws.best_sq.data());
    // Update step.
    cluster_means_into(points, result.assignments.data(), k, ws.means.data(),
                       result.cluster_sizes.data());
    // Reseed empty clusters to the point farthest from its own centroid.
    for (int c = 0; c < k; ++c) {
      if (result.cluster_sizes[static_cast<std::size_t>(c)] > 0) continue;
      const std::int64_t farthest =
          std::max_element(ws.best_sq.begin(), ws.best_sq.end()) -
          ws.best_sq.begin();
      std::copy(points.data() + farthest * cols,
                points.data() + (farthest + 1) * cols,
                ws.means.data() + c * cols);
    }
    // Convergence check on centroid movement.
    double movement = 0.0;
    for (int c = 0; c < k; ++c) {
      const float* old_row = centroids + c * cols;
      const float* new_row = ws.means.data() + c * cols;
      double sq = 0.0;
      for (std::int64_t col = 0; col < cols; ++col) {
        const double d = static_cast<double>(old_row[col]) - new_row[col];
        sq += d * d;
      }
      movement += std::sqrt(sq);
    }
    std::copy(ws.means.begin(), ws.means.end(), centroids);
    if (movement < config.tolerance) break;
  }

  ws.distances(points, centroids, k);
  argmin_rows(ws.dists.data(), n, k, result.assignments.data(),
              ws.best_sq.data());
  result.mean_distance = mean_distance(ws.best_sq.data(), n);
  std::fill(result.cluster_sizes.begin(), result.cluster_sizes.end(), 0);
  for (const int a : result.assignments) {
    ++result.cluster_sizes[static_cast<std::size_t>(a)];
  }
  return result;
}

std::vector<int> assign_to_centroids(const tensor::Tensor& points,
                                     const tensor::Tensor& centroids,
                                     float* mean_distance_out) {
  CALIBRE_CHECK(points.cols() == centroids.cols());
  CALIBRE_CHECK(centroids.rows() > 0);
  const Tensor dists = tensor::pairwise_sq_dists(points, centroids);
  std::vector<int> assignments(static_cast<std::size_t>(points.rows()));
  std::vector<float> best_sq(
      mean_distance_out != nullptr ? assignments.size() : 0);
  argmin_rows(dists.data(), dists.rows(), dists.cols(), assignments.data(),
              mean_distance_out != nullptr ? best_sq.data() : nullptr);
  if (mean_distance_out != nullptr) {
    *mean_distance_out = mean_distance(best_sq.data(), points.rows());
  }
  return assignments;
}

tensor::Tensor cluster_means(const tensor::Tensor& points,
                             const std::vector<int>& assignments, int k) {
  CALIBRE_CHECK(static_cast<std::int64_t>(assignments.size()) == points.rows());
  tensor::Tensor means(k, points.cols());
  std::vector<int> counts(static_cast<std::size_t>(k));
  cluster_means_into(points, assignments.data(), k, means.data(),
                     counts.data());
  return means;
}

}  // namespace calibre::cluster
