// Figs. 1 & 2 — the motivating observation: representations learned by
// plain pFL-SimCLR / pFL-BYOL have *fuzzy class boundaries*, both pooled
// across clients (Fig. 1) and within individual clients (Fig. 2).
//
// The paper shows this with 2-D t-SNE scatter plots. Here the same encoders
// are trained, the same embeddings are computed and exported as CSV
// (tsne_*.csv, plottable with any tool), and the figure's visual message is
// quantified: silhouette score / KMeans purity / NMI of the representations
// against true labels — low values = fuzzy boundaries. A random-init encoder
// row calibrates what "no structure" looks like, and Calibre (SimCLR) shows
// the calibrated contrast (paper Fig. 6).
//
// Fig. 2's per-client panel: per-client silhouette next to that client's
// personalized-model accuracy.
#include <iostream>

#include "bench/harness.h"
#include "cluster/quality.h"
#include "core/pfl_ssl.h"

using namespace calibre;

int main() {
  const bench::Scale scale = bench::resolve_scale();
  const bench::Setting setting{"cifar10", "dirichlet", 2, 0.3};
  const bench::Workbench workbench = bench::build_workbench(setting, scale);
  const bench::PooledSamples pooled =
      bench::pool_client_samples(workbench.fed, /*num_clients=*/10,
                                 /*per_client=*/40);

  std::cout << "Figs. 1 & 2 reproduction — representations of 10/"
            << scale.train_clients << " clients, " << setting.label() << "\n";

  std::vector<metrics::RepresentationQuality> quality_rows;
  struct PerClient {
    std::string method;
    std::vector<double> silhouettes;
    std::vector<double> accuracies;
  };
  std::vector<PerClient> per_client_rows;

  for (const std::string& method :
       {std::string("pFL-SimCLR"), std::string("pFL-BYOL"),
        std::string("Calibre (SimCLR)")}) {
    core::PflSsl* pfl = nullptr;
    fl::FlConfig config = workbench.config;
    const auto algorithm = algos::make_algorithm(method, config);
    pfl = dynamic_cast<core::PflSsl*>(algorithm.get());
    const fl::RunResult result = bench::run_algorithm(*algorithm, workbench);

    // Fig. 1: pooled cross-client representation quality + t-SNE export.
    const tensor::Tensor features =
        pfl->extract_features(result.final_state, pooled.x);
    quality_rows.push_back(bench::measure_representation(
        method, features, pooled.labels, pooled.client_ids, "."));

    // Fig. 2: per-client boundary quality vs that client's accuracy.
    PerClient row;
    row.method = method;
    for (int c = 0; c < 3 && c < workbench.fed.num_train_clients(); ++c) {
      const data::Dataset shard = workbench.fed.test_shard(c);
      const tensor::Tensor client_features =
          pfl->extract_features(result.final_state, shard.x);
      row.silhouettes.push_back(
          cluster::silhouette_score(client_features, shard.labels));
      row.accuracies.push_back(
          result.train_accuracies[static_cast<std::size_t>(c)]);
    }
    per_client_rows.push_back(row);
    std::cout << "  " << method << " done\n";
  }

  // Random-encoder reference: what "no training" looks like.
  {
    core::PflSsl random_encoder(workbench.config, ssl::Kind::kSimClr);
    const nn::ModelState init = random_encoder.initialize();
    const tensor::Tensor features =
        random_encoder.extract_features(init, pooled.x);
    quality_rows.push_back(bench::measure_representation(
        "random encoder", features, pooled.labels, pooled.client_ids, ""));
  }

  metrics::print_quality_table(
      std::cout,
      "Fig. 1 — cross-client representation quality (higher = clearer "
      "class boundaries)",
      quality_rows);

  std::cout << "\n== Fig. 2 — per-client boundary quality vs personalized "
               "accuracy ==\n";
  for (const auto& row : per_client_rows) {
    std::cout << "  " << row.method << ":";
    for (std::size_t c = 0; c < row.silhouettes.size(); ++c) {
      std::printf(" client%zu silhouette %.3f acc %.1f%% |", c,
                  row.silhouettes[c], row.accuracies[c] * 100.0);
    }
    std::cout << "\n";
  }
  std::cout << "t-SNE embeddings exported to ./tsne_*.csv\n";
  return 0;
}
