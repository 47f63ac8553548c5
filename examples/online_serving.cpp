// Online-serving demo (§III.C in miniature): build a two-domain financial
// serving world, train NMCDR offline on the pairwise scenario, freeze it
// into a serving snapshot, and deploy the frozen ScoreEngine in a
// three-group A/B test — Control (popularity), random, and NMCDR — then
// hammer a ClusterServer over the snapshot (one shard) with a burst of
// mixed requests (including cross-domain cold-start users) and print its
// served count and latency quantiles.
//
//   ./build/examples/online_serving

#include <cstdio>
#include <future>
#include <memory>
#include <utility>

#include "core/nmcdr_model.h"
#include "obs/metrics.h"
#include "serving/ab_test.h"
#include "serving/cluster/cluster_server.h"
#include "serving/cluster/shard_layout.h"
#include "serving/cluster/sharded_snapshot.h"
#include "serving/model_snapshot.h"
#include "serving/score_engine.h"
#include "train/experiment.h"
#include "util/table_printer.h"

int main() {
  using namespace nmcdr;

  // 1. A small Loan/Fund world with a shared person population.
  std::vector<ServingWorld::DomainSpec> specs(2);
  specs[0].data = {"Loan", 0, 50, 6.0, 0.9};
  specs[0].target_base_cvr = 0.10;
  specs[1].data = {"Fund", 0, 35, 4.0, 0.9};
  specs[1].target_base_cvr = 0.06;
  ServingWorld world(specs, /*num_persons=*/900,
                     /*membership_prob=*/{0.85, 0.35},
                     /*latent_dim=*/8, /*preference_sharpness=*/4.5,
                     /*seed=*/5);
  for (int d = 0; d < world.num_domains(); ++d) {
    std::printf("  %s\n", DomainStatsString(world.domain(d)).c_str());
  }

  // 2. Offline training of NMCDR on the pairwise projection.
  ExperimentData data(world.MakePairScenario(0, 1), /*seed=*/7);
  NmcdrConfig config;
  config.hidden_dim = 16;
  auto model = std::make_unique<NmcdrModel>(data.View(), config, 42, 2e-3f);
  TrainConfig train;
  train.min_total_steps = 900;
  train.eval_every = -1;
  train.early_stop_patience = 3;
  Trainer trainer(data.View(), train, &data.full_graph_z(),
                  &data.full_graph_zbar());
  const TrainSummary summary = trainer.Train(model.get());
  std::printf("trained NMCDR for %d epochs (%.1fs)\n", summary.epochs_run,
              summary.train_seconds);

  // 3. Freeze the trained model into an autograd-free serving snapshot:
  // all online traffic below is scored by the ScoreEngine, never by the
  // training graph.
  ModelSnapshot snapshot;
  if (!ModelSnapshot::FreezePair(model.get(), data.scenario(), &snapshot)) {
    std::fprintf(stderr, "freeze failed\n");
    return 1;
  }
  ScoreEngine engine(&snapshot);
  std::printf("frozen snapshot: %d domains, %d persons\n",
              snapshot.num_domains(), snapshot.num_persons());

  // 4. Deploy: 3 groups share traffic for 8 days; the NMCDR group serves
  // from the frozen engine.
  Ranker nmcdr_ranker = [&engine](int domain, int user,
                                  const std::vector<int>& candidates) {
    return engine.ScoreCandidates(domain, user, candidates);
  };
  Rng noise(13);
  Ranker random_ranker = [&noise](int, int, const std::vector<int>& cands) {
    std::vector<float> s(cands.size());
    for (float& v : s) v = static_cast<float>(noise.UniformDouble());
    return s;
  };
  AbTestConfig ab;
  ab.days = 8;
  ab.impressions_per_day_per_domain = 1200;
  const std::vector<GroupResult> results =
      RunAbTest(world,
                {{"Random", random_ranker},
                 {"Control (popularity)", PopularityRanker(world)},
                 {"NMCDR (frozen engine)", nmcdr_ranker}},
                ab);

  TablePrinter table;
  table.SetHeader({"Group", "Loan CVR", "Fund CVR"});
  for (const GroupResult& r : results) {
    table.AddRow({r.name, FormatFloat(r.cvr[0] * 100, 2) + "%",
                  FormatFloat(r.cvr[1] * 100, 2) + "%"});
  }
  std::printf("%s", table.ToString().c_str());

  const ScoreEngine::Counters ab_counters = engine.counters();
  std::printf("engine during A/B test: %lld requests, %lld pairs scored\n",
              static_cast<long long>(ab_counters.requests),
              static_cast<long long>(ab_counters.pairs_scored));

  // 5. Concurrent serving burst: up to 4 drainers on the shared pool
  // score a queue of top-10 retrievals, a third of them cross-domain (Fund
  // users asking for Loan recommendations — cold-start for users without
  // a Loan account).
  cluster::ClusterServer::Options server_options;
  server_options.num_threads = 4;
  server_options.max_batch = 8;
  cluster::ClusterServer server(
      std::make_shared<const cluster::ShardedSnapshot>(
          snapshot, cluster::ShardLayout::Uniform(snapshot, 1)),
      server_options);
  std::vector<std::future<cluster::ClusterResponse>> futures;
  const int burst = 600;
  futures.reserve(burst);
  for (int i = 0; i < burst; ++i) {
    cluster::ClusterRequest request;
    if (i % 3 == 0) {
      request.rec.target_domain = 0;  // Loan recommendations...
      request.rec.user_domain = 1;    // ...for Fund users
      request.rec.user = i % world.NumUsers(1);
    } else {
      request.rec.target_domain = request.rec.user_domain = i % 2;
      request.rec.user = i % world.NumUsers(request.rec.user_domain);
    }
    request.rec.k = 10;
    futures.push_back(server.Submit(std::move(request)));
  }
  int64_t served = 0;
  int64_t cold = 0;
  for (auto& future : futures) {
    const cluster::ClusterResponse response = future.get();
    if (response.status != cluster::ClusterStatus::kOk) continue;
    ++served;
    if (response.rec.cold_start) ++cold;
  }
  server.Stop();
  const obs::Histogram& latency =
      server.metrics_registry().GetLatencyHistogram(
          "cluster.latency_ms.interactive");
  std::printf("\nburst of %d top-10 requests: %lld served (%lld cold-start)\n",
              burst, static_cast<long long>(served),
              static_cast<long long>(cold));
  std::printf("latency ms: mean %.3f, p50 %.3f, p95 %.3f, p99 %.3f, "
              "max %.3f\n",
              latency.Mean(), latency.Quantile(0.50), latency.Quantile(0.95),
              latency.Quantile(0.99), latency.Max());
  return 0;
}
