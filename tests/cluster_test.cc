// Tests for the serving cluster subsystem (src/serving/cluster):
// ShardLayout round-trips, sharded-vs-monolithic top-K bit-exactness,
// RCU snapshot publishing (including the concurrent 100-version
// hot-swap run that the TSan CI job exercises), admission control, and
// the ClusterServer end to end: bit-exact responses at 1 and 3 shards,
// the Stop/drain protocol, and its cluster.* counters and latency
// histograms.

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/nmcdr_model.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serving/cluster/admission.h"
#include "serving/cluster/cluster_server.h"
#include "serving/cluster/shard_layout.h"
#include "serving/cluster/sharded_snapshot.h"
#include "serving/cluster/snapshot_registry.h"
#include "serving/model_snapshot.h"
#include "serving/score_engine.h"
#include "tests/test_util.h"

namespace nmcdr {
namespace cluster {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// One trained two-domain NMCDR model plus its frozen snapshot, shared by
/// every test in this file (training once keeps the suite fast).
struct PairFixture {
  std::unique_ptr<ExperimentData> data;
  std::unique_ptr<NmcdrModel> model;
  ModelSnapshot snapshot;
};

PairFixture& Pair() {
  static PairFixture* fixture = [] {
    // NMCDR_LINT_ALLOW(naked-new): leaked on purpose — the fixture must
    // survive until the last test and dodge static-destruction order.
    auto* f = new PairFixture;
    f->data = testing_util::TinyData();
    NmcdrConfig config;
    config.hidden_dim = 8;
    f->model = std::make_unique<NmcdrModel>(f->data->View(), config, 1, 5e-3f);
    testing_util::TrainLossTrend(f->model.get(), *f->data, 20);
    EXPECT_TRUE(ModelSnapshot::FreezePair(f->model.get(),
                                          f->data->scenario(), &f->snapshot));
    return f;
  }();
  return *fixture;
}

/// A request mix covering same-domain, cross-domain linked, cross-domain
/// cold-start, and exclusion-list requests over both domains.
std::vector<RecRequest> MixedRequests(const ModelSnapshot& snapshot, int k) {
  std::vector<RecRequest> requests;
  for (int d = 0; d < snapshot.num_domains(); ++d) {
    for (int user = 0; user < snapshot.domain(d).num_users(); ++user) {
      RecRequest same;
      same.target_domain = same.user_domain = d;
      same.user = user;
      same.k = k;
      requests.push_back(same);

      RecRequest cross;
      cross.target_domain = 1 - d;
      cross.user_domain = d;
      cross.user = user;
      cross.k = k;
      requests.push_back(cross);

      RecRequest excluding = same;
      excluding.exclude = {0, user % snapshot.domain(d).num_items()};
      requests.push_back(excluding);
    }
  }
  return requests;
}

void ExpectSameRecommendations(const std::vector<Recommendation>& expected,
                               const std::vector<Recommendation>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].cold_start, actual[i].cold_start) << "request " << i;
    ASSERT_EQ(expected[i].items, actual[i].items) << "request " << i;
    ASSERT_EQ(expected[i].scores.size(), actual[i].scores.size());
    for (size_t j = 0; j < expected[i].scores.size(); ++j) {
      // Bit-exact, not approximately equal: the sharded path runs the
      // same row-independent kernels over the same rows.
      EXPECT_EQ(expected[i].scores[j], actual[i].scores[j])
          << "request " << i << " rank " << j;
    }
  }
}

TEST(ShardLayoutTest, UniformValidatesAndCoversEveryRow) {
  const ModelSnapshot& snapshot = Pair().snapshot;
  for (int shards : {1, 2, 4, 7}) {
    const ShardLayout layout = ShardLayout::Uniform(snapshot, shards);
    std::string error;
    EXPECT_TRUE(layout.Validate(snapshot, &error)) << error;
    for (int d = 0; d < snapshot.num_domains(); ++d) {
      std::vector<int> owners(snapshot.domain(d).num_users());
      for (int u = 0; u < snapshot.domain(d).num_users(); ++u) {
        const int s = layout.UserShard(d, u);
        ASSERT_GE(s, 0);
        ASSERT_LT(s, shards);
        ASSERT_GE(u, layout.domains[d].user_splits[s]);
        ASSERT_LT(u, layout.domains[d].user_splits[s + 1]);
      }
      for (int i = 0; i < snapshot.domain(d).num_items(); ++i) {
        const int s = layout.ItemShard(d, i);
        ASSERT_GE(i, layout.domains[d].item_splits[s]);
        ASSERT_LT(i, layout.domains[d].item_splits[s + 1]);
      }
    }
  }
}

TEST(ShardLayoutTest, JsonRoundTrip) {
  const ShardLayout layout = ShardLayout::Uniform(Pair().snapshot, 3);
  ShardLayout parsed;
  std::string error;
  ASSERT_TRUE(ShardLayout::Parse(layout.ToJson(), &parsed, &error)) << error;
  EXPECT_TRUE(layout.Equals(parsed));
}

TEST(ShardLayoutTest, FileRoundTrip) {
  const ShardLayout layout = ShardLayout::Uniform(Pair().snapshot, 4);
  const std::string path = TempPath("layout.json");
  ASSERT_TRUE(layout.Save(path));
  ShardLayout loaded;
  ASSERT_TRUE(ShardLayout::Load(path, &loaded));
  EXPECT_TRUE(layout.Equals(loaded));
}

TEST(ShardLayoutTest, ParseRejectsMalformedDocuments) {
  ShardLayout out;
  std::string error;
  // Wrong schema tag.
  EXPECT_FALSE(ShardLayout::Parse(
      R"({"schema": "WRONG", "num_shards": 1, "domains": []})", &out,
      &error));
  EXPECT_NE(error.find("schema"), std::string::npos) << error;
  // Truncated.
  EXPECT_FALSE(ShardLayout::Parse(
      R"({"schema": "NMCDR_SHARD_LAYOUT_V1", "num_shards": 2)", &out,
      &error));
  // Split vector of the wrong arity for num_shards.
  EXPECT_FALSE(ShardLayout::Parse(
      R"({"schema": "NMCDR_SHARD_LAYOUT_V1", "num_shards": 2, "domains": [
          {"user_splits": [0, 5], "item_splits": [0, 2, 4]}]})",
      &out, &error));
  // Non-monotone splits.
  EXPECT_FALSE(ShardLayout::Parse(
      R"({"schema": "NMCDR_SHARD_LAYOUT_V1", "num_shards": 2, "domains": [
          {"user_splits": [0, 5, 3], "item_splits": [0, 2, 4]}]})",
      &out, &error));
  // Trailing garbage.
  EXPECT_FALSE(ShardLayout::Parse(
      R"({"schema": "NMCDR_SHARD_LAYOUT_V1", "num_shards": 1,
          "domains": [{"user_splits": [0, 1], "item_splits": [0, 1]}]} x)",
      &out, &error));
}

TEST(ShardLayoutTest, ValidateRejectsMismatchedSnapshot) {
  const ModelSnapshot& snapshot = Pair().snapshot;
  ShardLayout layout = ShardLayout::Uniform(snapshot, 2);
  layout.domains[0].user_splits.back() += 1;  // no longer spans the table
  std::string error;
  EXPECT_FALSE(layout.Validate(snapshot, &error));
  EXPECT_NE(error.find("user_splits"), std::string::npos) << error;
}

TEST(ShardedSnapshotTest, BitExactAcrossShardCountsAndModes) {
  const ModelSnapshot& snapshot = Pair().snapshot;
  const std::vector<RecRequest> requests = MixedRequests(snapshot, 5);
  for (const ScoreEngine::Mode mode :
       {ScoreEngine::Mode::kExact, ScoreEngine::Mode::kFast}) {
    ScoreEngine::Options engine_options;
    engine_options.mode = mode;
    const ScoreEngine engine(&snapshot, engine_options);
    const std::vector<Recommendation> expected = engine.TopKBatch(requests);
    for (int shards : {1, 2, 4, 7}) {
      ShardedSnapshot::Options options;
      options.mode = mode;
      const ShardedSnapshot sharded(
          snapshot, ShardLayout::Uniform(snapshot, shards), options);
      ExpectSameRecommendations(expected, sharded.TopKBatch(requests));
    }
  }
}

TEST(ShardedSnapshotTest, BitExactOnSkewedLayoutWithEmptyShards) {
  const ModelSnapshot& snapshot = Pair().snapshot;
  // Hand-built 3-shard layout: shard 0 owns nothing, shard 1 owns one
  // row, shard 2 the rest (empty ranges are legal and must not perturb
  // results).
  ShardLayout layout;
  layout.num_shards = 3;
  for (int d = 0; d < snapshot.num_domains(); ++d) {
    DomainSplits splits;
    splits.user_splits = {0, 0, 1, snapshot.domain(d).num_users()};
    splits.item_splits = {0, 0, 1, snapshot.domain(d).num_items()};
    layout.domains.push_back(splits);
  }
  std::string error;
  ASSERT_TRUE(layout.Validate(snapshot, &error)) << error;

  const std::vector<RecRequest> requests = MixedRequests(snapshot, 4);
  const ScoreEngine engine(&snapshot);
  const ShardedSnapshot sharded(snapshot, layout);
  ExpectSameRecommendations(engine.TopKBatch(requests),
                            sharded.TopKBatch(requests));
}

TEST(ShardedSnapshotTest, KLargerThanCatalogReturnsEverything) {
  const ModelSnapshot& snapshot = Pair().snapshot;
  const ShardedSnapshot sharded(snapshot, ShardLayout::Uniform(snapshot, 4));
  RecRequest request;
  request.target_domain = request.user_domain = 0;
  request.user = 0;
  request.k = snapshot.domain(0).num_items() + 10;
  const Recommendation rec = sharded.TopK(request);
  EXPECT_EQ(static_cast<int>(rec.items.size()),
            snapshot.domain(0).num_items());
}

TEST(SyntheticSnapshotTest, StructurallyValidAndServable) {
  SyntheticSnapshotSpec spec;
  spec.num_domains = 3;
  spec.users_per_domain = 40;
  spec.items_per_domain = 24;
  spec.dim = 8;
  spec.hidden = 8;
  spec.overlap = 0.25f;
  spec.seed = 11;
  const ModelSnapshot snapshot = ModelSnapshot::MakeSynthetic(spec);
  ASSERT_EQ(snapshot.num_domains(), 3);
  // 40 anchor persons + 2 * 30 unlinked.
  EXPECT_EQ(snapshot.num_persons(), 40 + 2 * 30);
  // Linked users resolve into domain 0; unlinked ones cold-start.
  EXPECT_EQ(snapshot.ResolveUser(1, 3, 0), 3);
  EXPECT_EQ(snapshot.ResolveUser(1, 25, 0), -1);

  // The synthetic snapshot is servable and sharded-bit-exact like a
  // trained one.
  const std::vector<RecRequest> requests = [&] {
    std::vector<RecRequest> out;
    for (int user = 0; user < 8; ++user) {
      RecRequest request;
      request.target_domain = user % 3;
      request.user_domain = (user + 1) % 3;
      request.user = user * 4;
      request.k = 6;
      out.push_back(request);
    }
    return out;
  }();
  const ScoreEngine engine(&snapshot);
  const ShardedSnapshot sharded(snapshot, ShardLayout::Uniform(snapshot, 4));
  ExpectSameRecommendations(engine.TopKBatch(requests),
                            sharded.TopKBatch(requests));
}

TEST(SnapshotRegistryTest, PublishBumpsVersionAndRetiresOldSnapshots) {
  const ModelSnapshot& source = Pair().snapshot;
  const ShardLayout layout = ShardLayout::Uniform(source, 2);
  SnapshotRegistry registry;
  EXPECT_EQ(registry.version(), 0);
  EXPECT_EQ(registry.Acquire(), nullptr);

  auto first = std::make_shared<const ShardedSnapshot>(source, layout);
  std::weak_ptr<const ShardedSnapshot> first_watch = first;
  EXPECT_EQ(registry.Publish(std::move(first)), 1);

  int64_t version = 0;
  auto held = registry.Acquire(&version);
  EXPECT_EQ(version, 1);
  ASSERT_NE(held, nullptr);

  auto second = std::make_shared<const ShardedSnapshot>(source, layout);
  EXPECT_EQ(registry.Publish(std::move(second)), 2);
  EXPECT_EQ(registry.version(), 2);

  // The in-flight reader keeps version 1 alive past its retirement...
  EXPECT_FALSE(first_watch.expired());
  held.reset();
  // ...and the refcount reaches zero the moment the last reader drops.
  EXPECT_TRUE(first_watch.expired());
}

AdmissionTicket MakeTicket(RequestClass cls, int64_t enqueued_ns) {
  AdmissionTicket ticket;
  ticket.request.cls = cls;
  ticket.request.rec.user = 0;
  ticket.enqueued_ns = enqueued_ns;
  return ticket;
}

TEST(AdmissionQueueTest, InteractiveDrainsBeforeBatch) {
  AdmissionOptions options;
  AdmissionQueue queue(options);
  for (int i = 0; i < 3; ++i) {
    AdmissionTicket batch_ticket = MakeTicket(RequestClass::kBatch, i);
    ASSERT_TRUE(queue.TryPush(&batch_ticket));
    AdmissionTicket interactive = MakeTicket(RequestClass::kInteractive, i);
    ASSERT_TRUE(queue.TryPush(&interactive));
  }
  std::vector<AdmissionTicket> shed;
  std::vector<AdmissionTicket> popped;
  queue.PopBatch(/*max_batch=*/4, /*now_ns=*/100, &popped, &shed);
  ASSERT_EQ(popped.size(), 4u);
  EXPECT_TRUE(shed.empty());
  // All 3 interactive tickets first (FIFO), then the oldest batch one.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(popped[i].request.cls, RequestClass::kInteractive);
    EXPECT_EQ(popped[i].enqueued_ns, i);
  }
  EXPECT_EQ(popped[3].request.cls, RequestClass::kBatch);
  EXPECT_EQ(queue.Depth(RequestClass::kBatch), 2);
}

TEST(AdmissionQueueTest, ShedsAtCapacityPerClass) {
  AdmissionOptions options;
  options.interactive_capacity = 2;
  options.batch_capacity = 1;
  AdmissionQueue queue(options);
  AdmissionTicket a = MakeTicket(RequestClass::kInteractive, 0);
  AdmissionTicket b = MakeTicket(RequestClass::kInteractive, 1);
  AdmissionTicket c = MakeTicket(RequestClass::kInteractive, 2);
  EXPECT_TRUE(queue.TryPush(&a));
  EXPECT_TRUE(queue.TryPush(&b));
  EXPECT_FALSE(queue.TryPush(&c));  // interactive full; batch unaffected
  AdmissionTicket d = MakeTicket(RequestClass::kBatch, 3);
  EXPECT_TRUE(queue.TryPush(&d));
  EXPECT_EQ(queue.TotalDepth(), 3);
}

TEST(AdmissionQueueTest, ExpiredTicketsAreShedNotServed) {
  AdmissionOptions options;
  options.interactive_deadline_ms = 1.0;  // 1 ms
  options.batch_deadline_ms = 0.0;        // batch never expires here
  AdmissionQueue queue(options);
  AdmissionTicket stale = MakeTicket(RequestClass::kInteractive, 0);
  AdmissionTicket fresh =
      MakeTicket(RequestClass::kInteractive, 1900000);  // 0.1 ms old
  AdmissionTicket old_batch = MakeTicket(RequestClass::kBatch, 0);
  ASSERT_TRUE(queue.TryPush(&stale));
  ASSERT_TRUE(queue.TryPush(&fresh));
  ASSERT_TRUE(queue.TryPush(&old_batch));
  std::vector<AdmissionTicket> shed;
  std::vector<AdmissionTicket> popped;
  queue.PopBatch(/*max_batch=*/8, /*now_ns=*/2000000, &popped, &shed);
  ASSERT_EQ(shed.size(), 1u);
  EXPECT_EQ(shed[0].enqueued_ns, 0);
  EXPECT_EQ(shed[0].request.cls, RequestClass::kInteractive);
  ASSERT_EQ(popped.size(), 2u);  // the fresh interactive + the batch one
  EXPECT_EQ(popped[0].request.cls, RequestClass::kInteractive);
  EXPECT_EQ(popped[1].request.cls, RequestClass::kBatch);
}

std::shared_ptr<const ShardedSnapshot> MakeSharded(const ModelSnapshot& source,
                                                   int shards) {
  return std::make_shared<const ShardedSnapshot>(
      source, ShardLayout::Uniform(source, shards));
}

/// Served requests across both classes, from the server's counters.
int64_t ServedCount(ClusterServer& server) {
  obs::MetricsRegistry& metrics = server.metrics_registry();
  return metrics.GetCounter("cluster.served.interactive").Value() +
         metrics.GetCounter("cluster.served.batch").Value();
}

/// A same-domain request for `user` in domain `i % 2`; every 4th request
/// is batch class, the rest interactive.
ClusterRequest SameDomainRequest(int i, int user, int k) {
  ClusterRequest request;
  request.rec.target_domain = request.rec.user_domain = i % 2;
  request.rec.user = user;
  request.rec.k = k;
  request.cls =
      i % 4 == 1 ? RequestClass::kBatch : RequestClass::kInteractive;
  return request;
}

TEST(ClusterServerTest, ServesBitExactResponses) {
  const ModelSnapshot& snapshot = Pair().snapshot;
  const std::vector<RecRequest> requests = MixedRequests(snapshot, 5);
  const ScoreEngine engine(&snapshot);
  const std::vector<Recommendation> expected = engine.TopKBatch(requests);

  ClusterServer::Options options;
  options.num_threads = 3;
  options.max_batch = 4;
  ClusterServer server(MakeSharded(snapshot, 3), options);
  std::vector<std::future<ClusterResponse>> futures;
  for (size_t i = 0; i < requests.size(); ++i) {
    ClusterRequest request;
    request.rec = requests[i];
    request.cls =
        i % 3 == 0 ? RequestClass::kBatch : RequestClass::kInteractive;
    futures.push_back(server.Submit(std::move(request)));
  }
  std::vector<Recommendation> served;
  for (auto& future : futures) {
    ClusterResponse response = future.get();
    ASSERT_EQ(response.status, ClusterStatus::kOk);
    EXPECT_EQ(response.snapshot_version, 1);
    EXPECT_GE(response.latency_ms, 0.0);
    served.push_back(std::move(response.rec));
  }
  ExpectSameRecommendations(expected, served);
  server.Stop();
  EXPECT_EQ(server.active_drainers(), 0);
  EXPECT_EQ(server.last_observed_version(), 1);
  EXPECT_EQ(ServedCount(server), static_cast<int64_t>(requests.size()));
}

TEST(ClusterServerTest, ConcurrentResultsIdenticalToDirectEngine) {
  // The monolithic deployment: one shard, four drainers, batches of at
  // most four. Every response equals the unsharded engine's TopK.
  const ModelSnapshot& snapshot = Pair().snapshot;
  const ScoreEngine engine(&snapshot);
  ClusterServer::Options options;
  options.num_threads = 4;
  options.max_batch = 4;
  ClusterServer server(MakeSharded(snapshot, 1), options);

  std::vector<RecRequest> requests;
  std::vector<std::future<ClusterResponse>> futures;
  for (int i = 0; i < 64; ++i) {
    ClusterRequest request = SameDomainRequest(i, i % 12, 3 + i % 5);
    if (i % 3 == 0) {
      request.rec.user_domain = 1 - request.rec.target_domain;
    }
    requests.push_back(request.rec);
    futures.push_back(server.Submit(std::move(request)));
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    const ClusterResponse response = futures[i].get();
    ASSERT_EQ(response.status, ClusterStatus::kOk) << "request " << i;
    const Recommendation want = engine.TopK(requests[i]);
    EXPECT_EQ(response.rec.items, want.items) << "request " << i;
    EXPECT_EQ(response.rec.scores, want.scores) << "request " << i;
    EXPECT_EQ(response.rec.cold_start, want.cold_start) << "request " << i;
  }
  server.Stop();
  EXPECT_EQ(server.active_drainers(), 0);
  obs::MetricsRegistry& metrics = server.metrics_registry();
  EXPECT_EQ(metrics.GetCounter("cluster.submitted.interactive").Value() +
                metrics.GetCounter("cluster.submitted.batch").Value(),
            64);
  EXPECT_EQ(ServedCount(server), 64);
}

TEST(ClusterServerTest, StopDrainsQueueAndLeavesNoActiveDrainers) {
  const ModelSnapshot& snapshot = Pair().snapshot;
  ClusterServer::Options options;
  options.num_threads = 3;
  options.max_batch = 2;
  ClusterServer server(MakeSharded(snapshot, 1), options);

  // Burst-submit, then stop at once: Stop() must block until every
  // admitted request has been served through the shared pool — no work
  // is dropped and no drainer task outlives the server.
  std::vector<std::future<ClusterResponse>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(server.Submit(SameDomainRequest(i, i % 12, 4)));
  }
  server.Stop();
  EXPECT_EQ(server.active_drainers(), 0);
  for (auto& future : futures) {
    ASSERT_EQ(future.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    const ClusterResponse response = future.get();
    EXPECT_EQ(response.status, ClusterStatus::kOk);
    EXPECT_FALSE(response.rec.items.empty());
  }
  EXPECT_EQ(ServedCount(server), 32);
}

TEST(ClusterServerTest, LatencyQuantilesAreMonotoneUnderLoad) {
  const ModelSnapshot& snapshot = Pair().snapshot;
  ClusterServer::Options options;
  options.num_threads = 4;
  options.max_batch = 4;
  ClusterServer server(MakeSharded(snapshot, 1), options);
  std::vector<std::future<ClusterResponse>> futures;
  for (int i = 0; i < 128; ++i) {
    ClusterRequest request = SameDomainRequest(i, i % 12, 5);
    request.cls = RequestClass::kInteractive;
    futures.push_back(server.Submit(std::move(request)));
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.get().status, ClusterStatus::kOk);
  }
  server.Stop();

  // Bucket-interpolated estimates, but monotone and bounded by the
  // observed maximum.
  const obs::Histogram& latency =
      server.metrics_registry().GetLatencyHistogram(
          "cluster.latency_ms.interactive");
  EXPECT_EQ(latency.Count(), 128);
  EXPECT_GT(latency.Quantile(0.50), 0.0);
  EXPECT_LE(latency.Quantile(0.50), latency.Quantile(0.95));
  EXPECT_LE(latency.Quantile(0.95), latency.Quantile(0.99));
  EXPECT_LE(latency.Quantile(0.99), latency.Max());
}

TEST(ClusterServerTest, CountersAreMonotoneAcrossConcurrentScrapes) {
  const ModelSnapshot& snapshot = Pair().snapshot;
  ClusterServer::Options options;
  options.num_threads = 3;
  options.max_batch = 4;
  ClusterServer server(MakeSharded(snapshot, 1), options);
  obs::MetricsRegistry& metrics = server.metrics_registry();

  // Scrape the counters while requests are in flight: per class, neither
  // count ever decreases from one scrape to the next, and served never
  // overtakes submitted.
  int64_t last_submitted[kNumRequestClasses] = {};
  int64_t last_served[kNumRequestClasses] = {};
  std::vector<std::future<ClusterResponse>> futures;
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 16; ++i) {
      futures.push_back(
          server.Submit(SameDomainRequest(i, (round * 16 + i) % 12, 4)));
    }
    for (int c = 0; c < kNumRequestClasses; ++c) {
      const std::string cls = RequestClassName(static_cast<RequestClass>(c));
      const int64_t served =
          metrics.GetCounter("cluster.served." + cls).Value();
      const int64_t submitted =
          metrics.GetCounter("cluster.submitted." + cls).Value();
      EXPECT_GE(submitted, last_submitted[c]) << cls;
      EXPECT_GE(served, last_served[c]) << cls;
      EXPECT_LE(served, submitted) << cls;
      last_submitted[c] = submitted;
      last_served[c] = served;
    }
  }
  for (auto& future : futures) {
    ASSERT_EQ(future.get().status, ClusterStatus::kOk);
  }
  server.Stop();
  EXPECT_EQ(metrics.GetCounter("cluster.submitted.interactive").Value() +
                metrics.GetCounter("cluster.submitted.batch").Value(),
            128);
  EXPECT_EQ(ServedCount(server), 128);
}

TEST(ClusterServerTest, SharedRegistryReceivesServingMetrics) {
  const ModelSnapshot& snapshot = Pair().snapshot;
  obs::MetricsRegistry registry;
  ClusterServer::Options options;
  options.num_threads = 2;
  options.metrics = &registry;
  ClusterServer server(MakeSharded(snapshot, 1), options);
  EXPECT_EQ(&server.metrics_registry(), &registry);
  for (int d = 0; d < 2; ++d) {
    ClusterRequest request = SameDomainRequest(d, 0, 4);
    request.cls = RequestClass::kInteractive;
    ASSERT_EQ(server.Submit(std::move(request)).get().status,
              ClusterStatus::kOk);
  }
  server.Stop();
  EXPECT_EQ(registry.GetCounter("cluster.submitted.interactive").Value(), 2);
  EXPECT_EQ(registry.GetCounter("cluster.served.interactive").Value(), 2);
  EXPECT_EQ(
      registry.GetLatencyHistogram("cluster.latency_ms.interactive").Count(),
      2);
}

TEST(ClusterServerTest, SubmitAfterStopResolvesStopped) {
  const ModelSnapshot& snapshot = Pair().snapshot;
  ClusterServer server(MakeSharded(snapshot, 2), ClusterServer::Options());
  server.Stop();
  ClusterRequest request;
  request.rec.k = 3;
  ClusterResponse response = server.Submit(std::move(request)).get();
  EXPECT_EQ(response.status, ClusterStatus::kStopped);
  EXPECT_EQ(
      server.metrics_registry().GetCounter("cluster.stopped_rejects").Value(),
      1);
}

TEST(ClusterServerTest, StopIsIdempotentAndFailsLateSubmits) {
  const ModelSnapshot& snapshot = Pair().snapshot;
  ClusterServer server(MakeSharded(snapshot, 1), ClusterServer::Options());
  ClusterRequest served;
  served.rec.k = 2;
  ASSERT_EQ(server.Submit(std::move(served)).get().status,
            ClusterStatus::kOk);
  server.Stop();
  server.Stop();  // a second Stop is a no-op
  EXPECT_EQ(server.active_drainers(), 0);
  ClusterRequest late;
  late.rec.user = 1;
  late.rec.k = 2;
  EXPECT_EQ(server.Submit(std::move(late)).get().status,
            ClusterStatus::kStopped);
  obs::MetricsRegistry& metrics = server.metrics_registry();
  EXPECT_EQ(metrics.GetCounter("cluster.stopped_rejects").Value(), 1);
  // The late submit was never admitted.
  EXPECT_EQ(metrics.GetCounter("cluster.submitted.interactive").Value(), 1);
  EXPECT_EQ(ServedCount(server), 1);
}

TEST(ClusterServerTest, NanosecondDeadlineShedsEveryQueuedRequest) {
  const ModelSnapshot& snapshot = Pair().snapshot;
  ClusterServer::Options options;
  // 1 ns queueing deadline: every ticket is stale by the time a drainer
  // reaches it, so this deterministically exercises the deadline-shed
  // path end to end.
  options.admission.interactive_deadline_ms = 1e-6;
  ClusterServer server(MakeSharded(snapshot, 2), options);
  std::vector<std::future<ClusterResponse>> futures;
  for (int i = 0; i < 16; ++i) {
    ClusterRequest request;
    request.rec.user = i % snapshot.domain(0).num_users();
    request.rec.k = 3;
    futures.push_back(server.Submit(std::move(request)));
  }
  int shed = 0;
  for (auto& future : futures) {
    const ClusterResponse response = future.get();
    if (response.status == ClusterStatus::kShedDeadline) ++shed;
  }
  server.Stop();
  EXPECT_EQ(shed, 16);
  EXPECT_EQ(server.metrics_registry()
                .GetCounter("cluster.shed_deadline.interactive")
                .Value(),
            16);
}

// The concurrent hot-swap test the TSan job runs: score continuously
// while publishing many snapshot versions, asserting (a) every response
// is served (zero downtime), (b) no torn reads — each response is
// bit-identical to the precomputed reference for the version that served
// it, (c) versions are observed monotonically, and (d) every retired
// version's refcount reaches zero once the last reader drops.
TEST(ClusterServerTest, HotSwapHundredVersionsUnderLoad) {
  constexpr int kVersions = 100;
  constexpr int kRequestsPerVersion = 4;

  SyntheticSnapshotSpec spec;
  spec.num_domains = 2;
  spec.users_per_domain = 48;
  spec.items_per_domain = 32;
  spec.dim = 8;
  spec.hidden = 8;
  spec.overlap = 0.5f;

  // Fixed request mix reused against every version.
  std::vector<RecRequest> requests(kRequestsPerVersion);
  for (int i = 0; i < kRequestsPerVersion; ++i) {
    requests[i].target_domain = i % 2;
    requests[i].user_domain = (i / 2) % 2;
    requests[i].user = i * 7 % spec.users_per_domain;
    requests[i].k = 5;
  }

  // Build every version (distinct seeds => distinct tables) and its
  // reference answers up front, before any concurrency starts.
  std::vector<std::shared_ptr<const ShardedSnapshot>> versions;
  std::vector<std::weak_ptr<const ShardedSnapshot>> watches;
  std::vector<std::vector<Recommendation>> reference;
  for (int v = 0; v < kVersions + 1; ++v) {
    spec.seed = 1000 + v;
    const ModelSnapshot source = ModelSnapshot::MakeSynthetic(spec);
    versions.push_back(MakeSharded(source, 3));
    watches.push_back(versions.back());
    reference.push_back(versions.back()->TopKBatch(requests));
  }

  ClusterServer::Options options;
  options.num_threads = 4;
  options.max_batch = 4;
  ClusterServer server(versions[0], options);

  // Main thread publishes while pool drainers score concurrently; the
  // futures are collected per wave so the request stream never stops.
  struct InFlight {
    std::future<ClusterResponse> future;
    int64_t min_version = 0;  // version already published at Submit time
  };
  std::vector<InFlight> in_flight;
  int64_t published = 1;
  for (int v = 1; v <= kVersions; ++v) {
    for (int i = 0; i < kRequestsPerVersion; ++i) {
      ClusterRequest request;
      request.rec = requests[i];
      request.cls =
          i % 2 == 0 ? RequestClass::kInteractive : RequestClass::kBatch;
      InFlight flight;
      flight.min_version = published;
      flight.future = server.Submit(std::move(request));
      in_flight.push_back(std::move(flight));
    }
    published = server.Publish(versions[v]);
    EXPECT_EQ(published, v + 1);
  }

  int64_t max_seen = 0;
  for (InFlight& flight : in_flight) {
    ClusterResponse response = flight.future.get();
    ASSERT_EQ(response.status, ClusterStatus::kOk);  // zero downtime
    ASSERT_GE(response.snapshot_version, flight.min_version);
    ASSERT_LE(response.snapshot_version, kVersions + 1);
    max_seen = std::max(max_seen, response.snapshot_version);
  }
  server.Stop();

  // Monotone observation: the server's watermark is the max version any
  // batch saw (AtomicMax keeps it monotone by construction; this pins
  // the bookkeeping to the traffic).
  EXPECT_EQ(server.last_observed_version(), max_seen);
  EXPECT_GE(max_seen, 2);  // at least one swap was observed under load

  // Spot torn-read check against the final version's reference (the
  // per-version full check lives in ResponsesMatchTheVersionThatServedThem).
  ExpectSameRecommendations(reference[kVersions],
                            versions[kVersions]->TopKBatch(requests));

  // Refcounts reach zero: drop our references; every version except the
  // still-held final one must be freed.
  versions.clear();
  for (int v = 0; v < kVersions; ++v) {
    EXPECT_TRUE(watches[v].expired()) << "version " << v + 1 << " leaked";
  }
}

// Full torn-read verification with responses checked against the exact
// version that served them (the map from response version to reference
// table is the assertion).
TEST(ClusterServerTest, ResponsesMatchTheVersionThatServedThem) {
  constexpr int kVersions = 20;
  SyntheticSnapshotSpec spec;
  spec.users_per_domain = 32;
  spec.items_per_domain = 24;
  spec.dim = 8;
  spec.hidden = 8;

  RecRequest probe;
  probe.target_domain = probe.user_domain = 0;
  probe.user = 5;
  probe.k = 4;

  std::vector<std::shared_ptr<const ShardedSnapshot>> versions;
  std::vector<Recommendation> reference;
  for (int v = 0; v < kVersions; ++v) {
    spec.seed = 7000 + v;
    const ModelSnapshot source = ModelSnapshot::MakeSynthetic(spec);
    versions.push_back(MakeSharded(source, 2));
    reference.push_back(versions.back()->TopK(probe));
  }

  ClusterServer::Options options;
  options.num_threads = 2;
  ClusterServer server(versions[0], options);
  std::vector<std::future<ClusterResponse>> futures;
  for (int v = 1; v < kVersions; ++v) {
    for (int r = 0; r < 3; ++r) {
      ClusterRequest request;
      request.rec = probe;
      futures.push_back(server.Submit(std::move(request)));
    }
    server.Publish(versions[v]);
  }
  for (auto& future : futures) {
    ClusterResponse response = future.get();
    ASSERT_EQ(response.status, ClusterStatus::kOk);
    const std::vector<Recommendation> expected = {
        reference[response.snapshot_version - 1]};
    const std::vector<Recommendation> actual = {std::move(response.rec)};
    // A torn read (scoring half-old, half-new tables) could not match
    // the version it claims to be.
    ExpectSameRecommendations(expected, actual);
  }
  server.Stop();
}

}  // namespace
}  // namespace cluster
}  // namespace nmcdr
