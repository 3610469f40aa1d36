// Sharded serving under partial failure: ring placement, CRC-guarded
// shard files, replica failover/hedging, probe-driven recovery, partial
// coverage accounting, and the gateway's served_partial lane.
#include "serve/shard.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "facility/scale.hpp"
#include "nn/serialize.hpp"
#include "serve/gateway.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace ckat::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kUsers = 100;
constexpr std::size_t kItems = 64;
constexpr std::size_t kDim = 8;
constexpr std::size_t kShards = 3;
constexpr std::size_t kReplicas = 2;
constexpr std::uint64_t kVersion = 7;

/// Deterministic embeddings the brute-force baseline can recompute.
void test_item_vector(std::uint32_t item, std::span<float> out) {
  for (std::size_t d = 0; d < out.size(); ++d) {
    out[d] = 0.01F * static_cast<float>(item + 1) *
             (d % 2 == 0 ? 1.0F : -0.5F);
  }
}

void test_user_vector(std::uint32_t user, std::span<float> out) {
  for (std::size_t d = 0; d < out.size(); ++d) {
    out[d] = (d % 2 == static_cast<std::size_t>(user) % 2) ? 1.0F : 0.25F;
  }
}

/// What a single unsharded scorer would produce for `user`.
std::vector<float> brute_force_scores(std::uint32_t user) {
  std::vector<float> user_vec(kDim);
  std::vector<float> item_vec(kDim);
  test_user_vector(user, user_vec);
  std::vector<float> scores(kItems);
  for (std::uint32_t item = 0; item < kItems; ++item) {
    test_item_vector(item, item_vec);
    scores[item] = std::inner_product(user_vec.begin(), user_vec.end(),
                                      item_vec.begin(), 0.0F);
  }
  return scores;
}

class ShardTest : public ::testing::Test {
 protected:
  void SetUp() override {
    static int counter = 0;
    dir_ = ::testing::TempDir() + "ckat_shard_test_" +
           std::to_string(::getpid()) + "_" + std::to_string(counter++);
    fs::create_directories(dir_);
  }

  void TearDown() override {
    util::FaultInjector::instance().reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Background probes effectively off: tests drive recovery through
  /// probe_now() so every transition is deterministic.
  static ShardRouterConfig quiet_config() {
    ShardRouterConfig config;
    config.n_shards = static_cast<int>(kShards);
    config.replicas = static_cast<int>(kReplicas);
    config.probe_interval_ms = 3.0e6;
    config.hedge_min_ms = 1.0;
    config.probe_budget_ms = 50.0;
    config.model_version = kVersion;
    return config;
  }

  void write_catalog() const {
    ShardRouter::write_catalog(dir_, kShards, kReplicas, kItems, kDim,
                               test_item_vector);
  }

  [[nodiscard]] std::unique_ptr<ShardRouter> make_router() const {
    return std::make_unique<ShardRouter>(dir_, kUsers, kItems, kDim,
                                         test_user_vector, quiet_config());
  }

  /// Flips one payload byte of a replica's shard file on disk; returns
  /// the original bytes so the test can restore them.
  [[nodiscard]] std::vector<char> corrupt_replica_file(std::size_t shard,
                                                       std::size_t replica)
      const {
    const std::string path = ShardRouter::replica_path(dir_, shard, replica);
    std::vector<char> original(fs::file_size(path));
    {
      std::ifstream in(path, std::ios::binary);
      in.read(original.data(), static_cast<std::streamsize>(original.size()));
      EXPECT_TRUE(in.good());
    }
    std::vector<char> mutated = original;
    mutated[sizeof(ShardFileHeader) + 2] ^= 0x40;
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    return original;
  }

  void restore_replica_file(std::size_t shard, std::size_t replica,
                            const std::vector<char>& bytes) const {
    const std::string path = ShardRouter::replica_path(dir_, shard, replica);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string dir_;
};

// ---------------------------------------------------------------------------
// ShardRing

TEST(ShardRingTest, RejectsEmptyTopology) {
  EXPECT_THROW(ShardRing(0), std::invalid_argument);
  EXPECT_THROW(ShardRing(4, 0), std::invalid_argument);
}

TEST(ShardRingTest, PlacementIsDeterministicAndRoughlyBalanced) {
  const ShardRing ring_a(4);
  const ShardRing ring_b(4);
  std::vector<std::size_t> counts(4, 0);
  for (std::uint64_t key = 0; key < 20'000; ++key) {
    const std::uint32_t shard = ring_a.shard_of(key);
    ASSERT_LT(shard, 4U);
    ASSERT_EQ(shard, ring_b.shard_of(key));
    ++counts[shard];
  }
  // Consistent hashing with 64 vnodes: no shard is starved or hoards
  // the catalog.
  for (const std::size_t count : counts) {
    EXPECT_GT(count, 20'000U / 20);
    EXPECT_LT(count, 20'000U / 2);
  }
}

// ---------------------------------------------------------------------------
// Shard files

TEST_F(ShardTest, ShardFileRoundTrips) {
  const std::vector<std::uint32_t> ids = {1, 5, 9, 40};
  std::vector<float> vectors(ids.size() * kDim);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    test_item_vector(ids[i], std::span<float>(&vectors[i * kDim], kDim));
  }
  const std::string path = dir_ + "/slice.bin";
  write_shard_file(path, 2, kShards, kItems, kDim, ids, vectors);

  const auto store = MmapShardStore::open(path);
  EXPECT_EQ(store->shard_id(), 2U);
  EXPECT_EQ(store->n_shards(), kShards);
  EXPECT_EQ(store->dim(), kDim);
  EXPECT_EQ(store->n_items_total(), kItems);
  ASSERT_EQ(store->n_local(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(store->item_ids()[i], ids[i]);
    const std::span<const float> row = store->vector(i);
    for (std::size_t d = 0; d < kDim; ++d) {
      EXPECT_FLOAT_EQ(row[d], vectors[i * kDim + d]);
    }
  }
}

TEST_F(ShardTest, OpenRejectsTruncatedFile) {
  const std::vector<std::uint32_t> ids = {0, 1, 2};
  std::vector<float> vectors(ids.size() * kDim, 0.5F);
  const std::string path = dir_ + "/slice.bin";
  write_shard_file(path, 0, kShards, kItems, kDim, ids, vectors);
  fs::resize_file(path, fs::file_size(path) - kDim * sizeof(float));
  EXPECT_THROW((void)MmapShardStore::open(path), std::runtime_error);
}

TEST_F(ShardTest, OpenRejectsBitFlippedPayload) {
  write_catalog();
  (void)corrupt_replica_file(0, 0);
  EXPECT_THROW(
      (void)MmapShardStore::open(ShardRouter::replica_path(dir_, 0, 0)),
      std::runtime_error);
  // The sibling's copy is untouched and still opens.
  EXPECT_NO_THROW(
      (void)MmapShardStore::open(ShardRouter::replica_path(dir_, 0, 1)));
}

/// Opens `path` expecting the size check to reject it. The file is one
/// page; the next one-page mapping usually lands in a hole left just
/// below a PROT_NONE page, so an id scan that runs past the file faults
/// instead of reading whatever is mapped next to it.
void expect_size_mismatch(const std::string& path) {
  constexpr std::size_t kPage = 4096;
  void* guard = ::mmap(nullptr, 2 * kPage, PROT_NONE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(guard, MAP_FAILED);
  ::munmap(guard, kPage);
  try {
    (void)MmapShardStore::open(path);
    ADD_FAILURE() << "hostile shard file opened";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("size mismatch"), std::string::npos)
        << e.what();
  }
  ::munmap(static_cast<char*>(guard) + kPage, kPage);
}

TEST_F(ShardTest, OpenRejectsSizeFieldsThatWrapAround) {
  // dim 1 and n_local = 2^61 + 506 make 48 + n_local * 4 + n_local * 4
  // wrap to 4096 in 64-bit arithmetic: this 4096-byte file with valid
  // CRCs, ascending ids and no id bound would pass a multiplied size
  // check, and the id scan would then run past the mapping.
  constexpr std::size_t kFileSize = 4096;
  std::vector<std::uint32_t> ids((kFileSize - sizeof(ShardFileHeader)) /
                                 sizeof(std::uint32_t));
  std::iota(ids.begin(), ids.end(), 0U);
  ShardFileHeader header{};
  std::memcpy(header.magic, "CKATSHD1", sizeof(header.magic));
  header.shard_id = 0;
  header.n_shards = 1;
  header.n_items_total = UINT64_MAX;
  header.payload_crc = nn::crc32(ids.data(), ids.size() * sizeof(ids[0]));
  const std::string path = dir_ + "/hostile.bin";
  const auto write_hostile = [&] {
    header.header_crc =
        nn::crc32(&header, offsetof(ShardFileHeader, header_crc));
    ASSERT_EQ(sizeof(ShardFileHeader) + header.n_local * 4 +
                  header.n_local * header.dim * 4,
              kFileSize);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    out.write(reinterpret_cast<const char*>(ids.data()),
              static_cast<std::streamsize>(ids.size() * sizeof(ids[0])));
  };

  header.dim = 1;
  header.n_local = (std::uint64_t{1} << 61) + 506;
  write_hostile();
  ASSERT_EQ(fs::file_size(path), kFileSize);
  expect_size_mismatch(path);

  // The same 4096 bytes claimed as ids of dim 2^31 + 1: here the
  // n_local * dim product itself wraps.
  header.dim = (1U << 31) + 1;
  header.n_local = 0x1FFFFF81800001FAULL;
  write_hostile();
  expect_size_mismatch(path);
}

TEST_F(ShardTest, CatalogReplicasAreByteIdenticalToWriteShardFile) {
  write_catalog();
  const ShardRing ring(kShards);
  const auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
  };
  for (std::size_t s = 0; s < kShards; ++s) {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < kItems; ++id) {
      if (ring.shard_of(id) == s) ids.push_back(id);
    }
    std::vector<float> vectors(ids.size() * kDim);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      test_item_vector(ids[i], std::span<float>(&vectors[i * kDim], kDim));
    }
    const std::string expected_path = dir_ + "/expected.bin";
    write_shard_file(expected_path, static_cast<std::uint32_t>(s), kShards,
                     kItems, kDim, ids, vectors);
    const std::vector<char> expected = read_all(expected_path);
    ASSERT_GT(expected.size(), sizeof(ShardFileHeader));
    for (std::size_t r = 0; r < kReplicas; ++r) {
      EXPECT_EQ(read_all(ShardRouter::replica_path(dir_, s, r)), expected)
          << "shard " << s << " replica " << r;
    }
  }
}

TEST_F(ShardTest, FaultPointsFailOpenOnIntactFiles) {
  write_catalog();
  const std::string path = ShardRouter::replica_path(dir_, 0, 0);
  {
    util::FaultScope scope(util::fault_points::kShardOpenFail,
                           util::FaultSpec{.every = 1});
    EXPECT_THROW((void)MmapShardStore::open(path), std::runtime_error);
  }
  {
    util::FaultScope scope(util::fault_points::kShardCorrupt,
                           util::FaultSpec{.every = 1});
    EXPECT_THROW((void)MmapShardStore::open(path), std::runtime_error);
  }
  EXPECT_NO_THROW((void)MmapShardStore::open(path));
}

// ---------------------------------------------------------------------------
// ShardRouter

TEST_F(ShardTest, ConstructionThrowsWhenNoReplicaOpens) {
  // No catalog written: every replica of every shard fails to open.
  EXPECT_THROW((void)make_router(), std::runtime_error);
}

TEST_F(ShardTest, HealthyCatalogServesFullCoverageMatchingBaseline) {
  write_catalog();
  const auto router = make_router();
  EXPECT_EQ(router->n_shards(), kShards);
  EXPECT_EQ(router->replicas_per_shard(), kReplicas);
  EXPECT_EQ(router->model_version(), kVersion);

  std::vector<float> out(kItems);
  for (std::uint32_t user : {0U, 3U, 42U}) {
    const ShardOutcome outcome = router->score(user, out);
    EXPECT_EQ(outcome.kind, ShardOutcome::Kind::kFull);
    EXPECT_DOUBLE_EQ(outcome.coverage, 1.0);
    EXPECT_EQ(outcome.shards_failed, 0U);
    const std::vector<float> expected = brute_force_scores(user);
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_NEAR(out[i], expected[i], 1e-5F) << "item " << i;
    }
  }

  const ShardRouterStats stats = router->stats();
  EXPECT_EQ(stats.requests, 3U);
  EXPECT_EQ(stats.served_full, 3U);
  EXPECT_EQ(stats.served_partial, 0U);
  EXPECT_EQ(stats.zero_filled, 0U);
  std::size_t total_local = 0;
  for (const auto& shard : stats.shards) {
    EXPECT_EQ(shard.healthy_replicas, kReplicas);
    EXPECT_EQ(shard.ok, 3U);
    EXPECT_EQ(shard.failed, 0U);
    total_local += shard.n_local;
  }
  // The ring partitions the catalog: slices cover every item once.
  EXPECT_EQ(total_local, kItems);
}

TEST_F(ShardTest, KilledReplicaFailsOverToSiblingWithoutCoverageLoss) {
  write_catalog();
  const auto router = make_router();
  router->kill_replica(0, 0);
  EXPECT_FALSE(router->replica_healthy(0, 0));
  EXPECT_TRUE(router->replica_healthy(0, 1));

  std::vector<float> out(kItems);
  const ShardOutcome outcome = router->score(7, out);
  EXPECT_EQ(outcome.kind, ShardOutcome::Kind::kFull);
  EXPECT_DOUBLE_EQ(outcome.coverage, 1.0);

  const ShardRouterStats stats = router->stats();
  EXPECT_EQ(stats.replica_trips, 1U);
  EXPECT_GE(stats.failovers, 1U);
  EXPECT_EQ(stats.served_full, 1U);
  EXPECT_EQ(stats.shards[0].healthy_replicas, kReplicas - 1);
}

TEST_F(ShardTest, WholeShardDownDegradesToExplicitPartialCoverage) {
  write_catalog();
  const auto router = make_router();
  router->kill_replica(1, 0);
  router->kill_replica(1, 1);

  std::vector<float> out(kItems, -1.0F);
  const ShardOutcome outcome = router->score(11, out);
  const std::size_t lost = router->stats().shards[1].n_local;
  ASSERT_GT(lost, 0U);
  EXPECT_EQ(outcome.kind, ShardOutcome::Kind::kPartial);
  EXPECT_DOUBLE_EQ(
      outcome.coverage,
      static_cast<double>(kItems - lost) / static_cast<double>(kItems));
  EXPECT_EQ(outcome.shards_failed, 1U);

  // The lost slice is explicitly zero-filled, the rest is real.
  const std::vector<float> expected = brute_force_scores(11);
  std::size_t zeroed = 0;
  for (std::size_t i = 0; i < kItems; ++i) {
    if (out[i] == 0.0F) {
      ++zeroed;
    } else {
      EXPECT_NEAR(out[i], expected[i], 1e-5F);
    }
  }
  EXPECT_EQ(zeroed, lost);

  const ShardRouterStats stats = router->stats();
  EXPECT_EQ(stats.served_partial, 1U);
  EXPECT_EQ(stats.shards[1].failed, 1U);
  EXPECT_EQ(stats.requests,
            stats.served_full + stats.served_partial + stats.zero_filled);
}

TEST_F(ShardTest, ProbeRecoversKilledReplicaWithIntactFile) {
  write_catalog();
  const auto router = make_router();
  router->kill_replica(2, 0);
  ASSERT_FALSE(router->replica_healthy(2, 0));

  router->probe_now();
  EXPECT_TRUE(router->replica_healthy(2, 0));
  EXPECT_EQ(router->stats().replica_recoveries, 1U);

  std::vector<float> out(kItems);
  EXPECT_EQ(router->score(1, out).kind, ShardOutcome::Kind::kFull);
}

TEST_F(ShardTest, CorruptFileKeepsReplicaDownUntilRestored) {
  write_catalog();
  const auto router = make_router();
  const std::vector<char> original = corrupt_replica_file(2, 1);
  router->kill_replica(2, 1);

  // CRC validation re-runs on every probe re-open: the corrupt copy
  // stays down, nothing crashes.
  router->probe_now();
  router->probe_now();
  EXPECT_FALSE(router->replica_healthy(2, 1));
  EXPECT_EQ(router->stats().replica_recoveries, 0U);

  restore_replica_file(2, 1, original);
  router->probe_now();
  EXPECT_TRUE(router->replica_healthy(2, 1));
  EXPECT_EQ(router->stats().replica_recoveries, 1U);
}

TEST_F(ShardTest, ReplicaWithCorruptFileStartsDeadProcessSurvives) {
  write_catalog();
  (void)corrupt_replica_file(1, 0);
  const auto router = make_router();
  EXPECT_FALSE(router->replica_healthy(1, 0));
  EXPECT_TRUE(router->replica_healthy(1, 1));

  std::vector<float> out(kItems);
  EXPECT_EQ(router->score(0, out).kind, ShardOutcome::Kind::kFull);
}

TEST_F(ShardTest, SlowPrimaryHedgesToSibling) {
  write_catalog();
  const auto router = make_router();
  // Shard 0's round-robin starts at replica 0; delay exactly that slice
  // tier far past the hedge allowance (hedge_min_ms = 1).
  util::FaultScope scope(
      std::string(util::fault_points::kScoreDelay) + ":shard0-r0",
      util::FaultSpec{.every = 1, .delay_ms = 30.0});

  std::vector<float> out(kItems);
  const ShardOutcome outcome = router->score(5, out);
  EXPECT_EQ(outcome.kind, ShardOutcome::Kind::kFull);
  EXPECT_DOUBLE_EQ(outcome.coverage, 1.0);
  EXPECT_GE(outcome.hedges, 1U);
  EXPECT_GE(router->stats().hedges, 1U);
}

TEST_F(ShardTest, SlowShardUnderDeadlineYieldsPartialNotError) {
  write_catalog();
  const auto router = make_router();
  // Both replicas of the *last* shard sleep far past the request
  // budget; earlier shards answer within it.
  const std::size_t slow = kShards - 1;
  util::FaultScope scope_a(
      std::string(util::fault_points::kScoreDelay) + ":shard" +
          std::to_string(slow) + "-r0",
      util::FaultSpec{.every = 1, .delay_ms = 80.0});
  util::FaultScope scope_b(
      std::string(util::fault_points::kScoreDelay) + ":shard" +
          std::to_string(slow) + "-r1",
      util::FaultSpec{.every = 1, .delay_ms = 80.0});

  std::vector<float> out(kItems);
  const ShardOutcome outcome = router->score(9, out, /*budget_ms=*/40.0);
  EXPECT_EQ(outcome.kind, ShardOutcome::Kind::kPartial);
  EXPECT_GT(outcome.coverage, 0.0);
  EXPECT_LT(outcome.coverage, 1.0);
  EXPECT_GE(outcome.shards_failed, 1U);
  EXPECT_EQ(router->stats().served_partial, 1U);
}

TEST_F(ShardTest, ConservationHoldsAcrossKillRecoverCycles) {
  write_catalog();
  const auto router = make_router();
  std::vector<float> out(kItems);
  for (std::uint32_t i = 0; i < 24; ++i) {
    if (i == 6) {
      router->kill_replica(0, 0);
      router->kill_replica(0, 1);
    }
    if (i == 14) router->probe_now();
    (void)router->score(i % static_cast<std::uint32_t>(kUsers), out);
  }
  const ShardRouterStats stats = router->stats();
  EXPECT_EQ(stats.requests, 24U);
  EXPECT_EQ(stats.requests,
            stats.served_full + stats.served_partial + stats.zero_filled);
  for (const auto& shard : stats.shards) {
    EXPECT_EQ(shard.ok + shard.failed, stats.requests);
  }
  EXPECT_GT(stats.served_partial, 0U);
  EXPECT_EQ(stats.replica_recoveries, 2U);
}

TEST_F(ShardTest, RouterServesScaleTierEmbeddings) {
  facility::ScaleTierParams params;
  params.n_users = 5'000;
  params.n_items = 256;
  params.n_regions = 8;
  params.n_types = 16;
  params.dim = 16;
  const facility::ScaleTier tier(params);

  ShardRouter::write_catalog(
      dir_, kShards, kReplicas, tier.n_items(), tier.dim(),
      [&tier](std::uint32_t item, std::span<float> out) {
        tier.item_vector(item, out);
      });
  const ShardRouterConfig config = quiet_config();
  const UserVectorFn user_fn = [&tier](std::uint32_t user,
                                       std::span<float> out) {
    tier.user_vector(user, out);
  };
  ShardRouter router(dir_, tier.n_users(), tier.n_items(), tier.dim(),
                     user_fn, config);

  util::Rng rng(3);
  std::vector<float> out(tier.n_items());
  std::vector<float> user_vec(tier.dim());
  std::vector<float> item_vec(tier.dim());
  for (int i = 0; i < 16; ++i) {
    const std::uint32_t user = tier.sample_user(rng);
    const ShardOutcome outcome = router.score(user, out);
    ASSERT_EQ(outcome.kind, ShardOutcome::Kind::kFull);
    // Sharded scores agree with the direct dot product per item.
    tier.user_vector(user, user_vec);
    const auto item = static_cast<std::uint32_t>(
        rng.uniform_index(tier.n_items()));
    tier.item_vector(item, item_vec);
    const float expected =
        std::inner_product(user_vec.begin(), user_vec.end(),
                           item_vec.begin(), 0.0F);
    EXPECT_NEAR(out[item], expected, 1e-4F);
  }
}

// ---------------------------------------------------------------------------
// Sharded ServeGateway

class ShardGatewayTest : public ShardTest {
 protected:
  [[nodiscard]] std::shared_ptr<ShardRouter> make_shared_router() const {
    return std::make_shared<ShardRouter>(dir_, kUsers, kItems, kDim,
                                         test_user_vector, quiet_config());
  }

  static GatewayConfig gateway_config() {
    GatewayConfig config;
    config.threads = 2;
    config.queue_depth = 32;
    config.default_deadline_ms = 0.0;  // deterministic: nothing expires
    config.keep_versions = 2;
    return config;
  }

  static ScoreResult submit_and_wait(ServeGateway& gateway,
                                     ScoreRequest request) {
    auto future = gateway.submit(std::move(request));
    return future.get();
  }

  static ScoreRequest user_request(std::uint32_t user) {
    ScoreRequest request;
    request.user = user;
    return request;
  }
};

TEST_F(ShardGatewayTest, ServesFullCoverageThroughRouter) {
  write_catalog();
  const auto router = make_shared_router();
  ServeGateway gateway(router, gateway_config());
  EXPECT_EQ(gateway.n_items(), kItems);
  EXPECT_EQ(gateway.router(), router);
  EXPECT_EQ(gateway.handle(), nullptr);

  const ScoreResult result = submit_and_wait(gateway, user_request(4));
  EXPECT_EQ(result.status, RequestStatus::kServed);
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
  EXPECT_EQ(result.model_version, kVersion);
  ASSERT_EQ(result.scores.size(), kItems);
  const std::vector<float> expected = brute_force_scores(4);
  for (std::size_t i = 0; i < kItems; ++i) {
    EXPECT_NEAR(result.scores[i], expected[i], 1e-5F);
  }

  gateway.shutdown();
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.submitted, 1U);
  EXPECT_EQ(stats.served, 1U);
  EXPECT_EQ(stats.served_partial, 0U);
}

TEST_F(ShardGatewayTest, BatchRequestFansEveryRowAcrossShards) {
  write_catalog();
  ServeGateway gateway(make_shared_router(), gateway_config());
  ScoreRequest request;
  request.users = {1, 2, 3};
  const ScoreResult result = submit_and_wait(gateway, std::move(request));
  EXPECT_EQ(result.status, RequestStatus::kServed);
  EXPECT_DOUBLE_EQ(result.coverage, 1.0);
  ASSERT_EQ(result.scores.size(), 3 * kItems);
  for (std::size_t row = 0; row < 3; ++row) {
    const std::vector<float> expected =
        brute_force_scores(static_cast<std::uint32_t>(row + 1));
    for (std::size_t i = 0; i < kItems; ++i) {
      EXPECT_NEAR(result.scores[row * kItems + i], expected[i], 1e-5F);
    }
  }
  // One queue slot, one resolution: conservation counts the batch once.
  gateway.shutdown();
  EXPECT_EQ(gateway.stats().submitted, 1U);
  EXPECT_EQ(gateway.stats().served, 1U);
}

TEST_F(ShardGatewayTest, DeadShardSurfacesAsServedPartialWithCoverage) {
  write_catalog();
  const auto router = make_shared_router();
  router->kill_replica(0, 0);
  router->kill_replica(0, 1);
  ServeGateway gateway(router, gateway_config());

  const ScoreResult result = submit_and_wait(gateway, user_request(9));
  EXPECT_EQ(result.status, RequestStatus::kServedPartial);
  EXPECT_GT(result.coverage, 0.0);
  EXPECT_LT(result.coverage, 1.0);
  EXPECT_EQ(result.model_version, kVersion);
  ASSERT_EQ(result.scores.size(), kItems);

  gateway.shutdown();
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.served_partial, 1U);
  EXPECT_EQ(stats.served, 0U);
  // Extended conservation identity, totals and per-version lanes.
  EXPECT_EQ(stats.submitted, stats.served + stats.served_partial +
                                 stats.zero_filled + stats.shed_total());
  ASSERT_EQ(stats.by_version.size(), 1U);
  EXPECT_EQ(stats.by_version[0].version, kVersion);
  EXPECT_EQ(stats.by_version[0].served_partial, 1U);
}

TEST_F(ShardGatewayTest, EveryReplicaDownResolvesZeroFilledNotError) {
  write_catalog();
  const auto router = make_shared_router();
  for (std::size_t s = 0; s < kShards; ++s) {
    for (std::size_t r = 0; r < kReplicas; ++r) router->kill_replica(s, r);
  }
  ServeGateway gateway(router, gateway_config());

  const ScoreResult result = submit_and_wait(gateway, user_request(2));
  EXPECT_EQ(result.status, RequestStatus::kZeroFilled);
  EXPECT_DOUBLE_EQ(result.coverage, 0.0);
  ASSERT_EQ(result.scores.size(), kItems);
  for (const float score : result.scores) EXPECT_EQ(score, 0.0F);

  gateway.shutdown();
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.zero_filled, 1U);
  ASSERT_EQ(stats.by_version.size(), 1U);
  EXPECT_EQ(stats.by_version[0].zero_filled, 1U);
}

TEST_F(ShardGatewayTest, RecoveryRestoresFullCoverageMidFlight) {
  write_catalog();
  const auto router = make_shared_router();
  ServeGateway gateway(router, gateway_config());

  router->kill_replica(1, 0);
  router->kill_replica(1, 1);
  const ScoreResult degraded = submit_and_wait(gateway, user_request(1));
  EXPECT_EQ(degraded.status, RequestStatus::kServedPartial);

  router->probe_now();
  const ScoreResult recovered = submit_and_wait(gateway, user_request(1));
  EXPECT_EQ(recovered.status, RequestStatus::kServed);
  EXPECT_DOUBLE_EQ(recovered.coverage, 1.0);

  gateway.shutdown();
  const GatewayStats stats = gateway.stats();
  EXPECT_EQ(stats.served, 1U);
  EXPECT_EQ(stats.served_partial, 1U);
  EXPECT_EQ(stats.submitted, stats.served + stats.served_partial +
                                 stats.zero_filled + stats.shed_total());
}

}  // namespace
}  // namespace ckat::serve
