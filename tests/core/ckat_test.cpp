#include "core/ckat.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "eval/evaluator.hpp"
#include "facility/dataset.hpp"
#include "graph/delta.hpp"

namespace ckat::core {
namespace {

/// Shared tiny dataset + CKG, built once (CKAT training is the slow
/// part, not this).
struct SharedData {
  SharedData()
      : dataset(facility::make_ooi_dataset(42, facility::DatasetScale::kTiny)),
        ckg(dataset.build_default_ckg()) {}
  facility::FacilityDataset dataset;
  graph::CollaborativeKg ckg;
};

const SharedData& shared() {
  static const SharedData data;
  return data;
}

CkatConfig fast_config() {
  CkatConfig config;
  config.epochs = 8;
  config.cf_batch_size = 512;
  return config;
}

TEST(Ckat, RepresentationDimIsLayerSum) {
  CkatModel model(shared().ckg, shared().dataset.split().train, fast_config());
  EXPECT_EQ(model.representation_dim(), 64u + 64u + 32u + 16u);
  EXPECT_EQ(model.name(), "CKAT");
  EXPECT_EQ(model.n_users(), shared().dataset.n_users());
  EXPECT_EQ(model.n_items(), shared().dataset.n_items());
}

TEST(Ckat, RequiresFitBeforeScoring) {
  CkatModel model(shared().ckg, shared().dataset.split().train, fast_config());
  std::vector<float> scores(model.n_items());
  EXPECT_THROW(model.score_items(0, scores), std::logic_error);
  EXPECT_THROW(static_cast<void>(model.final_representations()), std::logic_error);
}

TEST(Ckat, RejectsEmptyLayerStack) {
  CkatConfig config = fast_config();
  config.layer_dims.clear();
  EXPECT_THROW(
      CkatModel(shared().ckg, shared().dataset.split().train, config),
      std::invalid_argument);
}

TEST(Ckat, PropagationMatrixMatchesAdjacency) {
  CkatModel model(shared().ckg, shared().dataset.split().train, fast_config());
  const auto adjacency = shared().ckg.build_adjacency();
  // Coefficients may merge parallel (h,t) edges, so nnz <= edges.
  EXPECT_LE(model.propagation_matrix().forward.nnz(), adjacency.n_edges());
  EXPECT_EQ(model.propagation_matrix().forward.n_rows,
            shared().ckg.n_entities());
}

TEST(Ckat, TrainingReducesLossAndLearns) {
  CkatModel model(shared().ckg, shared().dataset.split().train, fast_config());
  model.fit();
  const auto& history = model.history();
  ASSERT_EQ(history.size(), 8u);
  EXPECT_LT(history.back().cf_loss, history.front().cf_loss);
  EXPECT_LT(history.back().kg_loss, history.front().kg_loss);

  const auto metrics = eval::evaluate_topk(model, shared().dataset.split());
  // Random ranking over ~150 items would land well under 0.1 recall.
  EXPECT_GT(metrics.recall, 0.12);
  EXPECT_GT(metrics.ndcg, 0.08);
}

TEST(Ckat, FinalRepresentationsShape) {
  CkatModel model(shared().ckg, shared().dataset.split().train, fast_config());
  model.fit();
  const nn::Tensor& repr = model.final_representations();
  EXPECT_EQ(repr.rows(), shared().ckg.n_entities());
  EXPECT_EQ(repr.cols(), model.representation_dim());
  EXPECT_GT(repr.max_abs(), 0.0f);
}

TEST(Ckat, ScoreIsInnerProductOfRepresentations) {
  CkatModel model(shared().ckg, shared().dataset.split().train, fast_config());
  model.fit();
  std::vector<float> scores(model.n_items());
  model.score_items(3, scores);
  const nn::Tensor& repr = model.final_representations();
  auto u = repr.row(shared().ckg.user_entity(3));
  auto v = repr.row(shared().ckg.item_entity(5));
  float expected = 0.0f;
  for (std::size_t c = 0; c < u.size(); ++c) expected += u[c] * v[c];
  EXPECT_NEAR(scores[5], expected, 1e-4f);
}

TEST(Ckat, DeterministicGivenSeed) {
  CkatConfig config = fast_config();
  config.epochs = 3;
  CkatModel a(shared().ckg, shared().dataset.split().train, config);
  CkatModel b(shared().ckg, shared().dataset.split().train, config);
  a.fit();
  b.fit();
  std::vector<float> sa(a.n_items()), sb(b.n_items());
  a.score_items(0, sa);
  b.score_items(0, sb);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i], sb[i]) << "item " << i;
  }
}

TEST(Ckat, SumAggregatorTrains) {
  CkatConfig config = fast_config();
  config.epochs = 4;
  config.aggregator = Aggregator::kSum;
  CkatModel model(shared().ckg, shared().dataset.split().train, config);
  model.fit();
  EXPECT_LT(model.history().back().cf_loss, model.history().front().cf_loss);
}

TEST(Ckat, NoAttentionVariantTrains) {
  CkatConfig config = fast_config();
  config.epochs = 4;
  config.use_attention = false;
  CkatModel model(shared().ckg, shared().dataset.split().train, config);
  model.fit();
  EXPECT_LT(model.history().back().cf_loss, model.history().front().cf_loss);
}

TEST(Ckat, SingleLayerConfig) {
  CkatConfig config = fast_config();
  config.epochs = 3;
  config.layer_dims = {32};
  CkatModel model(shared().ckg, shared().dataset.split().train, config);
  EXPECT_EQ(model.representation_dim(), 64u + 32u);
  model.fit();
  const nn::Tensor& repr = model.final_representations();
  EXPECT_EQ(repr.cols(), 96u);
}

TEST(Ckat, NoInverseRelationsHalvesEdges) {
  CkatConfig config = fast_config();
  config.epochs = 2;
  config.inverse_relations = false;
  CkatModel model(shared().ckg, shared().dataset.split().train, config);
  CkatConfig with = fast_config();
  CkatModel reference(shared().ckg, shared().dataset.split().train, with);
  EXPECT_LT(model.propagation_matrix().forward.nnz(),
            reference.propagation_matrix().forward.nnz());
  model.fit();
  EXPECT_LT(model.history().back().cf_loss, model.history().front().cf_loss);
}

TEST(Ckat, FrozenAttentionScheduleTrains) {
  CkatConfig config = fast_config();
  config.epochs = 4;
  config.attention_refresh_every = 0;  // freeze initial coefficients
  CkatModel model(shared().ckg, shared().dataset.split().train, config);
  model.fit();
  EXPECT_LT(model.history().back().cf_loss, model.history().front().cf_loss);
}

TEST(Ckat, WarmStartTransfersQuality) {
  // Train a model on the default CKG, then warm-start a model over the
  // *extended* CKG (MD source adds entities): without any training the
  // warm model must already rank far better than a cold one.
  CkatConfig config = fast_config();
  config.epochs = 10;
  CkatModel base(shared().ckg, shared().dataset.split().train, config);
  base.fit();
  const auto base_metrics =
      eval::evaluate_topk(base, shared().dataset.split());

  graph::CkgOptions extended_options;
  extended_options.include_user_user = true;
  extended_options.sources = {facility::kSourceLoc, facility::kSourceDkg,
                              facility::kSourceMd};
  const auto extended_ckg = shared().dataset.build_ckg(extended_options);
  ASSERT_GT(extended_ckg.n_entities(), shared().ckg.n_entities());

  CkatConfig warm_config = fast_config();
  warm_config.epochs = 1;
  CkatModel warm(extended_ckg, shared().dataset.split().train, warm_config);
  warm.warm_start_from(base);
  // Score without further training: reuse cached representations via a
  // minimal fit of one epoch (fit also refreshes the representation).
  warm.fit();
  const auto warm_metrics =
      eval::evaluate_topk(warm, shared().dataset.split());

  CkatModel cold(extended_ckg, shared().dataset.split().train, warm_config);
  cold.fit();
  const auto cold_metrics =
      eval::evaluate_topk(cold, shared().dataset.split());

  EXPECT_GT(warm_metrics.recall, cold_metrics.recall);
  EXPECT_GT(warm_metrics.recall, 0.7 * base_metrics.recall);
}

TEST(Ckat, WarmStartRejectsArchitectureMismatch) {
  CkatConfig config = fast_config();
  config.epochs = 1;
  CkatModel base(shared().ckg, shared().dataset.split().train, config);
  CkatConfig other = fast_config();
  other.layer_dims = {16};
  CkatModel different(shared().ckg, shared().dataset.split().train, other);
  EXPECT_THROW(different.warm_start_from(base), std::invalid_argument);
}

TEST(Ckat, SaveLoadRoundTripPreservesScores) {
  const std::string path = "/tmp/ckat_model_roundtrip.bin";
  CkatConfig config = fast_config();
  config.epochs = 3;

  CkatModel trained(shared().ckg, shared().dataset.split().train, config);
  trained.fit();
  trained.save(path);
  std::vector<float> expected(trained.n_items());
  trained.score_items(2, expected);

  CkatModel restored(shared().ckg, shared().dataset.split().train, config);
  restored.load(path);
  std::vector<float> actual(restored.n_items());
  restored.score_items(2, actual);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "item " << i;
  }
  std::remove(path.c_str());
}

TEST(Ckat, SaveRequiresFit) {
  CkatModel model(shared().ckg, shared().dataset.split().train, fast_config());
  EXPECT_THROW(model.save("/tmp/ckat_unfitted.bin"), std::logic_error);
}

TEST(Ckat, LoadRejectsDifferentArchitecture) {
  const std::string path = "/tmp/ckat_model_arch.bin";
  CkatConfig config = fast_config();
  config.epochs = 1;
  CkatModel trained(shared().ckg, shared().dataset.split().train, config);
  trained.fit();
  trained.save(path);

  CkatConfig other = fast_config();
  other.layer_dims = {32};  // different layer stack
  CkatModel mismatched(shared().ckg, shared().dataset.split().train, other);
  EXPECT_THROW(mismatched.load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Ckat, ScoreSpanSizeValidated) {
  CkatConfig config = fast_config();
  config.epochs = 1;
  CkatModel model(shared().ckg, shared().dataset.split().train, config);
  model.fit();
  std::vector<float> wrong(model.n_items() + 1);
  EXPECT_THROW(model.score_items(0, wrong), std::invalid_argument);
}

// Users in [n_users, n_entities) index item/attribute rows of e*, and
// larger ids run past it; Tensor::row only asserts, so the model has to
// reject both in every build.
TEST(Ckat, RejectsUserIdsOutsideTheUserRange) {
  CkatConfig config = fast_config();
  config.epochs = 1;
  CkatModel model(shared().ckg, shared().dataset.split().train, config);
  model.fit();
  const auto n_users = static_cast<std::uint32_t>(model.n_users());
  std::vector<float> row(model.n_items());
  EXPECT_NO_THROW(model.score_items(n_users - 1, row));
  EXPECT_THROW(model.score_items(n_users, row), std::out_of_range);
  EXPECT_THROW(
      model.score_items(
          static_cast<std::uint32_t>(shared().ckg.n_entities() - 1), row),
      std::out_of_range);
  EXPECT_THROW(model.score_items(0xFFFFFFFFu, row), std::out_of_range);
  std::vector<float> block(2 * model.n_items());
  const std::vector<std::uint32_t> users = {0, n_users};
  EXPECT_THROW(model.score_batch(users, block), std::out_of_range);
}

/// Requires score_items, score_batch and the scalar dot over
/// final_representations() to agree bytewise for every user.
void expect_scores_match_representations(const CkatModel& model,
                                         const graph::CollaborativeKg& ckg) {
  const std::size_t n_users = model.n_users(), n_items = model.n_items();
  std::vector<std::uint32_t> users(n_users);
  std::iota(users.begin(), users.end(), 0u);
  std::vector<float> batch(n_users * n_items);
  model.score_batch(users, batch);
  const nn::Tensor& repr = model.final_representations();
  std::vector<float> row(n_items);
  std::vector<float> reference(n_items);
  for (const std::uint32_t u : users) {
    model.score_items(u, row);
    const auto user_row = repr.row(ckg.user_entity(u));
    for (std::size_t v = 0; v < n_items; ++v) {
      const auto item_row = repr.row(ckg.item_entity(
          static_cast<std::uint32_t>(v)));
      float acc = 0.0f;
      for (std::size_t c = 0; c < user_row.size(); ++c) {
        acc += user_row[c] * item_row[c];
      }
      reference[v] = acc;
    }
    ASSERT_EQ(std::memcmp(row.data(), reference.data(),
                          n_items * sizeof(float)),
              0)
        << "score_items vs scalar, user " << u;
    ASSERT_EQ(std::memcmp(batch.data() + u * n_items, reference.data(),
                          n_items * sizeof(float)),
              0)
        << "score_batch vs scalar, user " << u;
  }
}

// The packed item panel is rebuilt wherever e* is: after fit(), after a
// further refresh_fit on the same model, and on a warm-started
// candidate over a CKG grown by a delta (more users and items).
TEST(Ckat, PackedPanelTracksRepresentations) {
  const graph::InteractionSet& train = shared().dataset.split().train;
  CkatConfig config = fast_config();
  config.epochs = 2;
  CkatModel model(shared().ckg, train, config);
  model.fit();
  expect_scores_match_representations(model, shared().ckg);

  std::vector<float> before(model.n_items());
  model.score_items(0, before);
  model.refresh_fit(1);
  std::vector<float> after(model.n_items());
  model.score_items(0, after);
  EXPECT_NE(std::memcmp(before.data(), after.data(),
                        before.size() * sizeof(float)),
            0);
  expect_scores_match_representations(model, shared().ckg);

  graph::CollaborativeKg grown = shared().ckg;
  graph::CkgDelta delta;
  delta.n_new_users = 2;
  delta.n_new_items = 3;
  const auto new_user = static_cast<std::uint32_t>(train.n_users());
  const auto new_item = static_cast<std::uint32_t>(train.n_items());
  delta.interactions = {{new_user, new_item},
                        {new_user, 0},
                        {new_user + 1, new_item + 2},
                        {0, new_item + 1}};
  grown.apply_delta(delta);
  graph::InteractionSet grown_train(grown.n_users(), grown.n_items());
  for (const graph::Interaction& pair : train.pairs()) {
    grown_train.add(pair.user, pair.item);
  }
  for (const graph::Interaction& pair : delta.interactions) {
    grown_train.add(pair.user, pair.item);
  }
  grown_train.finalize();

  CkatModel candidate(grown, grown_train, config);
  candidate.warm_start_from_checkpoint(model.make_checkpoint(config.epochs),
                                       shared().ckg);
  candidate.refresh_fit(1);
  ASSERT_EQ(candidate.n_users(), model.n_users() + 2);
  ASSERT_EQ(candidate.n_items(), model.n_items() + 3);
  expect_scores_match_representations(candidate, grown);
}

}  // namespace
}  // namespace ckat::core
