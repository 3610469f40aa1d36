// Behavioural tests shared by all seven baselines: each model must
// train deterministically on the tiny fixture and beat a random ranker
// by a clear margin.
#include <gtest/gtest.h>

#include <stdexcept>

#include <cmath>
#include <memory>

#include "baselines/bprmf.hpp"
#include "baselines/cfkg.hpp"
#include "baselines/cke.hpp"
#include "baselines/fm.hpp"
#include "baselines/kgcn.hpp"
#include "baselines/ripplenet.hpp"
#include "eval/evaluator.hpp"
#include "facility/dataset.hpp"

namespace ckat::baselines {
namespace {

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

/// Builder indexed by name so the same battery runs per model.
std::unique_ptr<eval::Recommender> build(const std::string& name,
                                         std::uint64_t seed) {
  const auto& train = shared().dataset.split().train;
  const auto& ckg = shared().ckg;
  if (name == "BPRMF") {
    return std::make_unique<BprmfModel>(
        train, BprmfConfig{.epochs = 25, .seed = seed});
  }
  if (name == "FM") {
    return std::make_unique<PlainFmModel>(
        ckg, train, FmConfig{.epochs = 15, .seed = seed});
  }
  if (name == "NFM") {
    return std::make_unique<NfmModel>(ckg, train,
                                      FmConfig{.epochs = 15, .seed = seed});
  }
  if (name == "CKE") {
    return std::make_unique<CkeModel>(ckg, train,
                                      CkeConfig{.epochs = 15, .seed = seed});
  }
  if (name == "CFKG") {
    return std::make_unique<CfkgModel>(ckg, train,
                                       CfkgConfig{.epochs = 20, .seed = seed});
  }
  if (name == "RippleNet") {
    return std::make_unique<RippleNetModel>(
        ckg, train, RippleNetConfig{.epochs = 12, .seed = seed});
  }
  if (name == "KGCN") {
    return std::make_unique<KgcnModel>(ckg, train,
                                       KgcnConfig{.epochs = 20, .seed = seed});
  }
  throw std::invalid_argument("unknown model " + name);
}

class BaselineBattery : public ::testing::TestWithParam<const char*> {};

TEST_P(BaselineBattery, NameMatches) {
  auto model = build(GetParam(), 7);
  EXPECT_EQ(model->name(), GetParam());
  EXPECT_EQ(model->n_users(), shared().dataset.n_users());
  EXPECT_EQ(model->n_items(), shared().dataset.n_items());
}

TEST_P(BaselineBattery, RequiresFitBeforeScoring) {
  auto model = build(GetParam(), 7);
  std::vector<float> scores(model->n_items());
  EXPECT_THROW(model->score_items(0, scores), std::logic_error);
}

TEST_P(BaselineBattery, BeatsRandomRankingAfterTraining) {
  auto model = build(GetParam(), 7);
  model->fit();
  const auto metrics =
      eval::evaluate_topk(*model, shared().dataset.split());
  // Random top-20 over ~150 candidate items gives recall ~0.13 in
  // expectation only when users hold many test items; in practice the
  // random baseline on this fixture scores ~0.10. Require a clear win.
  EXPECT_GT(metrics.recall, 0.14) << GetParam();
  EXPECT_GT(metrics.ndcg, 0.08) << GetParam();
}

TEST_P(BaselineBattery, DeterministicGivenSeed) {
  auto a = build(GetParam(), 13);
  auto b = build(GetParam(), 13);
  a->fit();
  b->fit();
  std::vector<float> sa(a->n_items()), sb(b->n_items());
  a->score_items(1, sa);
  b->score_items(1, sb);
  for (std::size_t i = 0; i < sa.size(); ++i) {
    ASSERT_EQ(sa[i], sb[i]) << GetParam() << " item " << i;
  }
}

TEST_P(BaselineBattery, ScoreSpanSizeValidated) {
  auto model = build(GetParam(), 7);
  model->fit();
  std::vector<float> wrong(model->n_items() + 3);
  EXPECT_THROW(model->score_items(0, wrong), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineBattery,
                         ::testing::Values("BPRMF", "FM", "NFM", "CKE",
                                           "CFKG", "RippleNet", "KGCN"));

TEST(Bprmf, RejectsEmptyTraining) {
  graph::InteractionSet empty(2, 3);
  empty.finalize();
  EXPECT_THROW(BprmfModel(empty, BprmfConfig{}), std::invalid_argument);
}

// Tensor::row only asserts its index, so before the explicit check a
// Release build read another table's memory for an out-of-range user.
TEST(Bprmf, RejectsUserIdsOutsideTheUserTable) {
  const auto& train = shared().dataset.split().train;
  BprmfModel model(train, BprmfConfig{.epochs = 1, .seed = 3});
  model.fit();
  const auto n_users = static_cast<std::uint32_t>(model.n_users());
  std::vector<float> row(model.n_items());
  EXPECT_NO_THROW(model.score_items(n_users - 1, row));
  EXPECT_THROW(model.score_items(n_users, row), std::out_of_range);
  EXPECT_THROW(model.score_items(0xFFFFFFFFu, row), std::out_of_range);
  std::vector<float> block(2 * model.n_items());
  const std::vector<std::uint32_t> users = {0, n_users + 7};
  EXPECT_THROW(model.score_batch(users, block), std::out_of_range);
}

TEST(FmModels, NeuralFlagControlsName) {
  const auto& train = shared().dataset.split().train;
  PlainFmModel fm(shared().ckg, train, FmConfig{});
  NfmModel nfm(shared().ckg, train, FmConfig{});
  EXPECT_EQ(fm.name(), "FM");
  EXPECT_EQ(nfm.name(), "NFM");
}

TEST(FmModels, NeuralHeadChangesScores) {
  // With identical seeds and data, FM and NFM must still diverge: the
  // NFM hidden layer is part of the function, not a no-op.
  const auto& train = shared().dataset.split().train;
  PlainFmModel fm(shared().ckg, train, FmConfig{.epochs = 5, .seed = 3});
  NfmModel nfm(shared().ckg, train, FmConfig{.epochs = 5, .seed = 3});
  fm.fit();
  nfm.fit();
  std::vector<float> fm_scores(fm.n_items()), nfm_scores(nfm.n_items());
  fm.score_items(0, fm_scores);
  nfm.score_items(0, nfm_scores);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < fm_scores.size(); ++i) {
    differing += std::fabs(fm_scores[i] - nfm_scores[i]) > 1e-6f;
  }
  EXPECT_GT(differing, fm_scores.size() / 2);
}

TEST(Kgcn, DifferentSeedsDifferentNeighborTables) {
  const auto& train = shared().dataset.split().train;
  KgcnModel a(shared().ckg, train, KgcnConfig{.epochs = 1, .seed = 1});
  KgcnModel b(shared().ckg, train, KgcnConfig{.epochs = 1, .seed = 2});
  a.fit();
  b.fit();
  std::vector<float> sa(a.n_items()), sb(b.n_items());
  a.score_items(0, sa);
  b.score_items(0, sb);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < sa.size(); ++i) {
    differing += sa[i] != sb[i];
  }
  EXPECT_GT(differing, 0u);
}

TEST(Cfkg, ScoresAreNegatedDistances) {
  const auto& train = shared().dataset.split().train;
  CfkgModel model(shared().ckg, train, CfkgConfig{.epochs = 2});
  model.fit();
  std::vector<float> scores(model.n_items());
  model.score_items(0, scores);
  for (float s : scores) EXPECT_LE(s, 0.0f);
}

}  // namespace
}  // namespace ckat::baselines
