// Each correctness gate accepts a correct answer and rejects a
// corrupted one.
#include <gtest/gtest.h>

#include "checks.hpp"

namespace perfbench {
namespace {

using ckat::serve::GatewayStats;
using ckat::serve::RequestStatus;
using ckat::serve::ScoreResult;
using ckat::serve::ShardRouterStats;

std::vector<double> reference_scores() {
  // 50 items; items 10 and 11 tie within tolerance.
  std::vector<double> ref(50);
  for (std::size_t i = 0; i < ref.size(); ++i) ref[i] = 100.0 - static_cast<double>(i);
  ref[11] = ref[10] + 1e-7;
  return ref;
}

std::vector<float> row_of(const std::vector<double>& ref) {
  return {ref.begin(), ref.end()};
}

TEST(Checks, TopKAcceptsExactAnswerAndTieSwaps) {
  const auto ref = reference_scores();
  const auto row = row_of(ref);
  const auto top = answer_topk(row, 20);
  EXPECT_EQ(check_topk(top, ref, 20), "");
  EXPECT_DOUBLE_EQ(topk_agreement(top, ref, 20), 1.0);
  auto swapped = top;
  std::swap(swapped[10], swapped[11]);  // near-tied ids may trade places
  EXPECT_EQ(check_topk(swapped, ref, 20), "");
}

TEST(Checks, TopKRejectsCorruptedAnswers) {
  const auto ref = reference_scores();
  auto row = row_of(ref);
  row[30] = 1000.0F;  // a bit-flipped score pushes item 30 to the top
  const auto corrupted = answer_topk(row, 20);
  EXPECT_NE(check_topk(corrupted, ref, 20), "");
  EXPECT_LT(topk_agreement(corrupted, ref, 20), 1.0);

  auto top = answer_topk(row_of(ref), 20);
  auto swapped = top;
  std::swap(swapped[0], swapped[5]);  // distinct scores out of order
  EXPECT_NE(check_topk(swapped, ref, 20), "");
  auto repeated = top;
  repeated[3] = repeated[2];
  EXPECT_NE(check_topk(repeated, ref, 20), "");
  auto out_of_range = top;
  out_of_range[0] = 999;
  EXPECT_NE(check_topk(out_of_range, ref, 20), "");
  top.pop_back();
  EXPECT_NE(check_topk(top, ref, 20), "");
}

GatewayStats balanced_gateway() {
  GatewayStats s;
  s.submitted = 10;
  s.served = 7;
  s.zero_filled = 1;
  s.shed_queue_full = 2;
  s.by_version = {{1, 3, 0, 1}, {2, 4, 0, 0}};
  return s;
}

TEST(Checks, GatewayConservation) {
  EXPECT_EQ(check_gateway_conservation(balanced_gateway()), "");
  GatewayStats lost = balanced_gateway();
  lost.submitted = 11;  // one request never resolved
  EXPECT_NE(check_gateway_conservation(lost), "");
  GatewayStats lanes = balanced_gateway();
  lanes.by_version[1].served = 5;  // lanes no longer sum to served
  EXPECT_NE(check_gateway_conservation(lanes), "");
}

TEST(Checks, RouterConservation) {
  ShardRouterStats s;
  s.requests = 5;
  s.served_full = 4;
  s.served_partial = 1;
  s.shards = {{10, 2, 5, 0}, {10, 2, 4, 1}};
  EXPECT_EQ(check_router_conservation(s), "");
  ShardRouterStats lost = s;
  lost.served_full = 3;
  EXPECT_NE(check_router_conservation(lost), "");
  ShardRouterStats shard = s;
  shard.shards[1].failed = 0;  // a shard skipped a request
  EXPECT_NE(check_router_conservation(shard), "");
}

TEST(Checks, VersionedAnswers) {
  const std::map<std::uint64_t, std::size_t> published{{1, 100}, {2, 120}};
  ScoreResult ok;
  ok.status = RequestStatus::kServed;
  ok.model_version = 2;
  ok.scores.assign(120, 0.0F);
  EXPECT_EQ(check_versioned_answer(ok, published), "");
  ScoreResult unpublished = ok;
  unpublished.model_version = 3;
  EXPECT_NE(check_versioned_answer(unpublished, published), "");
  ScoreResult wrong_width = ok;
  wrong_width.scores.assign(100, 0.0F);  // version 1's width on version 2
  EXPECT_NE(check_versioned_answer(wrong_width, published), "");
  ScoreResult shed = ok;
  shed.status = RequestStatus::kShedQueueFull;
  EXPECT_NE(check_versioned_answer(shed, published), "");
}

TEST(Checks, VersionLanesMatchClientAnswers) {
  GatewayStats s;
  s.by_version = {{1, 3, 0, 0}, {2, 4, 0, 0}};
  EXPECT_EQ(check_version_lanes(s, {{1, 3}, {2, 4}}), "");
  EXPECT_NE(check_version_lanes(s, {{1, 4}, {2, 3}}), "");
  EXPECT_NE(check_version_lanes(s, {{1, 3}}), "");
}

}  // namespace
}  // namespace perfbench
