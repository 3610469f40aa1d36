#include "eval/ranker.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "eval/metrics.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/timer.hpp"

namespace ckat::eval {

int resolve_eval_threads(int requested) {
  if (requested > 0) return std::min(requested, 64);
  return static_cast<int>(util::env_int("CKAT_EVAL_THREADS", 1, 1, 64));
}

std::size_t resolve_eval_block(std::size_t requested) {
  if (requested > 0) return std::min<std::size_t>(requested, 4096);
  return static_cast<std::size_t>(
      util::env_int("CKAT_EVAL_BLOCK", 64, 1, 4096));
}

BatchRanker::BatchRanker(const Recommender& model, RankerConfig config)
    : model_(model),
      config_(std::move(config)),
      pool_(static_cast<std::size_t>(resolve_eval_threads(config_.threads))) {
  config_.threads = static_cast<int>(pool_.size());
  config_.block_size = resolve_eval_block(config_.block_size);
}

void BatchRanker::rank(std::span<const std::uint32_t> users,
                       const MaskFn& mask, const VisitFn& visit) const {
  if (!visit) {
    throw std::invalid_argument("BatchRanker::rank: visit must be callable");
  }
  const std::size_t n_items = model_.n_items();
  // Capture the caller's trace lineage so each block's span on a pool
  // worker joins the caller's per-request tree instead of rooting a
  // disconnected trace on its own thread.
  const obs::TraceContext trace_ctx = obs::current_trace_context();
  // One chunk per block: the block partition is fixed by block_size,
  // never by the thread count.
  pool_.for_chunks(users.size(), config_.block_size, [&](std::size_t b0,
                                                         std::size_t b1) {
    std::optional<obs::TraceSpan> block_span;
    if (pool_.size() > 1) {
      block_span.emplace("ranker.block", trace_ctx,
                         obs::TraceAttrs{{"first_slot", std::to_string(b0)},
                                         {"users", std::to_string(b1 - b0)}});
    }
    const auto block = users.subspan(b0, b1 - b0);
    std::vector<float> scores(block.size() * n_items);
    util::Timer score_timer;
    model_.score_batch(block, scores);
    if (config_.score_observer) {
      config_.score_observer(score_timer.seconds(), block.size());
    }
    std::vector<std::uint32_t> topk;
    topk.reserve(config_.k);
    for (std::size_t i = 0; i < block.size(); ++i) {
      const auto row = std::span<float>(scores).subspan(i * n_items, n_items);
      if (mask) mask(block[i], row);
      top_k_row(row, config_.k, topk);
      visit(b0 + i, block[i], topk);
    }
  });
}

std::vector<std::vector<std::uint32_t>> BatchRanker::top_k(
    std::span<const std::uint32_t> users, const MaskFn& mask) const {
  std::vector<std::vector<std::uint32_t>> result(users.size());
  rank(users, mask,
       [&result](std::size_t slot, std::uint32_t /*user*/,
                 std::span<const std::uint32_t> topk) {
         result[slot].assign(topk.begin(), topk.end());
       });
  return result;
}

}  // namespace ckat::eval
