// Batched ranking engine (DESIGN.md §11): scores a *block* of users
// against the full catalog in one Recommender::score_batch call (a tiled
// GEMM for embedding-table models), then reduces each score row to its
// top-K with a bounded min-heap. Replaces the per-user
// score_items + full-sort loop as the shared ranking core for the
// evaluator, the serving gateway's batch path, and the ranking
// microbenchmark.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "eval/recommender.hpp"
#include "util/parallel.hpp"

namespace ckat::eval {

struct RankerConfig {
  std::size_t k = 20;
  /// Users scored per score_batch call. 0 = read CKAT_EVAL_BLOCK
  /// (default 64). Larger blocks amortize the item-table memory traffic
  /// across more users; smaller blocks shrink the score buffer.
  std::size_t block_size = 0;
  /// Pool workers for the user blocks. 0 = read CKAT_EVAL_THREADS
  /// (default 1). Threads > 1 requires the model's score_batch /
  /// score_items to be safe for concurrent const calls —
  /// serve::ResilientRecommender is NOT (see resilient.hpp), which is
  /// why the default stays serial.
  int threads = 0;
  /// Optional hook observed once per score_batch block with the
  /// scoring wall time and the number of users in the block (the
  /// evaluator feeds it into the eval-scoring latency histogram). Must
  /// be thread-safe when threads > 1.
  std::function<void(double seconds, std::size_t block_users)>
      score_observer;
};

/// Resolves the worker-thread count: `requested` when positive,
/// otherwise CKAT_EVAL_THREADS, otherwise 1. Clamped to [1, 64].
int resolve_eval_threads(int requested);

/// Resolves the block size: `requested` when positive, otherwise
/// CKAT_EVAL_BLOCK, otherwise 64. Clamped to [1, 4096].
std::size_t resolve_eval_block(std::size_t requested);

class BatchRanker {
 public:
  /// Applied to a user's raw score row before the top-K reduction
  /// (candidate-set and train-item masking write -inf here).
  using MaskFn = std::function<void(std::uint32_t user, std::span<float> row)>;
  /// Receives each user's ranked top-K list. `slot` is the user's index
  /// in the `users` span passed to rank() — with threads > 1, visits
  /// arrive concurrently and out of order, but every slot is visited
  /// exactly once, so writing per-user results into a slot-indexed
  /// vector and reducing it afterwards in slot order is deterministic
  /// at any thread count. The `topk` span is only valid inside the
  /// call.
  using VisitFn = std::function<void(std::size_t slot, std::uint32_t user,
                                     std::span<const std::uint32_t> topk)>;

  /// Keeps a reference to `model`; the model must outlive the ranker.
  /// Zero config fields are resolved from the environment here, once,
  /// so one ranker ranks consistently even if the env changes later.
  /// Owns a util::WorkerPool of config.threads workers.
  BatchRanker(const Recommender& model, RankerConfig config);

  /// Ranks every user in `users` (duplicates allowed): cuts the span
  /// into blocks of block_size, runs the blocks on the ranker's pool
  /// (score, mask, reduce to top-K), and calls `visit` per user.
  /// `mask` may be empty (no masking). Exceptions thrown by the model,
  /// mask, or visit on any thread are rethrown on the caller.
  /// With threads > 1, one call at a time per ranker: a concurrent call
  /// throws std::logic_error (util::WorkerPool::run).
  void rank(std::span<const std::uint32_t> users, const MaskFn& mask,
            const VisitFn& visit) const;

  /// Convenience wrapper: returns the ranked top-K lists slot-aligned
  /// with `users`.
  [[nodiscard]] std::vector<std::vector<std::uint32_t>> top_k(
      std::span<const std::uint32_t> users, const MaskFn& mask = {}) const;

  [[nodiscard]] const RankerConfig& config() const noexcept {
    return config_;
  }

 private:
  const Recommender& model_;
  RankerConfig config_;
  // Execution resource only: rank() stays logically const.
  mutable util::WorkerPool pool_;
};

}  // namespace ckat::eval
