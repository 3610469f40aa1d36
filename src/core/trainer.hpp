// Minibatched multi-threaded training engine (DESIGN.md section 16).
//
// Both training phases decompose a sampled batch into fixed-size
// *slots* -- the partition depends only on the batch, never on the
// thread count. Workers compute each slot's forward/backward on a
// slot-local tape whose leaves are Tape::input() copies of the shared
// state; the coordinator then folds the slot gradients back in slot
// order. Per-slot work writes only slot-indexed storage and every
// floating-point reduction that crosses slots happens serially in slot
// order, so CKAT_TRAIN_THREADS never changes a single result bit --
// the same contract BatchRanker proves for ranking.
//
//   CF step: the shared tape's propagation forward runs once; slots
//   cover the BPR pairs; slot gradients w.r.t. the gathered
//   representation rows are scattered into one seed tensor and pushed
//   through the shared propagation stack with backward_seeded().
//
//   KG step: the batch is relation-sorted (grouping edges that share a
//   projection W_r) and sliced into slots inside each group; slot
//   gradients scatter-add into the Parameter gradient accumulators.
//   Negative tails are presampled by the caller so the RNG stream
//   stays serial and checkpoint resume stays bit-exact.
//
// Both steps finish with the slot-ordered parallel sparse Adam
// (AdamOptimizer::step(params, pool)).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/transr.hpp"
#include "nn/optim.hpp"
#include "nn/tape.hpp"
#include "util/parallel.hpp"

namespace ckat::core {

/// Resolves the training worker-thread count: `requested` when
/// positive, otherwise CKAT_TRAIN_THREADS, otherwise the number of CPUs
/// in the process's affinity mask. Clamped to [1, 64].
int resolve_train_threads(int requested);

/// Resolves the per-step BPR pair count: `requested` when positive,
/// otherwise CKAT_TRAIN_BATCH, otherwise `fallback` (the legacy
/// cf_batch_size). Clamped to [1, 1 << 20].
std::size_t resolve_train_batch(std::size_t requested, std::size_t fallback);

class MinibatchTrainer {
 public:
  explicit MinibatchTrainer(int threads);

  /// Also runs the model's propagation tapes and attention refresh.
  [[nodiscard]] util::WorkerPool& pool() noexcept { return pool_; }

  /// One BPR step over pre-propagated representations. `tape` must hold
  /// the training-mode forward pass ending at `representation`; users/
  /// positives/negatives are parallel arrays of *entity* row ids. Runs
  /// the slot fan-out, the shared backward, and the parallel Adam step,
  /// and returns the batch loss (BPR mean + scaled L2 of the gathered
  /// rows, matching the serial objective).
  float cf_step(nn::Tape& tape, nn::Var representation,
                std::span<const std::uint32_t> users,
                std::span<const std::uint32_t> positives,
                std::span<const std::uint32_t> negatives, float l2_coefficient,
                nn::ParamStore& params, nn::AdamOptimizer& optimizer);

  /// One TransR margin step. `negative_tails` holds one presampled
  /// corrupted tail per edge of `batch` (same order). Returns the batch
  /// loss (sum of per-edge hinges / batch size, matching
  /// TransR::train_step).
  float kg_step(TransR& transr, std::span<const KgEdge> batch,
                std::span<const std::uint32_t> negative_tails,
                nn::ParamStore& params, nn::AdamOptimizer& optimizer);

 private:
  util::WorkerPool pool_;
};

}  // namespace ckat::core
