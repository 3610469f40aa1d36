// CKAT: Collaborative Knowledge-aware graph ATtention network (Sec. V).
//
// Architecture (Fig. 6a):
//   1. Embedding layer -- TransR over the CKG (Eq. 1-2).
//   2. Knowledge-aware attentive embedding propagation (Eq. 3-9):
//      L stacked layers; each aggregates attention-weighted neighbor
//      messages (fixed coefficients recomputed from TransR parameters
//      between epochs) and transforms with a concat or sum aggregator
//      (Eq. 6-7).
//   3. Prediction layer -- layer-wise concatenation of representations
//      and inner-product scoring (Eq. 10-11).
// Training alternates BPR steps on the CF part (Eq. 12) with TransR
// margin steps on the KG part, optimizing Eq. 13.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/attention.hpp"
#include "core/bpr.hpp"
#include "core/trainer.hpp"
#include "core/transr.hpp"
#include "eval/recommender.hpp"
#include "graph/ckg.hpp"
#include "nn/kernels.hpp"
#include "nn/optim.hpp"
#include "nn/parameter.hpp"
#include "nn/serialize.hpp"
#include "nn/tape.hpp"

namespace ckat::core {

enum class Aggregator { kConcat, kSum };

struct CkatConfig {
  std::size_t embedding_dim = 64;             // Sec. VI.D
  std::vector<std::size_t> layer_dims = {64, 32, 16};  // depth L = 3
  Aggregator aggregator = Aggregator::kConcat;
  bool use_attention = true;  // Table IV ablation switch

  float learning_rate = 0.01f;
  float l2_coefficient = 1e-5f;
  float dropout = 0.1f;
  float transr_margin = 1.0f;

  std::size_t cf_batch_size = 2048;
  std::size_t kg_batch_size = 4096;

  /// Minibatched training engine (DESIGN.md section 16). train_threads:
  /// worker threads for the slot fan-out and the sparse Adam step; 0
  /// resolves CKAT_TRAIN_THREADS (default 1). Any value produces
  /// bit-identical parameters -- the slot partition and every
  /// cross-slot reduction are thread-count independent. train_batch:
  /// BPR pairs sampled per CF step; 0 resolves CKAT_TRAIN_BATCH
  /// (default: cf_batch_size).
  int train_threads = 0;
  std::size_t train_batch = 0;

  int epochs = 25;
  std::uint64_t seed = 7;
  bool verbose = false;

  /// Mirror every triple with an inverse relation (Sec. IV's canonical +
  /// inverse convention). Off = information only flows head -> tail.
  bool inverse_relations = true;
  /// Recompute attention coefficients from the TransR parameters every
  /// N epochs (KGAT schedule: 1). 0 freezes the initial coefficients,
  /// isolating the value of co-training attention with the embeddings.
  int attention_refresh_every = 1;

  /// Fault tolerance. checkpoint_every > 0 makes fit() write a durable
  /// training checkpoint to checkpoint_path after every N epochs (the
  /// previous file is rotated to checkpoint_path + ".prev"). When an
  /// epoch produces a non-finite CF or KG loss, fit() rolls back to the
  /// last good checkpoint, multiplies the learning rate by
  /// rollback_lr_factor and retries, up to max_rollbacks times; with
  /// checkpointing disabled the legacy record-and-continue behaviour is
  /// kept.
  int checkpoint_every = 0;
  std::string checkpoint_path;
  float rollback_lr_factor = 0.5f;
  int max_rollbacks = 3;
};

class CkatModel final : public eval::Recommender {
 public:
  /// `ckg` and `train` must outlive the model.
  CkatModel(const graph::CollaborativeKg& ckg,
            const graph::InteractionSet& train, CkatConfig config);

  [[nodiscard]] std::string name() const override { return "CKAT"; }
  void fit() override;
  /// Scores one user against the item panel packed when the
  /// representations were cached (nn::gemm_nt_packed with m = 1): no
  /// per-call gather, packing or heap allocation, and every score is
  /// bit-identical to the scalar dot of the two e* rows. Throws
  /// std::out_of_range for user >= n_users() in every build.
  void score_items(std::uint32_t user, std::span<float> out) const override;
  /// Batched scoring: gathers the user rows and runs one packed GEMM
  /// against the same item panel; row i is bit-identical to
  /// score_items(users[i]). Throws std::out_of_range on any user id
  /// >= n_users().
  void score_batch(std::span<const std::uint32_t> users,
                   std::span<float> out) const override;
  [[nodiscard]] std::size_t n_users() const override;
  [[nodiscard]] std::size_t n_items() const override;

  /// Final concatenated representations e* for all entities
  /// (available after fit()); rows follow the CKG entity layout.
  [[nodiscard]] const nn::Tensor& final_representations() const;

  /// Width of e* = d0 + sum(layer_dims).
  [[nodiscard]] std::size_t representation_dim() const;

  /// Losses per epoch (CF BPR loss, KG TransR loss) for diagnostics.
  struct EpochStats {
    float cf_loss = 0.0f;
    float kg_loss = 0.0f;
  };
  [[nodiscard]] const std::vector<EpochStats>& history() const noexcept {
    return history_;
  }

  /// Exposes the propagation coefficients (tests/diagnostics).
  [[nodiscard]] const PropagationMatrix& propagation_matrix() const noexcept {
    return propagation_;
  }

  /// Persists all trained parameters to a binary file. The model can be
  /// restored with load() on an identically-configured CkatModel over
  /// the same CKG (mismatches are detected and rejected).
  void save(const std::string& path) const;

  /// Restores parameters saved by save(); the model becomes ready for
  /// scoring without retraining.
  void load(const std::string& path);

  /// Captures the complete training state (parameters, optimizer moments
  /// and step counts, RNG, learning-rate scale) as of `epoch` completed
  /// epochs.
  [[nodiscard]] nn::TrainingCheckpoint make_checkpoint(int epoch) const;

  /// Applies a checkpoint produced by make_checkpoint (or loaded from
  /// disk) on an identically-configured model; the next fit() resumes
  /// from checkpoint.epoch and reproduces the uninterrupted run
  /// bit-exactly. Throws std::runtime_error on any mismatch.
  void restore_checkpoint(const nn::TrainingCheckpoint& checkpoint);

  /// Loads a checkpoint file (written by fit()'s periodic checkpointing)
  /// and restores it; a following fit() continues the interrupted run.
  void resume_from(const std::string& path);

  /// Number of divergence rollbacks the last fit() performed.
  [[nodiscard]] int rollback_count() const noexcept { return rollbacks_; }

  /// Warm start (Sec. VI.F's "fine-tuning must be repeated" limitation):
  /// copies every parameter from `previous` whose entity (matched by
  /// CKG entity name) or weight matrix also exists here, leaving
  /// genuinely new entities at their fresh initialization. The previous
  /// model must share embedding_dim and layer_dims. Call before fit();
  /// far fewer epochs are then needed to recover full quality.
  void warm_start_from(const CkatModel& previous);

  /// Online-refresh warm start (serve/refresh.hpp): resumes from a
  /// CKATCKP2 checkpoint captured on a model over `previous_ckg`, on
  /// this model's *grown* CKG. Entity/relation rows transfer by stable
  /// CKG name bit-exactly — parameter values AND Adam moments — so an
  /// immediately-following refresh_fit continues the optimizer
  /// trajectory; genuinely new entities keep their fresh Xavier rows
  /// and zero moments. Optimizer step counts, RNG state and the
  /// learning-rate scale are restored from the checkpoint.
  ///
  /// Rejects (std::runtime_error, clear message): a checkpoint whose
  /// entity table does not match `previous_ckg`, a checkpoint whose
  /// entity count exceeds this model's vocabulary, or any entity /
  /// relation of `previous_ckg` that is missing here — the stream
  /// contract is append-only, so silent truncation is always a bug.
  void warm_start_from_checkpoint(const nn::TrainingCheckpoint& checkpoint,
                                  const graph::CollaborativeKg& previous_ckg);

  /// Bounded-epoch training pass for online refresh: runs exactly
  /// `epochs` epochs from the current (warm-started) parameters and
  /// re-caches representations. epochs == 0 is valid and just
  /// propagates the transferred embeddings (making cold-start entities
  /// scoreable without any training).
  void refresh_fit(int epochs);

 private:
  /// Builds the propagation stack on a tape and returns the final
  /// concatenated representation Var of shape (n_entities, D*).
  nn::Var propagate(nn::Tape& tape, bool training, util::Rng& dropout_rng);

  void refresh_propagation_matrix();
  float cf_step(util::Rng& rng);
  float kg_step(util::Rng& rng);
  /// Sets final_representations_ and re-packs item_panel_ from it; the
  /// only writer of either.
  void cache_final_representations();
  void apply_lr_scale(float scale);
  /// Writes the periodic checkpoint (rotating the previous one); write
  /// failures are logged, never fatal to training.
  void write_checkpoint(int epoch);
  /// Tries checkpoint_path then the rotated ".prev" file; returns false
  /// when no usable checkpoint exists.
  bool try_rollback();

  const graph::CollaborativeKg& ckg_;
  const graph::InteractionSet& train_;
  CkatConfig config_;

  graph::Adjacency adjacency_;
  std::vector<KgEdge> kg_edges_;  // all CKG edges (with inverses)

  nn::ParamStore params_;
  std::unique_ptr<TransR> transr_;
  std::vector<nn::Parameter*> layer_weights_;

  std::unique_ptr<nn::AdamOptimizer> cf_optimizer_;
  std::unique_ptr<nn::AdamOptimizer> kg_optimizer_;
  std::unique_ptr<MinibatchTrainer> trainer_;
  std::unique_ptr<BprSampler> sampler_;
  util::Rng rng_;

  PropagationMatrix propagation_;
  nn::Tensor final_representations_;
  /// The item rows of final_representations_ in the 16-wide k-major
  /// tile layout: ceil(n_items/16) * 16 * D* floats.
  nn::PackedRows item_panel_;
  bool fitted_ = false;
  std::vector<EpochStats> history_;

  int start_epoch_ = 0;      // set by restore_checkpoint/resume_from
  float lr_scale_ = 1.0f;    // current rollback learning-rate multiplier
  int rollbacks_ = 0;
};

}  // namespace ckat::core
