#include "core/ckat.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <unordered_map>

#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/serialize.hpp"
#include "obs/metric_names.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace ckat::core {

namespace {

/// Registry handles for the training loop, resolved once. Histogram
/// observations are guarded with obs::telemetry_enabled() at the call
/// sites so a disabled run (CKAT_OBS=0) pays only the branch -- that is
/// the baseline the overhead measurement in bench/ext_observability
/// compares against.
struct TrainTelemetry {
  obs::Histogram& cf_step_seconds;
  obs::Histogram& kg_step_seconds;
  obs::Histogram& epoch_seconds;
  obs::Gauge& last_cf_loss;
  obs::Gauge& last_kg_loss;
  obs::Gauge& epochs_completed;
  obs::Gauge& lr_scale;
  obs::Counter& checkpoint_writes;
  obs::Counter& checkpoint_write_failures;
  obs::Counter& rollbacks;
  obs::Counter& nonfinite_epochs;

  static TrainTelemetry& instance() {
    auto& r = obs::MetricsRegistry::global();
    namespace names = obs::metric_names;
    static TrainTelemetry t{
        r.histogram(names::kTrainCfStepSeconds),
        r.histogram(names::kTrainKgStepSeconds),
        r.histogram(names::kTrainEpochSeconds),
        r.gauge(names::kTrainLastCfLoss),
        r.gauge(names::kTrainLastKgLoss),
        r.gauge(names::kTrainEpochsCompleted),
        r.gauge(names::kTrainLrScale),
        r.counter(names::kTrainCheckpointWritesTotal),
        r.counter(names::kTrainCheckpointWriteFailuresTotal),
        r.counter(names::kTrainRollbacksTotal),
        r.counter(names::kTrainNonfiniteEpochsTotal),
    };
    return t;
  }
};

}  // namespace

CkatModel::CkatModel(const graph::CollaborativeKg& ckg,
                     const graph::InteractionSet& train, CkatConfig config)
    : ckg_(ckg),
      train_(train),
      config_(std::move(config)),
      adjacency_(ckg.triples(), ckg.n_entities(), ckg.n_relations(),
                 config_.inverse_relations),
      rng_(config_.seed) {
  if (config_.layer_dims.empty()) {
    throw std::invalid_argument("CkatModel: at least one propagation layer");
  }
  if (train.n_users() != ckg.n_users() || train.n_items() != ckg.n_items()) {
    throw std::invalid_argument("CkatModel: train set does not match CKG");
  }

  util::Rng init_rng = rng_.fork(0);
  TransRConfig transr_config{.entity_dim = config_.embedding_dim,
                             .relation_dim = config_.embedding_dim,
                             .margin = config_.transr_margin};
  transr_ = std::make_unique<TransR>(params_, ckg.n_entities(),
                                     adjacency_.n_relations(), transr_config,
                                     init_rng);

  // Aggregator weights per layer: concat consumes (2*d_in), sum (d_in).
  std::size_t d_in = config_.embedding_dim;
  for (std::size_t l = 0; l < config_.layer_dims.size(); ++l) {
    const std::size_t rows =
        config_.aggregator == Aggregator::kConcat ? 2 * d_in : d_in;
    nn::Parameter& w = params_.create("ckat.W" + std::to_string(l), rows,
                                      config_.layer_dims[l]);
    nn::xavier_uniform(w.value(), init_rng);
    layer_weights_.push_back(&w);
    d_in = config_.layer_dims[l];
  }

  cf_optimizer_ = std::make_unique<nn::AdamOptimizer>(config_.learning_rate);
  kg_optimizer_ = std::make_unique<nn::AdamOptimizer>(config_.learning_rate);
  // Resolve the training-engine knobs once so the whole run (and its
  // checkpoints) sees one consistent batch size and thread count.
  config_.train_threads = resolve_train_threads(config_.train_threads);
  config_.train_batch =
      resolve_train_batch(config_.train_batch, config_.cf_batch_size);
  trainer_ = std::make_unique<MinibatchTrainer>(config_.train_threads);
  sampler_ = std::make_unique<BprSampler>(train_);

  kg_edges_.reserve(adjacency_.n_edges());
  for (std::size_t e = 0; e < adjacency_.n_edges(); ++e) {
    kg_edges_.push_back(KgEdge{adjacency_.heads()[e],
                               adjacency_.relations()[e],
                               adjacency_.tails()[e]});
  }

  refresh_propagation_matrix();
}

std::size_t CkatModel::n_users() const { return ckg_.n_users(); }
std::size_t CkatModel::n_items() const { return ckg_.n_items(); }

std::size_t CkatModel::representation_dim() const {
  return config_.embedding_dim +
         std::accumulate(config_.layer_dims.begin(), config_.layer_dims.end(),
                         std::size_t{0});
}

void CkatModel::refresh_propagation_matrix() {
  propagation_ = config_.use_attention
                     ? build_attention_matrix(adjacency_, *transr_,
                                              &trainer_->pool())
                     : build_uniform_matrix(adjacency_);
}

nn::Var CkatModel::propagate(nn::Tape& tape, bool training,
                             util::Rng& dropout_rng) {
  obs::TraceSpan span("ckat.propagate");
  nn::Var ego = tape.param(transr_->entity_embedding());
  nn::Var representation = ego;  // layer-0 block of e* (Eq. 10)

  nn::Var current = ego;
  for (std::size_t l = 0; l < config_.layer_dims.size(); ++l) {
    // e_Nh: attention-weighted neighborhood aggregation (Eq. 3).
    nn::Var neighborhood =
        tape.spmm_fixed(propagation_.forward, propagation_.backward, current);

    // Aggregator (Eq. 6-7).
    nn::Var combined = config_.aggregator == Aggregator::kConcat
                           ? tape.concat_cols(current, neighborhood)
                           : tape.add(current, neighborhood);
    nn::Var transformed = tape.leaky_relu(
        tape.matmul(combined, tape.param(*layer_weights_[l])));
    transformed =
        tape.dropout(transformed, config_.dropout, dropout_rng, training);

    // Per-layer L2 normalization stabilizes the concatenated scale.
    nn::Var normalized = tape.l2_normalize_rows(transformed);
    representation = tape.concat_cols(representation, normalized);
    current = normalized;
  }
  return representation;
}

float CkatModel::cf_step(util::Rng& rng) {
  // BPR sampling and the dropout fork consume the serial RNG stream
  // exactly as the legacy loop did, so checkpoint resume replays the
  // same batches at any thread count.
  const auto batch = sampler_->sample(config_.train_batch, rng);

  std::vector<std::uint32_t> users, positives, negatives;
  users.reserve(batch.size());
  positives.reserve(batch.size());
  negatives.reserve(batch.size());
  for (const BprTriple& triple : batch) {
    users.push_back(ckg_.user_entity(triple.user));
    positives.push_back(ckg_.item_entity(triple.positive));
    negatives.push_back(ckg_.item_entity(triple.negative));
  }

  nn::Tape tape(&trainer_->pool());
  util::Rng dropout_rng = rng.fork(17);
  nn::Var representation = propagate(tape, /*training=*/true, dropout_rng);

  // Slot fan-out over the pairs, shared backward through the
  // propagation stack, slot-ordered parallel Adam (Eq. 12-13; see
  // trainer.hpp for the determinism contract).
  const float loss_value = trainer_->cf_step(
      tape, representation, users, positives, negatives,
      config_.l2_coefficient, params_, *cf_optimizer_);

  // Fault-injection hook: simulates the NaN gradients a real divergence
  // produces, so the rollback path is testable on demand.
  auto& injector = util::FaultInjector::instance();
  if (injector.enabled() &&
      injector.should_fire(util::fault_points::kNanLoss)) {
    return std::numeric_limits<float>::quiet_NaN();
  }
  return loss_value;
}

float CkatModel::kg_step(util::Rng& rng) {
  const std::size_t batch_size =
      std::min(config_.kg_batch_size, kg_edges_.size());
  std::vector<KgEdge> batch;
  batch.reserve(batch_size);
  for (std::size_t i = 0; i < batch_size; ++i) {
    batch.push_back(kg_edges_[rng.uniform_index(kg_edges_.size())]);
  }
  // Corrupted tails (Eq. 2's S') are presampled here, in batch order,
  // so the RNG stream stays serial no matter how the trainer shards
  // the edges across workers.
  std::vector<std::uint32_t> negative_tails;
  negative_tails.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    negative_tails.push_back(
        static_cast<std::uint32_t>(rng.uniform_index(ckg_.n_entities())));
  }
  return trainer_->kg_step(*transr_, batch, negative_tails, params_,
                           *kg_optimizer_);
}

void CkatModel::fit() {
  util::Timer timer;
  const std::size_t cf_batches =
      sampler_->batches_per_epoch(config_.train_batch);
  const std::size_t kg_batches = std::max<std::size_t>(
      1, (kg_edges_.size() + config_.kg_batch_size - 1) / config_.kg_batch_size);
  const bool checkpointing =
      config_.checkpoint_every > 0 && !config_.checkpoint_path.empty();
  const bool telemetry = obs::telemetry_enabled();
  TrainTelemetry& tele = TrainTelemetry::instance();
  obs::TraceSpan fit_span(
      "ckat.fit", {{"epochs", std::to_string(config_.epochs)},
                   {"cf_batches", std::to_string(cf_batches)},
                   {"kg_batches", std::to_string(kg_batches)}});

  history_.clear();
  rollbacks_ = 0;
  // An epoch-0 checkpoint guarantees a rollback target even when the
  // very first epochs diverge.
  if (checkpointing && start_epoch_ == 0) {
    write_checkpoint(0);
  }
  const int first_epoch = start_epoch_;
  int epoch = start_epoch_;
  while (epoch < config_.epochs) {
    obs::TraceSpan epoch_span("ckat.epoch",
                              {{"epoch", std::to_string(epoch + 1)}});
    util::Timer epoch_timer;
    EpochStats stats;
    {
      obs::TraceSpan cf_span("ckat.cf_phase");
      for (std::size_t b = 0; b < cf_batches; ++b) {
        util::Timer step_timer;
        stats.cf_loss += cf_step(rng_);
        if (telemetry) tele.cf_step_seconds.observe(step_timer.seconds());
      }
    }
    {
      obs::TraceSpan kg_span("ckat.kg_phase");
      for (std::size_t b = 0; b < kg_batches; ++b) {
        util::Timer step_timer;
        stats.kg_loss += kg_step(rng_);
        if (telemetry) tele.kg_step_seconds.observe(step_timer.seconds());
      }
    }
    stats.cf_loss /= static_cast<float>(cf_batches);
    stats.kg_loss /= static_cast<float>(kg_batches);
    if (telemetry) {
      tele.epoch_seconds.observe(epoch_timer.seconds());
      tele.last_cf_loss.set(stats.cf_loss);
      tele.last_kg_loss.set(stats.kg_loss);
    }

    if (!std::isfinite(stats.cf_loss) || !std::isfinite(stats.kg_loss)) {
      tele.nonfinite_epochs.inc();
      // Compound the reduction across successive rollbacks (restoring
      // the checkpoint resets lr_scale_ to the value it was saved with).
      const float reduced_scale = lr_scale_ * config_.rollback_lr_factor;
      if (checkpointing && rollbacks_ < config_.max_rollbacks &&
          try_rollback()) {
        ++rollbacks_;
        apply_lr_scale(reduced_scale);
        tele.rollbacks.inc();
        if (telemetry) tele.lr_scale.set(lr_scale_);
        obs::trace_event(
            "ckat.rollback",
            {{"failed_epoch", std::to_string(epoch + 1)},
             {"resumed_epoch", std::to_string(start_epoch_)},
             {"rollback", std::to_string(rollbacks_)},
             {"lr_scale", std::to_string(lr_scale_)}});
        CKAT_LOG_WARN(
            "[CKAT] non-finite loss at epoch %d; rolled back to epoch %d "
            "(rollback %d/%d, lr scale %.3g)",
            epoch + 1, start_epoch_, rollbacks_, config_.max_rollbacks,
            lr_scale_);
        epoch = start_epoch_;
        // Drop the history entries of the epochs being replayed.
        history_.resize(static_cast<std::size_t>(
            std::max(0, start_epoch_ - first_epoch)));
        continue;
      }
      if (checkpointing) {
        throw std::runtime_error(
            "CkatModel::fit: training diverged (non-finite loss) and no "
            "rollback budget or usable checkpoint remains");
      }
      // Legacy behaviour without checkpointing: record the bad epoch and
      // keep going, as before this feature existed.
    }

    history_.push_back(stats);

    // Refresh the attention coefficients from the updated TransR
    // parameters (KGAT schedule; configurable for the ablation).
    if (config_.attention_refresh_every > 0 &&
        (epoch + 1) % config_.attention_refresh_every == 0) {
      refresh_propagation_matrix();
    }

    if (config_.verbose) {
      CKAT_LOG_INFO("[CKAT] epoch %d/%d cf_loss=%.4f kg_loss=%.4f (%s)",
                    epoch + 1, config_.epochs, stats.cf_loss, stats.kg_loss,
                    util::format_duration(timer.seconds()).c_str());
    }

    ++epoch;
    if (telemetry) tele.epochs_completed.set(epoch);
    if (checkpointing && epoch % config_.checkpoint_every == 0) {
      write_checkpoint(epoch);
    }
  }

  start_epoch_ = 0;
  cache_final_representations();

#if defined(CKAT_VALIDATE)
  // Post-fit boundary: the cached representations feed every score()
  // call; a NaN that slipped past the divergence-rollback guard would
  // otherwise poison serving silently.
  {
    const float* data = final_representations_.data();
    std::size_t bad = final_representations_.size();
    for (std::size_t i = 0; i < final_representations_.size(); ++i) {
      if (!std::isfinite(data[i])) {
        bad = i;
        break;
      }
    }
    CKAT_CHECK_INVARIANT(
        bad == final_representations_.size(),
        "non-finite final representation at flat index " +
            std::to_string(bad));
  }
#endif
  fitted_ = true;
}

nn::TrainingCheckpoint CkatModel::make_checkpoint(int epoch) const {
  nn::TrainingCheckpoint checkpoint;
  checkpoint.epoch = epoch;
  checkpoint.cf_steps = cf_optimizer_->step_count();
  checkpoint.kg_steps = kg_optimizer_->step_count();
  checkpoint.rng_state = rng_.state();
  checkpoint.lr_scale = lr_scale_;
  checkpoint.capture(params_);
  return checkpoint;
}

void CkatModel::restore_checkpoint(const nn::TrainingCheckpoint& checkpoint) {
  checkpoint.restore(params_);
  cf_optimizer_->set_step_count(checkpoint.cf_steps);
  kg_optimizer_->set_step_count(checkpoint.kg_steps);
  rng_.set_state(checkpoint.rng_state);
  apply_lr_scale(checkpoint.lr_scale);
  start_epoch_ = checkpoint.epoch;
  refresh_propagation_matrix();
}

void CkatModel::resume_from(const std::string& path) {
  restore_checkpoint(nn::load_checkpoint(path));
}

void CkatModel::apply_lr_scale(float scale) {
  lr_scale_ = scale;
  cf_optimizer_->set_learning_rate(config_.learning_rate * scale);
  kg_optimizer_->set_learning_rate(config_.learning_rate * scale);
}

void CkatModel::write_checkpoint(int epoch) {
  const std::string& path = config_.checkpoint_path;
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    std::filesystem::rename(path, path + ".prev", ec);
    if (ec) {
      CKAT_LOG_WARN("[CKAT] checkpoint rotation failed: %s",
                    ec.message().c_str());
    }
  }
  try {
    nn::save_checkpoint(make_checkpoint(epoch), path);
    TrainTelemetry::instance().checkpoint_writes.inc();
    obs::trace_event("ckat.checkpoint_write",
                     {{"epoch", std::to_string(epoch)}});
    CKAT_LOG_DEBUG("[CKAT] checkpoint written at epoch %d -> %s", epoch,
                   path.c_str());
  } catch (const std::exception& e) {
    // A failed checkpoint write must not kill a healthy training run;
    // the rotated previous checkpoint remains the rollback target.
    TrainTelemetry::instance().checkpoint_write_failures.inc();
    obs::trace_event("ckat.checkpoint_write_failed",
                     {{"epoch", std::to_string(epoch)}, {"error", e.what()}});
    CKAT_LOG_WARN("[CKAT] checkpoint write failed at epoch %d: %s", epoch,
                  e.what());
  }
}

bool CkatModel::try_rollback() {
  for (const std::string& candidate :
       {config_.checkpoint_path, config_.checkpoint_path + ".prev"}) {
    std::error_code ec;
    if (!std::filesystem::exists(candidate, ec)) continue;
    try {
      restore_checkpoint(nn::load_checkpoint(candidate));
      return true;
    } catch (const std::exception& e) {
      CKAT_LOG_WARN("[CKAT] rollback candidate %s unusable: %s",
                    candidate.c_str(), e.what());
    }
  }
  // No checkpoint survived; restart from epoch 0 is not attempted here
  // because the parameters are already poisoned.
  return false;
}

void CkatModel::cache_final_representations() {
  nn::Tape tape(&trainer_->pool());
  util::Rng unused(0);
  nn::Var representation = propagate(tape, /*training=*/false, unused);
  final_representations_ = tape.value(representation);
  const std::size_t dim = final_representations_.cols();
  item_panel_ = nn::PackedRows(
      {final_representations_.data() +
           static_cast<std::size_t>(ckg_.item_entity(0)) * dim,
       n_items() * dim},
      n_items(), dim);
}

const nn::Tensor& CkatModel::final_representations() const {
  if (!fitted_) {
    throw std::logic_error("CkatModel: call fit() before reading representations");
  }
  return final_representations_;
}

void CkatModel::warm_start_from(const CkatModel& previous) {
  if (previous.config_.embedding_dim != config_.embedding_dim ||
      previous.config_.layer_dims != config_.layer_dims ||
      previous.config_.aggregator != config_.aggregator) {
    throw std::invalid_argument(
        "warm_start_from: architectures must match (embedding_dim, "
        "layer_dims, aggregator)");
  }

  // Entity embeddings: match by stable CKG entity name.
  std::unordered_map<std::string, std::uint32_t> previous_ids;
  previous_ids.reserve(previous.ckg_.n_entities());
  for (std::uint32_t e = 0; e < previous.ckg_.n_entities(); ++e) {
    previous_ids.emplace(previous.ckg_.entity_name(e), e);
  }
  const nn::Tensor& old_entities =
      previous.transr_->entity_embedding().value();
  nn::Tensor& new_entities = transr_->entity_embedding().value();
  std::size_t copied = 0;
  for (std::uint32_t e = 0; e < ckg_.n_entities(); ++e) {
    const auto it = previous_ids.find(ckg_.entity_name(e));
    if (it == previous_ids.end()) continue;
    auto src = old_entities.row(it->second);
    std::copy(src.begin(), src.end(), new_entities.row(e).begin());
    ++copied;
  }
  CKAT_LOG_DEBUG("warm_start_from: copied %zu/%zu entity rows", copied,
                 ckg_.n_entities());

  // Relation embeddings and projections transfer positionally for
  // relations present in both vocabularies (matched by name).
  for (std::uint32_t r = 0; r < ckg_.n_relations(); ++r) {
    const std::string& relation_name = ckg_.relations().name(r);
    const std::uint32_t old_r = previous.ckg_.relations().find(relation_name);
    if (old_r == std::numeric_limits<std::uint32_t>::max()) continue;
    // Copy both the canonical and (if both models use them) the
    // inverse-relation slots.
    auto copy_relation = [&](std::uint32_t to, std::uint32_t from) {
      if (to >= adjacency_.n_relations() ||
          from >= previous.adjacency_.n_relations()) {
        return;
      }
      auto src = previous.transr_->relation_embedding().value().row(from);
      std::copy(src.begin(), src.end(),
                transr_->relation_embedding().value().row(to).begin());
      transr_->projection(to).value() = previous.transr_->projection(from).value();
    };
    copy_relation(r, old_r);
    copy_relation(r + static_cast<std::uint32_t>(ckg_.n_relations()),
                  old_r + static_cast<std::uint32_t>(
                              previous.ckg_.n_relations()));
  }

  // Aggregator weights are shape-identical by the architecture check.
  for (std::size_t l = 0; l < layer_weights_.size(); ++l) {
    layer_weights_[l]->value() = previous.layer_weights_[l]->value();
  }
  refresh_propagation_matrix();
}

namespace {

/// Indexes a checkpoint's tensors by name; throws a clear error when a
/// required tensor is absent.
class CheckpointIndex {
 public:
  explicit CheckpointIndex(const nn::TrainingCheckpoint& checkpoint) {
    for (const nn::TensorSnapshot& t : checkpoint.tensors) {
      by_name_.emplace(t.name, &t);
    }
  }
  [[nodiscard]] const nn::TensorSnapshot& require(
      const std::string& name) const {
    const auto it = by_name_.find(name);
    if (it == by_name_.end()) {
      throw std::runtime_error(
          "warm_start_from_checkpoint: checkpoint has no tensor '" + name +
          "'");
    }
    return *it->second;
  }

 private:
  std::unordered_map<std::string, const nn::TensorSnapshot*> by_name_;
};

/// Copies snapshot row `from` into parameter row `to` — value and, when
/// the snapshot carried optimizer moments, the Adam moment rows too
/// (allocating zeroed moment tensors on first use so untouched new rows
/// start the refresh with fresh moments).
void transfer_row(nn::Parameter& p, const nn::TensorSnapshot& snapshot,
                  std::uint32_t to, std::uint32_t from) {
  auto src = snapshot.value.row(from);
  std::copy(src.begin(), src.end(), p.value().row(to).begin());
  if (snapshot.opt_m.empty()) return;
  if (p.opt_m.empty()) {
    p.opt_m.resize_zeroed(p.rows(), p.cols());
    p.opt_v.resize_zeroed(p.rows(), p.cols());
  }
  auto m = snapshot.opt_m.row(from);
  std::copy(m.begin(), m.end(), p.opt_m.row(to).begin());
  auto v = snapshot.opt_v.row(from);
  std::copy(v.begin(), v.end(), p.opt_v.row(to).begin());
}

/// Whole-tensor transfer for shape-stable parameters (projections,
/// aggregator weights).
void transfer_tensor(nn::Parameter& p, const nn::TensorSnapshot& snapshot) {
  if (!snapshot.value.same_shape(p.value())) {
    throw std::runtime_error(
        "warm_start_from_checkpoint: shape mismatch for '" + snapshot.name +
        "' (" + std::to_string(snapshot.value.rows()) + " x " +
        std::to_string(snapshot.value.cols()) + " in the checkpoint, " +
        std::to_string(p.rows()) + " x " + std::to_string(p.cols()) +
        " here)");
  }
  p.value() = snapshot.value;
  if (!snapshot.opt_m.empty()) {
    p.opt_m = snapshot.opt_m;
    p.opt_v = snapshot.opt_v;
  }
}

}  // namespace

void CkatModel::warm_start_from_checkpoint(
    const nn::TrainingCheckpoint& checkpoint,
    const graph::CollaborativeKg& previous_ckg) {
  constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;
  const CheckpointIndex index(checkpoint);

  // -- Entity table. The checkpoint must describe previous_ckg exactly,
  // and the stream contract is append-only: a checkpoint with more
  // entities than this model's vocabulary would silently truncate the
  // model it claims to resume, so it is rejected loudly instead.
  const nn::TensorSnapshot& entities = index.require("transr.entity");
  if (entities.value.rows() != previous_ckg.n_entities()) {
    throw std::runtime_error(
        "warm_start_from_checkpoint: checkpoint entity table has " +
        std::to_string(entities.value.rows()) +
        " rows but the previous CKG has " +
        std::to_string(previous_ckg.n_entities()) + " entities");
  }
  if (entities.value.rows() > ckg_.n_entities()) {
    throw std::runtime_error(
        "warm_start_from_checkpoint: checkpoint entity count (" +
        std::to_string(entities.value.rows()) +
        ") exceeds the current vocabulary (" +
        std::to_string(ckg_.n_entities()) +
        "); refusing to truncate — the stream contract is append-only");
  }
  if (entities.value.cols() != config_.embedding_dim) {
    throw std::runtime_error(
        "warm_start_from_checkpoint: embedding_dim mismatch (checkpoint " +
        std::to_string(entities.value.cols()) + ", model " +
        std::to_string(config_.embedding_dim) + ")");
  }
  nn::Parameter& entity_param = transr_->entity_embedding();
  for (std::uint32_t e = 0; e < previous_ckg.n_entities(); ++e) {
    const std::uint32_t target = ckg_.find_entity(previous_ckg.entity_name(e));
    if (target == kAbsent) {
      throw std::runtime_error(
          "warm_start_from_checkpoint: entity '" +
          previous_ckg.entity_name(e) +
          "' from the checkpoint is missing from the current CKG "
          "(streams are append-only; refusing a lossy warm start)");
    }
    transfer_row(entity_param, entities, target, e);
  }

  // -- Relations. Rows (and projection indices) follow the augmented
  // layout [canonical | inverse]; the inverse slot of relation r sits at
  // r + n_relations, which shifts when the vocabulary grows — map both
  // slots by name.
  const nn::TensorSnapshot& relations = index.require("transr.relation");
  const auto prev_n_relations =
      static_cast<std::uint32_t>(previous_ckg.n_relations());
  const auto n_relations = static_cast<std::uint32_t>(ckg_.n_relations());
  const bool inverses =
      adjacency_.n_relations() == 2 * static_cast<std::size_t>(n_relations);
  if (relations.value.rows() !=
      static_cast<std::size_t>(prev_n_relations) * (inverses ? 2 : 1)) {
    throw std::runtime_error(
        "warm_start_from_checkpoint: relation table has " +
        std::to_string(relations.value.rows()) + " rows but the previous "
        "CKG implies " +
        std::to_string(prev_n_relations * (inverses ? 2 : 1)));
  }
  nn::Parameter& relation_param = transr_->relation_embedding();
  for (std::uint32_t r = 0; r < prev_n_relations; ++r) {
    const std::uint32_t target =
        ckg_.relations().find(previous_ckg.relations().name(r));
    if (target == kAbsent) {
      throw std::runtime_error(
          "warm_start_from_checkpoint: relation '" +
          previous_ckg.relations().name(r) +
          "' from the checkpoint is missing from the current CKG");
    }
    transfer_row(relation_param, relations, target, r);
    transfer_tensor(transr_->projection(target),
                    index.require("transr.W" + std::to_string(r)));
    if (inverses) {
      transfer_row(relation_param, relations, target + n_relations,
                   r + prev_n_relations);
      transfer_tensor(
          transr_->projection(target + n_relations),
          index.require("transr.W" + std::to_string(r + prev_n_relations)));
    }
  }

  // -- Aggregator weights are shape-stable across graph growth.
  for (std::size_t l = 0; l < layer_weights_.size(); ++l) {
    transfer_tensor(*layer_weights_[l],
                    index.require("ckat.W" + std::to_string(l)));
  }

  // -- Optimizer trajectory: the refresh continues the run instead of
  // restarting Adam's bias correction from step 0.
  cf_optimizer_->set_step_count(checkpoint.cf_steps);
  kg_optimizer_->set_step_count(checkpoint.kg_steps);
  rng_.set_state(checkpoint.rng_state);
  apply_lr_scale(checkpoint.lr_scale);
  start_epoch_ = 0;
  refresh_propagation_matrix();
}

void CkatModel::refresh_fit(int epochs) {
  if (epochs < 0) {
    throw std::invalid_argument("refresh_fit: epochs must be >= 0");
  }
  // Bounded pass: run exactly `epochs` epochs from the current
  // parameters. Periodic checkpointing is suppressed — the refresher
  // publishes a checkpoint only for models that pass the guardrail.
  const int saved_epochs = config_.epochs;
  const int saved_checkpoint_every = config_.checkpoint_every;
  config_.epochs = epochs;
  config_.checkpoint_every = 0;
  start_epoch_ = 0;
  try {
    fit();
  } catch (...) {
    config_.epochs = saved_epochs;
    config_.checkpoint_every = saved_checkpoint_every;
    throw;
  }
  config_.epochs = saved_epochs;
  config_.checkpoint_every = saved_checkpoint_every;
}

void CkatModel::save(const std::string& path) const {
  if (!fitted_) {
    throw std::logic_error("CkatModel::save: fit() or load() first");
  }
  nn::save_parameters(params_, path);
}

void CkatModel::load(const std::string& path) {
  nn::load_parameters(params_, path);
  refresh_propagation_matrix();
  cache_final_representations();
  fitted_ = true;
}

void CkatModel::score_items(std::uint32_t user, std::span<float> out) const {
  if (!fitted_) {
    throw std::logic_error("CkatModel: call fit() before score_items");
  }
  if (out.size() != n_items()) {
    throw std::invalid_argument("CkatModel: output span size mismatch");
  }
  check_user(user);
  nn::gemm_nt_packed(final_representations_.row(ckg_.user_entity(user)), 1,
                     item_panel_, out);
}

void CkatModel::score_batch(std::span<const std::uint32_t> users,
                            std::span<float> out) const {
  if (!fitted_) {
    throw std::logic_error("CkatModel: call fit() before score_batch");
  }
  if (out.size() != users.size() * n_items()) {
    throw std::invalid_argument("CkatModel: output span size mismatch");
  }
  const nn::Tensor& repr = final_representations_;
  const std::size_t dim = repr.cols();
  std::vector<float> user_block(users.size() * dim);
  for (std::size_t i = 0; i < users.size(); ++i) {
    check_user(users[i]);
    const auto user_row = repr.row(ckg_.user_entity(users[i]));
    std::copy(user_row.begin(), user_row.end(),
              user_block.begin() + static_cast<std::ptrdiff_t>(i * dim));
  }
  nn::gemm_nt_packed(user_block, users.size(), item_panel_, out);
}

}  // namespace ckat::core
