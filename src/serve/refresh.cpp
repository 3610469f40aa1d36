#include "serve/refresh.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "eval/evaluator.hpp"
#include "nn/serialize.hpp"
#include "obs/flight.hpp"
#include "obs/metric_names.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace ckat::serve {

namespace {

int resolve_epochs(int configured) {
  if (configured >= 0) return configured;
  return static_cast<int>(
      util::env_int("CKAT_REFRESH_EPOCHS", 2, 0, 100000));
}

/// Declared right after a cycle takes its lock, so it runs on every
/// exit path once the cycle's locals (the grown graph copy, training
/// scratch, a rejected candidate) are freed. glibc keeps freed heap
/// resident; trimming hands the cycle's high-water memory back to the
/// OS, so resident memory between cycles tracks what is still live.
struct TrimHeapOnExit {
  TrimHeapOnExit() = default;
  TrimHeapOnExit(const TrimHeapOnExit&) = delete;
  TrimHeapOnExit& operator=(const TrimHeapOnExit&) = delete;
  ~TrimHeapOnExit() {
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
  }
};

double resolve_eps(double configured) {
  if (configured >= 0.0) return configured;
  return util::env_double("CKAT_REFRESH_GUARDRAIL_EPS", 0.02, 0.0, 1.0);
}

/// Projects a grown model onto the bootstrap vocabulary: the entity id
/// layout is append-only, so the first n_users/n_items of any later
/// generation ARE the bootstrap population, and truncating each score
/// row to the bootstrap item count ranks both models over an identical
/// candidate set.
class PrefixView final : public eval::Recommender {
 public:
  PrefixView(const eval::Recommender& inner, std::size_t n_users,
             std::size_t n_items)
      : inner_(inner), n_users_(n_users), n_items_(n_items) {
    if (inner.n_users() < n_users || inner.n_items() < n_items) {
      throw std::invalid_argument(
          "PrefixView: inner model smaller than the projection");
    }
  }

  [[nodiscard]] std::string name() const override {
    return inner_.name() + "@prefix";
  }
  void fit() override {}
  void score_items(std::uint32_t user, std::span<float> out) const override {
    full_row_.resize(inner_.n_items());
    inner_.score_items(user, full_row_);
    std::copy_n(full_row_.begin(), n_items_, out.begin());
  }
  [[nodiscard]] std::size_t n_users() const override { return n_users_; }
  [[nodiscard]] std::size_t n_items() const override { return n_items_; }

 private:
  const eval::Recommender& inner_;
  std::size_t n_users_;
  std::size_t n_items_;
  mutable std::vector<float> full_row_;  // single-threaded eval scratch
};

}  // namespace

const char* to_string(RefreshOutcome::Status status) noexcept {
  switch (status) {
    case RefreshOutcome::Status::kPublished: return "published";
    case RefreshOutcome::Status::kRejectedBadDelta:
      return "rejected_bad_delta";
    case RefreshOutcome::Status::kRejectedGuardrail:
      return "rejected_guardrail";
    case RefreshOutcome::Status::kPublishFailed: return "publish_failed";
  }
  return "unknown";
}

OnlineRefresher::OnlineRefresher(
    std::shared_ptr<ModelHandle> handle,
    graph::InteractionSplit bootstrap_split,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> user_user_pairs,
    std::vector<graph::KnowledgeSource> sources, RefreshConfig config)
    : handle_(std::move(handle)),
      holdout_(std::move(bootstrap_split)),
      bootstrap_uug_(std::move(user_user_pairs)),
      bootstrap_sources_(std::move(sources)),
      config_(std::move(config)),
      resolved_epochs_(resolve_epochs(config_.epochs)),
      resolved_eps_(resolve_eps(config_.guardrail_eps)) {
  if (handle_ == nullptr) {
    throw std::invalid_argument("OnlineRefresher: null ModelHandle");
  }
  if (config_.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "OnlineRefresher: checkpoint_path is required (the refresher "
        "warm-starts every cycle from it)");
  }

  auto& registry = obs::MetricsRegistry::global();
  auto delta_counter = [&registry](const char* outcome) {
    return &registry.counter(obs::metric_names::kRefreshIngestDeltasTotal,
                             {{"outcome", outcome}});
  };
  deltas_published_ = delta_counter("published");
  deltas_bad_ = delta_counter("rejected_bad_delta");
  deltas_guardrail_ = delta_counter("rejected_guardrail");
  deltas_publish_failed_ = delta_counter("publish_failed");
  publishes_ = &registry.counter(obs::metric_names::kRefreshPublishesTotal);
  rollbacks_guardrail_ =
      &registry.counter(obs::metric_names::kRefreshRollbacksTotal,
                        {{"reason", "guardrail"}});
  rollbacks_publish_fail_ =
      &registry.counter(obs::metric_names::kRefreshRollbacksTotal,
                        {{"reason", "publish_fail"}});
  fit_seconds_ =
      &registry.histogram(obs::metric_names::kRefreshFitSeconds);
}

OnlineRefresher::~OnlineRefresher() = default;

std::size_t OnlineRefresher::serving_users() const {
  return handle_->acquire()->n_users;
}

std::size_t OnlineRefresher::serving_items() const {
  return handle_->acquire()->n_items;
}

double OnlineRefresher::holdout_recall(
    const eval::Recommender& model) const {
  const PrefixView view(model, holdout_.train.n_users(),
                        holdout_.train.n_items());
  eval::EvalConfig eval_config;
  eval_config.k = config_.eval_k;
  eval_config.threads = 1;  // PrefixView's scratch row is not shareable
  return eval::evaluate_topk(view, holdout_, eval_config).recall;
}

RefreshOutcome OnlineRefresher::publish_bundle_locked(std::shared_ptr<Bundle> bundle,
                                               double candidate_recall,
                                               RefreshOutcome outcome) {
  // Capture the checkpoint BEFORE the swap so a publish failure leaves
  // both the serving model and the on-disk checkpoint untouched.
  nn::TrainingCheckpoint checkpoint =
      bundle->model->make_checkpoint(resolved_epochs_);
  try {
    outcome.version = handle_->publish(
        {bundle->model.get(), bundle->popularity.get()},
        bundle->ckg.n_users(), bundle->ckg.n_items(), bundle);
  } catch (const std::exception& error) {
    ++rollbacks_;
    rollbacks_publish_fail_->inc();
    deltas_publish_failed_->inc();
    outcome.status = RefreshOutcome::Status::kPublishFailed;
    outcome.version = handle_->version();
    outcome.error = error.what();
    obs::flight_anomaly("refresh_rollback",
                        {{"reason", "publish_fail"},
                         {"error", outcome.error}});
    CKAT_LOG_WARN(
        "[refresh] publish failed (%s); version %llu keeps serving",
        error.what(),
        static_cast<unsigned long long>(outcome.version));
    return outcome;
  }
  // The swap succeeded; only now may the durable state advance.
  nn::save_checkpoint(checkpoint, config_.checkpoint_path);
  checkpoint_written_ = true;
  serving_bundle_ = std::move(bundle);
  serving_recall_ = candidate_recall;
  outcome.status = RefreshOutcome::Status::kPublished;
  outcome.candidate_recall = candidate_recall;
  publishes_->inc();
  obs::trace_event("refresh.publish",
                   {{"version", std::to_string(outcome.version)},
                    {"recall", std::to_string(candidate_recall)}});
  return outcome;
}

RefreshOutcome OnlineRefresher::bootstrap() {
  std::lock_guard<util::OrderedMutex> cycle(cycle_mutex_);
  const TrimHeapOnExit trim;
  if (serving_bundle_ != nullptr) {
    throw std::logic_error("OnlineRefresher::bootstrap called twice");
  }
  graph::CollaborativeKg ckg(holdout_.train, bootstrap_uug_,
                             bootstrap_sources_, config_.ckg_options);
  auto bundle =
      std::make_shared<Bundle>(graph::InteractionSet(holdout_.train),
                               std::move(ckg));
  core::CkatConfig model_config = config_.model;
  model_config.checkpoint_every = 0;  // the refresher owns checkpoints
  bundle->model = std::make_unique<core::CkatModel>(bundle->ckg,
                                                    bundle->train,
                                                    model_config);
  {
    util::Timer fit_timer;
    bundle->model->fit();
    fit_seconds_->observe(fit_timer.seconds());
  }
  bundle->popularity =
      std::make_unique<PopularityRecommender>(bundle->train);

  RefreshOutcome outcome;
  outcome.serving_recall = 0.0;
  const double recall = holdout_recall(*bundle->model);
  outcome = publish_bundle_locked(std::move(bundle), recall, outcome);
  if (outcome.status == RefreshOutcome::Status::kPublished) {
    CKAT_LOG_INFO(
        "[refresh] bootstrap published v%llu (holdout recall %.4f)",
        static_cast<unsigned long long>(outcome.version), recall);
  }
  return outcome;
}

RefreshOutcome OnlineRefresher::ingest(const graph::CkgDelta& delta) {
  std::lock_guard<util::OrderedMutex> cycle(cycle_mutex_);
  const TrimHeapOnExit trim;
  if (serving_bundle_ == nullptr || !checkpoint_written_) {
    throw std::logic_error(
        "OnlineRefresher::ingest before a successful bootstrap");
  }
  RefreshOutcome outcome;
  outcome.version = handle_->version();
  outcome.serving_recall = serving_recall_;

  // 1. Grow a private copy of the serving graph. The serving
  //    generation's ckg is immutable once published — apply_delta
  //    invalidates consumer id mappings, so it must never run in place.
  graph::CollaborativeKg grown = serving_bundle_->ckg;
  try {
    outcome.delta_stats = grown.apply_delta(delta);
  } catch (const std::invalid_argument& error) {
    deltas_bad_->inc();
    outcome.status = RefreshOutcome::Status::kRejectedBadDelta;
    outcome.error = error.what();
    CKAT_LOG_WARN("[refresh] delta %llu rejected: %s",
                  static_cast<unsigned long long>(delta.sequence),
                  error.what());
    return outcome;
  }

  // 2. Accumulate interactions at the grown dimensions.
  graph::InteractionSet train(grown.n_users(), grown.n_items());
  for (const graph::Interaction& pair : serving_bundle_->train.pairs()) {
    train.add(pair.user, pair.item);
  }
  for (const graph::Interaction& pair : delta.interactions) {
    train.add(pair.user, pair.item);
  }
  train.finalize();
  auto bundle =
      std::make_shared<Bundle>(std::move(train), std::move(grown));

  // 3. Candidate model: warm-start from the serving checkpoint, then a
  //    bounded refresh fit.
  core::CkatConfig model_config = config_.model;
  model_config.checkpoint_every = 0;
  bundle->model = std::make_unique<core::CkatModel>(bundle->ckg,
                                                    bundle->train,
                                                    model_config);
  const nn::TrainingCheckpoint previous =
      nn::load_checkpoint(config_.checkpoint_path);
  bundle->model->warm_start_from_checkpoint(previous, serving_bundle_->ckg);
  {
    util::Timer fit_timer;
    bundle->model->refresh_fit(resolved_epochs_);
    fit_seconds_->observe(fit_timer.seconds());
  }
  bundle->popularity =
      std::make_unique<PopularityRecommender>(bundle->train);

  // 4. Guardrail on the fixed bootstrap holdout.
  const double candidate_recall = holdout_recall(*bundle->model);
  outcome.candidate_recall = candidate_recall;
  if (candidate_recall + resolved_eps_ < serving_recall_) {
    ++rollbacks_;
    rollbacks_guardrail_->inc();
    deltas_guardrail_->inc();
    obs::flight_anomaly(
        "refresh_rollback",
        {{"reason", "guardrail"},
         {"candidate_recall", std::to_string(candidate_recall)},
         {"serving_recall", std::to_string(serving_recall_)}});
    outcome.status = RefreshOutcome::Status::kRejectedGuardrail;
    outcome.error = "holdout recall " + std::to_string(candidate_recall) +
                    " regressed more than eps=" +
                    std::to_string(resolved_eps_) + " below serving " +
                    std::to_string(serving_recall_);
    CKAT_LOG_WARN("[refresh] delta %llu rolled back: %s",
                  static_cast<unsigned long long>(delta.sequence),
                  outcome.error.c_str());
    return outcome;
  }

  // 5. Atomic hot swap, then durable checkpoint advance.
  outcome = publish_bundle_locked(std::move(bundle), candidate_recall, outcome);
  if (outcome.status == RefreshOutcome::Status::kPublished) {
    deltas_published_->inc();
    CKAT_LOG_INFO(
        "[refresh] delta %llu published v%llu: +%zu users +%zu items "
        "+%zu triples (holdout recall %.4f vs serving %.4f)",
        static_cast<unsigned long long>(delta.sequence),
        static_cast<unsigned long long>(outcome.version),
        outcome.delta_stats.users_added, outcome.delta_stats.items_added,
        outcome.delta_stats.triples_added, candidate_recall,
        outcome.serving_recall);
  }
  return outcome;
}

}  // namespace ckat::serve
