// Common interface every recommendation model (CKAT + the seven
// baselines) implements, so the evaluator and the experiment harness are
// model-agnostic.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>

namespace ckat::eval {

class Recommender {
 public:
  virtual ~Recommender() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Trains the model on the data it was constructed with.
  virtual void fit() = 0;

  /// Writes a preference score for every item (out.size() == n_items).
  /// Higher is better. Must be callable only after fit().
  virtual void score_items(std::uint32_t user, std::span<float> out) const = 0;

  /// Scores a block of users at once: out holds users.size() * n_items()
  /// floats, row-major (row i = the catalog scores of users[i]). The
  /// default loops score_items per user, so every model keeps working;
  /// models backed by dense embedding tables override it with one tiled
  /// GEMM over the block (see eval/ranker.hpp). Overrides must produce
  /// bit-identical scores to score_items — the batched evaluator relies
  /// on it to reproduce the serial protocol exactly.
  virtual void score_batch(std::span<const std::uint32_t> users,
                           std::span<float> out) const {
    const std::size_t stride = n_items();
    if (out.size() != users.size() * stride) {
      throw std::invalid_argument(
          "Recommender::score_batch: output span size mismatch");
    }
    for (std::size_t i = 0; i < users.size(); ++i) {
      score_items(users[i], out.subspan(i * stride, stride));
    }
  }

  [[nodiscard]] virtual std::size_t n_users() const = 0;
  [[nodiscard]] virtual std::size_t n_items() const = 0;

 protected:
  /// For models that index an embedding table by user id: throws
  /// std::out_of_range unless user < n_users(), in every build type.
  void check_user(std::uint32_t user) const {
    if (user >= n_users()) {
      throw std::out_of_range(name() + ": user id " + std::to_string(user) +
                              " out of range (n_users " +
                              std::to_string(n_users()) + ")");
    }
  }
};

}  // namespace ckat::eval
