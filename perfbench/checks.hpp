// Correctness gates of the benchmark. Each returns an empty string when
// the output passes and a one-line reason when it does not, so the
// workload program can count the failing operation and the tests can feed each
// gate a corrupted answer.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "serve/gateway.hpp"
#include "serve/shard.hpp"

namespace perfbench {

/// Top-k item ids of one answer row: score descending, id ascending on
/// ties — the order a client reading the row would show.
inline std::vector<std::uint32_t> answer_topk(std::span<const float> row,
                                              std::size_t k) {
  std::vector<std::uint32_t> ids(row.size());
  std::iota(ids.begin(), ids.end(), 0U);
  k = std::min(k, ids.size());
  std::partial_sort(ids.begin(), ids.begin() + static_cast<long>(k), ids.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      return row[a] != row[b] ? row[a] > row[b] : a < b;
                    });
  return {ids.begin(), ids.begin() + static_cast<long>(k)};  // not the full-row buffer
}

/// Allowed difference between two reference scores for their ids to
/// trade places in a float-precision answer.
inline double score_tolerance(double reference) {
  return 1e-4 * (1.0 + std::fabs(reference));
}

/// Checks an answer's top-k against the exact (double-precision)
/// reference scores of every item: the answer must name k distinct
/// valid ids, and its r-th id's reference score must equal the r-th
/// best reference score within score_tolerance — so only ids whose
/// reference scores (nearly) tie may swap places.
inline std::string check_topk(std::span<const std::uint32_t> answer,
                              std::span<const double> reference,
                              std::size_t k) {
  k = std::min(k, reference.size());
  if (answer.size() != k) {
    return "top-k has " + std::to_string(answer.size()) + " ids, expected " +
           std::to_string(k);
  }
  std::vector<double> best(reference.begin(), reference.end());
  std::partial_sort(best.begin(), best.begin() + static_cast<long>(k), best.end(),
                    std::greater<>());
  std::vector<std::uint32_t> seen(answer.begin(), answer.end());
  std::sort(seen.begin(), seen.end());
  if (std::adjacent_find(seen.begin(), seen.end()) != seen.end()) {
    return "top-k repeats an id";
  }
  std::vector<double> got;
  got.reserve(k);
  for (const std::uint32_t id : answer) {
    if (id >= reference.size()) return "top-k id out of range";
    got.push_back(reference[id]);
  }
  for (std::size_t r = 0; r < k; ++r) {
    if (std::fabs(got[r] - best[r]) > score_tolerance(best[r])) {
      return "rank " + std::to_string(r) + " has reference score " +
             std::to_string(got[r]) + ", exact top-k has " +
             std::to_string(best[r]);
    }
  }
  return {};
}

/// Fraction of an answer's top-k that agrees with the exact top-k
/// (rank by rank, within score_tolerance); 1.0 for a correct answer.
inline double topk_agreement(std::span<const std::uint32_t> answer,
                             std::span<const double> reference, std::size_t k) {
  k = std::min(k, reference.size());
  if (k == 0) return 1.0;
  std::vector<double> best(reference.begin(), reference.end());
  std::partial_sort(best.begin(), best.begin() + static_cast<long>(k), best.end(),
                    std::greater<>());
  std::size_t agree = 0;
  for (std::size_t r = 0; r < std::min(k, answer.size()); ++r) {
    if (answer[r] < reference.size() &&
        std::fabs(reference[answer[r]] - best[r]) <= score_tolerance(best[r])) {
      ++agree;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(k);
}

/// Gateway conservation: every submitted request resolved with exactly
/// one status, and the per-version lanes sum to the totals.
inline std::string check_gateway_conservation(const ckat::serve::GatewayStats& s) {
  const std::uint64_t resolved =
      s.served + s.served_partial + s.zero_filled + s.shed_total();
  if (s.submitted != resolved) {
    return "gateway: submitted " + std::to_string(s.submitted) +
           " != resolved " + std::to_string(resolved);
  }
  std::uint64_t served = 0, partial = 0, zero = 0;
  for (const auto& lane : s.by_version) {
    served += lane.served;
    partial += lane.served_partial;
    zero += lane.zero_filled;
  }
  if (served != s.served || partial != s.served_partial || zero != s.zero_filled) {
    return "gateway: per-version lanes do not sum to the totals";
  }
  return {};
}

/// Router conservation: requests == full + partial + zero-filled, and
/// every shard answered or failed each request exactly once.
inline std::string check_router_conservation(const ckat::serve::ShardRouterStats& s) {
  if (s.requests != s.served_full + s.served_partial + s.zero_filled) {
    return "router: requests " + std::to_string(s.requests) +
           " != full + partial + zero-filled";
  }
  for (std::size_t i = 0; i < s.shards.size(); ++i) {
    if (s.shards[i].ok + s.shards[i].failed != s.requests) {
      return "router: shard " + std::to_string(i) + " ok + failed != requests";
    }
  }
  return {};
}

/// A hot-swap answer must come from a published version and carry that
/// version's row width. `published` maps version -> n_items.
inline std::string check_versioned_answer(
    const ckat::serve::ScoreResult& result,
    const std::map<std::uint64_t, std::size_t>& published) {
  if (result.status != ckat::serve::RequestStatus::kServed) {
    return std::string("status ") + ckat::serve::to_string(result.status);
  }
  const auto it = published.find(result.model_version);
  if (it == published.end()) {
    return "answer from unpublished version " +
           std::to_string(result.model_version);
  }
  if (result.scores.size() != it->second) {
    return "row width " + std::to_string(result.scores.size()) +
           " != n_items " + std::to_string(it->second) + " of version " +
           std::to_string(result.model_version);
  }
  return {};
}

/// Per-version conservation of a hot-swap run: the gateway's lanes
/// must match the answers the clients saw for each version.
inline std::string check_version_lanes(
    const ckat::serve::GatewayStats& s,
    const std::map<std::uint64_t, std::uint64_t>& client_served) {
  std::map<std::uint64_t, std::uint64_t> lanes;
  for (const auto& lane : s.by_version) {
    if (lane.served != 0) lanes[lane.version] = lane.served;
  }
  if (lanes != client_served) {
    return "gateway per-version served counts differ from the answers seen";
  }
  return {};
}

}  // namespace perfbench
