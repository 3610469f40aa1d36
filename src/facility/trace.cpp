#include "facility/trace.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace ckat::facility {

QueryTraceGenerator::QueryTraceGenerator(const FacilityModel& facility,
                                         const UserPopulation& users,
                                         TraceParams params)
    : facility_(facility), users_(users), params_(params) {
  const std::size_t n_objects = facility.n_objects();
  if (n_objects == 0) {
    throw std::invalid_argument("QueryTraceGenerator: facility has no objects");
  }

  // Object popularity: Zipf over a random permutation of objects, so
  // popularity is independent of object id order.
  object_popularity_.resize(n_objects);
  for (std::size_t i = 0; i < n_objects; ++i) {
    object_popularity_[i] =
        1.0 / std::pow(static_cast<double>(i + 1), params_.object_popularity_zipf);
  }
  // Deterministic shuffle driven by a fixed-seed generator keeps the
  // constructor pure given (facility, params).
  util::Rng shuffle_rng(0xB0B0'0000u + n_objects);
  shuffle_rng.shuffle(object_popularity_);

  const std::size_t n_regions = facility.regions.size();
  const std::size_t n_types = facility.data_types.size();

  by_region_.resize(n_regions);
  by_type_.resize(n_types);
  by_region_type_.resize(n_regions * n_types);

  for (std::uint32_t o = 0; o < n_objects; ++o) {
    const DataObject& obj = facility.objects[o];
    global_.objects.push_back(o);
    by_region_[obj.region].objects.push_back(o);
    by_type_[obj.data_type].objects.push_back(o);
    by_region_type_[obj.region * n_types + obj.data_type].objects.push_back(o);
  }

  auto build = [&](Bucket& b) {
    if (b.objects.empty()) return;
    std::vector<double> w(b.objects.size());
    for (std::size_t i = 0; i < b.objects.size(); ++i) {
      w[i] = object_popularity_[b.objects[i]];
    }
    b.sampler.build(std::move(w));
  };
  build(global_);
  for (Bucket& b : by_region_) build(b);
  for (Bucket& b : by_type_) build(b);
  for (Bucket& b : by_region_type_) build(b);
}

std::uint32_t QueryTraceGenerator::sample_bucket(
    std::optional<std::uint32_t> region, std::optional<std::uint32_t> type,
    util::Rng& rng) const {
  const std::size_t n_types = facility_.data_types.size();
  const Bucket* bucket = &global_;
  if (region && type) {
    const Bucket& b = by_region_type_[*region * n_types + *type];
    if (!b.objects.empty()) {
      bucket = &b;
    } else if (!by_type_[*type].objects.empty()) {
      bucket = &by_type_[*type];  // keep the domain constraint
    } else if (!by_region_[*region].objects.empty()) {
      bucket = &by_region_[*region];
    }
  } else if (type && !by_type_[*type].objects.empty()) {
    bucket = &by_type_[*type];
  } else if (region && !by_region_[*region].objects.empty()) {
    bucket = &by_region_[*region];
  }
  return bucket->objects[bucket->sampler.sample(rng)];
}

std::uint32_t QueryTraceGenerator::sample_object(const UserProfile& user,
                                                 util::Rng& rng) const {
  std::optional<std::uint32_t> region;
  std::optional<std::uint32_t> type;
  if (rng.bernoulli(params_.region_affinity)) region = user.preferred_region;
  if (rng.bernoulli(params_.type_affinity) && !user.preferred_types.empty()) {
    // The primary preferred type dominates (70%), so each user has a
    // clear modal data type -- matching the paper's "queries to the same
    // data type" measurement.
    std::size_t pick = 0;
    if (user.preferred_types.size() > 1 && !rng.bernoulli(0.7)) {
      pick = 1 + rng.uniform_index(user.preferred_types.size() - 1);
    }
    type = user.preferred_types[pick];
  }
  return sample_bucket(region, type, rng);
}

std::vector<QueryRecord> QueryTraceGenerator::generate(util::Rng& rng) const {
  const std::size_t n_users = users_.n_users();
  if (n_users == 0) {
    throw std::invalid_argument("QueryTraceGenerator: no users");
  }

  // Per-user activity: Zipf over a permutation of user ids.
  std::vector<double> activity(n_users);
  for (std::size_t i = 0; i < n_users; ++i) {
    activity[i] =
        1.0 / std::pow(static_cast<double>(i + 1), params_.user_activity_zipf);
  }
  rng.shuffle(activity);
  util::AliasSampler user_sampler(activity);

  constexpr std::uint64_t kSecondsPerYear = 365ULL * 24 * 3600;
  std::vector<QueryRecord> trace;
  trace.reserve(params_.total_queries);
  for (std::size_t q = 0; q < params_.total_queries; ++q) {
    QueryRecord rec;
    rec.user = static_cast<std::uint32_t>(user_sampler.sample(rng));
    rec.object = sample_object(users_.user(rec.user), rng);
    rec.timestamp = static_cast<std::uint64_t>(
        rng.uniform() * static_cast<double>(kSecondsPerYear));
    trace.push_back(rec);
  }
  std::sort(trace.begin(), trace.end(),
            [](const QueryRecord& a, const QueryRecord& b) {
              return a.timestamp < b.timestamp;
            });
  return trace;
}

}  // namespace ckat::facility
