#include "facility/scale.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace ckat::facility {

namespace {

/// Stateless splitmix64 of (seed, stream, key): the per-user profile /
/// embedding hash. Mixing through two rounds decorrelates the streams.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t key) noexcept {
  std::uint64_t state = seed ^ (stream * 0x9E3779B97F4A7C15ULL);
  (void)util::splitmix64(state);
  state ^= key * 0xBF58476D1CE4E5B9ULL;
  return util::splitmix64(state);
}

/// Hash streams (arbitrary distinct constants).
constexpr std::uint64_t kStreamRegion = 0x11;
constexpr std::uint64_t kStreamType = 0x22;
constexpr std::uint64_t kStreamUserNoise = 0x33;
constexpr std::uint64_t kStreamItemNoise = 0x44;
constexpr std::uint64_t kStreamRegionSig = 0x55;
constexpr std::uint64_t kStreamTypeSig = 0x66;
constexpr std::uint64_t kStreamItemAttr = 0x77;
constexpr std::uint64_t kStreamRank = 0x88;

/// Signature amplitude vs. noise amplitude: matching region or type
/// contributes ~kSignal^2 * dim/2 to the dot product, noise ~0 in
/// expectation — orderings follow affinity, ties broken by noise.
constexpr float kSignal = 0.5F;
constexpr float kNoise = 0.1F;

/// One +/-1 signature lane for attribute `value` at dimension `lane`.
float signature_lane(std::uint64_t seed, std::uint64_t stream,
                     std::uint32_t value, std::size_t lane) noexcept {
  const std::uint64_t h =
      mix(seed, stream, (static_cast<std::uint64_t>(value) << 20) | lane);
  return (h & 1U) != 0 ? 1.0F : -1.0F;
}

float noise_lane(std::uint64_t seed, std::uint64_t stream, std::uint64_t id,
                 std::size_t lane) noexcept {
  const std::uint64_t h = mix(seed, stream, (id << 8) | lane);
  // Map to [-1, 1).
  return static_cast<float>(
      static_cast<double>(h >> 11) * 0x1.0p-53 * 2.0 - 1.0);
}

}  // namespace

ScaleTier::ScaleTier(ScaleTierParams params) : params_(params) {
  if (params_.n_users == 0 || params_.n_items == 0 || params_.dim < 2 ||
      params_.n_regions == 0 || params_.n_types == 0) {
    throw std::invalid_argument("ScaleTier: empty population/catalog/dims");
  }

  // Materialize item attributes: regions and types assigned by hash so
  // every (region, type) bucket is populated in expectation, popularity
  // Zipf over a hashed rank so popular items scatter across the id
  // space (and across shards).
  const std::size_t n = params_.n_items;
  item_regions_.resize(n);
  item_types_.resize(n);
  item_popularity_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    item_regions_[i] = static_cast<std::uint32_t>(
        mix(params_.seed, kStreamItemAttr, i * 2) % params_.n_regions);
    item_types_[i] = static_cast<std::uint32_t>(
        mix(params_.seed, kStreamItemAttr, i * 2 + 1) % params_.n_types);
    // Deterministic popularity rank permutation: item i's rank is its
    // position under a hash ordering; approximate with the hash itself
    // scaled into [0, n) — collisions only perturb neighbouring ranks.
    const std::uint64_t h = mix(params_.seed, kStreamItemAttr, 0x1000 + i);
    const double rank =
        static_cast<double>(h % (static_cast<std::uint64_t>(n) * 8)) / 8.0;
    item_popularity_[i] =
        1.0 / std::pow(rank + 1.0, params_.object_popularity_zipf);
  }

  // Affinity buckets mirroring QueryTraceGenerator: popularity-weighted
  // alias samplers per (region, type), per type, per region, global.
  const auto build_bucket = [this](Bucket& bucket) {
    if (bucket.objects.empty()) return;
    std::vector<double> weights;
    weights.reserve(bucket.objects.size());
    for (const std::uint32_t object : bucket.objects) {
      weights.push_back(item_popularity_[object]);
    }
    bucket.sampler.build(std::move(weights));
  };

  by_region_.resize(params_.n_regions);
  by_type_.resize(params_.n_types);
  by_region_type_.resize(params_.n_regions * params_.n_types);
  global_.objects.resize(n);
  std::iota(global_.objects.begin(), global_.objects.end(), 0U);
  for (std::uint32_t i = 0; i < n; ++i) {
    by_region_[item_regions_[i]].objects.push_back(i);
    by_type_[item_types_[i]].objects.push_back(i);
    by_region_type_[item_regions_[i] * params_.n_types + item_types_[i]]
        .objects.push_back(i);
  }
  build_bucket(global_);
  for (Bucket& bucket : by_region_) build_bucket(bucket);
  for (Bucket& bucket : by_type_) build_bucket(bucket);
  for (Bucket& bucket : by_region_type_) build_bucket(bucket);

  // Zipf user activity over ranks, scattered over ids by an affine
  // bijection mod n_users.
  user_activity_ = util::ZipfSampler(params_.n_users, params_.user_activity_zipf);
  std::uint64_t state = params_.seed ^ kStreamRank;
  rank_mult_ = (util::splitmix64(state) % params_.n_users) | 1ULL;
  while (std::gcd(rank_mult_, static_cast<std::uint64_t>(params_.n_users)) !=
         1ULL) {
    rank_mult_ += 2;
  }
  rank_add_ = util::splitmix64(state) % params_.n_users;
}

ScaleTier::Profile ScaleTier::user_profile(std::uint32_t user) const noexcept {
  Profile profile;
  profile.preferred_region = static_cast<std::uint32_t>(
      mix(params_.seed, kStreamRegion, user) % params_.n_regions);
  profile.preferred_type = static_cast<std::uint32_t>(
      mix(params_.seed, kStreamType, user) % params_.n_types);
  return profile;
}

void ScaleTier::user_vector(std::uint32_t user, std::span<float> out) const {
  if (out.size() != params_.dim) {
    throw std::invalid_argument("ScaleTier::user_vector: span size != dim");
  }
  const Profile profile = user_profile(user);
  const std::size_t half = params_.dim / 2;
  for (std::size_t d = 0; d < params_.dim; ++d) {
    const float sig =
        d < half ? signature_lane(params_.seed, kStreamRegionSig,
                                  profile.preferred_region, d)
                 : signature_lane(params_.seed, kStreamTypeSig,
                                  profile.preferred_type, d - half);
    out[d] = kSignal * sig +
             kNoise * noise_lane(params_.seed, kStreamUserNoise, user, d);
  }
}

void ScaleTier::item_vector(std::uint32_t item, std::span<float> out) const {
  if (out.size() != params_.dim) {
    throw std::invalid_argument("ScaleTier::item_vector: span size != dim");
  }
  const std::size_t half = params_.dim / 2;
  for (std::size_t d = 0; d < params_.dim; ++d) {
    const float sig =
        d < half ? signature_lane(params_.seed, kStreamRegionSig,
                                  item_regions_[item], d)
                 : signature_lane(params_.seed, kStreamTypeSig,
                                  item_types_[item], d - half);
    out[d] = kSignal * sig +
             kNoise * noise_lane(params_.seed, kStreamItemNoise, item, d);
  }
}

std::uint32_t ScaleTier::sample_user(util::Rng& rng) const {
  const std::uint64_t rank = user_activity_.sample(rng);
  return static_cast<std::uint32_t>(
      (rank * rank_mult_ + rank_add_) % params_.n_users);
}

const ScaleTier::Bucket* ScaleTier::bucket_for(std::uint32_t region,
                                               std::uint32_t type,
                                               bool want_region,
                                               bool want_type) const {
  // Fallback chain (region,type) -> (type) -> (region) -> global, as in
  // QueryTraceGenerator::sample_bucket.
  if (want_region && want_type) {
    const Bucket& bucket = by_region_type_[region * params_.n_types + type];
    if (!bucket.objects.empty()) return &bucket;
  }
  if (want_type && !by_type_[type].objects.empty()) return &by_type_[type];
  if (want_region && !by_region_[region].objects.empty()) {
    return &by_region_[region];
  }
  return &global_;
}

std::uint32_t ScaleTier::sample_object(std::uint32_t user,
                                       util::Rng& rng) const {
  const Profile profile = user_profile(user);
  const bool want_region = rng.bernoulli(params_.region_affinity);
  const bool want_type = rng.bernoulli(params_.type_affinity);
  const Bucket* bucket = bucket_for(profile.preferred_region,
                                    profile.preferred_type, want_region,
                                    want_type);
  return bucket->objects[bucket->sampler.sample(rng)];
}

ScaleTier::Affinity ScaleTier::measure(std::size_t n_queries,
                                       util::Rng& rng) const {
  Affinity affinity;
  if (n_queries == 0) return affinity;
  std::size_t region_hits = 0;
  std::size_t type_hits = 0;
  for (std::size_t q = 0; q < n_queries; ++q) {
    const std::uint32_t user = sample_user(rng);
    const Profile profile = user_profile(user);
    const std::uint32_t object = sample_object(user, rng);
    if (item_regions_[object] == profile.preferred_region) ++region_hits;
    if (item_types_[object] == profile.preferred_type) ++type_hits;
  }
  affinity.region_fraction =
      static_cast<double>(region_hits) / static_cast<double>(n_queries);
  affinity.type_fraction =
      static_cast<double>(type_hits) / static_cast<double>(n_queries);
  return affinity;
}

}  // namespace ckat::facility
