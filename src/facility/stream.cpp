#include "facility/stream.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "facility/dataset.hpp"
#include "util/contract.hpp"

namespace ckat::facility {

namespace {

/// Simulated wall-clock span of one window (a week of queries).
constexpr std::uint64_t kSecondsPerWindow = 7 * 24 * 3600;

/// Attribute naming shared with dataset.cpp's extract_knowledge_sources
/// — the alignment contract between bootstrap CKG and stream deltas.
std::string site_name(const FacilityModel& m, std::uint32_t s) {
  return "site:" + m.sites[s].name;
}
std::string region_name(const FacilityModel& m, std::uint32_t r) {
  return "region:" + m.regions[r];
}
std::string type_name(const FacilityModel& m, std::uint32_t t) {
  return "type:" + m.data_types[t].name;
}
std::string discipline_name(const FacilityModel& m, std::uint32_t d) {
  return "disc:" + m.disciplines[d];
}
std::string instrument_name(const FacilityModel& m, std::uint32_t i) {
  return "inst:" + m.instruments[i].name;
}

std::size_t active_count(std::size_t total, double fraction) {
  const auto count = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(total)));
  return std::clamp<std::size_t>(count, std::min<std::size_t>(1, total),
                                 total);
}

}  // namespace

FacilityStream::FacilityStream(const FacilityModel& facility,
                               const UserPopulation& users, TraceParams trace,
                               StreamParams params)
    : facility_(facility),
      users_(users),
      generator_(facility, users, trace),
      trace_(trace),
      params_(params),
      rng_(params.seed) {
  CKAT_ASSERT(params_.n_windows > 0, "FacilityStream: n_windows must be > 0");
  active_users_ = active_count(users_.n_users(), params_.initial_user_fraction);
  active_items_ =
      active_count(facility_.n_objects(), params_.initial_item_fraction);

  // Record the bootstrap vocabulary so later windows only declare
  // genuinely-new names.
  for (std::uint32_t o = 0; o < active_items_; ++o) {
    const DataObject& obj = facility_.objects[o];
    known_attributes_.insert(site_name(facility_, obj.site));
    known_attributes_.insert(region_name(facility_, obj.region));
    known_attributes_.insert(type_name(facility_, obj.data_type));
    known_attributes_.insert(discipline_name(facility_, obj.discipline));
  }
  known_relations_ = {"interact", "locatedAt", "inRegion", "dataType",
                      "dataDiscipline"};
}

std::vector<graph::KnowledgeSource> FacilityStream::bootstrap_sources() const {
  graph::KnowledgeSource loc{kSourceLoc, {}, {}};
  graph::KnowledgeSource dkg{kSourceDkg, {}, {}};
  std::unordered_set<std::uint32_t> sites_seen;
  std::unordered_set<std::uint32_t> types_seen;
  for (std::uint32_t o = 0; o < active_items_; ++o) {
    const DataObject& obj = facility_.objects[o];
    loc.item_triples.push_back({o, "locatedAt", site_name(facility_, obj.site)});
    loc.item_triples.push_back(
        {o, "inRegion", region_name(facility_, obj.region)});
    dkg.item_triples.push_back(
        {o, "dataType", type_name(facility_, obj.data_type)});
    dkg.item_triples.push_back(
        {o, "dataDiscipline", discipline_name(facility_, obj.discipline)});
    if (sites_seen.insert(obj.site).second) {
      loc.attribute_triples.push_back(
          {site_name(facility_, obj.site), "inRegion",
           region_name(facility_, facility_.sites[obj.site].region)});
    }
    if (types_seen.insert(obj.data_type).second) {
      dkg.attribute_triples.push_back(
          {type_name(facility_, obj.data_type), "dataDiscipline",
           discipline_name(facility_,
                           facility_.data_types[obj.data_type].discipline)});
    }
  }
  return {loc, dkg};
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
FacilityStream::bootstrap_user_pairs(std::size_t max_neighbors) {
  util::Rng pair_rng = rng_.fork(101);
  auto pairs = users_.same_city_pairs(max_neighbors, pair_rng);
  std::erase_if(pairs, [&](const auto& p) {
    return p.first >= active_users_ || p.second >= active_users_;
  });
  return pairs;
}

std::uint32_t FacilityStream::sample_active_user() {
  // Zipf-weighted rank = user id, matching QueryTraceGenerator's
  // heavy-tailed per-user activity, truncated to the active prefix.
  const double s = trace_.user_activity_zipf;
  if (user_weights_size_ != active_users_) {
    std::vector<double> weights;
    weights.reserve(active_users_);
    for (std::size_t u = 0; u < active_users_; ++u) {
      weights.push_back(1.0 / std::pow(static_cast<double>(u + 1), s));
    }
    user_sampler_.build(std::move(weights));
    user_weights_size_ = active_users_;
  }
  return static_cast<std::uint32_t>(user_sampler_.sample(rng_));
}

std::uint32_t FacilityStream::sample_active_object(
    const UserProfile& profile) {
  // The generator's buckets cover the whole catalog; rejection keeps
  // the affinity mixture while restricting to activated objects.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::uint32_t object = generator_.sample_object(profile, rng_);
    if (object < active_items_) return object;
  }
  return static_cast<std::uint32_t>(rng_.uniform_index(active_items_));
}

void FacilityStream::declare_attribute(const std::string& name,
                                       std::vector<std::string>& out) {
  if (known_attributes_.insert(name).second) out.push_back(name);
}

void FacilityStream::declare_relation(const std::string& name,
                                      std::vector<std::string>& out) {
  if (known_relations_.insert(name).second) out.push_back(name);
}

void FacilityStream::emit_object_knowledge(std::uint32_t object,
                                           graph::CkgDelta& delta) {
  const DataObject& obj = facility_.objects[object];
  const std::string site = site_name(facility_, obj.site);
  const std::string region = region_name(facility_, obj.region);
  const std::string type = type_name(facility_, obj.data_type);
  const std::string disc = discipline_name(facility_, obj.discipline);

  // Declarations before facts: a new site's attribute-level inRegion
  // link needs the region declared (or already known) first.
  declare_attribute(region, delta.new_attributes);
  const bool new_site = known_attributes_.count(site) == 0;
  declare_attribute(site, delta.new_attributes);
  if (new_site) {
    delta.knowledge.push_back({site, 0, "inRegion", region});
  }
  declare_attribute(disc, delta.new_attributes);
  const bool new_type = known_attributes_.count(type) == 0;
  declare_attribute(type, delta.new_attributes);
  if (new_type) {
    delta.knowledge.push_back({type, 0, "dataDiscipline", disc});
  }

  delta.knowledge.push_back({"", object, "locatedAt", site});
  delta.knowledge.push_back({"", object, "inRegion", region});
  delta.knowledge.push_back({"", object, "dataType", type});
  delta.knowledge.push_back({"", object, "dataDiscipline", disc});

  // Cold-start instruments arrive with MD-style provenance the
  // bootstrap graph never had: the first such window introduces the
  // "generatedBy" relation itself, later ones only new "inst:" names.
  const std::string inst = instrument_name(facility_, obj.instrument);
  declare_relation("generatedBy", delta.new_relations);
  declare_attribute(inst, delta.new_attributes);
  delta.knowledge.push_back({"", object, "generatedBy", inst});
}

StreamWindow FacilityStream::stream_window() {
  if (exhausted()) {
    throw std::logic_error("FacilityStream: stream exhausted");
  }
  ++window_index_;
  StreamWindow window;
  window.index = window_index_;
  graph::CkgDelta& delta = window.delta;
  delta.sequence = window_index_;

  const std::size_t windows_left = params_.n_windows - (window_index_ - 1);
  const std::size_t users_left = users_.n_users() - active_users_;
  const std::size_t items_left = facility_.n_objects() - active_items_;
  delta.n_new_users = static_cast<std::uint32_t>(
      (users_left + windows_left - 1) / windows_left);
  delta.n_new_items = static_cast<std::uint32_t>(
      (items_left + windows_left - 1) / windows_left);

  const std::size_t first_new_user = active_users_;
  const std::size_t first_new_item = active_items_;
  active_users_ += delta.n_new_users;
  active_items_ += delta.n_new_items;

  // Knowledge + alignment declarations for the cold-start objects.
  for (std::size_t o = first_new_item; o < active_items_; ++o) {
    emit_object_knowledge(static_cast<std::uint32_t>(o), delta);
  }

  // Same-city links connecting each cold-start user into G3.
  for (std::size_t u = first_new_user; u < active_users_; ++u) {
    const std::uint32_t city = users_.user(static_cast<std::uint32_t>(u)).city;
    std::size_t linked = 0;
    for (std::uint32_t v = 0;
         v < u && linked < params_.uug_neighbors_per_new_user; ++v) {
      if (users_.user(v).city == city) {
        delta.user_user_pairs.emplace_back(v, static_cast<std::uint32_t>(u));
        ++linked;
      }
    }
  }

  // Queries: forced first-contact queries for cold-start users, then
  // the window's affinity-mixture body with seasonal drift.
  const std::uint64_t window_start = window_index_ * kSecondsPerWindow;
  auto record = [&](std::uint32_t user, std::uint32_t object,
                    std::size_t position) {
    QueryRecord rec;
    rec.user = user;
    rec.object = object;
    rec.timestamp =
        window_start + position * kSecondsPerWindow /
                           std::max<std::size_t>(1, params_.queries_per_window);
    window.queries.push_back(rec);
    delta.interactions.push_back(
        {user, object});
  };
  std::size_t position = 0;
  for (std::size_t u = first_new_user; u < active_users_; ++u) {
    const UserProfile& profile = users_.user(static_cast<std::uint32_t>(u));
    for (int q = 0; q < 3; ++q) {
      record(static_cast<std::uint32_t>(u), sample_active_object(profile),
             position++);
    }
  }
  for (std::size_t i = 0; i < params_.queries_per_window; ++i) {
    const std::uint32_t user = sample_active_user();
    UserProfile profile = users_.user(user);
    if (rng_.bernoulli(params_.drift_share)) {
      // Seasonal drift: this window's campaigns pull the user toward a
      // rotated region; the rotation advances with the window index.
      profile.preferred_region = static_cast<std::uint32_t>(
          (profile.preferred_region + window_index_) %
          facility_.regions.size());
    }
    record(user, sample_active_object(profile), position++);
  }
  return window;
}

std::vector<QueryRecord> FacilityStream::bootstrap_queries() {
  std::vector<QueryRecord> queries;
  queries.reserve(params_.bootstrap_queries);
  for (std::size_t i = 0; i < params_.bootstrap_queries; ++i) {
    const std::uint32_t user = sample_active_user();
    QueryRecord rec;
    rec.user = user;
    rec.object = sample_active_object(users_.user(user));
    rec.timestamp = i * kSecondsPerWindow /
                    std::max<std::size_t>(1, params_.bootstrap_queries);
    queries.push_back(rec);
  }
  return queries;
}

}  // namespace ckat::facility
