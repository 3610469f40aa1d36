#include "serve/shard.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <system_error>

#include "nn/serialize.hpp"
#include "obs/flight.hpp"
#include "obs/metric_names.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace ckat::serve {

namespace {

constexpr char kShardMagic[8] = {'C', 'K', 'A', 'T', 'S', 'H', 'D', '1'};

/// Header bytes covered by header_crc (everything before it).
constexpr std::size_t kHeaderCrcOffset =
    offsetof(ShardFileHeader, header_crc);

double elapsed_ms_since(
    std::chrono::steady_clock::time_point start) noexcept {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Stateless hash for ring points and key placement.
std::uint64_t ring_hash(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t state = a * 0x9E3779B97F4A7C15ULL + b;
  (void)util::splitmix64(state);
  return util::splitmix64(state);
}

/// The mmap-backed slice scorer: dot(user embedding, item embedding)
/// over this shard's slice only (n_items() == n_local). Scratch space
/// for the user vector is mutable but thread-confined — the owning
/// replica serializes all calls behind its mutex.
class SliceTier final : public eval::Recommender {
 public:
  SliceTier(std::string label, std::shared_ptr<const MmapShardStore> slice,
            UserVectorFn user_vector, std::size_t users)
      : label_(std::move(label)),
        slice_(std::move(slice)),
        user_vector_(std::move(user_vector)),
        users_(users),
        scratch_(slice_->dim()) {}

  [[nodiscard]] std::string name() const override { return label_; }
  void fit() override {}

  void score_items(std::uint32_t user, std::span<float> out) const override {
    if (out.size() != slice_->n_local()) {
      throw std::invalid_argument("SliceTier: output span != slice size");
    }
    user_vector_(user, std::span<float>(scratch_));
    const std::size_t width = slice_->dim();
    for (std::size_t i = 0; i < out.size(); ++i) {
      const std::span<const float> item = slice_->vector(i);
      float dot = 0.0F;
      for (std::size_t d = 0; d < width; ++d) dot += scratch_[d] * item[d];
      out[i] = dot;
    }
  }

  [[nodiscard]] std::size_t n_users() const override { return users_; }
  [[nodiscard]] std::size_t n_items() const override {
    return slice_->n_local();
  }

 private:
  std::string label_;
  std::shared_ptr<const MmapShardStore> slice_;
  UserVectorFn user_vector_;
  std::size_t users_;
  mutable std::vector<float> scratch_;
};

/// Terminal tier of a replica chain: a deterministic catalog-id prior
/// (earlier ids score higher) that depends on nothing that can fail —
/// no mmap, no user vector — so a replica degrades to popularity-style
/// scores instead of failing when its slice tier misbehaves.
class SlicePriorTier final : public eval::Recommender {
 public:
  SlicePriorTier(std::string label, std::span<const std::uint32_t> ids,
                 std::size_t users)
      : label_(std::move(label)), users_(users) {
    prior_.reserve(ids.size());
    for (const std::uint32_t id : ids) {
      prior_.push_back(1.0F / (1.0F + static_cast<float>(id)));
    }
  }

  [[nodiscard]] std::string name() const override { return label_; }
  void fit() override {}

  void score_items(std::uint32_t /*user*/,
                   std::span<float> out) const override {
    if (out.size() != prior_.size()) {
      throw std::invalid_argument("SlicePriorTier: output span != slice size");
    }
    std::copy(prior_.begin(), prior_.end(), out.begin());
  }

  [[nodiscard]] std::size_t n_users() const override { return users_; }
  [[nodiscard]] std::size_t n_items() const override { return prior_.size(); }

 private:
  std::string label_;
  std::size_t users_;
  std::vector<float> prior_;
};

/// Registry handles shared by every router in the process (metrics are
/// process-global; per-shard series are resolved on the rare trip /
/// recovery events, not here).
struct RouterMetrics {
  obs::Counter* requests_full;
  obs::Counter* requests_partial;
  obs::Counter* requests_zero;
  obs::Counter* hedges;
  obs::Counter* failovers;
  obs::Histogram* coverage;
};

RouterMetrics& router_metrics() {
  static RouterMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::global();
    RouterMetrics m{};
    m.requests_full = &registry.counter(
        obs::metric_names::kShardRequestsTotal, {{"outcome", "full"}});
    m.requests_partial = &registry.counter(
        obs::metric_names::kShardRequestsTotal, {{"outcome", "partial"}});
    m.requests_zero = &registry.counter(
        obs::metric_names::kShardRequestsTotal, {{"outcome", "zero_filled"}});
    m.hedges = &registry.counter(obs::metric_names::kShardHedgesTotal);
    m.failovers = &registry.counter(obs::metric_names::kShardFailoversTotal);
    m.coverage = &registry.histogram(
        obs::metric_names::kShardCoverage, {},
        {0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0});
    return m;
  }();
  return metrics;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardRing

ShardRing::ShardRing(std::size_t n_shards, std::size_t vnodes)
    : n_shards_(n_shards) {
  if (n_shards == 0 || vnodes == 0) {
    throw std::invalid_argument("ShardRing: need >= 1 shard and vnode");
  }
  ring_.reserve(n_shards * vnodes);
  for (std::size_t s = 0; s < n_shards; ++s) {
    for (std::size_t v = 0; v < vnodes; ++v) {
      ring_.emplace_back(ring_hash(0x5A4D1ULL + s, v),
                         static_cast<std::uint32_t>(s));
    }
  }
  std::sort(ring_.begin(), ring_.end());
}

std::uint32_t ShardRing::shard_of(std::uint64_t key) const noexcept {
  const std::uint64_t point = ring_hash(0xD15CULL, key);
  auto it = std::upper_bound(
      ring_.begin(), ring_.end(), point,
      [](std::uint64_t p, const std::pair<std::uint64_t, std::uint32_t>& e) {
        return p < e.first;
      });
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->second;
}

// ---------------------------------------------------------------------------
// Shard files

namespace {

/// The header of a shard file: its geometry plus the payload and
/// header CRCs. With the ids and vectors it is the whole file image.
ShardFileHeader shard_file_header(std::uint32_t shard_id,
                                  std::uint32_t n_shards,
                                  std::uint64_t n_items_total,
                                  std::uint32_t dim,
                                  std::span<const std::uint32_t> item_ids,
                                  std::span<const float> vectors) {
  if (vectors.size() != item_ids.size() * dim) {
    throw std::invalid_argument("write_shard_file: vectors != ids * dim");
  }
  ShardFileHeader header{};
  std::memcpy(header.magic, kShardMagic, sizeof(kShardMagic));
  header.shard_id = shard_id;
  header.n_shards = n_shards;
  header.dim = dim;
  header.reserved = 0;
  header.n_items_total = n_items_total;
  header.n_local = item_ids.size();
  std::uint32_t payload_crc =
      nn::crc32(item_ids.data(), item_ids.size_bytes());
  payload_crc = nn::crc32(vectors.data(), vectors.size_bytes(), payload_crc);
  header.payload_crc = payload_crc;
  header.header_crc = nn::crc32(&header, kHeaderCrcOffset);
  return header;
}

/// Writes a file image (temp file + rename).
void write_shard_image(const std::string& path, const ShardFileHeader& header,
                       std::span<const std::uint32_t> item_ids,
                       std::span<const float> vectors) {
  const std::string tmp = path + ".tmp";
  FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    throw std::runtime_error("write_shard_file: cannot open " + tmp);
  }
  bool ok = std::fwrite(&header, sizeof(header), 1, file) == 1;
  if (ok && !item_ids.empty()) {
    ok = std::fwrite(item_ids.data(), item_ids.size_bytes(), 1, file) == 1;
    ok = ok && std::fwrite(vectors.data(), vectors.size_bytes(), 1, file) == 1;
  }
  ok = std::fclose(file) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_shard_file: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_shard_file: cannot rename into " + path);
  }
}

}  // namespace

void write_shard_file(const std::string& path, std::uint32_t shard_id,
                      std::uint32_t n_shards, std::uint64_t n_items_total,
                      std::uint32_t dim,
                      std::span<const std::uint32_t> item_ids,
                      std::span<const float> vectors) {
  write_shard_image(path,
                    shard_file_header(shard_id, n_shards, n_items_total, dim,
                                      item_ids, vectors),
                    item_ids, vectors);
}

std::shared_ptr<const MmapShardStore> MmapShardStore::open(
    const std::string& path) {
  auto& injector = util::FaultInjector::instance();
  if (injector.enabled() &&
      injector.should_fire(util::fault_points::kShardOpenFail)) {
    throw std::runtime_error("injected fault: shard.open_fail (" + path + ")");
  }

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("MmapShardStore: cannot open " + path);
  }
  struct StoreGuard {
    int fd;
    void* map = nullptr;
    std::size_t size = 0;
    ~StoreGuard() {
      if (map != nullptr) ::munmap(map, size);
      if (fd >= 0) ::close(fd);
    }
  } guard{fd};

  struct stat st{};
  if (::fstat(fd, &st) != 0 ||
      st.st_size < static_cast<off_t>(sizeof(ShardFileHeader))) {
    throw std::runtime_error("MmapShardStore: truncated header in " + path);
  }
  const auto file_size = static_cast<std::size_t>(st.st_size);
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) {
    throw std::runtime_error("MmapShardStore: mmap failed for " + path);
  }
  guard.map = map;
  guard.size = file_size;

  ShardFileHeader header{};
  std::memcpy(&header, map, sizeof(header));
  if (std::memcmp(header.magic, kShardMagic, sizeof(kShardMagic)) != 0) {
    throw std::runtime_error("MmapShardStore: bad magic in " + path);
  }
  if (nn::crc32(&header, kHeaderCrcOffset) != header.header_crc) {
    throw std::runtime_error("MmapShardStore: header CRC mismatch in " + path);
  }
  if (header.dim == 0) {
    throw std::runtime_error("MmapShardStore: zero dim in " + path);
  }
  // The payload is n_local ids and n_local * dim floats, 4-byte words
  // both, so its word count must be n_local * (1 + dim). Checked by
  // division: a hostile n_local or dim cannot wrap a product into a
  // count that matches a small file.
  static_assert(sizeof(std::uint32_t) == sizeof(float));
  const std::size_t body = file_size - sizeof(ShardFileHeader);
  const std::size_t words = body / sizeof(float);
  const std::uint64_t n_local = header.n_local;
  const bool size_ok =
      body % sizeof(float) == 0 &&
      (n_local == 0 ? words == 0
                    : words % n_local == 0 &&
                          words / n_local == 1 + std::uint64_t{header.dim});
  if (!size_ok) {
    throw std::runtime_error("MmapShardStore: size mismatch in " + path);
  }
  const auto* payload =
      static_cast<const unsigned char*>(map) + sizeof(ShardFileHeader);
  const std::uint32_t payload_crc = nn::crc32(payload, body);
  const bool injected_corrupt =
      injector.enabled() &&
      injector.should_fire(util::fault_points::kShardCorrupt);
  if (payload_crc != header.payload_crc || injected_corrupt) {
    throw std::runtime_error("MmapShardStore: payload CRC mismatch in " +
                             path);
  }
  const auto* ids = reinterpret_cast<const std::uint32_t*>(payload);
  for (std::size_t i = 0; i < n_local; ++i) {
    if (ids[i] >= header.n_items_total ||
        (i > 0 && ids[i] <= ids[i - 1])) {
      throw std::runtime_error(
          "MmapShardStore: item ids not ascending/in range in " + path);
    }
  }

  auto store = std::shared_ptr<MmapShardStore>(new MmapShardStore());
  store->map_ = map;
  store->map_size_ = file_size;
  store->fd_ = fd;
  store->ids_ = ids;
  store->vectors_ = reinterpret_cast<const float*>(
      payload + n_local * sizeof(std::uint32_t));
  store->shard_id_ = header.shard_id;
  store->n_shards_ = header.n_shards;
  store->dim_ = header.dim;
  store->n_items_total_ = header.n_items_total;
  store->n_local_ = n_local;
  guard.map = nullptr;  // ownership transferred
  guard.fd = -1;
  return store;
}

MmapShardStore::~MmapShardStore() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
  if (fd_ >= 0) ::close(fd_);
}

// ---------------------------------------------------------------------------
// ShardRouterConfig

ShardRouterConfig ShardRouterConfig::from_env() {
  ShardRouterConfig config;
  config.n_shards =
      static_cast<int>(util::env_int("CKAT_SHARD_COUNT", 4, 1, 4096));
  config.replicas =
      static_cast<int>(util::env_int("CKAT_SHARD_REPLICAS", 2, 1, 16));
  config.probe_interval_ms =
      util::env_double("CKAT_SHARD_PROBE_MS", 25.0, 0.1, 3.6e6);
  config.hedge_min_ms =
      util::env_double("CKAT_SHARD_HEDGE_MIN_MS", 1.0, 0.01, 1e4);
  return config;
}

// ---------------------------------------------------------------------------
// ShardRouter

ShardRouter::ShardRouter(std::string dir, std::size_t n_users,
                         std::size_t n_items, std::size_t dim,
                         UserVectorFn user_vector, ShardRouterConfig config)
    : dir_(std::move(dir)),
      n_users_(n_users),
      n_items_(n_items),
      dim_(dim),
      user_vector_(std::move(user_vector)),
      config_(config) {
  if (n_users_ == 0 || n_items_ == 0 || dim_ == 0 || !user_vector_) {
    throw std::invalid_argument("ShardRouter: empty population or catalog");
  }
  if (config_.n_shards <= 0) config_.n_shards = 4;
  if (config_.replicas <= 0) config_.replicas = 2;
  if (config_.probe_interval_ms <= 0.0) config_.probe_interval_ms = 25.0;
  if (config_.hedge_min_ms <= 0.0) config_.hedge_min_ms = 1.0;
  replicas_per_shard_ = static_cast<std::size_t>(config_.replicas);

  auto& registry = obs::MetricsRegistry::global();
  bool any_open = false;
  shards_.reserve(static_cast<std::size_t>(config_.n_shards));
  for (std::size_t s = 0; s < static_cast<std::size_t>(config_.n_shards);
       ++s) {
    auto shard = std::make_unique<Shard>();
    for (std::size_t r = 0; r < replicas_per_shard_; ++r) {
      auto replica = std::make_unique<Replica>();
      replica->path = replica_path(dir_, s, r);
      replica->label = "shard" + std::to_string(s) + "-r" + std::to_string(r);
      replica->shard_index = s;
      replica->replica_index = r;
      replica->latency_hist = &registry.histogram(
          obs::metric_names::kShardReplicaLatencySeconds,
          {{"shard", std::to_string(s)}, {"replica", std::to_string(r)}});
      {
        std::lock_guard<util::OrderedMutex> lock(replica->mutex);
        try {
          open_replica_locked(*replica);
          replica->healthy.store(true, std::memory_order_release);
          any_open = true;
          if (shard->slice_ids.empty()) {
            const auto ids = replica->mapped_store->item_ids();
            shard->slice_ids.assign(ids.begin(), ids.end());
          }
        } catch (const std::exception& e) {
          CKAT_LOG_WARN("[shard] replica %s starts dead: %s",
                        replica->label.c_str(), e.what());
        }
      }
      shard->replica_slots.push_back(std::move(replica));
    }
    registry
        .gauge(obs::metric_names::kShardReplicasHealthy,
               {{"shard", std::to_string(s)}})
        .set(static_cast<double>(healthy_count(*shard)));
    shards_.push_back(std::move(shard));
  }
  if (!any_open) {
    throw std::runtime_error(
        "ShardRouter: no replica of any shard could open its shard file "
        "under " +
        dir_);
  }
  probe_thread_ = std::thread(&ShardRouter::probe_loop, this);
}

ShardRouter::~ShardRouter() {
  {
    std::lock_guard<util::OrderedMutex> lock(probe_mutex_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
}

void ShardRouter::write_catalog(
    const std::string& dir, std::size_t n_shards, std::size_t replicas,
    std::size_t n_items, std::size_t dim,
    const std::function<void(std::uint32_t, std::span<float>)>& item_vector) {
  if (n_shards == 0 || replicas == 0 || n_items == 0 || dim == 0) {
    throw std::invalid_argument("write_catalog: empty topology or catalog");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("write_catalog: cannot create " + dir + ": " +
                             ec.message());
  }
  const ShardRing ring(n_shards);
  std::vector<std::vector<std::uint32_t>> slices(n_shards);
  for (std::uint32_t id = 0; id < n_items; ++id) {
    slices[ring.shard_of(id)].push_back(id);  // ascending by construction
  }
  std::vector<float> vectors;
  for (std::size_t s = 0; s < n_shards; ++s) {
    const std::vector<std::uint32_t>& ids = slices[s];
    vectors.resize(ids.size() * dim);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      item_vector(ids[i], std::span<float>(vectors.data() + i * dim, dim));
    }
    // One image (and one payload CRC) per shard, copied to every replica.
    const ShardFileHeader header = shard_file_header(
        static_cast<std::uint32_t>(s), static_cast<std::uint32_t>(n_shards),
        n_items, static_cast<std::uint32_t>(dim), ids, vectors);
    for (std::size_t r = 0; r < replicas; ++r) {
      write_shard_image(replica_path(dir, s, r), header, ids, vectors);
    }
  }
}

std::string ShardRouter::replica_path(const std::string& dir,
                                      std::size_t shard,
                                      std::size_t replica) {
  return dir + "/shard_" + std::to_string(shard) + "_r" +
         std::to_string(replica) + ".bin";
}

void ShardRouter::open_replica_locked(Replica& replica) const {
  auto opened = MmapShardStore::open(replica.path);
  if (opened->dim() != dim_ || opened->n_items_total() != n_items_ ||
      opened->n_shards() != static_cast<std::uint32_t>(config_.n_shards) ||
      opened->shard_id() != static_cast<std::uint32_t>(replica.shard_index)) {
    throw std::runtime_error("MmapShardStore: topology mismatch in " +
                             replica.path);
  }
  replica.mapped_store = std::move(opened);
  replica.slice_tier = std::make_unique<SliceTier>(
      replica.label, replica.mapped_store, user_vector_, n_users_);
  replica.prior_tier = std::make_unique<SlicePriorTier>(
      replica.label + "-prior", replica.mapped_store->item_ids(), n_users_);
  auto chain = std::make_unique<ResilientRecommender>(
      std::vector<const eval::Recommender*>{replica.slice_tier.get(),
                                            replica.prior_tier.get()},
      config_.replica_chain);
  chain->set_model_version(config_.model_version);
  replica.slice_chain = std::move(chain);
  replica.fail_streak = 0;
}

void ShardRouter::close_replica_locked(Replica& replica) const {
  replica.slice_chain.reset();
  replica.slice_tier.reset();
  replica.prior_tier.reset();
  replica.mapped_store.reset();
}

void ShardRouter::record_replica_failure_locked(Replica& replica,
                                                const char* cause) {
  obs::MetricsRegistry::global()
      .counter(obs::metric_names::kShardReplicaFailuresTotal,
               {{"shard", std::to_string(replica.shard_index)},
                {"replica", std::to_string(replica.replica_index)}})
      .inc();
  replica.fail_streak += 1;
  if (replica.fail_streak < config_.replica_failure_threshold ||
      !replica.healthy.load(std::memory_order_acquire)) {
    return;
  }
  close_replica_locked(replica);
  replica.healthy.store(false, std::memory_order_release);
  replica_trips_.fetch_add(1, std::memory_order_relaxed);
  auto& registry = obs::MetricsRegistry::global();
  registry
      .counter(obs::metric_names::kShardReplicaTripsTotal,
               {{"shard", std::to_string(replica.shard_index)},
                {"replica", std::to_string(replica.replica_index)}})
      .inc();
  registry
      .gauge(obs::metric_names::kShardReplicasHealthy,
             {{"shard", std::to_string(replica.shard_index)}})
      .set(static_cast<double>(
          healthy_count(*shards_[replica.shard_index])));
  obs::trace_event("shard.replica_tripped",
                   {{"replica", replica.label}, {"cause", cause}});
  obs::flight_anomaly("shard_replica_down",
                      {{"replica", replica.label}, {"cause", cause}});
  CKAT_LOG_WARN("[shard] replica %s tripped (%s)", replica.label.c_str(),
                cause);
}

double ShardRouter::hedge_delay_ms(const Replica& replica) const {
  // p95-derived: once the replica's latency histogram has enough
  // samples, hedge after its observed p95 instead of the static floor.
  const obs::Histogram* hist = replica.latency_hist;
  if (hist != nullptr && hist->count() >= 32) {
    const double p95_ms = hist->quantile(0.95) * 1000.0;
    if (p95_ms > config_.hedge_min_ms) return p95_ms;
  }
  return config_.hedge_min_ms;
}

bool ShardRouter::score_shard(Shard& shard, std::uint32_t user,
                              std::span<float> slice, double remaining_ms,
                              ShardOutcome& outcome) {
  const std::size_t n_replicas = shard.replica_slots.size();
  const std::size_t first =
      shard.next_primary.fetch_add(1, std::memory_order_relaxed) % n_replicas;
  const auto start = std::chrono::steady_clock::now();
  int attempted = 0;
  bool last_failure_was_latency = false;

  for (std::size_t a = 0; a < n_replicas; ++a) {
    Replica& replica = *shard.replica_slots[(first + a) % n_replicas];
    if (!replica.healthy.load(std::memory_order_acquire)) continue;

    const double spent = elapsed_ms_since(start);
    const double left = remaining_ms > 0.0 ? remaining_ms - spent : 0.0;
    if (remaining_ms > 0.0 && left <= 0.0) break;

    // Classify the sibling attempt: latency-driven = hedge,
    // error/dead-primary-driven = failover.
    if (attempted > 0) {
      if (last_failure_was_latency) {
        outcome.hedges += 1;
        hedges_.fetch_add(1, std::memory_order_relaxed);
        router_metrics().hedges->inc();
      } else {
        outcome.failovers += 1;
        failovers_.fetch_add(1, std::memory_order_relaxed);
        router_metrics().failovers->inc();
      }
    } else if (a > 0) {
      outcome.failovers += 1;
      failovers_.fetch_add(1, std::memory_order_relaxed);
      router_metrics().failovers->inc();
    }

    // A non-final replica only gets the hedge allowance, so a slow
    // primary leaves the sibling budget to answer; the last candidate
    // gets everything left (0 = no deadline).
    const bool has_sibling = a + 1 < n_replicas;
    double allowance = left;
    if (has_sibling) {
      const double hedge = hedge_delay_ms(replica);
      allowance = remaining_ms > 0.0 ? std::min(hedge, left) : hedge;
    }

    ResilientRecommender::ScoreOutcome result;
    {
      std::lock_guard<util::OrderedMutex> lock(replica.mutex);
      if (!replica.slice_chain) continue;  // raced a kill/trip
      result = replica.slice_chain->score_with_budget(user, slice, allowance);
      if (result.kind == ResilientRecommender::ScoreOutcome::Kind::kServed) {
        replica.fail_streak = 0;
      } else {
        record_replica_failure_locked(
            replica,
            result.kind ==
                    ResilientRecommender::ScoreOutcome::Kind::kBudgetExhausted
                ? "budget_exhausted"
                : "zero_filled");
      }
    }
    replica.latency_hist->observe(result.elapsed_ms / 1000.0);
    if (result.kind == ResilientRecommender::ScoreOutcome::Kind::kServed) {
      return true;
    }
    last_failure_was_latency =
        result.kind ==
        ResilientRecommender::ScoreOutcome::Kind::kBudgetExhausted;
    attempted += 1;
  }
  return false;
}

ShardOutcome ShardRouter::score(std::uint32_t user, std::span<float> out,
                                double budget_ms,
                                const obs::TraceContext& trace) {
  if (out.size() != n_items_) {
    throw std::invalid_argument("ShardRouter::score: out span != n_items");
  }
  const auto start = std::chrono::steady_clock::now();
  std::fill(out.begin(), out.end(), 0.0F);
  obs::TraceSpan span("shard.fanout", trace,
                      {{"user", std::to_string(user)}});

  std::size_t max_local = 0;
  for (const auto& shard : shards_) {
    max_local = std::max(max_local, shard->slice_ids.size());
  }
  std::vector<float> slice_buf(max_local);

  ShardOutcome outcome;
  std::size_t covered = 0;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    const std::span<float> slice(slice_buf.data(), shard.slice_ids.size());
    const double spent = elapsed_ms_since(start);
    const double left = budget_ms > 0.0 ? budget_ms - spent : 0.0;
    bool ok = false;
    if (!shard.slice_ids.empty() && (budget_ms <= 0.0 || left > 0.0)) {
      ok = score_shard(shard, user, slice, left, outcome);
    }
    if (ok) {
      for (std::size_t i = 0; i < shard.slice_ids.size(); ++i) {
        out[shard.slice_ids[i]] = slice[i];
      }
      covered += shard.slice_ids.size();
      shard.ok.fetch_add(1, std::memory_order_relaxed);
    } else {
      outcome.shards_failed += 1;
      shard.failed.fetch_add(1, std::memory_order_relaxed);
      obs::trace_event("shard.slice_failed", trace,
                       {{"shard", std::to_string(s)}});
    }
  }

  outcome.coverage =
      static_cast<double>(covered) / static_cast<double>(n_items_);
  if (covered == n_items_) {
    outcome.kind = ShardOutcome::Kind::kFull;
    served_full_.fetch_add(1, std::memory_order_relaxed);
    router_metrics().requests_full->inc();
  } else if (covered > 0) {
    outcome.kind = ShardOutcome::Kind::kPartial;
    served_partial_.fetch_add(1, std::memory_order_relaxed);
    router_metrics().requests_partial->inc();
  } else {
    outcome.kind = ShardOutcome::Kind::kZeroFilled;
    zero_filled_.fetch_add(1, std::memory_order_relaxed);
    router_metrics().requests_zero->inc();
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  router_metrics().coverage->observe(outcome.coverage);
  outcome.elapsed_ms = elapsed_ms_since(start);
  span.add_attr("coverage", std::to_string(outcome.coverage));
  span.add_attr("shards_failed", std::to_string(outcome.shards_failed));
  return outcome;
}

void ShardRouter::kill_replica(std::size_t shard, std::size_t replica) {
  Replica& rep = *shards_.at(shard)->replica_slots.at(replica);
  std::lock_guard<util::OrderedMutex> lock(rep.mutex);
  if (!rep.healthy.load(std::memory_order_acquire)) return;
  // Force an immediate trip regardless of the failure threshold.
  rep.fail_streak = config_.replica_failure_threshold - 1;
  record_replica_failure_locked(rep, "killed");
}

bool ShardRouter::replica_healthy(std::size_t shard,
                                  std::size_t replica) const {
  return shards_.at(shard)
      ->replica_slots.at(replica)
      ->healthy.load(std::memory_order_acquire);
}

void ShardRouter::probe_now() { probe_sweep(); }

void ShardRouter::probe_sweep() {
  auto& registry = obs::MetricsRegistry::global();
  for (const auto& shard : shards_) {
    for (const auto& slot : shard->replica_slots) {
      Replica& replica = *slot;
      if (replica.healthy.load(std::memory_order_acquire)) continue;
      std::lock_guard<util::OrderedMutex> lock(replica.mutex);
      try {
        if (!replica.slice_chain) open_replica_locked(replica);
        // Canary request: the replica only comes back when it can
        // actually answer within the probe budget (a still-slow or
        // still-corrupt replica stays down).
        std::vector<float> canary(replica.mapped_store->n_local());
        const auto result = replica.slice_chain->score_with_budget(
            0, std::span<float>(canary), config_.probe_budget_ms);
        if (result.kind !=
            ResilientRecommender::ScoreOutcome::Kind::kServed) {
          close_replica_locked(replica);
          continue;
        }
        replica.fail_streak = 0;
        replica.healthy.store(true, std::memory_order_release);
        replica_recoveries_.fetch_add(1, std::memory_order_relaxed);
        registry
            .counter(obs::metric_names::kShardReplicaRecoveriesTotal,
                     {{"shard", std::to_string(replica.shard_index)},
                      {"replica", std::to_string(replica.replica_index)}})
            .inc();
        registry
            .gauge(obs::metric_names::kShardReplicasHealthy,
                   {{"shard", std::to_string(replica.shard_index)}})
            .set(static_cast<double>(healthy_count(*shard)));
        obs::trace_event("shard.replica_recovered",
                         {{"replica", replica.label}});
        CKAT_LOG_INFO("[shard] replica %s recovered",
                      replica.label.c_str());
      } catch (const std::exception&) {
        close_replica_locked(replica);  // stays down until the next probe
      }
    }
  }
}

void ShardRouter::probe_loop() {
  std::unique_lock<util::OrderedMutex> lock(probe_mutex_);
  while (!probe_stop_) {
    probe_cv_.wait_for(
        lock,
        std::chrono::duration<double, std::milli>(config_.probe_interval_ms),
        [this] { return probe_stop_; });
    if (probe_stop_) break;
    lock.unlock();
    probe_sweep();
    lock.lock();
  }
}

std::size_t ShardRouter::healthy_count(const Shard& shard) {
  std::size_t live = 0;
  for (const auto& slot : shard.replica_slots) {
    if (slot->healthy.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

ShardRouterStats ShardRouter::stats() const {
  ShardRouterStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.served_full = served_full_.load(std::memory_order_relaxed);
  stats.served_partial = served_partial_.load(std::memory_order_relaxed);
  stats.zero_filled = zero_filled_.load(std::memory_order_relaxed);
  stats.hedges = hedges_.load(std::memory_order_relaxed);
  stats.failovers = failovers_.load(std::memory_order_relaxed);
  stats.replica_trips = replica_trips_.load(std::memory_order_relaxed);
  stats.replica_recoveries =
      replica_recoveries_.load(std::memory_order_relaxed);
  stats.shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    ShardRouterStats::PerShard per;
    per.n_local = shard->slice_ids.size();
    per.healthy_replicas = healthy_count(*shard);
    per.ok = shard->ok.load(std::memory_order_relaxed);
    per.failed = shard->failed.load(std::memory_order_relaxed);
    stats.shards.push_back(per);
  }
  return stats;
}

}  // namespace ckat::serve
