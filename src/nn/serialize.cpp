#include "nn/serialize.hpp"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "util/fault.hpp"

namespace ckat::nn {

namespace {

constexpr char kMagic[8] = {'C', 'K', 'A', 'T', 'P', 'A', 'R', '1'};
constexpr char kCkptMagic[8] = {'C', 'K', 'A', 'T', 'C', 'K', 'P', '2'};
constexpr std::uint32_t kCkptVersion = 2;

// Sanity caps applied to every length field before it is trusted. A
// corrupt 4-byte field must produce a clean error, not a multi-GB
// allocation attempt.
constexpr std::uint32_t kMaxNameLen = 4096;
constexpr std::uint64_t kMaxDim = 1ull << 32;
constexpr std::uint64_t kMaxElements = 1ull << 33;

// Serialized header: magic(8) version(4) flags(4) epoch(4) n_tensors(4)
// cf_steps(8) kg_steps(8) rng_state(32) lr_scale(4), followed by a
// u32 CRC32 of those 76 bytes.
constexpr std::size_t kCkptHeaderSize = 76;

template <typename T>
void write_pod(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& in, const char* context) {
  T value;
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) {
    throw std::runtime_error(std::string("truncated file (") + context + ")");
  }
  return value;
}

template <typename T>
void append_pod(std::string& buffer, const T& value) {
  buffer.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T extract_pod(const char* buffer, std::size_t offset) {
  T value;
  std::memcpy(&value, buffer + offset, sizeof(T));
  return value;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  // Slicing-by-8: table[0] is the bytewise table; table[k][i] is the
  // CRC of byte i followed by k zero bytes, so one step folds 8 input
  // bytes with 8 independent lookups. Words are assembled from bytes,
  // so the result never depends on alignment or host endianness.
  static const auto table = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ (0xEDB88320u & (~(crc & 1u) + 1u));
      }
      t[0][i] = crc;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  const auto load_le32 = [](const unsigned char* p) {
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
  };
  std::uint32_t crc = ~seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = crc ^ load_le32(bytes);
    const std::uint32_t hi = load_le32(bytes + 4);
    crc = table[7][lo & 0xFFu] ^ table[6][(lo >> 8) & 0xFFu] ^
          table[5][(lo >> 16) & 0xFFu] ^ table[4][lo >> 24] ^
          table[3][hi & 0xFFu] ^ table[2][(hi >> 8) & 0xFFu] ^
          table[1][(hi >> 16) & 0xFFu] ^ table[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^ table[0][(crc ^ *bytes) & 0xFFu];
  }
  return ~crc;
}

void save_parameters(const ParamStore& store, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("save_parameters: cannot open " + path);
  }
  out.write(kMagic, sizeof(kMagic));
  write_pod<std::uint64_t>(out, store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    const Parameter& p = store.at(i);
    write_pod<std::uint32_t>(out,
                             static_cast<std::uint32_t>(p.name().size()));
    out.write(p.name().data(),
              static_cast<std::streamsize>(p.name().size()));
    write_pod<std::uint64_t>(out, p.rows());
    write_pod<std::uint64_t>(out, p.cols());
    out.write(reinterpret_cast<const char*>(p.value().data()),
              static_cast<std::streamsize>(p.value().size() * sizeof(float)));
  }
  if (!out) {
    throw std::runtime_error("save_parameters: write failed for " + path);
  }
}

void load_parameters(ParamStore& store, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_parameters: cannot open " + path);
  }
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("load_parameters: bad magic in " + path);
  }
  const auto count = read_pod<std::uint64_t>(in, "count");
  if (count != store.size()) {
    throw std::runtime_error(
        "load_parameters: parameter count mismatch (file has " +
        std::to_string(count) + ", store has " + std::to_string(store.size()) +
        ")");
  }
  for (std::size_t i = 0; i < store.size(); ++i) {
    Parameter& p = store.at(i);
    const auto name_len = read_pod<std::uint32_t>(in, "name length");
    // Bounds come before any allocation: a corrupt name_len must not
    // drive a huge std::string reserve.
    if (name_len > kMaxNameLen) {
      throw std::runtime_error(
          "load_parameters: implausible name length " +
          std::to_string(name_len) + " at parameter " + std::to_string(i) +
          " (corrupt file?)");
    }
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    if (!in || name != p.name()) {
      throw std::runtime_error("load_parameters: parameter name mismatch at " +
                               std::to_string(i) + " (file '" + name +
                               "', store '" + p.name() + "')");
    }
    const auto rows = read_pod<std::uint64_t>(in, "rows");
    const auto cols = read_pod<std::uint64_t>(in, "cols");
    if (rows > kMaxDim || cols > kMaxDim || rows * cols > kMaxElements) {
      throw std::runtime_error("load_parameters: implausible shape (" +
                               std::to_string(rows) + " x " +
                               std::to_string(cols) + ") for '" + name +
                               "' (corrupt file?)");
    }
    if (rows != p.rows() || cols != p.cols()) {
      // A larger row count is the warm-start footgun: a checkpoint from
      // a grown vocabulary silently truncated into a smaller model
      // would score garbage for every remapped id. Name the counts so
      // the operator sees *which* direction the mismatch runs.
      std::string message = "load_parameters: shape mismatch for '" + name +
                            "' (file has " + std::to_string(rows) + " x " +
                            std::to_string(cols) + ", store expects " +
                            std::to_string(p.rows()) + " x " +
                            std::to_string(p.cols()) + ")";
      if (rows > p.rows()) {
        message +=
            "; the file's entity count exceeds this model's vocabulary — "
            "a checkpoint from a larger vocabulary cannot be loaded into "
            "a smaller model (use warm_start_from_checkpoint for growth)";
      }
      throw std::runtime_error(message);
    }
    in.read(reinterpret_cast<char*>(p.value().data()),
            static_cast<std::streamsize>(p.value().size() * sizeof(float)));
    if (!in) {
      throw std::runtime_error("load_parameters: truncated values for '" +
                               name + "'");
    }
  }
}

// ------------------------------------------------------------ checkpoints

void TrainingCheckpoint::capture(const ParamStore& store) {
  tensors.clear();
  tensors.reserve(store.size());
  for (std::size_t i = 0; i < store.size(); ++i) {
    const Parameter& p = store.at(i);
    TensorSnapshot snapshot;
    snapshot.name = p.name();
    snapshot.value = p.value();
    if (!p.opt_m.empty()) {
      snapshot.opt_m = p.opt_m;
      snapshot.opt_v = p.opt_v;
    }
    tensors.push_back(std::move(snapshot));
  }
}

void TrainingCheckpoint::restore(ParamStore& store) const {
  if (store.size() != tensors.size()) {
    throw std::runtime_error(
        "TrainingCheckpoint::restore: parameter count mismatch (checkpoint "
        "has " +
        std::to_string(tensors.size()) + ", store has " +
        std::to_string(store.size()) + ")");
  }
  for (std::size_t i = 0; i < store.size(); ++i) {
    const TensorSnapshot& snapshot = tensors[i];
    const Parameter& p = store.at(i);
    if (snapshot.name != p.name()) {
      throw std::runtime_error(
          "TrainingCheckpoint::restore: parameter name mismatch at " +
          std::to_string(i) + " (checkpoint '" + snapshot.name +
          "', store '" + p.name() + "')");
    }
    if (!snapshot.value.same_shape(p.value())) {
      throw std::runtime_error(
          "TrainingCheckpoint::restore: shape mismatch for '" +
          snapshot.name + "'");
    }
  }
  for (std::size_t i = 0; i < store.size(); ++i) {
    const TensorSnapshot& snapshot = tensors[i];
    Parameter& p = store.at(i);
    p.value() = snapshot.value;
    p.opt_m = snapshot.opt_m;
    p.opt_v = snapshot.opt_v;
  }
}

namespace {

void write_tensor_payload(std::ofstream& out, const Tensor& t) {
  const std::size_t bytes = t.size() * sizeof(float);
  write_pod<std::uint32_t>(out, crc32(t.data(), bytes));
  out.write(reinterpret_cast<const char*>(t.data()),
            static_cast<std::streamsize>(bytes));
}

Tensor read_tensor_payload(std::ifstream& in, std::size_t rows,
                           std::size_t cols, const std::string& name,
                           const char* what) {
  const auto stored_crc = read_pod<std::uint32_t>(
      in, ("checkpoint CRC of '" + name + "'").c_str());
  Tensor t(rows, cols);
  const std::size_t bytes = t.size() * sizeof(float);
  in.read(reinterpret_cast<char*>(t.data()),
          static_cast<std::streamsize>(bytes));
  if (!in) {
    throw std::runtime_error("load_checkpoint: truncated " +
                             std::string(what) + " payload for '" + name +
                             "'");
  }
  auto& injector = util::FaultInjector::instance();
  if (injector.enabled() &&
      injector.should_fire(util::fault_points::kCheckpointReadBitflip) &&
      bytes > 0) {
    reinterpret_cast<unsigned char*>(t.data())[0] ^= 0x04;
  }
  if (crc32(t.data(), bytes) != stored_crc) {
    throw std::runtime_error("load_checkpoint: payload CRC mismatch for '" +
                             name + "' (" + what +
                             "): checkpoint is corrupt");
  }
  return t;
}

}  // namespace

void save_checkpoint(const TrainingCheckpoint& checkpoint,
                     const std::string& path) {
  const std::string tmp = path + ".tmp";
  auto& injector = util::FaultInjector::instance();
  try {
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw std::runtime_error("save_checkpoint: cannot open " + tmp);
      }
      std::string header;
      header.reserve(kCkptHeaderSize);
      header.append(kCkptMagic, sizeof(kCkptMagic));
      append_pod<std::uint32_t>(header, kCkptVersion);
      append_pod<std::uint32_t>(header, 0);  // flags (reserved)
      append_pod<std::int32_t>(header, checkpoint.epoch);
      append_pod<std::uint32_t>(
          header, static_cast<std::uint32_t>(checkpoint.tensors.size()));
      append_pod<std::int64_t>(header, checkpoint.cf_steps);
      append_pod<std::int64_t>(header, checkpoint.kg_steps);
      for (std::uint64_t word : checkpoint.rng_state) {
        append_pod<std::uint64_t>(header, word);
      }
      append_pod<float>(header, checkpoint.lr_scale);
      out.write(header.data(), static_cast<std::streamsize>(header.size()));
      write_pod<std::uint32_t>(out, crc32(header.data(), header.size()));

      for (const TensorSnapshot& snapshot : checkpoint.tensors) {
        if (injector.enabled() &&
            injector.should_fire(util::fault_points::kCheckpointWrite)) {
          throw std::runtime_error(
              "save_checkpoint: injected I/O failure writing " + tmp);
        }
        write_pod<std::uint32_t>(
            out, static_cast<std::uint32_t>(snapshot.name.size()));
        out.write(snapshot.name.data(),
                  static_cast<std::streamsize>(snapshot.name.size()));
        write_pod<std::uint64_t>(out, snapshot.value.rows());
        write_pod<std::uint64_t>(out, snapshot.value.cols());
        const std::uint8_t has_moments = snapshot.opt_m.empty() ? 0 : 1;
        write_pod<std::uint8_t>(out, has_moments);
        write_tensor_payload(out, snapshot.value);
        if (has_moments) {
          write_tensor_payload(out, snapshot.opt_m);
          write_tensor_payload(out, snapshot.opt_v);
        }
      }
      out.flush();
      if (!out) {
        throw std::runtime_error("save_checkpoint: write failed for " + tmp);
      }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      throw std::runtime_error("save_checkpoint: rename to " + path +
                               " failed: " + ec.message());
    }
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    throw;
  }
}

TrainingCheckpoint load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_checkpoint: cannot open " + path);
  }
  in.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  if (file_size < kCkptHeaderSize + sizeof(std::uint32_t)) {
    throw std::runtime_error("load_checkpoint: truncated header in " + path);
  }

  char header[kCkptHeaderSize];
  in.read(header, kCkptHeaderSize);
  const auto stored_header_crc = read_pod<std::uint32_t>(in, "header CRC");
  if (std::memcmp(header, kCkptMagic, sizeof(kCkptMagic)) != 0) {
    throw std::runtime_error("load_checkpoint: bad checkpoint magic in " +
                             path);
  }
  const auto version = extract_pod<std::uint32_t>(header, 8);
  if (version != kCkptVersion) {
    throw std::runtime_error("load_checkpoint: unsupported checkpoint "
                             "version " +
                             std::to_string(version) + " in " + path);
  }
  if (crc32(header, kCkptHeaderSize) != stored_header_crc) {
    throw std::runtime_error(
        "load_checkpoint: header CRC mismatch in " + path +
        ": checkpoint header is corrupt");
  }

  TrainingCheckpoint checkpoint;
  checkpoint.epoch = extract_pod<std::int32_t>(header, 16);
  const auto n_tensors = extract_pod<std::uint32_t>(header, 20);
  checkpoint.cf_steps = extract_pod<std::int64_t>(header, 24);
  checkpoint.kg_steps = extract_pod<std::int64_t>(header, 32);
  for (std::size_t w = 0; w < 4; ++w) {
    checkpoint.rng_state[w] =
        extract_pod<std::uint64_t>(header, 40 + 8 * w);
  }
  checkpoint.lr_scale = extract_pod<float>(header, 72);

  checkpoint.tensors.reserve(n_tensors);
  for (std::uint32_t i = 0; i < n_tensors; ++i) {
    const auto name_len = read_pod<std::uint32_t>(in, "checkpoint name length");
    if (name_len > kMaxNameLen) {
      throw std::runtime_error(
          "load_checkpoint: implausible name length " +
          std::to_string(name_len) + " at tensor " + std::to_string(i) +
          " (corrupt file?)");
    }
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    if (!in) {
      throw std::runtime_error("load_checkpoint: truncated name at tensor " +
                               std::to_string(i));
    }
    const auto rows = read_pod<std::uint64_t>(in, "checkpoint rows");
    const auto cols = read_pod<std::uint64_t>(in, "checkpoint cols");
    if (rows > kMaxDim || cols > kMaxDim || rows * cols > kMaxElements) {
      throw std::runtime_error("load_checkpoint: implausible shape (" +
                               std::to_string(rows) + " x " +
                               std::to_string(cols) + ") for '" + name +
                               "' (corrupt file?)");
    }
    const auto has_moments =
        read_pod<std::uint8_t>(in, "checkpoint moment flag");
    if (has_moments > 1) {
      throw std::runtime_error(
          "load_checkpoint: corrupt moment flag for '" + name + "'");
    }
    // Validate against the bytes actually left in the file before
    // touching memory: truncation is reported up front, not as a partial
    // read halfway through a payload.
    const std::uint64_t payload_bytes = rows * cols * sizeof(float);
    const std::uint64_t payloads = 1 + (has_moments ? 2 : 0);
    const auto here = static_cast<std::uint64_t>(in.tellg());
    if (file_size - here <
        payloads * (payload_bytes + sizeof(std::uint32_t))) {
      throw std::runtime_error("load_checkpoint: truncated payload for '" +
                               name + "' (file too small)");
    }

    TensorSnapshot snapshot;
    snapshot.name = name;
    snapshot.value = read_tensor_payload(in, rows, cols, name, "value");
    if (has_moments) {
      snapshot.opt_m = read_tensor_payload(in, rows, cols, name, "opt_m");
      snapshot.opt_v = read_tensor_payload(in, rows, cols, name, "opt_v");
    }
    checkpoint.tensors.push_back(std::move(snapshot));
  }
  return checkpoint;
}

}  // namespace ckat::nn
