// Corruption matrix for the durable checkpoint format: every class of
// on-disk damage (truncation, header bit-flips, payload bit-flips,
// flipped CRC fields, garbage length fields) must be rejected with a
// descriptive, class-specific error, and the atomic write protocol must
// never leave a partial file behind.
#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>
#include <unistd.h>

#include "nn/init.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace ckat::nn {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("ckat_ckpt_" + std::to_string(::getpid()) + ".bin"))
                .string();
  }
  void TearDown() override {
    util::FaultInjector::instance().reset();
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
  }

  static void fill_store(ParamStore& store, std::uint64_t seed) {
    util::Rng rng(seed);
    store.create("entity", 6, 4);
    store.create("W0", 8, 3);
    for (std::size_t i = 0; i < store.size(); ++i) {
      uniform_init(store.at(i).value(), rng, -1.0, 1.0);
    }
    // Give one parameter optimizer moments so the moment path is
    // exercised too.
    Parameter& p = store.at(0);
    p.opt_m.resize_zeroed(p.rows(), p.cols());
    p.opt_v.resize_zeroed(p.rows(), p.cols());
    uniform_init(p.opt_m, rng, 0.0, 0.1);
    uniform_init(p.opt_v, rng, 0.0, 0.1);
  }

  TrainingCheckpoint make_checkpoint() {
    ParamStore store;
    fill_store(store, 1);
    TrainingCheckpoint checkpoint;
    checkpoint.epoch = 7;
    checkpoint.cf_steps = 123;
    checkpoint.kg_steps = 45;
    checkpoint.rng_state = {1, 2, 3, 4};
    checkpoint.lr_scale = 0.25f;
    checkpoint.capture(store);
    return checkpoint;
  }

  void flip_byte(std::uint64_t offset) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
  }

  /// Asserts load fails and the error message mentions `needle`.
  void expect_load_error(const std::string& needle) {
    try {
      load_checkpoint(path_);
      FAIL() << "expected load_checkpoint to throw (" << needle << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << "actual error: " << e.what();
    }
  }

  std::string path_;
};

TEST_F(CheckpointTest, RoundTripPreservesEverything) {
  const TrainingCheckpoint original = make_checkpoint();
  save_checkpoint(original, path_);
  const TrainingCheckpoint loaded = load_checkpoint(path_);

  EXPECT_EQ(loaded.epoch, original.epoch);
  EXPECT_EQ(loaded.cf_steps, original.cf_steps);
  EXPECT_EQ(loaded.kg_steps, original.kg_steps);
  EXPECT_EQ(loaded.rng_state, original.rng_state);
  EXPECT_FLOAT_EQ(loaded.lr_scale, original.lr_scale);
  ASSERT_EQ(loaded.tensors.size(), original.tensors.size());
  for (std::size_t t = 0; t < loaded.tensors.size(); ++t) {
    const TensorSnapshot& a = original.tensors[t];
    const TensorSnapshot& b = loaded.tensors[t];
    EXPECT_EQ(a.name, b.name);
    ASSERT_TRUE(a.value.same_shape(b.value));
    for (std::size_t i = 0; i < a.value.size(); ++i) {
      EXPECT_EQ(a.value.data()[i], b.value.data()[i]);
    }
    ASSERT_EQ(a.opt_m.empty(), b.opt_m.empty());
    for (std::size_t i = 0; i < a.opt_m.size(); ++i) {
      EXPECT_EQ(a.opt_m.data()[i], b.opt_m.data()[i]);
      EXPECT_EQ(a.opt_v.data()[i], b.opt_v.data()[i]);
    }
  }

  // restore() round-trips into a fresh store of the same structure.
  ParamStore restored;
  fill_store(restored, 2);
  loaded.restore(restored);
  ParamStore reference;
  fill_store(reference, 1);
  for (std::size_t p = 0; p < reference.size(); ++p) {
    for (std::size_t i = 0; i < reference.at(p).value().size(); ++i) {
      EXPECT_EQ(restored.at(p).value().data()[i],
                reference.at(p).value().data()[i]);
    }
  }
}

TEST_F(CheckpointTest, RestoreRejectsMismatchedStore) {
  const TrainingCheckpoint checkpoint = make_checkpoint();
  ParamStore wrong_count;
  wrong_count.create("entity", 6, 4);
  EXPECT_THROW(checkpoint.restore(wrong_count), std::runtime_error);

  ParamStore wrong_name;
  wrong_name.create("entity", 6, 4);
  wrong_name.create("W1", 8, 3);
  EXPECT_THROW(checkpoint.restore(wrong_name), std::runtime_error);

  ParamStore wrong_shape;
  wrong_shape.create("entity", 6, 4);
  wrong_shape.create("W0", 3, 8);
  EXPECT_THROW(checkpoint.restore(wrong_shape), std::runtime_error);
}

TEST_F(CheckpointTest, DetectsHeaderCorruption) {
  save_checkpoint(make_checkpoint(), path_);
  flip_byte(16);  // epoch field, inside the CRC-protected header
  expect_load_error("header CRC mismatch");
}

TEST_F(CheckpointTest, DetectsBadMagic) {
  save_checkpoint(make_checkpoint(), path_);
  flip_byte(0);
  expect_load_error("bad checkpoint magic");
}

TEST_F(CheckpointTest, DetectsUnsupportedVersion) {
  save_checkpoint(make_checkpoint(), path_);
  // Version bumps are not silently accepted even though the header CRC
  // would flag the flip anyway: the version check runs first.
  flip_byte(8);
  expect_load_error("unsupported checkpoint version");
}

TEST_F(CheckpointTest, DetectsTensorPayloadBitFlip) {
  save_checkpoint(make_checkpoint(), path_);
  // First tensor record begins after the 80-byte header block:
  // name_len(4) + "entity"(6) + rows(8) + cols(8) + flag(1) + crc(4).
  const std::uint64_t payload_start = 80 + 4 + 6 + 8 + 8 + 1 + 4;
  flip_byte(payload_start + 5);
  expect_load_error("payload CRC mismatch for 'entity'");
}

TEST_F(CheckpointTest, DetectsFlippedCrcField) {
  save_checkpoint(make_checkpoint(), path_);
  const std::uint64_t crc_field = 80 + 4 + 6 + 8 + 8 + 1;
  flip_byte(crc_field);
  expect_load_error("payload CRC mismatch for 'entity'");
}

TEST_F(CheckpointTest, DetectsTruncation) {
  save_checkpoint(make_checkpoint(), path_);
  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size - 9);
  expect_load_error("truncated");
}

TEST_F(CheckpointTest, DetectsTruncatedHeader) {
  save_checkpoint(make_checkpoint(), path_);
  std::filesystem::resize_file(path_, 20);
  expect_load_error("truncated header");
}

TEST_F(CheckpointTest, RejectsImplausibleNameLength) {
  save_checkpoint(make_checkpoint(), path_);
  // Overwrite the first tensor's name_len with a huge value; the loader
  // must reject it before allocating, and before the (now nonsensical)
  // downstream fields are interpreted.
  std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
  const std::uint32_t absurd = 0x7FFFFFFF;
  f.seekp(80);
  f.write(reinterpret_cast<const char*>(&absurd), sizeof(absurd));
  f.close();
  expect_load_error("implausible name length");
}

TEST_F(CheckpointTest, InjectedWriteFailureLeavesNoPartialFile) {
  // A good checkpoint exists...
  save_checkpoint(make_checkpoint(), path_);
  const auto good_size = std::filesystem::file_size(path_);

  // ...then a write fails partway through the tensor section.
  util::FaultScope guard(util::fault_points::kCheckpointWrite,
                         util::FaultSpec{.after = 1});
  EXPECT_THROW(save_checkpoint(make_checkpoint(), path_),
               std::runtime_error);

  // No temp litter, and the previous checkpoint is byte-identical.
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
  ASSERT_TRUE(std::filesystem::exists(path_));
  EXPECT_EQ(std::filesystem::file_size(path_), good_size);
  EXPECT_NO_THROW(load_checkpoint(path_));
}

TEST_F(CheckpointTest, InjectedReadBitFlipIsCaughtByCrc) {
  save_checkpoint(make_checkpoint(), path_);
  util::FaultScope guard(util::fault_points::kCheckpointReadBitflip,
                         util::FaultSpec{});
  expect_load_error("payload CRC mismatch");
}

TEST(Crc32, MatchesKnownVector) {
  // The canonical IEEE CRC32 check value.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

/// The plain bytewise CRC32 (reflected 0xEDB88320, bit-at-a-time): the
/// definition every stored checksum was written with.
std::uint32_t bytewise_crc32(const unsigned char* data, std::size_t size,
                             std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) != 0 ? (crc >> 1) ^ 0xEDB88320u : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<unsigned char> random_bytes(std::size_t size, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) b = static_cast<unsigned char>(rng() >> 56);
  return bytes;
}

TEST(Crc32, EqualsBytewiseReferenceAtEveryOffsetAndLength) {
  // Offsets 0-15 put the 8-byte steps at every alignment; the lengths
  // cover empty input, every tail length around one and two steps, and
  // runs long enough to stream through the tables many times.
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.insert(lengths.end(), {63, 64, 65, 4099, 170000});
  const std::vector<unsigned char> buffer = random_bytes(16 + 170000, 77);
  for (const std::uint32_t seed : {0u, 0xDEADBEEFu}) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      for (const std::size_t length : lengths) {
        const unsigned char* data = buffer.data() + offset;
        ASSERT_EQ(crc32(data, length, seed),
                  bytewise_crc32(data, length, seed))
            << "offset " << offset << " length " << length << " seed "
            << seed;
      }
    }
  }
}

TEST(Crc32, SeedChainsAcrossSplits) {
  const std::vector<unsigned char> bytes = random_bytes(4099, 78);
  const std::uint32_t whole = crc32(bytes.data(), bytes.size());
  const std::size_t splits[] = {0, 1, 7, 8, 9, 64, 2048, 4098, 4099};
  for (const std::size_t split : splits) {
    EXPECT_EQ(crc32(bytes.data() + split, bytes.size() - split,
                    crc32(bytes.data(), split)),
              whole)
        << "split " << split;
  }
}

}  // namespace
}  // namespace ckat::nn
