// Tests for the GaP baseline scheduler and checkpoint serialization.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "methods/gap.hpp"
#include "models/mlp.hpp"
#include "sparse/stats.hpp"
#include "train/checkpoint.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace dstee {
namespace {

struct GapHarness {
  GapHarness()
      : rng(3),
        model(make_cfg(), rng),
        smodel(model, 0.9, sparse::DistributionKind::kErk, rng) {}

  static models::MlpConfig make_cfg() {
    models::MlpConfig cfg;
    cfg.in_features = 16;
    cfg.hidden = {32, 32, 32};
    cfg.out_features = 8;  // four sparsifiable layers total
    return cfg;
  }

  util::Rng rng;
  models::Mlp model;
  sparse::SparseModel smodel;
};

TEST(Gap, FirstPartitionStartsDense) {
  GapHarness h;
  methods::GapConfig cfg;
  cfg.num_partitions = 2;
  cfg.phase_iterations = 10;
  cfg.sparsity = 0.9;
  methods::GapScheduler gap(h.smodel, cfg);
  EXPECT_EQ(gap.active_partition(), 0u);
  // Layers 0 and 2 are partition 0 → dense; layers 1, 3 stay sparse.
  EXPECT_DOUBLE_EQ(h.smodel.layer(0).density(), 1.0);
  EXPECT_DOUBLE_EQ(h.smodel.layer(2).density(), 1.0);
  EXPECT_LT(h.smodel.layer(1).density(), 0.5);
}

TEST(Gap, RotationPrunesOldAndDensifiesNext) {
  GapHarness h;
  methods::GapConfig cfg;
  cfg.num_partitions = 2;
  cfg.phase_iterations = 10;
  cfg.sparsity = 0.9;
  methods::GapScheduler gap(h.smodel, cfg);
  EXPECT_FALSE(gap.maybe_rotate(h.smodel, 5));
  EXPECT_TRUE(gap.maybe_rotate(h.smodel, 10));
  EXPECT_EQ(gap.active_partition(), 1u);
  EXPECT_EQ(gap.rotations(), 1u);
  // Old partition pruned back, new one dense.
  EXPECT_LT(h.smodel.layer(0).density(), 0.5);
  EXPECT_DOUBLE_EQ(h.smodel.layer(1).density(), 1.0);
  EXPECT_EQ(sparse::validate_invariants(h.smodel), "");
}

TEST(Gap, FullCycleCoversEveryPartition) {
  GapHarness h;
  methods::GapConfig cfg;
  cfg.num_partitions = 4;
  cfg.phase_iterations = 5;
  methods::GapScheduler gap(h.smodel, cfg);
  std::set<std::size_t> seen{gap.active_partition()};
  for (std::size_t it = 5; it <= 20; it += 5) {
    gap.maybe_rotate(h.smodel, it);
    seen.insert(gap.active_partition());
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Gap, InvalidConfigsThrow) {
  GapHarness h;
  methods::GapConfig cfg;
  cfg.num_partitions = 1;
  EXPECT_THROW(methods::GapScheduler(h.smodel, cfg), util::CheckError);
  cfg.num_partitions = 100;  // more than the 4 layers
  EXPECT_THROW(methods::GapScheduler(h.smodel, cfg), util::CheckError);
}

TEST(Gap, PartitionAssignmentRoundRobin) {
  GapHarness h;
  methods::GapConfig cfg;
  cfg.num_partitions = 3;
  methods::GapScheduler gap(h.smodel, cfg);
  EXPECT_EQ(gap.partition_of(0), 0u);
  EXPECT_EQ(gap.partition_of(1), 1u);
  EXPECT_EQ(gap.partition_of(2), 2u);
  EXPECT_EQ(gap.partition_of(3), 0u);
}

// ---------------------------------------------------------------------------

// Each Checkpoint case writes under its own directory and removes it:
// ctest runs every case as its own process, in parallel under -j, so a
// shared directory would let one case delete another's file mid-run.
struct CheckpointHarness {
  CheckpointHarness(std::uint64_t seed = 5)
      : rng(seed),
        model(make_cfg(), rng),
        smodel(model, 0.8, sparse::DistributionKind::kUniform, rng) {}

  static models::MlpConfig make_cfg() {
    models::MlpConfig cfg;
    cfg.in_features = 10;
    cfg.hidden = {20};
    cfg.out_features = 4;
    return cfg;
  }

  util::Rng rng;
  models::Mlp model;
  sparse::SparseModel smodel;
};

TEST(Checkpoint, RoundTripsValuesMasksAndCounters) {
  const std::string dir = "test_ckpt_round_trip";
  const std::string path = dir + "/model.bin";
  CheckpointHarness a(5);
  a.smodel.accumulate_counters();  // make counters nontrivial
  train::save_checkpoint(path, a.model, &a.smodel);

  CheckpointHarness b(99);  // different init
  train::load_checkpoint(path, b.model, &b.smodel);

  const auto pa = a.model.parameters();
  const auto pb = b.model.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(pa[i]->value.equals(pb[i]->value)) << "param " << i;
  }
  for (std::size_t i = 0; i < a.smodel.num_layers(); ++i) {
    EXPECT_EQ(a.smodel.layer(i).mask().hamming_distance(
                  b.smodel.layer(i).mask()),
              0u);
    EXPECT_TRUE(a.smodel.layer(i).counter().equals(
        b.smodel.layer(i).counter()));
  }
  EXPECT_EQ(sparse::validate_invariants(b.smodel), "");
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, SaveLoadSaveIsByteIdenticalAndMasksAreZeroOrOne) {
  // Layers of 12,707 and 917 positions: masks convert in chunks of
  // 4096, so the first spans three full chunks and a partial one, and
  // neither is a multiple of 64.
  const std::string dir = "test_ckpt_save_load_save";
  const std::string first = dir + "/first.bin";
  const std::string second = dir + "/second.bin";
  models::MlpConfig cfg;
  cfg.in_features = 97;
  cfg.hidden = {131};
  cfg.out_features = 7;
  util::Rng rng_a(21);
  models::Mlp a(cfg, rng_a);
  sparse::SparseModel a_state(a, 0.9, sparse::DistributionKind::kErk, rng_a);
  a_state.accumulate_counters();
  train::save_checkpoint(first, a, &a_state);

  util::Rng rng_b(22);  // another init and topology
  models::Mlp b(cfg, rng_b);
  sparse::SparseModel b_state(b, 0.9, sparse::DistributionKind::kErk, rng_b);
  train::load_checkpoint(first, b, &b_state);
  train::save_checkpoint(second, b, &b_state);
  const std::string bytes = testing::file_bytes(first);
  EXPECT_EQ(bytes, testing::file_bytes(second));

  std::size_t masks = 0;
  for (const testing::CheckpointRecord& record :
       testing::checkpoint_records(bytes)) {
    if (record.name.find("#mask") == std::string::npos) continue;
    SCOPED_TRACE(record.name);
    const sparse::Mask& mask = a_state.layer(masks++).mask();
    ASSERT_EQ(record.numel, mask.numel());
    for (std::size_t i = 0; i < record.numel; ++i) {
      std::uint32_t word = 0;
      std::memcpy(&word, bytes.data() + record.data_offset + 4 * i, 4);
      ASSERT_EQ(word, mask.is_active(i) ? 0x3F800000u : 0u) << i;
    }
  }
  EXPECT_EQ(masks, a_state.num_layers());
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, ReleasedCounters) {
  // An inference-only state (counters released) has no training state to
  // save, and a load into one restores the file's counters.
  const std::string dir = "test_ckpt_released_counters";
  const std::string path = dir + "/model.bin";
  const std::string refused = dir + "/refused.bin";
  CheckpointHarness a(5);
  a.smodel.accumulate_counters();  // make counters nontrivial
  train::save_checkpoint(path, a.model, &a.smodel);

  CheckpointHarness b(99);
  b.smodel.release_counters();
  for (const auto& layer : b.smodel.layers()) {
    EXPECT_FALSE(layer.has_counter());
  }
  EXPECT_THROW(train::save_checkpoint(refused, b.model, &b.smodel),
               util::CheckError);
  EXPECT_FALSE(std::filesystem::exists(refused));  // refused before opening
  EXPECT_THROW(b.smodel.accumulate_counters(), util::CheckError);
  EXPECT_THROW(b.smodel.reset_counters_to_masks(), util::CheckError);

  train::load_checkpoint(path, b.model, &b.smodel);
  for (std::size_t i = 0; i < a.smodel.num_layers(); ++i) {
    ASSERT_TRUE(b.smodel.layer(i).has_counter());
    const tensor::Tensor& want = a.smodel.layer(i).counter();
    const tensor::Tensor& got = b.smodel.layer(i).counter();
    ASSERT_EQ(want.shape(), got.shape());
    EXPECT_EQ(std::memcmp(want.raw(), got.raw(), want.numel() * sizeof(float)),
              0)
        << "layer " << i;
    EXPECT_EQ(a.smodel.layer(i).mask().hamming_distance(
                  b.smodel.layer(i).mask()),
              0u);
  }
  EXPECT_EQ(sparse::validate_invariants(b.smodel), "");
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, ValuesOnlyRoundTrip) {
  const std::string dir = "test_ckpt_values_only";
  const std::string path = dir + "/dense.bin";
  CheckpointHarness a(7);
  train::save_checkpoint(path, a.model);
  CheckpointHarness b(8);
  train::load_checkpoint(path, b.model);
  EXPECT_TRUE(a.model.parameters()[0]->value.equals(
      b.model.parameters()[0]->value));
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, ForwardIdenticalAfterReload) {
  const std::string dir = "test_ckpt_forward";
  const std::string path = dir + "/fw.bin";
  CheckpointHarness a(9);
  a.model.set_training(false);
  const auto x = testing::random_tensor(tensor::Shape({3, 10}), 1);
  const auto before = a.model.forward(x);
  train::save_checkpoint(path, a.model, &a.smodel);
  CheckpointHarness b(10);
  b.model.set_training(false);
  train::load_checkpoint(path, b.model, &b.smodel);
  EXPECT_TRUE(b.model.forward(x).equals(before));
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, MissingFileThrows) {
  CheckpointHarness a(11);
  EXPECT_THROW(train::load_checkpoint("does/not/exist.bin", a.model),
               util::CheckError);
}

TEST(Checkpoint, StateCountMismatchDetected) {
  const std::string dir = "test_ckpt_state_count";
  const std::string path = dir + "/mismatch.bin";
  CheckpointHarness a(12);
  train::save_checkpoint(path, a.model);  // saved WITHOUT sparse state
  CheckpointHarness b(13);
  EXPECT_THROW(train::load_checkpoint(path, b.model, &b.smodel),
               util::CheckError);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, CorruptedMagicRejected) {
  const std::string dir = "test_ckpt_corrupt_magic";
  const std::string path = dir + "/corrupt.bin";
  std::filesystem::create_directories(dir);
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE this is not a checkpoint";
  }
  CheckpointHarness a(14);
  EXPECT_THROW(train::load_checkpoint(path, a.model), util::CheckError);
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, HugeNameLengthOrRankFailsWithCheckError) {
  // The first record's name length follows the header (4-byte magic,
  // u32 version, u64 tensor count) and its rank follows the name. A
  // corrupt file that sets either field to 2^40 must fail with a
  // CheckError before the field sizes an allocation.
  const std::string dir = "test_ckpt_huge_fields";
  const std::string path = dir + "/model.bin";
  CheckpointHarness a(15);
  train::save_checkpoint(path, a.model, &a.smodel);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  constexpr std::size_t kNameLenAt = 4 + 4 + 8;
  std::uint64_t name_len = 0;
  ASSERT_GT(bytes.size(), kNameLenAt + sizeof(name_len));
  std::memcpy(&name_len, bytes.data() + kNameLenAt, sizeof(name_len));
  ASSERT_EQ(name_len, std::string("param0#value").size());
  const std::size_t rank_at = kNameLenAt + sizeof(name_len) + name_len;

  const std::uint64_t huge = std::uint64_t{1} << 40;
  for (const std::size_t at : {kNameLenAt, rank_at}) {
    std::string patched = bytes;
    std::memcpy(patched.data() + at, &huge, sizeof(huge));
    const std::string bad = dir + "/patched.bin";
    {
      std::ofstream out(bad, std::ios::binary | std::ios::trunc);
      out.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    }
    CheckpointHarness b(16);
    EXPECT_THROW(train::load_checkpoint(bad, b.model, &b.smodel),
                 util::CheckError)
        << "field at byte " << at;
  }
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, LoaderMutationFuzzReturnsOrThrowsCheckError) {
  // A v2 checkpoint of a batch-norm MLP with sparse state (every record
  // kind: values, state buffers, masks, counters), mutated three ways.
  // Every load must return or throw a CheckError; any other exception
  // escapes and fails the test.
  const std::string dir = "test_ckpt_mutation_fuzz";
  const std::string path = dir + "/model.bin";
  const std::string mutant_path = dir + "/mutant.bin";
  models::MlpConfig cfg = CheckpointHarness::make_cfg();
  cfg.batch_norm = true;
  util::Rng rng(17);
  models::Mlp model(cfg, rng);
  sparse::SparseModel smodel(model, 0.8, sparse::DistributionKind::kUniform,
                             rng);
  smodel.accumulate_counters();
  train::save_checkpoint(path, model, &smodel);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }

  // Loads `mutant` into a model of the same architecture; returns whether
  // it loaded.
  const auto loads = [&](const std::string& mutant) {
    {
      std::ofstream out(mutant_path, std::ios::binary | std::ios::trunc);
      out.write(mutant.data(), static_cast<std::streamsize>(mutant.size()));
    }
    try {
      train::load_checkpoint(mutant_path, model, &smodel);
    } catch (const util::CheckError&) {
      return false;
    }
    return true;
  };
  ASSERT_TRUE(loads(bytes));

  // Walk the records: the header is magic, u32 version and u64 tensor
  // count; each record is u64 name length, name, u64 rank, u64 dims and
  // the float payload.
  const auto u64_at = [&bytes](std::size_t at) {
    std::uint64_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
  };
  constexpr std::size_t kHeader = 4 + 4 + 8;
  std::vector<std::pair<std::size_t, std::uint64_t>> fields{
      {kHeader - 8, u64_at(kHeader - 8)}};  // (byte, stored value)
  std::vector<std::pair<std::size_t, std::size_t>> heads, payloads;
  std::size_t at = kHeader;
  while (at < bytes.size()) {
    const std::size_t begin = at;
    fields.emplace_back(at, u64_at(at));
    at += 8 + u64_at(at);
    const std::uint64_t rank = u64_at(at);
    fields.emplace_back(at, rank);
    at += 8;
    std::size_t numel = 1;
    for (std::uint64_t d = 0; d < rank; ++d, at += 8) {
      fields.emplace_back(at, u64_at(at));
      numel *= u64_at(at);
    }
    heads.emplace_back(begin, at);
    payloads.emplace_back(at, at + numel * sizeof(float));
    at += numel * sizeof(float);
  }
  ASSERT_EQ(at, bytes.size());
  ASSERT_EQ(heads.size(), u64_at(kHeader - 8));
  ASSERT_EQ(heads.size(), model.parameters().size() +
                              model.state_buffers().size() +
                              2 * smodel.num_layers());

  // Truncated at every byte of the header and the record headers, and at
  // a stride through the payloads: always short of what it declares.
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < kHeader; ++n) cuts.push_back(n);
  for (const auto& [begin, end] : heads) {
    for (std::size_t n = begin; n < end; ++n) cuts.push_back(n);
  }
  for (const auto& [begin, end] : payloads) {
    for (std::size_t n = begin; n < end; n += 61) cuts.push_back(n);
  }
  for (const std::size_t n : cuts) {
    EXPECT_FALSE(loads(bytes.substr(0, n))) << "cut at byte " << n;
  }

  // Every count, name-length, rank and dim field set to 2^40, 0, ~0 and
  // its value ± 1: each must match what the model expects.
  for (const auto& [field_at, value] : fields) {
    for (const std::uint64_t v :
         {std::uint64_t{1} << 40, std::uint64_t{0}, ~std::uint64_t{0},
          value + 1, value - 1}) {
      std::string mutant = bytes;
      std::memcpy(mutant.data() + field_at, &v, sizeof(v));
      EXPECT_FALSE(loads(mutant))
          << "field at byte " << field_at << " set to " << v;
    }
  }

  // Every bit of the first 64 bytes, flipped: the magic, the version, the
  // count and the first record's head. A flip in the payload loads.
  for (std::size_t bit = 0; bit < 64 * 8; ++bit) {
    std::string mutant = bytes;
    mutant[bit / 8] = static_cast<char>(mutant[bit / 8] ^ (1 << (bit % 8)));
    loads(mutant);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dstee
