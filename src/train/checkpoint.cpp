#include "train/checkpoint.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>

#include "sparse/mask.hpp"
#include "util/check.hpp"

namespace dstee::train {

namespace {

constexpr char kMagic[4] = {'D', 'S', 'T', 'E'};
// v2 appends Module::state_buffers() (batch-norm running statistics) after
// the parameter values — v1 files silently lost them, so a reloaded BN
// model served its init statistics in eval mode.
constexpr std::uint32_t kVersion = 2;

void write_u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

std::uint64_t read_u64(std::ifstream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  util::check(in.good(), "checkpoint truncated");
  return v;
}

void write_tensor(std::ofstream& out, const std::string& name,
                  const tensor::Tensor& t) {
  write_u64(out, name.size());
  out.write(name.data(), static_cast<std::streamsize>(name.size()));
  write_u64(out, t.rank());
  for (std::size_t d = 0; d < t.rank(); ++d) write_u64(out, t.dim(d));
  out.write(reinterpret_cast<const char*>(t.raw()),
            static_cast<std::streamsize>(t.numel() * sizeof(float)));
}

// Reads one record and validates it against the expected name and
// shape, writing the payload into `dest` (shape.numel() floats). The name
// length and rank are untrusted file fields, so each is checked against
// what the model expects before it sizes an allocation: a corrupt length
// fails with a CheckError, never a multi-GB allocation.
void read_tensor_into(std::ifstream& in, const std::string& expected_name,
                      const tensor::Shape& expected, std::span<float> dest) {
  const std::uint64_t name_len = read_u64(in);
  util::check(name_len == expected_name.size(),
              "checkpoint tensor order mismatch: expected '" + expected_name +
                  "', found a name of " + std::to_string(name_len) +
                  " bytes");
  std::string name(name_len, '\0');
  in.read(name.data(), static_cast<std::streamsize>(name_len));
  util::check(in.good(), "checkpoint truncated in tensor name");
  util::check(name == expected_name,
              "checkpoint tensor order mismatch: expected '" + expected_name +
                  "', found '" + name + "'");
  const std::uint64_t rank = read_u64(in);
  util::check(rank == expected.rank(),
              "checkpoint shape mismatch for '" + name + "': file has rank " +
                  std::to_string(rank) + ", model has " +
                  expected.to_string());
  std::vector<std::size_t> dims(rank);
  for (auto& d : dims) d = read_u64(in);
  const tensor::Shape shape{std::vector<std::size_t>(dims)};
  util::check(shape == expected,
              "checkpoint shape mismatch for '" + name + "': file has " +
                  shape.to_string() + ", model has " + expected.to_string());
  in.read(reinterpret_cast<char*>(dest.data()),
          static_cast<std::streamsize>(dest.size_bytes()));
  util::check(in.good(), "checkpoint truncated in tensor data");
}

void read_tensor_into(std::ifstream& in, const std::string& expected_name,
                      tensor::Tensor& dest) {
  read_tensor_into(in, expected_name, dest.shape(), dest.data());
}

}  // namespace

void save_checkpoint(const std::string& path, nn::Module& model,
                     const sparse::SparseModel* state) {
  // Checked before the file is touched: a released counter would write a
  // record no loader accepts.
  for (std::size_t i = 0; state != nullptr && i < state->num_layers(); ++i) {
    util::check(state->layer(i).has_counter(),
                "cannot checkpoint layer '" + state->layer(i).name() +
                    "': its DST counter was released (an inference-only "
                    "model)");
  }
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  util::check(out.is_open(), "cannot open checkpoint for writing: " + path);

  const auto params = model.parameters();
  const auto buffers = model.state_buffers();
  std::uint64_t num_tensors = params.size() + buffers.size();
  if (state != nullptr) num_tensors += 2 * state->num_layers();

  out.write(kMagic, sizeof(kMagic));
  out.write(reinterpret_cast<const char*>(&kVersion), sizeof(kVersion));
  write_u64(out, num_tensors);

  for (std::size_t i = 0; i < params.size(); ++i) {
    write_tensor(out, "param" + std::to_string(i) + "#value",
                 params[i]->value);
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    write_tensor(out, "buffer" + std::to_string(i) + "#state", *buffers[i]);
  }
  if (state != nullptr) {
    for (std::size_t i = 0; i < state->num_layers(); ++i) {
      write_tensor(out, "layer" + std::to_string(i) + "#mask",
                   state->layer(i).mask().tensor());
      write_tensor(out, "layer" + std::to_string(i) + "#counter",
                   state->layer(i).counter());
    }
  }
  out.flush();
  util::check(out.good(), "checkpoint write failed: " + path);
}

void load_checkpoint(const std::string& path, nn::Module& model,
                     sparse::SparseModel* state) {
  std::ifstream in(path, std::ios::binary);
  util::check(in.is_open(), "cannot open checkpoint for reading: " + path);

  char magic[4] = {};
  in.read(magic, sizeof(magic));
  util::check(in.good() && std::equal(magic, magic + 4, kMagic),
              "not a dstee checkpoint: " + path);
  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));

  const auto params = model.parameters();
  auto buffers = model.state_buffers();
  // v1 lacked "#state" records. For models without state buffers the v1
  // payload is byte-identical to v2, so those artifacts stay loadable;
  // models WITH buffers (batch-norm) would come back silently wrong and
  // are rejected.
  if (version == 1) {
    util::check(buffers.empty(),
                "checkpoint version 1 predates batch-norm running-stat "
                "persistence and cannot restore this model faithfully; "
                "re-save with this build");
  } else if (version == 3 || version == 4) {
    // Versions 3 and 4 of the family are sparse DELTAS (serve/delta.*):
    // they only carry the entries that moved since a base checkpoint, so
    // they cannot restore a model on their own.
    util::fail("checkpoint " + path + " is a sparse delta (v" +
               std::to_string(version) +
               "); apply it to its base model with serve::load_delta + "
               "serve::apply_delta instead of loading it as a full "
               "checkpoint");
  } else {
    util::check(version == kVersion, "unsupported checkpoint version " +
                                         std::to_string(version));
  }

  std::uint64_t expected = params.size() + buffers.size();
  if (state != nullptr) expected += 2 * state->num_layers();
  const std::uint64_t num_tensors = read_u64(in);
  util::check(num_tensors == expected,
              "checkpoint tensor count mismatch (file has " +
                  std::to_string(num_tensors) + ", model expects " +
                  std::to_string(expected) +
                  " — was it saved with/without sparse state?)");

  for (std::size_t i = 0; i < params.size(); ++i) {
    read_tensor_into(in, "param" + std::to_string(i) + "#value",
                     params[i]->value);
  }
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    read_tensor_into(in, "buffer" + std::to_string(i) + "#state",
                     *buffers[i]);
  }
  if (state != nullptr) {
    for (std::size_t i = 0; i < state->num_layers(); ++i) {
      auto& layer = state->layer(i);
      const std::string prefix = "layer" + std::to_string(i);
      // Straight into the layer's mask, checked binary there.
      sparse::Mask& mask = layer.mask();
      mask.read_in_place([&](std::span<float> dest) {
        read_tensor_into(in, prefix + "#mask", mask.shape(), dest);
      });
      // A released counter is allocated again to take the record.
      read_tensor_into(in, prefix + "#counter", layer.restore_counter());
    }
    state->apply_masks_to_values();
  }
}

}  // namespace dstee::train
