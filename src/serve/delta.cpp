#include "serve/delta.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "util/check.hpp"

namespace dstee::serve {

namespace {

// Same magic as train/checkpoint.cpp: a delta is version 4 of the one
// dstee checkpoint family, so both loaders can recognize — and cleanly
// reject — each other's files.
constexpr char kMagic[4] = {'D', 'S', 'T', 'E'};

// The xxh64 primes.
constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;

/// The xxh64 round: one multiply-rotate step of one lane.
constexpr std::uint64_t hash_round(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc + word * kPrime2, 31) * kPrime1;
}

/// The state hash: four independent lanes, so four rounds are in flight
/// at once, over each tensor's raw bytes 8 at a time.
class StateHash {
 public:
  /// Mixes the element count, then the bytes in 32-byte stripes, one
  /// word per lane. A trailing odd float is zero-padded to a word; the
  /// count mixed first tells the padding from data.
  void mix(const tensor::Tensor& t) {
    lanes_[0] = hash_round(lanes_[0], t.numel());
    const auto* bytes = reinterpret_cast<const unsigned char*>(t.raw());
    const std::size_t size = t.numel() * sizeof(float);
    std::size_t at = 0;
    for (; at + kLanes * kWord <= size; at += kLanes * kWord) {
      for (std::size_t k = 0; k < kLanes; ++k) {
        lanes_[k] = hash_round(lanes_[k], word(bytes + at + k * kWord, kWord));
      }
    }
    for (std::size_t k = 0; at < size; at += kWord, ++k) {
      lanes_[k] = hash_round(lanes_[k],
                             word(bytes + at, std::min(kWord, size - at)));
    }
  }

  /// Folds the lanes the way xxh64 does, then avalanches.
  std::uint64_t digest() const {
    std::uint64_t h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
                      std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    for (const std::uint64_t lane : lanes_) {
      h = (h ^ hash_round(0, lane)) * kPrime1 + kPrime4;
    }
    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr std::size_t kLanes = 4;
  static constexpr std::size_t kWord = sizeof(std::uint64_t);

  /// The first `n` (at most 8) bytes at `p` as a little-endian word.
  static std::uint64_t word(const unsigned char* p, std::size_t n) {
    std::uint64_t w = 0;
    std::memcpy(&w, p, n);
    return w;
  }

  std::uint64_t lanes_[kLanes] = {kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1};
};

bool tensors_differ(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.numel() != b.numel()) return true;
  return std::memcmp(a.raw(), b.raw(), a.numel() * sizeof(float)) != 0;
}

// --- binary helpers (little-endian on every platform we build for, the
// same assumption train/checkpoint.cpp makes) --------------------------

void write_u32(std::ofstream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_u64(std::ofstream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_f32(std::ofstream& out, float v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// Parses a delta file front to back through a fixed window it refills
/// from the stream, so memory stays flat whatever the file's size. It
/// counts the bytes the file has left, so a count read from the file is
/// checked against them before it sizes anything: a corrupt count fails
/// with a CheckError, not a huge allocation.
class DeltaReader {
 public:
  DeltaReader(std::ifstream& in, std::uint64_t size)
      : in_(in), left_(size), window_(kWindowBytes) {}

  template <typename T>
  T read() {
    T v{};
    std::memcpy(&v, take(sizeof(v)), sizeof(v));
    return v;
  }

  /// The next `n` bytes (at most one window), contiguous in the window
  /// and valid until the next read.
  const char* take(std::size_t n) {
    util::check(left_ >= n, "delta file truncated");
    if (end_ - at_ < n) refill();
    const char* bytes = window_.data() + at_;
    at_ += n;
    left_ -= n;
    return bytes;
  }

  /// Decodes a list of `n` items of `item_bytes` each in window-sized
  /// runs: `decode(bytes, count)` gets the next `count` items as
  /// contiguous bytes.
  template <typename Decode>
  void read_list(std::size_t n, std::size_t item_bytes, Decode&& decode) {
    const std::size_t run = kWindowBytes / item_bytes;
    for (std::size_t first = 0; first < n; first += run) {
      const std::size_t count = std::min(run, n - first);
      decode(take(count * item_bytes), count);
    }
  }

  /// A count of items that each take at least `min_bytes` in the file.
  std::size_t count(std::uint64_t min_bytes) {
    const std::uint64_t n = read<std::uint64_t>();
    if (n > left_ / min_bytes) {
      util::fail("delta file truncated: a count of " + std::to_string(n) +
                 " items does not fit in the " + std::to_string(left_) +
                 " bytes left");
    }
    return static_cast<std::size_t>(n);
  }

 private:
  static constexpr std::size_t kWindowBytes = std::size_t{64} << 10;

  /// Moves the unparsed tail to the front of the window and fills the
  /// rest from the stream, never past the size taken at open.
  void refill() {
    const std::size_t tail = end_ - at_;
    std::memmove(window_.data(), window_.data() + at_, tail);
    const auto want = static_cast<std::size_t>(
        std::min<std::uint64_t>(window_.size() - tail, left_ - tail));
    in_.read(window_.data() + tail, static_cast<std::streamsize>(want));
    util::check(static_cast<std::size_t>(in_.gcount()) == want,
                "delta file truncated");
    at_ = 0;
    end_ = tail + want;
  }

  std::ifstream& in_;
  std::uint64_t left_;  ///< bytes not yet parsed, in the window or not
  std::vector<char> window_;
  std::size_t at_ = 0;   ///< next unparsed byte in the window
  std::size_t end_ = 0;  ///< one past the last byte in the window
};

// Fewest bytes one item of each counted list takes in the file.
constexpr std::uint64_t kIndexBytes = sizeof(std::uint64_t);
constexpr std::uint64_t kPairBytes = sizeof(std::uint64_t) + sizeof(float);
constexpr std::uint64_t kValueBytes = sizeof(float);
// index + value count
constexpr std::uint64_t kDenseTensorBytes = 2 * sizeof(std::uint64_t);
// layer + removed, added and changed counts
constexpr std::uint64_t kSectionBytes = 4 * sizeof(std::uint64_t);

void write_pairs(std::ofstream& out,
                 const std::vector<std::pair<std::size_t, float>>& pairs) {
  write_u64(out, pairs.size());
  for (const auto& [idx, value] : pairs) {
    write_u64(out, idx);
    write_f32(out, value);
  }
}

std::vector<std::size_t> read_indices(DeltaReader& in) {
  std::vector<std::size_t> indices;
  const std::size_t n = in.count(kIndexBytes);
  indices.reserve(n);
  in.read_list(n, kIndexBytes, [&](const char* bytes, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint64_t idx = 0;
      std::memcpy(&idx, bytes + i * kIndexBytes, sizeof(idx));
      indices.push_back(idx);
    }
  });
  return indices;
}

std::vector<std::pair<std::size_t, float>> read_pairs(DeltaReader& in) {
  std::vector<std::pair<std::size_t, float>> pairs;
  const std::size_t n = in.count(kPairBytes);
  pairs.reserve(n);
  in.read_list(n, kPairBytes, [&](const char* bytes, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const char* item = bytes + i * kPairBytes;
      std::uint64_t idx = 0;
      float value = 0.0f;
      std::memcpy(&idx, item, sizeof(idx));
      std::memcpy(&value, item + sizeof(idx), sizeof(value));
      pairs.emplace_back(idx, value);
    }
  });
  return pairs;
}

void write_dense(std::ofstream& out,
                 const std::vector<DenseTensorDelta>& tensors) {
  write_u64(out, tensors.size());
  for (const DenseTensorDelta& d : tensors) {
    write_u64(out, d.index);
    write_u64(out, d.values.size());
    for (const float v : d.values) write_f32(out, v);
  }
}

std::vector<DenseTensorDelta> read_dense(DeltaReader& in) {
  std::vector<DenseTensorDelta> tensors(in.count(kDenseTensorBytes));
  for (DenseTensorDelta& d : tensors) {
    d.index = in.read<std::uint64_t>();
    d.values.resize(in.count(kValueBytes));
    float* out = d.values.data();
    in.read_list(d.values.size(), kValueBytes,
                 [&](const char* bytes, std::size_t count) {
                   std::memcpy(out, bytes, count * kValueBytes);
                   out += count;
                 });
  }
  return tensors;
}

/// model_state_hash calls on this thread (state_hashes_on_this_thread).
thread_local std::uint64_t tls_state_hashes = 0;

/// param pointer → masked-layer index, the lookup both the diff and the
/// patch side key sparse updates on.
std::unordered_map<const nn::Parameter*, std::size_t> masked_layers(
    const sparse::SparseModel* state) {
  std::unordered_map<const nn::Parameter*, std::size_t> map;
  if (state != nullptr) {
    for (std::size_t i = 0; i < state->num_layers(); ++i) {
      map.emplace(&state->layer(i).param(), i);
    }
  }
  return map;
}

}  // namespace

std::uint64_t model_state_hash(nn::Module& model,
                               const sparse::SparseModel* state) {
  ++tls_state_hashes;
  StateHash h;
  for (const nn::Parameter* p : model.parameters()) h.mix(p->value);
  for (const tensor::Tensor* b : model.state_buffers()) h.mix(*b);
  if (state != nullptr) {
    for (std::size_t i = 0; i < state->num_layers(); ++i) {
      h.mix(state->layer(i).mask().tensor());
    }
  }
  return h.digest();
}

CheckpointDelta make_delta(nn::Module& base,
                           const sparse::SparseModel* base_state,
                           nn::Module& next,
                           const sparse::SparseModel* next_state) {
  const std::vector<nn::Parameter*> bp = base.parameters();
  const std::vector<nn::Parameter*> np = next.parameters();
  util::check(bp.size() == np.size(),
              "make_delta: models differ in parameter count");
  const std::vector<tensor::Tensor*> bb = base.state_buffers();
  const std::vector<tensor::Tensor*> nb = next.state_buffers();
  util::check(bb.size() == nb.size(),
              "make_delta: models differ in state-buffer count");
  util::check((base_state == nullptr) == (next_state == nullptr),
              "make_delta: both or neither model must carry sparse state");
  if (base_state != nullptr) {
    util::check(base_state->num_layers() == next_state->num_layers(),
                "make_delta: sparse layer count mismatch");
  }

  const auto base_masked = masked_layers(base_state);
  const auto next_masked = masked_layers(next_state);

  CheckpointDelta delta;
  delta.base_hash = model_state_hash(base, base_state);
  delta.result_hash = model_state_hash(next, next_state);

  for (std::size_t p = 0; p < bp.size(); ++p) {
    util::check(bp[p]->value.shape() == np[p]->value.shape(),
                "make_delta: parameter " + std::to_string(p) +
                    " changed shape — not an incremental update");
    const auto bit = base_masked.find(bp[p]);
    const auto nit = next_masked.find(np[p]);
    util::check((bit == base_masked.end()) == (nit == next_masked.end()),
                "make_delta: parameter " + std::to_string(p) +
                    " is masked in only one model");
    if (bit != base_masked.end()) {
      util::check(bit->second == nit->second,
                  "make_delta: masked layer order differs between models");
      const sparse::MaskedParameter& bl = base_state->layer(bit->second);
      const sparse::MaskedParameter& nl = next_state->layer(nit->second);
      SparseLayerDelta section;
      section.layer = bit->second;
      const std::size_t n = bl.numel();
      for (std::size_t j = 0; j < n; ++j) {
        const bool was = bl.mask().is_active(j);
        const bool is = nl.mask().is_active(j);
        if (was && !is) {
          section.removed.push_back(j);
        } else if (!was && is) {
          section.added.emplace_back(j, nl.param().value[j]);
        } else if (was && is &&
                   bl.param().value[j] != nl.param().value[j]) {
          section.changed.emplace_back(j, nl.param().value[j]);
        }
      }
      if (!section.removed.empty() || !section.added.empty() ||
          !section.changed.empty()) {
        delta.sparse_layers.push_back(std::move(section));
      }
    } else if (tensors_differ(bp[p]->value, np[p]->value)) {
      DenseTensorDelta d;
      d.index = p;
      d.values.assign(np[p]->value.raw(),
                      np[p]->value.raw() + np[p]->value.numel());
      delta.dense_params.push_back(std::move(d));
    }
  }

  for (std::size_t b = 0; b < bb.size(); ++b) {
    util::check(bb[b]->numel() == nb[b]->numel(),
                "make_delta: state buffer " + std::to_string(b) +
                    " changed shape");
    if (tensors_differ(*bb[b], *nb[b])) {
      DenseTensorDelta d;
      d.index = b;
      d.values.assign(nb[b]->raw(), nb[b]->raw() + nb[b]->numel());
      delta.state_buffers.push_back(std::move(d));
    }
  }
  return delta;
}

void save_delta(const std::string& path, const CheckpointDelta& delta) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  util::check(out.is_open(), "cannot open delta for writing: " + path);
  out.write(kMagic, sizeof(kMagic));
  write_u32(out, CheckpointDelta::kVersion);
  write_u64(out, delta.base_hash);
  write_u64(out, delta.result_hash);
  write_u64(out, delta.sparse_layers.size());
  for (const SparseLayerDelta& section : delta.sparse_layers) {
    write_u64(out, section.layer);
    write_u64(out, section.removed.size());
    for (const std::size_t idx : section.removed) write_u64(out, idx);
    write_pairs(out, section.added);
    write_pairs(out, section.changed);
  }
  write_dense(out, delta.dense_params);
  write_dense(out, delta.state_buffers);
  out.flush();
  util::check(out.good(), "delta write failed: " + path);
}

CheckpointDelta load_delta(const std::string& path) {
  // Opened at the end: the file size is taken once, up front.
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  util::check(file.is_open(), "cannot open delta for reading: " + path);
  const std::streamoff size = file.tellg();
  file.seekg(0);
  char magic[4] = {};
  file.read(magic, sizeof(magic));
  util::check(file.good() && std::equal(magic, magic + 4, kMagic),
              "not a dstee checkpoint/delta file: " + path);
  DeltaReader in(file, static_cast<std::uint64_t>(size) - sizeof(magic));
  const auto version = in.read<std::uint32_t>();
  util::check(version != 1 && version != 2,
              "checkpoint " + path + " is a FULL checkpoint (v" +
                  std::to_string(version) +
                  "), not a sparse delta; load it with "
                  "train::load_checkpoint");
  util::check(version != 3,
              "delta " + path +
                  " is format v3, keyed by the old state hash that this "
                  "build no longer computes; re-make it with "
                  "serve::make_delta from this build");
  util::check(version == CheckpointDelta::kVersion,
              "unsupported delta version " + std::to_string(version));

  CheckpointDelta delta;
  delta.base_hash = in.read<std::uint64_t>();
  delta.result_hash = in.read<std::uint64_t>();
  delta.sparse_layers.resize(in.count(kSectionBytes));
  for (SparseLayerDelta& section : delta.sparse_layers) {
    section.layer = in.read<std::uint64_t>();
    section.removed = read_indices(in);
    section.added = read_pairs(in);
    section.changed = read_pairs(in);
  }
  delta.dense_params = read_dense(in);
  delta.state_buffers = read_dense(in);
  return delta;
}

namespace {

/// Positions a sparse section writes.
std::size_t section_size(const SparseLayerDelta& s) {
  return s.removed.size() + s.added.size() + s.changed.size();
}

/// Floats of old values patch_model() logs when every entry runs: one
/// per sparse position, the value count per dense tensor.
std::size_t undo_size(const CheckpointDelta& delta) {
  std::size_t n = 0;
  for (const SparseLayerDelta& s : delta.sparse_layers) n += section_size(s);
  for (const auto* list : {&delta.dense_params, &delta.state_buffers}) {
    for (const DenseTensorDelta& d : *list) n += d.values.size();
  }
  return n;
}

/// Applies `delta` to a model whose base hash already matched, pushing
/// the old value of every position and dense tensor element it
/// overwrites onto `undo`, in delta order. Each entry is checked before
/// it writes anything. `params` holds the parameter values in
/// Module::parameters() order.
void patch_model(const CheckpointDelta& delta,
                 const std::vector<tensor::Tensor*>& params,
                 const std::vector<tensor::Tensor*>& buffers,
                 sparse::SparseModel* state, std::vector<float>& undo) {
  for (const SparseLayerDelta& section : delta.sparse_layers) {
    util::check(state != nullptr,
                "delta carries sparse layer updates but the model has no "
                "SparseModel state");
    util::check(section.layer < state->num_layers(),
                "delta sparse layer index out of range");
    sparse::MaskedParameter& layer = state->layer(section.layer);
    tensor::Tensor& value = layer.param().value;
    const std::size_t n = layer.numel();
    // A pruned position is zeroed the way apply_mask_to_value() zeroes
    // it; every other inactive position already holds zero.
    for (const std::size_t idx : section.removed) {
      util::check(idx < n && layer.mask().is_active(idx),
                  "delta removes an inactive position (corrupt delta?)");
      undo.push_back(value[idx]);
      layer.mask().deactivate(idx);
      value[idx] = 0.0f;
    }
    for (const auto& [idx, v] : section.added) {
      util::check(idx < n && !layer.mask().is_active(idx),
                  "delta grows an already-active position (corrupt delta?)");
      undo.push_back(value[idx]);
      layer.mask().activate(idx);
      value[idx] = v;
    }
    for (const auto& [idx, v] : section.changed) {
      util::check(idx < n && layer.mask().is_active(idx),
                  "delta changes an inactive position (corrupt delta?)");
      undo.push_back(value[idx]);
      value[idx] = v;
    }
  }
  const auto overwrite = [&undo](const DenseTensorDelta& d,
                                 tensor::Tensor& t) {
    undo.insert(undo.end(), t.raw(), t.raw() + t.numel());
    std::copy(d.values.begin(), d.values.end(), t.raw());
  };
  for (const DenseTensorDelta& d : delta.dense_params) {
    util::check(d.index < params.size(), "delta parameter index out of range");
    util::check(d.values.size() == params[d.index]->numel(),
                "delta parameter size mismatch");
    overwrite(d, *params[d.index]);
  }
  for (const DenseTensorDelta& d : delta.state_buffers) {
    util::check(d.index < buffers.size(), "delta buffer index out of range");
    util::check(d.values.size() == buffers[d.index]->numel(),
                "delta buffer size mismatch");
    overwrite(d, *buffers[d.index]);
  }
}

/// Undoes a failed patch_model(). The entries that ran are a prefix of
/// the delta, and each took its share of undo_size() in `undo`. The walk
/// runs newest entry first, so a position the delta wrote twice ends at
/// its first old value.
void restore_model(const CheckpointDelta& delta,
                   const std::vector<tensor::Tensor*>& params,
                   const std::vector<tensor::Tensor*>& buffers,
                   sparse::SparseModel* state,
                   const std::vector<float>& undo) {
  std::size_t end = undo_size(delta);  // one past the last entry's floats
  // Steps `end` back over an entry of `size` floats. True when the entry
  // ran; its old values are then undo[end, end + size).
  const auto ran = [&end, &undo](std::size_t size) {
    const bool done = size > 0 && end <= undo.size();
    end -= size;
    return done;
  };
  const auto put_back = [&](const std::vector<DenseTensorDelta>& list,
                            const std::vector<tensor::Tensor*>& tensors) {
    for (auto d = list.rbegin(); d != list.rend(); ++d) {
      if (ran(d->values.size())) {
        std::copy_n(undo.begin() + static_cast<std::ptrdiff_t>(end),
                    d->values.size(), tensors[d->index]->raw());
      }
    }
  };
  put_back(delta.state_buffers, buffers);
  put_back(delta.dense_params, params);
  for (auto s = delta.sparse_layers.rbegin(); s != delta.sparse_layers.rend();
       ++s) {
    // A section none of whose entries ran is skipped whole: its layer
    // check may be the one that failed.
    if (end - section_size(*s) >= undo.size()) {
      end -= section_size(*s);
      continue;
    }
    sparse::MaskedParameter& layer = state->layer(s->layer);
    tensor::Tensor& value = layer.param().value;
    for (auto c = s->changed.rbegin(); c != s->changed.rend(); ++c) {
      if (ran(1)) value[c->first] = undo[end];
    }
    for (auto a = s->added.rbegin(); a != s->added.rend(); ++a) {
      if (ran(1)) {
        layer.mask().deactivate(a->first);
        value[a->first] = undo[end];
      }
    }
    for (auto r = s->removed.rbegin(); r != s->removed.rend(); ++r) {
      if (ran(1)) {
        layer.mask().activate(*r);
        value[*r] = undo[end];
      }
    }
  }
}

}  // namespace

std::uint64_t state_hashes_on_this_thread() { return tls_state_hashes; }

void apply_delta(const CheckpointDelta& delta, nn::Module& model,
                 sparse::SparseModel* state) {
  apply_delta(delta, model, state, model_state_hash(model, state));
}

void apply_delta(const CheckpointDelta& delta, nn::Module& model,
                 sparse::SparseModel* state, std::uint64_t verified_hash) {
  util::check(
      verified_hash == delta.base_hash,
      "delta base mismatch: this delta was built against base state " +
          std::to_string(delta.base_hash) + " but the model hashes to " +
          std::to_string(verified_hash) +
          " — apply the delta to the exact checkpoint it was made from");

  // All or nothing: the old values the delta overwrites (never a copy of
  // the model) put the model back when a later entry or the result hash
  // rejects the delta. They are freed on return, before any plan patch.
  std::vector<tensor::Tensor*> params;
  for (nn::Parameter* p : model.parameters()) params.push_back(&p->value);
  const std::vector<tensor::Tensor*> buffers = model.state_buffers();
  std::vector<float> undo;
  undo.reserve(undo_size(delta));
  try {
    patch_model(delta, params, buffers, state, undo);
    util::check(model_state_hash(model, state) == delta.result_hash,
                "delta application did not reproduce the expected result "
                "state (corrupt delta file?)");
  } catch (...) {
    restore_model(delta, params, buffers, state, undo);
    throw;
  }
}

PlanPatch apply_delta_to_plan(const Plan& base_plan,
                              const CheckpointDelta& delta,
                              nn::Sequential& model,
                              const sparse::SparseModel* state,
                              float dense_eps) {
  PlanPatch out;
  out.plan = base_plan;

  LoweredModules mods = collect_lowered_modules(model);
  const std::vector<nn::Parameter*> params = model.parameters();
  const std::vector<tensor::Tensor*> buffers = model.state_buffers();
  std::unordered_map<const nn::Parameter*, std::size_t> param_index;
  for (std::size_t i = 0; i < params.size(); ++i) param_index[params[i]] = i;
  std::unordered_map<const tensor::Tensor*, std::size_t> buffer_index;
  for (std::size_t i = 0; i < buffers.size(); ++i) buffer_index[buffers[i]] = i;
  const auto masked = masked_layers(state);

  // Each touched layer's section; null when two sections name one layer,
  // since the second then edits the first's result, not the base node.
  std::unordered_map<std::size_t, const SparseLayerDelta*> layer_section;
  for (const SparseLayerDelta& s : delta.sparse_layers) {
    const auto [it, first] = layer_section.emplace(s.layer, &s);
    if (!first) it->second = nullptr;
  }
  std::unordered_set<std::size_t> touched_params;
  for (const DenseTensorDelta& d : delta.dense_params) {
    touched_params.insert(d.index);
  }
  std::unordered_set<std::size_t> touched_buffers;
  for (const DenseTensorDelta& d : delta.state_buffers) {
    touched_buffers.insert(d.index);
  }

  // Attribute every touched tensor to a lowered module; anything left
  // over has no plan node to patch and forces a full recompile.
  std::unordered_set<std::size_t> accounted_params, accounted_buffers;
  std::unordered_set<std::size_t> covered_layers;

  struct SparseSite {
    const nn::Parameter* weight = nullptr;
    const nn::Parameter* bias = nullptr;
    bool touched = false;
  };
  std::vector<SparseSite> sites(mods.sparse.size());
  for (std::size_t s = 0; s < mods.sparse.size(); ++s) {
    nn::Parameter* weight = nullptr;
    nn::Parameter* bias = nullptr;
    if (auto* linear = dynamic_cast<nn::Linear*>(mods.sparse[s])) {
      weight = &linear->weight();
      if (linear->has_bias()) bias = &linear->bias();
    } else if (auto* conv = dynamic_cast<nn::Conv2d*>(mods.sparse[s])) {
      weight = &conv->weight();
      if (conv->has_bias()) bias = &conv->bias();
    }
    util::check(weight != nullptr, "collect_lowered_modules inconsistency");
    sites[s].weight = weight;
    sites[s].bias = bias;
    bool touched = false;
    const std::size_t wi = param_index.at(weight);
    accounted_params.insert(wi);
    if (touched_params.count(wi) > 0) touched = true;
    const auto mit = masked.find(weight);
    if (mit != masked.end()) {
      covered_layers.insert(mit->second);
      if (layer_section.count(mit->second) > 0) touched = true;
    }
    if (bias != nullptr) {
      const std::size_t bi = param_index.at(bias);
      accounted_params.insert(bi);
      if (touched_params.count(bi) > 0) touched = true;
    }
    sites[s].touched = touched;
  }

  std::vector<char> bn_touched(mods.bns.size(), 0);
  for (std::size_t b = 0; b < mods.bns.size(); ++b) {
    const nn::BatchNorm& bn = *mods.bns[b];
    bool touched = false;
    for (const nn::Parameter* p : {&bn.gamma(), &bn.beta()}) {
      const std::size_t pi = param_index.at(p);
      accounted_params.insert(pi);
      if (touched_params.count(pi) > 0) touched = true;
    }
    for (const tensor::Tensor* buf : {&bn.running_mean(), &bn.running_var()}) {
      const auto it = buffer_index.find(buf);
      if (it != buffer_index.end()) {
        accounted_buffers.insert(it->second);
        if (touched_buffers.count(it->second) > 0) touched = true;
      }
    }
    bn_touched[b] = touched ? 1 : 0;
  }

  for (const std::size_t p : touched_params) {
    if (accounted_params.count(p) == 0) out.needs_full_recompile = true;
  }
  for (const std::size_t b : touched_buffers) {
    if (accounted_buffers.count(b) == 0) out.needs_full_recompile = true;
  }
  for (const auto& [l, section] : layer_section) {
    if (covered_layers.count(l) == 0) out.needs_full_recompile = true;
  }
  if (out.needs_full_recompile) return out;

  Plan& plan = out.plan;
  for (PlanOp& op : plan.ops) {
    if (op.kind == PlanOpKind::kSpmm || op.kind == PlanOpKind::kConv) {
      ++out.total_weight_nodes;
      const std::size_t s = op.sparse_ordinal;
      if (s == PlanOp::kNoOrdinal || s >= sites.size()) {
        out.needs_full_recompile = true;
        break;
      }
      const bool refold =
          op.folded_bn &&
          (op.bn_ordinal >= mods.bns.size() || bn_touched[op.bn_ordinal] != 0);
      if (sites[s].touched || refold) {
        // Rebuild the node the way a full recompile would: lower, then
        // re-fold. A masked node's base
        // matrix holds the base mask's positions (folding only scales
        // values), so merging the section's lists into them lowers the
        // edited mask without a dense scan.
        const auto mit = masked.find(sites[s].weight);
        std::optional<sparse::CsrMatrix> merged;
        if (mit != masked.end()) {
          // A layer without a section (only its bias or batch-norm moved)
          // merges an empty edit.
          static const SparseLayerDelta kNoEdit;
          const auto sit = layer_section.find(mit->second);
          const SparseLayerDelta* section =
              sit == layer_section.end() ? &kNoEdit : sit->second;
          if (section != nullptr) {
            merged = sparse::CsrMatrix::from_masked_edit(
                *op.csr, sites[s].weight->value, section->removed,
                section->added, section->changed);
          }
        }
        if (merged) {
          op.csr = std::make_shared<sparse::CsrMatrix>(std::move(*merged));
          lower_bias(op, sites[s].bias);
        } else {
          lower_weights(op, *sites[s].weight, sites[s].bias,
                        mit != masked.end() ? &state->layer(mit->second)
                                            : nullptr,
                        dense_eps);
          ++out.scanned_weight_nodes;
        }
        if (op.folded_bn) {
          util::check(op.bn_ordinal < mods.bns.size(),
                      "folded node lost its batch-norm provenance");
          std::vector<float> scale, shift;
          bn_scale_shift(*mods.bns[op.bn_ordinal], scale, shift);
          fold_scale_shift(op, scale, shift);
        }
        ++out.patched_weight_nodes;
      }
    } else if (op.kind == PlanOpKind::kScaleShift &&
               op.bn_ordinal != PlanOp::kNoOrdinal &&
               op.bn_ordinal < mods.bns.size() &&
               bn_touched[op.bn_ordinal] != 0) {
      bn_scale_shift(*mods.bns[op.bn_ordinal], op.scale, op.shift);
      ++out.patched_scale_shifts;
    }
  }

  if (out.needs_full_recompile) {
    out.plan = base_plan;  // hand back the pristine base
    out.patched_weight_nodes = 0;
    out.scanned_weight_nodes = 0;
    out.patched_scale_shifts = 0;
    return out;
  }

  if (out.patched_weight_nodes > 0) {
    // Refresh the model-wide nnz counter.
    std::size_t nnz = 0;
    for (const PlanOp& op : plan.ops) {
      if (op.csr != nullptr) nnz += op.csr->nnz();
    }
    plan.total_nnz = nnz;
  }
  return out;
}

}  // namespace dstee::serve
