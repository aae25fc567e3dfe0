// Checkpointing: serialize model parameters plus sparse-training state
// (masks + occurrence counters) to a single binary file, so a sparse
// training run can pause/resume or ship its final topology for deployment.
//
// Format (little-endian, versioned; v2 = current):
//   magic "DSTE" | u32 version | u64 num_tensors
//   per tensor: u64 name_len | name bytes | u64 rank | u64 dims[rank]
//               | float data[numel]
// Tensor names carry "#value" / "#state" / "#mask" / "#counter" suffixes
// keyed by parameter/buffer order, so loading validates shapes AND
// ordering. "#state" records (v2+) persist Module::state_buffers() —
// batch-norm running statistics — which eval-mode inference depends on.
//
// Loading writes each record straight into the model: values, buffers
// and counters into their tensors, and each "#mask" record into the
// layer's mask storage (Mask::read_in_place), checked binary there, with
// no temporary copy. A rejected record therefore leaves the model partly
// written; a caller that must stay whole copies first (see
// ModelRegistry::swap_model).
#pragma once

#include <string>

#include "nn/module.hpp"
#include "sparse/sparse_model.hpp"

namespace dstee::train {

/// Writes every parameter value of `model` (and, if `state` is non-null,
/// every mask and counter) to `path`. Throws CheckError on I/O failure,
/// and, before the file is opened, when a layer's counter was released
/// (SparseModel::release_counters).
void save_checkpoint(const std::string& path, nn::Module& model,
                     const sparse::SparseModel* state = nullptr);

/// Restores a checkpoint written by save_checkpoint into a model with the
/// SAME architecture (parameter count/shapes are validated). When `state`
/// is non-null, masks and counters are restored too and masks are
/// re-applied to the values; a released counter is allocated again to
/// take its record.
void load_checkpoint(const std::string& path, nn::Module& model,
                     sparse::SparseModel* state = nullptr);

}  // namespace dstee::train
