#include "sparse/masked_parameter.hpp"

#include "util/check.hpp"

namespace dstee::sparse {

MaskedParameter::MaskedParameter(nn::Parameter& param, Mask mask,
                                 std::size_t optimizer_index)
    : param_(&param),
      mask_(std::move(mask)),
      counter_(param.value.shape()),
      optimizer_index_(optimizer_index) {
  util::check(mask_.shape() == param.value.shape(),
              "mask shape must match parameter shape");
  util::check(param.sparsifiable,
              "MaskedParameter requires a sparsifiable parameter");
}

tensor::Tensor& MaskedParameter::counter() {
  if (!counter_) {
    util::fail("layer '" + name() +
               "': its DST counter was released (an inference-only model)");
  }
  return *counter_;
}

const tensor::Tensor& MaskedParameter::counter() const {
  return const_cast<MaskedParameter*>(this)->counter();
}

tensor::Tensor& MaskedParameter::restore_counter() {
  if (!counter_) counter_.emplace(param_->value.shape());
  return *counter_;
}

void MaskedParameter::accumulate_counter() {
  tensor::Tensor& counter = this->counter();
  const tensor::Tensor& m = mask_.tensor();
  for (std::size_t i = 0; i < counter.numel(); ++i) {
    counter[i] += m[i];
  }
}

}  // namespace dstee::sparse
