// Known-bad fixture: serve-layer code calling a raw activation kernel.
// Eval ops must compose a kernels::Epilogue for apply_epilogue instead;
// the raw kernels are training-path compat wrappers.
#include "kernels/activations.hpp"
#include "kernels/epilogue.hpp"

namespace dstee::serve {

void bad_raw_activation(tensor::Tensor& x) {
  kernels::relu(x);  // FIRES serve-epilogue: raw kernel in src/serve/
}

void good_epilogue(const tensor::Tensor& x) {
  kernels::Epilogue ep;
  ep.has_act = true;
  (void)kernels::apply_epilogue(x, ep);  // blessed pattern: stays quiet
}

}  // namespace dstee::serve
