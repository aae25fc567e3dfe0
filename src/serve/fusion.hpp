// FuseEpilogue: graph fusion over the Plan IR.
//
// Serving a sparse network spends most of its time in the CSR product
// kernels, but the unfused plan still walks every output tensor twice
// more for the elementwise tail — once for the activation, once for the
// residual join. FuseEpilogue absorbs those consumers into the producing
// CSR node as a PlanEpilogue annotation, which the executor lowers to a
// kernels::Epilogue applied inside the kernel's output loop while the
// value is still in register. Two patterns are matched, both under a
// single-consumer dataflow guard:
//
//   kSpmm/kConv → kActivation            producer gains the activation
//   {main, shortcut} → kAdd(+ReLU)       the topologically later CSR
//                                        input absorbs the add (the other
//                                        edge becomes the fused residual
//                                        input) and the optional ReLU
//
// Fusion is bit-identical to the unfused sequence: the epilogue applies
// bias → residual → activation in the producer's op order, activate()
// reproduces the standalone kernels op-for-op, and IEEE float addition is
// commutative bitwise so either kAdd operand order yields the same bits.
//
// Delta patching composes for free: apply_delta_to_plan rewrites
// csr/bias through the provenance ordinals and never touches the
// epilogue annotation.
#pragma once

#include "serve/passes.hpp"

namespace dstee::serve {

/// The epilogue-fusion pass. Stateless; safe to run on any valid plan
/// (plans with nothing to fuse are returned unchanged). Re-running is
/// idempotent — fused producers no longer match either pattern.
class FuseEpilogue final : public Pass {
 public:
  std::string name() const override { return "fuse_epilogue"; }
  void run(Plan& plan) const override;
};

}  // namespace dstee::serve
