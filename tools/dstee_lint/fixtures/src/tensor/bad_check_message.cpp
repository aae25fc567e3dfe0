// Fixture: util::check messages built at the call in a hot layer. Each
// of the three call sites must trigger [eager-check-message]: the
// message is concatenated before the condition is tested.
// (Fixtures are linted, never compiled, so no declarations needed.)
#include <string>

namespace dstee::tensor {

void bad_concat(const Tensor& a, const Tensor& b) {
  util::check(a.numel() == b.numel(), "sizes differ: " + a.name());
}

void bad_to_string(std::size_t n, std::size_t want) {
  util::check(n == want,
              "expected " +
                  std::to_string(want) + " elements");
}

void bad_shape_string(const Tensor& a) {
  util::check(a.rank() == 2, describe(a.shape().to_string()));
}

void good_literal(const Tensor& a, std::size_t k) {
  // A literal message, even with a `+` in the condition, stays quiet.
  util::check(a.numel() + k > 0, "empty input (a + k == 0)");
}

void good_fail_on_failure(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    util::fail("shapes differ: " + a.shape().to_string() + " vs " +
               b.shape().to_string());
  }
}

}  // namespace dstee::tensor
